//! The five driver adapters: one per execution mode.
//!
//! Each adapter is a unit struct implementing [`crate::Driver`] over the
//! one run function of its execution mode; it validates the context,
//! picks the accumulator type with [`gnumap_core::with_accumulator`],
//! threads the observer through, and delivers the calls to the sink. No
//! pipeline logic lives here.

mod genome_split;
mod read_split;
mod serial;
mod server;
mod stream;

pub use genome_split::GenomeSplitDriver;
pub use read_split::ReadSplitDriver;
pub use serial::SerialDriver;
pub use server::ServerDriver;
pub use stream::StreamDriver;
