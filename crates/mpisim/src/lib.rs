//! A deterministic message-passing runtime standing in for MPI.
//!
//! The paper parallelises GNUMAP-SNP with MPI in two decompositions
//! (read-split and genome-split). This crate reproduces the programming
//! model on one machine: every *rank* is an OS thread, point-to-point messages
//! travel over unbounded channels, and the collectives (barrier, broadcast,
//! gather, reduce, allreduce) are built on top of the point-to-point layer
//! exactly as a simple MPI implementation would.
//!
//! Determinism: every receive is addressed by `(source, tag)`, collectives
//! reduce in rank order, and no wall-clock or randomness enters the
//! runtime — so a parallel run computes a bit-identical result on every
//! execution, which the drivers' decomposition-independence tests rely on.
//!
//! Traffic accounting: each send records its payload size (via the
//! [`WireSize`] trait) so benchmarks can report communication volume per
//! decomposition, the quantity that explains the paper's Figure 4 gap
//! between the two MPI modes.

pub mod collectives;
pub mod cputime;
pub mod stats;
pub mod wire;
pub mod world;

pub use cputime::{thread_cpu_seconds, ThreadCpuTimer};
pub use stats::TrafficStats;
pub use wire::WireSize;
pub use world::{Rank, World, WorldReport};
