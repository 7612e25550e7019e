//! MAQ-style baseline mapper and SNP caller.
//!
//! The paper compares GNUMAP-SNP against MAQ (Li, Ruan & Durbin 2008), the
//! then-leading single-best-alignment caller. This crate reimplements the
//! behaviours the paper contrasts against:
//!
//! * each read is committed to **one** mapping location — the placement
//!   minimising the sum of Phred qualities at mismatching bases (MAQ's
//!   scoring rule), with ties broken randomly ("randomly assign reads that
//!   map to multiple locations", as the paper describes);
//! * a mapping quality derived from the gap between the best and
//!   second-best placements, below which reads are discarded;
//! * a quality-weighted pileup and a consensus caller whose SNP decision is
//!   a fixed quality cutoff — the "ad hoc cutoffs \[without\] comparisons
//!   with background noise" the paper criticises.
//!
//! Kept deliberately faithful to that design: no marginal evidence, no
//! background test — so the accuracy comparison in the Table I
//! reproduction measures exactly the methodological difference the paper
//! claims matters.

pub mod caller;
pub mod consensus;
pub mod mapper;
pub mod pileup;

pub use caller::{run_baseline, BaselineConfig, BaselineReport};
pub use consensus::{call_consensus_snps, BaselineSnp, ConsensusConfig};
pub use mapper::{MaqConfig, MaqHit, MaqMapper};
pub use pileup::Pileup;
