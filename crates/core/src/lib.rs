//! GNUMAP-SNP: the paper's pipeline, assembled.
//!
//! This crate wires the substrates together into the three-step system of
//! paper Figure 1:
//!
//! 1. **Seed** — the genomic k-mer seed index proposes candidate mapping
//!    regions for each read ([`mapping`]).
//! 2. **Align** — the quality-extended Pair-HMM computes each candidate's
//!    likelihood and marginal per-column base probabilities; the read's
//!    evidence is split across its candidate locations in proportion to
//!    their posterior weights and summed into a genome-length
//!    **accumulator** ([`accum`] — with the paper's three memory layouts:
//!    full floats, nucleotide-byte discretization, centroid
//!    discretization), held in pages allocated where reads deposit
//!    ([`evidence`]).
//! 3. **Test** — a likelihood ratio test per genome position calls bases
//!    above background and reports SNPs against the reference, with
//!    p-value or FDR cutoffs ([`snpcall`]).
//!
//! Three drivers run the pipeline here: serial ([`pipeline`]) and the
//! paper's two MPI decompositions, read-split and genome-split, on the
//! `mpisim` runtime ([`driver`]). The shared-memory driver is the `exec`
//! crate's streaming worker pool. Every driver has one run function taking
//! an [`Observer`]; all but genome-split map reads through one batch step
//! ([`pipeline::BatchCounts::map_batch`]), and all of them bracket the
//! run with [`observe::RunTimer`]. They produce identical calls for the
//! NORM accumulator on the same input.

pub mod accum;
pub mod config;
pub mod driver;
pub mod evidence;
pub mod footprint;
pub mod mapping;
pub mod observe;
pub mod pipeline;
pub mod report;
pub mod snpcall;

pub use accum::{AccumulatorMode, GenomeAccumulator};
pub use config::GnumapConfig;
pub use mapping::{MappingConfig, MappingEngine, ReadAlignment};
pub use observe::{Event, EventSink, Observer, Stage};
pub use pipeline::run_pipeline;
pub use report::{score_snp_calls, AccuracyReport, RunReport};
pub use snpcall::{call_snps, SnpCall, SnpCallConfig};
