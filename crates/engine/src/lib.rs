//! Unified driver engine: one registry, one run contract.
//!
//! The pipeline has five ways to execute the same map → accumulate → call
//! algorithm — serial, two MPI decompositions, a streaming batch engine
//! (also the shared-memory mode), and a TCP daemon — each with its own run
//! function, all mapping through the one batching core of
//! [`gnumap_core::pipeline`]. This crate puts them behind
//! a single contract, so the CLI, the conformance matrix and the
//! benchmarks share one set of call sites:
//!
//! * [`Driver`] — `name()`, `capabilities()`, and
//!   `run(&RunContext, ReadSource, &mut dyn CallSink) -> RunReport`;
//! * [`RunContext`] — the reference genome, the [`gnumap_core::GnumapConfig`]
//!   (including the accumulator layout), the workload seed, the
//!   parallelism budget, the streaming shape, and an
//!   [`gnumap_core::observe::Observer`] for structured events;
//! * [`ReadSource`] / [`CallSink`] — reads in (slice or chunked stream),
//!   calls out;
//! * [`DriverRegistry`] — the single source of truth for driver names,
//!   with aliases, typo suggestions, and a generated capability table.
//!
//! The adapters are behaviour-preserving wrappers over the run
//! functions: with the fixed-point accumulator, every driver resolved
//! from the registry produces the same accumulator digest and the same
//! bit-identical call wire as the serial reference.

pub mod context;
pub mod contract;
pub mod drivers;
pub mod error;
pub mod registry;
pub mod sink;
pub mod source;

pub use context::RunContext;
pub use contract::{Capabilities, Driver};
pub use error::EngineError;
pub use registry::DriverRegistry;
pub use sink::{CallSink, NullSink, VecSink};
pub use source::ReadSource;
