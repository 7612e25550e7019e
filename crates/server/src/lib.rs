//! Batching SNP-calling service.
//!
//! A std-only TCP daemon that serves the paper's pipeline as a sessioned
//! request/response API: clients open a session, stream read chunks, and
//! finalize to receive SNP calls. Internally the server coalesces reads
//! from *all* live sessions into length-sorted micro-batches (the same
//! scheduling idea as the `exec` streaming driver) served by that
//! driver's worker pool (`exec::pool`), whose workers each keep a scratch
//! arena and share the server's one `MappingEngine`; per-session paged
//! evidence (`FixedAccumulator` pages allocated where reads land) keeps
//! sessions isolated while deposits commute bit-exactly, so every
//! session's digest and calls are bit-identical to a serial run over the
//! same reads regardless of batch composition or worker count.
//!
//! Module map:
//! - [`protocol`] — length-prefixed binary framing with typed errors
//! - [`queue`] — bounded MPMC queue (the admission-control primitive)
//! - [`session`] — session lifecycle, registry, paged session evidence
//! - [`metrics`] — per-stage counters behind the `Stats` frame
//! - [`server`] — acceptor, batcher, worker pool, graceful drain
//! - [`client`] — blocking client used by `gnumap client` and tests

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod session;

pub use client::{Client, ClientError};
pub use metrics::StatsSnapshot;
pub use protocol::{CallResult, ErrorKind, ProtocolError, Request, Response, SessionConfig};
pub use server::{start, ServerConfig, ServerHandle};
