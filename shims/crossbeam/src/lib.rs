//! Offline stand-in for `crossbeam` (see `shims/README.md`).
//!
//! One module is provided, the subset this workspace uses:
//! [`channel`] — multi-producer multi-consumer channels, unbounded or
//! bounded with blocking backpressure, with crossbeam's disconnect
//! semantics (a `recv` on an empty channel whose senders are gone fails;
//! a `send` fails once all receivers are gone).
//!
//! Everything is built on `std::sync` primitives: correctness and API
//! shape over raw throughput, which is ample for the thread counts this
//! workspace runs.

pub mod channel;
