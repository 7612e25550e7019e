//! A server configuration the daemon cannot run is refused by `start` with
//! a typed `InvalidInput` error naming the field — not a panic.

use genome::seq::DnaSeq;
use gnumap_core::config::GnumapConfig;
use server::{start, ServerConfig};
use std::io;

/// `start` on a small reference with `cfg`; must fail with `InvalidInput`
/// and name `field` in the message.
fn assert_rejected(cfg: ServerConfig, field: &str) {
    let reference: DnaSeq = "ACGTTGCAAGGCTTACCGATACGTTGCAAGGCTTACCGAT".parse().unwrap();
    let err = match start(reference, GnumapConfig::default(), cfg, "127.0.0.1:0") {
        Ok(_) => panic!("a zero {field} must be refused"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    assert!(err.to_string().contains(field), "{err}");
}

#[test]
fn zero_workers_is_invalid_input() {
    let cfg = ServerConfig {
        workers: 0,
        ..ServerConfig::default()
    };
    assert_rejected(cfg, "workers");
}

#[test]
fn zero_batch_size_is_invalid_input() {
    let cfg = ServerConfig {
        batch_size: 0,
        ..ServerConfig::default()
    };
    assert_rejected(cfg, "batch_size");
}

#[test]
fn zero_ingress_capacity_is_invalid_input() {
    let cfg = ServerConfig {
        ingress_capacity: 0,
        ..ServerConfig::default()
    };
    assert_rejected(cfg, "ingress_capacity");
}
