//! Seeded determinism: two full pipeline runs with the same RNG seed and
//! configuration must produce byte-identical calls — for every driver.
//!
//! This is subtly different from the matrix tier (drivers vs each other):
//! here each driver is compared against *itself* across process-internal
//! re-runs, catching nondeterminism that happens to be self-consistent
//! across drivers (e.g. a HashMap iteration order that every driver
//! shares). The drivers come from [`engine::DriverRegistry`], so a newly
//! registered execution mode is swept automatically.

use conformance::workload::{build, WorkloadSpec};
use engine::{Driver, DriverRegistry, NullSink, ReadSource, RunContext};
use gnumap_core::accum::AccumulatorMode;
use gnumap_core::driver::encode_calls;
use gnumap_core::report::RunReport;

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        seed: 0xde_7e_12,
        genome_len: 1_800,
        snp_count: 4,
        coverage: 5.0,
        read_length: 62,
        repeat_families: 0,
    }
}

fn fingerprint(report: &RunReport) -> (Vec<u64>, Option<u64>, usize) {
    (
        encode_calls(&report.calls)
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        report.accumulator_digest,
        report.reads_mapped,
    )
}

/// The workload builder itself must be deterministic, else every
/// driver-level assertion below would be vacuous.
#[test]
fn workload_build_is_deterministic() {
    let a = build(&spec());
    let b = build(&spec());
    assert_eq!(a.reference.to_string(), b.reference.to_string());
    assert_eq!(a.truth, b.truth);
    assert_eq!(a.reads.len(), b.reads.len());
    for (ra, rb) in a.reads.iter().zip(&b.reads) {
        assert_eq!(ra, rb);
    }
}

/// Every registry driver, run twice over the same seeded workload with
/// the same context, reproduces itself bit-for-bit.
#[test]
fn every_registry_driver_runs_twice_identically() {
    let wl = build(&spec());
    let registry = DriverRegistry::standard();
    for driver in registry.all() {
        let mut ctx = RunContext::new(&wl.reference);
        ctx.config = wl.config;
        ctx.config.accumulator = AccumulatorMode::Fixed;
        ctx.seed = spec().seed;
        ctx.threads = 3;
        ctx.batch_size = 16;
        ctx.chunk_size = 48;
        ctx.batches_per_worker = 2;

        let run = |d: &dyn Driver| {
            d.run(&ctx, ReadSource::Slice(&wl.reads), &mut NullSink)
                .unwrap_or_else(|e| panic!("{} failed: {e}", d.name()))
        };
        let a = run(driver);
        let b = run(driver);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{} is not self-deterministic",
            driver.name()
        );
    }
}
