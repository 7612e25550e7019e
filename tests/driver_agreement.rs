//! Decomposition-independence: the serial pipeline, the shared-memory
//! (stream) driver and both simulated-MPI drivers must produce the same
//! SNP calls on the same input (NORM accumulator, p-value cutoff) — the
//! strongest evidence that the parallelisation is semantics-preserving,
//! which is what lets the paper claim its speedups come "for free".

use gnumap_snp::core::accum::NormAccumulator;
use gnumap_snp::core::pipeline::run_serial;
use gnumap_snp::engine::{self, DriverRegistry, NullSink, RunContext};
use gnumap_snp::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};
use simulate::{GenomeConfig, SnpCatalogConfig};

fn workload() -> (genome::DnaSeq, Vec<SequencedRead>) {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let reference = simulate::generate_genome(
        &GenomeConfig {
            length: 6_000,
            repeat_families: 2,
            repeat_length: 150,
            repeat_copies: 2,
            repeat_divergence: 0.01,
            ..Default::default()
        },
        &mut rng,
    );
    let catalog = simulate::generate_snp_catalog(
        &reference,
        &SnpCatalogConfig {
            count: 8,
            ..Default::default()
        },
        &mut rng,
    );
    let individual = simulate::apply_snps_monoploid(&reference, &catalog);
    let cfg = ReadSimConfig {
        coverage: 12.0,
        ..Default::default()
    };
    let reads = simulate_reads(
        &ReadSource::Monoploid(&individual),
        cfg.read_count(reference.len()),
        &cfg,
        &mut rng,
    )
    .into_iter()
    .map(|r| r.read)
    .collect();
    (reference, reads)
}

fn call_keys(calls: &[SnpCall]) -> Vec<(usize, Base)> {
    calls.iter().map(|c| (c.pos, c.allele)).collect()
}

#[test]
fn all_four_drivers_agree() {
    let quiet = Observer::disabled();
    let (reference, reads) = workload();
    let cfg = GnumapConfig::default();

    let serial = run_serial::<NormAccumulator>(&reference, &reads, &cfg, &quiet);
    let serial_keys = call_keys(&serial.calls);
    assert!(
        !serial_keys.is_empty(),
        "fixture must produce at least one call"
    );

    // The shared-memory names select the stream driver.
    let mut ctx = RunContext::new(&reference);
    ctx.threads = 3;
    let shared = DriverRegistry::standard()
        .get("shared")
        .unwrap()
        .run(&ctx, engine::ReadSource::Slice(&reads), &mut NullSink)
        .unwrap();
    assert_eq!(
        call_keys(&shared.calls),
        serial_keys,
        "shared memory differs"
    );

    let read_split =
        run_read_split::<NormAccumulator>(&reference, &reads, &cfg, 3, &quiet).unwrap();
    assert_eq!(
        call_keys(&read_split.calls),
        serial_keys,
        "read-split differs"
    );

    let genome_split =
        run_genome_split::<NormAccumulator>(&reference, &reads, &cfg, 3, &quiet).unwrap();
    assert_eq!(
        call_keys(&genome_split.calls),
        serial_keys,
        "genome-split differs"
    );
}

#[test]
fn rank_count_does_not_change_results() {
    let quiet = Observer::disabled();
    let (reference, reads) = workload();
    let cfg = GnumapConfig::default();
    let one = run_read_split::<NormAccumulator>(&reference, &reads, &cfg, 1, &quiet).unwrap();
    let keys = call_keys(&one.calls);
    for ranks in [2usize, 4, 7] {
        let r = run_read_split::<NormAccumulator>(&reference, &reads, &cfg, ranks, &quiet).unwrap();
        assert_eq!(call_keys(&r.calls), keys, "read-split ranks={ranks}");
        let g =
            run_genome_split::<NormAccumulator>(&reference, &reads, &cfg, ranks, &quiet).unwrap();
        assert_eq!(call_keys(&g.calls), keys, "genome-split ranks={ranks}");
    }
}

#[test]
fn repeated_runs_are_bit_deterministic() {
    let quiet = Observer::disabled();
    let (reference, reads) = workload();
    let cfg = GnumapConfig::default();
    let a = run_read_split::<NormAccumulator>(&reference, &reads, &cfg, 4, &quiet).unwrap();
    let b = run_read_split::<NormAccumulator>(&reference, &reads, &cfg, 4, &quiet).unwrap();
    assert_eq!(a.calls, b.calls, "same input, same ranks → identical calls");
    assert_eq!(a.reads_mapped, b.reads_mapped);
}
