//! Integration tests for the paper's memory-optimization claims
//! (Tables II/III) and the simulated-scaling machinery (Figures 4/5) as
//! executable assertions.

use gnumap_snp::core::accum::{
    AccumulatorMode, CentDiscAccumulator, CharDiscAccumulator, GenomeAccumulator, NormAccumulator,
};
use gnumap_snp::core::driver::read_split::run_read_split;
use gnumap_snp::core::observe::{Event, MemorySink};
use gnumap_snp::core::report::CommModel;
use gnumap_snp::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};
use simulate::{GenomeConfig, SnpCatalogConfig};
use std::sync::Arc;

fn workload(
    len: usize,
    snps: usize,
    coverage: f64,
    seed: u64,
) -> (genome::DnaSeq, Vec<(usize, Base)>, Vec<SequencedRead>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let reference = simulate::generate_genome(
        &GenomeConfig {
            length: len,
            repeat_families: 1,
            ..Default::default()
        },
        &mut rng,
    );
    let catalog = simulate::generate_snp_catalog(
        &reference,
        &SnpCatalogConfig {
            count: snps,
            ..Default::default()
        },
        &mut rng,
    );
    let individual = simulate::apply_snps_monoploid(&reference, &catalog);
    let cfg = ReadSimConfig {
        coverage,
        ..Default::default()
    };
    let reads = simulate_reads(
        &ReadSource::Monoploid(&individual),
        cfg.read_count(len),
        &cfg,
        &mut rng,
    )
    .into_iter()
    .map(|r| r.read)
    .collect();
    (
        reference,
        catalog.iter().map(|s| (s.pos, s.alt)).collect(),
        reads,
    )
}

/// Table II's shape as a test: accumulator bytes strictly ordered
/// NORM > CHARDISC > CENTDISC at identical genome length.
#[test]
fn accumulator_memory_ordering() {
    let len = 50_000;
    let norm = NormAccumulator::new(len).heap_bytes();
    let chard = CharDiscAccumulator::new(len).heap_bytes();
    let cent = CentDiscAccumulator::new(len).heap_bytes();
    assert!(norm > chard && chard > cent, "{norm} > {chard} > {cent}");
    // And the per-base arithmetic matches the mode constants.
    assert_eq!(norm, len * AccumulatorMode::Norm.bytes_per_base());
    assert_eq!(chard, len * AccumulatorMode::CharDisc.bytes_per_base());
    assert_eq!(cent, len * AccumulatorMode::CentDisc.bytes_per_base());
}

/// Table III's shape as a test: CHARDISC keeps precision while CENTDISC's
/// precision collapses on the same workload.
#[test]
fn centdisc_accuracy_collapses_but_chardisc_does_not() {
    let (reference, truth, reads) = workload(20_000, 10, 12.0, 31);
    let run = |mode: AccumulatorMode| {
        let report = run_pipeline(
            &reference,
            &reads,
            &GnumapConfig {
                accumulator: mode,
                ..Default::default()
            },
        );
        score_snp_calls(&report.calls, &truth)
    };
    let norm = run(AccumulatorMode::Norm);
    let chard = run(AccumulatorMode::CharDisc);
    let cent = run(AccumulatorMode::CentDisc);

    assert!(norm.precision() >= 0.9, "NORM baseline: {norm:?}");
    assert!(
        chard.precision() >= norm.precision() - 0.1,
        "CHARDISC must hold precision: {chard:?} vs {norm:?}"
    );
    assert!(
        cent.false_positives >= norm.false_positives + 5,
        "CENTDISC should produce a burst of false positives: {cent:?}"
    );
    assert!(
        cent.precision() < 0.8,
        "CENTDISC precision must collapse: {cent:?}"
    );
}

/// Figure 4/5 machinery: read-split divides the mapping work, so the
/// busiest of 4 ranks does well under 60% of one rank's work. Work is
/// counted exactly from each rank's `Event::Batch` (mapped reads, scored
/// candidates, deposited columns) instead of timed, so the check does not
/// depend on how loaded the host is.
#[test]
fn simulated_scaling_improves_with_ranks() {
    let (reference, _, reads) = workload(15_000, 5, 10.0, 32);
    let cfg = GnumapConfig::default();
    let model = CommModel::default();
    // Per rank: [mapped reads, scored candidates, deposited columns].
    let work = |ranks: usize| -> Vec<[u64; 3]> {
        let sink = Arc::new(MemorySink::new());
        let report = run_read_split::<NormAccumulator>(
            &reference,
            &reads,
            &cfg,
            ranks,
            &Observer::new(sink.clone()),
        )
        .unwrap();
        assert_eq!(report.rank_cpu_secs.len(), ranks);
        assert!(report.simulated_parallel_secs(&model).is_some());
        let mut per_rank = vec![[0; 3]; ranks];
        for event in sink.take() {
            if let Event::Batch {
                worker,
                mapped,
                candidates,
                deposited_columns,
                ..
            } = event
            {
                let rank = &mut per_rank[worker as usize];
                rank[0] += mapped;
                rank[1] += candidates;
                rank[2] += deposited_columns;
            }
        }
        per_rank
    };
    let one = work(1);
    let four = work(4);
    for (i, what) in ["mapped reads", "candidates", "columns"].iter().enumerate() {
        let t1 = one[0][i];
        let t4 = four.iter().map(|rank| rank[i]).max().unwrap();
        let total: u64 = four.iter().map(|rank| rank[i]).sum();
        assert!(t1 > 0, "{what}: one rank did no work");
        assert_eq!(total, t1, "{what}: the ranks must partition the work");
        assert!(
            (t4 as f64) < t1 as f64 * 0.6,
            "{what}: 4 ranks should beat 1 rank by well over 40%: {t1} vs busiest {t4}"
        );
    }
}

/// The communication model itself.
#[test]
fn comm_model_arithmetic() {
    let model = CommModel {
        latency_secs: 1e-3,
        bytes_per_sec: 1e6,
    };
    let traffic = mpisim::TrafficStats {
        messages: 10,
        payload_bytes: 2_000_000,
        barriers: 0,
        collectives: 0,
    };
    // 10 ms latency + 2 s transfer.
    assert!((model.seconds(&traffic) - 2.01).abs() < 1e-9);
}
