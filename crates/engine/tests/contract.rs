//! Engine contract tests: every registry driver honours the run
//! contract on a small seeded workload, and the bit-exact ones match the
//! serial fixed-point digest.

use engine::{DriverRegistry, EngineError, ReadSource, RunContext, VecSink};
use exec::MemoryStream;
use genome::read::SequencedRead;
use genome::seq::DnaSeq;
use gnumap_core::accum::AccumulatorMode;
use gnumap_core::observe::{Event, MemorySink, Observer};
use gnumap_core::GnumapConfig;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource as SimSource};
use simulate::{
    apply_snps_monoploid, generate_genome, generate_snp_catalog, GenomeConfig, SnpCatalogConfig,
};
use std::sync::Arc;

fn fixture(seed: u64) -> (DnaSeq, Vec<SequencedRead>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let reference = generate_genome(
        &GenomeConfig {
            length: 3_000,
            repeat_families: 1,
            ..GenomeConfig::default()
        },
        &mut rng,
    );
    let snps = generate_snp_catalog(
        &reference,
        &SnpCatalogConfig {
            count: 4,
            ..SnpCatalogConfig::default()
        },
        &mut rng,
    );
    let individual = apply_snps_monoploid(&reference, &snps);
    let cfg = ReadSimConfig {
        coverage: 8.0,
        ..ReadSimConfig::default()
    };
    let count = cfg.read_count(reference.len());
    let reads = simulate_reads(&SimSource::Monoploid(&individual), count, &cfg, &mut rng)
        .into_iter()
        .map(|r| r.read)
        .collect();
    (reference, reads)
}

#[test]
fn every_bit_exact_driver_matches_the_serial_fixed_digest() {
    let (reference, reads) = fixture(2024);
    let registry = DriverRegistry::standard();

    let mut ctx = RunContext::new(&reference);
    ctx.config = GnumapConfig {
        accumulator: AccumulatorMode::Fixed,
        ..GnumapConfig::default()
    };
    ctx.threads = 3;
    ctx.batch_size = 16;
    ctx.chunk_size = 32;

    let serial = registry
        .get("serial")
        .unwrap()
        .run(&ctx, ReadSource::Slice(&reads), &mut VecSink::default())
        .expect("serial run");
    let want = serial.accumulator_digest.expect("serial digest");

    for driver in registry.all() {
        if !driver.capabilities().supports(AccumulatorMode::Fixed) {
            continue;
        }
        let mut sink = VecSink::default();
        let report = driver
            .run(&ctx, ReadSource::Slice(&reads), &mut sink)
            .unwrap_or_else(|e| panic!("{} failed: {e}", driver.name()));
        assert_eq!(
            report.accumulator_digest,
            Some(want),
            "{} digest diverged from serial",
            driver.name()
        );
        assert_eq!(
            sink.calls.len(),
            serial.calls.len(),
            "{} delivered a different call count to the sink",
            driver.name()
        );
        assert_eq!(
            report.reads_mapped,
            serial.reads_mapped,
            "{}",
            driver.name()
        );
    }
}

#[test]
fn stream_source_and_slice_source_agree() {
    let (reference, reads) = fixture(77);
    let registry = DriverRegistry::standard();
    let driver = registry.get("stream").unwrap();

    let mut ctx = RunContext::new(&reference);
    ctx.config.accumulator = AccumulatorMode::Fixed;
    ctx.threads = 2;
    ctx.batch_size = 16;

    let from_slice = driver
        .run(&ctx, ReadSource::Slice(&reads), &mut VecSink::default())
        .expect("slice run");
    let mut stream = MemoryStream::new(reads.clone());
    let from_stream = driver
        .run(
            &ctx,
            ReadSource::Stream(&mut stream),
            &mut VecSink::default(),
        )
        .expect("stream run");
    assert_eq!(
        from_slice.accumulator_digest,
        from_stream.accumulator_digest
    );

    // Slice-based drivers drain a stream source the same way.
    let serial = registry.get("serial").unwrap();
    let mut stream = MemoryStream::new(reads.clone());
    let drained = serial
        .run(
            &ctx,
            ReadSource::Stream(&mut stream),
            &mut VecSink::default(),
        )
        .expect("serial over stream source");
    assert_eq!(drained.accumulator_digest, from_slice.accumulator_digest);
}

#[test]
fn unsupported_accumulators_are_typed_errors() {
    let (reference, reads) = fixture(5);
    let registry = DriverRegistry::standard();
    let mut ctx = RunContext::new(&reference);
    ctx.config.accumulator = AccumulatorMode::CharDisc;

    for name in ["stream", "server"] {
        let driver = registry.get(name).unwrap();
        assert!(!driver.capabilities().supports(AccumulatorMode::CharDisc));
        let err = driver
            .run(&ctx, ReadSource::Slice(&reads), &mut VecSink::default())
            .expect_err(name);
        match err {
            EngineError::UnsupportedAccumulator { driver, mode, .. } => {
                assert_eq!(driver, name);
                assert_eq!(mode, AccumulatorMode::CharDisc);
            }
            other => panic!("{name}: unexpected error {other:?}"),
        }
    }
}

#[test]
fn every_driver_emits_run_events_through_the_context_observer() {
    let (reference, reads) = fixture(91);
    let registry = DriverRegistry::standard();

    for driver in registry.all() {
        let sink = Arc::new(MemorySink::default());
        let mut ctx = RunContext::new(&reference);
        ctx.config.accumulator = if driver.capabilities().supports(AccumulatorMode::Fixed) {
            AccumulatorMode::Fixed
        } else {
            AccumulatorMode::Norm
        };
        ctx.threads = 2;
        ctx.observer = Observer::new(sink.clone());
        let report = driver
            .run(&ctx, ReadSource::Slice(&reads), &mut VecSink::default())
            .unwrap_or_else(|e| panic!("{} failed: {e}", driver.name()));
        let events = sink.events();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds.first().copied(),
            Some("run_start"),
            "{}: events {kinds:?}",
            driver.name()
        );
        assert!(
            kinds.contains(&"stage_end"),
            "{}: no stage timings in {kinds:?}",
            driver.name()
        );
        // The run ends with exactly the report's counts and wall time.
        match events.last() {
            Some(Event::RunEnd {
                reads_processed,
                reads_mapped,
                calls,
                accumulator_bytes,
                wall_secs,
            }) => {
                assert_eq!(
                    (*reads_processed, *reads_mapped, *calls, *accumulator_bytes),
                    (
                        report.reads_processed as u64,
                        report.reads_mapped as u64,
                        report.calls.len() as u64,
                        report.accumulator_bytes as u64
                    ),
                    "{}: run_end counts differ from the report",
                    driver.name()
                );
                assert_eq!(
                    wall_secs.to_bits(),
                    report.elapsed_secs.to_bits(),
                    "{}: run_end wall time differs from the report",
                    driver.name()
                );
            }
            other => panic!("{}: last event {other:?}, not run_end", driver.name()),
        }
    }
}

#[test]
fn invalid_context_is_rejected_before_running() {
    let (reference, reads) = fixture(1);
    let registry = DriverRegistry::standard();
    let mut ctx = RunContext::new(&reference);
    ctx.threads = 0;
    let err = registry
        .get("stream")
        .unwrap()
        .run(&ctx, ReadSource::Slice(&reads), &mut VecSink::default())
        .expect_err("zero threads");
    assert!(matches!(err, EngineError::InvalidContext(_)), "{err:?}");
}
