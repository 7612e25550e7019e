//! `Event::Batch.candidates` counts the candidate placements the Pair-HMM
//! scored with its forward pass, before the `min_weight` cut. Every driver
//! must report the same total on the same reads: serial, read-split and
//! stream add up each read's `AlignScratch::scored()`, and genome-split's
//! ranks each count the scored placements their shard owns. The abandoned
//! and fallback counts follow the engine's `map_read_with` in the drivers
//! that call it; genome-split scores every candidate in full and reports
//! none abandoned. A read whose every candidate's forward total underflows
//! to 0 is counted as underflowed, alike by every driver. Survivors (the
//! posterior passes run) and the lane slots of their four-lane chunks
//! follow the engine too; genome-split's ranks chunk only the survivors
//! they own, so there the lanes are only held to what four-lane chunks
//! allow.

use exec::{run_stream, MemoryStream, StreamConfig};
use genome::{DnaSeq, SequencedRead};
use gnumap_core::accum::FixedAccumulator;
use gnumap_core::driver::genome_split::run_genome_split;
use gnumap_core::driver::read_split::run_read_split;
use gnumap_core::mapping::{AlignScratch, MappingEngine};
use gnumap_core::observe::{Event, MemorySink, Observer};
use gnumap_core::pipeline::run_serial;
use gnumap_core::GnumapConfig;
use pairhmm::forward::forward;
use pairhmm::{PhmmParams, Pwm};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use simulate::reads::{simulate_reads, ReadSimConfig, ReadSource};
use simulate::GenomeConfig;
use std::sync::Arc;

fn workload() -> (DnaSeq, Vec<SequencedRead>) {
    let mut rng = ChaCha8Rng::seed_from_u64(707);
    let reference = simulate::generate_genome(
        &GenomeConfig {
            length: 12_000,
            repeat_families: 3,
            repeat_copies: 4,
            ..Default::default()
        },
        &mut rng,
    );
    let sim = ReadSimConfig {
        coverage: 3.0,
        ..Default::default()
    };
    let reads = simulate_reads(
        &ReadSource::Monoploid(&reference),
        sim.read_count(reference.len()),
        &sim,
        &mut rng,
    )
    .into_iter()
    .map(|r| r.read)
    .collect();
    (reference, reads)
}

/// Run `f` under a memory sink and sum the batch events' candidates,
/// abandoned candidates, fallbacks, survivors and posterior lanes.
fn candidates(f: impl FnOnce(&Observer)) -> [u64; 5] {
    let sink = Arc::new(MemorySink::new());
    f(&Observer::new(sink.clone()));
    let mut sums = [0; 5];
    for e in sink.events() {
        if let Event::Batch {
            candidates,
            abandoned,
            fallbacks,
            survivors,
            posterior_lanes,
            ..
        } = e
        {
            let counts = [candidates, abandoned, fallbacks, survivors, posterior_lanes];
            for (sum, n) in sums.iter_mut().zip(counts) {
                *sum += n;
            }
        }
    }
    sums
}

#[test]
fn every_driver_counts_scored_candidates_alike() {
    let (reference, reads) = workload();
    let cfg = GnumapConfig::default();

    // Ground truth straight from the engine, plus the kept count the
    // drivers used to report, to show the two differ on this workload.
    let engine = MappingEngine::new(&reference, cfg.mapping);
    let mut scratch = AlignScratch::new();
    let (mut scored, mut kept, mut abandoned, mut fallbacks) = (0u64, 0u64, 0u64, 0u64);
    let (mut lanes, mut lone) = (0u64, 0u64);
    for read in &reads {
        engine.map_read_with(read, &mut scratch);
        scored += scratch.scored() as u64;
        kept += scratch.len() as u64;
        abandoned += scratch.abandoned() as u64;
        fallbacks += scratch.fallbacks() as u64;
        lanes += scratch.posterior_lanes() as u64;
        // A last chunk of one survivor runs on its own.
        lone += u64::from(scratch.len() % 4 == 1);
    }
    assert!(
        scored > kept,
        "workload must prune candidates: {scored} vs {kept}"
    );
    assert!(abandoned > 0, "workload must abandon candidates");
    assert!(
        lanes > 0 && lone > 0,
        "workload must run both lane chunks and lone survivors: {lanes} lanes, {lone} lone"
    );
    let engine_counts = [scored, abandoned, fallbacks, kept, lanes];

    let serial = candidates(|o| {
        run_serial::<FixedAccumulator>(&reference, &reads, &cfg, o);
    });
    let read_split = candidates(|o| {
        run_read_split::<FixedAccumulator>(&reference, &reads, &cfg, 3, o).unwrap();
    });
    let stream = candidates(|o| {
        let sc = StreamConfig {
            workers: 2,
            batch_size: 16,
            ..StreamConfig::default()
        };
        let mut source = MemoryStream::new(reads.clone());
        run_stream(&reference, &mut source, &cfg, &sc, o).unwrap();
    });
    let genome_split = candidates(|o| {
        run_genome_split::<FixedAccumulator>(&reference, &reads, &cfg, 3, o).unwrap();
    });
    assert_eq!(serial, engine_counts, "serial");
    assert_eq!(read_split, engine_counts, "read-split");
    assert_eq!(stream, engine_counts, "stream");
    let [gs_scored, gs_abandoned, gs_fallbacks, gs_survivors, gs_lanes] = genome_split;
    assert_eq!(
        [gs_scored, gs_abandoned, gs_fallbacks, gs_survivors],
        [scored, 0, 0, kept],
        "genome-split"
    );
    assert!(
        gs_lanes > 0 && gs_lanes % 4 == 0 && gs_lanes <= 2 * gs_survivors,
        "genome-split ran {gs_survivors} survivors in {gs_lanes} lanes"
    );
}

/// Run `f` under a memory sink and sum the batch events' underflowed and
/// mapped reads.
fn underflowed_and_mapped(f: impl FnOnce(&Observer)) -> [u64; 2] {
    let sink = Arc::new(MemorySink::new());
    f(&Observer::new(sink.clone()));
    let mut sums = [0; 2];
    for e in sink.events() {
        if let Event::Batch {
            underflowed,
            mapped,
            ..
        } = e
        {
            sums[0] += underflowed;
            sums[1] += mapped;
        }
    }
    sums
}

#[test]
fn every_driver_counts_an_underflowed_read() {
    let mut rng = ChaCha8Rng::seed_from_u64(20_000);
    let reference = simulate::generate_genome(
        &GenomeConfig {
            length: 20_000,
            ..Default::default()
        },
        &mut rng,
    );
    // Two 600 bp reads copied from the genome: at Phred 0 every candidate's
    // forward total underflows and the read comes back unmapped; at Phred
    // 20 the same bases map.
    let bases = reference.window(5_000, 5_600);
    let phred0 = SequencedRead::with_uniform_quality("phred0", bases.clone(), 0);
    let phred20 = SequencedRead::with_uniform_quality("phred20", bases.clone(), 20);
    let reads = vec![phred0.clone(), phred20];
    let cfg = GnumapConfig::default();

    // The plain, unbanded forward over the read's own window is exactly 0.
    let params = PhmmParams::default();
    let window: Vec<_> = bases.iter().collect();
    let emit = Pwm::from_read(&phred0).emission_table(&window, &params);
    assert_eq!(forward(emit.view(), &params).total, 0.0);

    let engine = MappingEngine::new(&reference, cfg.mapping);
    let mut scratch = AlignScratch::new();
    engine.map_read_with(&phred0, &mut scratch);
    assert!(scratch.scored() > 0, "the read must have candidates");
    assert!(scratch.is_empty());
    assert_eq!(scratch.underflowed(), 1);

    let serial = underflowed_and_mapped(|o| {
        run_serial::<FixedAccumulator>(&reference, &reads, &cfg, o);
    });
    let stream = underflowed_and_mapped(|o| {
        let sc = StreamConfig {
            workers: 2,
            batch_size: 1,
            ..StreamConfig::default()
        };
        let mut source = MemoryStream::new(reads.clone());
        run_stream(&reference, &mut source, &cfg, &sc, o).unwrap();
    });
    let genome_split = underflowed_and_mapped(|o| {
        run_genome_split::<FixedAccumulator>(&reference, &reads, &cfg, 3, o).unwrap();
    });
    assert_eq!(serial, [1, 1], "serial");
    assert_eq!(stream, [1, 1], "stream");
    assert_eq!(genome_split, [1, 1], "genome-split");
}
