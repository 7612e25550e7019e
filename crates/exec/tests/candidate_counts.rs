//! `Event::Batch.candidates` counts the candidate placements the Pair-HMM
//! scored with its forward pass, before the `min_weight` cut. Every driver
//! must report the same total on the same reads: serial, read-split and
//! stream add up each read's `AlignScratch::scored()`, and genome-split's
//! ranks each count the scored placements their shard owns. The abandoned
//! and fallback counts follow the engine's `map_read_with` in the drivers
//! that call it; genome-split scores every candidate in full and reports
//! none abandoned. A read whose every candidate's forward total underflows
//! to 0 is counted as underflowed, alike by every driver. Survivors (the
//! posterior passes run) follow the engine too. Their four-lane chunks
//! are packed across the reads of a lockstep batch, so the lane slots
//! depend on how a driver batches its reads: the serial and read-split
//! drivers cut lockstep pieces by fixed read and survivor caps and must
//! match a replay of that packing; the stream driver's batches are only
//! held to what four-lane chunks allow, and genome-split, whose ranks each
//! pack the survivors they own across a 16-read allreduce batch, may leave
//! at most one survivor per rank and batch to run on its own.

use exec::{run_stream, MemoryStream, StreamConfig};
use genome::{DnaSeq, SequencedRead};
use gnumap_core::accum::FixedAccumulator;
use gnumap_core::driver::genome_split::run_genome_split;
use gnumap_core::driver::read_split::run_read_split;
use gnumap_core::mapping::{AlignScratch, MappingEngine};
use gnumap_core::observe::{Event, MemorySink, Observer};
use gnumap_core::pipeline::{run_serial, LOCKSTEP_READS, LOCKSTEP_SURVIVORS, OBSERVED_BATCH_READS};
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

/// Lane slots of a lockstep batch whose length groups hold `groups`
/// survivors each: four per chunk of four, and one chunk for a last two or
/// three; a last lone survivor runs on its own.
fn batch_lanes(groups: impl IntoIterator<Item = usize>) -> u64 {
    groups
        .into_iter()
        .map(|s| 4 * (s / 4 + usize::from(s % 4 >= 2)) as u64)
        .sum()
}

/// The lane slots of mapping `reads` (each with its read length and
/// survivor count) in lockstep pieces, each ending after
/// `LOCKSTEP_READS` reads or once it holds `LOCKSTEP_SURVIVORS` survivors.
fn replayed_lanes(reads: &[(usize, usize)]) -> u64 {
    let mut lanes = 0;
    let mut groups = std::collections::BTreeMap::new();
    let (mut piece_reads, mut piece_survivors) = (0, 0);
    for (i, &(len, survivors)) in reads.iter().enumerate() {
        *groups.entry(len).or_insert(0) += survivors;
        piece_reads += 1;
        piece_survivors += survivors;
        let full = piece_reads == LOCKSTEP_READS || piece_survivors >= LOCKSTEP_SURVIVORS;
        if full || i + 1 == reads.len() {
            lanes += batch_lanes(std::mem::take(&mut groups).into_values());
            (piece_reads, piece_survivors) = (0, 0);
        }
    }
    lanes
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
    let mut per_read = Vec::new();
    for read in &reads {
        engine.map_read_with(read, &mut scratch);
        scored += scratch.scored() as u64;
        kept += scratch.len() as u64;
        abandoned += scratch.abandoned() as u64;
        fallbacks += scratch.fallbacks() as u64;
        per_read.push((read.len(), scratch.len()));
    }
    assert!(
        scored > kept,
        "workload must prune candidates: {scored} vs {kept}"
    );
    assert!(abandoned > 0, "workload must abandon candidates");
    // One read at a time, a read's last lone survivor runs on its own;
    // packed across a batch, at most one per length group does.
    let one_at_a_time = batch_lanes(per_read.iter().map(|r| r.1));
    // The serial driver hands `map_batch` its reads in event batches.
    let lanes: u64 = per_read
        .chunks(OBSERVED_BATCH_READS)
        .map(replayed_lanes)
        .sum();
    assert!(
        lanes > one_at_a_time,
        "packing across reads must fill more lanes: {lanes} vs {one_at_a_time} one read at a time"
    );
    let engine_counts = [scored, abandoned, fallbacks, kept, lanes];
    let shares: Vec<Vec<(usize, usize)>> = (0..3)
        .map(|rank| per_read.iter().skip(rank).step_by(3).copied().collect())
        .collect();
    let read_split_lanes: u64 = shares.iter().map(|share| replayed_lanes(share)).sum();

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
    let mut read_split_counts = engine_counts;
    read_split_counts[4] = read_split_lanes;
    assert_eq!(read_split, read_split_counts, "read-split");
    assert_eq!(stream[..4], engine_counts[..4], "stream");
    assert!(
        stream[4] > 0 && stream[4] % 4 == 0 && stream[4] <= 2 * kept,
        "stream ran {kept} survivors in {} lanes",
        stream[4]
    );
    let [gs_scored, gs_abandoned, gs_fallbacks, gs_survivors, gs_lanes] = genome_split;
    assert_eq!(
        [gs_scored, gs_abandoned, gs_fallbacks, gs_survivors],
        [scored, 0, 0, kept],
        "genome-split"
    );
    // Each rank packs the survivors it owns across a 16-read allreduce
    // batch: at most one per rank and batch is left to run on its own.
    let lone = 3 * reads.len().div_ceil(16) as u64;
    assert!(
        gs_lanes % 4 == 0 && gs_lanes <= 2 * gs_survivors && gs_lanes + lone >= gs_survivors,
        "genome-split ran {gs_survivors} survivors in {gs_lanes} lanes"
    );
}

/// Run `f` under a memory sink and sum the batch events' underflowed,
/// mapped, no-candidate and total reads.
fn read_outcomes(f: impl FnOnce(&Observer)) -> [u64; 4] {
    let sink = Arc::new(MemorySink::new());
    f(&Observer::new(sink.clone()));
    let mut sums = [0; 4];
    for e in sink.events() {
        if let Event::Batch {
            underflowed,
            mapped,
            no_candidates,
            reads,
            ..
        } = e
        {
            assert_eq!(mapped + no_candidates + underflowed, reads, "{e:?}");
            for (sum, n) in sums
                .iter_mut()
                .zip([underflowed, mapped, no_candidates, reads])
            {
                *sum += n;
            }
        }
    }
    sums
}

#[test]
fn every_driver_counts_unmapped_reads_by_reason() {
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
    // An all-N read seeds nothing: it has no candidate at all.
    let all_n = SequencedRead::with_uniform_quality("n", "N".repeat(62).parse().unwrap(), 30);
    let reads = vec![phred0.clone(), phred20, all_n];
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

    let serial = read_outcomes(|o| {
        run_serial::<FixedAccumulator>(&reference, &reads, &cfg, o);
    });
    let read_split = read_outcomes(|o| {
        run_read_split::<FixedAccumulator>(&reference, &reads, &cfg, 2, o).unwrap();
    });
    let stream = read_outcomes(|o| {
        let sc = StreamConfig {
            workers: 2,
            batch_size: 1,
            ..StreamConfig::default()
        };
        let mut source = MemoryStream::new(reads.clone());
        run_stream(&reference, &mut source, &cfg, &sc, o).unwrap();
    });
    let genome_split = read_outcomes(|o| {
        run_genome_split::<FixedAccumulator>(&reference, &reads, &cfg, 3, o).unwrap();
    });
    let want = [1, 1, 1, 3];
    assert_eq!(serial, want, "serial");
    assert_eq!(read_split, want, "read-split");
    assert_eq!(stream, want, "stream");
    assert_eq!(genome_split, want, "genome-split");
}
