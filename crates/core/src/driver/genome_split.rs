//! Genome-split (spread-memory) MPI decomposition (paper Section VI
//! Step 1, second mode).
//!
//! "The genome is split into equal segments and distributed across the
//! participating machines ... In order to find the normalized posterior
//! probability score for each read at a given location, GNUMAP must find
//! all locations throughout the entire genome to which a given read
//! aligns. Communication between machines via message passing determines
//! \[these\] additional locations and calculates the final score."
//!
//! Concretely:
//!
//! 1. Rank `r` owns the contiguous shard `[s_r, e_r)` and indexes only its
//!    own slice (plus a margin of one window so boundary-crossing
//!    placements are still seen by their owner). Memory per rank shrinks
//!    by ~`1/ranks` — the entire point of this mode.
//! 2. Every rank scans **all** reads and forward-scores the placements its
//!    slice yields, keeping those whose window starts inside its shard.
//!    Each read's candidate summaries `(strand, placement, likelihood)`
//!    are then combined across ranks with an allreduce per read batch —
//!    this is the communication that makes the mode slower than
//!    read-split (Figure 4). Sorting the merged candidates into the serial
//!    engine's evaluation order makes the posterior weights (and, with the
//!    FIXED layout, the accumulator) bit-identical to a serial run. Only
//!    owned candidates that survive the global `min_weight` cut then get
//!    the backward pass and their columns, as in the serial engine.
//! 3. Evidence deposited into the margin beyond `e_r` is shipped to the
//!    next rank and folded in.
//! 4. Each rank calls SNPs on its own shard; calls are gathered at rank 0.
//!
//! FDR note: with `Cutoff::Fdr` each shard applies Benjamini–Hochberg over
//! its own positions (a per-shard approximation); use `Cutoff::PValue` when
//! bit-identical agreement with the serial pipeline is required.

use crate::accum::GenomeAccumulator;
use crate::config::GnumapConfig;
use crate::driver::{decode_calls, encode_calls, CallWireError, DriverError};
use crate::mapping::{AlignScratch, MappingEngine};
use crate::observe::{Observer, RunTimer, Stage, StageTimer};
use crate::pipeline::{deposit, BatchCounts};
use crate::report::RunReport;
use crate::snpcall::call_snps_with_offset;
use genome::read::SequencedRead;
use genome::region::Region;
use genome::seq::DnaSeq;
use mpisim::World;

/// Reads per normalisation round-trip. The paper's description implies the
/// cross-rank score combination happens per read; batching 16 reads per
/// allreduce keeps the simulation tractable while leaving the
/// communication latency visible — it is exactly this per-batch traffic
/// that makes the spread-memory mode trail the shared-memory mode in
/// Figure 4.
const BATCH: usize = 16;

/// Message tag for margin hand-off.
const MARGIN_TAG: u64 = 11;

/// Run the genome-split decomposition on `ranks` simulated MPI ranks.
///
/// The observer gets one [`crate::observe::Event::Batch`] per rank (every
/// rank scans all reads; scored owned candidates and deposited columns
/// are counted per shard, so the ranks' candidate counts add up to the
/// serial driver's, and the reads with their exact global mapped,
/// underflowed and no-candidate counts are carried by rank 0's event),
/// with stage timings taken on rank 0.
/// Survivors are counted per shard too, and sum to the serial driver's;
/// their posterior lanes do not, because each rank chunks only the
/// survivors it owns. Zero `ranks` is [`DriverError::NoRanks`].
pub fn run_genome_split<A: GenomeAccumulator>(
    reference: &DnaSeq,
    reads: &[SequencedRead],
    config: &GnumapConfig,
    ranks: usize,
    observer: &Observer,
) -> Result<RunReport, DriverError> {
    if ranks == 0 {
        return Err(DriverError::NoRanks);
    }
    let run = RunTimer::start(observer, "genome-split", config.accumulator);
    let world = World::new(ranks);
    let disabled = Observer::disabled();
    let shards = Region::shards(reference.len(), ranks);
    let max_read_len = reads.iter().map(SequencedRead::len).max().unwrap_or(0);
    // A window can start pad bases before its placement and extend pad
    // beyond the read; one full window of margin covers every overhang.
    let margin = max_read_len + 2 * config.mapping.window_pad;

    let (mut results, world_report) = world.run_with_report(|rank| {
        // Stage timings come from rank 0 only.
        let stages = if rank.id() == 0 { observer } else { &disabled };
        let shard = shards[rank.id()];
        let slice_start = shard.start;
        let slice_end = (shard.end + margin).min(reference.len());
        let slice = reference.window(slice_start, slice_end);

        // Index only the local slice — the per-rank memory saving.
        let timer = StageTimer::start(stages, Stage::Index);
        let engine = MappingEngine::new(&slice, config.mapping);
        timer.finish(stages);
        let mut acc = A::new(slice.len());
        // A read's outcome (mapped, underflowed, no candidates) is global:
        // rank 0 counts it, with the read itself.
        let mut counts = BatchCounts {
            reads: if rank.id() == 0 {
                reads.len() as u64
            } else {
                0
            },
            ..BatchCounts::default()
        };
        let map_timer = StageTimer::start(stages, Stage::Map);
        // One scratch arena per rank, reused across every batch.
        let mut scratch = AlignScratch::new();

        for batch in reads.chunks(BATCH) {
            // Phase 1: forward-score each read locally and keep only the
            // placements this shard owns (placement start within
            // [shard.start, shard.end)). Each is summarised for the wire
            // as a `(strand, global placement, likelihood)` triple; the
            // local `(strand, placement, likelihood)` is kept for phase 3.
            let mut owned: Vec<Vec<(bool, usize, f64)>> = Vec::with_capacity(batch.len());
            let mut triples: Vec<Vec<(u64, u64, f64)>> = Vec::with_capacity(batch.len());
            for read in batch.iter() {
                engine.score_read_with(read, &mut scratch);
                let mut mine = Vec::new();
                for a in scratch.alignments() {
                    if !shard.contains(slice_start + a.placement_start) {
                        continue;
                    }
                    counts.candidates += 1;
                    mine.push((a.reverse, a.placement_start, a.score));
                }
                // Zero totals go on the wire too: a read whose merged
                // candidates all underflowed is counted, not just dropped.
                triples.push(
                    mine.iter()
                        .map(|&(rev, place, likelihood)| {
                            (rev as u64, (slice_start + place) as u64, likelihood)
                        })
                        .collect(),
                );
                mine.retain(|c| c.2 > 0.0);
                owned.push(mine);
            }

            // Phase 2: normalisation needs every shard's candidates — the
            // per-batch communication of this mode. Concatenating per rank
            // and then sorting strand-major/position-minor reconstructs the
            // exact candidate order the serial engine's `map_read_with`
            // sees (forward placements ascending, then reverse), so the
            // grand total, the min-weight filter and the kept-sum
            // renormalisation below are all evaluated in the serial
            // operation order: the resulting deposits are bit-identical to
            // a serial run.
            let all_triples = rank.allreduce(triples, |mut a, b| {
                for (mine, theirs) in a.iter_mut().zip(b) {
                    mine.extend(theirs);
                }
                a
            });

            for ((read, mine), mut merged) in batch.iter().zip(owned).zip(all_triples) {
                merged.sort_by_key(|x| (x.0, x.1));
                // Zero terms leave the bits of a positive sum unchanged.
                let grand_total: f64 = merged.iter().map(|t| t.2).sum();
                if grand_total <= 0.0 {
                    // Every rank sees the same merged list; rank 0 counts.
                    if rank.id() == 0 {
                        if merged.is_empty() {
                            counts.no_candidates += 1;
                        } else {
                            counts.underflowed += 1;
                        }
                    }
                    continue;
                }
                // Mirror `MappingEngine::map_read_with`: posterior weights,
                // min-weight filter, renormalise over the kept set. A zero
                // total kept at `min_weight = 0` matches no owned
                // candidate and adds nothing to the kept sum.
                let mut kept: Vec<(u64, u64, f64)> = merged
                    .into_iter()
                    .filter_map(|(rev, place, likelihood)| {
                        let weight = likelihood / grand_total;
                        (weight >= config.mapping.min_weight).then_some((rev, place, weight))
                    })
                    .collect();
                let kept_sum: f64 = kept.iter().map(|t| t.2).sum();
                if kept_sum > 0.0 {
                    for t in &mut kept {
                        t.2 /= kept_sum;
                    }
                }
                // Every rank derives the same kept set, so counting reads
                // on rank 0 alone gives the exact global mapped count (a
                // cross-shard read is still one read).
                if rank.id() == 0 && !kept.is_empty() {
                    counts.mapped += 1;
                }
                // Phase 3: columns only for owned candidates that survived
                // the global cut, deposited with their global weights.
                let survivors: Vec<((bool, usize, f64), f64)> = mine
                    .into_iter()
                    .filter_map(|cand @ (rev, place, _)| {
                        let key = (rev as u64, (slice_start + place) as u64);
                        let idx = kept.binary_search_by(|t| (t.0, t.1).cmp(&key)).ok()?;
                        Some((cand, kept[idx].2))
                    })
                    .collect();
                if survivors.is_empty() {
                    continue;
                }
                engine.posterior_for(read, survivors.iter().map(|s| s.0), &mut scratch);
                counts.survivors += scratch.len() as u64;
                counts.posterior_lanes += scratch.posterior_lanes() as u64;
                for (aln, &(_, weight)) in scratch.alignments().zip(&survivors) {
                    counts.columns += aln.columns.len() as u64;
                    deposit(&mut acc, aln.window_start, weight, aln.columns);
                }
            }
        }
        map_timer.finish(stages);
        counts.emit(observer, rank.id());

        // Hand the margin's evidence to the rank that owns it.
        let reduce_timer = StageTimer::start(stages, Stage::Reduce);
        if rank.id() + 1 < rank.size() {
            let own_len = shard.len();
            let mut margin_wire: Vec<f64> = Vec::new();
            for idx in own_len..acc.len() {
                let c = acc.counts(idx);
                margin_wire.extend_from_slice(&c);
            }
            rank.send(rank.id() + 1, MARGIN_TAG, margin_wire);
        }
        if rank.id() > 0 {
            let margin_wire: Vec<f64> = rank.recv(rank.id() - 1, MARGIN_TAG);
            for (offset, chunk) in margin_wire.chunks_exact(5).enumerate() {
                let mut delta = [0.0; 5];
                delta.copy_from_slice(chunk);
                if delta.iter().sum::<f64>() > 0.0 && offset < acc.len() {
                    acc.add(offset, &delta);
                }
            }
        }

        // Call SNPs over the owned region only (margin belongs to the
        // neighbour) and gather everything at rank 0.
        // A shard-length view: reuse the accumulator but stop the scan
        // at the shard boundary by zero-extending a shard-only copy.
        let mut shard_acc = A::new(shard.len());
        for idx in 0..shard.len() {
            let c = acc.counts(idx);
            if c.iter().sum::<f64>() > 0.0 {
                shard_acc.add(idx, &c);
            }
        }
        reduce_timer.finish(stages);
        let call_timer = StageTimer::start(stages, Stage::Call);
        let calls = call_snps_with_offset(&shard_acc, reference, slice_start, &config.calling);
        call_timer.finish(stages);
        // Shards cover disjoint global ranges exactly once, so XORing the
        // per-shard digests (each keyed by global position) reproduces the
        // digest a serial full-genome accumulator would report.
        let shard_digest = shard_acc.digest_with_offset(slice_start);
        let call_wires = rank.gather(0, encode_calls(&calls));
        let mapped_counts = rank.gather(0, counts.mapped);
        let digest = rank.reduce(0, shard_digest, |a, b| a ^ b);
        let acc_bytes = rank.reduce(0, acc.heap_bytes() as u64, |a, b| a + b);

        if rank.id() == 0 {
            let decode_all = || -> Result<Vec<crate::snpcall::SnpCall>, CallWireError> {
                let mut all_calls = Vec::new();
                for wire in call_wires.expect("root gathers") {
                    all_calls.extend(decode_calls(&wire)?);
                }
                all_calls.sort_by_key(|c| c.pos);
                Ok(all_calls)
            };
            let mapped_total: u64 = mapped_counts.expect("root gathers").iter().sum();
            Some(decode_all().map(|all_calls| {
                (
                    encode_calls(&all_calls),
                    mapped_total,
                    acc_bytes.expect("root reduces") as usize,
                    digest.expect("root reduces"),
                )
            }))
        } else {
            None
        }
    });

    let (call_wire, mapped_total, acc_bytes, digest) =
        results.swap_remove(0).expect("rank 0 returns the result")?;
    let report = RunReport {
        calls: decode_calls(&call_wire)?,
        reads_processed: reads.len(),
        reads_mapped: mapped_total as usize,
        accumulator_bytes: acc_bytes,
        traffic: Some(world_report.traffic),
        rank_cpu_secs: world_report.rank_cpu_secs,
        accumulator_digest: Some(digest),
        ..RunReport::default()
    };
    Ok(run.finish(observer, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::NormAccumulator;
    use crate::pipeline::run_serial;

    fn fixture() -> (
        DnaSeq,
        Vec<(usize, genome::alphabet::Base)>,
        Vec<SequencedRead>,
    ) {
        crate::pipeline::tests::fixture(4_000, 5, 12.0, 555)
    }

    #[test]
    fn genome_split_matches_serial_calls() {
        let quiet = Observer::disabled();
        let (reference, _, reads) = fixture();
        let cfg = GnumapConfig::default();
        let serial = run_serial::<NormAccumulator>(&reference, &reads, &cfg, &quiet);
        for ranks in [1usize, 2, 4] {
            let parallel =
                run_genome_split::<NormAccumulator>(&reference, &reads, &cfg, ranks, &quiet)
                    .unwrap();
            let serial_pos: Vec<(usize, genome::alphabet::Base)> =
                serial.calls.iter().map(|c| (c.pos, c.allele)).collect();
            let parallel_pos: Vec<(usize, genome::alphabet::Base)> =
                parallel.calls.iter().map(|c| (c.pos, c.allele)).collect();
            assert_eq!(
                parallel_pos, serial_pos,
                "ranks={ranks}: genome-split must agree with serial"
            );
        }
    }

    #[test]
    fn per_rank_memory_shrinks_with_ranks() {
        let quiet = Observer::disabled();
        let (reference, _, reads) = fixture();
        let cfg = GnumapConfig::default();
        let one = run_genome_split::<NormAccumulator>(&reference, &reads, &cfg, 1, &quiet).unwrap();
        let four =
            run_genome_split::<NormAccumulator>(&reference, &reads, &cfg, 4, &quiet).unwrap();
        // Total accumulator bytes are similar (sum over ranks), but each of
        // the 4 ranks holds ~1/4 + margin.
        let per_rank_four = four.accumulator_bytes / 4;
        assert!(
            per_rank_four < one.accumulator_bytes / 2,
            "per-rank accumulator should shrink: {} vs {}",
            per_rank_four,
            one.accumulator_bytes
        );
    }

    #[test]
    fn genome_split_communicates_more_than_read_split() {
        let quiet = Observer::disabled();
        // The Figure 4 mechanism: per-batch allreduces beat read-split's
        // single end-of-run reduction in message count.
        let (reference, _, reads) = fixture();
        let cfg = GnumapConfig::default();
        let gs = run_genome_split::<NormAccumulator>(&reference, &reads, &cfg, 4, &quiet).unwrap();
        let rs = crate::driver::read_split::run_read_split::<NormAccumulator>(
            &reference, &reads, &cfg, 4, &quiet,
        )
        .unwrap();
        let gs_msgs = gs.traffic.unwrap().messages;
        let rs_msgs = rs.traffic.unwrap().messages;
        assert!(
            gs_msgs > rs_msgs,
            "genome-split should send more messages: {gs_msgs} vs {rs_msgs}"
        );
    }

    #[test]
    fn per_shard_fdr_still_recovers_strong_snps() {
        // Under Cutoff::Fdr each shard runs Benjamini–Hochberg over its own
        // positions (documented approximation). Strongly supported planted
        // SNPs must survive regardless of how the shards cut the genome.
        use crate::snpcall::{Cutoff, SnpCallConfig};
        let (reference, truth, reads) = crate::pipeline::tests::fixture(4_000, 5, 14.0, 808);
        let cfg = GnumapConfig {
            calling: SnpCallConfig {
                cutoff: Cutoff::Fdr(0.05),
                ..SnpCallConfig::default()
            },
            ..GnumapConfig::default()
        };
        let report =
            run_genome_split::<NormAccumulator>(&reference, &reads, &cfg, 5, &Observer::disabled())
                .unwrap();
        let acc = crate::report::score_snp_calls(&report.calls, &truth);
        assert!(acc.true_positives >= 4, "{acc:?}");
        assert!(acc.false_positives <= 1, "{acc:?}");
    }

    #[test]
    fn boundary_snps_are_not_lost() {
        // Place the shard boundary near a planted SNP by using many ranks
        // on a small genome; every planted SNP must still be recovered.
        let (reference, truth, reads) = crate::pipeline::tests::fixture(3_000, 6, 14.0, 999);
        let report = run_genome_split::<NormAccumulator>(
            &reference,
            &reads,
            &GnumapConfig::default(),
            6,
            &Observer::disabled(),
        )
        .unwrap();
        let acc = crate::report::score_snp_calls(&report.calls, &truth);
        assert!(
            acc.true_positives >= 5,
            "boundary handling lost SNPs: {acc:?}"
        );
    }
}
