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
//!    engine's evaluation order makes the posterior weights — from the
//!    weight step every driver shares — and, with the FIXED layout, the
//!    accumulator bit-identical to a serial run. Only owned candidates
//!    that survive the global `min_weight` cut then get the backward pass
//!    and their columns, in the lockstep pieces of the shared batching
//!    core, packed across the reads of the batch.
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
use crate::mapping::{AlignScratch, MappingEngine, PosteriorWeights, Unmapped};
use crate::observe::{Observer, RunTimer, Stage, StageTimer};
use crate::pipeline::{deposit, BatchCounts, LOCKSTEP_SURVIVORS};
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
/// their posterior lanes do not, because each rank packs only the
/// survivors it owns, and only across one 16-read batch. Zero `ranks` is
/// [`DriverError::NoRanks`].
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
            // Phase 1: score every read of the batch in full into one
            // scratch batch, holding the candidates this shard owns
            // (placement start within [shard.start, shard.end)). Each is
            // summarised for the wire as a `(strand, global placement,
            // likelihood)` triple — zero totals too, so a read whose
            // merged candidates all underflowed is counted, not dropped.
            scratch.begin_batch();
            let triples: Vec<Vec<(u64, u64, f64)>> = batch
                .iter()
                .map(|read| {
                    let owned = |place| shard.contains(slice_start + place);
                    let wire: Vec<_> = engine
                        .score_held(read, &mut scratch, owned)
                        .map(|(rev, place, likelihood)| {
                            (rev as u64, (slice_start + place) as u64, likelihood)
                        })
                        .collect();
                    counts.candidates += wire.len() as u64;
                    wire
                })
                .collect();

            // Phase 2: normalisation needs every shard's candidates — the
            // per-batch communication of this mode. Concatenating per rank
            // and then sorting strand-major/position-minor reconstructs the
            // exact candidate order the serial engine sees (forward
            // placements ascending, then reverse), so the shared weight
            // step sums the grand total and the kept weights in the serial
            // operation order: the resulting deposits are bit-identical to
            // a serial run.
            let all_triples = rank.allreduce(triples, |mut a, b| {
                for (mine, theirs) in a.iter_mut().zip(b) {
                    mine.extend(theirs);
                }
                a
            });

            // Phase 3: queue each read's owned candidates that survive the
            // global cut, with their global weights, and give them their
            // columns in lockstep pieces packed across the batch's reads.
            // Every rank derives the same weights, so rank 0 alone counts
            // each read's outcome (a cross-shard read is still one read).
            for (slot, mut merged) in all_triples.into_iter().enumerate() {
                merged.sort_by_key(|x| (x.0, x.1));
                let totals = merged.iter().map(|t| t.2);
                match PosteriorWeights::new(totals, config.mapping.min_weight) {
                    Ok(weights) => {
                        counts.mapped += u64::from(rank.id() == 0 && weights.kept() > 0);
                        counts.survivors += scratch.queue_held(slot, &weights) as u64;
                    }
                    Err(_) if rank.id() != 0 => {}
                    Err(Unmapped::NoCandidates) => counts.no_candidates += 1,
                    Err(Unmapped::Underflowed) => counts.underflowed += 1,
                }
                if scratch.len() >= LOCKSTEP_SURVIVORS || slot + 1 == batch.len() {
                    counts.posterior_piece(&engine, &mut scratch, |_, start, w, columns| {
                        deposit(&mut acc, start, w, columns)
                    });
                    scratch.begin_piece();
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

    /// Genome-split's accumulator digest and the FNV-1a hash of its call
    /// wire's bits on `fixture()`, at 1, 2 and 4 ranks.
    fn bits<A: GenomeAccumulator>() -> [(u64, u64); 3] {
        let (reference, _, reads) = fixture();
        let cfg = GnumapConfig::default();
        [1, 2, 4].map(|ranks| {
            let report =
                run_genome_split::<A>(&reference, &reads, &cfg, ranks, &Observer::disabled())
                    .unwrap();
            let wire = encode_calls(&report.calls)
                .iter()
                .fold(0xCBF2_9CE4_8422_2325, |h, v| {
                    (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01B3)
                });
            (report.accumulator_digest.unwrap(), wire)
        })
    }

    #[test]
    fn genome_split_bits_are_pinned_in_every_layout() {
        use crate::accum::{CentDiscAccumulator, CharDiscAccumulator, FixedAccumulator};
        // A rank deposits its survivors in read order, then candidate
        // order, in every layout; these pins hold that order fixed.
        let got = [
            bits::<NormAccumulator>(),
            bits::<CharDiscAccumulator>(),
            bits::<CentDiscAccumulator>(),
            bits::<FixedAccumulator>(),
        ];
        // (digest, call-wire hash) at 1, 2 and 4 ranks, recorded from the
        // per-read loop this driver ran before it joined the batching core.
        let pinned: [[(u64, u64); 3]; 4] = [
            // NORM
            [
                (0x4d1b_4125_c9e9_9ac2, 0x7455_ae96_92d3_f4e3),
                (0xcc01_4717_d3f3_b796, 0x7455_ae96_92d3_f4e3),
                (0xad66_386e_1659_4609, 0x7455_ae96_92d3_f4e3),
            ],
            // CHARDISC
            [
                (0xab5a_0363_0b07_d8b5, 0x4437_3345_832a_721e),
                (0x162b_0292_cfea_67b6, 0x4437_3345_832a_721e),
                (0x977d_8ffd_0351_c557, 0x4437_3345_832a_721e),
            ],
            // CENTDISC
            [
                (0x98d0_7a71_2004_0740, 0xb691_49d0_f7ce_62e1),
                (0x493b_ed2b_e60d_bd58, 0xb691_49d0_f7ce_62e1),
                (0x74ca_1e14_176e_4027, 0xb691_49d0_f7ce_62e1),
            ],
            // FIXED
            [
                (0x37f1_b00e_7f68_63ab, 0xaa8c_c149_f95b_97f5),
                (0x37f1_b00e_7f68_63ab, 0xaa8c_c149_f95b_97f5),
                (0x37f1_b00e_7f68_63ab, 0xaa8c_c149_f95b_97f5),
            ],
        ];
        assert_eq!(got, pinned, "{got:#x?}");
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
