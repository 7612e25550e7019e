//! Differential test: paged evidence of every accumulator layout against
//! one dense accumulator of the same layout fed the same deposits.
//! Digests, calls, the decoded counts and the heap accounting must agree
//! with the dense layout for every page geometry, and a fixed-point
//! snapshot (a checkpoint) loaded into fresh evidence must allocate only
//! the pages that hold counts and digest the same.

use genome::alphabet::Base;
use genome::seq::DnaSeq;
use gnumap_core::accum::{
    CentDiscAccumulator, CharDiscAccumulator, FixedAccumulator, GenomeAccumulator, NormAccumulator,
};
use gnumap_core::evidence::{EvidenceGauge, PagedEvidence, PAGE, SLOT_BYTES};
use gnumap_core::pipeline::deposit;
use gnumap_core::snpcall::{call_snps, Cutoff, SnpCallConfig};
use gnumap_stats::lrt::Ploidy;
use pairhmm::marginal::ColumnPosterior;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Genome lengths below one page, at and around page multiples, and a
/// random one that is rarely a multiple.
fn genome_len(kind: u64, raw: u64) -> usize {
    match kind {
        0 => 1 + (raw % (PAGE as u64 - 1)) as usize,
        1 => PAGE - 1,
        2 => PAGE,
        3 => PAGE + 1,
        4 => 3 * PAGE,
        _ => 1 + (raw % (5 * PAGE as u64)) as usize,
    }
}

/// A window start: just before a page boundary (`k·PAGE − 1`, so the
/// window straddles two pages), near the genome end (so the window is
/// clipped), at or past the end, or anywhere.
fn window_start(kind: u64, raw: u64, len: usize) -> usize {
    let raw = raw as usize;
    match kind {
        0 => (1 + raw % len.div_ceil(PAGE)) * PAGE - 1,
        1 => len.saturating_sub(raw % 40),
        2 => len + raw % 3,
        _ => raw % len,
    }
}

/// A stable pseudo-random symbol for a genome position, so overlapping
/// windows pile evidence onto the same allele and calls do happen.
fn symbol_at(pos: usize) -> usize {
    ((pos as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61) as usize % 5
}

fn reference(len: usize) -> DnaSeq {
    (0..len)
        .map(|pos| (pos % 97 != 13).then(|| Base::from_index(symbol_at(pos + 7) % 4)))
        .collect()
}

fn column(pos: usize, purity: f64) -> ColumnPosterior {
    let mut probs = [(1.0 - purity) / 4.0; 5];
    probs[symbol_at(pos)] = purity;
    ColumnPosterior { probs }
}

fn configs(alpha: f64) -> Vec<SnpCallConfig> {
    let mut out = Vec::new();
    for ploidy in [Ploidy::Monoploid, Ploidy::Diploid] {
        for cutoff in [Cutoff::PValue(alpha), Cutoff::Fdr(alpha)] {
            for min_total in [0.0, 3.0] {
                out.push(SnpCallConfig {
                    ploidy,
                    cutoff,
                    min_total,
                });
            }
        }
    }
    out
}

/// One deposit: `(start kind, start raw, columns, weight %, purity %)`.
type Window = (u64, u64, usize, u64, u64);

/// Feed `windows` to paged evidence of `A` pages and to a dense `A`, and
/// check that the two agree; returns the paged evidence for more checks.
fn paged_matches_dense<A: GenomeAccumulator>(
    len: usize,
    windows: &[Window],
    alpha: f64,
) -> Result<PagedEvidence<A>, TestCaseError> {
    let reference = reference(len);
    let gauge = Arc::new(EvidenceGauge::default());
    let mut paged = PagedEvidence::<A>::new(len, Arc::clone(&gauge));
    let mut dense = A::new(len);
    let mut touched = BTreeSet::new();
    for &(kind, raw, n, weight, purity) in windows {
        let start = window_start(kind, raw, len);
        let columns: Vec<ColumnPosterior> = (0..n)
            .map(|j| column(start + j, purity as f64 / 100.0))
            .collect();
        let weight = weight as f64 / 100.0;
        paged.deposit(start, weight, &columns);
        deposit(&mut dense, start, weight, &columns);
        touched.extend((start..(start + n).min(len)).map(|pos| pos / PAGE));
    }

    let dense_counts: Vec<_> = (0..len).map(|pos| dense.counts(pos)).collect();
    prop_assert_eq!(paged.snapshot_counts(), dense_counts);
    prop_assert_eq!(paged.digest(), dense.digest());
    for cfg in configs(alpha) {
        prop_assert_eq!(
            paged.call_snps(&reference, &cfg),
            call_snps(&dense, &reference, &cfg)
        );
    }

    // The pages held are exactly the pages the windows overlap, each a
    // boxed `A` over its positions; the table costs `SLOT_BYTES` a page.
    let page_heap: usize = touched
        .iter()
        .map(|&page| std::mem::size_of::<A>() + A::new(PAGE.min(len - page * PAGE)).heap_bytes())
        .sum();
    prop_assert_eq!(paged.page_heap_bytes(), page_heap);
    let table = len.div_ceil(PAGE) * SLOT_BYTES;
    prop_assert_eq!(paged.heap_bytes(), table + page_heap);
    prop_assert_eq!(gauge.live(), paged.heap_bytes() as u64);
    Ok(paged)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn paged_evidence_matches_the_dense_accumulator(
        (len_kind, len_raw) in (0u64..6, 0u64..u64::MAX),
        windows in proptest::collection::vec(
            (0u64..4, 0u64..u64::MAX, 0usize..90, 1u64..200, 50u64..100),
            0..48,
        ),
        alpha in 1u64..500,
    ) {
        let len = genome_len(len_kind, len_raw);
        let alpha = alpha as f64 / 1000.0;
        paged_matches_dense::<NormAccumulator>(len, &windows, alpha)?;
        paged_matches_dense::<CharDiscAccumulator>(len, &windows, alpha)?;
        paged_matches_dense::<CentDiscAccumulator>(len, &windows, alpha)?;
        let mut paged = paged_matches_dense::<FixedAccumulator>(len, &windows, alpha)?;
        let digest = paged.digest();

        // A resumed run loads the snapshot: same digest, same pages.
        let snapshot = paged.snapshot_counts();
        let mut loaded = PagedEvidence::<FixedAccumulator>::new(len, Arc::default());
        loaded.load_counts(&snapshot);
        prop_assert_eq!(loaded.digest(), digest);
        prop_assert_eq!(loaded.page_heap_bytes(), paged.page_heap_bytes());

        // With every page allocated (the stream driver's store) the digest
        // is the same without any cached zero digest.
        paged.allocate_all();
        prop_assert_eq!(paged.digest(), digest);
    }
}
