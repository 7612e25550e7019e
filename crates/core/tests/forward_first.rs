//! Forward-first mapping is exact: `map_read_with` scores every candidate
//! with a forward total, prunes by `min_weight`, and runs the backward pass
//! only for survivors. Its output must equal, bit for bit, what giving
//! every candidate its columns first and then normalising would produce —
//! the reference below, built from `map_read_raw_with` with the weight
//! arithmetic in the engine's order (normalise, prune, renormalise).

mod common;

use gnumap_core::mapping::{AlignScratch, MappingConfig, MappingEngine};

/// One alignment as `(window_start, reverse, score bits, column bits)`.
type Flat = (usize, bool, u64, Vec<[u64; 5]>);

fn flatten(scratch: &AlignScratch) -> Vec<Flat> {
    scratch
        .alignments()
        .map(|a| {
            let cols = a
                .columns
                .iter()
                .map(|c| c.probs.map(f64::to_bits))
                .collect();
            (a.window_start, a.reverse, a.score.to_bits(), cols)
        })
        .collect()
}

/// The all-columns-first reference for one read.
fn reference(raw: &AlignScratch, min_weight: f64) -> Vec<Flat> {
    let grand_total: f64 = raw.alignments().map(|a| a.score).sum();
    if grand_total <= 0.0 {
        return Vec::new();
    }
    let mut kept: Vec<(f64, _)> = raw
        .alignments()
        .filter_map(|a| {
            let weight = a.score / grand_total;
            (weight >= min_weight).then_some((weight, a))
        })
        .collect();
    let kept_sum: f64 = kept.iter().map(|k| k.0).sum();
    if kept_sum > 0.0 {
        for k in &mut kept {
            k.0 /= kept_sum;
        }
    }
    kept.into_iter()
        .map(|(weight, a)| {
            let cols = a
                .columns
                .iter()
                .map(|c| c.probs.map(f64::to_bits))
                .collect();
            (a.window_start, a.reverse, weight.to_bits(), cols)
        })
        .collect()
}

/// Compare both paths on every read; return (reads that hit the
/// per-strand candidate cap, reads with survivors on both sides of the
/// `min_weight` cut).
fn check(config: MappingConfig) -> (usize, usize) {
    let (genome, copies) = common::repeat_genome(71);
    let reads = common::reads(&genome, &copies, 160, 72);
    let engine = MappingEngine::new(&genome, config);
    let (mut scratch, mut raw) = (AlignScratch::new(), AlignScratch::new());
    let (mut capped, mut straddling) = (0, 0);
    for read in &reads {
        engine.map_read_with(read, &mut scratch);
        engine.map_read_raw_with(read, &mut raw);
        assert_eq!(
            flatten(&scratch),
            reference(&raw, config.min_weight),
            "read {} diverged from the all-columns-first reference",
            read.id
        );
        assert_eq!(scratch.scored(), raw.scored(), "read {}", read.id);
        assert!(raw.len() <= raw.scored());
        let forward = raw.alignments().filter(|a| !a.reverse).count();
        if forward.max(raw.len() - forward) == config.max_candidates {
            capped += 1;
        }
        if scratch.len() >= 2 && scratch.len() < raw.len() {
            straddling += 1;
        }
    }
    (capped, straddling)
}

#[test]
fn forward_first_matches_all_columns_reference_default_config() {
    let (_, straddling) = check(MappingConfig::default());
    assert!(
        straddling > 0,
        "the fixture must produce reads whose candidates straddle min_weight"
    );
}

#[test]
fn forward_first_matches_reference_when_candidates_are_capped() {
    let (capped, straddling) = check(MappingConfig {
        max_candidates: 12,
        ..MappingConfig::default()
    });
    assert!(capped > 0, "the fixture must hit max_candidates");
    assert!(straddling > 0);
}

#[test]
fn forward_first_matches_reference_with_padded_unbanded_windows() {
    check(MappingConfig {
        band: None,
        window_pad: 3,
        ..MappingConfig::default()
    });
}
