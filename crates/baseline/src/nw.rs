//! Needleman–Wunsch global alignment — the "standard" aligner the paper
//! contrasts Pair-HMMs with (Section V-A: "PHMMs are a common alternative
//! for sequence alignment to the standard Needleman-Wunsch Algorithm").
//!
//! Classic affine-free (linear gap) global DP with a quality-aware
//! substitution score: matches reward the base's quality-derived
//! confidence, mismatches penalise it — so a low-quality mismatch costs
//! little, the discrete analogue of what the Pair-HMM's PWM emission does
//! probabilistically. Includes a banded variant over the same diagonal
//! band as the Pair-HMM kernels (`pairhmm::kernel::diagonal_bounds`).

use genome::alphabet::Base;
use genome::quality::phred_to_error_prob;
use genome::read::SequencedRead;

/// Scoring parameters (units: arbitrary score points).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NwParams {
    /// Score for a confident match (scaled by base confidence).
    pub match_score: f64,
    /// Penalty for a confident mismatch (scaled by base confidence).
    pub mismatch_penalty: f64,
    /// Penalty per gap position.
    pub gap_penalty: f64,
}

impl Default for NwParams {
    fn default() -> Self {
        NwParams {
            match_score: 1.0,
            mismatch_penalty: 3.0,
            gap_penalty: 4.0,
        }
    }
}

/// One step of the decoded alignment path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NwOp {
    /// Read base aligned to genome base (match or mismatch).
    Diagonal,
    /// Read base against a genome gap.
    Up,
    /// Genome base against a read gap.
    Left,
}

/// A global alignment result.
#[derive(Debug, Clone, PartialEq)]
pub struct NwAlignment {
    /// Total alignment score.
    pub score: f64,
    /// Operations from start to end.
    pub ops: Vec<NwOp>,
    /// Number of diagonal steps where the bases matched.
    pub matches: usize,
    /// Number of diagonal steps where they mismatched.
    pub mismatches: usize,
}

/// Quality-aware substitution score for read position `i` against a
/// genome base.
#[inline]
fn substitution(read: &SequencedRead, i: usize, g: Option<Base>, p: &NwParams) -> f64 {
    match (read.base(i), g) {
        (Some(r), Some(g)) if r == g => p.match_score,
        (Some(_), Some(_)) => {
            // Only the mismatch penalty scales with confidence (as in
            // MAQ's quality-sum objective): a mismatch at a dubious base
            // is weak evidence against the placement.
            let confidence = 1.0 - phred_to_error_prob(read.quals[i]);
            -p.mismatch_penalty * confidence
        }
        // An N on either side is uninformative.
        _ => 0.0,
    }
}

/// Global alignment of `read` against `window`, optionally banded to a
/// diagonal half-width `band` (`None` = full DP).
pub fn align(
    read: &SequencedRead,
    window: &[Option<Base>],
    params: &NwParams,
    band: Option<usize>,
) -> NwAlignment {
    let n = read.len();
    let m = window.len();
    assert!(n >= 1 && m >= 1, "both sequences must be non-empty");

    let (lo, hi) = match band {
        Some(w) => {
            let delta = m as isize - n as isize;
            (delta.min(0) - w as isize, delta.max(0) + w as isize)
        }
        None => (-(n as isize), m as isize),
    };
    let in_band = |i: usize, j: usize| {
        let d = j as isize - i as isize;
        d >= lo && d <= hi
    };

    const NEG: f64 = f64::NEG_INFINITY;
    let idx = |i: usize, j: usize| i * (m + 1) + j;
    let mut score = vec![NEG; (n + 1) * (m + 1)];
    let mut from = vec![0u8; (n + 1) * (m + 1)];
    score[0] = 0.0;
    for j in 1..=m {
        if in_band(0, j) {
            score[idx(0, j)] = -params.gap_penalty * j as f64;
            from[idx(0, j)] = NwOp::Left as u8;
        }
    }
    for i in 1..=n {
        if in_band(i, 0) {
            score[idx(i, 0)] = -params.gap_penalty * i as f64;
            from[idx(i, 0)] = NwOp::Up as u8;
        }
        for j in 1..=m {
            if !in_band(i, j) {
                continue;
            }
            let diag = score[idx(i - 1, j - 1)] + substitution(read, i - 1, window[j - 1], params);
            let up = score[idx(i - 1, j)] - params.gap_penalty;
            let left = score[idx(i, j - 1)] - params.gap_penalty;
            let (best, op) = if diag >= up && diag >= left {
                (diag, NwOp::Diagonal)
            } else if up >= left {
                (up, NwOp::Up)
            } else {
                (left, NwOp::Left)
            };
            score[idx(i, j)] = best;
            from[idx(i, j)] = op as u8;
        }
    }

    // Traceback from (n, m).
    let mut ops = Vec::with_capacity(n + m);
    let (mut i, mut j) = (n, m);
    let mut matches = 0usize;
    let mut mismatches = 0usize;
    while i > 0 || j > 0 {
        let op = match from[idx(i, j)] {
            x if x == NwOp::Diagonal as u8 && i > 0 && j > 0 => NwOp::Diagonal,
            x if x == NwOp::Up as u8 && i > 0 => NwOp::Up,
            _ => NwOp::Left,
        };
        match op {
            NwOp::Diagonal => {
                match (read.base(i - 1), window[j - 1]) {
                    (Some(r), Some(g)) if r == g => matches += 1,
                    (Some(_), Some(_)) => mismatches += 1,
                    _ => {}
                }
                i -= 1;
                j -= 1;
            }
            NwOp::Up => i -= 1,
            NwOp::Left => j -= 1,
        }
        ops.push(op);
    }
    ops.reverse();
    NwAlignment {
        score: score[idx(n, m)],
        ops,
        matches,
        mismatches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::seq::DnaSeq;

    fn window(s: &str) -> Vec<Option<Base>> {
        s.parse::<DnaSeq>().unwrap().iter().collect()
    }

    fn read(s: &str, q: u8) -> SequencedRead {
        SequencedRead::with_uniform_quality("r", s.parse().unwrap(), q)
    }

    #[test]
    fn identical_sequences_align_diagonally() {
        let a = align(
            &read("ACGTACGT", 30),
            &window("ACGTACGT"),
            &NwParams::default(),
            None,
        );
        assert_eq!(a.ops, vec![NwOp::Diagonal; 8]);
        assert_eq!(a.matches, 8);
        assert_eq!(a.mismatches, 0);
        assert!(a.score > 7.9);
    }

    #[test]
    fn single_mismatch_scores_between() {
        let exact = align(
            &read("ACGT", 30),
            &window("ACGT"),
            &NwParams::default(),
            None,
        );
        let one_mm = align(
            &read("ACTT", 30),
            &window("ACGT"),
            &NwParams::default(),
            None,
        );
        assert!(one_mm.score < exact.score);
        assert_eq!(one_mm.mismatches, 1);
        assert_eq!(one_mm.matches, 3);
    }

    #[test]
    fn gaps_are_decoded() {
        let p = NwParams::default();
        let a = align(&read("ACGTA", 30), &window("ACGGTA"), &p, None);
        assert_eq!(a.ops.iter().filter(|&&o| o == NwOp::Left).count(), 1);
        assert_eq!(a.matches, 5);
        let b = align(&read("ACGGTA", 30), &window("ACGTA"), &p, None);
        assert_eq!(b.ops.iter().filter(|&&o| o == NwOp::Up).count(), 1);
    }

    #[test]
    fn ops_consume_both_sequences() {
        for (r, g) in [("ACGT", "ACGT"), ("AACC", "AACCGG"), ("TTTTT", "TT")] {
            let a = align(&read(r, 25), &window(g), &NwParams::default(), None);
            let read_steps = a.ops.iter().filter(|&&o| o != NwOp::Left).count();
            let genome_steps = a.ops.iter().filter(|&&o| o != NwOp::Up).count();
            assert_eq!(read_steps, r.len());
            assert_eq!(genome_steps, g.len());
        }
    }

    #[test]
    fn low_quality_mismatches_cost_less() {
        let p = NwParams::default();
        let high = align(&read("ACTT", 40), &window("ACGT"), &p, None);
        let low = align(&read("ACTT", 3), &window("ACGT"), &p, None);
        assert!(low.score > high.score, "{} vs {}", low.score, high.score);
    }

    #[test]
    fn n_bases_are_neutral() {
        let p = NwParams::default();
        let with_n = align(&read("ACNT", 30), &window("ACGT"), &p, None);
        assert_eq!(with_n.matches, 3);
        assert_eq!(with_n.mismatches, 0);
    }

    #[test]
    fn banded_matches_full_for_near_diagonal() {
        let p = NwParams::default();
        let r = read("ACGTACGTAC", 30);
        let w = window("ACGTACGGAC");
        let full = align(&r, &w, &p, None);
        let banded = align(&r, &w, &p, Some(3));
        assert_eq!(full.score, banded.score);
        assert_eq!(full.ops, banded.ops);
    }

    #[test]
    fn pure_gap_alignment_when_band_missing() {
        // Degenerate: band 0 with equal lengths is just the diagonal.
        let p = NwParams::default();
        let a = align(&read("ACGT", 30), &window("ACGT"), &p, Some(0));
        assert_eq!(a.ops, vec![NwOp::Diagonal; 4]);
    }
}
