//! SNP calling from an accumulator (paper Figure 1, steps C–D).
//!
//! Each genome position's accumulated evidence vector is tested with the
//! likelihood ratio test of Section V-C. Significant positions whose called
//! allele(s) differ from the reference are reported as SNPs; the decision
//! rule is either a raw SNP-wise α on the multiplicity-adjusted p-value or
//! a Benjamini–Hochberg FDR level over all testable positions — "a p-value
//! cutoff or a false discovery control", as the abstract puts it.

use crate::accum::{GenomeAccumulator, NUM_SYMBOLS};
use genome::alphabet::{Base, GAP_INDEX};
use genome::seq::DnaSeq;
use gnumap_stats::fdr::benjamini_hochberg;
use gnumap_stats::lrt::{lrt, Alternative, BaseCounts, Ploidy};

/// The SNP-calling decision rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cutoff {
    /// Call positions with adjusted p-value ≤ α.
    PValue(f64),
    /// Benjamini–Hochberg FDR control at level q over all testable sites.
    Fdr(f64),
}

/// SNP caller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnpCallConfig {
    /// Monoploid (Equation 1) or diploid (Equation 2) hypotheses.
    pub ploidy: Ploidy,
    /// Significance rule.
    pub cutoff: Cutoff,
    /// Minimum accumulated mass (≈ read coverage) to test a position.
    pub min_total: f64,
}

impl Default for SnpCallConfig {
    fn default() -> Self {
        SnpCallConfig {
            ploidy: Ploidy::Monoploid,
            cutoff: Cutoff::PValue(0.05),
            min_total: 3.0,
        }
    }
}

/// One called SNP.
#[derive(Debug, Clone, PartialEq)]
pub struct SnpCall {
    /// 0-based genome position.
    pub pos: usize,
    /// Reference base at the position.
    pub reference: Base,
    /// Primary called allele (the symbol with the highest evidence).
    pub allele: Base,
    /// Second allele for heterozygous diploid calls.
    pub second_allele: Option<Base>,
    /// LRT statistic `-2 log λ`.
    pub statistic: f64,
    /// Multiplicity-adjusted p-value.
    pub p_adjusted: f64,
    /// The accumulated evidence vector at the position.
    pub counts: [f64; 5],
}

impl SnpCall {
    /// Whether `base` is among the called alleles.
    pub fn carries(&self, base: Base) -> bool {
        self.allele == base || self.second_allele == Some(base)
    }

    /// Convert to a VCF record on contig `chrom` (see [`genome::vcf`]).
    pub fn to_vcf_record(&self, chrom: &str) -> genome::vcf::VcfRecord {
        // ALT lists only non-reference alleles; the genotype indexes into
        // [REF, ALT...] per the VCF convention.
        let mut alts = Vec::new();
        let mut gt_index = |b: Base| -> usize {
            if b == self.reference {
                0
            } else if let Some(i) = alts.iter().position(|&a| a == b) {
                i + 1
            } else {
                alts.push(b);
                alts.len()
            }
        };
        let g1 = gt_index(self.allele);
        let g2 = self.second_allele.map(&mut gt_index).unwrap_or(g1);
        let (lo, hi) = (g1.min(g2), g1.max(g2));
        genome::vcf::VcfRecord {
            chrom: chrom.to_string(),
            pos: self.pos,
            reference: self.reference,
            alts,
            qual: genome::vcf::phred_scaled(self.p_adjusted),
            lrt: self.statistic,
            p_adjusted: self.p_adjusted,
            genotype: format!("{lo}/{hi}"),
        }
    }
}

/// Internal: a testable position that passed significance pre-screening.
struct Candidate {
    pos: usize,
    reference: Base,
    best: usize,
    second: usize,
    alternative: Alternative,
    statistic: f64,
    p_adjusted: f64,
    p_het_adjusted: Option<f64>,
    counts: [f64; 5],
}

/// Run the LRT across the accumulator and call SNPs against `reference`.
///
/// `offset` maps accumulator indices to genome coordinates (non-zero for
/// genome-split shards). Every position goes through [`call_snps_over`].
pub fn call_snps_with_offset<A: GenomeAccumulator>(
    acc: &A,
    reference: &DnaSeq,
    offset: usize,
    config: &SnpCallConfig,
) -> Vec<SnpCall> {
    let evidence = (0..acc.len()).map(|idx| (offset + idx, acc.counts(idx)));
    call_snps_over(evidence, reference, config)
}

/// Run the LRT over `evidence`, `(genome position, counts)` pairs in
/// ascending position order, and call SNPs against `reference`: the one
/// calling core behind [`call_snps_with_offset`].
///
/// A position left out of `evidence` is a position of total 0, and such
/// a position is never called: `lrt` returns `None` at total 0 whatever
/// `min_total` is, so it neither becomes a candidate nor enters the
/// Benjamini–Hochberg p-value list (and the server's protocol rejects a
/// negative `min_total` anyway). A sparse store may therefore feed only
/// the positions it holds and get the dense calls exactly.
pub fn call_snps_over(
    evidence: impl IntoIterator<Item = (usize, [f64; NUM_SYMBOLS])>,
    reference: &DnaSeq,
    config: &SnpCallConfig,
) -> Vec<SnpCall> {
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut all_pvalues: Vec<f64> = Vec::new();

    for (pos, counts) in evidence {
        let Some(reference_base) = reference.get(pos) else {
            continue; // no call against an N reference
        };
        let total: f64 = counts.iter().sum();
        if total < config.min_total {
            continue;
        }
        let Some(outcome) = lrt(&BaseCounts::new(counts), config.ploidy) else {
            continue;
        };
        all_pvalues.push(outcome.p_adjusted);
        candidates.push(Candidate {
            pos,
            reference: reference_base,
            best: outcome.best,
            second: outcome.second,
            alternative: outcome.alternative,
            statistic: outcome.statistic,
            p_adjusted: outcome.p_adjusted,
            p_het_adjusted: outcome.p_het_adjusted,
            counts,
        });
    }

    // Decide the significance threshold.
    let keep = |p: f64| -> bool {
        match config.cutoff {
            Cutoff::PValue(alpha) => p <= alpha,
            Cutoff::Fdr(_) => true, // resolved below
        }
    };
    let fdr_threshold = match config.cutoff {
        Cutoff::Fdr(q) => {
            let rejected = benjamini_hochberg(&all_pvalues, q);
            rejected
                .iter()
                .map(|&i| all_pvalues[i])
                .fold(None, |acc: Option<f64>, p| {
                    Some(acc.map_or(p, |m: f64| m.max(p)))
                })
        }
        Cutoff::PValue(_) => None,
    };

    let mut calls = Vec::new();
    for c in candidates {
        // The called base(s): gaps are indel evidence, not SNPs.
        if c.best == GAP_INDEX {
            continue;
        }
        let allele = Base::from_index(c.best);
        let second_allele = match (config.ploidy, c.alternative) {
            (Ploidy::Diploid, Alternative::TwoBases) if c.second != GAP_INDEX => {
                Some(Base::from_index(c.second))
            }
            _ => None,
        };
        // A SNP exists when the called genotype contains a non-reference
        // base.
        let differs = allele != c.reference || second_allele.is_some_and(|b| b != c.reference);
        if !differs {
            continue;
        }
        // The decision p-value. When the top allele *is* the reference,
        // the variant claim rests entirely on the second allele, whose
        // evidence is the heterozygous-vs-homozygous LRT — the test
        // against the uniform background is trivially significant at any
        // well-covered site and says nothing about the second allele.
        let hinges_on_second = allele == c.reference;
        let p_decision = if hinges_on_second {
            c.p_het_adjusted.unwrap_or(1.0).max(c.p_adjusted)
        } else {
            c.p_adjusted
        };
        let significant = match config.cutoff {
            Cutoff::PValue(_) => keep(p_decision),
            Cutoff::Fdr(_) => fdr_threshold.is_some_and(|t| p_decision <= t),
        };
        if !significant {
            continue;
        }
        calls.push(SnpCall {
            pos: c.pos,
            reference: c.reference,
            allele,
            second_allele,
            statistic: c.statistic,
            p_adjusted: c.p_adjusted,
            counts: c.counts,
        });
    }
    calls
}

/// [`call_snps_with_offset`] with offset 0 (whole-genome accumulators).
pub fn call_snps<A: GenomeAccumulator>(
    acc: &A,
    reference: &DnaSeq,
    config: &SnpCallConfig,
) -> Vec<SnpCall> {
    call_snps_with_offset(acc, reference, 0, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accum::NormAccumulator;

    fn reference(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    /// Accumulate `n` units of pure evidence for symbol `k` at `pos`.
    fn pour(acc: &mut NormAccumulator, pos: usize, k: usize, n: usize) {
        let mut delta = [0.0; 5];
        delta[k] = 1.0;
        for _ in 0..n {
            acc.add(pos, &delta);
        }
    }

    #[test]
    fn clean_snp_is_called() {
        let r = reference("AAAAA");
        let mut acc = NormAccumulator::new(5);
        for pos in 0..5 {
            pour(&mut acc, pos, 0, 12); // matches reference
        }
        // Position 2 actually shows G.
        let mut acc2 = NormAccumulator::new(5);
        for pos in 0..5 {
            pour(&mut acc2, pos, if pos == 2 { 2 } else { 0 }, 12);
        }
        let calls = call_snps(&acc2, &r, &SnpCallConfig::default());
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].pos, 2);
        assert_eq!(calls[0].allele, Base::G);
        assert!(calls[0].p_adjusted < 1e-6);
        // And the matching accumulator calls nothing.
        assert!(call_snps(&acc, &r, &SnpCallConfig::default()).is_empty());
    }

    #[test]
    fn thin_coverage_is_not_tested() {
        let r = reference("AAA");
        let mut acc = NormAccumulator::new(3);
        pour(&mut acc, 1, 2, 2); // only 2 units < min_total 3
        assert!(call_snps(&acc, &r, &SnpCallConfig::default()).is_empty());
    }

    #[test]
    fn uniform_noise_is_not_significant() {
        let r = reference("AAAA");
        let mut acc = NormAccumulator::new(4);
        for k in 0..5 {
            pour(&mut acc, 1, k, 4); // 4 units of every symbol: background
        }
        assert!(call_snps(&acc, &r, &SnpCallConfig::default()).is_empty());
    }

    #[test]
    fn gap_dominated_positions_are_skipped() {
        let r = reference("AAA");
        let mut acc = NormAccumulator::new(3);
        pour(&mut acc, 1, GAP_INDEX, 15);
        assert!(call_snps(&acc, &r, &SnpCallConfig::default()).is_empty());
    }

    #[test]
    fn diploid_het_site_reports_both_alleles() {
        let r = reference("AAA");
        let mut acc = NormAccumulator::new(3);
        pour(&mut acc, 1, 0, 10); // reference A
        pour(&mut acc, 1, 2, 10); // alternate G
        let cfg = SnpCallConfig {
            ploidy: Ploidy::Diploid,
            ..SnpCallConfig::default()
        };
        let calls = call_snps(&acc, &r, &cfg);
        assert_eq!(calls.len(), 1);
        let call = &calls[0];
        assert!(call.carries(Base::A) && call.carries(Base::G), "{call:?}");
        assert!(call.second_allele.is_some());
    }

    #[test]
    fn monoploid_het_pattern_still_differs_from_reference() {
        // Under the monoploid model a 50/50 site picks the best single
        // base; if that is non-reference it is still a SNP call.
        let r = reference("AAA");
        let mut acc = NormAccumulator::new(3);
        pour(&mut acc, 1, 2, 11);
        pour(&mut acc, 1, 0, 9);
        let calls = call_snps(&acc, &r, &SnpCallConfig::default());
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].allele, Base::G);
        assert_eq!(calls[0].second_allele, None);
    }

    #[test]
    fn fdr_cutoff_is_more_conservative_than_loose_alpha() {
        let r = reference(&"A".repeat(100));
        let mut acc = NormAccumulator::new(100);
        // One strong SNP...
        pour(&mut acc, 10, 2, 20);
        // ...and many borderline positions (significance ~ 0.02 each).
        for pos in 20..90 {
            pour(&mut acc, pos, 0, 3);
            pour(&mut acc, pos, 3, 1);
        }
        let loose = call_snps(
            &acc,
            &r,
            &SnpCallConfig {
                cutoff: Cutoff::PValue(0.5),
                ..SnpCallConfig::default()
            },
        );
        let fdr = call_snps(
            &acc,
            &r,
            &SnpCallConfig {
                cutoff: Cutoff::Fdr(0.01),
                ..SnpCallConfig::default()
            },
        );
        assert!(fdr.len() <= loose.len());
        assert!(
            fdr.iter().any(|c| c.pos == 10),
            "the strong SNP must survive FDR control"
        );
    }

    #[test]
    fn offset_shifts_coordinates() {
        let r = reference("AAAAAAAAAA");
        let mut acc = NormAccumulator::new(3); // a shard covering 7..10
        pour(&mut acc, 1, 1, 12);
        let calls = call_snps_with_offset(&acc, &r, 7, &SnpCallConfig::default());
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].pos, 8);
        assert_eq!(calls[0].allele, Base::C);
    }

    #[test]
    fn fdr_ignores_zero_total_positions() {
        let r = reference(&"A".repeat(200));
        let mut acc = NormAccumulator::new(200);
        pour(&mut acc, 10, 2, 20);
        for pos in (40..120).step_by(3) {
            pour(&mut acc, pos, 0, 3);
            pour(&mut acc, pos, 3, 1);
        }
        pour(&mut acc, 150, 1, 6);
        pour(&mut acc, 150, 0, 2);
        for ploidy in [Ploidy::Monoploid, Ploidy::Diploid] {
            let cfg = SnpCallConfig {
                ploidy,
                cutoff: Cutoff::Fdr(0.2),
                min_total: 0.0,
            };
            let touched = (0..acc.len())
                .map(|pos| (pos, acc.counts(pos)))
                .filter(|(_, counts)| counts.iter().sum::<f64>() > 0.0);
            let dense = call_snps(&acc, &r, &cfg);
            assert!(!dense.is_empty());
            assert_eq!(call_snps_over(touched, &r, &cfg), dense, "{ploidy:?}");
        }
    }

    #[test]
    fn reference_n_positions_are_never_called() {
        let r = reference("ANA");
        let mut acc = NormAccumulator::new(3);
        pour(&mut acc, 1, 2, 15);
        assert!(call_snps(&acc, &r, &SnpCallConfig::default()).is_empty());
    }
}
