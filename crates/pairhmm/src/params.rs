//! Pair-HMM parameterisation.
//!
//! The model of paper Figure 2: states `M` (match), `G_X` (read base
//! against genome gap) and `G_Y` (genome base against read gap), with
//!
//! * `T_MM` — stay in match;
//! * `T_MG` — open a gap (either direction, so `T_MM + 2·T_MG = 1`);
//! * `T_GM` — close a gap back to match;
//! * `T_GG` — extend a gap (`T_GM + T_GG = 1`);
//! * `p_ab` — match-state emission of the pair `(a, b)`, parameterised by a
//!   single mismatch probability: `p_ab = 1 − μ` when `a = b`, `μ/3`
//!   otherwise;
//! * `q` — gap-state emission (the paper's `q_{x_i} = q_{y_j} = q`).
//!
//! Gap transitions between `G_X` and `G_Y` are disallowed, as in the paper's
//! figure.

/// How far [`PhmmParams::validate`] lets each state's outgoing transition
/// probabilities sum away from 1.
pub const TRANSITION_SUM_TOLERANCE: f64 = 1e-9;

/// Transition and emission parameters of the Pair-HMM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhmmParams {
    /// `T_MM`: match → match.
    pub t_mm: f64,
    /// `T_MG`: match → one specific gap state.
    pub t_mg: f64,
    /// `T_GM`: gap → match.
    pub t_gm: f64,
    /// `T_GG`: gap extension.
    pub t_gg: f64,
    /// Mismatch emission probability mass μ; a matching pair emits `1 − μ`,
    /// each of the three mismatching bases emits `μ/3`.
    pub mismatch: f64,
    /// Gap-state emission probability `q` (uniform over bases: 0.25).
    pub q: f64,
}

impl Default for PhmmParams {
    /// Defaults tuned for ~1% sequencing error plus ~0.1% polymorphism on
    /// short Illumina-style reads: rare gap opening, moderately sticky gap
    /// extension.
    fn default() -> Self {
        PhmmParams {
            t_mm: 0.98,
            t_mg: 0.01,
            t_gm: 0.7,
            t_gg: 0.3,
            mismatch: 0.02,
            q: 0.25,
        }
    }
}

impl PhmmParams {
    /// Validate the stochastic constraints. Returns an explanatory error
    /// string on the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let check_prob = |name: &str, v: f64| -> Result<(), String> {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                Err(format!("{name} = {v} is not a probability"))
            } else {
                Ok(())
            }
        };
        check_prob("t_mm", self.t_mm)?;
        check_prob("t_mg", self.t_mg)?;
        check_prob("t_gm", self.t_gm)?;
        check_prob("t_gg", self.t_gg)?;
        check_prob("mismatch", self.mismatch)?;
        check_prob("q", self.q)?;
        if (self.t_mm + 2.0 * self.t_mg - 1.0).abs() > TRANSITION_SUM_TOLERANCE {
            return Err(format!(
                "match-state transitions must sum to 1: t_mm + 2·t_mg = {}",
                self.t_mm + 2.0 * self.t_mg
            ));
        }
        if (self.t_gm + self.t_gg - 1.0).abs() > TRANSITION_SUM_TOLERANCE {
            return Err(format!(
                "gap-state transitions must sum to 1: t_gm + t_gg = {}",
                self.t_gm + self.t_gg
            ));
        }
        Ok(())
    }

    /// Match-state emission `p_ab` for base indices `a, b ∈ [0, 4)`.
    #[inline]
    pub fn emission(&self, a: usize, b: usize) -> f64 {
        if a == b {
            1.0 - self.mismatch
        } else {
            self.mismatch / 3.0
        }
    }

    /// The 4×4 emission matrix, row = read base, column = genome base.
    pub fn emission_matrix(&self) -> [[f64; 4]; 4] {
        let mut m = [[self.mismatch / 3.0; 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = 1.0 - self.mismatch;
        }
        m
    }

    /// A convenience constructor that derives `t_mm` and `t_gg` from the
    /// free parameters, guaranteeing a valid stochastic matrix.
    pub fn with_gap_rates(gap_open: f64, gap_close: f64, mismatch: f64) -> PhmmParams {
        let p = PhmmParams {
            t_mm: 1.0 - 2.0 * gap_open,
            t_mg: gap_open,
            t_gm: gap_close,
            t_gg: 1.0 - gap_close,
            mismatch,
            q: 0.25,
        };
        p.validate().expect("derived parameters must be valid");
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        PhmmParams::default().validate().unwrap();
    }

    #[test]
    fn emission_rows_sum_to_one() {
        let p = PhmmParams::default();
        let m = p.emission_matrix();
        for row in m {
            let s: f64 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
        assert!(p.emission(0, 0) > p.emission(0, 1));
        assert_eq!(p.emission(2, 2), 1.0 - p.mismatch);
    }

    #[test]
    fn validation_catches_bad_sums() {
        let p = PhmmParams {
            t_mm: 0.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        let p = PhmmParams {
            t_gg: 0.9,
            ..Default::default()
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validation_catches_non_probabilities() {
        let mut p = PhmmParams {
            q: 1.5,
            ..Default::default()
        };
        assert!(p.validate().is_err());
        p.q = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn with_gap_rates_constructs_valid_params() {
        let p = PhmmParams::with_gap_rates(0.02, 0.6, 0.01);
        p.validate().unwrap();
        assert!((p.t_mm - 0.96).abs() < 1e-12);
        assert!((p.t_gg - 0.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn with_gap_rates_rejects_nonsense() {
        let _ = PhmmParams::with_gap_rates(0.7, 0.6, 0.01); // t_mm < 0
    }
}
