//! Admissible upper bounds on a forward total from a partial forward: the
//! early-abandon test of [`PhmmScratch::forward_totals`] (DESIGN.md §5e).
//!
//! Every alignment path from row `i` to the terminal cell `(n, m)` consumes
//! each read row `r > i` exactly once, in an `M` step (emission at most
//! `max(profile[r])`) or a `G_X` step (emission `q`); its `G_Y` steps emit
//! `q ≤ 1`, and each state's outgoing transitions sum to at most one. So
//! whatever the rest of the window holds, the total is at most
//!
//! ```text
//! Σ_j (f_M + f_GX + f_GY)(i, j) · S_i,   S_i = Π_{r>i} max(max(profile[r]), q)
//! ```
//!
//! times a slack for f64 rounding and for the tolerance
//! [`PhmmParams::validate`] allows on transition sums. [`RowBound`] holds
//! that slack; [`fill_suffix_bounds`] precomputes `S_i` once per read
//! orientation.
//!
//! [`PhmmScratch::forward_totals`]: crate::PhmmScratch::forward_totals
//! [`PhmmParams::validate`]: crate::params::PhmmParams::validate

use crate::kernel::{Lanes, LANES};
use crate::params::TRANSITION_SUM_TOLERANCE;
use crate::pwm::ProfileRow;

/// Rows between two bound checks of a forward that may stop early.
pub const CHECK_EVERY: usize = 4;

/// Longest `n + m` a forward may stop early on. The allowance for
/// underflow in [`RowBound`] assumes the profile's row maxima, multiplied
/// along a path, stay below 2 (they are at most `1 + 1e-6` each); beyond
/// this length [`RowBound::new`] disarms the stop.
const MAX_STOP_LEN: usize = 1 << 16;

/// When a forward of [`crate::PhmmScratch::forward_totals`] may stop.
#[derive(Debug, Clone, Copy)]
pub struct StopRule<'a> {
    /// Each lane's suffix products `S_0 ..= S_n` ([`fill_suffix_bounds`]
    /// of that lane's profile).
    pub suffix: [&'a [f64]; LANES],
    /// Stop once every lane's bound on its total is below this.
    pub below: f64,
}

/// Result of [`crate::PhmmScratch::forward_totals`] for one chunk of
/// [`LANES`] candidates.
#[derive(Debug, Clone, Copy)]
pub enum LaneTotals {
    /// Every lane ran to the last row: the exact f64 totals.
    Exact(Lanes),
    /// The chunk stopped early: each lane's f64 total, had it run to the
    /// end, is at most its entry, and every entry is below the rule's
    /// `below`.
    Abandoned(Lanes),
}

/// Fill `out` with the suffix products of a read's emission profile:
/// `out[i] = Π_{r>i} max(max(profile[r − 1]), q)` for `i = 0 ..= n`
/// (1-based read rows, so `out[n] = 1`). Clears and refills `out`;
/// allocation-free once its capacity suffices.
pub fn fill_suffix_bounds(profile: &[ProfileRow], q: f64, out: &mut Vec<f64>) {
    out.clear();
    out.resize(profile.len() + 1, 1.0);
    let mut acc = 1.0;
    for (s, row) in out[..profile.len()].iter_mut().zip(profile).rev() {
        acc *= row.iter().fold(q, |a, &e| a.max(e));
        *s = acc;
    }
}

/// The slack that turns `row mass × S_i` into a bound on the f64 total of
/// an `n × m` forward (derivation in DESIGN.md §5e).
#[derive(Debug, Clone, Copy)]
pub struct RowBound {
    /// Relative slack: f64 rounding of the rest of the forward and of the
    /// bound itself, and transition sums up to `1 + ε`.
    rel: f64,
    /// Absolute allowance for the rounding of subnormal values.
    abs: f64,
}

impl RowBound {
    /// The slack of an `n × m` forward (read length `n`, window `m`).
    pub fn new(n: usize, m: usize) -> RowBound {
        let len = n + m + 1;
        if len > MAX_STOP_LEN {
            return RowBound {
                rel: 1.0,
                abs: f64::INFINITY,
            };
        }
        // Outgoing transitions sum to at most 1 + ε: `validate`'s
        // tolerance, doubled to cover the rounding of its own sum.
        let eps = 2.0 * TRANSITION_SUM_TOLERANCE;
        // A path from row i takes at most n + m steps; each multiplies at
        // most 1 + ε of transition mass and 4 roundings into the total, and
        // the bound's own row sum, suffix product and scaling round at most
        // 4(n + m + 1) times more. With u = 2⁻⁵³ the factor is at most
        // e^x, x = ε(n+m) + 16u(n+m+1) ≤ 2ε(n+m+1) ≤ 1, and e^x ≤ 1 + 2x.
        let rel = 1.0 + 4.0 * eps * len as f64;
        // At most 32 roundings per DP cell, each off by at most half the
        // smallest subnormal and propagated with a factor below 2.
        let abs = f64::from_bits(1) * (32 * (n + 1) * (m + 1)) as f64;
        RowBound { rel, abs }
    }

    /// Bound on the final f64 total of a forward whose row `i` holds
    /// `row_mass` in all three states, with `suffix = S_i`.
    #[inline]
    pub fn of(&self, row_mass: f64, suffix: f64) -> f64 {
        row_mass * suffix * self.rel + self.abs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffix_products_run_from_the_last_row() {
        let profile = [[0.5, 0.1, 0.1, 0.1, 0.25], [0.1, 0.1, 0.2, 0.1, 0.25]];
        let mut out = vec![7.0; 5];
        fill_suffix_bounds(&profile, 0.25, &mut out);
        assert_eq!(out, [0.5 * 0.25, 0.25, 1.0]);
        // q dominates rows whose emissions are all below it.
        fill_suffix_bounds(&profile, 0.3, &mut out);
        assert_eq!(out, [0.5 * 0.3, 0.3, 1.0]);
    }

    #[test]
    fn slack_is_disarmed_past_the_length_cap() {
        // 1 + 4ε(n + m + 1) with ε = 2e-9: about 1 + 1e-6 for 62 × 62.
        assert!(RowBound::new(62, 62).of(1.0, 1.0) < 1.0 + 2e-6);
        assert_eq!(RowBound::new(MAX_STOP_LEN, 1).of(0.0, 1.0), f64::INFINITY);
    }
}
