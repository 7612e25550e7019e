//! Row-rescaled forward recursion for numerically extreme inputs.
//!
//! The plain forward values decay geometrically with read length; for the
//! paper's 62-bp reads `f64` has head-room to spare, but long reads (or
//! pathologically small emissions) underflow. The scaled variant
//! renormalises each completed row to a maximum of 1 and accumulates the
//! log of the scale factors, returning `log P(x, y)` directly.
//!
//! The row arithmetic is [`crate::kernel::forward_row`] — the same
//! two-sweep vectorizable schedule as the plain forward — with the
//! renormalisation hook applied between rows. [`scaled_forward_into`] is
//! the allocation-free entry used by [`crate::scratch::PhmmScratch`];
//! [`scaled_forward`] is the self-contained convenience wrapper.

use crate::emission::Emission;
use crate::kernel;
use crate::params::PhmmParams;

/// Result of the scaled forward pass.
#[derive(Debug, Clone)]
pub struct ScaledForwardResult {
    /// `ln` of the total likelihood, or `f64::NEG_INFINITY` when the pair
    /// has zero probability.
    pub log_total: f64,
}

/// Scaled forward algorithm over caller-provided flat planes (each at
/// least `(n+1)·(m+1)` long, may hold stale data) and a per-row log-scale
/// buffer (at least `n + 1` long). Returns `ln P(x, y)`.
pub fn scaled_forward_into(
    emit: Emission<'_>,
    params: &PhmmParams,
    fm: &mut [f64],
    fx: &mut [f64],
    fy: &mut [f64],
    log_scale: &mut [f64],
) -> f64 {
    let (n, m) = (emit.n(), emit.m());
    assert!(n >= 1, "read must be non-empty");
    assert!(m >= 1, "window must be non-empty");
    let stride = m + 1;
    assert!(
        fm.len() >= (n + 1) * stride
            && fx.len() >= (n + 1) * stride
            && fy.len() >= (n + 1) * stride,
        "planes too small for {n}x{m}"
    );
    assert!(log_scale.len() > n, "log-scale buffer too small");

    // Border row 0: f_M(0,0) = 1, zero elsewhere; no scaling applied yet.
    for p in [&mut *fm, &mut *fx, &mut *fy] {
        p[..=m].fill(0.0);
    }
    fm[0] = 1.0;
    log_scale[0] = 0.0;

    for i in 1..=n {
        let base = (i - 1) * stride;
        let (mp, mc) = fm[base..base + 2 * stride].split_at_mut(stride);
        let (xp, xc) = fx[base..base + 2 * stride].split_at_mut(stride);
        let (yp, yc) = fy[base..base + 2 * stride].split_at_mut(stride);
        // Row i-1 has been rescaled by exp(log_scale[i-1] - true); the
        // recursion is homogeneous of degree 1 in the previous row and
        // current row, so the relative values stay correct. The G_Y term
        // references the *current* row (i, j-1), already at this row's
        // scale: both scales agree once the row is normalised, because
        // f_Y(i, j) only feeds from row i and row i-1 values.
        kernel::forward_row(params, emit.row(i - 1), mp, xp, yp, mc, xc, yc, 1, m, m);

        // Renormalise the completed row across all three states.
        let row_max = mc
            .iter()
            .chain(xc.iter())
            .chain(yc.iter())
            .copied()
            .fold(0.0, f64::max);
        if row_max > 0.0 {
            let inv = 1.0 / row_max;
            for row in [mc, xc, yc] {
                for v in row.iter_mut() {
                    *v *= inv;
                }
            }
            log_scale[i] = log_scale[i - 1] + row_max.ln();
        } else {
            // Entire row is zero: the pair is unalignable.
            return f64::NEG_INFINITY;
        }
    }

    let end = n * stride + m;
    let terminal = fm[end] + fx[end] + fy[end];
    if terminal > 0.0 {
        terminal.ln() + log_scale[n]
    } else {
        f64::NEG_INFINITY
    }
}

/// Scaled forward algorithm returning the log-likelihood of the pair.
pub fn scaled_forward(emit: Emission<'_>, params: &PhmmParams) -> ScaledForwardResult {
    let (n, m) = (emit.n(), emit.m());
    assert!(n >= 1, "read must be non-empty");
    assert!(m >= 1, "window must be non-empty");
    let plane = (n + 1) * (m + 1);
    let mut fm = vec![0.0; plane];
    let mut fx = vec![0.0; plane];
    let mut fy = vec![0.0; plane];
    let mut log_scale = vec![0.0; n + 1];
    let log_total = scaled_forward_into(emit, params, &mut fm, &mut fx, &mut fy, &mut log_scale);
    ScaledForwardResult { log_total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emission::EmissionTable;
    use crate::forward::forward;

    fn varied_emit(n: usize, m: usize) -> EmissionTable {
        EmissionTable::from_fn(n, m, |i, j| {
            0.2 + 0.75 * (((i * 29 + j * 13 + 3) % 17) as f64 / 17.0)
        })
    }

    #[test]
    fn agrees_with_unscaled_log() {
        let params = PhmmParams::with_gap_rates(0.04, 0.55, 0.03);
        for (n, m) in [(1, 1), (3, 4), (10, 10), (25, 27), (60, 62)] {
            let emit = varied_emit(n, m);
            let plain = forward(emit.view(), &params).total;
            let scaled = scaled_forward(emit.view(), &params).log_total;
            assert!(
                (scaled - plain.ln()).abs() < 1e-9,
                "{n}x{m}: scaled {scaled} vs ln(plain) {}",
                plain.ln()
            );
        }
    }

    #[test]
    fn survives_inputs_that_underflow_the_plain_dp() {
        // Tiny emissions: even the gap-dominated paths (which avoid all but
        // one emission) fall below f64's range, so the plain forward
        // underflows to exactly 0 while the scaled version still reports a
        // finite log-likelihood.
        let params = PhmmParams::default();
        let emit = EmissionTable::from_fn(40, 40, |_, _| 1e-250);
        let plain = forward(emit.view(), &params).total;
        assert_eq!(plain, 0.0, "expected underflow in the plain DP");
        let scaled = scaled_forward(emit.view(), &params).log_total;
        assert!(scaled.is_finite());
        assert!(
            scaled < -700.0,
            "log-likelihood should be far below ln(f64::MIN_POSITIVE): {scaled}"
        );
    }

    #[test]
    fn zero_probability_pair_reports_neg_infinity() {
        let params = PhmmParams::default();
        let emit = EmissionTable::zeros(3, 3);
        assert_eq!(
            scaled_forward(emit.view(), &params).log_total,
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn monotone_in_emissions() {
        let params = PhmmParams::default();
        let lo = scaled_forward(EmissionTable::from_fn(6, 6, |_, _| 0.3).view(), &params).log_total;
        let hi = scaled_forward(EmissionTable::from_fn(6, 6, |_, _| 0.9).view(), &params).log_total;
        assert!(hi > lo);
    }

    #[test]
    fn reused_stale_planes_give_identical_logs() {
        // scaled_forward_into must tolerate stale plane contents.
        let params = PhmmParams::default();
        let big = varied_emit(12, 14);
        let small = varied_emit(5, 6);
        let fresh = scaled_forward(small.view(), &params).log_total;
        let plane = 13 * 15;
        let (mut fm, mut fx, mut fy) = (vec![0.0; plane], vec![0.0; plane], vec![0.0; plane]);
        let mut ls = vec![0.0; 13];
        let _ = scaled_forward_into(big.view(), &params, &mut fm, &mut fx, &mut fy, &mut ls);
        let reused = scaled_forward_into(small.view(), &params, &mut fm, &mut fx, &mut fy, &mut ls);
        assert_eq!(fresh.to_bits(), reused.to_bits());
    }
}
