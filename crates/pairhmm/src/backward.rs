//! The backward dynamic program (paper Section VI Step 2, "Backward
//! Algorithm").
//!
//! `b_k(i, j)` is the probability of generating the *suffixes*
//! `x_{i+1..N}`, `y_{j+1..M}` given the alignment is currently in state `k`
//! at `(i, j)`. Initialisation per the paper: `b_M(N, M) = b_GX(N, M) =
//! b_GY(N, M) = 1` (any state may end the alignment), with zero beyond the
//! last row/column. Recursion (paper, verbatim):
//!
//! ```text
//! b_M(i,j)  = p*(i+1,j+1)·T_MM·b_M(i+1,j+1) + q·T_MG·[b_GX(i+1,j) + b_GY(i,j+1)]
//! b_GX(i,j) = p*(i+1,j+1)·T_GM·b_M(i+1,j+1) + q·T_GG·b_GX(i+1,j)
//! b_GY(i,j) = p*(i+1,j+1)·T_GM·b_M(i+1,j+1) + q·T_GG·b_GY(i,j+1)
//! ```
//!
//! Cell arithmetic lives in [`crate::kernel::backward_planes`]; this
//! module materialises the full tables (needed by the cell-level posterior
//! accessors and the test oracles — the mapping hot path uses the fused
//! streaming pass in [`crate::scratch`] instead and never builds them).

use crate::emission::Emission;
use crate::forward::DpTables;
use crate::kernel;
use crate::params::PhmmParams;

/// Result of the backward pass.
#[derive(Debug, Clone)]
pub struct BackwardResult {
    /// The filled tables (same `(N+1) × (M+1)` shape as the forward pass;
    /// row/column 0 is filled too but only cells with `i, j ≥ 1` are
    /// meaningful for marginals).
    pub tables: DpTables,
    /// Total likelihood recovered from the backward direction: since every
    /// alignment starts by matching `x_1 : y_1`,
    /// `total = p*(1,1) · T_MM · b_M(1,1)`.
    pub total: f64,
}

/// Run the backward algorithm over the same emission view as
/// [`crate::forward::forward`].
pub fn backward(emit: Emission<'_>, params: &PhmmParams) -> BackwardResult {
    let (n, m) = (emit.n(), emit.m());
    let mut t = DpTables::zeros(n, m);
    let [bm, bx, by] = t.planes_mut();
    let total = kernel::backward_planes(emit, params, bm, bx, by, None);
    BackwardResult { tables: t, total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emission::EmissionTable;
    use crate::forward::forward;

    fn uniform_emit(n: usize, m: usize, p: f64) -> EmissionTable {
        EmissionTable::from_fn(n, m, |_, _| p)
    }

    fn varied_emit(n: usize, m: usize) -> EmissionTable {
        // Deterministic but non-uniform emissions in (0, 1).
        EmissionTable::from_fn(n, m, |i, j| {
            0.15 + 0.8 * (((i * 31 + j * 17 + 7) % 13) as f64 / 13.0)
        })
    }

    #[test]
    fn forward_and_backward_totals_agree_uniform() {
        let params = PhmmParams::default();
        for (n, m) in [(1, 1), (2, 3), (5, 5), (8, 6), (12, 14)] {
            let emit = uniform_emit(n, m, 0.85);
            let f = forward(emit.view(), &params).total;
            let b = backward(emit.view(), &params).total;
            assert!(
                (f - b).abs() <= 1e-12 * f.max(1e-300),
                "totals disagree for {n}x{m}: fwd {f} bwd {b}"
            );
        }
    }

    #[test]
    fn forward_and_backward_totals_agree_varied() {
        let params = PhmmParams::with_gap_rates(0.05, 0.5, 0.03);
        for (n, m) in [(3, 3), (6, 9), (10, 10), (17, 13)] {
            let emit = varied_emit(n, m);
            let f = forward(emit.view(), &params).total;
            let b = backward(emit.view(), &params).total;
            assert!(
                (f - b).abs() <= 1e-12 * f.max(1e-300),
                "totals disagree for {n}x{m}: fwd {f} bwd {b}"
            );
        }
    }

    #[test]
    fn row_flow_invariant() {
        // Every alignment consumes read base i in exactly one M or G_X
        // state, so for each fixed i:
        //   Σ_j [ f_M·b_M + f_X·b_X ](i, j) = total.
        let params = PhmmParams::default();
        let emit = varied_emit(7, 9);
        let f = forward(emit.view(), &params);
        let b = backward(emit.view(), &params);
        for i in 1..=7usize {
            let mut acc = 0.0;
            for j in 1..=9usize {
                acc += f.tables.m.get(i, j) * b.tables.m.get(i, j)
                    + f.tables.x.get(i, j) * b.tables.x.get(i, j);
            }
            assert!(
                (acc - f.total).abs() <= 1e-12 * f.total,
                "row {i}: flow {acc} != total {}",
                f.total
            );
        }
    }

    #[test]
    fn column_flow_invariant() {
        // Symmetrically, genome base j is consumed in exactly one M or G_Y
        // state: Σ_i [ f_M·b_M + f_Y·b_Y ](i, j) = total for each j.
        let params = PhmmParams::with_gap_rates(0.04, 0.6, 0.02);
        let emit = varied_emit(9, 6);
        let f = forward(emit.view(), &params);
        let b = backward(emit.view(), &params);
        for j in 1..=6usize {
            let mut acc = 0.0;
            for i in 1..=9usize {
                acc += f.tables.m.get(i, j) * b.tables.m.get(i, j)
                    + f.tables.y.get(i, j) * b.tables.y.get(i, j);
            }
            assert!(
                (acc - f.total).abs() <= 1e-12 * f.total,
                "column {j}: flow {acc} != total {}",
                f.total
            );
        }
    }

    #[test]
    fn terminal_cell_is_one() {
        let emit = uniform_emit(3, 4, 0.5);
        let b = backward(emit.view(), &PhmmParams::default());
        assert_eq!(b.tables.m.get(3, 4), 1.0);
        assert_eq!(b.tables.x.get(3, 4), 1.0);
        assert_eq!(b.tables.y.get(3, 4), 1.0);
    }
}
