//! The forward dynamic program (paper Section VI Step 2, "Forward
//! Algorithm").
//!
//! `f_M(i, j)` is the total probability of all alignment prefixes that end
//! with read base `i` matched to genome base `j`; `f_GX` / `f_GY` likewise
//! for prefixes ending in a gap state. Indices are 1-based in the maths and
//! in the `(N+1) × (M+1)` tables; row/column 0 is the empty-prefix border.
//!
//! Initialisation follows the paper exactly: `f_M(0,0) = 1`, everything
//! else on the borders zero — alignments are global over the candidate
//! window and must begin by matching `x_1 : y_1`. The match recursion uses
//! the Durbin et al. form (see the crate-level fidelity note):
//!
//! ```text
//! f_M(i,j)  = p*(i,j)·[T_MM·f_M(i−1,j−1) + T_GM·(f_GX(i−1,j−1) + f_GY(i−1,j−1))]
//! f_GX(i,j) = q·[T_MG·f_M(i−1,j) + T_GG·f_GX(i−1,j)]
//! f_GY(i,j) = q·[T_MG·f_M(i,j−1) + T_GG·f_GY(i,j−1)]
//! ```
//!
//! The cell arithmetic lives in [`crate::kernel::forward_planes`], which
//! fills flat row-major planes with a vectorizable two-sweep row schedule;
//! this module wraps it in the materialised-[`DpTables`] API used by
//! marginals, tests, and the conformance oracles.

use crate::emission::Emission;
use crate::kernel;
use crate::matrix::Matrix;
use crate::params::PhmmParams;

/// The three forward (or backward) DP tables.
#[derive(Debug, Clone)]
pub struct DpTables {
    /// Match state `M`.
    pub m: Matrix,
    /// Read-base-vs-genome-gap state `G_X`.
    pub x: Matrix,
    /// Genome-base-vs-read-gap state `G_Y`.
    pub y: Matrix,
}

impl DpTables {
    /// Zero tables of shape `(n + 1) × (m + 1)`.
    pub fn zeros(n: usize, m: usize) -> DpTables {
        DpTables {
            m: Matrix::zeros(n + 1, m + 1),
            x: Matrix::zeros(n + 1, m + 1),
            y: Matrix::zeros(n + 1, m + 1),
        }
    }

    /// The three planes as flat slices, in the `(M, G_X, G_Y)` argument
    /// order of [`kernel::forward_planes`] and [`kernel::backward_planes`].
    pub fn planes_mut(&mut self) -> [&mut [f64]; 3] {
        [
            self.m.as_mut_slice(),
            self.x.as_mut_slice(),
            self.y.as_mut_slice(),
        ]
    }
}

/// Result of the forward pass.
#[derive(Debug, Clone)]
pub struct ForwardResult {
    /// The filled tables.
    pub tables: DpTables,
    /// Total likelihood of the read–window pair: the sum of the three
    /// states at the terminal cell `(N, M)`.
    pub total: f64,
}

/// Run the forward algorithm over a precomputed flat emission view
/// `emit.at(i-1, j-1) = p*(i, j)` (shape `N × M`, both ≥ 1).
pub fn forward(emit: Emission<'_>, params: &PhmmParams) -> ForwardResult {
    let (n, m) = (emit.n(), emit.m());
    let mut t = DpTables::zeros(n, m);
    let [fm, fx, fy] = t.planes_mut();
    let total = kernel::forward_planes(emit, params, fm, fx, fy, None);
    ForwardResult { tables: t, total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emission::EmissionTable;

    fn uniform_emit(n: usize, m: usize, p: f64) -> EmissionTable {
        EmissionTable::from_fn(n, m, |_, _| p)
    }

    #[test]
    fn single_cell_alignment() {
        // One read base against one genome base: the only path is
        // start → M(1,1), probability p*·T_MM.
        let params = PhmmParams::default();
        let emit = uniform_emit(1, 1, 0.9);
        let f = forward(emit.view(), &params);
        assert!((f.total - 0.9 * params.t_mm).abs() < 1e-15);
    }

    #[test]
    fn two_by_one_requires_a_gap() {
        // Two read bases, one genome base: M(1,1) then G_X(2,1).
        let params = PhmmParams::default();
        let emit = uniform_emit(2, 1, 0.8);
        let f = forward(emit.view(), &params);
        let expected = 0.8 * params.t_mm * params.q * params.t_mg;
        assert!((f.total - expected).abs() < 1e-15);
        assert_eq!(f.tables.m.get(2, 1), 0.0); // no way to end in M here
    }

    #[test]
    fn diagonal_chain_probability() {
        // Equal lengths, all-match path dominates; exact value for the
        // pure-diagonal path is p^n · T_MM^n, and with gaps disallowed by
        // zero emission elsewhere... here just check the diagonal term is
        // included (total >= that path's mass).
        let params = PhmmParams::default();
        let n = 5;
        let emit = uniform_emit(n, n, 0.95);
        let f = forward(emit.view(), &params);
        let diag = 0.95f64.powi(n as i32) * params.t_mm.powi(n as i32);
        assert!(f.total >= diag);
        // And the total can't exceed 1 for a proper model.
        assert!(f.total <= 1.0);
    }

    #[test]
    fn higher_emission_higher_likelihood() {
        let params = PhmmParams::default();
        let lo = forward(uniform_emit(4, 4, 0.5).view(), &params).total;
        let hi = forward(uniform_emit(4, 4, 0.9).view(), &params).total;
        assert!(hi > lo);
    }

    #[test]
    fn zero_emission_kills_everything() {
        let params = PhmmParams::default();
        let f = forward(uniform_emit(3, 3, 0.0).view(), &params);
        assert_eq!(f.total, 0.0);
    }

    #[test]
    #[should_panic]
    fn empty_read_rejected() {
        let empty = EmissionTable::zeros(0, 3);
        let _ = forward(empty.view(), &PhmmParams::default());
    }
}
