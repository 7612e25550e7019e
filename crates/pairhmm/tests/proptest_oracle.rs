//! Property tests: the forward/backward dynamic programs must agree with
//! the exhaustive path-enumeration oracle on random small instances, and
//! their structural invariants must hold on random larger ones.

use pairhmm::backward::backward;
use pairhmm::bruteforce::enumerate;
use pairhmm::emission::EmissionTable;
use pairhmm::forward::forward;
use pairhmm::params::PhmmParams;
use proptest::prelude::*;

/// Random valid Pair-HMM parameters.
fn params_strategy() -> impl Strategy<Value = PhmmParams> {
    (0.001f64..0.2, 0.1f64..0.9, 0.001f64..0.2).prop_map(|(gap_open, gap_close, mismatch)| {
        PhmmParams::with_gap_rates(gap_open, gap_close, mismatch)
    })
}

/// Random emission table with entries in (0, 1].
fn emit_strategy(max_n: usize, max_m: usize) -> impl Strategy<Value = EmissionTable> {
    (1..=max_n, 1..=max_m)
        .prop_flat_map(|(n, m)| {
            proptest::collection::vec(proptest::collection::vec(0.01f64..1.0, m), n)
        })
        .prop_map(|rows| EmissionTable::from_rows(&rows))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn forward_matches_oracle(
        emit in emit_strategy(5, 5),
        params in params_strategy(),
    ) {
        let oracle = enumerate(emit.view(), &params);
        let f = forward(emit.view(), &params);
        let tol = 1e-12 * oracle.total.max(1e-300);
        prop_assert!((oracle.total - f.total).abs() <= tol,
            "oracle {} vs forward {}", oracle.total, f.total);
    }

    #[test]
    fn marginal_masses_match_oracle(
        emit in emit_strategy(4, 4),
        params in params_strategy(),
    ) {
        let oracle = enumerate(emit.view(), &params);
        let f = forward(emit.view(), &params);
        let b = backward(emit.view(), &params);
        let n = emit.n();
        let m = emit.m();
        let tol = 1e-11 * oracle.total.max(1e-300);
        for i in 1..=n {
            for j in 1..=m {
                let fb = f.tables.m.get(i, j) * b.tables.m.get(i, j);
                prop_assert!((fb - oracle.match_mass[i][j]).abs() <= tol);
                let fb = f.tables.x.get(i, j) * b.tables.x.get(i, j);
                prop_assert!((fb - oracle.ins_mass[i][j]).abs() <= tol);
                let fb = f.tables.y.get(i, j) * b.tables.y.get(i, j);
                prop_assert!((fb - oracle.del_mass[i][j]).abs() <= tol);
            }
        }
    }

    #[test]
    fn forward_backward_totals_agree(
        emit in emit_strategy(12, 12),
        params in params_strategy(),
    ) {
        let f = forward(emit.view(), &params).total;
        let b = backward(emit.view(), &params).total;
        prop_assert!((f - b).abs() <= 1e-11 * f.max(1e-300),
            "fwd {f} vs bwd {b}");
    }

    #[test]
    fn row_and_column_flow_invariants(
        emit in emit_strategy(9, 9),
        params in params_strategy(),
    ) {
        let f = forward(emit.view(), &params);
        let b = backward(emit.view(), &params);
        let n = emit.n();
        let m = emit.m();
        prop_assume!(f.total > 1e-280); // skip degenerate all-but-zero cases
        for i in 1..=n {
            let mut acc = 0.0;
            for j in 1..=m {
                acc += f.tables.m.get(i, j) * b.tables.m.get(i, j)
                    + f.tables.x.get(i, j) * b.tables.x.get(i, j);
            }
            prop_assert!((acc - f.total).abs() <= 1e-9 * f.total,
                "row {i} flow {acc} != {}", f.total);
        }
        for j in 1..=m {
            let mut acc = 0.0;
            for i in 1..=n {
                acc += f.tables.m.get(i, j) * b.tables.m.get(i, j)
                    + f.tables.y.get(i, j) * b.tables.y.get(i, j);
            }
            prop_assert!((acc - f.total).abs() <= 1e-9 * f.total,
                "column {j} flow {acc} != {}", f.total);
        }
    }

}
