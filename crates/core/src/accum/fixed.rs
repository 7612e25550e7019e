//! Fixed-point accumulator: order-independent, bit-exact parallel sums.
//!
//! `NORM` stores f32 components, so the result of a parallel run depends
//! on the order partial accumulators are folded — fine for the MPI drivers
//! (which fix a rank order) but wrong for a worker-pool streaming engine
//! where deposit order is scheduling-dependent. `FIXED` stores each
//! component as a `u64` count of 2⁻³² quanta; integer addition commutes
//! and associates exactly, so any interleaving of deposits (and any
//! checkpoint/resume split) produces bit-identical counts, and therefore
//! bit-identical SNP calls. The cost is 40 B/base, double `NORM`.

use super::{GenomeAccumulator, NUM_SYMBOLS};

/// One fixed-point quantum is 2⁻³²; a unit of evidence is `SCALE` quanta.
const SCALE: f64 = 4_294_967_296.0; // 2^32

/// 2⁵²: below it, `x - trunc(x)` is exact for every non-negative `x`.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// `x.round() as u64` without a libm call: for `0 ≤ x < 2⁵²` the
/// fraction `x - trunc(x)` is exact, so comparing it with ½ rounds half
/// away from zero as `round` does; every other value takes `round`. The
/// truncation goes through `i64`, exact in that range, because x86-64
/// converts signed integers in one instruction and unsigned ones in many.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    if (0.0..TWO_52).contains(&x) {
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as u64
    } else {
        x.round() as u64
    }
}

/// Order-independent fixed-point accumulator (`u64` per symbol).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedAccumulator {
    /// `len * NUM_SYMBOLS` quanta counts, position-major.
    cells: Vec<u64>,
}

impl GenomeAccumulator for FixedAccumulator {
    type Wire = Vec<u64>;

    fn new(len: usize) -> Self {
        FixedAccumulator {
            cells: vec![0; len * NUM_SYMBOLS],
        }
    }

    fn len(&self) -> usize {
        self.cells.len() / NUM_SYMBOLS
    }

    #[inline]
    fn add(&mut self, pos: usize, delta: &[f64; NUM_SYMBOLS]) {
        let base = pos * NUM_SYMBOLS;
        for (k, &d) in delta.iter().enumerate() {
            debug_assert!(d >= 0.0, "negative evidence component");
            self.cells[base + k] += round_to_u64(d * SCALE);
        }
    }

    fn counts(&self, pos: usize) -> [f64; NUM_SYMBOLS] {
        let base = pos * NUM_SYMBOLS;
        let mut out = [0.0; NUM_SYMBOLS];
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.cells[base + k] as f64 / SCALE;
        }
        out
    }

    fn to_wire(&self) -> Self::Wire {
        self.cells.clone()
    }

    fn merge_wire(&mut self, wire: &Self::Wire) {
        assert_eq!(wire.len(), self.cells.len(), "accumulator length mismatch");
        for (c, w) in self.cells.iter_mut().zip(wire) {
            *c += w;
        }
    }

    fn heap_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// An evidence component whose quanta `d · 2³²` are, by `kind`: 0, a
    /// subnormal, an exact `.5` tie, within 2¹¹ of 2⁵² on either side, or
    /// any non-negative finite double.
    fn component(kind: u64, raw: u64) -> f64 {
        match kind {
            0 => 0.0,
            1 => f64::from_bits(1 + raw % (1 << 52)),
            2 => ((raw % (1 << 51)) as f64 + 0.5) / SCALE,
            3 => (TWO_52 + (raw % 4096) as f64 - 2048.0 + (raw >> 62) as f64 * 0.25) / SCALE,
            _ => f64::from_bits(raw % (f64::MAX.to_bits() + 1)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn integer_round_matches_libm_round(kind in 0u64..5, raw in 0u64..u64::MAX) {
            let x = component(kind, raw) * SCALE;
            prop_assert_eq!(round_to_u64(x), x.round() as u64, "x = {:e}", x);
        }
    }

    #[test]
    fn conformance() {
        // Quantisation error per add is ≤ 2⁻³³ per component.
        crate::accum::test_support::conformance::<FixedAccumulator>(1e-9, 0.999);
    }

    #[test]
    fn merges_commute_bit_exactly() {
        // The property NORM lacks: any fold order gives identical cells.
        let deltas = [
            [0.1, 0.2, 0.3, 0.05, 0.35],
            [0.7, 0.1, 0.1, 0.1, 0.0],
            [1e-9, 0.5, 0.25, 0.125, 0.0625],
        ];
        let mut parts: Vec<FixedAccumulator> = deltas
            .iter()
            .map(|d| {
                let mut a = FixedAccumulator::new(4);
                a.add(1, d);
                a.add(3, d);
                a
            })
            .collect();

        let mut forward = FixedAccumulator::new(4);
        for p in &parts {
            forward.merge_from(p);
        }
        let mut backward = FixedAccumulator::new(4);
        parts.reverse();
        for p in &parts {
            backward.merge_from(p);
        }
        assert_eq!(forward, backward);
        assert_eq!(forward.cells, backward.cells);
    }

    #[test]
    fn heap_accounting() {
        assert_eq!(FixedAccumulator::new(100).heap_bytes(), 100 * 5 * 8);
    }
}
