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

    fn add(&mut self, pos: usize, delta: &[f64; NUM_SYMBOLS]) {
        let base = pos * NUM_SYMBOLS;
        for (k, &d) in delta.iter().enumerate() {
            debug_assert!(d >= 0.0, "negative evidence component");
            self.cells[base + k] += (d * SCALE).round() as u64;
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
