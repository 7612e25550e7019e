//! Dense row-major `f64` matrices for the DP recursions.
//!
//! The DP tables are `(N+1) × (M+1)` with reads of 36–100 bp against
//! windows of similar size, so a flat `Vec<f64>` with multiply-free row
//! indexing is both the simplest and the fastest layout (the inner loops
//! walk rows contiguously).

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Mutable flat access (lets the flat-plane kernels fill a `Matrix`
    /// in place).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_reads_the_row_major_slot() {
        let mut m = Matrix::zeros(3, 4);
        m.as_mut_slice()[2 * 4 + 3] = 1.5;
        m.as_mut_slice()[0] = -2.0;
        assert_eq!(m.get(2, 3), 1.5);
        assert_eq!(m.get(0, 0), -2.0);
        assert_eq!(m.get(1, 1), 0.0);
    }
}
