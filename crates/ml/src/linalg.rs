//! Minimal dense linear algebra for the LSTM autoencoder.
//!
//! Everything is `f64` and batch size 1: the matrix–vector product
//! `Mat::matvec`, its transpose `Mat::matvec_t` (the backward pass)
//! and the outer-product accumulation `Mat::add_outer` (the weight
//! gradient) are all the LSTM kernels need, one sequence step at a
//! time.

/// A row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// A zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Xavier/Glorot-uniform initialization with the given RNG.
    pub(crate) fn xavier<R: rand::Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Mat { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Mutable element access.
    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }

    /// The flat row-major buffer.
    #[inline]
    pub(crate) fn data(&self) -> &[f64] {
        &self.data
    }

    /// The flat row-major buffer, mutably (for optimizers).
    #[inline]
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub(crate) fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y = A·x` into a caller's buffer. Four rows are summed at once
    /// with independent accumulators; each row is still summed in
    /// column order from `-0.0`, as `Iterator::sum` does, so every
    /// entry is bit-identical to `row·x` summed alone.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols` or `y.len() != rows`.
    pub(crate) fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec output mismatch");
        let quads = self.data.chunks_exact(4 * self.cols);
        let rest = quads.remainder();
        let mut ys = y.chunks_exact_mut(4);
        for (quad, yq) in quads.zip(&mut ys) {
            let (r0, r) = quad.split_at(self.cols);
            let (r1, r) = r.split_at(self.cols);
            let (r2, r3) = r.split_at(self.cols);
            let mut s = [-0.0f64; 4];
            for ((((&xv, a0), a1), a2), a3) in x.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
                s[0] += a0 * xv;
                s[1] += a1 * xv;
                s[2] += a2 * xv;
                s[3] += a3 * xv;
            }
            yq.copy_from_slice(&s);
        }
        for (row, yv) in rest.chunks_exact(self.cols).zip(ys.into_remainder()) {
            *yv = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// `x = Aᵀ·y` (the backward pass of `Mat::matvec`). Four rows are
    /// added per pass over `x`, each entry still accumulating the rows
    /// in order from `0.0`, so the result is bit-identical to one
    /// `x += row·y[r]` pass per row.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != rows`.
    pub(crate) fn matvec_t(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "matvec_t dimension mismatch");
        let mut x = vec![0.0; self.cols];
        let quads = self.data.chunks_exact(4 * self.cols);
        let rest = quads.remainder();
        let mut ys = y.chunks_exact(4);
        for (quad, yq) in quads.zip(&mut ys) {
            let (r0, r) = quad.split_at(self.cols);
            let (r1, r) = r.split_at(self.cols);
            let (r2, r3) = r.split_at(self.cols);
            for ((((xc, a0), a1), a2), a3) in x.iter_mut().zip(r0).zip(r1).zip(r2).zip(r3) {
                *xc = *xc + a0 * yq[0] + a1 * yq[1] + a2 * yq[2] + a3 * yq[3];
            }
        }
        for (row, &yv) in rest.chunks_exact(self.cols).zip(ys.remainder()) {
            for (xc, a) in x.iter_mut().zip(row) {
                *xc += a * yv;
            }
        }
        x
    }

    /// Accumulates the outer product `dA += dy ⊗ x` (weight gradient of
    /// a matvec).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub(crate) fn add_outer(&mut self, dy: &[f64], x: &[f64]) {
        assert_eq!(dy.len(), self.rows, "outer rows mismatch");
        assert_eq!(x.len(), self.cols, "outer cols mismatch");
        for (row, &dyv) in self.data.chunks_exact_mut(self.cols).zip(dy) {
            for (a, xv) in row.iter_mut().zip(x) {
                *a += dyv * xv;
            }
        }
    }

    /// Fills with zeros (gradient reset).
    pub(crate) fn zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// The logistic sigmoid.
#[inline]
pub(crate) fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// Element-wise vector addition: `a += b`.
///
/// # Panics
///
/// Panics on length mismatch.
pub(crate) fn add_assign(a: &mut [f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "length mismatch");
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// Squared Euclidean distance.
///
/// # Panics
///
/// Panics on length mismatch.
pub(crate) fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_and_transpose_agree() {
        let a = Mat {
            rows: 2,
            cols: 3,
            data: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        };
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(a.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn outer_product_accumulates() {
        let mut g = Mat::zeros(2, 2);
        g.add_outer(&[1.0, 2.0], &[3.0, 4.0]);
        g.add_outer(&[1.0, 0.0], &[1.0, 1.0]);
        assert_eq!(g.data(), &[4.0, 5.0, 6.0, 8.0]);
        let mut z = g.clone();
        z.zero();
        assert!(z.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matvec_transpose_identity_property() {
        // <A x, y> == <x, A^T y> for random-ish values.
        let a = Mat {
            rows: 3,
            cols: 2,
            data: vec![0.5, -1.0, 2.0, 0.25, -0.75, 1.5],
        };
        let x = [1.0, -2.0];
        let y = [0.5, 1.0, -1.0];
        let ax = a.matvec(&x);
        let aty = a.matvec_t(&y);
        let lhs: f64 = ax.iter().zip(&y).map(|(p, q)| p * q).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(p, q)| p * q).sum();
        assert!((lhs - rhs).abs() < 1e-12);
    }

    #[test]
    fn xavier_within_bound_and_seeded() {
        use rand::SeedableRng;
        let mut r1 = rand::rngs::StdRng::seed_from_u64(1);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(1);
        let a = Mat::xavier(4, 4, &mut r1);
        let b = Mat::xavier(4, 4, &mut r2);
        assert_eq!(a, b);
        let bound = (6.0 / 8.0f64).sqrt();
        assert!(a.data().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn helpers() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(10.0) > 0.999);
        let mut a = vec![1.0, 2.0];
        add_assign(&mut a, &[0.5, 0.5]);
        assert_eq!(a, vec![1.5, 2.5]);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn matvec_and_transpose_match_row_loops_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        // Row counts around the 4-row blocks and signed zeros. The last
        // row is all -0.0 and `x` is non-negative, so that row's
        // products are all -0.0 and its sum from -0.0 stays -0.0.
        for rows in [1, 2, 3, 4, 5, 7, 8, 9, 34, 48] {
            for cols in [1, 3, 12] {
                let data: Vec<f64> = (0..rows * cols)
                    .map(|i| match i % 5 {
                        0 => -0.0,
                        1 => 0.0,
                        _ => rng.gen_range(-2.0..2.0),
                    })
                    .collect();
                let mut a = Mat { rows, cols, data };
                for c in 0..cols {
                    *a.get_mut(rows - 1, c) = -0.0;
                }
                let x: Vec<f64> = (0..cols)
                    .map(|c| {
                        if c % 4 == 0 {
                            0.0
                        } else {
                            rng.gen_range(0.25..2.0)
                        }
                    })
                    .collect();
                let expected: Vec<u64> = a
                    .data()
                    .chunks_exact(cols)
                    .map(|row| {
                        row.iter()
                            .zip(&x)
                            .map(|(p, q)| p * q)
                            .sum::<f64>()
                            .to_bits()
                    })
                    .collect();
                let got: Vec<u64> = a.matvec(&x).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, expected, "{rows}x{cols}");
                assert!(a.matvec(&x)[rows - 1].is_sign_negative(), "{rows}x{cols}");
                // The transpose against one accumulation pass per row.
                let y: Vec<f64> = (0..rows)
                    .map(|r| {
                        if r % 3 == 0 {
                            -0.0
                        } else {
                            rng.gen_range(-2.0..2.0)
                        }
                    })
                    .collect();
                let mut expected = vec![0.0f64; cols];
                for (row, &yv) in a.data().chunks_exact(cols).zip(&y) {
                    for (e, p) in expected.iter_mut().zip(row) {
                        *e += p * yv;
                    }
                }
                let expected: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();
                let got: Vec<u64> = a.matvec_t(&y).iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, expected, "transpose {rows}x{cols}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_checks_dims() {
        let a = Mat::zeros(2, 2);
        let _ = a.matvec(&[1.0]);
    }
}
