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

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
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
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        self.data
            .chunks_exact(self.cols)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// `x = Aᵀ·y` (the backward pass of `Mat::matvec`).
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != rows`.
    pub(crate) fn matvec_t(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "matvec_t dimension mismatch");
        let mut x = vec![0.0; self.cols];
        for (row, &yv) in self.data.chunks_exact(self.cols).zip(y) {
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
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_checks_dims() {
        let a = Mat::zeros(2, 2);
        let _ = a.matvec(&[1.0]);
    }
}
