//! Learned embeddings for categorical inputs.
//!
//! The paper's model (Fig. 9) embeds the address delta Δ and the
//! variable id VID separately and concatenates the embeddings before the
//! LSTM. Gradients flow only to the rows that were looked up.

use rand::Rng;

use crate::linalg::Mat;
use crate::optim::Adam;

/// An embedding table with gradient accumulation and Adam state.
#[derive(Debug, Clone)]
pub(crate) struct Embedding {
    table: Mat,
    grad: Mat,
    adam: Adam,
}

impl Embedding {
    /// Creates a `vocab × dim` embedding with small random init.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub(crate) fn new<R: Rng>(vocab: usize, dim: usize, rng: &mut R) -> Self {
        let table = Mat::xavier(vocab, dim, rng);
        Embedding {
            grad: Mat::zeros(vocab, dim),
            adam: Adam::new(vocab * dim),
            table,
        }
    }

    /// Vocabulary size.
    #[inline]
    pub(crate) fn vocab(&self) -> usize {
        self.table.rows()
    }

    /// Embedding dimension.
    #[inline]
    pub(crate) fn dim(&self) -> usize {
        self.table.cols()
    }

    /// Scales all embeddings by `factor`. Used to damp auxiliary inputs
    /// (the VID embedding) at initialization so the primary signal (Δ)
    /// dominates early training.
    pub(crate) fn scale(&mut self, factor: f64) {
        for v in self.table.data_mut() {
            *v *= factor;
        }
    }

    /// The embedding of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of vocabulary.
    pub(crate) fn row(&self, id: usize) -> &[f64] {
        assert!(id < self.vocab(), "id {id} out of vocabulary");
        &self.table.data()[id * self.dim()..(id + 1) * self.dim()]
    }

    /// Accumulates gradient for the row of `id`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions mismatch.
    pub(crate) fn accumulate(&mut self, id: usize, grad: &[f64]) {
        assert!(id < self.vocab(), "id {id} out of vocabulary");
        assert_eq!(grad.len(), self.dim(), "gradient dimension mismatch");
        for (c, g) in grad.iter().enumerate() {
            *self.grad.get_mut(id, c) += g;
        }
    }

    /// Clears accumulated gradients.
    pub(crate) fn zero_grad(&mut self) {
        self.grad.zero();
    }

    /// Adam step.
    pub(crate) fn step(&mut self, lr: f64) {
        self.adam.step(self.table.data_mut(), self.grad.data(), lr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn row_matches_table() {
        let mut rng = StdRng::seed_from_u64(5);
        let e = Embedding::new(4, 3, &mut rng);
        let v = e.row(2);
        assert_eq!(v.len(), 3);
        assert_eq!(v[1], e.row(2)[1]);
    }

    #[test]
    fn gradient_only_touches_looked_up_rows() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut e = Embedding::new(3, 2, &mut rng);
        let before0 = e.row(0).to_vec();
        let before1 = e.row(1).to_vec();
        e.accumulate(1, &[1.0, -1.0]);
        e.step(0.1);
        assert_eq!(e.row(0), &before0[..], "untouched row moved");
        assert_ne!(e.row(1), &before1[..], "updated row did not move");
    }

    #[test]
    fn training_moves_embedding_toward_target() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut e = Embedding::new(2, 2, &mut rng);
        // Minimize ||emb(0) - [1,2]||^2 / 2.
        for _ in 0..2000 {
            let v = e.row(0);
            let g = [v[0] - 1.0, v[1] - 2.0];
            e.zero_grad();
            e.accumulate(0, &g);
            e.step(0.01);
        }
        let v = e.row(0);
        assert!(
            (v[0] - 1.0).abs() < 0.01 && (v[1] - 2.0).abs() < 0.01,
            "{v:?}"
        );
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn oov_panics() {
        let mut rng = StdRng::seed_from_u64(8);
        let e = Embedding::new(2, 2, &mut rng);
        let _ = e.row(5);
    }
}
