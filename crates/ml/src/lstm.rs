//! A from-scratch LSTM with manual backpropagation through time.
//!
//! Gate order in the packed weight matrix is `[i, f, o, g]` (input,
//! forget, output, candidate). Everything runs one sequence step at a
//! time: `LstmLayer::forward_step` and `LstmLayer::backward_step`
//! are the kernels, and [`Lstm::forward`] and `Lstm::backward` drive
//! them over a stack of layers and a whole sequence. Gradients
//! accumulate in the layers until `Lstm::zero_grad`, so a caller
//! builds a minibatch by running several samples before one
//! [`Lstm::step`].

use rand::Rng;

use crate::linalg::{add_assign, sigmoid, Mat};
use crate::optim::Adam;

/// One LSTM layer with its parameters, gradients, and optimizer state.
#[derive(Debug, Clone)]
pub(crate) struct LstmLayer {
    input_dim: usize,
    hidden_dim: usize,
    /// Packed gate weights: `4·hidden × (input + hidden)`.
    w: Mat,
    /// Packed gate biases: `4·hidden`.
    b: Vec<f64>,
    dw: Mat,
    db: Vec<f64>,
    adam_w: Adam,
    adam_b: Adam,
}

/// Cached activations of one forward step, needed by the backward pass.
#[derive(Debug, Clone)]
pub(crate) struct StepCache {
    z: Vec<f64>,
    i: Vec<f64>,
    f: Vec<f64>,
    o: Vec<f64>,
    g: Vec<f64>,
    c_prev: Vec<f64>,
    c: Vec<f64>,
}

impl LstmLayer {
    /// Creates a layer with Xavier-initialized weights and a forget-gate
    /// bias of 1 (the standard trick for gradient flow).
    pub(crate) fn new<R: Rng>(input_dim: usize, hidden_dim: usize, rng: &mut R) -> Self {
        let rows = 4 * hidden_dim;
        let cols = input_dim + hidden_dim;
        let mut b = vec![0.0; rows];
        for v in b.iter_mut().skip(hidden_dim).take(hidden_dim) {
            *v = 1.0; // forget gate
        }
        LstmLayer {
            input_dim,
            hidden_dim,
            w: Mat::xavier(rows, cols, rng),
            b,
            dw: Mat::zeros(rows, cols),
            db: vec![0.0; rows],
            adam_w: Adam::new(rows * cols),
            adam_b: Adam::new(rows),
        }
    }

    /// Hidden dimension.
    #[inline]
    pub(crate) fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// One forward step. Returns `(h, c, cache)`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub(crate) fn forward_step(
        &self,
        x: &[f64],
        h_prev: &[f64],
        c_prev: &[f64],
    ) -> (Vec<f64>, Vec<f64>, StepCache) {
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        assert_eq!(h_prev.len(), self.hidden_dim, "hidden dimension mismatch");
        let mut z = Vec::with_capacity(self.input_dim + self.hidden_dim);
        z.extend_from_slice(x);
        z.extend_from_slice(h_prev);
        let mut pre = self.w.matvec(&z);
        add_assign(&mut pre, &self.b);
        let h_d = self.hidden_dim;
        let i: Vec<f64> = pre[0..h_d].iter().map(|&v| sigmoid(v)).collect();
        let f: Vec<f64> = pre[h_d..2 * h_d].iter().map(|&v| sigmoid(v)).collect();
        let o: Vec<f64> = pre[2 * h_d..3 * h_d].iter().map(|&v| sigmoid(v)).collect();
        let g: Vec<f64> = pre[3 * h_d..4 * h_d].iter().map(|&v| v.tanh()).collect();
        let c: Vec<f64> = (0..h_d).map(|j| f[j] * c_prev[j] + i[j] * g[j]).collect();
        let h: Vec<f64> = (0..h_d).map(|j| o[j] * c[j].tanh()).collect();
        let cache = StepCache {
            z,
            i,
            f,
            o,
            g,
            c_prev: c_prev.to_vec(),
            c: c.clone(),
        };
        (h, c, cache)
    }

    /// One backward step: given `dh` and `dc` flowing into this step's
    /// outputs, accumulates weight gradients and returns
    /// `(dx, dh_prev, dc_prev)`.
    pub(crate) fn backward_step(
        &mut self,
        cache: &StepCache,
        dh: &[f64],
        dc_in: &[f64],
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let h_d = self.hidden_dim;
        let mut dpre = vec![0.0; 4 * h_d];
        for j in 0..h_d {
            let tanh_c = cache.c[j].tanh();
            let do_ = dh[j] * tanh_c;
            let dc = dc_in[j] + dh[j] * cache.o[j] * (1.0 - tanh_c * tanh_c);
            let di = dc * cache.g[j];
            let df = dc * cache.c_prev[j];
            let dg = dc * cache.i[j];
            dpre[j] = di * cache.i[j] * (1.0 - cache.i[j]);
            dpre[h_d + j] = df * cache.f[j] * (1.0 - cache.f[j]);
            dpre[2 * h_d + j] = do_ * cache.o[j] * (1.0 - cache.o[j]);
            dpre[3 * h_d + j] = dg * (1.0 - cache.g[j] * cache.g[j]);
        }
        self.dw.add_outer(&dpre, &cache.z);
        add_assign(&mut self.db, &dpre);
        let dz = self.w.matvec_t(&dpre);
        let dx = dz[0..self.input_dim].to_vec();
        let dh_prev = dz[self.input_dim..].to_vec();
        // dc_prev = dc * f, where dc is recomputed per element.
        let dc_prev: Vec<f64> = (0..h_d)
            .map(|j| {
                let tanh_c = cache.c[j].tanh();
                let dc = dc_in[j] + dh[j] * cache.o[j] * (1.0 - tanh_c * tanh_c);
                dc * cache.f[j]
            })
            .collect();
        (dx, dh_prev, dc_prev)
    }

    /// Clears accumulated gradients.
    pub(crate) fn zero_grad(&mut self) {
        self.dw.zero();
        self.db.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Applies an Adam step with the accumulated gradients.
    pub(crate) fn step(&mut self, lr: f64) {
        self.adam_w.step(self.w.data_mut(), self.dw.data(), lr);
        self.adam_b.step(&mut self.b, &self.db, lr);
    }
}

/// A stack of LSTM layers run over a sequence.
#[derive(Debug, Clone)]
pub(crate) struct Lstm {
    layers: Vec<LstmLayer>,
}

/// Caches of a full sequence forward pass (per step, per layer).
#[derive(Debug, Clone, Default)]
pub(crate) struct SeqCache {
    steps: Vec<Vec<StepCache>>,
}

impl Lstm {
    /// Creates a stack: the first layer takes `input_dim`, each further
    /// layer takes the previous layer's hidden state.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is zero.
    pub(crate) fn new<R: Rng>(
        input_dim: usize,
        hidden_dim: usize,
        layers: usize,
        rng: &mut R,
    ) -> Self {
        assert!(layers > 0, "need at least one layer");
        let mut v = Vec::with_capacity(layers);
        v.push(LstmLayer::new(input_dim, hidden_dim, rng));
        for _ in 1..layers {
            v.push(LstmLayer::new(hidden_dim, hidden_dim, rng));
        }
        Lstm { layers: v }
    }

    /// Hidden dimension.
    #[inline]
    pub(crate) fn hidden_dim(&self) -> usize {
        self.layers[0].hidden_dim()
    }

    /// Runs the stack over `inputs`, returning the top-layer hidden
    /// state at every step and the cache for backprop.
    pub(crate) fn forward(&self, inputs: &[Vec<f64>]) -> (Vec<Vec<f64>>, SeqCache) {
        let h_d = self.hidden_dim();
        let mut h = vec![vec![0.0; h_d]; self.layers.len()];
        let mut c = vec![vec![0.0; h_d]; self.layers.len()];
        let mut top = Vec::with_capacity(inputs.len());
        let mut cache = SeqCache::default();
        for x in inputs {
            let mut layer_caches = Vec::with_capacity(self.layers.len());
            let mut cur = x.clone();
            for (l, layer) in self.layers.iter().enumerate() {
                let (nh, nc, sc) = layer.forward_step(&cur, &h[l], &c[l]);
                cur = nh.clone();
                h[l] = nh;
                c[l] = nc;
                layer_caches.push(sc);
            }
            let Some(h_top) = h.last() else {
                panic!("an LSTM has at least one layer");
            };
            top.push(h_top.clone());
            cache.steps.push(layer_caches);
        }
        (top, cache)
    }

    /// Backpropagates through time. `d_top[t]` is the loss gradient on
    /// the top-layer hidden state at step `t`; `d_last_c` optionally
    /// injects gradient into the final cell state of the top layer.
    /// Returns the gradient w.r.t. each input vector.
    pub(crate) fn backward(
        &mut self,
        cache: &SeqCache,
        d_top: &[Vec<f64>],
        d_last_c: Option<&[f64]>,
    ) -> Vec<Vec<f64>> {
        let steps = cache.steps.len();
        assert_eq!(d_top.len(), steps, "gradient per step required");
        let h_d = self.hidden_dim();
        let nl = self.layers.len();
        let mut dh_next = vec![vec![0.0; h_d]; nl];
        let mut dc_next = vec![vec![0.0; h_d]; nl];
        if let Some(dc) = d_last_c {
            dc_next[nl - 1] = dc.to_vec();
        }
        let mut d_inputs = vec![Vec::new(); steps];
        for t in (0..steps).rev() {
            // Gradient flowing into the top layer at step t.
            let mut d_from_above = d_top[t].clone();
            for l in (0..nl).rev() {
                let mut dh = dh_next[l].clone();
                add_assign(&mut dh, &d_from_above);
                let (dx, dh_prev, dc_prev) =
                    self.layers[l].backward_step(&cache.steps[t][l], &dh, &dc_next[l]);
                dh_next[l] = dh_prev;
                dc_next[l] = dc_prev;
                d_from_above = dx;
            }
            d_inputs[t] = d_from_above;
        }
        d_inputs
    }

    /// Clears gradients in all layers.
    pub(crate) fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Adam step on all layers.
    pub(crate) fn step(&mut self, lr: f64) {
        for l in &mut self.layers {
            l.step(lr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Scalar loss used for gradient checking: sum of squares of all
    /// top-layer hidden states.
    fn loss_of(lstm: &Lstm, inputs: &[Vec<f64>]) -> f64 {
        let (top, _) = lstm.forward(inputs);
        top.iter().flatten().map(|&v| v * v).sum::<f64>() * 0.5
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let lstm = Lstm::new(3, 5, 2, &mut rng);
        let inputs = vec![vec![0.1, -0.2, 0.3]; 7];
        let (top, cache) = lstm.forward(&inputs);
        assert_eq!(top.len(), 7);
        assert_eq!(top[0].len(), 5);
        assert_eq!(cache.steps.len(), 7);
        assert_eq!(cache.steps[0].len(), 2);
    }

    #[test]
    fn hidden_state_carries_memory() {
        let mut rng = StdRng::seed_from_u64(1);
        let lstm = Lstm::new(2, 4, 1, &mut rng);
        // Same final input, different first input → different final h.
        let (a, _) = lstm.forward(&[vec![1.0, 0.0], vec![0.0, 0.0]]);
        let (b, _) = lstm.forward(&[vec![0.0, 1.0], vec![0.0, 0.0]]);
        let diff: f64 = a[1].iter().zip(&b[1]).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-6, "LSTM forgot its first input entirely");
    }

    #[test]
    fn gradient_check_weights() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut lstm = Lstm::new(2, 3, 2, &mut rng);
        let inputs = vec![vec![0.5, -0.3], vec![-0.1, 0.8], vec![0.2, 0.2]];
        // Analytic gradients.
        let (top, cache) = lstm.forward(&inputs);
        let d_top: Vec<Vec<f64>> = top.clone();
        lstm.zero_grad();
        lstm.backward(&cache, &d_top, None);
        let eps = 1e-5;
        for l in 0..lstm.layers.len() {
            let w = &lstm.layers[l].w;
            let probe = [(0, 0), (1, 2), (w.rows() - 1, w.cols() - 1)];
            for &(r, c) in &probe {
                let analytic = lstm.layers[l].dw.get(r, c);
                let orig = lstm.layers[l].w.get(r, c);
                *lstm.layers[l].w.get_mut(r, c) = orig + eps;
                let plus = loss_of(&lstm, &inputs);
                *lstm.layers[l].w.get_mut(r, c) = orig - eps;
                let minus = loss_of(&lstm, &inputs);
                *lstm.layers[l].w.get_mut(r, c) = orig;
                let numeric = (plus - minus) / (2.0 * eps);
                assert!(
                    (analytic - numeric).abs() < 1e-6 * (1.0 + numeric.abs()),
                    "layer {l} w[{r},{c}]: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn gradient_check_inputs() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut lstm = Lstm::new(2, 3, 1, &mut rng);
        let inputs = vec![vec![0.4, -0.6], vec![0.1, 0.9]];
        let (top, cache) = lstm.forward(&inputs);
        lstm.zero_grad();
        let d_inputs = lstm.backward(&cache, &top.clone(), None);
        let eps = 1e-5;
        for t in 0..inputs.len() {
            for d in 0..2 {
                let mut plus_in = inputs.clone();
                plus_in[t][d] += eps;
                let mut minus_in = inputs.clone();
                minus_in[t][d] -= eps;
                let numeric = (loss_of(&lstm, &plus_in) - loss_of(&lstm, &minus_in)) / (2.0 * eps);
                assert!(
                    (d_inputs[t][d] - numeric).abs() < 1e-6 * (1.0 + numeric.abs()),
                    "input grad [{t}][{d}]: {} vs {numeric}",
                    d_inputs[t][d]
                );
            }
        }
    }

    #[test]
    fn training_reduces_loss() {
        // Teach a tiny LSTM to output zeros.
        let mut rng = StdRng::seed_from_u64(4);
        let mut lstm = Lstm::new(2, 4, 1, &mut rng);
        let inputs = vec![vec![1.0, -1.0], vec![0.5, 0.5], vec![-0.7, 0.9]];
        let initial = loss_of(&lstm, &inputs);
        for _ in 0..200 {
            let (top, cache) = lstm.forward(&inputs);
            lstm.zero_grad();
            lstm.backward(&cache, &top.clone(), None);
            lstm.step(0.01);
        }
        let final_loss = loss_of(&lstm, &inputs);
        assert!(
            final_loss < initial * 0.1,
            "loss {initial} -> {final_loss} did not shrink"
        );
    }
}
