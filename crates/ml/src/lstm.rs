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
    /// The step's input and previous hidden state, `[x | h_prev]`.
    z: Vec<f64>,
    /// Gate activations `[i | f | o | g]`, `hidden` each.
    gates: Vec<f64>,
    /// Cell states and the new state's `tanh`, `[c_prev | c | tanh(c)]`,
    /// `hidden` each.
    cells: Vec<f64>,
}

impl StepCache {
    /// The cell state this step produced.
    fn c(&self) -> &[f64] {
        let h_d = self.cells.len() / 3;
        &self.cells[h_d..2 * h_d]
    }
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

    /// One forward step. Returns `h` and the cache, which holds `c`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub(crate) fn forward_step(
        &self,
        x: &[f64],
        h_prev: &[f64],
        c_prev: &[f64],
    ) -> (Vec<f64>, StepCache) {
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        assert_eq!(h_prev.len(), self.hidden_dim, "hidden dimension mismatch");
        let mut z = Vec::with_capacity(self.input_dim + self.hidden_dim);
        z.extend_from_slice(x);
        z.extend_from_slice(h_prev);
        let mut gates = self.w.matvec(&z);
        add_assign(&mut gates, &self.b);
        let h_d = self.hidden_dim;
        let (sig, cand) = gates.split_at_mut(3 * h_d);
        sig.iter_mut().for_each(|v| *v = sigmoid(*v));
        cand.iter_mut().for_each(|v| *v = v.tanh());
        let (i, f, o, g) = (
            &gates[..h_d],
            &gates[h_d..2 * h_d],
            &gates[2 * h_d..3 * h_d],
            &gates[3 * h_d..],
        );
        let mut cells = Vec::with_capacity(3 * h_d);
        cells.extend_from_slice(c_prev);
        cells.extend((0..h_d).map(|j| f[j] * c_prev[j] + i[j] * g[j]));
        for j in h_d..2 * h_d {
            cells.push(cells[j].tanh());
        }
        let tanh_c = &cells[2 * h_d..];
        let h: Vec<f64> = (0..h_d).map(|j| o[j] * tanh_c[j]).collect();
        (h, StepCache { z, gates, cells })
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
        let gate = |k: usize| &cache.gates[k * h_d..(k + 1) * h_d];
        let (i, f, o, g) = (gate(0), gate(1), gate(2), gate(3));
        let (c_prev, tanh_c) = (&cache.cells[..h_d], &cache.cells[2 * h_d..]);
        let mut dpre = vec![0.0; 4 * h_d];
        let mut dc_prev = vec![0.0; h_d];
        for j in 0..h_d {
            let tanh_c = tanh_c[j];
            let do_ = dh[j] * tanh_c;
            let dc = dc_in[j] + dh[j] * o[j] * (1.0 - tanh_c * tanh_c);
            let di = dc * g[j];
            let df = dc * c_prev[j];
            let dg = dc * i[j];
            dpre[j] = di * i[j] * (1.0 - i[j]);
            dpre[h_d + j] = df * f[j] * (1.0 - f[j]);
            dpre[2 * h_d + j] = do_ * o[j] * (1.0 - o[j]);
            dpre[3 * h_d + j] = dg * (1.0 - g[j] * g[j]);
            dc_prev[j] = dc * f[j];
        }
        self.dw.add_outer(&dpre, &cache.z);
        add_assign(&mut self.db, &dpre);
        let mut dx = self.w.matvec_t(&dpre);
        let dh_prev = dx.split_off(self.input_dim);
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
    pub(crate) fn forward<X: AsRef<[f64]>>(&self, inputs: &[X]) -> (Vec<Vec<f64>>, SeqCache) {
        let h_d = self.hidden_dim();
        let zeros = vec![0.0; h_d];
        let mut h = vec![zeros.clone(); self.layers.len()];
        let mut top = Vec::with_capacity(inputs.len());
        let mut cache = SeqCache::default();
        for x in inputs {
            let mut layer_caches = Vec::with_capacity(self.layers.len());
            for (l, layer) in self.layers.iter().enumerate() {
                // Layer `l` reads the hidden state layer `l - 1` produced
                // this step, and its own cell state from the last step.
                let input = if l == 0 { x.as_ref() } else { &h[l - 1] };
                let c_prev = cache.steps.last().map_or(&zeros[..], |s| s[l].c());
                let (nh, sc) = layer.forward_step(input, &h[l], c_prev);
                h[l] = nh;
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
            // Gradient flowing into layer `l` from above at step t: the
            // loss gradient for the top layer, then each layer's `dx`.
            let mut d_from_above: Option<Vec<f64>> = None;
            for l in (0..nl).rev() {
                let above = d_from_above.as_deref().unwrap_or(&d_top[t]);
                let dh: Vec<f64> = dh_next[l].iter().zip(above).map(|(a, b)| a + b).collect();
                let (dx, dh_prev, dc_prev) =
                    self.layers[l].backward_step(&cache.steps[t][l], &dh, &dc_next[l]);
                dh_next[l] = dh_prev;
                dc_next[l] = dc_prev;
                d_from_above = Some(dx);
            }
            d_inputs[t] = d_from_above.unwrap_or_default();
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
                let analytic = *lstm.layers[l].dw.get_mut(r, c);
                let orig = *lstm.layers[l].w.get_mut(r, c);
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
