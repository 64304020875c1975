//! A from-scratch LSTM with manual backpropagation through time.
//!
//! Gate order in the packed weight matrix is `[i, f, o, g]` (input,
//! forget, output, candidate). Two execution tiers share the same
//! parameters:
//!
//! * the original per-step path ([`LstmLayer::forward_step`],
//!   [`LstmLayer::backward_step`], [`Lstm::forward`],
//!   [`Lstm::backward`]) — batch size 1, auditable, kept as the
//!   reference oracle;
//! * the batched path ([`Lstm::forward_batch`],
//!   [`Lstm::backward_batch`]) — layer-major over a whole minibatch.
//!   Sequences are packed column-wise into `dim × (T·B)` matrices
//!   (column `t·B + s` is step `t` of sample `s`), the input
//!   projection `W_x·X` is hoisted out of the time loop as one matmul,
//!   and the weight gradients collapse into two matmuls per layer
//!   (`dPre·Xᵀ`, `dPre·H_prevᵀ`). Gradients land in caller-owned
//!   [`LayerGrads`] buffers so a minibatch can be fanned out over
//!   threads and reduced in a fixed order.

use rand::Rng;

use crate::linalg::{add_assign, sigmoid, Mat};
use crate::optim::Adam;

/// One LSTM layer with its parameters, gradients, and optimizer state.
#[derive(Debug, Clone)]
pub struct LstmLayer {
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
pub struct StepCache {
    z: Vec<f64>,
    i: Vec<f64>,
    f: Vec<f64>,
    o: Vec<f64>,
    g: Vec<f64>,
    c_prev: Vec<f64>,
    c: Vec<f64>,
}

/// Caller-owned gradient buffer of one layer: the packed weight
/// gradient (`4h × (in+h)`) and the bias gradient. Batched backward
/// passes accumulate here instead of into the layer, so per-work-item
/// gradients can be reduced in a fixed order regardless of scheduling.
#[derive(Debug, Clone)]
pub struct LayerGrads {
    /// Packed gate-weight gradient, same layout as the layer's weights.
    pub dw: Mat,
    /// Packed gate-bias gradient.
    pub db: Vec<f64>,
}

/// How a batched layer received its input: one column per step and
/// sample, or one column per sample broadcast across steps.
#[derive(Debug, Clone)]
enum SeqInput {
    Flat(Mat),
    Const(Mat),
}

/// Cached activations of one layer's batched sequence pass.
///
/// All matrices are `hidden × (steps·batch)` with column `t·batch + s`
/// holding step `t` of sample `s`.
#[derive(Debug, Clone)]
pub struct LayerSeqCache {
    x: SeqInput,
    hprev_flat: Mat,
    i_flat: Mat,
    f_flat: Mat,
    o_flat: Mat,
    g_flat: Mat,
    c_flat: Mat,
    cprev_flat: Mat,
    steps: usize,
    batch: usize,
}

impl LstmLayer {
    /// Creates a layer with Xavier-initialized weights and a forget-gate
    /// bias of 1 (the standard trick for gradient flow).
    pub fn new<R: Rng>(input_dim: usize, hidden_dim: usize, rng: &mut R) -> Self {
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

    /// Input dimension.
    #[inline]
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden dimension.
    #[inline]
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// One forward step. Returns `(h, c, cache)`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn forward_step(
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
    pub fn backward_step(
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

    /// Runs the whole batched sequence through this layer.
    ///
    /// `x_flat` packs the per-step inputs column-wise as
    /// `input_dim × (steps·batch)`; the returned hidden states use the
    /// same layout. The input projection `W_x·X` is computed as a
    /// single matmul before the time loop; only the recurrent product
    /// `W_h·H_{t-1}` remains per-step.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches or zero `steps`/`batch`.
    pub fn forward_seq(&self, x_flat: &Mat, steps: usize, batch: usize) -> (Mat, LayerSeqCache) {
        assert_eq!(x_flat.rows(), self.input_dim, "input dimension mismatch");
        assert_eq!(x_flat.cols(), steps * batch, "flat layout mismatch");
        let (w_x, w_h) = self.split_weights();
        let p_flat = w_x.matmul(x_flat);
        let (h_flat, cache) = self.forward_seq_inner(
            &w_h,
            &p_flat,
            None,
            steps,
            batch,
            SeqInput::Flat(x_flat.clone()),
        );
        (h_flat, cache)
    }

    /// Like [`LstmLayer::forward_seq`] but for an input that is
    /// *constant across timesteps* (the decoder conditioning on `z`):
    /// `x0` is `input_dim × batch` and its projection is computed once
    /// instead of per step.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches or zero `steps`/`batch`.
    pub fn forward_seq_const(&self, x0: &Mat, steps: usize) -> (Mat, LayerSeqCache) {
        assert_eq!(x0.rows(), self.input_dim, "input dimension mismatch");
        let batch = x0.cols();
        let (w_x, w_h) = self.split_weights();
        let p0 = w_x.matmul(x0);
        let (h_flat, cache) = self.forward_seq_inner(
            &w_h,
            &p0,
            Some(&p0),
            steps,
            batch,
            SeqInput::Const(x0.clone()),
        );
        (h_flat, cache)
    }

    fn split_weights(&self) -> (Mat, Mat) {
        (
            self.w.col_block(0, self.input_dim),
            self.w
                .col_block(self.input_dim, self.input_dim + self.hidden_dim),
        )
    }

    /// Shared forward body: `p` is either the full projected input
    /// (`4h × T·B`, `p_const == None`) or ignored in favor of the
    /// per-step constant projection `p_const` (`4h × B`).
    fn forward_seq_inner(
        &self,
        w_h: &Mat,
        p: &Mat,
        p_const: Option<&Mat>,
        steps: usize,
        batch: usize,
        x: SeqInput,
    ) -> (Mat, LayerSeqCache) {
        assert!(steps > 0 && batch > 0, "empty batched sequence");
        let h_d = self.hidden_dim;
        let tb = steps * batch;
        let mut h_flat = Mat::zeros(h_d, tb);
        let mut cache = LayerSeqCache {
            x,
            hprev_flat: Mat::zeros(h_d, tb),
            i_flat: Mat::zeros(h_d, tb),
            f_flat: Mat::zeros(h_d, tb),
            o_flat: Mat::zeros(h_d, tb),
            g_flat: Mat::zeros(h_d, tb),
            c_flat: Mat::zeros(h_d, tb),
            cprev_flat: Mat::zeros(h_d, tb),
            steps,
            batch,
        };
        let mut h_prev = Mat::zeros(h_d, batch);
        let mut c_prev = Mat::zeros(h_d, batch);
        for t in 0..steps {
            let mut pre = match p_const {
                Some(p0) => p0.clone(),
                None => p.col_block(t * batch, (t + 1) * batch),
            };
            pre.add_mat(&w_h.matmul(&h_prev));
            pre.add_row_broadcast(&self.b);
            let mut h_t = Mat::zeros(h_d, batch);
            let mut c_t = Mat::zeros(h_d, batch);
            for j in 0..h_d {
                for s in 0..batch {
                    let i = sigmoid(pre.get(j, s));
                    let f = sigmoid(pre.get(h_d + j, s));
                    let o = sigmoid(pre.get(2 * h_d + j, s));
                    let g = pre.get(3 * h_d + j, s).tanh();
                    let cp = c_prev.get(j, s);
                    let c = f * cp + i * g;
                    *cache.i_flat.get_mut(j, t * batch + s) = i;
                    *cache.f_flat.get_mut(j, t * batch + s) = f;
                    *cache.o_flat.get_mut(j, t * batch + s) = o;
                    *cache.g_flat.get_mut(j, t * batch + s) = g;
                    *cache.cprev_flat.get_mut(j, t * batch + s) = cp;
                    *cache.c_flat.get_mut(j, t * batch + s) = c;
                    *c_t.get_mut(j, s) = c;
                    *h_t.get_mut(j, s) = o * c.tanh();
                }
            }
            cache.hprev_flat.set_col_block(t * batch, &h_prev);
            h_flat.set_col_block(t * batch, &h_t);
            h_prev = h_t;
            c_prev = c_t;
        }
        (h_flat, cache)
    }

    /// Backward pass of a batched sequence. `d_h_flat` carries the
    /// gradient flowing into every hidden state (`h × T·B`), `d_last_c`
    /// optionally injects gradient into the final cell state
    /// (`h × batch`). Weight and bias gradients are *accumulated* into
    /// `grads`; the return value is the input gradient — `in × T·B`
    /// for a [`LstmLayer::forward_seq`] cache, `in × batch` (summed
    /// over steps) for a [`LstmLayer::forward_seq_const`] cache.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn backward_seq(
        &self,
        cache: &LayerSeqCache,
        d_h_flat: &Mat,
        d_last_c: Option<&Mat>,
        grads: &mut LayerGrads,
    ) -> Mat {
        let (steps, batch) = (cache.steps, cache.batch);
        let h_d = self.hidden_dim;
        assert_eq!(d_h_flat.rows(), h_d, "gradient rows mismatch");
        assert_eq!(d_h_flat.cols(), steps * batch, "gradient layout mismatch");
        assert_eq!(grads.dw.rows(), self.w.rows(), "grad buffer mismatch");
        assert_eq!(grads.dw.cols(), self.w.cols(), "grad buffer mismatch");
        let (w_x, w_h) = self.split_weights();
        let mut dpre_flat = Mat::zeros(4 * h_d, steps * batch);
        let mut dh_next = Mat::zeros(h_d, batch);
        let mut dc_next = match d_last_c {
            Some(dc) => {
                assert_eq!(dc.rows(), h_d, "d_last_c rows mismatch");
                assert_eq!(dc.cols(), batch, "d_last_c cols mismatch");
                dc.clone()
            }
            None => Mat::zeros(h_d, batch),
        };
        for t in (0..steps).rev() {
            let mut dpre_t = Mat::zeros(4 * h_d, batch);
            let mut dc_prev = Mat::zeros(h_d, batch);
            for j in 0..h_d {
                for s in 0..batch {
                    let col = t * batch + s;
                    let dh = d_h_flat.get(j, col) + dh_next.get(j, s);
                    let i = cache.i_flat.get(j, col);
                    let f = cache.f_flat.get(j, col);
                    let o = cache.o_flat.get(j, col);
                    let g = cache.g_flat.get(j, col);
                    let c = cache.c_flat.get(j, col);
                    let cp = cache.cprev_flat.get(j, col);
                    let tanh_c = c.tanh();
                    let do_ = dh * tanh_c;
                    let dc = dc_next.get(j, s) + dh * o * (1.0 - tanh_c * tanh_c);
                    let di = dc * g;
                    let df = dc * cp;
                    let dg = dc * i;
                    *dpre_t.get_mut(j, s) = di * i * (1.0 - i);
                    *dpre_t.get_mut(h_d + j, s) = df * f * (1.0 - f);
                    *dpre_t.get_mut(2 * h_d + j, s) = do_ * o * (1.0 - o);
                    *dpre_t.get_mut(3 * h_d + j, s) = dg * (1.0 - g * g);
                    *dc_prev.get_mut(j, s) = dc * f;
                }
            }
            dpre_flat.set_col_block(t * batch, &dpre_t);
            dh_next = w_h.matmul_tn(&dpre_t);
            dc_next = dc_prev;
        }
        add_assign(&mut grads.db, &dpre_flat.row_sums());
        grads
            .dw
            .add_col_block(self.input_dim, &dpre_flat.matmul_nt(&cache.hprev_flat));
        match &cache.x {
            SeqInput::Flat(x_flat) => {
                grads.dw.add_col_block(0, &dpre_flat.matmul_nt(x_flat));
                w_x.matmul_tn(&dpre_flat)
            }
            SeqInput::Const(x0) => {
                // Constant input: both the weight and the input gradient
                // collapse over timesteps first.
                let mut dpre_sum = Mat::zeros(4 * h_d, batch);
                for t in 0..steps {
                    dpre_sum.add_mat(&dpre_flat.col_block(t * batch, (t + 1) * batch));
                }
                grads.dw.add_col_block(0, &dpre_sum.matmul_nt(x0));
                w_x.matmul_tn(&dpre_sum)
            }
        }
    }

    /// A zeroed gradient buffer shaped for this layer.
    pub fn new_grads(&self) -> LayerGrads {
        LayerGrads {
            dw: Mat::zeros(self.w.rows(), self.w.cols()),
            db: vec![0.0; self.b.len()],
        }
    }

    /// Folds an external gradient buffer into the layer's accumulated
    /// gradients (same shape as produced by [`LstmLayer::new_grads`]).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn accumulate_grads(&mut self, g: &LayerGrads) {
        self.dw.add_mat(&g.dw);
        add_assign(&mut self.db, &g.db);
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.dw.zero();
        self.db.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Applies an Adam step with the accumulated gradients.
    pub fn step(&mut self, lr: f64) {
        self.adam_w.step(self.w.data_mut(), self.dw.data(), lr);
        self.adam_b.step(&mut self.b, &self.db, lr);
    }

    /// Raw parameter access for gradient checking: `(w, b)`.
    pub fn params(&self) -> (&Mat, &[f64]) {
        (&self.w, &self.b)
    }

    /// Mutable parameter access for gradient checking.
    pub fn params_mut(&mut self) -> (&mut Mat, &mut Vec<f64>) {
        (&mut self.w, &mut self.b)
    }

    /// Raw gradient access for gradient checking: `(dw, db)`.
    pub fn grads(&self) -> (&Mat, &[f64]) {
        (&self.dw, &self.db)
    }
}

/// A stack of LSTM layers run over a sequence.
#[derive(Debug, Clone)]
pub struct Lstm {
    layers: Vec<LstmLayer>,
}

/// Caches of a full sequence forward pass (per step, per layer).
#[derive(Debug, Clone, Default)]
pub struct SeqCache {
    steps: Vec<Vec<StepCache>>,
}

/// Caches of a batched sequence forward pass (per layer).
#[derive(Debug, Clone)]
pub struct SeqBatchCache {
    layers: Vec<LayerSeqCache>,
    steps: usize,
    batch: usize,
}

impl SeqBatchCache {
    /// Steps per sequence in the cached pass.
    #[inline]
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Samples per minibatch in the cached pass.
    #[inline]
    pub fn batch(&self) -> usize {
        self.batch
    }
}

impl Lstm {
    /// Creates a stack: the first layer takes `input_dim`, each further
    /// layer takes the previous layer's hidden state.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is zero.
    pub fn new<R: Rng>(input_dim: usize, hidden_dim: usize, layers: usize, rng: &mut R) -> Self {
        assert!(layers > 0, "need at least one layer");
        let mut v = Vec::with_capacity(layers);
        v.push(LstmLayer::new(input_dim, hidden_dim, rng));
        for _ in 1..layers {
            v.push(LstmLayer::new(hidden_dim, hidden_dim, rng));
        }
        Lstm { layers: v }
    }

    /// Number of layers.
    #[inline]
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Hidden dimension.
    #[inline]
    pub fn hidden_dim(&self) -> usize {
        self.layers[0].hidden_dim()
    }

    /// The layers (for gradient checking).
    pub fn layers_mut(&mut self) -> &mut [LstmLayer] {
        &mut self.layers
    }

    /// Runs the stack over `inputs`, returning the top-layer hidden
    /// state at every step and the cache for backprop.
    pub fn forward(&self, inputs: &[Vec<f64>]) -> (Vec<Vec<f64>>, SeqCache) {
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
    pub fn backward(
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

    /// Batched forward over a packed minibatch: `x_flat` is
    /// `input_dim × (steps·batch)` (column `t·batch + s` is step `t` of
    /// sample `s`). Runs layer-major — each layer completes the whole
    /// sequence before the next starts — and returns the top layer's
    /// packed hidden states plus the cache for
    /// [`Lstm::backward_batch`].
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn forward_batch(&self, x_flat: &Mat, steps: usize, batch: usize) -> (Mat, SeqBatchCache) {
        let mut cache = SeqBatchCache {
            layers: Vec::with_capacity(self.layers.len()),
            steps,
            batch,
        };
        let mut cur = x_flat.clone();
        for layer in &self.layers {
            let (h_flat, lc) = layer.forward_seq(&cur, steps, batch);
            cache.layers.push(lc);
            cur = h_flat;
        }
        (cur, cache)
    }

    /// Batched forward where the *first* layer's input is constant
    /// across timesteps (`x0` is `input_dim × batch`) — the decoder
    /// conditioning pattern. Higher layers run in flat mode.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn forward_batch_const(&self, x0: &Mat, steps: usize) -> (Mat, SeqBatchCache) {
        let batch = x0.cols();
        let mut cache = SeqBatchCache {
            layers: Vec::with_capacity(self.layers.len()),
            steps,
            batch,
        };
        let (mut cur, lc) = self.layers[0].forward_seq_const(x0, steps);
        cache.layers.push(lc);
        for layer in &self.layers[1..] {
            let (h_flat, lc) = layer.forward_seq(&cur, steps, batch);
            cache.layers.push(lc);
            cur = h_flat;
        }
        (cur, cache)
    }

    /// Batched backward through the stack. `d_top_flat` is the loss
    /// gradient on the top layer's packed hidden states; `d_last_c`
    /// optionally injects gradient into the top layer's final cell
    /// state (`hidden × batch`). Per-layer gradients accumulate into
    /// `grads` (one buffer per layer, see [`Lstm::new_grad_buffers`]).
    /// Returns the gradient w.r.t. the first layer's input — flat for a
    /// [`Lstm::forward_batch`] cache, per-sample (`in × batch`) for a
    /// [`Lstm::forward_batch_const`] cache.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not match the layer count.
    pub fn backward_batch(
        &self,
        cache: &SeqBatchCache,
        d_top_flat: &Mat,
        d_last_c: Option<&Mat>,
        grads: &mut [LayerGrads],
    ) -> Mat {
        assert_eq!(grads.len(), self.layers.len(), "one grad buffer per layer");
        let nl = self.layers.len();
        let mut d = d_top_flat.clone();
        for l in (0..nl).rev() {
            let dc = if l == nl - 1 { d_last_c } else { None };
            d = self.layers[l].backward_seq(&cache.layers[l], &d, dc, &mut grads[l]);
        }
        d
    }

    /// Zeroed per-layer gradient buffers for [`Lstm::backward_batch`].
    pub fn new_grad_buffers(&self) -> Vec<LayerGrads> {
        self.layers.iter().map(LstmLayer::new_grads).collect()
    }

    /// Folds external per-layer gradient buffers into the stack's
    /// accumulated gradients.
    ///
    /// # Panics
    ///
    /// Panics on a layer-count mismatch.
    pub fn accumulate_grads(&mut self, grads: &[LayerGrads]) {
        assert_eq!(grads.len(), self.layers.len(), "one grad buffer per layer");
        for (l, g) in self.layers.iter_mut().zip(grads) {
            l.accumulate_grads(g);
        }
    }

    /// Clears gradients in all layers.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Adam step on all layers.
    pub fn step(&mut self, lr: f64) {
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
        for l in 0..lstm.num_layers() {
            let (w, _) = lstm.layers_mut()[l].params();
            let probe = [(0, 0), (1, 2), (w.rows() - 1, w.cols() - 1)];
            for &(r, c) in &probe {
                let analytic = lstm.layers_mut()[l].grads().0.get(r, c);
                let orig = lstm.layers_mut()[l].params().0.get(r, c);
                *lstm.layers_mut()[l].params_mut().0.get_mut(r, c) = orig + eps;
                let plus = loss_of(&lstm, &inputs);
                *lstm.layers_mut()[l].params_mut().0.get_mut(r, c) = orig - eps;
                let minus = loss_of(&lstm, &inputs);
                *lstm.layers_mut()[l].params_mut().0.get_mut(r, c) = orig;
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

    /// Packs per-sample sequences (all the same length) into the flat
    /// `dim × (T·B)` layout of the batched path.
    fn pack(seqs: &[Vec<Vec<f64>>]) -> Mat {
        let steps = seqs[0].len();
        let dim = seqs[0][0].len();
        let batch = seqs.len();
        let mut m = Mat::zeros(dim, steps * batch);
        for (s, seq) in seqs.iter().enumerate() {
            for (t, x) in seq.iter().enumerate() {
                m.set_col(t * batch + s, x);
            }
        }
        m
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "{what}[{i}]: {x} vs {y}"
            );
        }
    }

    #[test]
    fn batched_forward_matches_per_step_oracle() {
        let mut rng = StdRng::seed_from_u64(10);
        let lstm = Lstm::new(3, 5, 2, &mut rng);
        let seqs: Vec<Vec<Vec<f64>>> = (0..4)
            .map(|s| {
                (0..6)
                    .map(|t| (0..3).map(|d| ((s + t + d) as f64).sin()).collect())
                    .collect()
            })
            .collect();
        let x_flat = pack(&seqs);
        let (h_flat, _) = lstm.forward_batch(&x_flat, 6, 4);
        for (s, seq) in seqs.iter().enumerate() {
            let (top, _) = lstm.forward(seq);
            for (t, h) in top.iter().enumerate() {
                assert_close(&h_flat.col_to_vec(t * 4 + s), h, 1e-12, "h");
            }
        }
    }

    #[test]
    fn batched_backward_matches_per_step_oracle() {
        let mut rng = StdRng::seed_from_u64(11);
        let steps = 5;
        let batch = 3;
        let seqs: Vec<Vec<Vec<f64>>> = (0..batch)
            .map(|s| {
                (0..steps)
                    .map(|t| {
                        (0..2)
                            .map(|d| ((s * 7 + t * 3 + d) as f64 * 0.37).cos())
                            .collect()
                    })
                    .collect()
            })
            .collect();
        // Oracle: per-sample forward/backward, gradients summed over
        // the batch by the layer's own accumulation.
        let mut oracle = Lstm::new(2, 4, 2, &mut rng);
        let batched = oracle.clone();
        oracle.zero_grad();
        let mut d_inputs_oracle = Vec::new();
        for seq in &seqs {
            let (top, cache) = oracle.forward(seq);
            let d_top: Vec<Vec<f64>> = top
                .iter()
                .map(|h| h.iter().map(|v| v * 0.5).collect())
                .collect();
            d_inputs_oracle.push(oracle.backward(&cache, &d_top, None));
        }
        // Batched: one pass over the packed minibatch with the same
        // loss gradient (0.5·h on every hidden state).
        let x_flat = pack(&seqs);
        let (h_flat, cache) = batched.forward_batch(&x_flat, steps, batch);
        let mut d_top_flat = h_flat.clone();
        d_top_flat.scale(0.5);
        let mut grads = batched.new_grad_buffers();
        let dx_flat = batched.backward_batch(&cache, &d_top_flat, None, &mut grads);
        // Input gradients agree per sample and step.
        for (s, d_seq) in d_inputs_oracle.iter().enumerate() {
            for (t, d) in d_seq.iter().enumerate() {
                assert_close(&dx_flat.col_to_vec(t * batch + s), d, 1e-9, "dx");
            }
        }
        // Weight/bias gradients agree per layer.
        for (l, g) in grads.iter().enumerate() {
            let (dw_o, db_o) = oracle.layers_mut()[l].grads();
            assert_close(g.dw.data(), dw_o.data(), 1e-9, "dw");
            assert_close(&g.db, db_o, 1e-9, "db");
        }
    }

    #[test]
    fn batched_const_input_matches_repeated_input() {
        // forward_batch_const must agree with forward_batch fed the
        // same vector at every step, and its backward must return the
        // step-summed input gradient.
        let mut rng = StdRng::seed_from_u64(12);
        let lstm = Lstm::new(4, 3, 2, &mut rng);
        let steps = 4;
        let batch = 2;
        let x0 = {
            let mut m = Mat::zeros(4, batch);
            m.set_col(0, &[0.3, -0.2, 0.8, 0.1]);
            m.set_col(1, &[-0.6, 0.4, 0.0, 0.9]);
            m
        };
        let mut x_flat = Mat::zeros(4, steps * batch);
        for t in 0..steps {
            x_flat.set_col_block(t * batch, &x0);
        }
        let (h_const, cache_const) = lstm.forward_batch_const(&x0, steps);
        let (h_flat, cache_flat) = lstm.forward_batch(&x_flat, steps, batch);
        assert_close(h_const.data(), h_flat.data(), 1e-12, "h_const");

        let d_top = h_flat.clone();
        let mut g_const = lstm.new_grad_buffers();
        let mut g_flat = lstm.new_grad_buffers();
        let dx0 = lstm.backward_batch(&cache_const, &d_top, None, &mut g_const);
        let dx_flat = lstm.backward_batch(&cache_flat, &d_top, None, &mut g_flat);
        for l in 0..lstm.num_layers() {
            assert_close(g_const[l].dw.data(), g_flat[l].dw.data(), 1e-9, "dw");
            assert_close(&g_const[l].db, &g_flat[l].db, 1e-9, "db");
        }
        // dx0 equals the flat input gradient summed over steps.
        for s in 0..batch {
            let mut want = vec![0.0; 4];
            for t in 0..steps {
                add_assign(&mut want, &dx_flat.col_to_vec(t * batch + s));
            }
            assert_close(&dx0.col_to_vec(s), &want, 1e-9, "dx0");
        }
    }

    #[test]
    fn external_grads_fold_into_layer_accumulators() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut lstm = Lstm::new(2, 3, 1, &mut rng);
        let mut bufs = lstm.new_grad_buffers();
        *bufs[0].dw.get_mut(0, 0) = 2.5;
        bufs[0].db[1] = -1.0;
        lstm.zero_grad();
        lstm.accumulate_grads(&bufs);
        lstm.accumulate_grads(&bufs);
        let (dw, db) = lstm.layers_mut()[0].grads();
        assert_eq!(dw.get(0, 0), 5.0);
        assert_eq!(db[1], -2.0);
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
