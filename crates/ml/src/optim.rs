//! The Adam optimizer (Kingma & Ba), per-tensor state.

/// Adam state for one parameter tensor.
#[derive(Debug, Clone)]
pub(crate) struct Adam {
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
    beta1: f64,
    beta2: f64,
    eps: f64,
}

impl Adam {
    /// Creates optimizer state for a tensor of `len` parameters with the
    /// standard β₁ = 0.9, β₂ = 0.999.
    pub(crate) fn new(len: usize) -> Self {
        Adam {
            m: vec![0.0; len],
            v: vec![0.0; len],
            t: 0,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// Applies one update: `param -= lr * m̂ / (√v̂ + ε)`.
    ///
    /// # Panics
    ///
    /// Panics if `param` / `grad` lengths differ from the state.
    pub(crate) fn step(&mut self, param: &mut [f64], grad: &[f64], lr: f64) {
        assert_eq!(param.len(), self.m.len(), "parameter length mismatch");
        assert_eq!(grad.len(), self.m.len(), "gradient length mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..param.len() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grad[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
            let mhat = self.m[i] / b1t;
            let vhat = self.v[i] / b2t;
            param[i] -= lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_a_quadratic() {
        // f(x) = (x - 3)^2; df = 2(x - 3).
        let mut x = vec![0.0];
        let mut adam = Adam::new(1);
        for _ in 0..2000 {
            let g = vec![2.0 * (x[0] - 3.0)];
            adam.step(&mut x, &g, 0.01);
        }
        assert!((x[0] - 3.0).abs() < 1e-3, "converged to {}", x[0]);
    }

    #[test]
    fn first_step_size_is_about_lr() {
        // Bias correction makes the first Adam step ≈ lr * sign(grad).
        let mut x = vec![0.0];
        let mut adam = Adam::new(1);
        adam.step(&mut x, &[123.0], 0.001);
        assert!((x[0] + 0.001).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn checks_lengths() {
        let mut adam = Adam::new(2);
        adam.step(&mut [0.0], &[1.0], 0.1);
    }
}
