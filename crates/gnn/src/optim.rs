//! Optimisers for full-batch GNN training.

use crate::matrix::Matrix;

/// Adam optimiser with decoupled weight decay (AdamW-style).
///
/// One [`Adam`] instance owns the first/second-moment state for a fixed set
/// of parameters, identified by their position in the slice passed to
/// [`Adam::step`] — always pass parameters in the same order.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
    b1t: f32,
    b2t: f32,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Creates an optimiser with the given learning rate and default betas
    /// `(0.9, 0.999)`.
    #[must_use]
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            b1t: 0.0,
            b2t: 0.0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Learning rate accessor.
    #[must_use]
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Begins an update step: advances the timestep and caches the bias
    /// corrections. Call once, then [`Adam::update_param`] for every
    /// parameter in the canonical order.
    pub fn begin_step(&mut self) {
        self.t += 1;
        self.b1t = 1.0 - self.beta1.powi(self.t as i32);
        self.b2t = 1.0 - self.beta2.powi(self.t as i32);
    }

    /// Updates one parameter in place. `idx` identifies the parameter's
    /// position in the canonical order; moment state is created lazily on
    /// the first step. Allocation-free after the first step.
    ///
    /// # Panics
    ///
    /// Panics if `idx` skips ahead of the known parameter set or the shape
    /// changed between steps.
    pub fn update_param(&mut self, idx: usize, p: &mut Matrix, g: &Matrix) {
        assert_eq!((p.rows(), p.cols()), (g.rows(), g.cols()), "shape changed");
        if idx == self.m.len() {
            self.m.push(Matrix::zeros(g.rows(), g.cols()));
            self.v.push(Matrix::zeros(g.rows(), g.cols()));
        }
        assert!(idx < self.m.len(), "parameter set changed between steps");
        let m = &mut self.m[idx];
        let v = &mut self.v[idx];
        let pd = p.data_mut();
        let gd = g.data();
        let md = m.data_mut();
        let vd = v.data_mut();
        for i in 0..pd.len() {
            md[i] = self.beta1 * md[i] + (1.0 - self.beta1) * gd[i];
            vd[i] = self.beta2 * vd[i] + (1.0 - self.beta2) * gd[i] * gd[i];
            let mhat = md[i] / self.b1t;
            let vhat = vd[i] / self.b2t;
            pd[i] -= self.lr * (mhat / (vhat.sqrt() + self.eps) + self.weight_decay * pd[i]);
        }
    }

    /// Number of update steps taken so far.
    #[must_use]
    pub fn timestep(&self) -> u64 {
        self.t
    }

    /// The first/second-moment matrices in canonical parameter order
    /// (empty before the first step).
    #[must_use]
    pub fn moments(&self) -> (&[Matrix], &[Matrix]) {
        (&self.m, &self.v)
    }

    /// Restores the optimiser to a previously captured state: timestep
    /// plus both moment vectors. Bias corrections are recomputed from `t`,
    /// so an update sequence resumed here is bit-identical to one that
    /// never stopped.
    ///
    /// # Panics
    ///
    /// Panics if the two moment vectors disagree in length.
    pub fn restore_state(&mut self, t: u64, m: Vec<Matrix>, v: Vec<Matrix>) {
        assert_eq!(m.len(), v.len(), "moment vector count mismatch");
        self.t = t;
        if t > 0 {
            self.b1t = 1.0 - self.beta1.powi(t as i32);
            self.b2t = 1.0 - self.beta2.powi(t as i32);
        } else {
            self.b1t = 0.0;
            self.b2t = 0.0;
        }
        self.m = m;
        self.v = v;
    }

    /// Applies one update step.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()`, or if shapes change between
    /// steps.
    pub fn step(&mut self, params: &mut [&mut Matrix], grads: &[Matrix]) {
        assert_eq!(params.len(), grads.len(), "param/grad count mismatch");
        if !self.m.is_empty() {
            assert_eq!(self.m.len(), params.len(), "parameter set changed between steps");
        }
        self.begin_step();
        for (idx, (p, g)) in params.iter_mut().zip(grads).enumerate() {
            self.update_param(idx, p, g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gradient `f` applied element-wise to `x`.
    fn grad_of(x: &Matrix, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix::from_vec(x.rows(), x.cols(), x.data().iter().map(|&v| f(v)).collect())
    }

    #[test]
    fn adam_minimises_quadratic() {
        // minimise f(x) = (x - 3)^2 elementwise
        let mut x = Matrix::from_vec(1, 2, vec![0.0, 10.0]);
        let mut opt = Adam::new(0.1, 0.0);
        for _ in 0..500 {
            let grad = grad_of(&x, |v| 2.0 * (v - 3.0));
            opt.step(&mut [&mut x], &[grad]);
        }
        for &v in x.data() {
            assert!((v - 3.0).abs() < 1e-2, "converged to {v}");
        }
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut x = Matrix::from_vec(1, 1, vec![5.0]);
        let mut opt = Adam::new(0.01, 0.5);
        for _ in 0..2000 {
            let grad = Matrix::zeros(1, 1);
            opt.step(&mut [&mut x], &[grad]);
        }
        assert!(x.at(0, 0).abs() < 0.5, "decayed to {}", x.at(0, 0));
    }

    #[test]
    #[should_panic(expected = "param/grad count mismatch")]
    fn step_validates_counts() {
        let mut x = Matrix::zeros(1, 1);
        let mut opt = Adam::new(0.1, 0.0);
        opt.step(&mut [&mut x], &[]);
    }

    #[test]
    fn multiple_params_updated_independently() {
        let mut a = Matrix::from_vec(1, 1, vec![1.0]);
        let mut b = Matrix::from_vec(1, 1, vec![-1.0]);
        let mut opt = Adam::new(0.05, 0.0);
        for _ in 0..300 {
            let ga = grad_of(&a, |v| 2.0 * v); // -> 0
            let gb = grad_of(&b, |v| 2.0 * (v + 2.0)); // -> -2
            opt.step(&mut [&mut a, &mut b], &[ga, gb]);
        }
        assert!(a.at(0, 0).abs() < 1e-2);
        assert!((b.at(0, 0) + 2.0).abs() < 1e-2);
    }
}
