//! The Adam optimizer over a [`ParamStore`].
//!
//! It exploits the store's lazy gradients and active-row tracking: a
//! parameter whose gradient was never allocated is skipped outright, and
//! only rows that have ever received gradient mass are updated. Skipped
//! work is provably a bitwise no-op — an untouched row has
//! `g = m = v = 0`, so the dense update would compute
//! `x -= lr * (+0.0) / (sqrt(+0.0) + eps) = x - (+0.0)`, which leaves
//! every `f32` (including `-0.0`) unchanged, and would store `m` and `v`
//! back as `+0.0`, their existing value.

use crate::tape::ParamStore;
use crate::tensor::Tensor;

/// Adam (Kingma & Ba) with bias correction and optional per-tensor L2
/// gradient clipping.
#[derive(Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    /// Per-tensor L2 clip threshold (`None` disables clipping). When set,
    /// the *gradient* is rescaled before it enters the moment estimates,
    /// so one divergent batch cannot poison `m`/`v` for later steps.
    pub clip: Option<f32>,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with standard hyperparameters (β₁=0.9, β₂=0.999, ε=1e-8) and
    /// no clipping.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip: None,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Adam with per-tensor gradient-norm clipping.
    pub fn with_clip(lr: f32, clip: f32) -> Self {
        Self {
            clip: Some(clip),
            ..Self::new(lr)
        }
    }

    /// The dense Adam update over `data[ks]`, reading gradients from
    /// `gdata` at the same indices, pre-scaled by `gscale` (1.0 when
    /// clipping is off or the norm is under the threshold — an exact
    /// bitwise no-op on the gradient).
    #[allow(clippy::too_many_arguments)]
    fn apply_range(
        &self,
        ks: std::ops::Range<usize>,
        gdata: &[f32],
        gscale: f32,
        m: &mut Tensor,
        v: &mut Tensor,
        value: &mut Tensor,
        bc1: f32,
        bc2: f32,
    ) {
        for k in ks {
            let g = gdata[k] * gscale;
            let mk = self.beta1 * m.data()[k] + (1.0 - self.beta1) * g;
            let vk = self.beta2 * v.data()[k] + (1.0 - self.beta2) * g * g;
            m.data_mut()[k] = mk;
            v.data_mut()[k] = vk;
            let mhat = mk / bc1;
            let vhat = vk / bc2;
            value.data_mut()[k] -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }

    /// Applies one update step using the gradients currently accumulated
    /// in `store`, then zeroes them.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let t = self.t as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (lr, beta1, beta2, eps, clip) = (self.lr, self.beta1, self.beta2, self.eps, self.clip);
        for (i, (value, grad, active)) in store.updates_mut().enumerate() {
            if self.m.len() <= i {
                self.m.push(Tensor::zeros(value.rows(), value.cols()));
                self.v.push(Tensor::zeros(value.rows(), value.cols()));
            }
            // Never-touched parameter: g = m = v = 0 everywhere, update is
            // a bitwise no-op (see module docs).
            let Some(grad) = grad else {
                continue;
            };
            let (m, v) = (&mut self.m[i], &mut self.v[i]);
            let cols = value.cols();
            // Per-tensor clip scale. Rows outside the ever-active set hold
            // zero gradient, so summing squares over active rows alone
            // yields the same norm as a dense scan — active-rows-aware
            // without a correctness gap.
            let gscale = match clip {
                Some(c) => {
                    let gd = grad.data();
                    let ss: f32 = if active.is_all() {
                        gd.iter().map(|g| g * g).sum()
                    } else {
                        active
                            .rows()
                            .iter()
                            .flat_map(|&r| &gd[r as usize * cols..(r as usize + 1) * cols])
                            .map(|g| g * g)
                            .sum()
                    };
                    let n = ss.sqrt();
                    if n > c {
                        c / n
                    } else {
                        1.0
                    }
                }
                None => 1.0,
            };
            let step = Adam {
                lr,
                beta1,
                beta2,
                eps,
                clip,
                t: 0,
                m: Vec::new(),
                v: Vec::new(),
            };
            if active.is_all() {
                step.apply_range(0..value.len(), grad.data(), gscale, m, v, value, bc1, bc2);
                grad.zero();
            } else {
                // Rows outside the ever-active set have g = m = v = 0 for
                // every step so far: skipping them is bitwise identical to
                // the dense scan. Rows *in* the set may have zero gradient
                // this step but nonzero moments — those must still decay.
                for &r in active.rows() {
                    let ks = r as usize * cols..(r as usize + 1) * cols;
                    step.apply_range(ks.clone(), grad.data(), gscale, m, v, value, bc1, bc2);
                    grad.data_mut()[ks].iter_mut().for_each(|g| *g = 0.0);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{Init, Tape};
    use crate::tensor::Tensor;

    fn quadratic_loss(store: &mut ParamStore, p: crate::tape::ParamId) -> f32 {
        // loss = BCE(w·x, 1): minimized by pushing w·x up.
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_rows(vec![vec![1.0, -1.0]]));
        let w = tape.param(store, p);
        let z = tape.matmul(x, w);
        let loss = tape.bce_with_logits(z, &[1.0]);
        let out = tape.value(loss).data()[0];
        tape.backward(loss, store);
        out
    }

    #[test]
    fn adam_descends() {
        let mut store = ParamStore::new(1);
        let p = store.tensor("w", 2, 1, Init::Xavier);
        let mut opt = Adam::new(0.05);
        let first = quadratic_loss(&mut store, p);
        opt.step(&mut store);
        for _ in 0..30 {
            quadratic_loss(&mut store, p);
            opt.step(&mut store);
        }
        store.zero_grads();
        let last = quadratic_loss(&mut store, p);
        assert!(last < first * 0.5, "{last} !< half of {first}");
    }

    #[test]
    fn adam_clipping_bounds_update() {
        let mut store = ParamStore::new(6);
        let p = store.tensor("w", 1, 1, Init::Zeros);
        // Manually set a huge gradient.
        store.zero_grads();
        {
            let mut tape = Tape::new();
            let x = tape.constant(Tensor::from_vec(1, 1, vec![1000.0]));
            let w = tape.param(&store, p);
            let z = tape.matmul(x, w);
            let loss = tape.bce_with_logits(z, &[1.0]);
            tape.backward(loss, &mut store);
        }
        let before = store.value(p).data()[0];
        let mut opt = Adam::with_clip(0.05, 0.1);
        opt.step(&mut store);
        let delta = (store.value(p).data()[0] - before).abs();
        assert!(delta <= 0.05 + 1e-6, "clipped adam step was {delta}");
    }

    #[test]
    fn adam_clip_engages_only_above_threshold() {
        // Two steps with very different gradient magnitudes. A threshold
        // the norm never reaches must be a bitwise no-op versus no clip
        // (`g * 1.0` is exact); a small threshold caps the huge step's
        // contribution to the moments and diverges from the unclipped run.
        let run = |clip: Option<f32>| {
            let mut store = ParamStore::new(7);
            let p = store.tensor("w", 1, 1, Init::Zeros);
            let mut opt = match clip {
                Some(c) => Adam::with_clip(0.05, c),
                None => Adam::new(0.05),
            };
            for scale in [1000.0f32, 0.5] {
                let mut tape = Tape::new();
                let x = tape.constant(Tensor::from_vec(1, 1, vec![scale]));
                let w = tape.param(&store, p);
                let z = tape.matmul(x, w);
                let loss = tape.bce_with_logits(z, &[1.0]);
                tape.backward(loss, &mut store);
                opt.step(&mut store);
            }
            store.value(p).data()[0]
        };
        let unclipped = run(None);
        let inert = run(Some(f32::MAX));
        let clipped = run(Some(0.1));
        assert_eq!(
            unclipped.to_bits(),
            inert.to_bits(),
            "unengaged clip must stay bit-identical"
        );
        assert_ne!(
            unclipped.to_bits(),
            clipped.to_bits(),
            "engaged clip must change the trajectory"
        );
    }

    #[test]
    fn adam_clip_sparse_rows_match_dense_scan() {
        // Same sparse-vs-dense equivalence as
        // `adam_sparse_rows_match_dense_scan`, with clipping engaged: the
        // active-rows norm must equal the dense norm (inactive rows hold
        // zero gradient), so the clipped updates agree bitwise too.
        let gather_loss = |store: &mut ParamStore, p: crate::tape::ParamId| {
            let mut tape = Tape::new();
            let rows = tape.gather(store, p, &[1, 4, 1]);
            let pooled = tape.max_pool(rows);
            let loss = tape.bce_with_logits(pooled, &[1.0, 0.0, 1.0]);
            tape.backward(loss, store);
        };
        let mut store = ParamStore::new(8);
        let p = store.tensor("emb", 6, 3, Init::Uniform(0.5));
        let mut opt = Adam::with_clip(0.01, 0.05);
        for _ in 0..5 {
            gather_loss(&mut store, p);
            opt.step(&mut store);
        }
        let mut dense = ParamStore::new(8);
        let q = dense.tensor("emb", 6, 3, Init::Uniform(0.5));
        let mut dopt = Adam::with_clip(0.01, 0.05);
        for _ in 0..5 {
            gather_loss(&mut dense, q);
            let mut tape = Tape::new();
            let w = tape.param(&dense, q);
            let s = tape.scale(w, 0.0);
            let pooled = tape.max_pool(s);
            let extra = tape.bce_with_logits(pooled, &[0.5, 0.5, 0.5]);
            tape.backward(extra, &mut dense);
            dopt.step(&mut dense);
        }
        for (a, b) in store.value(p).data().iter().zip(dense.value(q).data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "clipped sparse vs dense drift");
        }
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut store = ParamStore::new(4);
        let p = store.tensor("w", 2, 1, Init::Xavier);
        quadratic_loss(&mut store, p);
        assert!(store.grad(p).norm() > 0.0);
        Adam::new(0.1).step(&mut store);
        assert_eq!(store.grad(p).norm(), 0.0);
    }

    #[test]
    fn adam_sparse_rows_match_dense_scan() {
        // Gather-only access: the active-row Adam path must produce exactly
        // the same parameters as a reference dense scan over all rows.
        let gather_loss = |store: &mut ParamStore, p: crate::tape::ParamId| {
            let mut tape = Tape::new();
            let rows = tape.gather(store, p, &[1, 4, 1]);
            let pooled = tape.max_pool(rows);
            let loss = tape.bce_with_logits(pooled, &[1.0, 0.0, 1.0]);
            tape.backward(loss, store);
        };
        // Optimized run.
        let mut store = ParamStore::new(5);
        let p = store.tensor("emb", 6, 3, Init::Uniform(0.5));
        let mut opt = Adam::new(0.01);
        for _ in 0..5 {
            gather_loss(&mut store, p);
            opt.step(&mut store);
        }
        // Reference: same graph, but force a dense parameter read as well
        // so every row is active and the dense branch runs.
        let mut dense = ParamStore::new(5);
        let q = dense.tensor("emb", 6, 3, Init::Uniform(0.5));
        let mut dopt = Adam::new(0.01);
        for _ in 0..5 {
            gather_loss(&mut dense, q);
            // Densify the active set without adding gradient mass.
            let mut tape = Tape::new();
            let w = tape.param(&dense, q);
            let s = tape.scale(w, 0.0);
            let pooled = tape.max_pool(s);
            let extra = tape.bce_with_logits(pooled, &[0.5, 0.5, 0.5]);
            // d(loss)/dw through scale(0) is exactly 0 everywhere.
            tape.backward(extra, &mut dense);
            dopt.step(&mut dense);
        }
        // The scale-by-zero side graph adds zero gradient, so values from
        // the sparse and dense paths must agree bitwise.
        for (a, b) in store.value(p).data().iter().zip(dense.value(q).data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "sparse vs dense Adam drift");
        }
    }
}
