//! A literal, serial transcription of the paper's Algorithm 1, used as the
//! oracle the production `DropBack` rule is checked against step by step
//! (see `tests/dropback_reference.rs`).
//!
//! It keeps none of the production rule's shortcuts: no worker pool, no
//! sharded top-k, no eviction-only regeneration. Every step it scores every
//! weight, selects with the serial `top_k_mask`, updates the tracked set
//! and writes every untracked weight back to its origin (its
//! initialization value, or zero under the zeroed-untracked ablation).

use dropback::nn::ParamStore;
use dropback::optim::top_k_mask;

/// Algorithm 1 with the same knobs as the production rule.
pub struct ReferenceDropBack {
    k: usize,
    /// Freeze at the end of the epoch where `epoch + 1 >= freeze_after`.
    freeze_after: Option<usize>,
    frozen: bool,
    /// The §2.1 ablation: untracked weights sit at zero, not at init.
    zero_untracked: bool,
    mask: Vec<bool>,
}

impl ReferenceDropBack {
    /// Tracks the `k` highest-scoring weights.
    pub fn new(k: usize, freeze_after: Option<usize>, zero_untracked: bool) -> Self {
        Self {
            k,
            freeze_after,
            frozen: false,
            zero_untracked,
            mask: Vec::new(),
        }
    }

    /// The tracked mask (empty before the first step).
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// `W(0)[i]`, or zero under the ablation.
    fn origin(&self, ps: &ParamStore, i: usize) -> f32 {
        if self.zero_untracked {
            0.0
        } else {
            ps.init_value(i)
        }
    }

    /// One iteration of Algorithm 1 on the gradients in `ps`.
    pub fn step(&mut self, ps: &mut ParamStore, lr: f32) {
        let n = ps.len();
        if self.mask.len() != n {
            self.mask = vec![false; n];
        }
        if !self.frozen {
            // S: a tracked weight scores its accumulated update |W - W(0)|,
            // an untracked one the update it would take, |lr * g|.
            let scores: Vec<f32> = (0..n)
                .map(|i| {
                    if self.mask[i] {
                        (ps.params()[i] - self.origin(ps, i)).abs()
                    } else {
                        (lr * ps.grads()[i]).abs()
                    }
                })
                .collect();
            // λ = S_k; the top k (lowest index first on ties) are tracked.
            self.mask = top_k_mask(&scores, self.k);
        }
        for i in 0..n {
            let w = if self.mask[i] {
                ps.params()[i] - lr * ps.grads()[i]
            } else {
                self.origin(ps, i)
            };
            ps.params_mut()[i] = w;
        }
    }

    /// Epoch boundary: freezes the tracked set when configured to.
    pub fn end_epoch(&mut self, epoch: usize) {
        if self.freeze_after.is_some_and(|fe| epoch + 1 >= fe) {
            self.frozen = true;
        }
    }
}
