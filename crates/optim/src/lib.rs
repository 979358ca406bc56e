//! Optimizers for the DropBack reproduction: the paper's contribution
//! ([`DropBack`]) and the baselines it is evaluated against.
//!
//! * [`Sgd`] — plain stochastic gradient descent without momentum (the
//!   paper's baseline; "all other optimization strategies cost significant
//!   extra memory").
//! * [`DropBack`] — continuous pruning during training: only the `k`
//!   weights with the highest *accumulated* gradients are stored and
//!   updated; every other weight is regenerated to its initialization value
//!   on access. After a freeze epoch the tracked set is fixed.
//! * [`MagnitudePruning`] — keep-highest-|w| pruning applied every
//!   iteration (the paper's "straightforward magnitude-based pruning").
//! * [`NetworkSlimming`] — L1 on batch-norm scales, channel thresholding,
//!   and masked fine-tuning (Liu et al. 2017), the train-prune-retrain
//!   baseline.
//! * Variational dropout is layer-level (see
//!   [`dropback_nn::VarDropLinear`]); [`KlAnneal`] here provides the KL
//!   annealing schedule its training loop uses.
//! * [`LrSchedule`] — the paper's exponentially-decaying learning rates.

#![deny(missing_docs)]

mod dropback;
mod gradual;
mod magnitude;
mod momentum;
mod quant;
mod schedule;
mod sgd;
mod slim;
mod state;
mod topk;
mod vd;

pub use dropback::DropBack;
pub use gradual::GradualMagnitudePruning;
pub use magnitude::MagnitudePruning;
pub use momentum::{Adam, SgdMomentum};
pub use quant::{Quantized, Quantizer};
pub use schedule::LrSchedule;
pub use sgd::Sgd;
pub use slim::NetworkSlimming;
pub use state::{OptState, StateError, StateField};
pub use topk::{top_k_mask, top_k_mask_sharded};
pub use vd::KlAnneal;

/// Retired name for [`DropBack`], kept only because the benchmark package
/// (`benchmark/src/train.rs`) still names it; no workspace code uses it.
pub type SparseDropBack = DropBack;

use dropback_nn::ParamStore;

/// A training-rule: consumes the gradients accumulated in a [`ParamStore`]
/// and updates its parameters.
pub trait Optimizer {
    /// Applies one update step with learning rate `lr`.
    fn step(&mut self, ps: &mut ParamStore, lr: f32);

    /// Hook called at the end of each epoch (freezing, pruning phases, ...).
    fn end_epoch(&mut self, _epoch: usize, _ps: &mut ParamStore) {}

    /// Human-readable name for reports.
    fn name(&self) -> &str;

    /// Number of weights this rule actually needs to store
    /// (`None` = all of them).
    fn stored_weights(&self, ps: &ParamStore) -> usize {
        ps.len()
    }

    /// The rule's tracked mask, one flag per parameter, when it keeps one
    /// (`None` = every weight is stored). Wrappers that rewrite weights
    /// after a step, like [`Quantized`], touch only tracked entries, so
    /// they never move an untracked weight off its init.
    fn tracked_mask(&self) -> Option<&[bool]> {
        None
    }

    /// Per-epoch scalar metrics for telemetry, as `(name, value)` pairs.
    /// Read by the trainer after [`Optimizer::end_epoch`]; the default
    /// reports nothing. DropBack rules report `tracked_k`, `churn` (weights
    /// that entered the tracked set during the finished epoch), and
    /// `frozen`.
    fn metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Captures the optimizer's mutable state (accumulators, counters,
    /// tracked sets) for a resumable checkpoint. The default snapshot is
    /// empty — correct for stateless rules like [`Sgd`]. Stateful rules
    /// must capture *everything* their next [`Optimizer::step`] reads, or
    /// a resumed run diverges from an uninterrupted one.
    fn snapshot_state(&self) -> OptState {
        OptState::new(self.name())
    }

    /// Restores state captured by [`Optimizer::snapshot_state`] into a
    /// freshly-constructed optimizer with identical configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] if the snapshot came from a different
    /// optimizer, a required field is missing or mis-shaped, or a
    /// configuration value (budget, freeze epoch, momentum) disagrees with
    /// the constructed optimizer.
    fn restore_state(&mut self, state: &OptState) -> Result<(), StateError> {
        state.expect_name(self.name())
    }
}
