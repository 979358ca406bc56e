//! From snapshot to servable model, and the slot requests read it from.
//!
//! A `DROPBKv2` snapshot carries `(model name, init seed, k tracked
//! entries)`. [`ServingModel::from_state`] rebuilds the architecture from
//! the model zoo, keys the tracked entries by global index, and hands
//! both to [`dropback::StreamingModel`] — every untracked weight is
//! regenerated from `regen(seed, index)` at evaluation time, so the
//! server's resident weight state is exactly the paper's deployment
//! artifact, never a dense matrix.
//!
//! [`ModelSlot`] is the hot-swap point: requests clone out an
//! `Arc<ServingModel>` and evaluate against that pinned instance, so a
//! concurrent [`ModelSlot::swap`] never changes a request mid-flight —
//! in-flight work finishes on the old model, later requests see the new
//! one.

use crate::error::ServeError;
use crate::rt::Swap;
use dropback::{CheckpointError, StreamStats, StreamingModel, TrainState};
use dropback_nn::{models, Network};
use dropback_tensor::Tensor;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Architectures with a streaming-inference path, by zoo name.
fn build_network(name: &str, seed: u64) -> Option<Network> {
    match name {
        "mnist-100-100" => Some(models::mnist_100_100(seed)),
        "lenet-300-100" => Some(models::lenet_300_100(seed)),
        _ => None,
    }
}

/// One immutable, fully-loaded model generation.
#[derive(Debug, Clone)]
pub struct ServingModel {
    name: String,
    epoch: usize,
    source: PathBuf,
    entries: usize,
    stream: StreamingModel,
}

impl ServingModel {
    /// Builds a servable model from a loaded snapshot. `source` is the
    /// snapshot path the state came from (shown in `/healthz` and logs).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnsupportedModel`] for architectures outside the
    /// streaming MLP zoo, [`ServeError::Checkpoint`] if an entry indexes
    /// past the parameter store, [`ServeError::Stream`] if the evaluator
    /// rejects the parameter layout.
    pub fn from_state(state: &TrainState, source: impl Into<PathBuf>) -> Result<Self, ServeError> {
        let net = build_network(&state.model, state.init_seed)
            .ok_or_else(|| ServeError::UnsupportedModel(state.model.clone()))?;
        let n = net.num_params();
        let mut tracked = BTreeMap::new();
        for &(i, v) in &state.entries {
            if i as usize >= n {
                return Err(ServeError::Checkpoint(CheckpointError::IndexOutOfRange {
                    index: i,
                    len: n,
                }));
            }
            tracked.insert(i as usize, v);
        }
        let entries = tracked.len();
        let stream = StreamingModel::new(net.store(), &tracked)?;
        Ok(Self {
            name: state.model.clone(),
            epoch: state.progress.next_epoch,
            source: source.into(),
            entries,
            stream,
        })
    }

    /// Zoo name of the architecture being served.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Training epoch the snapshot was taken after (its generation id).
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// Snapshot file this generation was loaded from.
    pub fn source(&self) -> &Path {
        &self.source
    }

    /// Number of stored (tracked) weight entries — the `k` of the paper.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Input feature width requests must supply.
    pub fn in_dim(&self) -> usize {
        self.stream.in_dim()
    }

    /// Logit width of responses.
    pub fn out_dim(&self) -> usize {
        self.stream.out_dim()
    }

    /// Batched forward over `x: [n, in_dim]` on the worker pool.
    ///
    /// # Errors
    ///
    /// [`ServeError::Stream`] if `x` has the wrong shape.
    pub fn infer(&self, x: &Tensor) -> Result<(Tensor, StreamStats), ServeError> {
        Ok(self.stream.forward(x)?)
    }
}

/// The single mutable cell of the whole server: which model generation
/// new requests see.
#[derive(Debug)]
pub struct ModelSlot {
    cur: Swap<ServingModel>,
}

impl ModelSlot {
    /// A slot serving `model`.
    pub fn new(model: ServingModel) -> Self {
        Self {
            cur: Swap::new(model),
        }
    }

    /// The current generation, pinned: the returned `Arc` keeps serving
    /// this exact model even if a swap lands immediately after.
    pub fn get(&self) -> Arc<ServingModel> {
        self.cur.get()
    }

    /// Atomically replaces the served generation, returning the old one.
    pub fn swap(&self, model: Arc<ServingModel>) -> Arc<ServingModel> {
        self.cur.swap(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dropback::{TrainProgress, TrainState};
    use dropback_optim::{DropBack, Optimizer};

    pub(crate) fn state_at(epoch: usize, seed: u64) -> TrainState {
        let mut net = models::mnist_100_100(seed);
        let mut opt = DropBack::new(400);
        opt.step(net.store_mut(), 0.0);
        for i in 0..32 {
            net.store_mut().params_mut()[i * 97] = epoch as f32 * 0.25 + i as f32 * 0.01;
        }
        let progress = TrainProgress {
            next_epoch: epoch,
            ..TrainProgress::fresh()
        };
        TrainState::capture(&net, &opt, 0x5EED, &progress)
    }

    #[test]
    fn snapshot_reconstructs_to_the_exact_trained_params() {
        let state = state_at(3, 77);
        let model = ServingModel::from_state(&state, "/tmp/state-00000003.dbk2").unwrap();
        assert_eq!(model.name(), "mnist-100-100");
        assert_eq!(model.epoch(), 3);
        assert_eq!(model.in_dim(), 784);
        assert_eq!(model.out_dim(), 10);
        assert!(model.entries() >= 32);

        // The served forward must be bit-identical to streaming inference
        // straight off the snapshot's entries.
        let x = Tensor::filled(vec![2, 784], 0.03);
        let (served, _) = model.infer(&x).unwrap();
        let net = models::mnist_100_100(77);
        let tracked: BTreeMap<usize, f32> = state
            .entries
            .iter()
            .map(|&(i, v)| (i as usize, v))
            .collect();
        let (direct, _) = dropback::stream_mlp_forward(net.store(), &tracked, &x).unwrap();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&served), bits(&direct));
    }

    #[test]
    fn conv_architectures_are_rejected_with_guidance() {
        let mut state = state_at(1, 5);
        state.model = "vgg-s-nano".into();
        let err = ServingModel::from_state(&state, "/tmp/x").unwrap_err();
        assert!(matches!(err, ServeError::UnsupportedModel(_)));
        assert!(err.to_string().contains("lenet-300-100"));
    }

    #[test]
    fn out_of_range_entries_are_a_checkpoint_error() {
        let mut state = state_at(1, 5);
        state.entries.push((10_000_000, 1.0));
        let err = ServingModel::from_state(&state, "/tmp/x").unwrap_err();
        assert!(matches!(err, ServeError::Checkpoint(_)));
    }

    #[test]
    fn slot_pins_in_flight_generations_across_a_swap() {
        let slot = ModelSlot::new(ServingModel::from_state(&state_at(1, 9), "/a").unwrap());
        let pinned = slot.get();
        assert_eq!(pinned.epoch(), 1);
        let old = slot.swap(Arc::new(
            ServingModel::from_state(&state_at(2, 9), "/b").unwrap(),
        ));
        assert_eq!(old.epoch(), 1);
        // The pinned Arc still evaluates the old generation...
        assert_eq!(pinned.epoch(), 1);
        // ...while new readers see the new one.
        assert_eq!(slot.get().epoch(), 2);
    }
}
