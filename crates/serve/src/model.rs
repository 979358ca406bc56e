//! From snapshot to servable model, and the slot requests read it from.
//!
//! A `DROPBKv2` snapshot carries `(model name, init seed, k stored
//! entries)` — the paper's deployment artifact, and what stays on disk.
//! [`ServingModel::from_state`] densifies it once per generation, off the
//! request path: it builds the zoo network (whose parameters start at
//! `regen(seed, index)`), writes the k entries over them with
//! [`dropback::Checkpoint::overlay`] (the overlay `Checkpoint::apply`
//! runs), and frees the gradient buffer. Every batch then runs the same
//! packed-GEMM `Network::forward` that training uses.
//!
//! [`ModelSlot`] is the hot-swap point: requests clone out an
//! `Arc<ServingModel>` and evaluate against that pinned instance, so a
//! concurrent [`ModelSlot::swap`] never changes a request mid-flight —
//! in-flight work finishes on the old model, later requests see the new
//! one.

use crate::error::ServeError;
use crate::rt::{Monitor, Swap};
use dropback::{Checkpoint, TrainState};
use dropback_nn::{models, Mode, Network};
use dropback_telemetry::Collector;
use dropback_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Servable architectures by zoo name, with their input and logit widths.
fn build_network(name: &str, seed: u64) -> Option<(Network, usize, usize)> {
    match name {
        "mnist-100-100" => Some((models::mnist_100_100(seed), 784, 10)),
        "lenet-300-100" => Some((models::lenet_300_100(seed), 784, 10)),
        _ => None,
    }
}

/// One immutable, fully-loaded model generation.
#[derive(Debug)]
pub struct ServingModel {
    name: String,
    epoch: usize,
    source: PathBuf,
    entries: usize,
    in_dim: usize,
    out_dim: usize,
    /// The densified network. `forward` caches activations, so it needs
    /// `&mut`; only the single batch worker calls [`ServingModel::infer`],
    /// so the lock is uncontended.
    net: Monitor<Network>,
}

impl ServingModel {
    /// Builds a servable model from a loaded snapshot. `source` is the
    /// snapshot path the state came from (shown in `/healthz` and logs).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnsupportedModel`] for architectures outside the
    /// MLP zoo, [`ServeError::Checkpoint`] if an entry indexes past the
    /// parameter store (checked before any weight is written).
    pub fn from_state(state: &TrainState, source: impl Into<PathBuf>) -> Result<Self, ServeError> {
        let (mut net, in_dim, out_dim) = build_network(&state.model, state.init_seed)
            .ok_or_else(|| ServeError::UnsupportedModel(state.model.clone()))?;
        Checkpoint::overlay(&mut net, &state.entries)?;
        net.store_mut().release_grads();
        Ok(Self {
            name: state.model.clone(),
            epoch: state.progress.next_epoch,
            source: source.into(),
            entries: state.entries.len(),
            in_dim,
            out_dim,
            net: Monitor::new(net),
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

    /// Number of stored weight entries — the `k` of the paper.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Input feature width requests must supply.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Logit width of responses.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Bytes of densified parameters this generation keeps resident.
    fn resident_bytes(&self) -> usize {
        self.net
            .with(|net| net.num_params() * std::mem::size_of::<f32>())
    }

    /// Sets the generation gauges: `serve.model_epoch`, and the dense
    /// trade — `serve.model.resident_bytes` held in memory against the
    /// `serve.model.stored` entries the snapshot carries on disk.
    pub(crate) fn publish(&self, collector: &Collector) {
        collector.gauge("serve.model_epoch").set(self.epoch as f64);
        collector
            .gauge("serve.model.resident_bytes")
            .set(self.resident_bytes() as f64);
        collector
            .gauge("serve.model.stored")
            .set(self.entries as f64);
    }

    /// Batched eval-mode forward over `x: [n, in_dim]`. Rows do
    /// not interact, so each row's logits are bit-identical to evaluating
    /// it alone, at any pool thread count, with SIMD on or off.
    ///
    /// # Errors
    ///
    /// [`ServeError::InputShape`] if `x` is not `[n, in_dim]`; the shape
    /// is checked here, so the layers' own shape assertions never fire on
    /// the batch worker.
    pub fn infer(&self, x: &Tensor) -> Result<Tensor, ServeError> {
        if x.rank() != 2 || x.shape()[1] != self.in_dim {
            return Err(ServeError::InputShape {
                got: x.shape().to_vec(),
                in_dim: self.in_dim,
            });
        }
        Ok(self.net.with(|net| net.forward(x, Mode::Eval)))
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
    use dropback_tensor::{pool, simd};

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

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Rows of pixel-like values, distinct per row.
    fn batch(rows: usize) -> Tensor {
        Tensor::from_fn(vec![rows, 784], |i| ((i * 37) % 101) as f32 / 101.0)
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
        assert_eq!(model.resident_bytes(), 89_610 * 4);

        // The served forward must be bit-identical to the training forward
        // on a zoo net with the snapshot's checkpoint applied.
        let x = Tensor::filled(vec![2, 784], 0.03);
        let served = model.infer(&x).unwrap();
        let mut net = models::mnist_100_100(77);
        Checkpoint::from(&state).apply(&mut net).unwrap();
        let direct = net.forward(&x, Mode::Eval);
        assert_eq!(bits(&served), bits(&direct));
    }

    #[test]
    fn batched_rows_equal_rows_run_alone() {
        let model = ServingModel::from_state(&state_at(2, 41), "/tmp/x").unwrap();
        let x = batch(8);
        let batched = model.infer(&x).unwrap();
        for r in 0..8 {
            let row = Tensor::from_vec(vec![1, 784], x.data()[r * 784..(r + 1) * 784].to_vec());
            let single = model.infer(&row).unwrap();
            assert_eq!(
                bits(&batched)[r * 10..(r + 1) * 10],
                bits(&single)[..],
                "row {r} differs between the batch and running alone"
            );
        }
    }

    #[test]
    fn replies_are_invariant_to_threads_and_simd() {
        let model = ServingModel::from_state(&state_at(1, 57), "/tmp/x").unwrap();
        let x = batch(3);
        let (threads, vector) = (pool::threads(), simd::simd_active());
        let mut runs = Vec::new();
        for t in [1, 4] {
            for on in [false, true] {
                pool::set_threads(t);
                simd::set_simd(on);
                runs.push(bits(&model.infer(&x).unwrap()));
            }
        }
        pool::set_threads(threads);
        simd::set_simd(vector);
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(
                run, &runs[0],
                "run {i} of threads {{1, 4}} x simd {{off, on}}"
            );
        }
    }

    #[test]
    fn served_store_holds_no_gradient_buffer() {
        let model = ServingModel::from_state(&state_at(1, 5), "/tmp/x").unwrap();
        assert!(model.net.with(|net| net.store().grads().is_empty()));
        let _ = model.infer(&batch(2)).unwrap();
        assert!(
            model.net.with(|net| net.store().grads().is_empty()),
            "an eval forward allocates no gradients"
        );
    }

    #[test]
    fn wrong_shapes_are_errors_not_panics() {
        let model = ServingModel::from_state(&state_at(1, 5), "/tmp/x").unwrap();
        for bad in [vec![2, 3], vec![784], vec![1, 784, 1]] {
            let n = bad.iter().product();
            let err = model
                .infer(&Tensor::from_vec(bad.clone(), vec![0.0; n]))
                .expect_err("wrong shape");
            assert!(matches!(err, ServeError::InputShape { .. }), "{bad:?}");
            assert!(err.to_string().contains("784"), "{err}");
        }
        // The model still serves after refusing.
        assert_eq!(model.infer(&batch(1)).unwrap().shape(), &[1, 10]);
    }

    #[test]
    fn gauges_report_the_dense_trade() {
        let model = ServingModel::from_state(&state_at(4, 5), "/tmp/x").unwrap();
        let collector = Collector::new();
        model.publish(&collector);
        assert_eq!(collector.gauge("serve.model_epoch").get(), 4.0);
        assert_eq!(
            collector.gauge("serve.model.resident_bytes").get(),
            (89_610 * 4) as f64
        );
        assert_eq!(
            collector.gauge("serve.model.stored").get(),
            model.entries() as f64
        );
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
