//! # DropBack: continuous pruning during training
//!
//! A from-scratch Rust reproduction of *"Full Deep Neural Network Training
//! On A Pruned Weight Budget"* (Golub, Lemieux, Lis — MLSys 2019).
//!
//! DropBack constrains training to update only the `k` weights with the
//! highest accumulated gradients; every other weight is "forgotten" and its
//! initialization value is regenerated from a xorshift PRNG at each access,
//! so only `k` weights are ever stored — during *and* after training.
//!
//! This crate is the façade: it re-exports the substrate crates and adds
//! the experiment harness (config → training loop → report) that the
//! `repro_*` binaries in `dropback-bench` use to regenerate every table and
//! figure of the paper.
//!
//! ## Quickstart
//!
//! ```
//! use dropback::prelude::*;
//!
//! // A tiny synthetic-MNIST run with a 5.33x weight budget.
//! let (train, test) = synthetic_mnist(512, 128, 42);
//! let net = models::mnist_100_100(42);
//! let config = TrainConfig::new(2, 32).lr(LrSchedule::Constant(0.1));
//! let optimizer = DropBack::new(16_000);
//! let report = Trainer::new(config).run(net, optimizer, &train, &test);
//! assert!(report.best_val_acc > 0.3); // learns despite 5x fewer weights
//! ```
//!
//! ## Crate map
//!
//! | need | go to |
//! |---|---|
//! | tensors, GEMM, conv kernels | [`tensor`] |
//! | xorshift + index-addressable regeneration | [`prng`] |
//! | datasets (synthetic MNIST/CIFAR, IDX loader) | [`data`] |
//! | layers, models, parameter store | [`nn`] |
//! | DropBack + baseline optimizers | [`optim`] |
//! | diffusion / KDE / churn / PCA analysis | [`metrics`] |
//! | 45 nm energy + traffic model | [`energy`] |
//! | counters, spans, event sinks, JSONL | [`telemetry`] |
//!
//! Observability: [`Trainer::run_telemetry`] streams structured `step` /
//! `epoch` / `run` events into any [`telemetry::EventSink`]; see
//! `docs/OBSERVABILITY.md` for the full metric and span taxonomy.

#![deny(missing_docs)]

pub use dropback_data as data;
pub use dropback_energy as energy;
pub use dropback_metrics as metrics;
pub use dropback_nn as nn;
pub use dropback_optim as optim;
pub use dropback_prng as prng;
pub use dropback_telemetry as telemetry;
pub use dropback_tensor as tensor;

pub mod chaos;
mod checkpoint;
mod ckpt_store;
mod config;
mod crc;
mod report;
mod sparse_infer;
pub mod trace_analysis;
mod train_state;
mod trainer;

pub use chaos::{FaultAction, FaultInjector, FaultMode, FaultPlan, FaultStream};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use ckpt_store::CheckpointStore;
pub use config::TrainConfig;
pub use crc::crc32;
pub use report::{EpochStats, TrainReport};
pub use sparse_infer::{
    stream_mlp_forward, StreamError, StreamStats, StreamingLinear, StreamingModel,
};
pub use trace_analysis::{analyze_chrome_trace, PhaseRow, TraceAnalysis, TraceError};
pub use train_state::{TrainProgress, TrainState};
pub use trainer::{NoProbe, StepProbe, Trainer};

/// Convenient glob-import surface for examples and experiment binaries.
pub mod prelude {
    pub use crate::chaos::{FaultAction, FaultInjector, FaultMode, FaultPlan, FaultStream};
    pub use crate::checkpoint::{Checkpoint, CheckpointError};
    pub use crate::ckpt_store::CheckpointStore;
    pub use crate::config::TrainConfig;
    pub use crate::report::{EpochStats, TrainReport};
    pub use crate::sparse_infer::{stream_mlp_forward, StreamStats, StreamingModel};
    pub use crate::train_state::{TrainProgress, TrainState};
    pub use crate::trainer::{NoProbe, StepProbe, Trainer};
    pub use dropback_data::{synthetic_cifar, synthetic_mnist, Batcher, Dataset};
    pub use dropback_energy::{EnergyModel, TrainingTraffic};
    pub use dropback_metrics::{
        compression_ratio, gaussian_kde, pca_project, Accuracy, DiffusionTracker, TopKChurn,
    };
    pub use dropback_nn::{models, Layer, Mode, Network, ParamStore};
    pub use dropback_optim::{
        DropBack, KlAnneal, LrSchedule, MagnitudePruning, NetworkSlimming, Optimizer, Quantized,
        Quantizer, Sgd,
    };
    pub use dropback_telemetry::{
        Event, EventSink, JsonlSink, NullSink, StderrSink, TeeSink, Telemetry, TelemetrySnapshot,
    };
    pub use dropback_tensor::Tensor;
}
