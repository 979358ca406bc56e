//! Thread-invariance suite: training is bit-identical at every
//! `DROPBACK_THREADS` value and with the SIMD GEMM kernel on or off.
//!
//! The worker pool's determinism contract (see `docs/PERFORMANCE.md`) says
//! the thread count decides *where* work runs, never *what* is computed:
//! every parallel kernel partitions by problem size with disjoint writes
//! and serial-order reductions. The packed GEMM extends the contract to
//! kernel selection: the AVX2 microkernel and the scalar fallback compute
//! the same fused-multiply-add chains in the same order, so `DROPBACK_SIMD`
//! may change speed but never bits. These tests pin both axes end to end:
//! an MLP and a conv/BN model are trained for a few steps across the full
//! SIMD {on, off} × threads {1, 2, 4, 7} matrix, and the resulting
//! weights, loss history, and checkpoint bytes must match the
//! single-threaded scalar run bit for bit.
//!
//! The whole matrix for one model runs inside a single `#[test]`, and the
//! two tests serialize on [`config_lock`], because the pool's thread count
//! and the kernel selection are process-global state.

use dropback::prelude::*;
use dropback::tensor::{pool, simd};
use dropback::TrainState;
use std::sync::{Mutex, MutexGuard};

const THREAD_MATRIX: [usize; 4] = [1, 2, 4, 7];

/// Serializes the tests in this binary: each reconfigures the global pool.
fn config_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One short training run: returns the final parameter bits, the per-step
/// loss bits, and the serialized `TrainState` checkpoint bytes.
fn train_run(
    mut net: Network,
    mut opt: impl Optimizer,
    train: &Dataset,
    steps: usize,
    batch: usize,
) -> (Vec<u32>, Vec<u32>, Vec<u8>) {
    let batcher = Batcher::new(batch, 99);
    let mut losses = Vec::with_capacity(steps);
    let mut done = 0usize;
    'outer: for epoch in 0..u64::MAX {
        for (x, labels) in batcher.epoch(train, epoch) {
            let (loss, _acc) = net.loss_backward(&x, &labels);
            opt.step(net.store_mut(), 0.1);
            net.store_mut().zero_grads();
            losses.push(loss.to_bits());
            done += 1;
            if done == steps {
                break 'outer;
            }
        }
        opt.end_epoch(epoch as usize, net.store_mut());
    }
    let params: Vec<u32> = net.store().params().iter().map(|p| p.to_bits()).collect();
    let state = TrainState::capture(&net, &opt, 99, &TrainProgress::fresh());
    let mut ckpt = Vec::new();
    state.write_to(&mut ckpt).expect("serialize train state");
    (params, losses, ckpt)
}

fn assert_matches_serial(
    label: &str,
    serial: &(Vec<u32>, Vec<u32>, Vec<u8>),
    run: impl Fn() -> (Vec<u32>, Vec<u32>, Vec<u8>),
) {
    let was_active = simd::simd_active();
    for simd_on in [false, true] {
        simd::set_simd(simd_on); // no-op (stays scalar) off AVX2 hardware
        for &threads in &THREAD_MATRIX {
            if !simd_on && threads == THREAD_MATRIX[0] {
                continue; // that's the serial baseline itself
            }
            pool::set_threads(threads);
            let got = run();
            assert_eq!(
                serial.1, got.1,
                "{label}: loss history diverged at {threads} threads (simd {simd_on})"
            );
            assert_eq!(
                serial.0, got.0,
                "{label}: weight bits diverged at {threads} threads (simd {simd_on})"
            );
            assert_eq!(
                serial.2, got.2,
                "{label}: checkpoint bytes diverged at {threads} threads (simd {simd_on})"
            );
        }
    }
    pool::set_threads(1);
    simd::set_simd(was_active);
}

#[test]
fn mlp_training_is_bit_identical_across_thread_counts() {
    let _guard = config_lock();
    let (train, _) = synthetic_mnist(512, 64, 7);
    let run = || {
        train_run(
            models::mnist_100_100(7),
            DropBack::new(9_000),
            &train,
            6,
            64,
        )
    };
    pool::set_threads(THREAD_MATRIX[0]);
    simd::set_simd(false);
    let serial = run();
    assert_matches_serial("mnist-100-100/dropback", &serial, run);
}

#[test]
fn conv_training_is_bit_identical_across_thread_counts() {
    let _guard = config_lock();
    let (train, _) = synthetic_cifar(96, 16, models::CIFAR_NANO_HW, models::CIFAR_NANO_HW, 11);
    let run = || train_run(models::vgg_s_nano(11), DropBack::new(4_000), &train, 4, 16);
    pool::set_threads(THREAD_MATRIX[0]);
    simd::set_simd(false);
    let serial = run();
    assert_matches_serial("vgg-s-nano/dropback", &serial, run);
}
