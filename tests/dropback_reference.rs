//! Differential harness: the production `DropBack` rule against the literal
//! Algorithm 1 reference in `tests/support`, stepped side by side.
//!
//! Both rules see the same batches on two networks built from the same
//! seed. After every step the parameters and the tracked mask must agree
//! bit for bit. The production rule regenerates only evicted weights and
//! runs its sweeps and top-k on the worker pool; the reference does a full
//! serial sweep every step. Agreement therefore checks the paper's
//! invariant `untracked ⇒ w[i] == init(seed, i)` (§2.1) that the
//! eviction-only shortcut relies on.
//!
//! Covered: the zoo's MLP and a conv/BN model, freeze on and off, the
//! zeroed-untracked ablation, a kill/resume through a serialized
//! `TrainState` at a seeded step, and pool threads {1, 4}.
//! `scripts/check.sh` reruns the binary with the SIMD kernel on and off.

mod support;

use dropback::prelude::*;
use dropback::prng::Xorshift64;
use dropback::tensor::pool;
use dropback::TrainState;
use std::sync::Mutex;
use support::ReferenceDropBack;

const LR: f32 = 0.1;
const EPOCHS: usize = 3;

/// A model, its data and how many steps to take per epoch.
struct Net {
    model: fn(u64) -> Network,
    data: Dataset,
    seed: u64,
    batch: usize,
    steps_per_epoch: usize,
}

fn mlp() -> Net {
    Net {
        model: models::mnist_100_100,
        data: synthetic_mnist(64 * 4, 16, 5).0,
        seed: 5,
        batch: 64,
        steps_per_epoch: 4,
    }
}

fn conv() -> Net {
    let hw = models::CIFAR_NANO_HW;
    Net {
        model: models::vgg_s_nano,
        data: synthetic_cifar(4 * 2, 4, hw, hw, 9).0,
        seed: 9,
        batch: 4,
        steps_per_epoch: 2,
    }
}

/// Snapshot, serialize, decode and restore into `fresh`, as a crashed run
/// resumes. The network object is kept: dropout streams live outside the
/// snapshot (see `docs/CHECKPOINTS.md`), and `restore_into` resets every
/// parameter before applying the entries.
fn kill_and_resume(net: &mut Network, opt: &DropBack, mut fresh: DropBack, seed: u64) -> DropBack {
    let state = TrainState::capture(net, opt, seed, &TrainProgress::fresh());
    let mut bytes = Vec::new();
    state.write_to(&mut bytes).expect("serialize snapshot");
    let state = TrainState::read_from(&bytes[..]).expect("decode snapshot");
    state
        .restore_into(net, &mut fresh, seed)
        .expect("restore snapshot");
    fresh
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Steps `DropBack::new(k)` (frozen after `freeze_after` epochs, zeroed
/// when asked) and the reference side by side at pool threads {1, 4},
/// asserting bit-equal parameters and masks after every step. With
/// `resume_seed`, the production run is killed and resumed before a step
/// drawn from that seed.
fn check(
    label: &str,
    net: Net,
    k: usize,
    freeze_after: Option<usize>,
    zeroed: bool,
    resume_seed: Option<u64>,
) {
    // The pool size is process-global: one case at a time.
    static LOCK: Mutex<()> = Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let production = || {
        let opt = match freeze_after {
            Some(e) => DropBack::new(k).freeze_after(e),
            None => DropBack::new(k),
        };
        if zeroed {
            opt.with_zeroed_untracked()
        } else {
            opt
        }
    };
    let steps = EPOCHS * net.steps_per_epoch;
    let resume_at = resume_seed.map(|s| 1 + (Xorshift64::new(s).next_u64() as usize) % (steps - 1));
    let ambient = pool::threads();
    for threads in [1, 4] {
        pool::set_threads(threads);
        let (mut prod_net, mut ref_net) = ((net.model)(net.seed), (net.model)(net.seed));
        let mut opt = production();
        let mut reference = ReferenceDropBack::new(k, freeze_after, zeroed);
        let batcher = Batcher::new(net.batch, net.seed);
        let mut step = 0;
        for epoch in 0..EPOCHS {
            let batches = batcher.epoch(&net.data, epoch as u64);
            for (x, labels) in batches.take(net.steps_per_epoch) {
                if resume_at == Some(step) {
                    opt = kill_and_resume(&mut prod_net, &opt, production(), net.seed);
                }
                let _ = prod_net.loss_backward(&x, &labels);
                opt.step(prod_net.store_mut(), LR);
                let _ = ref_net.loss_backward(&x, &labels);
                reference.step(ref_net.store_mut(), LR);
                assert!(
                    opt.mask() == reference.mask(),
                    "{label}: mask diverged at step {step} ({threads} threads)"
                );
                assert!(
                    bits(prod_net.store().params()) == bits(ref_net.store().params()),
                    "{label}: params diverged at step {step} ({threads} threads)"
                );
                step += 1;
            }
            opt.end_epoch(epoch, prod_net.store_mut());
            reference.end_epoch(epoch);
        }
        assert_eq!(step, steps, "{label}: data ran short");
        assert_eq!(opt.is_frozen(), freeze_after.is_some(), "{label}");
    }
    pool::set_threads(ambient);
}

#[test]
fn mlp_matches_reference_unfrozen() {
    check("mnist-100-100", mlp(), 20_000, None, false, None);
}

#[test]
fn mlp_matches_reference_with_freeze() {
    check("mnist-100-100/freeze", mlp(), 8_000, Some(2), false, None);
}

#[test]
fn mlp_zeroed_ablation_matches_reference() {
    check("mnist-100-100/zeroed", mlp(), 20_000, None, true, None);
}

#[test]
fn mlp_matches_reference_across_kill_and_resume() {
    for seed in [3, 4] {
        check(
            "mnist-100-100/resume",
            mlp(),
            20_000,
            Some(2),
            false,
            Some(seed),
        );
    }
}

#[test]
fn conv_matches_reference_unfrozen() {
    check("vgg-s-nano", conv(), 20_000, None, false, None);
}

#[test]
fn conv_matches_reference_with_freeze_and_resume() {
    check(
        "vgg-s-nano/freeze+resume",
        conv(),
        4_000,
        Some(2),
        false,
        Some(7),
    );
}
