//! Same-seed runs must be bit-identical — the DropBack contract that the
//! whole `dropback-lint` rule set exists to protect. Two independent
//! trainings from the same `(seed, architecture, k)` must agree on the
//! tracked index set, every tracked value's bits, and the rendered
//! `TrainReport` JSON, byte for byte.

use dropback::prelude::*;

/// Trains a fresh model with DropBack and returns its checkpoint: the
/// tracked `(index, value)` entries in ascending index order.
fn dropback_run(seed: u64) -> Checkpoint {
    let (train, _) = synthetic_mnist(400, 64, seed);
    let mut net = models::mnist_100_100(seed);
    let mut opt = DropBack::new(5_000).freeze_after(2);
    let batcher = Batcher::new(64, 3);
    for epoch in 0..3u64 {
        for (x, labels) in batcher.epoch(&train, epoch) {
            let _ = net.loss_backward(&x, &labels);
            opt.step(net.store_mut(), 0.1);
        }
        opt.end_epoch(epoch as usize, net.store_mut());
    }
    Checkpoint::from_mask(&net, opt.mask()).unwrap()
}

#[test]
fn same_seed_runs_produce_identical_tracked_sets() {
    let a = dropback_run(41);
    let b = dropback_run(41);
    assert!(!a.is_empty());
    // Values must agree to the bit, not to a tolerance: untracked weights
    // are regenerated from regen(seed, index), so any drift in the stored
    // ones breaks checkpoint replay. The serialized entries carry every
    // index and value bit, in index order.
    let bytes = |c: &Checkpoint| {
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        buf
    };
    assert_eq!(bytes(&a), bytes(&b));
}

#[test]
fn same_seed_reports_render_identical_json() {
    let report = |seed: u64| {
        let (train, test) = synthetic_mnist(300, 64, seed);
        let cfg = TrainConfig::new(2, 64);
        Trainer::new(cfg)
            .run(
                models::mnist_100_100(seed),
                DropBack::new(5_000),
                &train,
                &test,
            )
            .to_json()
            .render()
    };
    let a = report(17);
    let b = report(17);
    assert_eq!(a, b, "same-seed TrainReport JSON must be byte-identical");
    // A different seed must actually change the trajectory, or the
    // comparison above proves nothing.
    assert_ne!(a, report(18));
}
