//! Integration tests for the extension features: quantization, the zeroed
//! ablation, optimizer memory accounting, checkpoints, and convergence
//! statistics.

use dropback::metrics::ConvergenceStats;
use dropback::optim::{Adam, SgdMomentum};
use dropback::prelude::*;
use dropback::Checkpoint;

fn data(seed: u64) -> (Dataset, Dataset) {
    synthetic_mnist(1000, 250, seed)
}

fn cfg(epochs: usize) -> TrainConfig {
    TrainConfig::new(epochs, 64)
        .lr(LrSchedule::StepDecay {
            initial: 0.2,
            factor: 0.5,
            every: 2,
        })
        .patience(None)
}

#[test]
fn quantized_dropback_trains_to_similar_accuracy() {
    let (train, test) = data(41);
    let full = Trainer::new(cfg(5)).run(
        models::mnist_100_100(41),
        DropBack::new(20_000),
        &train,
        &test,
    );
    let q8 = Trainer::new(cfg(5)).run(
        models::mnist_100_100(41),
        Quantized::new(DropBack::new(20_000), 8),
        &train,
        &test,
    );
    assert!(
        q8.best_val_acc > full.best_val_acc - 0.08,
        "8-bit {} vs fp32 {}",
        q8.best_val_acc,
        full.best_val_acc
    );
    assert_eq!(q8.optimizer, "dropback+q8");
    assert_eq!(q8.stored_weights, 20_000);
}

#[test]
fn quantized_weights_lie_on_a_grid() {
    let (train, _) = data(42);
    let mut net = models::mnist_100_100(42);
    let mut opt = Quantized::new(Sgd::new(), 4);
    let batcher = Batcher::new(64, 1);
    for (x, labels) in batcher.epoch(&train, 0) {
        let _ = net.loss_backward(&x, &labels);
        opt.step(net.store_mut(), 0.1);
    }
    // Each range has at most 2^4 = 16 distinct values.
    for r in net.store().ranges() {
        let distinct: std::collections::BTreeSet<u32> =
            net.store().slice(r).iter().map(|v| v.to_bits()).collect();
        assert!(
            distinct.len() <= 16,
            "{}: {} distinct values",
            r.name(),
            distinct.len()
        );
    }
}

#[test]
fn zeroed_untracked_is_worse_at_high_compression() {
    let (train, test) = data(43);
    let regen = Trainer::new(cfg(5)).run(
        models::mnist_100_100(43),
        DropBack::new(3_000),
        &train,
        &test,
    );
    let zeroed = Trainer::new(cfg(5)).run(
        models::mnist_100_100(43),
        DropBack::new(3_000).with_zeroed_untracked(),
        &train,
        &test,
    );
    assert!(
        regen.best_val_acc > zeroed.best_val_acc,
        "regenerated {} should beat zeroed {} (the paper's §2.1 claim)",
        regen.best_val_acc,
        zeroed.best_val_acc
    );
}

#[test]
fn optimizer_memory_accounting_flows_into_reports() {
    let (train, test) = data(44);
    let params = 89_610usize;
    let mom = Trainer::new(cfg(2)).run(
        models::mnist_100_100(44),
        SgdMomentum::new(0.9),
        &train,
        &test,
    );
    assert_eq!(mom.stored_weights, params * 2);
    let adam_cfg = TrainConfig::new(2, 64).lr(LrSchedule::Constant(0.002));
    let adam = Trainer::new(adam_cfg).run(models::mnist_100_100(44), Adam::new(), &train, &test);
    assert_eq!(adam.stored_weights, params * 3);
    // Compression < 1 signals the *extra* memory.
    assert!(mom.compression() < 1.0);
    assert!(adam.compression() < mom.compression());
}

#[test]
fn checkpoint_roundtrips_through_a_file() {
    let (train, test) = data(45);
    let mut net = models::mnist_100_100(45);
    let mut opt = DropBack::new(5_000);
    let batcher = Batcher::new(64, 2);
    for epoch in 0..2u64 {
        for (x, labels) in batcher.epoch(&train, epoch) {
            let _ = net.loss_backward(&x, &labels);
            dropback::optim::Optimizer::step(&mut opt, net.store_mut(), 0.15);
        }
    }
    let acc = net.accuracy(&test, 256);
    let ckpt = Checkpoint::from_mask(&net, opt.mask()).unwrap();
    let path = std::env::temp_dir().join(format!("dropback_it_{}.dbk", std::process::id()));
    ckpt.write_to(std::fs::File::create(&path).unwrap())
        .unwrap();
    let loaded = Checkpoint::read_from(std::fs::File::open(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).unwrap();
    let mut rebuilt = models::mnist_100_100(loaded.seed());
    loaded.apply(&mut rebuilt).unwrap();
    assert_eq!(rebuilt.accuracy(&test, 256), acc);
}

#[test]
fn network_summary_lists_every_range() {
    let net = models::lenet_300_100(1);
    let s = net.summary();
    assert!(s.contains("266610 parameters"));
    for r in net.param_ranges() {
        assert!(s.contains(r.name()), "missing {}", r.name());
    }
}

#[test]
fn convergence_stats_describe_training_reports() {
    let (train, test) = data(46);
    let report = Trainer::new(cfg(5)).run(models::mnist_100_100(46), Sgd::new(), &train, &test);
    let curve: Vec<f32> = report.val_curve().iter().map(|&(_, a)| a).collect();
    let stats = ConvergenceStats::from_curve(&curve);
    assert_eq!(stats.best, report.best_val_acc);
    assert_eq!(stats.best_epoch, report.best_epoch);
    assert!(stats.epochs_to_95.is_some());
    assert!(stats.auc <= stats.best);
}

#[test]
fn accelerator_story_holds_for_trained_budget() {
    use dropback::energy::{lenet_300_100_layers, Accelerator};
    let acc = Accelerator::edge_256k();
    let layers = lenet_300_100_layers();
    // The paper's pitch: a tracked set that fits on-chip trains with far
    // less energy than a dense model that spills to DRAM.
    let dense = acc.training_step(&layers, 266_610, 64);
    let budget = acc.training_step(&layers, 20_000, 64);
    assert!(dense.dram_pj > 0.0);
    assert_eq!(budget.dram_pj, 0.0);
    assert!(dense.total_pj() > budget.total_pj());
}
