//! The `train-mlp` and `train-conv` workloads: DropBack training driven
//! through the zoo, `Batcher`, `Network::loss_backward` / `accuracy` and
//! the `Optimizer` trait, with the paper's §2.1 invariant checked from
//! outside after every epoch.

use crate::layers;
use crate::report::{pct, peak_rss_mb, Report};
use crate::stats::{median, percentile, quietest_window, sorted, TAIL_WINDOWS};
use dropback::crc32;
use dropback::data::{synthetic_cifar, synthetic_mnist, Batcher, Dataset};
use dropback::nn::{models, Network};
use dropback::optim::{Optimizer, SparseDropBack, StateField};
use dropback::telemetry::{global, trace, Json, Span, Stopwatch};
use dropback::tensor::alloc;

/// One training workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    /// Zoo constructor.
    pub model: fn(u64) -> Network,
    /// `(train, validation)` generator from the workload seed.
    pub data: fn(u64) -> (Dataset, Dataset),
    /// DropBack budget.
    pub k: usize,
    /// Mini-batch size.
    pub batch: usize,
    /// Constant learning rate.
    pub lr: f32,
    /// Freeze the tracked set after this many epochs (`None`: never).
    pub freeze_after: Option<usize>,
    /// Fewest timed epochs, whatever `--seconds` says.
    pub min_epochs: usize,
    /// The loss-trajectory and weights digests cover this many epochs, a
    /// prefix every run completes, so any two runs compare bit for bit.
    pub digest_epochs: usize,
    /// Final validation accuracy must exceed this.
    pub acc_floor: f64,
    /// `tail_ms` is the lowest tail of this many consecutive windows.
    pub tail_windows: usize,
}

/// Steps in the stretch `p50_ms` and `throughput_per_s` are read from.
pub const STRETCH_STEPS: usize = 32;

/// mnist-100-100, k = 20,000, never frozen: every step scores, ranks,
/// updates and regenerates.
pub const MLP: TrainSpec = TrainSpec {
    model: models::mnist_100_100,
    data: |seed| synthetic_mnist(4096, 1024, seed),
    k: 20_000,
    batch: 64,
    lr: 0.1,
    freeze_after: None,
    min_epochs: 2,
    digest_epochs: 2,
    acc_floor: 0.5,
    tail_windows: 6,
};

/// vgg-s-nano, k = 20,000, frozen after the first epoch, so at least ¾ of
/// the timed steps skip ranking.
pub const CONV: TrainSpec = TrainSpec {
    model: models::vgg_s_nano,
    data: |seed| {
        synthetic_cifar(
            1024,
            512,
            models::CIFAR_NANO_HW,
            models::CIFAR_NANO_HW,
            seed,
        )
    },
    k: 20_000,
    batch: 64,
    lr: 0.05,
    freeze_after: Some(1),
    min_epochs: 4,
    digest_epochs: 2,
    acc_floor: 0.2,
    tail_windows: TAIL_WINDOWS,
};

/// The one place the benchmark names a concrete optimizer: the DropBack
/// rule `dropback-cli train --budget` trains with. Everything else reaches
/// it through the [`Optimizer`] trait.
pub fn build_optimizer(k: usize, freeze_after: Option<usize>) -> Box<dyn Optimizer> {
    match freeze_after {
        Some(e) => Box::new(SparseDropBack::new(k).freeze_after(e.max(1))),
        None => Box::new(SparseDropBack::new(k)),
    }
}

/// Indices the optimizer says it tracks, read from its snapshot state
/// (`tracked` pairs or a dense `mask`), ascending.
///
/// # Errors
///
/// The state carries neither field.
pub fn tracked_indices(opt: &dyn Optimizer) -> Result<Vec<usize>, String> {
    let state = opt.snapshot_state();
    for (name, field) in state.fields() {
        match (name.as_str(), field) {
            ("tracked", StateField::Pairs(p)) => {
                return Ok(p.iter().map(|&(i, _)| i as usize).collect())
            }
            ("mask", StateField::Bools(m)) => {
                return Ok(m
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b)
                    .map(|(i, _)| i)
                    .collect())
            }
            _ => {}
        }
    }
    Err(format!("optimizer `{}` exposes no tracked set", opt.name()))
}

/// A model, its optimizer and data after set-up and one warm-up step.
pub struct Trainee {
    net: Network,
    opt: Box<dyn Optimizer>,
    train: Dataset,
    val: Dataset,
    moved: MovedSet,
}

/// Builds everything a run needs and takes the first step; the time this
/// takes is `setup_s`.
pub fn setup(spec: &TrainSpec, seed: u64) -> Trainee {
    let (train, val) = (spec.data)(seed);
    let mut net = (spec.model)(seed);
    let mut opt = build_optimizer(spec.k, spec.freeze_after);
    let init = net.store().regen_initial();
    let (x, labels) = train.batch(0, spec.batch.min(train.len()));
    net.loss_backward(&x, &labels);
    opt.step(net.store_mut(), spec.lr);
    let mut moved = MovedSet {
        moved: vec![false; init.len()],
        init,
    };
    moved.rescan(net.store().params());
    Trainee {
        net,
        opt,
        train,
        val,
        moved,
    }
}

/// Which weights differ from their init, seen from outside the optimizer.
struct MovedSet {
    /// `init_value(i)` for every parameter, regenerated once.
    init: Vec<f32>,
    /// Which parameters' bits differed from init at the last scan.
    moved: Vec<bool>,
}

impl MovedSet {
    /// Rescans `params`; returns how many weights returned to init since
    /// the last scan (evictions) and how many differ from init now.
    fn rescan(&mut self, params: &[f32]) -> (usize, usize) {
        let mut evicted = 0;
        let mut now_moved = 0;
        for ((m, &p), &w0) in self.moved.iter_mut().zip(params).zip(&self.init) {
            let now = p.to_bits() != w0.to_bits();
            evicted += usize::from(*m && !now);
            now_moved += usize::from(now);
            *m = now;
        }
        (evicted, now_moved)
    }

    /// The §2.1 invariant: every weight outside the optimizer's tracked set
    /// equals its init bit for bit, and at most `k` are tracked.
    fn check_invariant(&self, params: &[f32], opt: &dyn Optimizer, k: usize) -> Result<(), String> {
        let tracked = tracked_indices(opt)?;
        if tracked.len() > k {
            return Err(format!("{} tracked > k = {k}", tracked.len()));
        }
        let mut is_tracked = vec![false; self.init.len()];
        for &i in &tracked {
            *is_tracked
                .get_mut(i)
                .ok_or_else(|| format!("tracked index {i} out of range"))? = true;
        }
        let bad = (0..params.len())
            .filter(|&i| !is_tracked[i] && params[i].to_bits() != self.init[i].to_bits())
            .count();
        if bad > 0 {
            return Err(format!("{bad} untracked weights differ from init"));
        }
        Ok(())
    }
}

/// Step and epoch records of one timed run.
#[derive(Default)]
struct Timeline {
    untraced_step_ms: Vec<f64>,
    traced_step_ms: Vec<f64>,
    /// Untraced steps after the first epoch, for the overhead comparison.
    untraced_late_ms: Vec<f64>,
    /// Traced steps after the first epoch, for the overhead comparison.
    traced_late_ms: Vec<f64>,
    accuracy_ms: Vec<f64>,
    /// Median step time of each epoch.
    epoch_p50_ms: Vec<f64>,
    samples: u64,
    timed_ns: u64,
    steps: u64,
    traced_steps: u64,
    evictions: u64,
    regenerated: u64,
    traced_regenerated: u64,
    gemm_calls: u64,
    losses: Vec<u8>,
    weights_digest: Option<u32>,
    epochs: usize,
    final_acc: f32,
    records: Vec<trace::TraceRecord>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn elapsed(sw: &Stopwatch) -> u64 {
    sw.elapsed_ns().unwrap_or(0)
}

fn tracked_k(opt: &dyn Optimizer) -> Option<usize> {
    opt.metrics()
        .iter()
        .find(|(n, _)| *n == "tracked_k")
        .map(|&(_, v)| v as usize)
}

/// Runs timed epochs until `seconds` have passed (and at least
/// `min_epochs`). With `traced`, epoch 0 and every even epoch record a
/// trace and odd ones do not, so traced and untraced steps interleave
/// under the same optimizer regime.
fn run_epochs(
    spec: &TrainSpec,
    t: &mut Trainee,
    seed: u64,
    seconds: f64,
    traced: bool,
    rep: &mut Report,
) -> Timeline {
    let mut tl = Timeline::default();
    let batcher = Batcher::new(spec.batch, seed ^ 0x5EED_BA7C);
    let gemm_calls = global().counter("tensor.gemm.calls");
    let n = t.moved.init.len();
    let min_epochs = if traced {
        spec.min_epochs.max(5)
    } else {
        spec.min_epochs
    };
    alloc::reset_hwm();
    let wall = Stopwatch::started();
    let mut epoch = 0usize;
    loop {
        let trace_this = traced && epoch.is_multiple_of(2);
        if trace_this {
            trace::start_tracing();
        }
        let mut iter = batcher.epoch(&t.train, epoch as u64);
        let mut epoch_ms = Vec::new();
        for _ in 0..batcher.batches_per_epoch(t.train.len()) {
            let calls0 = gemm_calls.get();
            let sw = Stopwatch::started();
            let step = Span::enter("bench.step");
            let batch = {
                let _s = Span::enter("bench.batch");
                iter.next()
            };
            let Some((x, labels)) = batch else {
                rep.check(false, || format!("epoch {epoch} ran out of batches"));
                break;
            };
            let (loss, _) = {
                let _s = Span::enter("bench.loss_backward");
                t.net.loss_backward(&x, &labels)
            };
            {
                let _s = Span::enter("bench.optim.step");
                t.opt.step(t.net.store_mut(), spec.lr);
            }
            drop(step);
            let step_ns = elapsed(&sw);
            tl.gemm_calls += gemm_calls.get() - calls0;
            tl.timed_ns += step_ns;
            tl.samples += labels.len() as u64;
            tl.steps += 1;
            epoch_ms.push(ms(step_ns));
            let (all, late) = if trace_this {
                (&mut tl.traced_step_ms, &mut tl.traced_late_ms)
            } else {
                (&mut tl.untraced_step_ms, &mut tl.untraced_late_ms)
            };
            all.push(ms(step_ns));
            if epoch > 0 {
                late.push(ms(step_ns));
            }
            // Checks, outside the timed step.
            rep.check(loss.is_finite(), || {
                format!("non-finite loss {loss} at epoch {epoch} step {}", tl.steps)
            });
            let (evicted, moved) = t.moved.rescan(t.net.store().params());
            rep.check(moved <= spec.k, || {
                format!("{moved} weights off init > k = {} at epoch {epoch}", spec.k)
            });
            let tracked = tracked_k(t.opt.as_ref()).unwrap_or(moved);
            rep.check(tracked <= spec.k, || {
                format!("tracked_k {tracked} > k = {} at epoch {epoch}", spec.k)
            });
            tl.evictions += evicted as u64;
            let regenerated = (n - tracked.min(n)) as u64;
            tl.regenerated += regenerated;
            if trace_this {
                tl.traced_steps += 1;
                tl.traced_regenerated += regenerated;
            }
            if epoch < spec.digest_epochs {
                tl.losses.extend_from_slice(&loss.to_bits().to_le_bytes());
            }
        }
        if trace_this {
            trace::stop_tracing();
            tl.records.extend(trace::take_trace());
        }
        let sw = Stopwatch::started();
        t.opt.end_epoch(epoch, t.net.store_mut());
        let acc = t.net.accuracy(&t.val, 256);
        let epoch_tail_ns = elapsed(&sw);
        tl.timed_ns += epoch_tail_ns;
        tl.accuracy_ms.push(ms(epoch_tail_ns));
        tl.epoch_p50_ms.push(median(&epoch_ms).unwrap_or(0.0));
        tl.final_acc = acc;
        if let Err(e) = t
            .moved
            .check_invariant(t.net.store().params(), t.opt.as_ref(), spec.k)
        {
            rep.check(false, || format!("epoch {epoch}: {e}"));
        }
        epoch += 1;
        if epoch == spec.digest_epochs {
            let bytes: Vec<u8> = t
                .net
                .store()
                .params()
                .iter()
                .flat_map(|p| p.to_bits().to_le_bytes())
                .collect();
            tl.weights_digest = Some(crc32(&bytes));
        }
        if epoch >= min_epochs && elapsed(&wall) as f64 / 1e9 >= seconds {
            break;
        }
    }
    tl.epochs = epoch;
    tl
}

/// One full run of a training workload.
pub fn run(spec: &TrainSpec, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut rep = Report::default();
    let sw = Stopwatch::started();
    let mut t = setup(spec, seed);
    let setup_s = elapsed(&sw) as f64 / 1e9;
    let n = t.moved.init.len();
    rep.note("params", n);
    rep.note("k", spec.k);
    rep.note("batch", spec.batch);
    let tl = run_epochs(spec, &mut t, seed, seconds, traced, &mut rep);

    rep.attempted = tl.steps;
    rep.check(f64::from(tl.final_acc) > spec.acc_floor, || {
        format!(
            "final validation accuracy {} <= floor {}",
            tl.final_acc, spec.acc_floor
        )
    });
    rep.note("epochs", tl.epochs);
    rep.note(
        "epoch_step_p50_ms",
        Json::Arr(tl.epoch_p50_ms.iter().map(|&v| Json::from(v)).collect()),
    );
    rep.note("steps", tl.steps);
    rep.note("final_val_acc", f64::from(tl.final_acc));
    rep.note("acc_floor", spec.acc_floor);
    rep.note(
        "loss_digest",
        format!(
            "{:08x} over {} epochs",
            crc32(&tl.losses),
            spec.digest_epochs
        ),
    );
    rep.note(
        "weights_digest",
        format!(
            "{:08x} after {} epochs",
            tl.weights_digest.unwrap_or(0),
            spec.digest_epochs
        ),
    );

    let all_steps: Vec<f64> = tl
        .untraced_step_ms
        .iter()
        .chain(&tl.traced_step_ms)
        .copied()
        .collect();
    let steps = sorted(&all_steps);
    let timed_s = tl.timed_ns as f64 / 1e9;
    let samples_per_s = tl.samples as f64 / timed_s.max(1e-9);
    rep.put("setup_s", setup_s, "s");
    if !traced {
        rep.put("train_samples_per_s", samples_per_s, "1/s");
        rep.put("step_p50_ms", percentile(&steps, 50.0).unwrap_or(0.0), "ms");
        // The gated trio is read where the host disturbed the run least
        // (see the README): the median and rate of the quietest stretch of
        // steps, with the end-of-epoch eval charged at its fastest epoch,
        // and the lowest window tail.
        match quietest_window(&tl.untraced_step_ms, STRETCH_STEPS) {
            Some(q) => {
                let step_ms = q.iter().sum::<f64>() / q.len() as f64;
                let steps_per_epoch = tl.steps as f64 / tl.epochs.max(1) as f64;
                let eval_ms = tl.accuracy_ms.iter().copied().fold(f64::INFINITY, f64::min);
                let batch = tl.samples as f64 / tl.steps.max(1) as f64;
                rep.put("p50_ms", median(q).unwrap_or(0.0), "ms");
                rep.put(
                    "throughput_per_s",
                    batch * 1e3 / (step_ms + eval_ms / steps_per_epoch),
                    "1/s",
                );
                rep.note("stretch_steps", STRETCH_STEPS);
                rep.note("stretch_mean_step_ms", step_ms);
                rep.note("fastest_eval_ms", eval_ms);
            }
            None => rep.check(false, || {
                format!(
                    "{} steps are too few for a {STRETCH_STEPS}-step stretch",
                    steps.len()
                )
            }),
        }
        if let Some(t) = rep.put_tail("step_tail_ms", &tl.untraced_step_ms, spec.tail_windows) {
            rep.put("tail_ms", t, "ms");
        }
        rep.note("step_count", steps.len());
    }
    rep.put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB");
    rep.put("failed_share", 0.0, "ratio");
    if traced {
        per_layer(&tl, &mut rep);
    }
    rep
}

/// The per-layer numbers of a traced run, per traced step.
fn per_layer(tl: &Timeline, rep: &mut Report) {
    let d = match layers::digest(&tl.records, "bench.step") {
        Ok(d) => d,
        Err(e) => {
            rep.check(false, || format!("trace digest: {e}"));
            return;
        }
    };
    match layers::cross_check(&layers::first_span_window(&tl.records, "bench.step")) {
        Ok(events) => rep.note("analyzer_cross_check_events", events),
        Err(e) => rep.check(false, || format!("trace analyzer disagrees: {e}")),
    }
    let steps = tl.traced_steps.max(1) as f64;
    let per_step = |ns: u64| ms(ns) / steps;
    let step = d.main("bench.step");
    rep.check(step.count == tl.traced_steps, || {
        format!(
            "{} traced steps but {} step spans",
            tl.traced_steps, step.count
        )
    });
    rep.put(
        "data.batch_ms",
        per_step(d.main("bench.batch").total_ns),
        "ms",
    );
    rep.put(
        "nn.loss_backward_ms",
        per_step(d.main("bench.loss_backward").total_ns),
        "ms",
    );
    rep.put(
        "nn.forward_self_ms",
        per_step(d.main("forward").self_ns),
        "ms",
    );
    rep.put(
        "nn.backward_self_ms",
        per_step(d.main("backward").self_ns),
        "ms",
    );
    rep.put(
        "nn.accuracy_ms",
        median(&tl.accuracy_ms).unwrap_or(0.0),
        "ms",
    );
    rep.put(
        "tensor.gemm_self_ms",
        per_step(d.main("gemm").self_ns),
        "ms",
    );
    rep.put("tensor.gemm_busy_ms", per_step(d.all("gemm").self_ns), "ms");
    rep.put(
        "tensor.gemm_calls",
        tl.gemm_calls as f64 / tl.steps.max(1) as f64,
        "count",
    );
    rep.put(
        "tensor.gemm_gflops",
        d.all("gemm").flops / d.all("gemm").self_ns.max(1) as f64,
        "GFLOP/s",
    );
    rep.put(
        "tensor.conv_self_ms",
        per_step(d.main("conv").self_ns),
        "ms",
    );
    rep.put(
        "tensor.pool_self_ms",
        per_step(d.main("pool").self_ns),
        "ms",
    );
    rep.put("tensor.alloc_hwm_bytes", alloc::hwm_bytes() as f64, "bytes");
    let opt = d.main("bench.optim.step");
    rep.put("optim.step_ms", per_step(opt.total_ns), "ms");
    rep.put(
        "optim.topk_rank_self_ms",
        per_step(d.main("topk-rank").self_ns),
        "ms",
    );
    let regen = d.main("regen");
    rep.put("optim.regen_self_ms", per_step(regen.self_ns), "ms");
    rep.put("optim.update_self_ms", per_step(opt.self_ns), "ms");
    let all_steps = tl.steps.max(1) as f64;
    rep.put(
        "optim.evictions_per_step",
        tl.evictions as f64 / all_steps,
        "count",
    );
    rep.put(
        "optim.regen_useful_ratio",
        tl.evictions as f64 / (tl.regenerated.max(1)) as f64,
        "ratio",
    );
    rep.note("optim.evictions_total", tl.evictions);
    rep.note("optim.regenerated_total", tl.regenerated);
    rep.note(
        "optim.regenerated_per_step",
        tl.regenerated as f64 / all_steps,
    );
    rep.put(
        "prng.regen_ns_per_weight",
        regen.self_ns as f64 / tl.traced_regenerated.max(1) as f64,
        "ns",
    );
    let traced_p50 = median(&tl.traced_late_ms).unwrap_or(0.0);
    let untraced_p50 = median(&tl.untraced_late_ms).unwrap_or(0.0);
    rep.put(
        "telemetry.trace_overhead_pct",
        pct(traced_p50 - untraced_p50, untraced_p50),
        "%",
    );
    rep.note("traced_step_p50_ms", traced_p50);
    rep.note("untraced_step_p50_ms", untraced_p50);
    rep.note("traced_steps", tl.traced_steps);
    rep.note(
        "overhead_compared_steps",
        Json::Arr(vec![
            Json::from(tl.traced_late_ms.len()),
            Json::from(tl.untraced_late_ms.len()),
        ]),
    );
    rep.put(
        "telemetry.accounted_pct",
        pct(
            step.total_ns.saturating_sub(step.self_ns) as f64,
            step.total_ns as f64,
        ),
        "%",
    );
    // Where the traced step's wall time went on the step's own thread,
    // every span name, so nothing hides in an unnamed remainder.
    let mut rows: Vec<(&str, f64)> = d
        .main
        .iter()
        .map(|(name, a)| (*name, pct(a.self_ns as f64, step.total_ns as f64)))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rep.note(
        "step_self_pct_by_span",
        Json::Obj(
            rows.into_iter()
                .map(|(k, v)| (k.to_string(), Json::from(v)))
                .collect(),
        ),
    );
    rep.note("trace_events", tl.records.len());
}
