//! Dependency-free microbenchmarks for the DropBack substrate
//! (`cargo bench -p dropback-bench`).
//!
//! These quantify the per-operation costs behind the paper's argument:
//! regeneration vs memory reads, DropBack's step overhead vs plain SGD,
//! top-k selection, the GEMM/conv kernels everything sits on, and the
//! telemetry layer's disabled-span overhead (which must be negligible).
//!
//! A hand-rolled harness replaces criterion so the workspace builds
//! offline: each benchmark warms up, then runs timed iterations until a
//! wall-clock budget is spent, reporting min/mean/p50/p90 from the raw
//! samples. Set `DROPBACK_TELEMETRY=bench.jsonl` to capture every result
//! as a structured event.

use dropback::prelude::*;
use dropback_bench::{telemetry_from_env, Table};
use dropback_prng::{regen_normal, regen_normal_fast};
use dropback_tensor::conv::{conv2d_forward, ConvGeom};
use dropback_tensor::{matmul, Tensor};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-iteration wall-clock samples for one benchmark.
struct BenchResult {
    name: String,
    iters: usize,
    min_ns: u64,
    mean_ns: u64,
    p50_ns: u64,
    p90_ns: u64,
}

/// Runs `f` repeatedly: a short warm-up, then timed iterations until
/// `budget` is spent (at least `MIN_ITERS`, at most `MAX_ITERS`).
fn bench(name: &str, budget: Duration, mut f: impl FnMut()) -> BenchResult {
    const MIN_ITERS: usize = 5;
    const MAX_ITERS: usize = 200;
    // Warm-up: two unmeasured runs (page-in, branch predictors, allocator).
    f();
    f();
    let mut samples: Vec<u64> = Vec::new();
    let started = Instant::now();
    while (samples.len() < MIN_ITERS || started.elapsed() < budget) && samples.len() < MAX_ITERS {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    samples.sort_unstable();
    let n = samples.len();
    let pct = |p: f64| samples[(((n - 1) as f64) * p).round() as usize];
    BenchResult {
        name: name.to_string(),
        iters: n,
        min_ns: samples[0],
        mean_ns: (samples.iter().sum::<u64>() / n as u64),
        p50_ns: pct(0.50),
        p90_ns: pct(0.90),
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn rand_tensor(shape: Vec<usize>, seed: u64) -> Tensor {
    let mut state = seed.max(1);
    Tensor::from_fn(shape, |_| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 40) as f32 / (1u32 << 24) as f32) - 0.5
    })
}

fn main() {
    let budget = Duration::from_millis(dropback_bench::env_usize("DROPBACK_BENCH_MS", 500) as u64);
    let mut results: Vec<BenchResult> = Vec::new();

    // GEMM kernels.
    for &n in &[32usize, 128] {
        let a = rand_tensor(vec![n, n], 1);
        let b = rand_tensor(vec![n, n], 2);
        results.push(bench(&format!("gemm/matmul_{n}x{n}"), budget, || {
            black_box(matmul(black_box(&a), black_box(&b)));
        }));
    }

    // Convolution.
    {
        let geom = ConvGeom {
            c: 16,
            h: 16,
            w: 16,
            kh: 3,
            kw: 3,
            stride: 1,
            pad: 1,
            dilation: 1,
        };
        let x = rand_tensor(vec![4, 16, 16, 16], 3);
        let w = rand_tensor(vec![32, 16 * 9], 4);
        results.push(bench("conv/conv2d_16ch_16x16_b4", budget, || {
            black_box(conv2d_forward(black_box(&x), black_box(&w), None, geom));
        }));
    }

    // Regeneration vs a stored-table read: the paper's energy argument.
    {
        const N: u64 = 200_000;
        let table: Vec<f32> = (0..N).map(|i| regen_normal(7, i)).collect();
        results.push(bench("regen/regen_normal_200k", budget, || {
            let mut acc = 0.0f32;
            for i in 0..N {
                acc += regen_normal(7, i);
            }
            black_box(acc);
        }));
        results.push(bench("regen/regen_normal_fast_200k", budget, || {
            let mut acc = 0.0f32;
            for i in 0..N {
                acc += regen_normal_fast(7, i);
            }
            black_box(acc);
        }));
        results.push(bench("regen/table_read_200k", budget, || {
            let mut acc = 0.0f32;
            for &v in &table {
                acc += v;
            }
            black_box(acc);
        }));
    }

    // Top-k selection at the paper's LeNet scale.
    {
        let scores: Vec<f32> = (0..266_610u64).map(|i| regen_normal(9, i).abs()).collect();
        results.push(bench("topk/top_k_mask_266k_k20k", budget, || {
            black_box(dropback::optim::top_k_mask(black_box(&scores), 20_000));
        }));
    }

    // Optimizer steps on a 90k-parameter store with fresh gradients.
    {
        let build = || {
            let mut net = models::mnist_100_100(42);
            let x = rand_tensor(vec![64, 784], 5);
            let labels: Vec<usize> = (0..64).map(|i| i % 10).collect();
            let _ = net.loss_backward(&x, &labels);
            net
        };
        let mut net = build();
        results.push(bench("optimizer/sgd_90k", budget, || {
            Sgd::new().step(net.store_mut(), 0.1);
            black_box(net.store().params()[0]);
        }));
        let mut net = build();
        results.push(bench("optimizer/dropback_90k_k20k", budget, || {
            DropBack::new(20_000).step(net.store_mut(), 0.1);
            black_box(net.store().params()[0]);
        }));
    }

    // Full forward+backward training steps.
    {
        let x = rand_tensor(vec![64, 784], 6);
        let labels: Vec<usize> = (0..64).map(|i| i % 10).collect();
        let mut net = models::mnist_100_100(42);
        results.push(bench("train/mnist_100_100_fwd_bwd_b64", budget, || {
            black_box(net.loss_backward(black_box(&x), black_box(&labels)));
        }));
        let xc = rand_tensor(vec![8, 3, 16, 16], 7);
        let labels_c: Vec<usize> = (0..8).map(|i| i % 10).collect();
        let mut net = models::vgg_s_nano(42);
        results.push(bench("train/vgg_s_nano_fwd_bwd_b8", budget, || {
            black_box(net.loss_backward(black_box(&xc), black_box(&labels_c)));
        }));
    }

    // Telemetry overhead: a disabled span must cost one atomic load.
    {
        dropback::telemetry::set_enabled(false);
        results.push(bench("telemetry/span_disabled_100k", budget, || {
            for _ in 0..100_000 {
                let _s = dropback::telemetry::Span::enter("bench-noop");
                black_box(&_s);
            }
        }));
    }

    let mut t = Table::new(&["benchmark", "iters", "min", "mean", "p50", "p90"]);
    for r in &results {
        t.row(&[
            &r.name,
            &r.iters,
            &fmt_ns(r.min_ns),
            &fmt_ns(r.mean_ns),
            &fmt_ns(r.p50_ns),
            &fmt_ns(r.p90_ns),
        ]);
    }
    println!("{}", t.render());

    let mut telemetry = telemetry_from_env();
    for r in &results {
        telemetry.emit(
            Event::new("bench")
                .with("name", r.name.as_str())
                .with("iters", r.iters)
                .with("min_ns", r.min_ns)
                .with("mean_ns", r.mean_ns)
                .with("p50_ns", r.p50_ns)
                .with("p90_ns", r.p90_ns),
        );
    }
    telemetry.flush();
}
