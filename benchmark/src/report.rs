//! What a workload run hands back: every metric by name and unit, the
//! bases behind the ratios, and the correctness verdict.

use crate::stats::windowed_tail;
use dropback::telemetry::Json;

/// End-to-end metrics every workload reports with tracing off, under the
/// names `BENCHMARK.json` gates. Each workload maps its own user-facing
/// numbers onto them (see the README).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics every traced run reports. A layer a workload does not
/// reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("data.batch_ms", "ms"),
    ("nn.loss_backward_ms", "ms"),
    ("nn.forward_self_ms", "ms"),
    ("nn.backward_self_ms", "ms"),
    ("nn.accuracy_ms", "ms"),
    ("tensor.gemm_self_ms", "ms"),
    ("tensor.gemm_busy_ms", "ms"),
    ("tensor.gemm_calls", "count"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.conv_self_ms", "ms"),
    ("tensor.pool_self_ms", "ms"),
    ("tensor.alloc_hwm_bytes", "bytes"),
    ("optim.step_ms", "ms"),
    ("optim.topk_rank_self_ms", "ms"),
    ("optim.regen_self_ms", "ms"),
    ("optim.update_self_ms", "ms"),
    ("optim.evictions_per_step", "count"),
    ("optim.regen_useful_ratio", "ratio"),
    ("prng.regen_ns_per_weight", "ns"),
    ("core.capture_ms", "ms"),
    ("core.save_ms", "ms"),
    ("core.load_ms", "ms"),
    ("serve.model_build_ms", "ms"),
    ("serve.infer_b1_ms", "ms"),
    ("serve.infer_b8_ms", "ms"),
    ("serve.queue_p50_ms", "ms"),
    ("serve.infer_p50_ms", "ms"),
    ("serve.infer_tail_ms", "ms"),
    ("serve.write_p50_ms", "ms"),
    ("serve.route_self_p50_ms", "ms"),
    ("serve.batch_fill_mean", "count"),
    ("serve.regens_per_batch", "count"),
    ("serve.swaps", "count"),
    ("serve.shed", "count"),
    ("client.send_lag_tail_ms", "ms"),
    ("client.transport_p50_ms", "ms"),
    ("telemetry.trace_overhead_pct", "%"),
    ("telemetry.accounted_pct", "%"),
];

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name.
    pub name: String,
    /// The reading.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Every metric measured, end-to-end and per-layer, by name.
    pub metrics: Vec<Metric>,
    /// Bases, sample counts, chosen percentiles and digests.
    pub info: Vec<(String, Json)>,
    /// Correctness checks that failed, one line each.
    pub failures: Vec<String>,
    /// Operations attempted (steps or requests).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
}

impl Report {
    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records an informational field.
    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.info.push((key.to_string(), value.into()));
    }

    /// Records a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records `name` as the lowest of `windows` window tails of `samples`
    /// (in arrival order), with each window's percentile and sample count
    /// beside it; a failed check when a window is too short.
    pub fn put_tail(&mut self, name: &str, samples: &[f64], windows: usize) -> Option<f64> {
        let Some((value, tails)) = windowed_tail(samples, windows) else {
            self.check(false, || {
                format!("{name}: {} samples are too few for a tail", samples.len())
            });
            return None;
        };
        self.put(name, value, "ms");
        let windows = tails
            .iter()
            .map(|t| {
                Json::Obj(vec![
                    ("value".into(), Json::from(t.value)),
                    ("pct".into(), Json::from(t.pct)),
                    ("samples".into(), Json::from(t.n)),
                ])
            })
            .collect();
        self.note(&format!("{name}.windows"), Json::Arr(windows));
        Some(value)
    }

    /// The value of metric `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Peak resident set of this process in MB (`VmHWM`), if readable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `part / whole` in percent, 0 when `whole` is not positive.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}
