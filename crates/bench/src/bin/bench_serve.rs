//! `BENCH_serve.json` — the serving-path load baseline.
//!
//! Boots a real in-process [`dropback_serve::Server`] on a loopback port
//! from a deterministic snapshot, then drives it closed-loop over actual
//! HTTP at several concurrency levels: each client thread holds one
//! keep-alive connection and fires its next `/infer` the moment the
//! previous reply lands. Latency quantiles are computed client-side from
//! the exact sorted per-request samples (not the server's log2-bucketed
//! histograms), so p50/p99 here are sharp; the server's own digest rides
//! along for batch-fill and regen counts.
//!
//! What to look for: batch fill should rise with concurrency (that is
//! micro-batching working — more rows share one regen sweep of the
//! untracked weights), so throughput should scale better than 1/latency.
//!
//! ```text
//! cargo run --release -p dropback-bench --bin bench_serve
//! ```
//!
//! Scale knobs: `DROPBACK_BENCH_CLIENTS` (max level, default 16),
//! `DROPBACK_BENCH_REQS` (requests per client, default 100). Timing goes
//! through `dropback_telemetry::Stopwatch`, the workspace's sanctioned
//! clock. How to read the output: docs/SERVING.md.

use dropback::prelude::*;
use dropback_bench::{banner, env_usize, seed};
use dropback_serve::client::infer_body;
use dropback_serve::{rt, Backoff, BatchConfig, HttpClient, Server, ServerConfig};
use dropback_telemetry::{Json, Stopwatch, TelemetrySnapshot};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

/// Writes one deterministic snapshot (a perturbed `mnist-100-100` with a
/// realistic tracked-entry count) and returns the directory.
fn prep_snapshot_dir(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dropback-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut net = models::mnist_100_100(seed);
    let mut opt = DropBack::new(20_000);
    opt.step(net.store_mut(), 0.0);
    for i in 0..20_000 {
        net.store_mut().params_mut()[(i * 4) % 89_610] = (i % 631) as f32 * 1e-3 - 0.3;
    }
    let progress = TrainProgress {
        next_epoch: 1,
        ..TrainProgress::fresh()
    };
    let state = TrainState::capture(&net, &opt, seed, &progress);
    let mut store = CheckpointStore::open(&dir).unwrap().keep(3);
    let mut tel = Telemetry::disabled();
    store.save(&state, &mut tel).unwrap();
    dir
}

/// The fixed probe input every client sends (dim 784, values in [-0.4, 0.6)).
fn probe_input() -> Vec<f32> {
    (0..784)
        .map(|i| ((i * 37) % 113) as f32 / 113.0 - 0.4)
        .collect()
}

/// One measured level: client-side latencies plus the server's digest.
struct LevelResult {
    clients: usize,
    requests: usize,
    wall_ns: u64,
    latencies_ns: Vec<u64>,
    digest: TelemetrySnapshot,
}

impl LevelResult {
    fn throughput_rps(&self) -> f64 {
        self.requests as f64 / (self.wall_ns as f64 / 1e9).max(1e-9)
    }

    /// Exact quantile from the sorted sample set (nearest-rank).
    fn quantile_us(&self, q: f64) -> f64 {
        let idx = ((self.latencies_ns.len() - 1) as f64 * q).round() as usize;
        self.latencies_ns[idx] as f64 / 1_000.0
    }

    fn digest_counter(&self, name: &str) -> u64 {
        self.digest
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    fn batch_fill_mean(&self) -> f64 {
        self.digest
            .histograms
            .iter()
            .find(|(n, _)| n == "serve.batch_fill")
            .map_or(0.0, |(_, h)| h.mean)
    }
}

/// Runs `clients` closed-loop connections of `reqs` requests each against
/// a fresh server over `dir`, so each level gets its own digest.
fn run_level(dir: &PathBuf, clients: usize, reqs: usize) -> LevelResult {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        batch: BatchConfig::default(),
        poll: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let store = CheckpointStore::open(dir).unwrap();
    let server = Server::start(cfg, store).unwrap();
    let addr = server.addr();

    // Warm the connection path and the first regen sweep untimed.
    let input = probe_input();
    let mut warm = HttpClient::connect(addr).unwrap();
    warm.infer(&input).unwrap();

    let (tx, rx) = mpsc::channel::<Vec<u64>>();
    let sw = Stopwatch::started();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let tx = tx.clone();
            rt::spawn(&format!("load-{c}"), move || {
                let input = probe_input();
                let mut client = HttpClient::connect(addr).unwrap();
                let mut lat = Vec::with_capacity(reqs);
                for _ in 0..reqs {
                    let one = Stopwatch::started();
                    client.infer(&input).unwrap();
                    lat.push(one.elapsed_ns().unwrap_or(0));
                }
                let _ = tx.send(lat);
            })
            .unwrap()
        })
        .collect();
    drop(tx);
    let mut latencies_ns: Vec<u64> = rx.iter().flatten().collect();
    let wall_ns = sw.elapsed_ns().unwrap_or(0);
    for w in workers {
        let _ = w.join();
    }
    latencies_ns.sort_unstable();
    let digest = server.stop();
    LevelResult {
        clients,
        requests: clients * reqs,
        wall_ns,
        latencies_ns,
        digest,
    }
}

/// What 2× overload looks like: shed rate and tail latency of the
/// requests that *do* get in.
struct OverloadResult {
    clients: usize,
    queue_cap: usize,
    successes: usize,
    shed: u64,
    attempts: u64,
    wall_ns: u64,
    latencies_ns: Vec<u64>,
}

impl OverloadResult {
    fn shed_rate(&self) -> f64 {
        self.shed as f64 / (self.attempts as f64).max(1.0)
    }

    fn throughput_rps(&self) -> f64 {
        self.successes as f64 / (self.wall_ns as f64 / 1e9).max(1e-9)
    }

    fn quantile_us(&self, q: f64) -> f64 {
        let idx = ((self.latencies_ns.len() - 1) as f64 * q).round() as usize;
        self.latencies_ns[idx] as f64 / 1_000.0
    }
}

/// Drives the server at ~2× its queue capacity: twice `queue_cap` clients
/// hammer a deliberately small queue, retrying every 503 after a seeded
/// jittered backoff ([`dropback_serve::Backoff`]) until each lands `reqs`
/// successes. Measures how much load the server refuses (shed rate) and
/// what the tail looks like for the requests it accepts.
fn run_overload(dir: &PathBuf, queue_cap: usize, reqs: usize) -> OverloadResult {
    let clients = queue_cap * 2;
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        batch: BatchConfig {
            queue_cap,
            ..BatchConfig::default()
        },
        poll: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let store = CheckpointStore::open(dir).unwrap();
    let server = Server::start(cfg, store).unwrap();
    let addr = server.addr();

    let input = probe_input();
    let mut warm = HttpClient::connect(addr).unwrap();
    warm.infer(&input).unwrap();

    // Each worker reports (success latencies, sheds, attempts).
    let (tx, rx) = mpsc::channel::<(Vec<u64>, u64, u64)>();
    let sw = Stopwatch::started();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let tx = tx.clone();
            rt::spawn(&format!("overload-{c}"), move || {
                let body = infer_body(&probe_input());
                let mut client = HttpClient::connect(addr).unwrap();
                let mut backoff = Backoff::new(
                    seed() ^ (c as u64).wrapping_mul(0x9E37_79B9),
                    Duration::from_micros(200),
                    Duration::from_millis(10),
                );
                let (mut lat, mut shed, mut attempts) = (Vec::with_capacity(reqs), 0u64, 0u64);
                while lat.len() < reqs {
                    attempts += 1;
                    let one = Stopwatch::started();
                    let resp = client.post("/infer", &body).unwrap();
                    match resp.status {
                        200 => {
                            lat.push(one.elapsed_ns().unwrap_or(0));
                            backoff.reset();
                        }
                        503 => {
                            shed += 1;
                            std::thread::sleep(backoff.next_delay());
                        }
                        other => panic!("unexpected status {other} under overload"),
                    }
                }
                let _ = tx.send((lat, shed, attempts));
            })
            .unwrap()
        })
        .collect();
    drop(tx);
    let (mut latencies_ns, mut shed, mut attempts) = (Vec::new(), 0u64, 0u64);
    for (lat, s, a) in rx.iter() {
        latencies_ns.extend(lat);
        shed += s;
        attempts += a;
    }
    let wall_ns = sw.elapsed_ns().unwrap_or(0);
    for w in workers {
        let _ = w.join();
    }
    latencies_ns.sort_unstable();
    let _ = server.stop();
    OverloadResult {
        clients,
        queue_cap,
        successes: clients * reqs,
        shed,
        attempts,
        wall_ns,
        latencies_ns,
    }
}

/// Reruns one mid-size level with request tracing on, exports the async
/// timeline to `trace_path` (Perfetto-loadable), and returns the
/// per-stage digest from `dropback::trace_analysis` — queue vs infer vs
/// write percentiles plus batch-fill stats — for the bench artifact.
fn run_traced_level(dir: &PathBuf, clients: usize, reqs: usize, trace_path: &str) -> Json {
    use dropback::telemetry::trace;
    trace::start_tracing();
    let level = run_level(dir, clients, reqs);
    // Connection handlers publish their lane-end events right after the
    // reply write; give the last stragglers a beat before draining the
    // buffer so the strict analyzer never sees a half-open lane.
    std::thread::sleep(Duration::from_millis(200));
    trace::stop_tracing();
    let mut records = trace::take_trace();
    // A handler descheduled between its reply write and its lane-end
    // events lands those ends in the buffer slightly late (they are
    // pushed even after stop_tracing, by design). If the strict analyzer
    // still sees an open lane, wait and merge the stragglers in.
    let (text, analysis) = loop {
        let mut buf = Vec::new();
        trace::write_chrome_trace(&mut buf, &records).unwrap();
        let text = String::from_utf8(buf).unwrap();
        match dropback::trace_analysis::analyze_chrome_trace(&text) {
            Ok(a) => break (text, a),
            Err(e) if records.len() < 1_000_000 => {
                std::thread::sleep(Duration::from_millis(200));
                let late = trace::take_trace();
                if late.is_empty() {
                    panic!("traced level produced an invalid trace: {e}");
                }
                records.extend(late);
                records.sort_by_key(|r| r.ts_ns);
            }
            Err(e) => panic!("traced level produced an invalid trace: {e}"),
        }
    };
    if let Err(e) = std::fs::write(trace_path, &text) {
        eprintln!("cannot write {trace_path}: {e}");
    }
    let aj = analysis.to_json();
    let section = |k: &str| aj.get(k).cloned().unwrap_or(Json::Null);
    Json::Obj(vec![
        ("clients".into(), Json::from(level.clients)),
        ("requests".into(), Json::from(level.requests)),
        ("events".into(), Json::from(records.len())),
        ("trace_file".into(), Json::from(trace_path)),
        ("async".into(), section("async")),
        ("batches".into(), section("batches")),
    ])
}

fn main() {
    banner(
        "BENCH serve",
        "closed-loop /infer load vs concurrency on one snapshot",
    );
    let max_clients = env_usize("DROPBACK_BENCH_CLIENTS", 16).max(2);
    let reqs = env_usize("DROPBACK_BENCH_REQS", 100).max(1);
    let dir = prep_snapshot_dir(seed());

    // 1, 4, 16, ... up to the configured ceiling — always >= 2 levels.
    let mut levels = vec![1usize];
    while *levels.last().unwrap() * 4 <= max_clients {
        levels.push(levels.last().unwrap() * 4);
    }
    if levels.len() < 2 {
        levels.push(max_clients);
    }

    println!("closed-loop clients x {reqs} reqs each (client-side exact quantiles):");
    println!("  clients  reqs    rps        p50_ms     p99_ms     batch_fill");
    let mut rows = Vec::new();
    for &clients in &levels {
        let level = run_level(&dir, clients, reqs);
        println!(
            "  {:<8} {:<7} {:<10.1} {:<10.3} {:<10.3} {:.2}",
            level.clients,
            level.requests,
            level.throughput_rps(),
            level.quantile_us(0.50) / 1_000.0,
            level.quantile_us(0.99) / 1_000.0,
            level.batch_fill_mean(),
        );
        rows.push(level);
    }

    // The overload level: twice as many clients as queue slots, retrying
    // 503s with seeded backoff. The interesting numbers are the shed rate
    // (how much the server refuses) and the p99 of what it accepts (the
    // queue bound keeping the tail flat instead of unbounded).
    let queue_cap = (max_clients / 2).max(2);
    let overload = run_overload(&dir, queue_cap, reqs);
    println!(
        "\noverload 2x: {} clients vs queue_cap {} -> shed rate {:.1}% over {} attempts,\n\
         \x20 accepted p50 {:.3}ms p99 {:.3}ms at {:.1} rps",
        overload.clients,
        overload.queue_cap,
        overload.shed_rate() * 100.0,
        overload.attempts,
        overload.quantile_us(0.50) / 1_000.0,
        overload.quantile_us(0.99) / 1_000.0,
        overload.throughput_rps(),
    );

    // One traced rerun at a mid level: the exported timeline goes next
    // to the artifact, and its per-stage digest (queue vs infer vs write)
    // rides in the JSON under "trace".
    let traced_clients = levels[levels.len() / 2];
    let trace_digest = run_traced_level(&dir, traced_clients, reqs, "BENCH_serve.trace.json");
    println!(
        "\ntraced rerun at {traced_clients} clients: {} events -> BENCH_serve.trace.json",
        trace_digest
            .get("events")
            .and_then(Json::as_u64)
            .unwrap_or(0)
    );

    let base = rows[0].throughput_rps();
    let peak = rows
        .iter()
        .map(LevelResult::throughput_rps)
        .fold(base, f64::max);
    println!(
        "\npeak throughput {:.1} rps ({:.2}x the 1-client baseline);",
        peak,
        peak / base.max(1e-9)
    );
    println!("batch fill rising with clients = micro-batching amortizing the");
    println!("regen sweep across rows (see docs/SERVING.md)");

    let level_json = |l: &LevelResult| {
        Json::Obj(vec![
            ("clients".into(), Json::from(l.clients)),
            ("requests".into(), Json::from(l.requests)),
            ("throughput_rps".into(), Json::from(l.throughput_rps())),
            ("p50_us".into(), Json::from(l.quantile_us(0.50))),
            ("p90_us".into(), Json::from(l.quantile_us(0.90))),
            ("p99_us".into(), Json::from(l.quantile_us(0.99))),
            ("batch_fill_mean".into(), Json::from(l.batch_fill_mean())),
            (
                "batches".into(),
                Json::from(l.digest_counter("serve.batches")),
            ),
            (
                "regens".into(),
                Json::from(l.digest_counter("serve.regens")),
            ),
            (
                "stored_reads".into(),
                Json::from(l.digest_counter("serve.stored_reads")),
            ),
        ])
    };
    let json = Json::Obj(vec![
        (
            "host_parallelism".into(),
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("model".into(), Json::from("mnist-100-100")),
        ("reqs_per_client".into(), Json::from(reqs)),
        ("seed".into(), Json::from(seed())),
        (
            "levels".into(),
            Json::Arr(rows.iter().map(level_json).collect()),
        ),
        (
            "overload".into(),
            Json::Obj(vec![
                ("clients".into(), Json::from(overload.clients)),
                ("queue_cap".into(), Json::from(overload.queue_cap)),
                ("successes".into(), Json::from(overload.successes)),
                ("shed".into(), Json::from(overload.shed)),
                ("attempts".into(), Json::from(overload.attempts)),
                ("shed_rate".into(), Json::from(overload.shed_rate())),
                (
                    "throughput_rps".into(),
                    Json::from(overload.throughput_rps()),
                ),
                ("p50_us".into(), Json::from(overload.quantile_us(0.50))),
                ("p99_us".into(), Json::from(overload.quantile_us(0.99))),
            ]),
        ),
        ("trace".into(), trace_digest),
    ]);
    let path = "BENCH_serve.json";
    match std::fs::write(path, json.render() + "\n") {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("cannot write {path}: {e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
