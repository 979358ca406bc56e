//! The DropBack benchmark: one command, three workloads, every end-to-end
//! and per-layer metric by name and unit, and the correctness checks that
//! make the numbers worth comparing.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload train-mlp|train-conv|serve-swap|all --seed N --seconds S --trace 0|1
//! ```
//!
//! stderr carries a readable table; stdout carries one detail line (every
//! metric, its bases, provenance) and, last, the result line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer ones
//! (`--trace 1`). Exit code 0 only when every check passed. See
//! `benchmark/README.md`.

mod layers;
mod report;
mod serve;
mod stats;
mod train;

use dropback::telemetry::{Json, Stopwatch};
use dropback::tensor::{pool, simd};
use report::{Report, END_TO_END, PER_LAYER};
use std::process::{Command, ExitCode};

/// `setup_s` is the median of this many set-ups, each in a fresh process.
const SETUP_SAMPLES: usize = 9;

const WORKLOADS: [&str; 3] = ["train-mlp", "train-conv", "serve-swap"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn usage() -> String {
    "usage: dropback-benchmark --workload train-mlp|train-conv|serve-swap|all \
     --seed N --seconds S --trace 0|1"
        .to_string()
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut i = 0;
    while i < raw.len() {
        let flag = raw[i].as_str();
        if flag == "--setup-only" {
            a.setup_only = true;
            i += 1;
            continue;
        }
        let v = raw
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?,
            "--seconds" => {
                a.seconds = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err(format!("--seconds {v} outside (0, 600]"));
                }
            }
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}\n{}", usage())),
        }
        i += 2;
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}\n{}", a.workload, usage()));
    }
    Ok(a)
}

/// Runs one set-up and returns its seconds.
fn setup_once(workload: &str, seed: u64) -> Result<f64, String> {
    let sw = Stopwatch::started();
    match workload {
        "train-mlp" => drop(train::setup(&train::MLP, seed)),
        "train-conv" => drop(train::setup(&train::CONV, seed)),
        _ => {
            let rig = serve::setup(seed)?;
            let s = sw.elapsed_ns().unwrap_or(0) as f64 / 1e9;
            drop(rig);
            return Ok(s);
        }
    }
    Ok(sw.elapsed_ns().unwrap_or(0) as f64 / 1e9)
}

/// Set-up times from fresh processes of this same binary.
fn setup_samples(a: &Args, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..n)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--workload", &a.workload, "--seed", &a.seed.to_string()])
                .arg("--setup-only")
                .output()
                .map_err(|e| format!("set-up child: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                return Err(format!(
                    "set-up child failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            text.lines()
                .last()
                .and_then(|l| l.trim().parse().ok())
                .ok_or_else(|| format!("set-up child printed {text:?}"))
        })
        .collect()
}

fn run_workload(a: &Args, workload: &str) -> Result<Report, String> {
    let mut rep = match workload {
        "train-mlp" => train::run(&train::MLP, a.seed, a.seconds, a.trace),
        "train-conv" => train::run(&train::CONV, a.seed, a.seconds, a.trace),
        _ => serve::run(a.seed, a.seconds, a.trace)?,
    };
    if !a.trace {
        let own = rep.get("setup_s").unwrap_or(0.0);
        let sub = Args {
            workload: workload.to_string(),
            ..*a
        };
        let mut samples = setup_samples(&sub, SETUP_SAMPLES - 1)?;
        samples.push(own);
        let med = stats::median(&samples).unwrap_or(own);
        rep.metrics.retain(|m| m.name != "setup_s");
        rep.put("setup_s", med, "s");
        rep.note(
            "setup_samples_s",
            Json::Arr(samples.into_iter().map(Json::from).collect()),
        );
    }
    Ok(rep)
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string())
}

fn provenance(a: &Args, workload: &str) -> Json {
    let argv: Vec<Json> = std::env::args().map(Json::from).collect();
    Json::Obj(vec![
        ("command".into(), Json::Arr(argv)),
        ("git_rev".into(), Json::from(git_rev())),
        (
            "nproc".into(),
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("simd_active".into(), Json::from(simd::simd_active())),
        ("pool_threads".into(), Json::from(pool::threads())),
        ("seed".into(), Json::from(a.seed)),
        ("workload".into(), Json::from(workload)),
        ("seconds".into(), Json::from(a.seconds)),
        ("trace".into(), Json::from(a.trace)),
    ])
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::Obj(vec![
        ("value".into(), Json::from(value)),
        ("unit".into(), Json::from(unit)),
    ])
}

/// Prints the table and the detail line; returns the result line.
fn emit(a: &Args, workload: &str, rep: &mut Report) -> Json {
    let wanted = if a.trace { PER_LAYER } else { END_TO_END };
    let mut gated = Vec::new();
    for &(name, unit) in wanted {
        let value = match rep.get(name) {
            Some(v) => v,
            // A layer this workload never reaches.
            None if a.trace => 0.0,
            None => {
                rep.check(false, || format!("end-to-end metric {name} not measured"));
                0.0
            }
        };
        rep.check(value.is_finite(), || format!("{name} is not finite"));
        gated.push((name.to_string(), metric_json(value, unit)));
    }
    let correct = rep.failures.is_empty();

    eprintln!(
        "== {workload} (seed {}, {} s, trace {})",
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    for m in &rep.metrics {
        eprintln!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for (k, v) in &rep.info {
        eprintln!("  {k:<32} {}", v.render());
    }
    for f in &rep.failures {
        eprintln!("  FAILED: {f}");
    }
    eprintln!("  correct: {correct}");

    let detail = Json::Obj(vec![
        ("provenance".into(), provenance(a, workload)),
        (
            "metrics".into(),
            Json::Obj(
                rep.metrics
                    .iter()
                    .map(|m| (m.name.clone(), metric_json(m.value, m.unit)))
                    .collect(),
            ),
        ),
        ("info".into(), Json::Obj(rep.info.clone())),
        (
            "failures".into(),
            Json::Arr(
                rep.failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", detail.render());
    Json::Obj(vec![
        ("correct".into(), Json::from(correct)),
        ("attempted".into(), Json::from(rep.attempted.max(1))),
        ("failed".into(), Json::from(rep.failed)),
        ("metrics".into(), Json::Obj(gated)),
    ])
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if a.setup_only {
        return match setup_once(&a.workload, a.seed) {
            Ok(s) => {
                println!("{s}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("set-up failed: {e}");
                ExitCode::from(2)
            }
        };
    }
    let workloads: Vec<&str> = if a.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![a.workload.as_str()]
    };
    let mut all_correct = true;
    let mut results = Vec::new();
    for w in workloads {
        let mut rep = match run_workload(&a, w) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{w}: {e}");
                return ExitCode::from(2);
            }
        };
        let result = emit(&a, w, &mut rep);
        all_correct &= rep.failures.is_empty();
        results.push((w, result));
    }
    // The result line comes last. With `all`, one object per workload.
    let last = match results.as_slice() {
        [(_, r)] => r.clone(),
        _ => Json::Obj(
            results
                .into_iter()
                .map(|(w, r)| (w.to_string(), r))
                .collect(),
        ),
    };
    println!("{}", last.render());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
