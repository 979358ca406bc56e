//! The `serve-swap` workload: an in-process `Server` booted from a seeded
//! mnist-100-100 snapshot, driven open-loop over real HTTP while a writer
//! saves a new snapshot about every second, so the watcher hot-swaps
//! under load.
//!
//! Threads: one generator thread drives every connection (at most two,
//! and at most `nproc`), and the calling thread is the snapshot writer, so
//! the benchmark itself never runs more than two threads.

use crate::layers;
use crate::report::{pct, peak_rss_mb, Report};
use crate::stats::{
    backlog_growth, drive, median, percentile, quietest_window, schedule, self_time_ns, sorted,
    tail, Clock, Link, Outcome,
};
use crate::train::build_optimizer;
use dropback::nn::{models, Mode, Network};
use dropback::prelude::{Checkpoint, CheckpointStore, Tensor, TrainProgress, TrainState};
use dropback::prng::Xorshift64;
use dropback::telemetry::{trace, Json, Span, Stopwatch, Telemetry, TelemetrySnapshot};
use dropback_serve::client::infer_body;
use dropback_serve::rt::{self, Monitor};
use dropback_serve::{http, Server, ServerConfig, ServingModel};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Entries each snapshot stores: the paper's k.
const K: usize = 20_000;
/// Distinct request inputs, cycled.
const INPUTS: usize = 64;
/// Input width of mnist-100-100.
const IN_DIM: usize = 784;
/// The fixed low and high offered rates.
const LO_RPS: f64 = 50.0;
const HI_RPS: f64 = 80.0;
/// Tails are read in windows of about this many requests, so each is read
/// at p90, above the few percent of requests a swap delays: it reads the
/// steady state. `lo` lasts long enough for six windows, so a few seconds
/// of host slowness leave some window undisturbed.
const TAIL_WINDOW_REQUESTS: usize = 100;
const LO_SECONDS: f64 = 12.0;
/// The rising-rate phase: probes of `PROBE_S` each climb by
/// `SEARCH_GROWTH` from the highest passing fixed rate until one misses
/// the limits, then `SEARCH_BISECT` probes bisect between the last pass
/// and the first miss.
const PROBE_S: f64 = 2.0;
const SEARCH_GROWTH: f64 = 1.25;
const SEARCH_BISECT: usize = 3;
const SEARCH_MAX_PROBES: usize = 12;
/// Requests in each `peak-*` burst, all due at once: the two connections
/// then run back to back, and a burst's completion rate is its peak
/// throughput. Three bursts are spread over the run and the fastest is
/// reported, since a slow second of the host only ever lowers a rate.
const PEAK_REQUESTS: usize = 300;
/// The limits `max_rps` must keep: the tail, and backlog growth (in
/// requests) over the phase.
const TAIL_LIMIT_MS: f64 = 25.0;
const BACKLOG_GROWTH_LIMIT: f64 = 4.0;
/// A new snapshot this often.
const SAVE_EVERY: Duration = Duration::from_millis(1000);
/// How long the generator waits on one busy connection while another
/// might be ready.
const POLL_NS: u64 = 100_000;
/// Logit agreement with the dense reference forward (the server's
/// streaming evaluator sums in another order).
pub const LOGIT_TOL: f32 = 1e-4;

/// A working directory under the current directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.bench_work/<tag>-<pid>` under the current directory.
    ///
    /// # Errors
    ///
    /// The directory cannot be created.
    pub fn new(tag: &str) -> Result<Self, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once the last run's directory is gone.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The snapshot writer: a never-stepped optimizer (so `TrainState::capture`
/// has one), the network it perturbs, and for every generation it saved
/// the reference logits of the request inputs.
struct Writer {
    seed: u64,
    net: Network,
    init: Vec<f32>,
    opt: Box<dyn dropback::optim::Optimizer>,
    store: CheckpointStore,
    tel: Telemetry,
    generation: usize,
    /// The request inputs as one batch, and the network the references
    /// are computed on.
    inputs: Tensor,
    reference: Network,
    /// `Network::forward` logits of every input, by generation.
    refs: BTreeMap<usize, Vec<f32>>,
    last: Option<TrainState>,
    capture_ms: Vec<f64>,
    save_ms: Vec<f64>,
    load_ms: Vec<f64>,
    build_ms: Vec<f64>,
}

fn ms_since(sw: &Stopwatch) -> f64 {
    sw.elapsed_ns().unwrap_or(0) as f64 / 1e6
}

impl Writer {
    fn new(seed: u64, dir: &Path, inputs: &[Vec<f32>]) -> Result<Self, String> {
        let net = models::mnist_100_100(seed);
        let init = net.store().regen_initial();
        let store = CheckpointStore::open(dir)
            .map_err(|e| e.to_string())?
            .keep(3);
        let flat: Vec<f32> = inputs.iter().flatten().copied().collect();
        Ok(Self {
            seed,
            net,
            init,
            opt: build_optimizer(K, None),
            store,
            tel: Telemetry::disabled(),
            generation: 0,
            inputs: Tensor::from_vec(vec![inputs.len(), IN_DIM], flat),
            reference: models::mnist_100_100(seed),
            refs: BTreeMap::new(),
            last: None,
            capture_ms: Vec::new(),
            save_ms: Vec::new(),
            load_ms: Vec::new(),
            build_ms: Vec::new(),
        })
    }

    /// Writes generation `self.generation`: K seeded entries over the
    /// init weights, captured and saved (each call timed), then the
    /// generation's reference logits: `Network::forward` on a network
    /// with the generation's checkpoint applied.
    fn save_next(&mut self) -> Result<(), String> {
        let g = self.generation;
        let params = self.net.store_mut().params_mut();
        params.copy_from_slice(&self.init);
        let mut rng =
            Xorshift64::new(self.seed ^ (g as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let n = params.len() as u64;
        for _ in 0..K {
            let i = (rng.next_u64() % n) as usize;
            params[i] = self.init[i] + (rng.next_f32() - 0.5) * 0.2;
        }
        let progress = TrainProgress {
            next_epoch: g,
            ..TrainProgress::fresh()
        };
        let sw = Stopwatch::started();
        let state = {
            let _s = Span::enter("bench.capture");
            TrainState::capture(&self.net, self.opt.as_ref(), self.seed, &progress)
        };
        self.capture_ms.push(ms_since(&sw));
        let sw = Stopwatch::started();
        {
            let _s = Span::enter("bench.save");
            self.store
                .save(&state, &mut self.tel)
                .map_err(|e| format!("save generation {g}: {e}"))?;
        }
        self.save_ms.push(ms_since(&sw));

        let mut mask = vec![false; self.init.len()];
        for &(i, _) in &state.entries {
            *mask
                .get_mut(i as usize)
                .ok_or_else(|| format!("entry {i} out of range"))? = true;
        }
        let ckpt = Checkpoint::from_mask(&self.net, &mask).map_err(|e| e.to_string())?;
        self.reference
            .store_mut()
            .params_mut()
            .copy_from_slice(&self.init);
        ckpt.apply(&mut self.reference).map_err(|e| e.to_string())?;
        let logits = self.reference.forward(&self.inputs, Mode::Eval);
        self.refs.insert(g, logits.data().to_vec());
        self.last = Some(state);
        self.generation += 1;
        Ok(())
    }

    /// Loads the newest snapshot back `rounds` times and builds a serving
    /// model from it each time, timing both; every load must equal the
    /// state that was saved. Runs with the server stopped, so the timings
    /// see no contention.
    fn load_back(&mut self, rounds: usize) -> Result<ServingModel, String> {
        let want = self.last.clone().ok_or("no generation was saved")?;
        let mut model = None;
        for _ in 0..rounds.max(1) {
            let sw = Stopwatch::started();
            let loaded = {
                let _s = Span::enter("bench.load");
                self.store
                    .load_latest(&mut self.tel)
                    .map_err(|e| format!("load latest generation: {e}"))?
            };
            self.load_ms.push(ms_since(&sw));
            if loaded.as_ref() != Some(&want) {
                return Err("the latest generation did not survive save and load".into());
            }
            let sw = Stopwatch::started();
            let built = {
                let _s = Span::enter("bench.model_build");
                ServingModel::from_state(&want, self.store.dir()).map_err(|e| e.to_string())?
            };
            self.build_ms.push(ms_since(&sw));
            model = Some(built);
        }
        model.ok_or_else(|| "no model built".to_string())
    }
}

/// The seeded request inputs, pixel-like values in `[0, 1)`.
fn inputs(seed: u64) -> Vec<Vec<f32>> {
    let mut rng = Xorshift64::new(seed ^ 0x1A7E_57ED);
    (0..INPUTS)
        .map(|_| (0..IN_DIM).map(|_| rng.next_f32()).collect())
        .collect()
}

/// One parsed `/infer` reply.
#[derive(Debug, Clone)]
pub struct Reply {
    status: u16,
    id: u64,
    epoch: usize,
    argmax: usize,
    logits: Vec<f32>,
}

/// One keep-alive connection with a hand-rolled, poll-friendly response
/// reader (a blocking reader cannot be abandoned mid-response to serve
/// the other connection).
struct HttpLink {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
    bodies: Arc<Vec<String>>,
    /// Set when the connection failed; the next send reconnects.
    broken: bool,
}

impl HttpLink {
    fn connect(addr: SocketAddr, bodies: Arc<Vec<String>>) -> Result<Self, String> {
        Ok(Self {
            addr,
            stream: Self::open(addr)?,
            buf: Vec::with_capacity(4096),
            bodies,
            broken: false,
        })
    }

    fn open(addr: SocketAddr) -> Result<TcpStream, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        Ok(stream)
    }

    fn fail(&mut self, e: impl ToString) -> String {
        self.broken = true;
        e.to_string()
    }

    /// Splits one complete response off the buffer, if there is one.
    fn take_response(&mut self) -> Result<Option<Reply>, String> {
        let Some(head_end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|e| e.to_string())?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())
                    .flatten()
            })
            .ok_or("response without Content-Length")?;
        let total = head_end + 4 + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = std::str::from_utf8(&self.buf[head_end + 4..total])
            .map_err(|e| e.to_string())?
            .to_string();
        self.buf.drain(..total);
        if status != 200 {
            return Ok(Some(Reply {
                status,
                id: 0,
                epoch: 0,
                argmax: 0,
                logits: Vec::new(),
            }));
        }
        let json = Json::parse(&body)?;
        let num = |k: &str| {
            json.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("reply without `{k}`"))
        };
        let logits = json
            .get("logits")
            .and_then(Json::as_array)
            .ok_or("reply without logits")?
            .iter()
            .map(|v| v.as_f64().map(|f| f as f32))
            .collect::<Option<Vec<f32>>>()
            .ok_or("non-numeric logit")?;
        Ok(Some(Reply {
            status,
            id: num("id")?,
            epoch: num("epoch")? as usize,
            argmax: num("argmax")? as usize,
            logits,
        }))
    }
}

impl Link for HttpLink {
    type Reply = Reply;

    fn send(&mut self, index: usize) -> Result<(), String> {
        if self.broken {
            self.stream = Self::open(self.addr)?;
            self.buf.clear();
            self.broken = false;
        }
        let body = &self.bodies[index % self.bodies.len()];
        http::write_request(&mut self.stream, "POST", "/infer", body).map_err(|e| self.fail(e))
    }

    fn poll(&mut self, _clock: &mut dyn Clock, wait_ns: u64) -> Result<Option<Reply>, String> {
        if let Some(r) = self.take_response().map_err(|e| self.fail(e))? {
            return Ok(Some(r));
        }
        self.stream
            .set_read_timeout(Some(Duration::from_nanos(wait_ns.max(1_000))))
            .map_err(|e| self.fail(e))?;
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(self.fail("server closed the connection")),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                self.take_response().map_err(|e| self.fail(e))
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
            Err(e) => Err(self.fail(e)),
        }
    }
}

/// The generator's clock: the telemetry stopwatch, and a real sleep.
struct WallClock(Stopwatch);

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed_ns().unwrap_or(0)
    }
    fn sleep_ns(&mut self, ns: u64) {
        std::thread::sleep(Duration::from_nanos(ns));
    }
}

/// One offered-rate phase.
#[derive(Debug, Clone)]
struct PhasePlan {
    name: String,
    rps: f64,
    count: usize,
    traced: bool,
}

impl PhasePlan {
    /// Whether this is one of the `peak-*` bursts.
    fn is_peak(&self) -> bool {
        self.name.starts_with("peak")
    }
}

/// What a phase measured.
struct Phase {
    plan: PhasePlan,
    outcomes: Vec<Outcome<Reply>>,
}

impl Phase {
    fn ok(&self) -> impl Iterator<Item = (&Outcome<Reply>, &Reply)> {
        self.outcomes.iter().filter_map(|o| match &o.reply {
            Ok(r) if r.status == 200 => Some((o, r)),
            _ => None,
        })
    }

    fn latencies_ms(&self) -> Vec<f64> {
        sorted(
            &self
                .ok()
                .map(|(o, _)| o.latency_ns() as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    fn counts(&self) -> (usize, usize, usize) {
        let mut ok = 0;
        let mut shed = 0;
        let mut failed = 0;
        for o in &self.outcomes {
            match &o.reply {
                Ok(r) if r.status == 200 => ok += 1,
                Ok(r) if r.status == 503 => shed += 1,
                _ => failed += 1,
            }
        }
        (ok, shed, failed)
    }

    /// Backlog growth over the phase, in requests.
    fn backlog_growth(&self) -> f64 {
        let dd: Vec<(u64, Option<u64>)> = self
            .outcomes
            .iter()
            .map(|o| (o.due_ns, Some(o.done_ns)))
            .collect();
        backlog_growth(&dd)
    }

    /// Whether the phase met the limits `max_rps` is defined by.
    fn meets_limits(&self) -> bool {
        let (ok, shed, failed) = self.counts();
        let tail_ok = tail(&self.latencies_ms()).is_some_and(|t| t.value <= TAIL_LIMIT_MS);
        ok > 0
            && shed == 0
            && failed == 0
            && tail_ok
            && self.backlog_growth() <= BACKLOG_GROWTH_LIMIT
    }
}

/// Drives one phase on `links`.
fn run_phase(plan: PhasePlan, links: &mut [HttpLink], clock: &mut WallClock) -> Phase {
    let start = clock.now_ns() + 2_000_000;
    let due = schedule(start, plan.rps, plan.count);
    if plan.traced {
        trace::start_tracing();
    }
    let outcomes = drive(&due, links, clock, POLL_NS);
    if plan.traced {
        trace::stop_tracing();
    }
    Phase { plan, outcomes }
}

/// Runs `plans` in order on the generator thread, then, with `search`,
/// the rising-rate probes.
fn run_phases(
    addr: SocketAddr,
    bodies: Arc<Vec<String>>,
    conns: usize,
    plans: Vec<PhasePlan>,
    search: bool,
) -> Result<Vec<Phase>, String> {
    let mut links = (0..conns)
        .map(|_| HttpLink::connect(addr, Arc::clone(&bodies)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut clock = WallClock(Stopwatch::started());
    let mut phases: Vec<Phase> = plans
        .into_iter()
        .map(|p| run_phase(p, &mut links, &mut clock))
        .collect();
    if !search {
        return Ok(phases);
    }
    let mut pass = phases
        .iter()
        .filter(|p| !p.plan.is_peak() && p.meets_limits())
        .map(|p| p.plan.rps)
        .fold(0.0, f64::max);
    let mut fail: Option<f64> = None;
    let mut bisected = 0;
    for i in 0..SEARCH_MAX_PROBES {
        if pass <= 0.0 || bisected == SEARCH_BISECT {
            break;
        }
        let rps = match fail {
            None => pass * SEARCH_GROWTH,
            Some(f) => {
                bisected += 1;
                (pass + f) / 2.0
            }
        };
        let probe = run_phase(
            plan(&format!("probe-{i}"), rps, PROBE_S, false),
            &mut links,
            &mut clock,
        );
        if probe.meets_limits() {
            pass = rps;
        } else {
            fail = Some(rps);
        }
        phases.push(probe);
    }
    Ok(phases)
}

/// A booted server plus what the run needs to drive and check it.
pub struct Rig {
    server: Server,
    writer: Writer,
    bodies: Arc<Vec<String>>,
    dir: WorkDir,
}

/// Set-up: inputs, generation 0 on disk, `Server::start`, and the first
/// 200 reply. The time this takes is `setup_s`.
///
/// # Errors
///
/// Any step of the set-up failing.
pub fn setup(seed: u64) -> Result<Rig, String> {
    let dir = WorkDir::new("serve")?;
    let inputs = inputs(seed);
    let bodies = Arc::new(inputs.iter().map(|x| infer_body(x)).collect::<Vec<_>>());
    let mut writer = Writer::new(seed, dir.path(), &inputs)?;
    writer.save_next()?;
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    let store = CheckpointStore::open(dir.path()).map_err(|e| e.to_string())?;
    let server = Server::start(cfg, store).map_err(|e| e.to_string())?;
    let mut link = HttpLink::connect(server.addr(), Arc::clone(&bodies))?;
    let mut clock = WallClock(Stopwatch::started());
    let first = drive(&[0], std::slice::from_mut(&mut link), &mut clock, POLL_NS);
    match first.first().map(|o| &o.reply) {
        Some(Ok(r)) if r.status == 200 => {}
        other => return Err(format!("first request failed: {other:?}")),
    }
    Ok(Rig {
        server,
        writer,
        bodies,
        dir,
    })
}

/// What the generator thread hands back.
type PhasesResult = Result<Vec<Phase>, String>;

/// Starts the generator thread, writes snapshots until it finishes, and
/// returns its phases plus the server's final digest.
fn load_and_swap(
    mut rig: Rig,
    plans: Vec<PhasePlan>,
    search: bool,
    conns: usize,
) -> Result<(Vec<Phase>, Writer, TelemetrySnapshot, WorkDir), String> {
    let done: Arc<Monitor<Option<PhasesResult>>> = Arc::new(Monitor::new(None));
    let handle = {
        let done = Arc::clone(&done);
        let addr = rig.server.addr();
        let bodies = Arc::clone(&rig.bodies);
        rt::spawn("bench-load", move || {
            let r = run_phases(addr, bodies, conns, plans, search);
            done.update(|slot| *slot = Some(r));
        })
        .map_err(|e| e.to_string())?
    };
    // Saves on a fixed grid from the start of the load, so every run's
    // phases see the same number of swaps at the same offsets.
    let mut write_err = None;
    let clock = Stopwatch::started();
    let mut next = SAVE_EVERY;
    let phases = loop {
        let now = Duration::from_nanos(clock.elapsed_ns().unwrap_or(0));
        if let Some(r) = done.wait_for_within(next.saturating_sub(now), Option::take) {
            break r;
        }
        if write_err.is_none() {
            write_err = rig.writer.save_next().err();
        }
        next += SAVE_EVERY;
    };
    if handle.join().is_err() {
        return Err("generator thread panicked".into());
    }
    let phases = phases?;
    if let Some(e) = write_err {
        return Err(e);
    }
    let digest = rig.server.stop();
    Ok((phases, rig.writer, digest, rig.dir))
}

/// Checks every 200 reply against `Network::forward` on the generation it
/// reports; returns `(checked, max |Δlogit|)`.
fn check_replies(phases: &[Phase], writer: &Writer, rep: &mut Report) -> (usize, f32) {
    let mut checked = 0;
    let mut worst = 0.0f32;
    for p in phases {
        for (o, r) in p.ok() {
            let Some(all) = writer.refs.get(&r.epoch) else {
                rep.check(false, || {
                    format!(
                        "a reply names generation {}, which was never saved",
                        r.epoch
                    )
                });
                continue;
            };
            let row = o.index % INPUTS;
            let want = &all[row * 10..(row + 1) * 10];
            let argmax = want
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
                .map_or(0, |(i, _)| i);
            let dev = want
                .iter()
                .zip(&r.logits)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            worst = worst.max(dev);
            rep.check(r.logits.len() == want.len() && r.argmax == argmax, || {
                format!(
                    "{} request {}: argmax {} but generation {} forward gives {argmax}",
                    p.plan.name, o.index, r.argmax, r.epoch
                )
            });
            rep.check(dev <= LOGIT_TOL, || {
                format!(
                    "{} request {}: logits off by {dev} on generation {}",
                    p.plan.name, o.index, r.epoch
                )
            });
            checked += 1;
        }
    }
    (checked, worst)
}

fn plan(name: &str, rps: f64, seconds: f64, traced: bool) -> PhasePlan {
    PhasePlan {
        name: name.to_string(),
        rps,
        count: (rps * seconds).round().max(1.0) as usize,
        traced,
    }
}

/// One full run of `serve-swap`.
///
/// # Errors
///
/// Set-up or transport failures that leave nothing to measure.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let mut rep = Report::default();
    let conns = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    let sw = Stopwatch::started();
    let rig = setup(seed)?;
    let setup_s = sw.elapsed_ns().unwrap_or(0) as f64 / 1e9;
    rep.put("setup_s", setup_s, "s");
    rep.note("connections", conns);
    rep.note("generator_threads", 1usize);

    let plans = if traced {
        // A warm-up, then untraced and traced runs of the hi rate back to
        // back, so the overhead compares like with like.
        let part = (seconds * 0.4).max(2.0);
        vec![
            plan("warm", LO_RPS, 1.0, false),
            plan("hi", HI_RPS, part, false),
            plan("hi-traced", HI_RPS, part, true),
        ]
    } else {
        let peak = |i: usize| PhasePlan {
            name: format!("peak-{i}"),
            rps: 1e9,
            count: PEAK_REQUESTS,
            traced: false,
        };
        vec![
            peak(0),
            plan("lo", LO_RPS, LO_SECONDS, false),
            peak(1),
            plan("hi", HI_RPS, (seconds * 0.3).max(2.0), false),
            peak(2),
        ]
    };
    let (phases, mut writer, digest, _dir) = load_and_swap(rig, plans, !traced, conns)?;
    let model = match writer.load_back(if traced { 10 } else { 1 }) {
        Ok(m) => Some(m),
        Err(e) => {
            rep.check(false, || e);
            None
        }
    };
    let records = if traced {
        trace::take_trace()
    } else {
        Vec::new()
    };

    // Accounting and correctness.
    let (checked, worst) = check_replies(&phases, &writer, &mut rep);
    rep.note("replies_checked", checked);
    rep.note("max_logit_deviation", f64::from(worst));
    rep.note("logit_tolerance", f64::from(LOGIT_TOL));
    rep.note("generations_saved", writer.generation);
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut phase_rows = Vec::new();
    let mut max_rps = 0.0f64;
    let mut peak_rates = Vec::new();
    for p in &phases {
        let (ok, shed, bad) = p.counts();
        let sent = p.outcomes.len();
        rep.check(sent == ok + shed + bad, || {
            format!(
                "{}: sent {sent} != ok {ok} + shed {shed} + failed {bad}",
                p.plan.name
            )
        });
        rep.check(bad == 0, || {
            format!("{}: {bad} requests failed outright", p.plan.name)
        });
        attempted += sent as u64;
        failed += (shed + bad) as u64;
        let lat = p.latencies_ms();
        let t = tail(&lat);
        let growth = p.backlog_growth();
        let lags = sorted(
            &p.outcomes
                .iter()
                .map(|o| o.lag_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        );
        let meets = p.meets_limits();
        if meets && !p.plan.traced && !p.plan.is_peak() {
            max_rps = max_rps.max(p.plan.rps);
        }
        if p.plan.is_peak() {
            let first = p.outcomes.iter().map(|o| o.sent_ns).min().unwrap_or(0);
            let last = p.outcomes.iter().map(|o| o.done_ns).max().unwrap_or(0);
            peak_rates.push(ok as f64 / (last.saturating_sub(first) as f64 / 1e9).max(1e-9));
        }
        phase_rows.push(Json::Obj(vec![
            ("phase".into(), Json::from(p.plan.name.as_str())),
            ("offered_rps".into(), Json::from(p.plan.rps)),
            ("sent".into(), Json::from(sent)),
            ("ok".into(), Json::from(ok)),
            ("shed".into(), Json::from(shed)),
            ("failed".into(), Json::from(bad)),
            (
                "p50_ms".into(),
                Json::from(percentile(&lat, 50.0).unwrap_or(0.0)),
            ),
            ("tail_ms".into(), Json::from(t.map_or(0.0, |t| t.value))),
            ("tail_pct".into(), Json::from(t.map_or(0.0, |t| t.pct))),
            ("backlog_growth".into(), Json::from(growth)),
            (
                "lag_tail_ms".into(),
                Json::from(tail(&lags).map_or(0.0, |t| t.value)),
            ),
            ("meets_limits".into(), Json::from(meets)),
        ]));
        if matches!(p.plan.name.as_str(), "lo" | "hi") {
            let name = p.plan.name.as_str();
            rep.put(
                &format!("{name}.latency_p50_ms"),
                percentile(&lat, 50.0).unwrap_or(0.0),
                "ms",
            );
            let in_order: Vec<f64> = p.ok().map(|(o, _)| o.latency_ns() as f64 / 1e6).collect();
            rep.put_tail(
                &format!("{name}.latency_tail_ms"),
                &in_order,
                (in_order.len() / TAIL_WINDOW_REQUESTS).max(1),
            );
            // The median of the phase's quietest third, in arrival order.
            let third = quietest_window(&in_order, in_order.len() / 3);
            rep.put(
                &format!("{name}.quiet_p50_ms"),
                third.and_then(median).unwrap_or(0.0),
                "ms",
            );
        }
    }
    rep.note("phases", Json::Arr(phase_rows));
    let errors: Vec<Json> = phases
        .iter()
        .flat_map(|p| p.outcomes.iter())
        .filter_map(|o| o.reply.as_ref().err())
        .take(5)
        .map(|e| Json::from(e.as_str()))
        .collect();
    rep.note("first_errors", Json::Arr(errors));
    rep.attempted = attempted.max(1);
    rep.failed = failed;
    rep.put(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    rep.put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB");
    if !traced {
        rep.put("max_rps", max_rps, "1/s");
        let peak_rps = peak_rates.iter().copied().fold(0.0, f64::max);
        rep.put("peak_rps", peak_rps, "1/s");
        rep.note(
            "peak_rps_per_burst",
            Json::Arr(peak_rates.iter().map(|&v| Json::from(v)).collect()),
        );
        // The gated trio, each read where the host disturbed the run
        // least: the median of the quietest third of hi, the lowest lo
        // window tail and the fastest burst. The hi-rate tail and max_rps
        // hinge on where swaps land among a few dozen requests and are
        // reported, not gated (see the README).
        rep.put("p50_ms", rep.get("hi.quiet_p50_ms").unwrap_or(0.0), "ms");
        rep.put(
            "tail_ms",
            rep.get("lo.latency_tail_ms").unwrap_or(0.0),
            "ms",
        );
        rep.put("throughput_per_s", peak_rps, "1/s");
    }
    let counter = |name: &str| {
        digest
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    rep.note("server.swaps", counter("serve.swaps"));
    rep.note("server.shed", counter("serve.shed"));
    if traced {
        per_layer(
            &phases,
            &writer,
            model.as_ref(),
            &records,
            &digest,
            &mut rep,
        );
    }
    Ok(rep)
}

/// Median of `v`, 0 when empty.
fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// The per-layer numbers of a traced run.
fn per_layer(
    phases: &[Phase],
    writer: &Writer,
    model: Option<&ServingModel>,
    records: &[trace::TraceRecord],
    digest: &TelemetrySnapshot,
    rep: &mut Report,
) {
    let d = match layers::digest(records, "bench.save") {
        Ok(d) => d,
        Err(e) => return rep.check(false, || format!("trace digest: {e}")),
    };
    let traced_ids: Vec<u64> = phases
        .iter()
        .filter(|p| p.plan.traced)
        .flat_map(|p| p.ok().map(|(_, r)| r.id))
        .take(20)
        .collect();
    match layers::cross_check(&layers::lanes_of(records, &traced_ids)) {
        Ok(events) => rep.note("analyzer_cross_check_events", events),
        Err(e) => rep.check(false, || format!("trace analyzer disagrees: {e}")),
    }
    rep.put("core.capture_ms", med(&writer.capture_ms), "ms");
    rep.put("core.save_ms", med(&writer.save_ms), "ms");
    rep.put("core.load_ms", med(&writer.load_ms), "ms");
    rep.put("serve.model_build_ms", med(&writer.build_ms), "ms");
    rep.note("writer_spans_traced", d.main("bench.save").count);

    // Direct `ServingModel::infer` at batch 1 and 8, with the server idle.
    if let Some(model) = model {
        for (name, rows) in [("serve.infer_b1_ms", 1usize), ("serve.infer_b8_ms", 8)] {
            let x = Tensor::from_fn(vec![rows, IN_DIM], |i| (i % 97) as f32 / 97.0);
            let mut t = Vec::new();
            for _ in 0..25 {
                let sw = Stopwatch::started();
                let _s = Span::enter("bench.infer");
                if let Err(e) = model.infer(&x) {
                    return rep.check(false, || format!("direct infer: {e}"));
                }
                t.push(ms_since(&sw));
            }
            rep.put(name, med(&t[5..]), "ms");
        }
    }

    let lane_ms = |name: &str| {
        sorted(
            &d.lanes
                .values()
                .flatten()
                .filter(|(n, _, _)| *n == name)
                .map(|&(_, b, e)| (e - b) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let p50 = |v: &[f64]| percentile(v, 50.0).unwrap_or(0.0);
    rep.put("serve.queue_p50_ms", p50(&lane_ms("serve.queue")), "ms");
    let infer_ms = lane_ms("serve.infer");
    rep.put("serve.infer_p50_ms", p50(&infer_ms), "ms");
    rep.put(
        "serve.infer_tail_ms",
        tail(&infer_ms).map_or(0.0, |t| t.value),
        "ms",
    );
    rep.put("serve.write_p50_ms", p50(&lane_ms("serve.write")), "ms");
    let batches: Vec<&Vec<(&str, f64)>> = d
        .instants
        .iter()
        .filter(|(n, _)| *n == "serve.batch")
        .map(|(_, a)| a)
        .collect();
    let arg_sum = |key: &str| -> f64 {
        batches
            .iter()
            .flat_map(|a| a.iter().filter(|(k, _)| *k == key).map(|&(_, v)| v))
            .sum()
    };
    let nb = batches.len().max(1) as f64;
    rep.check(!batches.is_empty(), || {
        "traced phase flushed no batches".into()
    });
    rep.put("serve.batch_fill_mean", arg_sum("fill") / nb, "count");
    rep.put("serve.regens_per_batch", arg_sum("regens") / nb, "count");
    rep.note("serve.batches_traced", batches.len());
    let counter = |name: &str| {
        digest
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };
    rep.put("serve.swaps", counter("serve.swaps") as f64, "count");
    rep.put("serve.shed", counter("serve.shed") as f64, "count");

    // Per request of the traced phase: latency from the due time split
    // into generator wait, the server's lanes, the req lane's own time
    // (parse, admission, reply build) and transport (the rest).
    let mut route_self = Vec::new();
    let mut transport = Vec::new();
    let (mut latency_sum, mut transport_sum) = (0u64, 0u64);
    let mut joined = 0usize;
    for p in phases.iter().filter(|p| p.plan.traced) {
        let lags = sorted(
            &p.outcomes
                .iter()
                .map(|o| o.lag_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        );
        rep.put(
            "client.send_lag_tail_ms",
            tail(&lags).map_or(0.0, |t| t.value),
            "ms",
        );
        for (o, r) in p.ok() {
            let Some(req) = d.lane(r.id, "serve.req") else {
                continue;
            };
            let children: Vec<(u64, u64)> = ["serve.queue", "serve.infer", "serve.write"]
                .iter()
                .filter_map(|n| d.lane(r.id, n))
                .collect();
            route_self.push(self_time_ns(req, &children) as f64 / 1e6);
            let rtt = o.done_ns.saturating_sub(o.sent_ns);
            let t = rtt.saturating_sub(req.1 - req.0);
            transport.push(t as f64 / 1e6);
            transport_sum += t;
            latency_sum += o.latency_ns();
            joined += 1;
        }
    }
    rep.put("serve.route_self_p50_ms", med(&route_self), "ms");
    rep.put("client.transport_p50_ms", med(&transport), "ms");
    rep.put(
        "telemetry.accounted_pct",
        100.0 - pct(transport_sum as f64, latency_sum as f64),
        "%",
    );
    rep.note("requests_joined_to_lanes", joined);

    let phase_p50 = |name: &str| {
        phases
            .iter()
            .find(|p| p.plan.name == name)
            .and_then(|p| percentile(&p.latencies_ms(), 50.0))
            .unwrap_or(0.0)
    };
    let (untraced, traced) = (phase_p50("hi"), phase_p50("hi-traced"));
    rep.put(
        "telemetry.trace_overhead_pct",
        pct(traced - untraced, untraced),
        "%",
    );
    rep.note("untraced_hi_p50_ms", untraced);
    rep.note("traced_hi_p50_ms", traced);
    rep.note("trace_events", records.len());
}
