//! The server: accept loop, request routing, and lifecycle.
//!
//! Four endpoints, all JSON:
//!
//! | endpoint | answers |
//! |---|---|
//! | `GET /healthz` | serving generation: model, epoch, dims, source |
//! | `POST /infer` | `{"input":[...]}` → logits via the micro-batcher |
//! | `GET /metrics` | the full telemetry snapshot (`serve.*` and all) |
//! | `POST /shutdown` | acknowledges, then winds the server down |
//!
//! Threads: one accept loop, one handler per connection (keep-alive), one
//! batch worker, one snapshot watcher — all spawned through [`crate::rt`]
//! and all torn down by [`Server::stop`] / [`Server::wait`]. Batched
//! forwards run on the tensor worker pool, so `DROPBACK_THREADS` governs
//! compute parallelism independently of connection count.
//!
//! # Overload behavior
//!
//! The server defends itself at three rings, each counted under
//! `serve.shed.*` (see `docs/SERVING.md`):
//!
//! 1. **Connections** — at most [`ServerConfig::max_conns`] concurrent
//!    connections; excess ones are answered `503` + `Retry-After` and
//!    closed instead of spawning a handler.
//! 2. **Queue depth** — the batch queue refuses past
//!    [`BatchConfig::queue_cap`] (`503`).
//! 3. **Deadlines** — each `/infer` carries a
//!    [`ServerConfig::request_deadline`]; requests that expire while
//!    queued are shed *before* inference, and socket I/O is bounded by
//!    [`ServerConfig::io_timeout`] so a slow-loris client costs one
//!    handler for a bounded time (`serve.timeout.{read,write}`).
//!
//! Shutdown is a two-phase drain: stop admitting, let in-flight requests
//! finish inside [`ServerConfig::drain`], then force-close whatever is
//! left (`serve.drained` / `serve.drain.forced` in the final digest).

use crate::batch::{BatchConfig, BatchQueue};
use crate::clock::Deadline;
use crate::error::ServeError;
use crate::http::{self, Request};
use crate::log::AccessLog;
use crate::model::{ModelSlot, ServingModel};
use crate::rt::{self, ChaosHook, Gate, Limiter, Shutdown};
use crate::watcher;
use dropback::{CheckpointStore, FaultAction, FaultStream};
use dropback_telemetry::{
    flightrec, trace, Collector, Json, Span, Stopwatch, Telemetry, TelemetrySnapshot,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Everything tunable about a server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::addr`] for the resolved one).
    pub addr: String,
    /// Micro-batching knobs.
    pub batch: BatchConfig,
    /// How often the watcher polls the snapshot directory.
    pub poll: Duration,
    /// Most concurrent connections admitted; excess ones are shed with
    /// `503` + `Retry-After` at the accept loop.
    pub max_conns: usize,
    /// Socket read/write timeout per connection — the slow-loris bound.
    pub io_timeout: Duration,
    /// Deadline each `/infer` request carries through the batch queue;
    /// requests older than this are shed unevaluated.
    pub request_deadline: Duration,
    /// How long graceful shutdown waits for in-flight requests before
    /// force-closing them.
    pub drain: Duration,
    /// The `Retry-After` hint attached to every shedding `503`.
    pub retry_after: Duration,
    /// Test-only fault injection: every accepted connection's socket is
    /// wrapped in a [`FaultStream`] applying the hook's next planned
    /// action. Production configs leave this `None`.
    pub chaos: Option<Arc<ChaosHook>>,
    /// Structured JSONL access log: one record per request (see
    /// `docs/SERVING.md` for the schema). `None` disables logging.
    pub access_log: Option<PathBuf>,
    /// Arms the always-on flight recorder and names the file its ring is
    /// dumped to when shutdown force-closes in-flight requests
    /// (`serve.drain.forced > 0`). `None` leaves the recorder off, so
    /// the request path pays only the one relaxed atomic load per
    /// instrumentation site.
    pub flightrec_dump: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            batch: BatchConfig::default(),
            poll: Duration::from_millis(50),
            max_conns: 256,
            io_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(2),
            drain: Duration::from_secs(2),
            retry_after: Duration::from_secs(1),
            chaos: None,
            access_log: None,
            flightrec_dump: None,
        }
    }
}

/// Shared state every connection handler needs.
struct Ctx {
    slot: Arc<ModelSlot>,
    queue: Arc<BatchQueue>,
    collector: Arc<Collector>,
    shutdown: Arc<Shutdown>,
    gate: Arc<Gate>,
    limiter: Arc<Limiter>,
    chaos: Option<Arc<ChaosHook>>,
    access: Option<AccessLog>,
    io_timeout: Duration,
    request_deadline: Duration,
    /// Pre-rendered `Retry-After` value (whole seconds, at least 1).
    retry_after: String,
}

impl Ctx {
    fn shed(&self, ring: &str) {
        self.collector.counter("serve.shed").inc();
        self.collector.counter(&format!("serve.shed.{ring}")).inc();
    }

    /// Appends one access-log record (no-op without a configured log).
    /// A failed write bumps `serve.access_log_failed` — logging must
    /// never take the connection down with it.
    fn log_access(
        &self,
        req: &Request,
        id: u64,
        conn: u64,
        out: &Outcome,
        write_ns: u64,
        write_failed: bool,
    ) {
        let Some(log) = &self.access else { return };
        let opt = |v: Option<u64>| v.map(Json::from).unwrap_or(Json::Null);
        let mut fields = vec![
            ("id".to_string(), Json::from(id)),
            ("conn".to_string(), Json::from(conn)),
            ("method".to_string(), Json::from(req.method.as_str())),
            ("target".to_string(), Json::from(req.target.as_str())),
            ("status".to_string(), Json::from(u64::from(out.status))),
            (
                "reason".to_string(),
                out.reason.map(Json::from).unwrap_or(Json::Null),
            ),
            ("epoch".to_string(), opt(out.epoch.map(|e| e as u64))),
            ("batch_id".to_string(), opt(out.batch_id)),
            (
                "batch_fill".to_string(),
                opt(out.batch_fill.map(|f| f as u64)),
            ),
            ("queue_ns".to_string(), Json::from(out.queue_ns)),
            ("infer_ns".to_string(), Json::from(out.infer_ns)),
            ("write_ns".to_string(), Json::from(write_ns)),
        ];
        if write_failed {
            fields.push(("write_failed".to_string(), Json::from(true)));
        }
        if log.write(&Json::Obj(fields)).is_err() {
            self.collector.counter("serve.access_log_failed").inc();
        }
    }
}

/// Everything `serve_connection` needs to answer, time, trace, and log
/// one routed request — the per-request record that flows from [`route`]
/// to the response writer and the access log.
struct Outcome {
    status: u16,
    body: String,
    content_type: &'static str,
    /// Machine-readable slug for refusals ([`ServeError::reason`]).
    reason: Option<&'static str>,
    /// Model generation that answered (`/infer` successes only).
    epoch: Option<usize>,
    /// Micro-batch the request rode in (`/infer` successes only).
    batch_id: Option<u64>,
    /// Fill of that micro-batch (`/infer` successes only).
    batch_fill: Option<usize>,
    /// Nanoseconds queued before the batch flushed (0 outside `/infer`).
    queue_ns: u64,
    /// Nanoseconds of batched forward attributed to this request.
    infer_ns: u64,
}

impl Outcome {
    fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            content_type: "application/json",
            reason: None,
            epoch: None,
            batch_id: None,
            batch_fill: None,
            queue_ns: 0,
            infer_ns: 0,
        }
    }

    fn error(e: &ServeError) -> Self {
        Self {
            reason: Some(e.reason()),
            ..Self::json(e.http_status(), error_body(e))
        }
    }

    /// A refusal whose HTTP status is routing's call (404/405), not the
    /// error type's.
    fn refuse(status: u16, reason: &'static str, e: &ServeError) -> Self {
        Self {
            reason: Some(reason),
            ..Self::json(status, error_body(e))
        }
    }
}

/// A running server. Dropping it does **not** stop the threads; call
/// [`Server::stop`] (tests, benches) or [`Server::wait`] (the bin).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    slot: Arc<ModelSlot>,
    collector: Arc<Collector>,
    shutdown: Arc<Shutdown>,
    queue: Arc<BatchQueue>,
    gate: Arc<Gate>,
    drain: Duration,
    handles: Vec<rt::JoinHandle>,
    /// Measures serving uptime for the shutdown digest.
    uptime: Stopwatch,
    /// Where the flight-recorder ring is dumped when the drain is forced.
    flightrec_dump: Option<PathBuf>,
}

impl Server {
    /// Loads the newest valid snapshot from `store`, binds the listener,
    /// and starts the accept loop, batch worker, and hot-swap watcher.
    ///
    /// # Errors
    ///
    /// [`ServeError::NoSnapshot`] when the directory holds nothing
    /// loadable, plus model-building and socket errors.
    pub fn start(cfg: ServerConfig, mut store: CheckpointStore) -> Result<Self, ServeError> {
        let collector = Arc::new(Collector::new());
        let mut tel = Telemetry::disabled();
        let state = store
            .load_latest(&mut tel)?
            .ok_or_else(|| ServeError::NoSnapshot(store.dir().to_path_buf()))?;
        collector
            .counter("serve.swap_rejected")
            .add(store.take_skipped().len() as u64);
        // Register the overload/drain counters up front so every digest
        // carries them, zeros included — dashboards and the chaos-smoke
        // stage grep for them unconditionally.
        for name in [
            "serve.shed",
            "serve.drained",
            "serve.drain.forced",
            "serve.timeout.read",
            "serve.timeout.write",
        ] {
            collector.counter(name).add(0);
        }
        // Same for the per-stage histograms: the shutdown digest reports
        // queue/infer/write percentiles even for a server that answered
        // nothing.
        for name in [
            "serve.request_ns",
            "serve.queue_ns",
            "serve.infer_ns",
            "serve.write_ns",
        ] {
            let _ = collector.histogram(name);
        }
        if cfg.flightrec_dump.is_some() {
            flightrec::enable();
        }

        // The store names snapshots state-{epoch:08}.dbk2, so the loaded
        // state's epoch identifies its source file.
        let source = store
            .dir()
            .join(format!("state-{:08}.dbk2", state.progress.next_epoch));
        let model = ServingModel::from_state(&state, source.clone())?;
        collector
            .gauge("serve.model_epoch")
            .set(model.epoch() as f64);
        let slot = Arc::new(ModelSlot::new(model));

        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(Shutdown::new());
        let queue = Arc::new(BatchQueue::new(cfg.batch));
        let gate = Arc::new(Gate::new());

        let mut handles = Vec::new();
        handles.push(queue.start_worker(Arc::clone(&slot), Arc::clone(&collector))?);
        handles.push(watcher::start(
            store,
            source,
            Arc::clone(&slot),
            Arc::clone(&collector),
            Arc::clone(&shutdown),
            cfg.poll,
        )?);

        let access = match &cfg.access_log {
            Some(path) => Some(AccessLog::create(path)?),
            None => None,
        };
        let ctx = Arc::new(Ctx {
            slot: Arc::clone(&slot),
            queue: Arc::clone(&queue),
            collector: Arc::clone(&collector),
            shutdown: Arc::clone(&shutdown),
            gate: Arc::clone(&gate),
            limiter: Arc::new(Limiter::new(cfg.max_conns.max(1))),
            chaos: cfg.chaos.clone(),
            access,
            io_timeout: cfg.io_timeout,
            request_deadline: cfg.request_deadline,
            retry_after: cfg.retry_after.as_secs().max(1).to_string(),
        });
        let accept_shutdown = Arc::clone(&shutdown);
        handles.push(rt::spawn("accept", move || {
            accept_loop(&listener, &ctx, &accept_shutdown);
        })?);

        Ok(Self {
            addr,
            slot,
            collector,
            shutdown,
            queue,
            gate,
            drain: cfg.drain,
            handles,
            uptime: Stopwatch::started(),
            flightrec_dump: cfg.flightrec_dump,
        })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The generation currently answering requests.
    pub fn model(&self) -> Arc<ServingModel> {
        self.slot.get()
    }

    /// The server's metrics registry (`serve.*` counters live here).
    pub fn collector(&self) -> &Arc<Collector> {
        &self.collector
    }

    /// Triggers shutdown remotely-equivalent to `POST /shutdown`.
    pub fn trigger_shutdown(&self) {
        self.shutdown.trigger();
    }

    /// Blocks until something triggers shutdown (`POST /shutdown`,
    /// [`Server::trigger_shutdown`]), then drains and tears the threads
    /// down and returns the final telemetry snapshot.
    pub fn wait(self) -> TelemetrySnapshot {
        while !self.shutdown.wait_for(Duration::from_millis(500)) {}
        self.teardown()
    }

    /// Stops the server now (graceful drain included) and returns the
    /// final telemetry snapshot.
    pub fn stop(self) -> TelemetrySnapshot {
        self.shutdown.trigger();
        self.teardown()
    }

    /// Two-phase wind-down: stop admitting, drain in-flight requests
    /// within the drain deadline, then force-close the stragglers.
    fn teardown(self) -> TelemetrySnapshot {
        // Phase 1: stop admitting. New /infer requests are shed with 503
        // from here on; connections are still *accepted* so the refusal
        // is a typed response, not a vanished socket.
        self.shutdown.trigger();
        // Phase 2: drain. In-flight requests hold gate passes; the batch
        // worker is still running, so they complete normally — we just
        // bound how long that may take.
        self.gate.wait_idle_within(self.drain);
        // Phase 3: force. Whatever is still in flight is out of time:
        // refuse everything left in the queue (their handlers answer 503)
        // and stop the worker. The accept loop is blocked in accept();
        // poke it awake so it observes the stop and exits.
        let forced = self.gate.active() as u64;
        self.collector.counter("serve.drain.forced").add(forced);
        self.queue.stop();
        self.shutdown.force();
        if let Ok(s) = TcpStream::connect(self.addr) {
            drop(s);
        }
        for h in self.handles {
            let _ = h.join();
        }
        if let Some(ns) = self.uptime.elapsed_ns() {
            self.collector.gauge("serve.uptime_s").set(ns as f64 / 1e9);
        }
        // A forced drain means requests died mid-flight — exactly the
        // moment the flight recorder exists for. Dump its ring as a
        // Chrome trace so the post-mortem has the final request lanes.
        if forced > 0 {
            if let Some(path) = &self.flightrec_dump {
                let dumped = std::fs::File::create(path)
                    .and_then(|mut f| flightrec::write_dump(&mut f))
                    .is_ok();
                let counter = if dumped {
                    "serve.flightrec_dumps"
                } else {
                    "serve.flightrec_dump_failed"
                };
                self.collector.counter(counter).inc();
            }
        }
        TelemetrySnapshot::capture(&self.collector)
    }
}

fn accept_loop(listener: &TcpListener, ctx: &Arc<Ctx>, shutdown: &Shutdown) {
    loop {
        let conn = listener.accept();
        // Keep accepting while *draining* — late arrivals deserve a typed
        // 503, not a vanished socket. Only a full stop ends the loop.
        if shutdown.is_stopped() {
            return;
        }
        match conn {
            Ok((stream, _)) => {
                let conn_id = rt::next_conn_id();
                ctx.collector.counter("serve.connections").inc();
                // Admission control: over the cap, the connection is
                // answered 503 + Retry-After right here — no handler
                // thread, no queue slot.
                let Some(permit) = ctx.limiter.try_acquire() else {
                    shed_connection(stream, ctx);
                    continue;
                };
                let action = ctx
                    .chaos
                    .as_ref()
                    .map_or(FaultAction::None, |hook| hook.next_action());
                let ctx = Arc::clone(ctx);
                if rt::spawn("conn", move || {
                    // The permit rides the handler thread; dropping it on
                    // any exit path frees the connection slot.
                    let _permit = permit;
                    handle_connection(stream, action, &ctx, conn_id);
                })
                .is_err()
                {
                    // Thread exhaustion: the connection drops; the client
                    // retries. Nothing else to do without a thread.
                }
            }
            Err(_) => {
                ctx.collector.counter("serve.accept_errors").inc();
            }
        }
    }
}

/// Refuses one over-cap connection with `503` + `Retry-After` without
/// spawning a handler for it.
fn shed_connection(stream: TcpStream, ctx: &Ctx) {
    ctx.shed("conn");
    let mut stream = stream;
    let _ = stream.set_nodelay(true);
    // Bound the refusal write too: the accept loop must never block on a
    // peer that connected and went away.
    let _ = stream.set_write_timeout(Some(ctx.io_timeout));
    let _ = respond(&mut stream, &Outcome::error(&ServeError::Overloaded), ctx);
}

/// Writes one response, attaching `Retry-After` to every shedding 503.
fn respond(w: &mut impl Write, out: &Outcome, ctx: &Ctx) -> std::io::Result<()> {
    if out.status == 503 {
        http::write_response_typed(
            w,
            out.status,
            out.content_type,
            &[("Retry-After", ctx.retry_after.clone())],
            &out.body,
        )
    } else {
        http::write_response_typed(w, out.status, out.content_type, &[], &out.body)
    }
}

/// Whether an error is the socket timing out (the slow-loris bound
/// firing) rather than the peer misbehaving at the protocol level.
/// Platforms disagree on the kind a timed-out socket read reports, so
/// both are checked.
fn is_timeout_kind(kind: std::io::ErrorKind) -> bool {
    matches!(
        kind,
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    )
}

fn is_read_timeout(e: &ServeError) -> bool {
    matches!(e, ServeError::Io(io) if is_timeout_kind(io.kind()))
}

/// Applies socket options, wires in the chaos wrapper when armed, and
/// hands the stream to the generic keep-alive loop.
fn handle_connection(stream: TcpStream, action: FaultAction, ctx: &Ctx, conn_id: u64) {
    // Responses are small and latency-bound; never let them sit in
    // Nagle's buffer waiting for the client's ACK. The read/write
    // timeouts are the slow-loris bound: a peer that stops moving bytes
    // costs this handler at most io_timeout before the connection dies.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(ctx.io_timeout));
    let _ = stream.set_write_timeout(Some(ctx.io_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    if action == FaultAction::None {
        serve_connection(BufReader::new(read_half), stream, ctx, conn_id);
    } else {
        // Each half keeps its own fault position; the same action on
        // both models one misbehaving peer.
        serve_connection(
            BufReader::new(FaultStream::new(read_half, action)),
            FaultStream::new(stream, action),
            ctx,
            conn_id,
        );
    }
}

/// Serves one keep-alive connection until the peer closes, asks to
/// close, sends garbage, times out, or shutdown trips. Generic over the
/// stream halves so the chaos suite can interpose [`FaultStream`]s.
///
/// Every successfully parsed request gets a fresh id from
/// [`rt::next_request_id`], opens a `serve.req` async lane spanning
/// route + reply-write (with a nested `serve.write` lane around the
/// socket write), and lands one access-log record when logging is on.
fn serve_connection(mut reader: impl BufRead, mut writer: impl Write, ctx: &Ctx, conn_id: u64) {
    loop {
        let req = match http::read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return, // clean close between requests
            Err(e) => {
                if is_read_timeout(&e) {
                    // A stalled client, not a protocol error: there is
                    // nobody attentive to answer, so just hang up.
                    ctx.collector.counter("serve.timeout.read").inc();
                    return;
                }
                // Protocol garbage never earned a request id: the typed
                // refusal goes out, but there is no request to log.
                let _ = respond(&mut writer, &Outcome::error(&e), ctx);
                return;
            }
        };
        let close = req.wants_close();
        let req_id = rt::next_request_id();
        // One tracing decision per request, made here and carried through
        // every lane the request opens (req, write, queue, infer): a
        // toggle mid-request must not leave a begin or end orphaned.
        let traced = trace::is_tracing();
        trace::async_begin_for(traced, "serve.req", req_id, &[("conn", conn_id as f64)]);
        let out = route(&req, ctx, req_id, traced);
        trace::async_begin_for(traced, "serve.write", req_id, &[]);
        let watch = Stopwatch::started();
        let write_res = respond(&mut writer, &out, ctx);
        let write_ns = watch.elapsed_ns().unwrap_or(0);
        trace::async_end_for(traced, "serve.write", req_id, &[]);
        trace::async_end_for(
            traced,
            "serve.req",
            req_id,
            &[("status", f64::from(out.status))],
        );
        ctx.collector
            .histogram("serve.write_ns")
            .record(write_ns as f64);
        ctx.log_access(&req, req_id, conn_id, &out, write_ns, write_res.is_err());
        if let Err(e) = write_res {
            if is_timeout_kind(e.kind()) {
                ctx.collector.counter("serve.timeout.write").inc();
            }
            return;
        }
        if close || ctx.shutdown.is_set() {
            return;
        }
    }
}

fn error_body(e: &ServeError) -> String {
    Json::Obj(vec![("error".into(), Json::from(e.to_string()))]).render()
}

fn route(req: &Request, ctx: &Ctx, req_id: u64, traced: bool) -> Outcome {
    let _span = Span::enter("serve.request");
    // Split `?format=prometheus`-style queries off the path; every
    // endpoint matches on the bare path.
    let (path, query) = match req.target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.target.as_str(), ""),
    };
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => healthz(ctx),
        ("POST", "/infer") => infer(req, ctx, req_id, traced),
        ("GET", "/metrics") => metrics(ctx, query),
        ("GET", "/debug/flightrec") => {
            // The recorder dump is already a complete Chrome trace
            // document; hand it over verbatim.
            Outcome::json(200, flightrec::dump_json().render())
        }
        ("POST", "/shutdown") => {
            ctx.shutdown.trigger();
            Outcome::json(
                200,
                Json::Obj(vec![("status".into(), Json::from("shutting-down"))]).render(),
            )
        }
        (_, "/healthz" | "/infer" | "/metrics" | "/shutdown" | "/debug/flightrec") => {
            Outcome::refuse(
                405,
                "method-not-allowed",
                &ServeError::BadRequest(format!("method {} not allowed on {path}", req.method)),
            )
        }
        _ => Outcome::refuse(
            404,
            "not-found",
            &ServeError::BadRequest(format!(
                "no such endpoint {path:?} (have /healthz, /infer, /metrics, \
                 /shutdown, /debug/flightrec)"
            )),
        ),
    }
}

fn healthz(ctx: &Ctx) -> Outcome {
    let m = ctx.slot.get();
    let body = Json::Obj(vec![
        ("status".into(), Json::from("ok")),
        ("model".into(), Json::from(m.name())),
        ("epoch".into(), Json::from(m.epoch())),
        ("in_dim".into(), Json::from(m.in_dim())),
        ("out_dim".into(), Json::from(m.out_dim())),
        ("entries".into(), Json::from(m.entries())),
        (
            "source".into(),
            Json::from(m.source().to_string_lossy().as_ref()),
        ),
    ]);
    Outcome::json(200, body.render())
}

/// `/metrics`: the JSON snapshot by default, the Prometheus plain-text
/// exposition under `?format=prometheus`. Any other `format=` value is a
/// typed 400 so a dashboard typo fails loudly.
fn metrics(ctx: &Ctx, query: &str) -> Outcome {
    let snap = TelemetrySnapshot::capture(&ctx.collector);
    let format = query
        .split('&')
        .find_map(|pair| pair.strip_prefix("format="))
        .unwrap_or("json");
    match format {
        "json" => Outcome::json(200, snap.to_json().render()),
        "prometheus" => Outcome {
            content_type: "text/plain; version=0.0.4",
            ..Outcome::json(200, snap.render_prometheus())
        },
        other => Outcome::error(&ServeError::BadRequest(format!(
            "unknown metrics format {other:?} (have json, prometheus)"
        ))),
    }
}

fn parse_input(body: &[u8]) -> Result<Vec<f32>, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::BadRequest("body is not UTF-8".into()))?;
    let json = Json::parse(text).map_err(|e| ServeError::BadRequest(format!("bad JSON: {e}")))?;
    let arr = json
        .get("input")
        .and_then(Json::as_array)
        .ok_or_else(|| ServeError::BadRequest("expected {\"input\": [numbers]}".into()))?;
    let mut input = Vec::with_capacity(arr.len());
    for (i, v) in arr.iter().enumerate() {
        let f = v
            .as_f64()
            .ok_or_else(|| ServeError::BadRequest(format!("input[{i}] is not a number")))?;
        // f32 values render exactly into JSON and cast back exactly, so
        // the wire preserves input bits end to end.
        input.push(f as f32);
    }
    Ok(input)
}

fn infer(req: &Request, ctx: &Ctx, req_id: u64, traced: bool) -> Outcome {
    let watch = Stopwatch::started();
    ctx.collector.counter("serve.requests").inc();
    // Once the drain starts, nothing new gets in — in-flight requests
    // (already holding gate passes) finish; arrivals are shed.
    if ctx.shutdown.is_set() {
        ctx.shed("drain");
        return Outcome::error(&ServeError::ShuttingDown);
    }
    // The pass marks this request in flight until the reply is built, so
    // graceful drain waits for it.
    let _pass = ctx.gate.enter();
    let deadline = Deadline::after(ctx.request_deadline);
    let result = parse_input(&req.body)
        .and_then(|input| ctx.queue.submit(req_id, traced, input, Some(deadline)));
    let out = match result {
        Ok(reply) => {
            if ctx.shutdown.is_draining() {
                ctx.collector.counter("serve.drained").inc();
            }
            // Mark which micro-batch this request rode in on its own
            // `serve.req` lane, so the timeline reads without chasing
            // the batch instant.
            trace::async_instant_for(
                traced,
                "serve.req",
                req_id,
                &[
                    ("batch_id", reply.batch_id as f64),
                    ("fill", reply.batch as f64),
                ],
            );
            let logits: Vec<Json> = reply.logits.iter().map(|&v| Json::from(v)).collect();
            let body = Json::Obj(vec![
                ("logits".into(), Json::Arr(logits)),
                ("argmax".into(), Json::from(reply.argmax)),
                ("epoch".into(), Json::from(reply.epoch)),
                ("batch".into(), Json::from(reply.batch)),
                ("id".into(), Json::from(req_id)),
                ("batch_id".into(), Json::from(reply.batch_id)),
                ("queue_ns".into(), Json::from(reply.queue_ns)),
                ("infer_ns".into(), Json::from(reply.infer_ns)),
            ]);
            Outcome {
                epoch: Some(reply.epoch),
                batch_id: Some(reply.batch_id),
                batch_fill: Some(reply.batch),
                queue_ns: reply.queue_ns,
                infer_ns: reply.infer_ns,
                ..Outcome::json(200, body.render())
            }
        }
        Err(e) => {
            ctx.collector.counter("serve.request_failed").inc();
            match &e {
                ServeError::Overloaded => ctx.shed("queue"),
                ServeError::DeadlineExceeded => ctx.shed("deadline"),
                ServeError::ShuttingDown => ctx.shed("drain"),
                _ => {}
            }
            Outcome::error(&e)
        }
    };
    if let Some(ns) = watch.elapsed_ns() {
        ctx.collector
            .histogram("serve.request_ns")
            .record(ns as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use dropback::{TrainProgress, TrainState};
    use dropback_nn::models;
    use dropback_optim::{DropBack, Optimizer};
    use std::fs;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dropback-server-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn seeded_store(dir: &PathBuf) -> CheckpointStore {
        let mut store = CheckpointStore::open(dir).unwrap();
        let mut net = models::mnist_100_100(3);
        let mut opt = DropBack::new(300);
        opt.step(net.store_mut(), 0.0);
        let state = TrainState::capture(
            &net,
            &opt,
            1,
            &TrainProgress {
                next_epoch: 1,
                ..TrainProgress::fresh()
            },
        );
        store.save(&state, &mut Telemetry::disabled()).unwrap();
        store
    }

    #[test]
    fn retired_sparse_rule_snapshots_still_boot() {
        // Serving reads only a snapshot's entries, never its optimizer
        // state, so snapshots from the retired `dropback-sparse` rule boot.
        let dir = tmp_dir("sparse-era");
        let mut store = CheckpointStore::open(&dir).unwrap();
        let mut net = models::mnist_100_100(3);
        let mut opt = DropBack::new(300);
        opt.step(net.store_mut(), 0.0);
        net.store_mut().params_mut()[5] = 0.75;
        let mut state = TrainState::capture(&net, &opt, 1, &TrainProgress::fresh());
        let expected = ServingModel::from_state(&state, "/direct").unwrap();
        state.optimizer = "dropback-sparse".into();
        state.opt_state = dropback_optim::OptState::new("dropback-sparse").with(
            "tracked",
            dropback_optim::StateField::Pairs(vec![(5, 0.75)]),
        );
        store.save(&state, &mut Telemetry::disabled()).unwrap();
        let server = Server::start(ServerConfig::default(), store).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let input = vec![0.25f32; 784];
        let reply = client.infer(&input).unwrap();
        let (direct, _) = expected
            .infer(&dropback_tensor::Tensor::from_vec(vec![1, 784], input))
            .unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&reply.logits), bits(direct.data()));
        assert_eq!(client.post("/shutdown", "").unwrap().status, 200);
        let _ = server.wait();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_refuses_to_start() {
        let dir = tmp_dir("empty");
        let store = CheckpointStore::open(&dir).unwrap();
        let err = Server::start(ServerConfig::default(), store).unwrap_err();
        assert!(matches!(err, ServeError::NoSnapshot(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn serves_health_infer_metrics_and_shuts_down() {
        let dir = tmp_dir("roundtrip");
        let server = Server::start(ServerConfig::default(), seeded_store(&dir)).unwrap();
        let addr = server.addr();
        let mut client = HttpClient::connect(addr).unwrap();

        let health = client.get("/healthz").unwrap();
        assert_eq!(health.status, 200);
        let health = Json::parse(&health.body).unwrap();
        assert_eq!(health.get("model").unwrap().as_str(), Some("mnist-100-100"));
        assert_eq!(health.get("in_dim").unwrap().as_u64(), Some(784));

        let reply = client.infer(&vec![0.25; 784]).unwrap();
        assert_eq!(reply.logits.len(), 10);
        assert_eq!(reply.epoch, 1);

        // Unknown endpoint and wrong method are typed refusals.
        assert_eq!(client.get("/nope").unwrap().status, 404);
        assert_eq!(client.post("/healthz", "").unwrap().status, 405);
        // Bad JSON is a 400, not a hang or a 500.
        assert_eq!(client.post("/infer", "{oops").unwrap().status, 400);

        let metrics = client.get("/metrics").unwrap();
        assert_eq!(metrics.status, 200);
        let metrics = Json::parse(&metrics.body).unwrap();
        assert!(
            metrics
                .get("histograms")
                .unwrap()
                .get("serve.request_ns")
                .unwrap()
                .get("p50")
                .unwrap()
                .as_f64()
                .unwrap_or(0.0)
                > 0.0
        );

        let bye = client.post("/shutdown", "").unwrap();
        assert_eq!(bye.status, 200);
        let snap = server.wait();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        assert!(counter("serve.requests").is_some_and(|v| v >= 2));
        // The digest always carries the overload/drain counters, zeros
        // included — the chaos-smoke stage greps for them.
        for name in ["serve.shed", "serve.drained", "serve.drain.forced"] {
            assert!(counter(name).is_some(), "{name} missing from digest");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_speak_prometheus_when_asked() {
        let dir = tmp_dir("prom");
        let server = Server::start(ServerConfig::default(), seeded_store(&dir)).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        assert_eq!(client.infer(&vec![0.25; 784]).unwrap().logits.len(), 10);

        let resp = client.get("/metrics?format=prometheus").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.header("content-type"),
            Some("text/plain; version=0.0.4")
        );
        // The exposition carries the per-stage histograms with their
        // cumulative bucket/sum/count triple.
        for needle in [
            "# TYPE serve_request_ns histogram",
            "serve_request_ns_bucket{le=\"+Inf\"}",
            "serve_request_ns_sum",
            "serve_request_ns_count",
            "serve_queue_ns_count",
            "serve_write_ns_count",
            "serve_requests",
        ] {
            assert!(resp.body.contains(needle), "missing {needle:?}");
        }
        // The default stays JSON, and a typo'd format fails loudly.
        let json = client.get("/metrics").unwrap();
        assert_eq!(json.header("content-type"), Some("application/json"));
        assert!(Json::parse(&json.body).is_ok());
        assert_eq!(client.get("/metrics?format=xml").unwrap().status, 400);

        server.stop();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flightrec_endpoint_serves_a_chrome_trace_of_recent_requests() {
        let dir = tmp_dir("flightrec");
        let dump = dir.join("flight.json");
        let cfg = ServerConfig {
            // Arming the dump path also arms the recorder ring.
            flightrec_dump: Some(dump),
            ..ServerConfig::default()
        };
        let server = Server::start(cfg, seeded_store(&dir)).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        assert_eq!(client.infer(&vec![0.25; 784]).unwrap().logits.len(), 10);

        let resp = client.get("/debug/flightrec").unwrap();
        assert_eq!(resp.status, 200);
        let body = Json::parse(&resp.body).unwrap();
        let events = body
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("dump is a Chrome trace document");
        // The /infer request's queue lane went through the ring; the
        // dump may demote lanes still open at capture time, but the
        // completed queue lane must be visible.
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Json::as_str) == Some("serve.queue")),
            "no serve.queue events in {} records",
            events.len()
        );
        server.stop();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn forced_drain_dumps_the_flight_recorder_ring() {
        let dir = tmp_dir("forcedump");
        let dump = dir.join("forced.json");
        let cfg = ServerConfig {
            flightrec_dump: Some(dump.clone()),
            // A batch that never fills and a flush far beyond the test's
            // patience: the request below stays queued until the drain
            // gives up on it.
            batch: BatchConfig {
                max_batch: 64,
                flush: Duration::from_secs(30),
                queue_cap: 64,
            },
            request_deadline: Duration::from_secs(30),
            drain: Duration::from_millis(50),
            ..ServerConfig::default()
        };
        let server = Server::start(cfg, seeded_store(&dir)).unwrap();
        let addr = server.addr();
        let stuck = rt::spawn("stuck", move || {
            let mut client = HttpClient::connect(addr).unwrap();
            // Shed with 503 when the forced drain refuses the queue.
            let _ = client.post("/infer", &crate::client::infer_body(&vec![0.5; 784]));
        })
        .unwrap();
        // Wait until the request is actually in flight (holding a gate
        // pass) before pulling the plug.
        for _ in 0..200 {
            let in_flight = TelemetrySnapshot::capture(server.collector())
                .counters
                .iter()
                .any(|(n, v)| n == "serve.requests" && *v >= 1);
            if in_flight {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let snap = server.stop();
        stuck.join().unwrap();
        let forced = snap
            .counters
            .iter()
            .find(|(n, _)| n == "serve.drain.forced")
            .map_or(0, |(_, v)| *v);
        assert!(forced >= 1, "the stuck request was not force-drained");
        let text = fs::read_to_string(&dump).expect("forced drain wrote the dump");
        let parsed = Json::parse(&text).expect("dump is valid JSON");
        assert!(parsed.get("traceEvents").is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn access_log_lands_one_parseable_record_per_request() {
        let dir = tmp_dir("accesslog");
        let log_path = dir.join("access.jsonl");
        let cfg = ServerConfig {
            access_log: Some(log_path.clone()),
            ..ServerConfig::default()
        };
        let server = Server::start(cfg, seeded_store(&dir)).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        assert_eq!(client.infer(&vec![0.25; 784]).unwrap().logits.len(), 10);
        assert_eq!(client.get("/healthz").unwrap().status, 200);
        assert_eq!(client.post("/infer", "{oops").unwrap().status, 400);
        assert_eq!(client.get("/nope").unwrap().status, 404);

        // Handlers log after replying, so the last record may land a
        // beat after the client read its response.
        let mut lines: Vec<String> = Vec::new();
        for _ in 0..200 {
            lines = fs::read_to_string(&log_path)
                .unwrap_or_default()
                .lines()
                .map(str::to_string)
                .collect();
            if lines.len() >= 4 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(lines.len(), 4, "one record per request");

        let records: Vec<Json> = lines
            .iter()
            .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad line {l:?}: {e}")))
            .collect();
        let field = |r: &Json, k: &str| r.get(k).and_then(Json::as_u64);
        let mut ids = Vec::new();
        for r in &records {
            let id = field(r, "id").expect("every record has an id");
            assert!(id > 0, "request ids start at 1");
            ids.push(id);
            assert!(field(r, "conn").is_some_and(|c| c > 0));
            assert!(r.get("method").and_then(Json::as_str).is_some());
            assert!(field(r, "status").is_some());
        }
        ids.dedup();
        assert_eq!(ids.len(), 4, "ids are unique and monotone");

        // The /infer success carries batch identity and stage timings;
        // the 400 carries its refusal slug.
        let infer_rec = records
            .iter()
            .find(|r| {
                field(r, "status") == Some(200)
                    && r.get("target").and_then(Json::as_str) == Some("/infer")
            })
            .expect("the successful /infer was logged");
        assert!(field(infer_rec, "batch_id").is_some_and(|b| b > 0));
        assert!(field(infer_rec, "infer_ns").is_some_and(|ns| ns > 0));
        assert!(field(infer_rec, "write_ns").is_some());
        let bad = records
            .iter()
            .find(|r| field(r, "status") == Some(400))
            .expect("the bad request was logged");
        assert_eq!(
            bad.get("reason").and_then(Json::as_str),
            Some("bad-request")
        );
        let missing = records
            .iter()
            .find(|r| field(r, "status") == Some(404))
            .expect("the unknown endpoint was logged");
        assert_eq!(
            missing.get("reason").and_then(Json::as_str),
            Some("not-found")
        );

        server.stop();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn connections_past_the_cap_are_shed_with_retry_after() {
        let dir = tmp_dir("conncap");
        let cfg = ServerConfig {
            max_conns: 1,
            ..ServerConfig::default()
        };
        let server = Server::start(cfg, seeded_store(&dir)).unwrap();
        let addr = server.addr();

        // The first connection holds the only slot...
        let mut held = HttpClient::connect(addr).unwrap();
        assert_eq!(held.get("/healthz").unwrap().status, 200);
        // ...so the second is shed at the accept loop with a hint.
        let mut shed = HttpClient::connect(addr).unwrap();
        let reply = shed.get("/healthz").unwrap();
        assert_eq!(reply.status, 503);
        assert_eq!(reply.header("retry-after"), Some("1"));

        // The held connection still works: shedding is per-connection.
        assert_eq!(held.get("/healthz").unwrap().status, 200);
        drop(held);
        drop(shed);
        let snap = server.stop();
        let shed_conns = snap
            .counters
            .iter()
            .find(|(n, _)| n == "serve.shed.conn")
            .map(|(_, v)| *v);
        assert!(shed_conns.is_some_and(|v| v >= 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn draining_server_sheds_new_requests_and_finishes_the_digest() {
        let dir = tmp_dir("drain");
        let server = Server::start(ServerConfig::default(), seeded_store(&dir)).unwrap();
        let addr = server.addr();
        let mut client = HttpClient::connect(addr).unwrap();
        assert_eq!(client.infer(&vec![0.5; 784]).unwrap().logits.len(), 10);

        // Start the drain, then send another request on the same
        // keep-alive connection: it must be shed, not evaluated.
        server.trigger_shutdown();
        let reply = client.post("/infer", "{\"input\":[0.5]}").unwrap();
        assert_eq!(reply.status, 503);
        assert_eq!(reply.header("retry-after"), Some("1"));

        let snap = server.stop();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert!(counter("serve.shed.drain") >= 1);
        assert_eq!(counter("serve.drain.forced"), 0, "nothing was in flight");
        let _ = fs::remove_dir_all(&dir);
    }
}
