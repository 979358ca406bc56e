//! Digest of one traced pass: the benchmark's own spans around each public
//! call plus the spans and async lanes the program already emits.
//!
//! [`digest`] pairs the records in memory. It keeps the thread that ran
//! the `root` spans apart from the rest: pool workers run kernels in
//! parallel with the step that spawned them, so only on that thread is
//! each nanosecond attributed to exactly one innermost span, and there the
//! per-layer numbers add up to the step.
//!
//! [`cross_check`] renders a slice of the records to Chrome trace JSON and
//! runs the program's own [`dropback::analyze_chrome_trace`] over it,
//! which must agree with [`digest`] span for span. Only a slice: that
//! analyzer's JSON parser re-validates the rest of the input at every
//! string character, so its cost grows with the square of the trace size
//! and a whole traced run does not finish in minutes.

use crate::stats::self_time_ns;
use dropback::analyze_chrome_trace;
use dropback::telemetry::trace::{self, TracePhase, TraceRecord};
use std::collections::BTreeMap;

/// Count, total and self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    /// Completed spans.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the covered child intervals.
    pub self_ns: u64,
    /// Summed `flops` annotations of the begin events.
    pub flops: f64,
}

/// Per-name aggregates plus per-request async lanes.
#[derive(Debug, Default)]
pub struct Digest {
    /// Spans on the thread that ran the `root` spans.
    pub main: BTreeMap<&'static str, Agg>,
    /// The same names summed over every thread: busy time, which may
    /// exceed wall time when the pool runs kernels in parallel.
    pub all: BTreeMap<&'static str, Agg>,
    /// Async lanes by request id: `(lane, begin, end)`.
    pub lanes: BTreeMap<u64, Vec<(&'static str, u64, u64)>>,
    /// Async instants: name and annotations.
    pub instants: Vec<(&'static str, Vec<(&'static str, f64)>)>,
}

impl Digest {
    /// Main-thread aggregate for `name` (zero when absent).
    pub fn main(&self, name: &str) -> Agg {
        self.main.get(name).copied().unwrap_or_default()
    }

    /// All-threads aggregate for `name` (zero when absent).
    pub fn all(&self, name: &str) -> Agg {
        self.all.get(name).copied().unwrap_or_default()
    }

    /// `(begin, end)` of lane `name` for request `id`.
    pub fn lane(&self, id: u64, name: &str) -> Option<(u64, u64)> {
        self.lanes
            .get(&id)?
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, b, e)| (b, e))
    }
}

/// Pairs begin/end events per thread and async lanes per `(name, id)`.
///
/// # Errors
///
/// An end without a matching begin, or a span left open.
pub fn digest(records: &[TraceRecord], root: &str) -> Result<Digest, String> {
    struct Frame {
        name: &'static str,
        start: u64,
        flops: f64,
        children: Vec<(u64, u64)>,
    }
    let mut per_tid: BTreeMap<u64, BTreeMap<&'static str, Agg>> = BTreeMap::new();
    let mut stacks: BTreeMap<u64, Vec<Frame>> = BTreeMap::new();
    let mut open_lanes: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
    let mut out = Digest::default();
    let mut main_tid = None;
    for r in records {
        match r.phase {
            TracePhase::Begin => stacks.entry(r.tid).or_default().push(Frame {
                name: r.name,
                start: r.ts_ns,
                flops: r
                    .args
                    .iter()
                    .find(|(k, _)| *k == "flops")
                    .map_or(0.0, |&(_, v)| v),
                children: Vec::new(),
            }),
            TracePhase::End => {
                let stack = stacks.entry(r.tid).or_default();
                let f = stack
                    .pop()
                    .ok_or_else(|| format!("end of `{}` on tid {} with no begin", r.name, r.tid))?;
                if f.name != r.name {
                    return Err(format!("end of `{}` closes `{}`", r.name, f.name));
                }
                let end = r.ts_ns.max(f.start);
                if let Some(parent) = stack.last_mut() {
                    parent.children.push((f.start, end));
                }
                if f.name == root && main_tid.is_none() {
                    main_tid = Some(r.tid);
                }
                let a = per_tid.entry(r.tid).or_default().entry(f.name).or_default();
                a.count += 1;
                a.total_ns += end - f.start;
                a.self_ns += self_time_ns((f.start, end), &f.children);
                a.flops += f.flops;
            }
            TracePhase::AsyncBegin => {
                if let Some(id) = r.id {
                    open_lanes.insert((r.name, id), r.ts_ns);
                }
            }
            TracePhase::AsyncEnd => {
                let id = r.id.unwrap_or(0);
                let b = open_lanes
                    .remove(&(r.name, id))
                    .ok_or_else(|| format!("lane `{}` id {id} ends without a begin", r.name))?;
                out.lanes
                    .entry(id)
                    .or_default()
                    .push((r.name, b, r.ts_ns.max(b)));
            }
            TracePhase::AsyncInstant => out.instants.push((r.name, r.args.clone())),
            TracePhase::Counter => {}
        }
    }
    if let Some((tid, f)) = stacks
        .iter()
        .find_map(|(tid, s)| s.last().map(|f| (tid, f)))
    {
        return Err(format!("span `{}` on tid {tid} never ended", f.name));
    }
    if let Some(((name, id), _)) = open_lanes.iter().next() {
        return Err(format!("lane `{name}` id {id} never ended"));
    }
    for (tid, m) in per_tid {
        for (name, a) in m {
            let t = out.all.entry(name).or_default();
            t.count += a.count;
            t.total_ns += a.total_ns;
            t.self_ns += a.self_ns;
            t.flops += a.flops;
            if Some(tid) == main_tid {
                out.main.insert(name, a);
            }
        }
    }
    Ok(out)
}

/// Runs the program's trace analyzer over `records` (a small, balanced
/// slice) and checks it agrees with [`digest`]: the same span names with
/// the same counts and self times over all threads, and the same async
/// lanes with the same counts and total durations. Returns how many
/// events the analyzer consumed.
///
/// # Errors
///
/// The slice does not render or analyze, or the two digests disagree.
pub fn cross_check(records: &[TraceRecord]) -> Result<usize, String> {
    let mut buf = Vec::new();
    trace::write_chrome_trace(&mut buf, records).map_err(|e| e.to_string())?;
    let text = String::from_utf8(buf).map_err(|e| e.to_string())?;
    let a = analyze_chrome_trace(&text).map_err(|e| e.to_string())?;
    let d = digest(records, "")?;
    // The analyzer works in microseconds; allow rounding per span.
    let close = |us: f64, ns: u64, n: u64| (us - ns as f64 / 1e3).abs() <= 0.01 * n.max(1) as f64;
    for row in &a.phases {
        let mine = d.all(&row.name);
        if row.count != mine.count || !close(row.self_us, mine.self_ns, mine.count) {
            return Err(format!(
                "span `{}`: analyzer {} x {:.3} us self, digest {} x {:.3} us",
                row.name,
                row.count,
                row.self_us,
                mine.count,
                mine.self_ns as f64 / 1e3
            ));
        }
    }
    if a.phases.len() != d.all.len() {
        return Err(format!(
            "analyzer saw {} span names, digest {}",
            a.phases.len(),
            d.all.len()
        ));
    }
    for stage in &a.async_stages {
        let durs: Vec<u64> = d
            .lanes
            .values()
            .flatten()
            .filter(|(n, _, _)| *n == stage.name)
            .map(|&(_, b, e)| e - b)
            .collect();
        let n = durs.len() as u64;
        if stage.count != n || !close(stage.total_us, durs.iter().sum(), n) {
            return Err(format!("lane `{}` disagrees with the digest", stage.name));
        }
    }
    Ok(a.events)
}

/// The records inside the first `name` span: that span, everything its
/// thread did inside it, and every other thread's events in the same
/// interval (pool tasks the span waited for). Empty when there is none.
pub fn first_span_window(records: &[TraceRecord], name: &str) -> Vec<TraceRecord> {
    let Some(begin) = records
        .iter()
        .position(|r| r.phase == TracePhase::Begin && r.name == name)
    else {
        return Vec::new();
    };
    let (tid, start) = (records[begin].tid, records[begin].ts_ns);
    let mut depth = 0usize;
    let end = records[begin..]
        .iter()
        .filter(|r| r.tid == tid)
        .find_map(|r| match r.phase {
            TracePhase::Begin => {
                depth += 1;
                None
            }
            TracePhase::End => {
                depth -= 1;
                (depth == 0).then_some(r.ts_ns)
            }
            _ => None,
        });
    let Some(end) = end else {
        return Vec::new();
    };
    records
        .iter()
        .filter(|r| !r.phase.is_async() && r.ts_ns >= start && r.ts_ns <= end)
        .cloned()
        .collect()
}

/// The async lane events of the requests in `ids`.
pub fn lanes_of(records: &[TraceRecord], ids: &[u64]) -> Vec<TraceRecord> {
    records
        .iter()
        .filter(|r| {
            matches!(r.phase, TracePhase::AsyncBegin | TracePhase::AsyncEnd)
                && r.id.is_some_and(|id| ids.contains(&id))
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(tid: u64, phase: TracePhase, name: &'static str, ts_ns: u64) -> TraceRecord {
        TraceRecord {
            ts_ns,
            tid,
            phase,
            name,
            id: None,
            args: Vec::new(),
        }
    }

    #[test]
    fn main_thread_self_times_partition_the_root_span() {
        use TracePhase::{Begin as B, End as E};
        let r = vec![
            rec(0, B, "step", 0),
            rec(0, B, "fwd", 10),
            rec(0, B, "gemm", 20),
            rec(1, B, "gemm", 20),
            rec(0, E, "gemm", 50),
            rec(1, E, "gemm", 70),
            rec(0, E, "fwd", 60),
            rec(0, B, "opt", 60),
            rec(0, E, "opt", 95),
            rec(0, E, "step", 100),
        ];
        let d = digest(&r, "step").expect("paired");
        let main_self: u64 = d.main.values().map(|a| a.self_ns).sum();
        assert_eq!(main_self, 100);
        assert_eq!(d.main("step").self_ns, 15);
        assert_eq!(d.main("fwd").self_ns, 20);
        assert_eq!(d.main("gemm").self_ns, 30);
        // The worker's gemm counts as busy time, not as main-thread wall.
        assert_eq!(d.all("gemm").self_ns, 80);
        assert_eq!(d.all("gemm").count, 2);
    }

    #[test]
    fn unpaired_spans_are_errors() {
        use TracePhase::{Begin as B, End as E};
        assert!(digest(&[rec(0, E, "a", 1)], "a").is_err());
        assert!(digest(&[rec(0, B, "a", 1)], "a").is_err());
        assert!(digest(&[rec(0, B, "a", 1), rec(0, E, "b", 2)], "a").is_err());
    }

    #[test]
    fn lanes_pair_by_name_and_id() {
        let lane = |phase, name, id, ts_ns| TraceRecord {
            ts_ns,
            tid: 3,
            phase,
            name,
            id: Some(id),
            args: Vec::new(),
        };
        let r = vec![
            lane(TracePhase::AsyncBegin, "req", 7, 100),
            lane(TracePhase::AsyncBegin, "queue", 7, 110),
            lane(TracePhase::AsyncEnd, "queue", 7, 150),
            lane(TracePhase::AsyncEnd, "req", 7, 200),
        ];
        let d = digest(&r, "step").expect("paired");
        assert_eq!(d.lane(7, "req"), Some((100, 200)));
        assert_eq!(d.lane(7, "queue"), Some((110, 150)));
        assert_eq!(d.lane(8, "req"), None);
    }
}
