//! The benchmark's own arithmetic: percentiles, the tail rule, self time
//! over covered child intervals, and open-loop backlog accounting.
//! Everything here is pure so the tests at the bottom pin it exactly.

/// Percentiles the tail metric may land on, highest first.
pub const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0..=100) among `n` samples.
pub fn rank(p: f64, n: usize) -> usize {
    let r = ((p / 100.0) * n as f64).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Nearest-rank percentile of ascending `sorted`; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// Sorts a copy of `v` ascending (NaN-free input assumed; NaNs sort last).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (nearest rank) of unsorted `v`.
pub fn median(v: &[f64]) -> Option<f64> {
    percentile(&sorted(v), 50.0)
}

/// The highest-percentile reading with at least [`TAIL_BEYOND`] samples
/// strictly beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen from [`TAIL_LADDER`].
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
    /// Sample count.
    pub n: usize,
}

/// Picks the highest ladder percentile of ascending `sorted` that leaves at
/// least [`TAIL_BEYOND`] samples beyond it; `None` when even the median
/// does not (fewer than 20 samples).
pub fn tail(sorted: &[f64]) -> Option<Tail> {
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&pct| {
        let r = rank(pct, n);
        let beyond = n.saturating_sub(r);
        (n > 0 && beyond >= TAIL_BEYOND).then(|| Tail {
            pct,
            value: sorted[r - 1],
            beyond,
            n,
        })
    })
}

/// Tails are read in this many consecutive windows unless a workload
/// says otherwise.
pub const TAIL_WINDOWS: usize = 3;

/// Splits `samples` (in arrival order) into `windows` equal runs and
/// takes [`tail`] of each; returns the lowest window tail and every
/// window's tail. Host interference only ever adds time, so the quietest
/// window is the steadiest reading of the program's own tail. `None` when
/// a window has too few samples for a tail.
pub fn windowed_tail(samples: &[f64], windows: usize) -> Option<(f64, Vec<Tail>)> {
    let size = samples.len() / windows.max(1);
    let tails: Vec<Tail> = samples
        .chunks(size.max(1))
        .take(windows)
        .map(|w| tail(&sorted(w)))
        .collect::<Option<_>>()?;
    let lowest = tails.iter().map(|t| t.value).min_by(f64::total_cmp)?;
    Some((lowest, tails))
}

/// The quietest stretch of `samples` (in arrival order): of the
/// consecutive, non-overlapping windows of `size` samples, the one with
/// the lowest mean. A leftover shorter than `size` is not a window.
/// `None` when `size` is 0 or exceeds the sample count.
pub fn quietest_window(samples: &[f64], size: usize) -> Option<&[f64]> {
    if size == 0 {
        return None;
    }
    samples
        .chunks_exact(size)
        .min_by(|a, b| a.iter().sum::<f64>().total_cmp(&b.iter().sum::<f64>()))
}

/// Nanoseconds of `span` not covered by any of `children`, each clipped to
/// the span first. Overlapping children are counted once.
pub fn self_time_ns(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (s, e) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(a, b)| (a.max(s), b.min(e)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    e.saturating_sub(s).saturating_sub(covered)
}

/// Requests due by `t` but not yet answered by `t`: the open-loop backlog.
/// `done` is `None` for a request never answered.
pub fn backlog_at(due_done: &[(u64, Option<u64>)], t: u64) -> usize {
    due_done
        .iter()
        .filter(|&&(due, done)| due <= t && done.is_none_or(|d| d > t))
        .count()
}

/// How much the open-loop backlog grew over a phase: its mean at the due
/// times of the last quarter of requests minus its mean over the first
/// quarter. `due_done` is in due order. A brief stall moves one quarter's
/// mean a little; an offered rate above capacity grows it steadily.
pub fn backlog_growth(due_done: &[(u64, Option<u64>)]) -> f64 {
    let n = due_done.len();
    let q = n / 4;
    if q == 0 {
        return 0.0;
    }
    let mean = |part: &[(u64, Option<u64>)]| {
        part.iter()
            .map(|&(t, _)| backlog_at(due_done, t) as f64)
            .sum::<f64>()
            / part.len() as f64
    };
    mean(&due_done[n - q..]) - mean(&due_done[..q])
}

/// Fixed-rate open-loop arrival times: `count` requests `1e9 / rps` ns
/// apart, the first at `start_ns`.
pub fn schedule(start_ns: u64, rps: f64, count: usize) -> Vec<u64> {
    let gap = 1e9 / rps;
    (0..count)
        .map(|i| start_ns + (i as f64 * gap).round() as u64)
        .collect()
}

/// A monotonic clock that [`drive`] reads and sleeps on.
pub trait Clock {
    /// Nanoseconds since an arbitrary fixed origin.
    fn now_ns(&self) -> u64;
    /// Blocks for about `ns` nanoseconds.
    fn sleep_ns(&mut self, ns: u64);
}

/// One keep-alive connection carrying at most one request at a time.
pub trait Link {
    /// What a finished request yields.
    type Reply;
    /// Sends request number `index`.
    ///
    /// # Errors
    ///
    /// A transport failure; the request counts as failed.
    fn send(&mut self, index: usize) -> Result<(), String>;
    /// Waits at most `wait_ns` for the in-flight reply. `Ok(None)` means
    /// it has not arrived yet.
    ///
    /// # Errors
    ///
    /// A transport or protocol failure; the request counts as failed.
    fn poll(&mut self, clock: &mut dyn Clock, wait_ns: u64) -> Result<Option<Self::Reply>, String>;
}

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
pub struct Outcome<R> {
    /// Position in the schedule.
    pub index: usize,
    /// When the schedule said to send it.
    pub due_ns: u64,
    /// When it was actually written.
    pub sent_ns: u64,
    /// How late the generator wrote it once a connection was free for it:
    /// `sent − max(due, free)`.
    pub lag_ns: u64,
    /// When its reply (or failure) was seen.
    pub done_ns: u64,
    /// The reply, or why the request failed.
    pub reply: Result<R, String>,
}

impl<R> Outcome<R> {
    /// Latency charged from the due time, so a stall delays every request
    /// queued behind it by the full wait.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }
}

/// Drives `due` (ascending send times on `clock`) over `links` open-loop:
/// each request goes out on the next free link (round robin) once due, whether or not
/// earlier requests were answered; if every link is busy it waits in the
/// generator's backlog. Returns one outcome per scheduled request, in
/// schedule order. `poll_ns` bounds how long one busy link is waited on
/// while another may be ready.
pub fn drive<L: Link>(
    due: &[u64],
    links: &mut [L],
    clock: &mut dyn Clock,
    poll_ns: u64,
) -> Vec<Outcome<L::Reply>> {
    struct InFlight {
        index: usize,
        sent_ns: u64,
        lag_ns: u64,
    }
    let mut inflight: Vec<Option<InFlight>> = links.iter().map(|_| None).collect();
    let mut free_since: Vec<u64> = vec![0; links.len()];
    let mut out: Vec<Option<Outcome<L::Reply>>> = due.iter().map(|_| None).collect();
    let mut next = 0usize;
    let mut turn = 0usize;
    loop {
        let now = clock.now_ns();
        while next < due.len() && due[next] <= now {
            // Round robin over the free links, so none sits idle long
            // enough for the server to time it out.
            let n = links.len();
            let Some(slot) = (0..n)
                .map(|k| (turn + k) % n)
                .find(|&i| inflight[i].is_none())
            else {
                break;
            };
            turn = slot + 1;
            let sent_ns = clock.now_ns();
            let lag_ns = sent_ns.saturating_sub(due[next].max(free_since[slot]));
            match links[slot].send(next) {
                Ok(()) => {
                    inflight[slot] = Some(InFlight {
                        index: next,
                        sent_ns,
                        lag_ns,
                    })
                }
                Err(e) => {
                    out[next] = Some(Outcome {
                        index: next,
                        due_ns: due[next],
                        sent_ns,
                        lag_ns,
                        done_ns: sent_ns,
                        reply: Err(e),
                    })
                }
            }
            next += 1;
        }
        let busy: Vec<usize> = (0..links.len())
            .filter(|&i| inflight[i].is_some())
            .collect();
        if busy.is_empty() {
            if next >= due.len() {
                break;
            }
            clock.sleep_ns(due[next].saturating_sub(clock.now_ns()));
            continue;
        }
        // Wait on the busy links in turn. With one busy link and nothing
        // else to do, block until the next send is due.
        let until_due = (next < due.len() && busy.len() < links.len())
            .then(|| due[next].saturating_sub(clock.now_ns()));
        let wait = match (busy.len(), until_due) {
            (1, None) => poll_ns.max(1) * 20,
            (1, Some(d)) => d.clamp(1, poll_ns.max(1) * 20),
            (_, Some(d)) => d.clamp(1, poll_ns.max(1)),
            (_, None) => poll_ns.max(1),
        };
        for slot in busy {
            let polled = links[slot].poll(clock, wait);
            let done = match polled {
                Ok(None) => continue,
                Ok(Some(r)) => Ok(r),
                Err(e) => Err(e),
            };
            if let Some(f) = inflight[slot].take() {
                let done_ns = clock.now_ns();
                free_since[slot] = done_ns;
                out[f.index] = Some(Outcome {
                    index: f.index,
                    due_ns: due[f.index],
                    sent_ns: f.sent_ns,
                    lag_ns: f.lag_ns,
                    done_ns,
                    reply: done,
                });
            }
        }
    }
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.5 only 5.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).expect("enough samples");
        assert_eq!((t.pct, t.value, t.beyond, t.n), (99.0, 990.0, 10, 1000));
        // 999 samples: p99 is rank 990 with 9 beyond, so p98 is chosen.
        let t = tail(&v[..999]).expect("enough samples");
        assert_eq!((t.pct, t.beyond), (98.0, 19));
        // 65 samples (a short conv run): p80 leaves 13, p90 only 6.
        let t = tail(&v[..65]).expect("enough samples");
        assert_eq!((t.pct, t.value, t.beyond), (80.0, 52.0, 13));
        // 20 samples: only the median leaves 10 beyond.
        assert_eq!(tail(&v[..20]).map(|t| t.pct), Some(50.0));
        assert_eq!(tail(&v[..19]), None);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn windowed_tail_is_the_lowest_window_tail() {
        // Three windows of 100; the first is a little slow, the middle one
        // very slow, the last undisturbed.
        let mut v: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        for x in &mut v[..100] {
            *x += 500.0;
        }
        for x in &mut v[100..200] {
            *x += 1000.0;
        }
        let (m, tails) = windowed_tail(&v, 3).expect("enough samples");
        assert_eq!(tails.len(), 3);
        assert!(tails.iter().all(|t| t.pct == 90.0 && t.beyond == 10));
        assert_eq!(m, 89.0);
        assert_eq!(tails[0].value, 589.0);
        assert_eq!(tails[1].value, 1089.0);
        // 3 windows of 19 samples cannot hold a tail.
        assert_eq!(windowed_tail(&v[..57], 3), None);
    }

    #[test]
    fn quietest_window_has_the_lowest_mean() {
        let v = [5.0, 5.0, 1.0, 9.0, 2.0, 3.0, 0.0];
        // Windows [5, 5], [1, 9], [2, 3]; the trailing 0 is no window.
        assert_eq!(quietest_window(&v, 2), Some(&[2.0, 3.0][..]));
        assert_eq!(quietest_window(&v, 7), Some(&v[..]));
        assert_eq!(quietest_window(&v, 8), None);
        assert_eq!(quietest_window(&v, 0), None);
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        assert_eq!(self_time_ns((0, 100), &[]), 100);
        assert_eq!(self_time_ns((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children are not double counted.
        assert_eq!(self_time_ns((0, 100), &[(10, 40), (30, 50)]), 60);
        // Children are clipped to the span.
        assert_eq!(self_time_ns((10, 100), &[(0, 20), (90, 150)]), 70);
        // A child fully outside the span covers nothing.
        assert_eq!(self_time_ns((10, 20), &[(30, 40)]), 10);
        // Nested children cover the parent's interval once.
        assert_eq!(self_time_ns((0, 100), &[(0, 100), (10, 20)]), 0);
    }

    #[test]
    fn backlog_counts_due_and_unanswered() {
        let v = [(0, Some(5)), (10, Some(40)), (20, Some(41)), (30, None)];
        assert_eq!(backlog_at(&v, 4), 1);
        assert_eq!(backlog_at(&v, 5), 0);
        assert_eq!(backlog_at(&v, 35), 3);
        assert_eq!(backlog_at(&v, 41), 1);
    }

    #[test]
    fn backlog_growth_separates_overload_from_a_stall() {
        // Answered 5 ns after due, 10 ns apart: never a backlog.
        let steady: Vec<(u64, Option<u64>)> = (0..40).map(|i| (i * 10, Some(i * 10 + 5))).collect();
        assert_eq!(backlog_growth(&steady), 0.0);
        // One 35 ns stall in the middle: a bump, no trend.
        let mut stall = steady.clone();
        for (i, s) in stall.iter_mut().enumerate().skip(18).take(4) {
            s.1 = Some(215 + i as u64);
        }
        assert!(backlog_growth(&stall).abs() < 1.0);
        // Served every 12 ns while due every 10 ns: the backlog climbs.
        let over: Vec<(u64, Option<u64>)> = (0..40).map(|i| (i * 10, Some(i * 12 + 5))).collect();
        assert!(backlog_growth(&over) > 4.0, "{}", backlog_growth(&over));
        assert_eq!(backlog_growth(&over[..3]), 0.0);
    }

    #[test]
    fn fixed_rate_schedule() {
        assert_eq!(schedule(100, 100.0, 3), vec![100, 10_000_100, 20_000_100]);
    }

    /// Simulated time shared by the fake clock and the fake links.
    #[derive(Clone, Default)]
    struct Sim(Rc<Cell<u64>>);

    impl Clock for Sim {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_ns(&mut self, ns: u64) {
            self.0.set(self.0.get() + ns.max(1));
        }
    }

    /// A responder that answers request `i` `service(i)` ns after it is sent.
    struct FakeLink {
        service: fn(usize) -> u64,
        ready_at: Option<(usize, u64)>,
    }

    impl Link for FakeLink {
        type Reply = usize;
        fn send(&mut self, index: usize) -> Result<(), String> {
            Err(format!("{index} sent on a fake link without a clock"))
        }
        fn poll(&mut self, clock: &mut dyn Clock, wait_ns: u64) -> Result<Option<usize>, String> {
            let Some((i, at)) = self.ready_at else {
                return Err("poll without a request".into());
            };
            let now = clock.now_ns();
            if at <= now {
                self.ready_at = None;
                return Ok(Some(i));
            }
            clock.sleep_ns(wait_ns.min(at - now));
            if at <= clock.now_ns() {
                self.ready_at = None;
                return Ok(Some(i));
            }
            Ok(None)
        }
    }

    /// Wraps [`FakeLink`] with the simulated clock so `send` can stamp the
    /// ready time.
    struct TimedLink {
        sim: Sim,
        inner: FakeLink,
    }

    impl Link for TimedLink {
        type Reply = usize;
        fn send(&mut self, index: usize) -> Result<(), String> {
            let at = self.sim.now_ns() + (self.inner.service)(index);
            self.inner.ready_at = Some((index, at));
            Ok(())
        }
        fn poll(&mut self, clock: &mut dyn Clock, wait_ns: u64) -> Result<Option<usize>, String> {
            self.inner.poll(clock, wait_ns)
        }
    }

    fn links(sim: &Sim, n: usize, service: fn(usize) -> u64) -> Vec<TimedLink> {
        (0..n)
            .map(|_| TimedLink {
                sim: sim.clone(),
                inner: FakeLink {
                    service,
                    ready_at: None,
                },
            })
            .collect()
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn a_stall_is_charged_to_every_request_queued_behind_it() {
        // One connection; request 0 stalls 100 ms, the rest take 1 ms.
        // Requests are due every 10 ms. Closed-loop timing would report
        // ~1 ms for requests 1..; open-loop timing from the due time must
        // charge each the part of the stall it waited through.
        let mut sim = Sim::default();
        let mut l = links(&sim, 1, |i| if i == 0 { 100 * MS } else { MS });
        let due = schedule(0, 100.0, 12);
        let out = drive(&due, &mut l, &mut sim, 50_000);
        assert_eq!(out.len(), 12);
        assert!(out.iter().all(|o| o.reply.is_ok()));
        assert_eq!(out[0].latency_ns(), 100 * MS);
        // Request 1 was due at 10 ms, went out at 100 ms, answered at 101.
        let l1 = out[1].latency_ns();
        assert!((91 * MS..=92 * MS).contains(&l1), "{l1}");
        // Requests queued behind the stall each waited for their turn.
        for w in out[1..10].windows(2) {
            assert!(w[0].latency_ns() > w[1].latency_ns());
        }
        // Their send time is late, but the generator was not: each went
        // out as soon as the connection freed.
        assert!(out.iter().all(|o| o.lag_ns < MS / 10), "generator lag");
        // Once the backlog drains, latency returns to the service time.
        let last = out[11].latency_ns();
        assert!((MS..2 * MS).contains(&last), "{last}");
        // The backlog at 50 ms holds requests 0..=5.
        let dd: Vec<(u64, Option<u64>)> = out.iter().map(|o| (o.due_ns, Some(o.done_ns))).collect();
        assert_eq!(backlog_at(&dd, 50 * MS), 6);
    }

    #[test]
    fn two_links_overlap_requests() {
        // 5 ms service, due every 4 ms: one link would fall behind, two
        // keep up, so no request waits beyond its own service time.
        let mut sim = Sim::default();
        let mut l = links(&sim, 2, |_| 5 * MS);
        let due = schedule(0, 250.0, 50);
        let out = drive(&due, &mut l, &mut sim, 50_000);
        assert_eq!(out.len(), 50);
        for o in &out {
            assert!(o.latency_ns() < 6 * MS, "{} {}", o.index, o.latency_ns());
        }
    }

    #[test]
    fn links_take_turns() {
        // Light load: a lone first-free policy would leave link 1 idle.
        let mut sim = Sim::default();
        let mut l = links(&sim, 2, |_| MS);
        let out = drive(&schedule(0, 10.0, 6), &mut l, &mut sim, 50_000);
        assert_eq!(out.len(), 6);
        assert!(l.iter().all(|k| k.inner.ready_at.is_none()));
        assert!(out.iter().all(|o| o.latency_ns() == MS));
    }

    #[test]
    fn failed_sends_are_recorded() {
        let mut sim = Sim::default();
        let mut l = vec![FakeLink {
            service: |_| MS,
            ready_at: None,
        }];
        let out = drive(&schedule(0, 100.0, 3), &mut l, &mut sim, 50_000);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|o| o.reply.is_err()));
    }
}
