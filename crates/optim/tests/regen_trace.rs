//! The `regen` span's `regens` arg and `DropBack::last_regens()` are the
//! exact number of weights a step regenerated: `n − k` on the first step,
//! the evictions `|old ∧ ¬new|` after that, and 0 once frozen. Kept in its
//! own test binary because tracing is process-global.

use dropback_nn::{InitScheme, ParamStore};
use dropback_optim::{DropBack, Optimizer};
use dropback_prng::Xorshift64;
use dropback_telemetry::trace::{self, TracePhase};

/// Runs one traced step; returns its regen count after checking that the
/// span and the accessor agree.
fn traced_step(db: &mut DropBack, ps: &mut ParamStore, grads: &[f32]) -> usize {
    ps.zero_grads();
    let r = ps.ranges()[0].clone();
    ps.accumulate_grad(&r, grads);
    trace::start_tracing();
    db.step(ps, 0.1);
    trace::stop_tracing();
    let records = trace::take_trace();
    let mut spans = records
        .iter()
        .filter(|e| e.name == "regen" && e.phase == TracePhase::Begin);
    let span = spans.next().expect("a regen span");
    assert!(spans.next().is_none(), "one regen span per step");
    let arg = span
        .args
        .iter()
        .find(|(k, _)| *k == "regens")
        .expect("regens arg");
    assert_eq!(arg.1, db.last_regens() as f64);
    db.last_regens()
}

#[test]
fn regen_span_counts_exactly_the_regenerated_weights() {
    let (n, k) = (300, 40);
    let mut ps = ParamStore::new(9);
    ps.register("w", n, InitScheme::lecun_normal(20));
    let mut db = DropBack::new(k).freeze_after(1);
    let mut rng = Xorshift64::new(17);
    let mut grads = || -> Vec<f32> { (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect() };

    assert_eq!(traced_step(&mut db, &mut ps, &grads()), n - k);
    let mut evicted_total = 0;
    for _ in 0..8 {
        let old = db.mask().to_vec();
        let regens = traced_step(&mut db, &mut ps, &grads());
        let evicted = old.iter().zip(db.mask()).filter(|&(&o, &m)| o && !m);
        assert_eq!(regens, evicted.count());
        evicted_total += regens;
    }
    assert!(evicted_total > 0, "random gradients should evict something");
    db.end_epoch(0, &mut ps);
    assert_eq!(traced_step(&mut db, &mut ps, &grads()), 0);
}
