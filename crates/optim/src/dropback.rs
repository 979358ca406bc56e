//! The DropBack training rule (Algorithm 1 of the paper).

use crate::state::encode_opt_epoch;
use crate::topk::top_k_mask_sharded;
use crate::{OptState, Optimizer, StateError, StateField};
use dropback_nn::{InitScheme, ParamStore};
use dropback_telemetry::Span;
use dropback_tensor::pool;

/// Elements per parallel chunk for the score/update/regen sweeps. Fixed
/// (never derived from the thread count), so the per-element work
/// assignment is identical at any `DROPBACK_THREADS` value.
const CHUNK: usize = 1 << 14;

/// DropBack: continuous pruning during training.
///
/// Following Algorithm 1, each step ranks every weight by an
/// *accumulated-gradient* score and keeps only the top `k` updated:
///
/// * a **tracked** weight's score is `|w − w₀|` — its total accumulated
///   update, recomputed from `W(t−1) − W(0)`, which is why the tracked
///   set "requires no storage" beyond the weights themselves;
/// * an **untracked** weight competes with its current `|lr · g|` (the
///   displacement it would have after entering).
///
/// The top-`k` scores become the new tracked set (`λ = S_k`,
/// `mask = 1(S > λ)`, ties broken by index). Tracked weights take the SGD
/// update `w -= lr · g`; untracked weights hold their **initialization
/// values**, so the invariant `untracked ⇒ w[i] == init(i)` holds after
/// every step and only `k` weights ever need storing: the mask plus the
/// parameters are the `(index, value)` view (see [`DropBack::mask`]).
///
/// Because untracked weights already sit at init, a step regenerates only
/// the weights it **evicts** (`old ∧ ¬new`); a frozen step regenerates
/// none. The first step after [`DropBack::new`] or
/// [`Optimizer::restore_state`] sweeps every untracked weight once, so a
/// store that does not start at init is still brought onto the invariant.
///
/// After [`DropBack::freeze_after`] epochs the tracked set is fixed and
/// untracked gradients stop participating (§2.1: "Freeze the set of tracked
/// weights after a few epochs").
#[derive(Debug, Clone)]
pub struct DropBack {
    k: usize,
    freeze_after: Option<usize>,
    frozen: bool,
    zero_untracked: bool,
    mask: Vec<bool>,
    scores: Vec<f32>,
    /// Whether a step has swept every untracked weight onto its origin
    /// since construction or restore. Not serialized: a restored rule
    /// sweeps once more.
    swept: bool,
    last_swaps: usize,
    last_regens: usize,
    epoch_swaps: usize,
    last_epoch_churn: usize,
    steps: u64,
}

impl DropBack {
    /// Creates a DropBack rule tracking at most `k` weights, never frozen.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "must track at least one weight");
        Self {
            k,
            freeze_after: None,
            frozen: false,
            zero_untracked: false,
            mask: Vec::new(),
            scores: Vec::new(),
            swept: false,
            last_swaps: 0,
            last_regens: 0,
            epoch_swaps: 0,
            last_epoch_churn: 0,
            steps: 0,
        }
    }

    /// **Ablation switch** (§2.1): set untracked weights to zero instead of
    /// regenerating their initialization values. The paper reports this
    /// destroys the "scaffolding" — compression drops from 60× to 2× on
    /// MNIST — and `repro_ablation_zeroed` reproduces the effect.
    pub fn with_zeroed_untracked(mut self) -> Self {
        self.zero_untracked = true;
        self
    }

    /// Freezes the tracked set once `epoch + 1 >= freeze_epoch` at an
    /// epoch boundary, as the paper's "Freeze Epoch" column configures.
    pub fn freeze_after(mut self, epoch: usize) -> Self {
        self.freeze_after = Some(epoch);
        self
    }

    /// The tracked-weight budget `k`.
    pub fn budget(&self) -> usize {
        self.k
    }

    /// Whether the tracked set is currently frozen.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Number of weights that entered the tracked set on the latest step —
    /// the churn quantity of the paper's Figure 2.
    pub fn last_swaps(&self) -> usize {
        self.last_swaps
    }

    /// Number of weights the latest step regenerated (or zeroed): every
    /// untracked weight on the first step after construction or restore,
    /// then exactly the evictions `|old ∧ ¬new|`, and 0 once frozen. The
    /// step's `regen` span carries the same number as its `regens` arg.
    pub fn last_regens(&self) -> usize {
        self.last_regens
    }

    /// Total swaps over the most recently finished epoch (updated by
    /// [`Optimizer::end_epoch`]) — the per-epoch churn telemetry reports.
    pub fn epoch_churn(&self) -> usize {
        self.last_epoch_churn
    }

    /// The current tracked mask (empty before the first step). With the
    /// parameters it is the stored model, e.g.
    /// `Checkpoint::from_mask(&net, opt.mask())`.
    pub fn mask(&self) -> &[bool] {
        &self.mask
    }

    /// Number of currently tracked weights.
    pub fn tracked_count(&self) -> usize {
        self.mask.iter().filter(|&&m| m).count()
    }

    /// Tracked-weight count per registered parameter range as
    /// `(name, tracked, total)` — the per-layer breakdown of Table 2.
    pub fn tracked_per_range(&self, ps: &ParamStore) -> Vec<(String, usize, usize)> {
        ps.ranges()
            .iter()
            .map(|r| {
                let tracked = (r.start()..r.end())
                    .filter(|&i| self.mask.get(i).copied().unwrap_or(false))
                    .count();
                (r.name().to_string(), tracked, r.len())
            })
            .collect()
    }

    /// Weight-compression ratio `total params / k` (what the paper's tables
    /// report, e.g. "DropBack 20k → 13.33×" on a 267k model).
    pub fn compression(&self, ps: &ParamStore) -> f32 {
        ps.len() as f32 / self.k.min(ps.len()) as f32
    }

    fn ensure_state(&mut self, n: usize) {
        if self.mask.len() != n {
            self.mask = vec![false; n];
            self.scores = vec![0.0; n];
            self.swept = false;
        }
    }
}

impl Optimizer for DropBack {
    fn step(&mut self, ps: &mut ParamStore, lr: f32) {
        let n = ps.len();
        self.ensure_state(n);
        let seed = ps.seed();
        let ranges: Vec<_> = ps.ranges().to_vec();
        let zero_untracked = self.zero_untracked;
        let origin = |scheme: InitScheme, i: usize| {
            if zero_untracked {
                0.0
            } else {
                scheme.value(seed, i as u64)
            }
        };
        // The mask this step replaces; `None` when frozen (nothing moves).
        let old_mask = if self.frozen {
            None
        } else {
            let _rank_span = Span::enter("topk-rank");
            // Score: tracked -> |w - w0| (recomputed, Algorithm 1's T);
            //        untracked -> |lr·g| (Algorithm 1's U).
            // Each score depends only on its own index, so the sweep is
            // chunked over the pool per range.
            let mask = &self.mask;
            let (params, grads) = (ps.params(), ps.grads());
            for r in &ranges {
                let scheme = r.scheme();
                let start = r.start();
                pool::for_each_chunk_mut(&mut self.scores[start..r.end()], CHUNK, |ci, chunk| {
                    let base = start + ci * CHUNK;
                    for (j, s) in chunk.iter_mut().enumerate() {
                        let i = base + j;
                        *s = if mask[i] {
                            (params[i] - origin(scheme, i)).abs()
                        } else {
                            (lr * grads[i]).abs()
                        };
                    }
                });
            }
            let new_mask = top_k_mask_sharded(&self.scores, self.k);
            Some(std::mem::replace(&mut self.mask, new_mask))
        };
        let mask = &self.mask;
        let mut entered = 0;
        let mut evicted = Vec::new();
        if let Some(old) = &old_mask {
            for (i, (&new, &old)) in mask.iter().zip(old).enumerate() {
                entered += usize::from(new && !old);
                if old && !new {
                    evicted.push(i);
                }
            }
        }
        self.last_swaps = entered;
        self.epoch_swaps += entered;
        // Untracked weights already sit at their origin, so only evictions
        // need regenerating — except on the first step, which sweeps all.
        let full_sweep = !self.swept;
        self.last_regens = if full_sweep {
            mask.iter().filter(|&&m| !m).count()
        } else {
            evicted.len()
        };
        {
            let (params, grads) = ps.update_view();
            pool::for_each_chunk_mut(params, CHUNK, |ci, chunk| {
                let base = ci * CHUNK;
                for (j, p) in chunk.iter_mut().enumerate() {
                    if mask[base + j] {
                        *p -= lr * grads[base + j];
                    }
                }
            });
        }
        let _regen_span = Span::enter_with("regen", &[("regens", self.last_regens as f64)]);
        let params = ps.params_mut();
        if full_sweep {
            for r in &ranges {
                let scheme = r.scheme();
                let start = r.start();
                pool::for_each_chunk_mut(&mut params[start..r.end()], CHUNK, |ci, chunk| {
                    let base = start + ci * CHUNK;
                    for (j, p) in chunk.iter_mut().enumerate() {
                        if !mask[base + j] {
                            *p = origin(scheme, base + j);
                        }
                    }
                });
            }
        } else {
            // Evictions are few: look up each one's range directly.
            for &i in &evicted {
                let r = &ranges[ranges.partition_point(|r| r.end() <= i)];
                params[i] = origin(r.scheme(), i);
            }
        }
        self.swept = true;
        self.steps += 1;
    }

    fn end_epoch(&mut self, epoch: usize, _ps: &mut ParamStore) {
        self.last_epoch_churn = self.epoch_swaps;
        self.epoch_swaps = 0;
        if let Some(fe) = self.freeze_after {
            if epoch + 1 >= fe {
                self.frozen = true;
            }
        }
    }

    fn name(&self) -> &str {
        if self.zero_untracked {
            "dropback-zeroed"
        } else {
            "dropback"
        }
    }

    fn stored_weights(&self, ps: &ParamStore) -> usize {
        self.k.min(ps.len())
    }

    fn tracked_mask(&self) -> Option<&[bool]> {
        Some(&self.mask)
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("tracked_k", self.tracked_count() as f64),
            ("churn", self.last_epoch_churn as f64),
            ("frozen", if self.frozen { 1.0 } else { 0.0 }),
        ]
    }

    fn snapshot_state(&self) -> OptState {
        OptState::new(self.name())
            // Configuration, captured so a restore can refuse to resume a
            // run trained under different settings.
            .with("k", StateField::U64(self.k as u64))
            .with(
                "freeze_after",
                StateField::U64(encode_opt_epoch(self.freeze_after)),
            )
            .with(
                "zero_untracked",
                StateField::U64(u64::from(self.zero_untracked)),
            )
            // Mutable state: everything the next step/end_epoch reads.
            // `scores` is excluded on purpose — it is fully overwritten
            // before every use, so it carries no cross-step information.
            .with("frozen", StateField::U64(u64::from(self.frozen)))
            .with("steps", StateField::U64(self.steps))
            .with("last_swaps", StateField::U64(self.last_swaps as u64))
            .with("epoch_swaps", StateField::U64(self.epoch_swaps as u64))
            .with(
                "last_epoch_churn",
                StateField::U64(self.last_epoch_churn as u64),
            )
            .with("mask", StateField::Bools(self.mask.clone()))
    }

    fn restore_state(&mut self, state: &OptState) -> Result<(), StateError> {
        state.expect_name(self.name())?;
        state.expect_u64("k", self.k as u64)?;
        state.expect_u64("freeze_after", encode_opt_epoch(self.freeze_after))?;
        state.expect_u64("zero_untracked", u64::from(self.zero_untracked))?;
        self.frozen = state.u64("frozen")? != 0;
        self.steps = state.u64("steps")?;
        self.last_swaps = state.u64("last_swaps")? as usize;
        self.epoch_swaps = state.u64("epoch_swaps")? as usize;
        self.last_epoch_churn = state.u64("last_epoch_churn")? as usize;
        self.mask = state.bools("mask")?.to_vec();
        // Keep the scratch buffer in lockstep with the mask so
        // `ensure_state` does not wipe the restored mask on the next step.
        self.scores = vec![0.0; self.mask.len()];
        // The store being resumed is not known to sit on the invariant.
        self.swept = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dropback_nn::InitScheme;

    fn store_with_grads(n: usize, grads: &[f32]) -> ParamStore {
        let mut ps = ParamStore::new(7);
        let r = ps.register("w", n, InitScheme::lecun_normal(4));
        ps.accumulate_grad(&r, grads);
        ps
    }

    fn regrad(ps: &mut ParamStore, grads: &[f32]) {
        ps.zero_grads();
        let r = ps.ranges()[0].clone();
        ps.accumulate_grad(&r, grads);
    }

    #[test]
    fn untracked_weights_equal_init() {
        let grads = [0.0, 5.0, 0.1, 4.0, 0.0, 3.0];
        let mut ps = store_with_grads(6, &grads);
        let mut db = DropBack::new(2);
        db.step(&mut ps, 0.1);
        for i in 0..6 {
            if !db.mask()[i] {
                assert_eq!(ps.params()[i], ps.init_value(i), "untracked {i}");
            }
        }
        // Highest |lr·g| are indices 1 and 3.
        assert!(db.mask()[1] && db.mask()[3]);
        assert_eq!(db.tracked_count(), 2);
    }

    #[test]
    fn tracked_weights_take_sgd_update() {
        let grads = [0.0, 5.0, 0.0, 4.0];
        let mut ps = store_with_grads(4, &grads);
        let w1_init = ps.params()[1];
        let mut db = DropBack::new(2);
        db.step(&mut ps, 0.1);
        assert!((ps.params()[1] - (w1_init - 0.5)).abs() < 1e-6);
    }

    #[test]
    fn k_at_least_n_equals_sgd() {
        let grads: Vec<f32> = (0..8).map(|i| i as f32 * 0.3 - 1.0).collect();
        let mut ps_db = store_with_grads(8, &grads);
        let mut ps_sgd = ps_db.clone();
        DropBack::new(100).step(&mut ps_db, 0.2);
        crate::Sgd::new().step(&mut ps_sgd, 0.2);
        assert_eq!(ps_db.params(), ps_sgd.params());
    }

    #[test]
    fn tracked_score_is_displacement() {
        // A tracked weight with a big accumulated displacement survives a
        // one-shot larger gradient elsewhere only if its displacement wins.
        let mut ps = store_with_grads(3, &[10.0, 0.0, 0.0]);
        let mut db = DropBack::new(1);
        db.step(&mut ps, 0.1); // index 0 tracked, displacement 1.0
                               // Current gradient 5.0 at index 1 -> candidate score 0.5 < 1.0.
        regrad(&mut ps, &[0.0, 5.0, 0.0]);
        db.step(&mut ps, 0.1);
        assert!(db.mask()[0], "displacement 1.0 should beat candidate 0.5");
        // Current gradient 30 at index 1 -> candidate score 3.0 > 1.0.
        regrad(&mut ps, &[0.0, 30.0, 0.0]);
        db.step(&mut ps, 0.1);
        assert!(db.mask()[1], "candidate 3.0 should evict displacement 1.0");
        assert!(!db.mask()[0]);
        assert_eq!(ps.params()[0], ps.init_value(0), "evicted weight reverts");
    }

    #[test]
    fn freezing_fixes_the_tracked_set() {
        let mut ps = store_with_grads(4, &[5.0, 0.0, 0.0, 0.0]);
        let mut db = DropBack::new(1).freeze_after(1);
        db.step(&mut ps, 0.1);
        db.end_epoch(0, &mut ps); // epoch 0 ends -> frozen (freeze_after=1)
        assert!(db.is_frozen());
        let mask_before = db.mask().to_vec();
        // Large gradient elsewhere must NOT change the set.
        for _ in 0..5 {
            regrad(&mut ps, &[0.0, 100.0, 0.0, 0.0]);
            db.step(&mut ps, 0.1);
        }
        assert_eq!(db.mask(), &mask_before[..]);
        assert_eq!(db.last_swaps(), 0);
    }

    #[test]
    fn swaps_counted() {
        let mut ps = store_with_grads(4, &[5.0, 0.0, 0.0, 0.0]);
        let mut db = DropBack::new(1);
        db.step(&mut ps, 0.1);
        assert_eq!(db.last_swaps(), 1); // first step: everything is new
        regrad(&mut ps, &[0.0, 0.0, 0.0, 100.0]);
        db.step(&mut ps, 0.1);
        assert_eq!(db.last_swaps(), 1); // index 3 replaced index 0
        assert!(db.mask()[3]);
    }

    #[test]
    fn first_step_after_restore_sweeps_a_stale_store() {
        let mut ps = store_with_grads(8, &[5.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 0.0]);
        let mut db = DropBack::new(2);
        db.step(&mut ps, 0.1);
        let snap = db.snapshot_state();
        // A store that does not sit on the invariant: every weight moved.
        for p in ps.params_mut() {
            *p += 1.0;
        }
        let mut resumed = DropBack::new(2);
        resumed.restore_state(&snap).unwrap();
        regrad(&mut ps, &[0.0; 8]);
        resumed.step(&mut ps, 0.1);
        assert_eq!(resumed.last_regens(), 6);
        for i in 0..8 {
            if !resumed.mask()[i] {
                assert_eq!(ps.params()[i], ps.init_value(i), "untracked {i}");
            }
        }
    }

    #[test]
    fn epoch_churn_accumulates_and_resets() {
        let mut ps = store_with_grads(4, &[5.0, 0.0, 0.0, 0.0]);
        let mut db = DropBack::new(1);
        db.step(&mut ps, 0.1); // 1 swap (initial fill)
        regrad(&mut ps, &[0.0, 0.0, 0.0, 100.0]);
        db.step(&mut ps, 0.1); // 1 swap (index 3 evicts index 0)
        assert_eq!(db.epoch_churn(), 0, "no epoch has finished yet");
        db.end_epoch(0, &mut ps);
        assert_eq!(db.epoch_churn(), 2);
        let metrics = db.metrics();
        assert!(metrics.contains(&("tracked_k", 1.0)));
        assert!(metrics.contains(&("churn", 2.0)));
        assert!(metrics.contains(&("frozen", 0.0)));
        db.end_epoch(1, &mut ps);
        assert_eq!(db.epoch_churn(), 0, "stepless epoch has no churn");
    }

    #[test]
    fn per_range_breakdown_sums_to_k() {
        let mut ps = ParamStore::new(3);
        let a = ps.register("a", 6, InitScheme::lecun_normal(2));
        let b = ps.register("b", 6, InitScheme::lecun_normal(2));
        ps.accumulate_grad(&a, &[9.0, 8.0, 0.0, 0.0, 0.0, 0.0]);
        ps.accumulate_grad(&b, &[7.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        let mut db = DropBack::new(3);
        db.step(&mut ps, 0.1);
        let per = db.tracked_per_range(&ps);
        let total: usize = per.iter().map(|(_, t, _)| t).sum();
        assert_eq!(total, 3);
        assert_eq!(per[0].1, 2);
        assert_eq!(per[1].1, 1);
    }

    #[test]
    fn compression_matches_paper_arithmetic() {
        let mut ps = ParamStore::new(1);
        ps.register("w", 266_610, InitScheme::Constant(0.0));
        let db = DropBack::new(20_000);
        assert!((db.compression(&ps) - 13.33).abs() < 0.01);
    }

    #[test]
    fn stored_weights_is_k() {
        let mut ps = ParamStore::new(1);
        ps.register("w", 100, InitScheme::Constant(0.0));
        assert_eq!(DropBack::new(10).stored_weights(&ps), 10);
        assert_eq!(DropBack::new(500).stored_weights(&ps), 100);
    }

    #[test]
    fn zeroed_ablation_zeroes_untracked() {
        let grads = [0.0, 5.0, 0.1, 4.0];
        let mut ps = store_with_grads(4, &grads);
        let mut db = DropBack::new(2).with_zeroed_untracked();
        db.step(&mut ps, 0.1);
        assert_eq!(ps.params()[0], 0.0);
        assert_eq!(ps.params()[2], 0.0);
        assert_ne!(ps.params()[1], 0.0);
        assert_eq!(db.name(), "dropback-zeroed");
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        // Two optimizers stepped through the same gradient stream: one
        // straight through, one snapshot/restored midway into a fresh
        // instance. Their masks and parameter trajectories must agree
        // bit-for-bit afterwards.
        let grads = |t: usize| -> Vec<f32> { (0..6).map(|i| ((i + t) % 5) as f32 - 1.5).collect() };
        let mut ps_a = store_with_grads(6, &grads(0));
        let mut ps_b = ps_a.clone();
        let mut a = DropBack::new(2).freeze_after(4);
        let mut b = DropBack::new(2).freeze_after(4);
        for t in 0..3 {
            regrad(&mut ps_a, &grads(t));
            a.step(&mut ps_a, 0.1);
            regrad(&mut ps_b, &grads(t));
            b.step(&mut ps_b, 0.1);
        }
        a.end_epoch(0, &mut ps_a);
        b.end_epoch(0, &mut ps_b);
        // Kill b; bring up a fresh instance from its snapshot.
        let snap = b.snapshot_state();
        let mut b2 = DropBack::new(2).freeze_after(4);
        b2.restore_state(&snap).unwrap();
        for t in 3..8 {
            regrad(&mut ps_a, &grads(t));
            a.step(&mut ps_a, 0.1);
            regrad(&mut ps_b, &grads(t));
            b2.step(&mut ps_b, 0.1);
        }
        assert_eq!(a.mask(), b2.mask());
        assert_eq!(ps_a.params(), ps_b.params());
        assert_eq!(a.last_swaps(), b2.last_swaps());
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let snap = DropBack::new(2).snapshot_state();
        assert!(matches!(
            DropBack::new(3).restore_state(&snap),
            Err(StateError::ConfigMismatch { field: "k", .. })
        ));
        assert!(matches!(
            DropBack::new(2).freeze_after(1).restore_state(&snap),
            Err(StateError::ConfigMismatch {
                field: "freeze_after",
                ..
            })
        ));
        assert!(matches!(
            DropBack::new(2)
                .with_zeroed_untracked()
                .restore_state(&snap),
            Err(StateError::NameMismatch { .. })
        ));
    }

    #[test]
    fn constant_init_params_regenerate_to_constants() {
        // BN-style parameters (constant init) are prunable: untracked ones
        // sit at their constant, not at zero.
        let mut ps = ParamStore::new(5);
        let g = ps.register("bn.gamma", 4, InitScheme::Constant(1.0));
        ps.accumulate_grad(&g, &[5.0, 0.0, 0.0, 0.0]);
        let mut db = DropBack::new(1);
        db.step(&mut ps, 0.1);
        assert!((ps.params()[0] - 0.5).abs() < 1e-6); // tracked, updated
        assert_eq!(&ps.params()[1..], &[1.0, 1.0, 1.0]); // regenerated γ=1
    }
}
