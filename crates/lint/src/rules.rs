//! The rule set. Every rule is a pure function over a [`FileCtx`].
//!
//! The rules exist to protect one property end to end: a DropBack run is
//! replayable bit-for-bit from `(seed, architecture, k)` because every
//! untracked weight is `regen(seed, index)` and every tracked-set decision
//! is a deterministic function of the training history. Nondeterministic
//! iteration order, wall-clock reads, and silent panics each break that
//! property in ways reviewers rarely catch by eye — so a machine catches
//! them instead. See `docs/LINTS.md` for the full rationale.

use crate::engine::{FileCtx, Role};
use crate::report::{Finding, Severity};

/// A single lint rule.
pub struct Rule {
    /// Stable identifier used in diagnostics and `lint.allow`.
    pub id: &'static str,
    /// One-line description for `--json` output and docs.
    pub summary: &'static str,
    /// The check itself.
    pub check: fn(&FileCtx, &mut Vec<Finding>),
}

/// Every rule, in reporting order.
pub fn all_rules() -> &'static [Rule] {
    &[
        Rule {
            id: "hash-iteration",
            summary: "no HashMap/HashSet in tracked-set, checkpoint, or serialization paths \
                      (iteration order is nondeterministic)",
            check: hash_iteration,
        },
        Rule {
            id: "wall-clock",
            summary: "no SystemTime/Instant/entropy APIs outside the telemetry clock modules \
                      (span.rs, trace.rs)",
            check: wall_clock,
        },
        Rule {
            id: "no-unwrap",
            summary: "no unwrap()/expect()/panic!/todo!/unimplemented! in non-test code",
            check: no_unwrap,
        },
        Rule {
            id: "no-print",
            summary: "no println!/eprintln!/dbg! in library crates (stdout/stderr are \
                      machine-parseable contracts)",
            check: no_print,
        },
        Rule {
            id: "float-eq",
            summary: "no ==/!= against float literals (use a tolerance or an integer domain)",
            check: float_eq,
        },
        Rule {
            id: "unsafe-audit",
            summary: "every `unsafe` block/fn needs an adjacent `// SAFETY:` justification \
                      (or a `# Safety` doc section), and `unsafe` itself is confined to the \
                      allowlisted kernel modules (pool.rs, simd.rs)",
            check: unsafe_audit,
        },
        Rule {
            id: "feature-detect",
            summary: "runtime CPU-feature detection (`is_x86_feature_detected!`) is confined \
                      to simd.rs — kernel selection is made once, honors DROPBACK_SIMD, and \
                      stays consistent for a whole run",
            check: feature_detect,
        },
        Rule {
            id: "panic-path",
            summary: "no unwrap/expect/panic!/unreachable! on library request/decode/replay \
                      paths (serve HTTP, checkpoint decode, core inference) — return typed \
                      errors",
            check: panic_path,
        },
        Rule {
            id: "raw-thread",
            summary: "no raw std::thread::spawn/scope outside the worker pool \
                      (crates/tensor/src/pool.rs owns thread lifecycle and determinism)",
            check: raw_thread,
        },
        Rule {
            id: "shared-state",
            summary: "no static mut, locks/channels, or atomics outside the sanctioned \
                      concurrency modules (pool.rs, telemetry, serve rt.rs) — who may \
                      share, not just who may spawn",
            check: shared_state,
        },
        Rule {
            id: "todo-marker",
            summary: "TODO/FIXME inventory (informational)",
            check: todo_marker,
        },
    ]
}

/// Paths where the tracked set, checkpoints, or serialized output are
/// produced — iteration order there must be reproducible because
/// `regen(seed, index)` replay and report diffing both depend on it.
const DETERMINISM_PATHS: &[&str] = &[
    "crates/optim/src/",
    "crates/core/src/checkpoint.rs",
    "crates/core/src/ckpt_store.rs",
    "crates/core/src/crc.rs",
    "crates/core/src/chaos.rs",
    "crates/core/src/report.rs",
    "crates/core/src/sparse_infer.rs",
    "crates/core/src/train_state.rs",
    "crates/telemetry/src/json.rs",
    "crates/telemetry/src/snapshot.rs",
];

/// The only files allowed to read the clock: `span.rs` owns the timing
/// switches, `trace.rs` owns the trace epoch, and serve's `clock.rs`
/// owns batching deadlines (wrapped as a monotonic `Deadline` so the
/// serving path never handles raw instants). Everything else —
/// including the rest of the telemetry crate and all of bench — must take
/// timestamps from those modules, so every clock read is behind the same
/// enable flags and the same monotonic epoch.
const CLOCK_PATHS: &[&str] = &[
    "crates/telemetry/src/span.rs",
    "crates/telemetry/src/trace.rs",
    "crates/serve/src/clock.rs",
];

fn in_determinism_path(path: &str) -> bool {
    DETERMINISM_PATHS.iter().any(|p| path.starts_with(p))
}

fn hash_iteration(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.role == Role::Aux || !in_determinism_path(&ctx.path) {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if (t.is_ident("HashMap") || t.is_ident("HashSet")) && !ctx.in_test(i) {
            out.push(ctx.finding(
                "hash-iteration",
                i,
                format!(
                    "{} iteration order is nondeterministic across runs; use BTreeMap/BTreeSet \
                     or a sorted Vec so tracked-set replay from regen(seed, index) stays \
                     bit-exact",
                    t.text
                ),
            ));
        }
    }
}

const CLOCK_IDENTS: &[&str] = &[
    "SystemTime",
    "Instant",
    "thread_rng",
    "from_entropy",
    "OsRng",
    "getrandom",
];

fn wall_clock(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.role == Role::Aux || CLOCK_PATHS.iter().any(|p| ctx.path.starts_with(p)) {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.kind == crate::lexer::TokenKind::Ident
            && CLOCK_IDENTS.contains(&t.text.as_str())
            && !ctx.in_test(i)
        {
            out.push(ctx.finding(
                "wall-clock",
                i,
                format!(
                    "{} injects wall-clock/entropy state into deterministic code; route timing \
                     through dropback-telemetry (Span/Stopwatch) and randomness through the \
                     seeded dropback-prng generators",
                    t.text
                ),
            ));
        }
    }
}

fn no_unwrap(ctx: &FileCtx, out: &mut Vec<Finding>) {
    // Library files on the request/decode/replay paths are owned by the
    // stricter `panic-path` rule; reporting both ids for one call site
    // would force duplicate allowlist entries.
    if ctx.role == Role::Aux || (ctx.role == Role::Lib && in_panic_path(&ctx.path)) {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.in_test(i) {
            continue;
        }
        let method_call = |name: &str| {
            t.is_ident(name)
                && ctx.prev_significant(i).is_some_and(|p| p.is_punct("."))
                && ctx.next_significant(i).is_some_and(|n| n.is_punct("("))
        };
        let macro_call = |name: &str| {
            t.is_ident(name) && ctx.next_significant(i).is_some_and(|n| n.is_punct("!"))
        };
        if method_call("unwrap") || method_call("expect") {
            out.push(ctx.finding(
                "no-unwrap",
                i,
                format!(
                    ".{}() can panic mid-training and lose the run; propagate a Result with an \
                     actionable message instead",
                    t.text
                ),
            ));
        } else if macro_call("panic") || macro_call("todo") || macro_call("unimplemented") {
            out.push(ctx.finding(
                "no-unwrap",
                i,
                format!(
                    "{}! in library code aborts the whole process; return an error the caller \
                     can handle (assert! for internal invariants is allowed)",
                    t.text
                ),
            ));
        }
    }
}

const PRINT_MACROS: &[&str] = &["println", "eprintln", "print", "eprint", "dbg"];

fn no_print(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.role != Role::Lib {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.kind == crate::lexer::TokenKind::Ident
            && PRINT_MACROS.contains(&t.text.as_str())
            && ctx.next_significant(i).is_some_and(|n| n.is_punct("!"))
            && !ctx.in_test(i)
        {
            out.push(ctx.finding(
                "no-print",
                i,
                format!(
                    "{}! in a library crate corrupts the machine-parseable stdout/stderr \
                     contract; emit telemetry events or return data to the caller",
                    t.text
                ),
            ));
        }
    }
}

fn float_eq(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.role == Role::Aux {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if !(t.is_punct("==") || t.is_punct("!=")) || ctx.in_test(i) {
            continue;
        }
        let float_neighbor = [ctx.prev_significant(i), ctx.next_significant(i)]
            .into_iter()
            .flatten()
            .any(|n| n.kind == crate::lexer::TokenKind::Float);
        if float_neighbor {
            out.push(ctx.finding(
                "float-eq",
                i,
                format!(
                    "`{}` against a float literal is exact bit comparison; if that is \
                     intentional (zero-skip, integrality check) allowlist it with a \
                     justification, otherwise compare with a tolerance",
                    t.text
                ),
            ));
        }
    }
}

/// The only library modules that may contain `unsafe` at all: the worker
/// pool (lifetime-erased task handoff, `pool.rs:270`'s transmute is the
/// template) and the upcoming `std::arch` SIMD microkernels. Everything
/// else must stay in safe Rust — the replay contract is hard enough to
/// audit without undefined behavior in the mix.
const UNSAFE_PATHS: &[&str] = &["crates/tensor/src/pool.rs", "crates/tensor/src/simd.rs"];

/// Library paths that make up the request/decode/replay flow: serve's
/// HTTP surface, checkpoint decode, and streaming inference. A panic
/// here takes down a server or a resumable run on attacker-shaped or
/// disk-corrupted input, so these files return typed errors — no
/// unwrap/expect and no panicking macros, `unreachable!` included.
const PANIC_PATHS: &[&str] = &[
    "crates/serve/src/",
    "crates/core/src/checkpoint.rs",
    "crates/core/src/ckpt_store.rs",
    "crates/core/src/crc.rs",
    "crates/core/src/chaos.rs",
    "crates/core/src/sparse_infer.rs",
    "crates/core/src/train_state.rs",
];

fn in_panic_path(path: &str) -> bool {
    PANIC_PATHS.iter().any(|p| path.starts_with(p))
}

fn unsafe_audit(ctx: &FileCtx, out: &mut Vec<Finding>) {
    use crate::parse::safety_comment_near;
    let confined = UNSAFE_PATHS.iter().any(|p| ctx.path.starts_with(p));
    let confinement = |i: usize, what: &str| {
        ctx.finding(
            "unsafe-audit",
            i,
            format!(
                "{what} outside the allowlisted unsafe modules ({}); keep unsafe code in \
                 the audited kernel files or extend the allowlist with a justification",
                UNSAFE_PATHS.join(", ")
            ),
        )
    };
    for b in &ctx.model.unsafe_blocks {
        if ctx.in_test(b.kw_tok) {
            continue;
        }
        if !safety_comment_near(&ctx.tokens, ctx.tokens[b.kw_tok].line) {
            out.push(ctx.finding(
                "unsafe-audit",
                b.kw_tok,
                format!(
                    "`unsafe` block without a `// SAFETY:` comment in the preceding 3 lines \
                     {}; state the invariant that makes this sound",
                    ctx.context_label(b.kw_tok)
                ),
            ));
        }
        if ctx.role == Role::Lib && !confined {
            out.push(confinement(b.kw_tok, "`unsafe` block"));
        }
    }
    for it in ctx.model.items.iter().filter(|it| it.is_unsafe) {
        if ctx.in_test(it.first_tok) {
            continue;
        }
        let justified =
            it.has_safety_doc || safety_comment_near(&ctx.tokens, ctx.tokens[it.first_tok].line);
        let what = if it.name.is_empty() {
            format!("unsafe {}", it.kind.label())
        } else {
            format!("unsafe {} `{}`", it.kind.label(), it.name)
        };
        if !justified {
            out.push(ctx.finding(
                "unsafe-audit",
                it.first_tok,
                format!(
                    "{what} without a `# Safety` doc section or adjacent `// SAFETY:` \
                     comment; document the contract callers must uphold"
                ),
            ));
        }
        if ctx.role == Role::Lib && !confined {
            out.push(confinement(it.first_tok, &what));
        }
    }
}

/// The only module allowed to ask the CPU what it supports: kernel
/// selection must flow through `simd::kernel()` / `simd::set_simd` so the
/// SIMD-or-scalar decision is made exactly once per process, honors the
/// `DROPBACK_SIMD` override, and cannot diverge between call sites
/// mid-run (which would be invisible — the kernels are bit-identical —
/// but would still splinter the selection contract).
const FEATURE_DETECT_PATH: &str = "crates/tensor/src/simd.rs";

fn feature_detect(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.role == Role::Aux || ctx.path.starts_with(FEATURE_DETECT_PATH) {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.is_ident("is_x86_feature_detected")
            && ctx.next_significant(i).is_some_and(|n| n.is_punct("!"))
            && !ctx.in_test(i)
        {
            out.push(ctx.finding(
                "feature-detect",
                i,
                format!(
                    "is_x86_feature_detected! {} duplicates kernel selection outside \
                     {FEATURE_DETECT_PATH}; query `simd::simd_active()` (or force a kernel \
                     with `simd::set_simd`) so the whole run agrees on one code path",
                    ctx.context_label(i)
                ),
            ));
        }
    }
}

fn panic_path(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.role != Role::Lib || !in_panic_path(&ctx.path) {
        return;
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if ctx.in_test(i) {
            continue;
        }
        let method_call = |name: &str| {
            t.is_ident(name)
                && ctx.prev_significant(i).is_some_and(|p| p.is_punct("."))
                && ctx.next_significant(i).is_some_and(|n| n.is_punct("("))
        };
        let macro_call = |name: &str| {
            t.is_ident(name) && ctx.next_significant(i).is_some_and(|n| n.is_punct("!"))
        };
        if method_call("unwrap") || method_call("expect") {
            out.push(ctx.finding(
                "panic-path",
                i,
                format!(
                    ".{}() {} sits on a request/decode/replay path; a panic here drops a \
                     live request or an entire resumable run — return a typed error",
                    t.text,
                    ctx.context_label(i)
                ),
            ));
        } else if macro_call("panic")
            || macro_call("unreachable")
            || macro_call("todo")
            || macro_call("unimplemented")
        {
            out.push(ctx.finding(
                "panic-path",
                i,
                format!(
                    "{}! {} sits on a request/decode/replay path; malformed input must \
                     surface as a typed error the caller can refuse, not a process abort",
                    t.text,
                    ctx.context_label(i)
                ),
            ));
        }
    }
}

/// The files allowed to create threads: the worker pool owns thread
/// lifecycle (spawn count, retirement, panic routing) and carries the
/// determinism contract every parallel kernel relies on, and serve's
/// `rt.rs` owns the server's named service threads (accept loop, batch
/// worker, watcher) plus the shutdown latch they all observe. Raw spawns
/// elsewhere would bypass `DROPBACK_THREADS`, the pool's engagement
/// counters, and the thread-invariance guarantees — or detach a serve
/// thread from the shutdown protocol.
const THREAD_PATHS: &[&str] = &["crates/tensor/src/pool.rs", "crates/serve/src/rt.rs"];

fn raw_thread(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.role == Role::Aux || THREAD_PATHS.iter().any(|p| ctx.path.starts_with(p)) {
        return;
    }
    for w in ctx.significant.windows(3) {
        let (a, b, c) = (&ctx.tokens[w[0]], &ctx.tokens[w[1]], &ctx.tokens[w[2]]);
        if a.is_ident("thread")
            && b.is_punct("::")
            && (c.is_ident("spawn") || c.is_ident("scope"))
            && !ctx.in_test(w[2])
        {
            out.push(ctx.finding(
                "raw-thread",
                w[2],
                format!(
                    "thread::{} bypasses the worker pool; submit tasks through \
                     dropback_tensor::pool so DROPBACK_THREADS, engagement counters, and the \
                     thread-count-invariance contract keep holding",
                    c.text
                ),
            ));
        }
    }
}

/// The modules that may own shared mutable state: the worker pool (queue,
/// engagement counters), the telemetry crate (its collectors are the
/// process-wide aggregation point and hide their locking behind
/// `lock_unpoisoned`), and serve's `rt.rs` (the shutdown latch plus the
/// `Monitor`/`Swap` primitives every other serve module builds on).
/// Extending PR 5's raw-thread rule: not just who may *spawn*, but who
/// may *share*.
const SHARED_STATE_PATHS: &[&str] = &[
    "crates/tensor/src/pool.rs",
    "crates/telemetry/src/",
    "crates/serve/src/rt.rs",
];

/// Lock/channel types whose bare appearance creates shared mutable state.
/// `OnceLock`/`LazyLock` are deliberately absent: write-once lazy init
/// cannot reorder observable events.
const SYNC_PRIMITIVES: &[&str] = &["Mutex", "RwLock", "Condvar", "Barrier", "mpsc"];

const ATOMIC_TYPES: &[&str] = &[
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
    "AtomicI8",
    "AtomicI16",
    "AtomicI32",
    "AtomicI64",
    "AtomicPtr",
];

/// The atomic memory orderings — disjoint from `cmp::Ordering`'s
/// `Less`/`Equal`/`Greater`, so a `Ordering::<variant>` path is
/// unambiguously an atomic access.
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn shared_state(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if ctx.role == Role::Aux || SHARED_STATE_PATHS.iter().any(|p| ctx.path.starts_with(p)) {
        return;
    }
    // `static mut` — found structurally, so a `mut` in a `&mut` reference
    // or pattern never false-positives.
    for it in &ctx.model.items {
        if it.is_mut_static && !ctx.in_test(it.first_tok) {
            out.push(ctx.finding(
                "shared-state",
                it.first_tok,
                format!(
                    "`static mut {}` is unsynchronized global state (and nearly impossible \
                     to use soundly); keep shared state in the sanctioned concurrency \
                     modules ({})",
                    it.name,
                    SHARED_STATE_PATHS.join(", ")
                ),
            ));
        }
    }
    for (i, t) in ctx.tokens.iter().enumerate() {
        if t.kind != crate::lexer::TokenKind::Ident || ctx.in_test(i) {
            continue;
        }
        let name = t.text.as_str();
        if SYNC_PRIMITIVES.contains(&name) || ATOMIC_TYPES.contains(&name) {
            out.push(ctx.finding(
                "shared-state",
                i,
                format!(
                    "{name} creates shared mutable state outside the sanctioned concurrency \
                     modules ({}); route it through the pool, telemetry, or serve's rt \
                     primitives — or allowlist it with a justification",
                    SHARED_STATE_PATHS.join(", ")
                ),
            ));
        }
    }
    // Per-site atomic-access reporting: every `Ordering::<variant>` names
    // its ordering in the finding, so a review of the allowlist shows
    // exactly which orderings an exempted file relies on.
    for w in ctx.significant.windows(3) {
        let (a, b, c) = (&ctx.tokens[w[0]], &ctx.tokens[w[1]], &ctx.tokens[w[2]]);
        if a.is_ident("Ordering")
            && b.is_punct("::")
            && c.kind == crate::lexer::TokenKind::Ident
            && ATOMIC_ORDERINGS.contains(&c.text.as_str())
            && !ctx.in_test(w[2])
        {
            out.push(ctx.finding(
                "shared-state",
                w[2],
                format!(
                    "atomic access with Ordering::{} {} — cross-thread memory-ordering \
                     decisions belong in the sanctioned concurrency modules ({})",
                    c.text,
                    ctx.context_label(w[2]),
                    SHARED_STATE_PATHS.join(", ")
                ),
            ));
        }
    }
}

fn todo_marker(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for t in &ctx.tokens {
        if !t.is_comment() {
            continue;
        }
        for marker in ["TODO", "FIXME"] {
            if t.text.contains(marker) {
                out.push(Finding {
                    rule: "todo-marker",
                    path: ctx.path.clone(),
                    line: t.line,
                    col: t.col,
                    message: format!("{marker} marker: {}", t.text.trim()),
                    severity: Severity::Info,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::analyze_source;

    fn rules_hit(path: &str, src: &str) -> Vec<&'static str> {
        analyze_source(path, src)
            .into_iter()
            .filter(|f| f.severity == Severity::Error)
            .map(|f| f.rule)
            .collect()
    }

    #[test]
    fn hashmap_flagged_only_in_determinism_paths() {
        let src = "use std::collections::HashMap;";
        assert_eq!(
            rules_hit("crates/optim/src/dropback.rs", src),
            vec!["hash-iteration"]
        );
        assert!(rules_hit("crates/nn/src/linear.rs", src).is_empty());
        assert!(rules_hit("crates/optim/tests/x.rs", src).is_empty());
    }

    #[test]
    fn hashmap_in_string_or_comment_is_clean() {
        let src = "// a HashMap would be bad here\nfn f() -> &'static str { \"HashMap\" }";
        assert!(rules_hit("crates/optim/src/dropback.rs", src).is_empty());
    }

    #[test]
    fn instant_flagged_outside_clock_modules() {
        let src = "use std::time::Instant;";
        assert_eq!(
            rules_hit("crates/core/src/trainer.rs", src),
            vec!["wall-clock"]
        );
        // Only the clock-owning modules may read the clock: telemetry's
        // span/trace pair and serve's deadline wrapper.
        assert!(rules_hit("crates/telemetry/src/span.rs", src).is_empty());
        assert!(rules_hit("crates/telemetry/src/trace.rs", src).is_empty());
        assert!(rules_hit("crates/serve/src/clock.rs", src).is_empty());
        // The rest of the serve crate takes deadlines, not instants.
        assert_eq!(
            rules_hit("crates/serve/src/batch.rs", src),
            vec!["wall-clock"]
        );
        // The rest of the telemetry crate — and all of bench — must route
        // timing through span/trace, not read the clock directly.
        assert_eq!(
            rules_hit("crates/telemetry/src/json.rs", src),
            vec!["wall-clock"]
        );
        assert_eq!(
            rules_hit("crates/bench/src/lib.rs", src),
            vec!["wall-clock"]
        );
    }

    #[test]
    fn unwrap_and_friends_flagged_in_lib_and_bin() {
        assert_eq!(
            rules_hit("crates/nn/src/act.rs", "fn f() { x.unwrap(); }"),
            vec!["no-unwrap"]
        );
        assert_eq!(
            rules_hit("crates/core/src/bin/cli.rs", "fn f() { x.expect(\"m\"); }"),
            vec!["no-unwrap"]
        );
        assert_eq!(
            rules_hit("crates/nn/src/act.rs", "fn f() { panic!(\"boom\"); }"),
            vec!["no-unwrap"]
        );
        assert_eq!(
            rules_hit("crates/nn/src/act.rs", "fn f() { todo!() }"),
            vec!["no-unwrap"]
        );
    }

    #[test]
    fn unwrap_lookalikes_are_clean() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(g); z.expect_err(\"m\"); \
                   assert!(true, \"panic! free\"); }";
        assert!(rules_hit("crates/nn/src/act.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_test_module_is_clean() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}";
        assert!(rules_hit("crates/nn/src/act.rs", src).is_empty());
    }

    #[test]
    fn unwrap_after_test_module_is_flagged() {
        let src = "#[cfg(test)]\nmod tests { fn t() { ok.unwrap(); } }\nfn f() { x.unwrap(); }";
        assert_eq!(rules_hit("crates/nn/src/act.rs", src), vec!["no-unwrap"]);
    }

    #[test]
    fn println_flagged_in_lib_but_not_bin() {
        let src = "fn f() { println!(\"hi\"); }";
        assert_eq!(rules_hit("crates/nn/src/act.rs", src), vec!["no-print"]);
        assert!(rules_hit("crates/core/src/bin/cli.rs", src).is_empty());
    }

    #[test]
    fn float_literal_comparison_flagged() {
        assert_eq!(
            rules_hit("crates/nn/src/act.rs", "fn f(x: f32) -> bool { x == 0.0 }"),
            vec!["float-eq"]
        );
        assert_eq!(
            rules_hit("crates/nn/src/act.rs", "fn f(x: f64) -> bool { 1.5 != x }"),
            vec!["float-eq"]
        );
        // Integer comparison and range syntax are clean.
        assert!(rules_hit("crates/nn/src/act.rs", "fn f(x: u8) -> bool { x == 0 }").is_empty());
        assert!(rules_hit("crates/nn/src/act.rs", "fn f() { for _ in 0..10 {} }").is_empty());
    }

    #[test]
    fn unsafe_audit_wants_safety_and_confinement() {
        let ok = "// SAFETY: g upholds the aliasing contract.\nfn f() { unsafe { g() } }";
        let bare = "fn f() { unsafe { g() } }";
        // In the allowlisted kernel modules, a justified block is clean
        // and an unjustified one is exactly the SAFETY finding.
        assert!(rules_hit("crates/tensor/src/pool.rs", ok).is_empty());
        assert!(rules_hit("crates/tensor/src/simd.rs", ok).is_empty());
        assert_eq!(
            rules_hit("crates/tensor/src/pool.rs", bare),
            vec!["unsafe-audit"]
        );
        // Outside them, even a justified block is a confinement finding —
        // and an unjustified one is both findings.
        assert_eq!(
            rules_hit("crates/tensor/src/gemm.rs", ok),
            vec!["unsafe-audit"]
        );
        assert_eq!(
            rules_hit("crates/tensor/src/gemm.rs", bare),
            vec!["unsafe-audit", "unsafe-audit"]
        );
        // Test regions may use unsafe without ceremony.
        let in_test = "#[cfg(test)]\nmod tests { fn t() { unsafe { g() } } }";
        assert!(rules_hit("crates/tensor/src/gemm.rs", in_test).is_empty());
    }

    #[test]
    fn unsafe_fn_accepts_a_safety_doc_section() {
        let documented = "/// Reads one byte.\n///\n/// # Safety\n///\n/// `p` must be valid for reads.\npub unsafe fn raw(p: *const u8) {}";
        assert!(rules_hit("crates/tensor/src/pool.rs", documented).is_empty());
        let undocumented = "pub unsafe fn raw(p: *const u8) {}";
        assert_eq!(
            rules_hit("crates/tensor/src/pool.rs", undocumented),
            vec!["unsafe-audit"]
        );
        // An adjacent // SAFETY: comment works for fns too.
        let commented = "// SAFETY: callers uphold the documented contract.\npub unsafe fn raw(p: *const u8) {}";
        assert!(rules_hit("crates/tensor/src/pool.rs", commented).is_empty());
    }

    #[test]
    fn feature_detect_confined_to_simd_module() {
        let src = "fn pick() -> bool { is_x86_feature_detected!(\"avx2\") }";
        // simd.rs owns detection.
        assert!(rules_hit("crates/tensor/src/simd.rs", src).is_empty());
        // Everywhere else — other tensor modules, other crates, bins —
        // must consult the simd module's selection instead.
        assert_eq!(
            rules_hit("crates/tensor/src/gemm.rs", src),
            vec!["feature-detect"]
        );
        assert_eq!(
            rules_hit("crates/bench/src/bin/bench_parallel.rs", src),
            vec!["feature-detect"]
        );
        // Tests may probe the CPU freely (e.g. to decide skippability).
        assert!(rules_hit("crates/tensor/tests/conv_fused.rs", src).is_empty());
        let in_test = "#[cfg(test)]\nmod tests { fn t() { is_x86_feature_detected!(\"fma\"); } }";
        assert!(rules_hit("crates/tensor/src/gemm.rs", in_test).is_empty());
        // An identifier that merely contains the name is clean.
        let lookalike =
            "fn f() { let is_x86_feature_detected = 1; let _ = is_x86_feature_detected; }";
        assert!(rules_hit("crates/tensor/src/gemm.rs", lookalike).is_empty());
    }

    #[test]
    fn panic_path_owns_request_decode_replay_files() {
        let src = "fn f() { x.unwrap(); }";
        assert_eq!(
            rules_hit("crates/serve/src/http.rs", src),
            vec!["panic-path"]
        );
        assert_eq!(
            rules_hit("crates/core/src/checkpoint.rs", src),
            vec!["panic-path"]
        );
        // Off the hot paths no-unwrap still owns the call site — exactly
        // one rule id fires either way, so one allow entry suffices.
        assert_eq!(rules_hit("crates/nn/src/act.rs", src), vec!["no-unwrap"]);
        // Bins on the same paths keep plain no-unwrap (panic-path is a
        // library contract; a CLI may still not unwrap, but under the
        // laxer id).
        assert_eq!(
            rules_hit("crates/serve/src/bin/probe.rs", src),
            vec!["no-unwrap"]
        );
        // unreachable! is a panic-path exclusive — decode code full of
        // match arms loves it, and corrupt input reaches those arms.
        let unreach = "fn f() { unreachable!(); }";
        assert_eq!(
            rules_hit("crates/serve/src/http.rs", unreach),
            vec!["panic-path"]
        );
        assert!(rules_hit("crates/nn/src/act.rs", unreach).is_empty());
        let in_test = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }";
        assert!(rules_hit("crates/serve/src/http.rs", in_test).is_empty());
    }

    #[test]
    fn panic_path_messages_name_the_enclosing_fn() {
        let findings = analyze_source("crates/serve/src/http.rs", "fn handle() { x.unwrap(); }");
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains("in fn `handle`"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn shared_state_confined_to_sanctioned_modules() {
        let src = "use std::sync::Mutex;";
        assert_eq!(
            rules_hit("crates/serve/src/batch.rs", src),
            vec!["shared-state"]
        );
        // The sanctioned owners — pool, telemetry, serve's rt — are clean.
        assert!(rules_hit("crates/tensor/src/pool.rs", src).is_empty());
        assert!(rules_hit("crates/telemetry/src/metrics.rs", src).is_empty());
        assert!(rules_hit("crates/serve/src/rt.rs", src).is_empty());
        assert!(rules_hit("crates/serve/tests/x.rs", src).is_empty());
        // Channels and atomics are shared state too.
        assert_eq!(
            rules_hit("crates/core/src/trainer.rs", "use std::sync::mpsc;"),
            vec!["shared-state"]
        );
        assert_eq!(
            rules_hit(
                "crates/nn/src/act.rs",
                "static N: AtomicU64 = AtomicU64::new(0);"
            ),
            vec!["shared-state", "shared-state"]
        );
        // Write-once lazy init is not shared *mutable* state.
        assert!(rules_hit("crates/tensor/src/gemm.rs", "use std::sync::OnceLock;").is_empty());
    }

    #[test]
    fn static_mut_is_flagged_structurally() {
        assert_eq!(
            rules_hit("crates/nn/src/act.rs", "static mut N: u32 = 0;"),
            vec!["shared-state"]
        );
        // `&mut`, `let mut`, and immutable statics never false-positive.
        let clean = "static K: u32 = 0;\nfn f(x: &mut u32) { let mut y = *x; y += K; *x = y; }";
        assert!(rules_hit("crates/nn/src/act.rs", clean).is_empty());
    }

    #[test]
    fn atomic_orderings_report_per_site_but_cmp_ordering_is_clean() {
        let findings = analyze_source(
            "crates/nn/src/act.rs",
            "fn f() { N.fetch_add(1, Ordering::SeqCst); }",
        );
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains("Ordering::SeqCst"),
            "{}",
            findings[0].message
        );
        assert!(
            findings[0].message.contains("in fn `f`"),
            "{}",
            findings[0].message
        );
        // `cmp::Ordering`'s variants share the type name but not the
        // variant names — comparison code stays clean.
        let cmp = "fn f(c: Ordering) -> bool { matches!(c, Ordering::Less) }";
        assert!(rules_hit("crates/nn/src/act.rs", cmp).is_empty());
    }

    #[test]
    fn raw_thread_flagged_outside_pool() {
        let spawn = "fn f() { std::thread::spawn(|| {}); }";
        let scope = "fn f() { std::thread::scope(|s| { let _ = s; }); }";
        assert_eq!(
            rules_hit("crates/tensor/src/gemm.rs", spawn),
            vec!["raw-thread"]
        );
        assert_eq!(
            rules_hit("crates/optim/src/topk.rs", scope),
            vec!["raw-thread"]
        );
        // The pool module owns compute-thread lifecycle and serve's rt
        // module owns service-thread lifecycle; tests and benches may
        // spawn helpers freely.
        assert!(rules_hit("crates/tensor/src/pool.rs", spawn).is_empty());
        assert!(rules_hit("crates/serve/src/rt.rs", spawn).is_empty());
        // The rest of serve must go through rt::spawn, not raw spawns.
        assert_eq!(
            rules_hit("crates/serve/src/server.rs", spawn),
            vec!["raw-thread"]
        );
        assert!(rules_hit("crates/tensor/tests/pool_overhead.rs", spawn).is_empty());
        let in_test = "#[cfg(test)]\nmod tests { fn t() { std::thread::spawn(|| {}); } }";
        assert!(rules_hit("crates/core/src/trainer.rs", in_test).is_empty());
    }

    #[test]
    fn thread_lookalikes_are_clean() {
        // Other items from std::thread stay legal — only spawn/scope create
        // threads behind the pool's back.
        let src = "fn f() { let n = std::thread::available_parallelism(); \
                   std::thread::sleep(d); my::scope(); spawn(); }";
        assert!(rules_hit("crates/core/src/trainer.rs", src).is_empty());
    }

    #[test]
    fn todo_markers_are_informational() {
        let findings = analyze_source("crates/nn/src/act.rs", "// TODO: faster path\nfn f() {}");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "todo-marker");
        assert_eq!(findings[0].severity, Severity::Info);
    }
}
