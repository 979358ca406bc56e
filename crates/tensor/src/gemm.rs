//! Packed, cache-blocked, multi-threaded matrix multiplication.
//!
//! Three entry points cover everything the layer backward passes need
//! without materializing transposes:
//!
//! * [`matmul`]     — `C = A · B`
//! * [`matmul_tn`]  — `C = Aᵀ · B` (e.g. weight gradients `Xᵀ · dY`)
//! * [`matmul_nt`]  — `C = A · Bᵀ` (e.g. input gradients `dY · Wᵀ`)
//!
//! [`matmul_slice`] and [`matmul_nt_slice`] take `B` as a flat slice, so a
//! layer's weights are read in place from the parameter store.
//!
//! All three route through one BLIS-style blocked loop nest
//! ([`gemm_into`]): B panels are packed `NR` columns at a time, A panels
//! `MR` rows at a time, and every `MR×NR` output tile is updated by the
//! microkernel selected in [`crate::simd`] (AVX2/FMA or bit-identical
//! scalar). Transposed operands are handled by the *pack* reading the
//! source in its natural layout — no `O(km)` transpose copies — and the
//! convolution path packs B straight out of the input image via the
//! im2col coordinate mapping, so the column matrix is never materialized
//! (see [`crate::conv`]).
//!
//! **Determinism.** Each output element receives one sequential
//! fused-multiply-add fold over `k` in ascending order: `KC` blocks are
//! visited in order, the microkernel folds each block in order on top of
//! the previous partial, and row-block tasks only partition *disjoint*
//! output rows by problem shape (never by thread count). Results are
//! therefore bit-identical for every `DROPBACK_THREADS` value, with SIMD
//! on or off — `tests/gemm_conformance.rs` pins this against a naive
//! `f32::mul_add` triple loop, exactly.
//!
//! Pack buffers are thread-local and bounded (`MC·KC` floats for A,
//! `KC·NC` for B per thread), reused across calls instead of sized per
//! call. Every entry point records a `"gemm"` span (annotated with the
//! call's FLOP count for the trace analyzer's GFLOP/s column) plus
//! call/FLOP counters in the global collector.

use crate::conv::ConvGeom;
use crate::simd::{self, Kernel, MR, NR};
use crate::{pool, Tensor};
use dropback_telemetry::{global, Counter, Span};
use std::cell::RefCell;
use std::sync::OnceLock;

/// Rows per packed A block (multiple of `MR`); the A block of `MC × KC`
/// floats is sized to stay cache-resident while a B panel streams past.
const MC: usize = 96;
/// Shared-dimension depth per packed block.
const KC: usize = 256;
/// Columns per packed B block (multiple of `NR`).
const NC: usize = 512;

/// Problems smaller than this many multiply-accumulates stay single-threaded.
const PARALLEL_THRESHOLD: usize = 1 << 18;

/// Multiply-accumulates per parallel row block. The row-chunk size is
/// derived from this and the problem shape only, keeping the task list
/// independent of the worker count (the determinism contract of
/// [`pool::run_tasks`]).
const BLOCK_MACS: usize = 1 << 16;

/// Rows per parallel task for an `m × k × n` problem — a pure function of
/// the problem shape, rounded up to whole `MR` micro-panels so tasks never
/// split a register tile.
fn par_row_chunk(m: usize, k: usize, n: usize) -> usize {
    let rows = (BLOCK_MACS / (k * n).max(1)).max(1);
    rows.next_multiple_of(MR).min(m.next_multiple_of(MR))
}

thread_local! {
    /// Reusable packed-A buffer (≤ `MC·KC` floats), one per worker thread.
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Reusable packed-B buffer (≤ `KC·NC` floats), one per worker thread.
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Takes a thread-local pack buffer. Taken (not borrowed) so a nested gemm
/// on the same thread — e.g. the caller draining a concurrent run's conv
/// task while its own gemm is mid-flight — starts from an empty buffer
/// instead of panicking on a `RefCell` re-borrow.
fn take_buf(slot: &'static std::thread::LocalKey<RefCell<Vec<f32>>>) -> Vec<f32> {
    slot.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

/// Returns a pack buffer to its thread-local slot for the next call.
fn put_buf(slot: &'static std::thread::LocalKey<RefCell<Vec<f32>>>, buf: Vec<f32>) {
    slot.with(|c| *c.borrow_mut() = buf);
}

/// Where a gemm call reads its `m × k` left operand from.
#[derive(Clone, Copy)]
pub(crate) enum ASrc<'a> {
    /// `A[i, kk]` stored row-major at `data[i * k + kk]`.
    RowMajor(&'a [f32]),
    /// `A[i, kk]` stored transposed (`[k, m]`) at `data[kk * m + i]` —
    /// lets [`matmul_tn`] pack Aᵀ with contiguous copies, no transpose
    /// tensor.
    ColMajor(&'a [f32]),
}

/// Where a gemm call reads its `k × n` right operand from.
#[derive(Clone, Copy)]
pub(crate) enum BSrc<'a> {
    /// `B[kk, j]` stored row-major at `data[kk * n + j]`.
    RowMajor(&'a [f32]),
    /// `B[kk, j]` stored transposed (`[n, k]`) at `data[j * k + kk]`
    /// (for [`matmul_nt`]).
    ColMajor(&'a [f32]),
    /// The im2col matrix of one `[c, h, w]` image, read on the fly via the
    /// coordinate mapping: row `kk` decomposes to `(c, ky, kx)`, column
    /// `j` to `(oy, ox)`, and the pack gathers `image[c, iy, ix]` (or a
    /// padding zero) directly — the column matrix is never materialized.
    Im2col {
        /// The `[c, h, w]` input image, flat.
        image: &'a [f32],
        /// Convolution geometry defining the mapping.
        geom: ConvGeom,
    },
    /// The *transpose* of the im2col matrix (row `kk` ↦ `(oy, ox)`,
    /// column `j` ↦ `(c, ky, kx)`), used by the weight-gradient GEMM
    /// `dW = dY · im2colᵀ`.
    Im2colT {
        /// The `[c, h, w]` input image, flat.
        image: &'a [f32],
        /// Convolution geometry defining the mapping.
        geom: ConvGeom,
    },
}

/// Records one gemm call of `2·m·n·k` FLOPs in the global collector and
/// returns the timing span guard, annotated with the FLOP count so the
/// trace analyzer can derive per-kernel GFLOP/s. Counter handles are
/// resolved once — the per-call cost is two relaxed atomic adds.
fn gemm_telemetry(m: usize, k: usize, n: usize) -> Span {
    static COUNTERS: OnceLock<(Counter, Counter)> = OnceLock::new();
    let (calls, flops) = COUNTERS.get_or_init(|| {
        let g = global();
        (
            g.counter("tensor.gemm.calls"),
            g.counter("tensor.gemm.flops"),
        )
    });
    let nflops = 2 * (m * n * k) as u64;
    calls.inc();
    flops.add(nflops);
    Span::enter_with("gemm", &[("flops", nflops as f64)])
}

/// `C = A · B` for rank-2 tensors `A: [m, k]`, `B: [k, n]`.
///
/// # Panics
///
/// Panics if either input is not rank-2 or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    let (k2, n) = dims2(b, "matmul rhs");
    assert_eq!(k, k2, "matmul inner dims: lhs [{m},{k}] vs rhs [{k2},{n}]");
    matmul_slice(a, b.data(), n)
}

/// [`matmul`] with `B: [k, n]` given as a flat row-major slice, so a layer
/// can feed a weight range straight from its parameter store instead of
/// copying it into a tensor first.
///
/// # Panics
///
/// Panics if `a` is not rank-2 or `b.len() != k * n`.
pub fn matmul_slice(a: &Tensor, b: &[f32], n: usize) -> Tensor {
    let (m, k) = dims2(a, "matmul lhs");
    assert_eq!(
        b.len(),
        k * n,
        "matmul rhs: {} values for [{k},{n}]",
        b.len()
    );
    let mut out = vec![0.0f32; m * n];
    gemm_into(
        &mut out,
        m,
        n,
        k,
        ASrc::RowMajor(a.data()),
        BSrc::RowMajor(b),
    );
    Tensor::from_vec(vec![m, n], out)
}

/// `C = Aᵀ · B` for `A: [k, m]`, `B: [k, n]`, producing `[m, n]`.
///
/// The transpose is absorbed by the A pack (column-major reads), not a
/// copy.
///
/// # Panics
///
/// Panics if either input is not rank-2 or the shared dimension disagrees.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = dims2(a, "matmul_tn lhs");
    let (k2, n) = dims2(b, "matmul_tn rhs");
    assert_eq!(
        k, k2,
        "matmul_tn shared dim: lhs [{k},{m}] vs rhs [{k2},{n}]"
    );
    let mut out = vec![0.0f32; m * n];
    gemm_into(
        &mut out,
        m,
        n,
        k,
        ASrc::ColMajor(a.data()),
        BSrc::RowMajor(b.data()),
    );
    Tensor::from_vec(vec![m, n], out)
}

/// `C = A · Bᵀ` for `A: [m, k]`, `B: [n, k]`, producing `[m, n]`.
///
/// The transpose is absorbed by the B pack (column-major reads), not a
/// copy.
///
/// # Panics
///
/// Panics if either input is not rank-2 or the shared dimension disagrees.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_nt lhs");
    let (n, k2) = dims2(b, "matmul_nt rhs");
    assert_eq!(
        k, k2,
        "matmul_nt shared dim: lhs [{m},{k}] vs rhs [{n},{k2}]"
    );
    matmul_nt_slice(a, b.data(), n)
}

/// [`matmul_nt`] with `B: [n, k]` given as a flat row-major slice (e.g. a
/// `Linear` layer's `[out, in]` weight range, read in place).
///
/// # Panics
///
/// Panics if `a` is not rank-2 or `b.len() != n * k`.
pub fn matmul_nt_slice(a: &Tensor, b: &[f32], n: usize) -> Tensor {
    let (m, k) = dims2(a, "matmul_nt lhs");
    assert_eq!(
        b.len(),
        n * k,
        "matmul_nt rhs: {} values for [{n},{k}]",
        b.len()
    );
    let mut out = vec![0.0f32; m * n];
    gemm_into(
        &mut out,
        m,
        n,
        k,
        ASrc::RowMajor(a.data()),
        BSrc::ColMajor(b),
    );
    Tensor::from_vec(vec![m, n], out)
}

/// `C += A · B` into a caller-provided `m × n` buffer — the single blocked
/// loop nest every entry point (and the fused conv path) runs through.
///
/// `c` is accumulated into, so callers wanting `C = A·B` pass zeros.
///
/// # Panics
///
/// Panics if `c.len() != m * n` or a source slice is too short for the
/// declared dimensions.
pub(crate) fn gemm_into(c: &mut [f32], m: usize, n: usize, k: usize, a: ASrc<'_>, b: BSrc<'_>) {
    assert_eq!(c.len(), m * n, "gemm output buffer");
    let _span = gemm_telemetry(m, k, n);
    let kern = simd::kernel();
    let chunk = par_row_chunk(m, k, n);
    let parallel = m * n * k >= PARALLEL_THRESHOLD && pool::threads() >= 2 && chunk < m;
    let mut bbuf = take_buf(&PACK_B);
    for jc in (0..n).step_by(NC) {
        let nb = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kb = KC.min(k - pc);
            pack_b(&mut bbuf, b, k, n, pc, kb, jc, nb);
            if parallel {
                let bref = &bbuf;
                let tasks: Vec<pool::Task<'_>> = c
                    .chunks_mut(chunk * n)
                    .enumerate()
                    .map(|(t, crows)| {
                        let rows = crows.len() / n;
                        Box::new(move || {
                            gemm_row_block(
                                kern,
                                crows,
                                t * chunk,
                                rows,
                                n,
                                jc,
                                nb,
                                pc,
                                kb,
                                a,
                                m,
                                k,
                                bref,
                            );
                        }) as pool::Task<'_>
                    })
                    .collect();
                pool::run_tasks(tasks);
            } else {
                gemm_row_block(kern, c, 0, m, n, jc, nb, pc, kb, a, m, k, &bbuf);
            }
        }
    }
    put_buf(&PACK_B, bbuf);
}

/// Updates rows `[row0, row0 + rows)` of C for one `(jc, pc)` block:
/// packs A in `MC`-row sub-blocks into the thread-local buffer and walks
/// the `MR×NR` tile grid against the shared packed-B block.
#[allow(clippy::too_many_arguments)]
fn gemm_row_block(
    kern: Kernel,
    crows: &mut [f32],
    row0: usize,
    rows: usize,
    n: usize,
    jc: usize,
    nb: usize,
    pc: usize,
    kb: usize,
    a: ASrc<'_>,
    m: usize,
    k: usize,
    bbuf: &[f32],
) {
    let mut abuf = take_buf(&PACK_A);
    let npanels = nb.div_ceil(NR);
    for ic in (0..rows).step_by(MC) {
        let mb = MC.min(rows - ic);
        pack_a(&mut abuf, a, m, k, row0 + ic, mb, pc, kb);
        for jp in 0..npanels {
            let nr = NR.min(nb - jp * NR);
            let bp = &bbuf[jp * kb * NR..(jp + 1) * kb * NR];
            for ir in (0..mb).step_by(MR) {
                let mr = MR.min(mb - ir);
                let ap = &abuf[(ir / MR) * kb * MR..(ir / MR + 1) * kb * MR];
                let off = (ic + ir) * n + jc + jp * NR;
                if mr == MR && nr == NR {
                    let tile = &mut crows[off..off + (MR - 1) * n + NR];
                    simd::run_tile(kern, ap, bp, kb, tile, n);
                } else {
                    // Edge tile: run the full-size kernel on a scratch
                    // tile (packed panels are zero-padded) and copy the
                    // live `mr × nr` region back. Each live element's fma
                    // chain is identical to the full-tile path, so edges
                    // are bit-identical too.
                    let mut scratch = [0.0f32; MR * NR];
                    for i in 0..mr {
                        let src = &crows[off + i * n..off + i * n + nr];
                        scratch[i * NR..i * NR + nr].copy_from_slice(src);
                    }
                    simd::run_tile(kern, ap, bp, kb, &mut scratch, NR);
                    for i in 0..mr {
                        let dst = &mut crows[off + i * n..off + i * n + nr];
                        dst.copy_from_slice(&scratch[i * NR..i * NR + nr]);
                    }
                }
            }
        }
    }
    put_buf(&PACK_A, abuf);
}

/// Packs A rows `[row0, row0+mb) × k-range [pc, pc+kb)` into `MR`-row
/// micro-panels: `buf[(ip*kb + kk)*MR + i]`, zero-padding the last panel.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    buf: &mut Vec<f32>,
    a: ASrc<'_>,
    m: usize,
    k: usize,
    row0: usize,
    mb: usize,
    pc: usize,
    kb: usize,
) {
    let panels = mb.div_ceil(MR);
    buf.clear();
    buf.resize(panels * kb * MR, 0.0);
    for ip in 0..panels {
        let rbase = row0 + ip * MR;
        let live = MR.min(row0 + mb - rbase);
        let dst = &mut buf[ip * kb * MR..(ip + 1) * kb * MR];
        match a {
            ASrc::RowMajor(d) => {
                for i in 0..live {
                    let src = &d[(rbase + i) * k + pc..(rbase + i) * k + pc + kb];
                    for (kk, &v) in src.iter().enumerate() {
                        dst[kk * MR + i] = v;
                    }
                }
            }
            ASrc::ColMajor(d) => {
                for kk in 0..kb {
                    let src = &d[(pc + kk) * m + rbase..(pc + kk) * m + rbase + live];
                    dst[kk * MR..kk * MR + live].copy_from_slice(src);
                }
            }
        }
    }
}

/// Packs B k-range `[pc, pc+kb) × columns [jc, jc+nb)` into `NR`-column
/// micro-panels: `buf[(jp*kb + kk)*NR + j]`, zero-padding the last panel.
/// The im2col variants gather conv patches straight from the image.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    buf: &mut Vec<f32>,
    b: BSrc<'_>,
    k: usize,
    n: usize,
    pc: usize,
    kb: usize,
    jc: usize,
    nb: usize,
) {
    let panels = nb.div_ceil(NR);
    buf.clear();
    buf.resize(panels * kb * NR, 0.0);
    for jp in 0..panels {
        let jbase = jc + jp * NR;
        let live = NR.min(jc + nb - jbase);
        let dst = &mut buf[jp * kb * NR..(jp + 1) * kb * NR];
        match b {
            BSrc::RowMajor(d) => {
                for kk in 0..kb {
                    let src = &d[(pc + kk) * n + jbase..(pc + kk) * n + jbase + live];
                    dst[kk * NR..kk * NR + live].copy_from_slice(src);
                }
            }
            BSrc::ColMajor(d) => {
                for j in 0..live {
                    let src = &d[(jbase + j) * k + pc..(jbase + j) * k + pc + kb];
                    for (kk, &v) in src.iter().enumerate() {
                        dst[kk * NR + j] = v;
                    }
                }
            }
            BSrc::Im2col { image, geom } => {
                pack_im2col(dst, image, geom, pc, kb, jbase, live);
            }
            BSrc::Im2colT { image, geom } => {
                pack_im2col_t(dst, image, geom, pc, kb, jbase, live);
            }
        }
    }
}

/// Gathers an im2col micro-panel (rows ↦ `(c, ky, kx)`, columns ↦
/// `(oy, ox)`) directly from the image via the coordinate mapping.
fn pack_im2col(
    dst: &mut [f32],
    image: &[f32],
    g: ConvGeom,
    pc: usize,
    kb: usize,
    jbase: usize,
    live: usize,
) {
    let ow = g.ow();
    for kk in 0..kb {
        let r = pc + kk;
        let kx = r % g.kw;
        let ky = (r / g.kw) % g.kh;
        let c = r / (g.kw * g.kh);
        let row = &mut dst[kk * NR..kk * NR + live];
        for (j, slot) in row.iter_mut().enumerate() {
            let cc = jbase + j;
            *slot = g.patch_value(image, c, ky, kx, cc / ow, cc % ow);
        }
    }
}

/// Gathers the *transposed* im2col micro-panel (rows ↦ `(oy, ox)`,
/// columns ↦ `(c, ky, kx)`) for the weight-gradient GEMM.
fn pack_im2col_t(
    dst: &mut [f32],
    image: &[f32],
    g: ConvGeom,
    pc: usize,
    kb: usize,
    jbase: usize,
    live: usize,
) {
    let ow = g.ow();
    for kk in 0..kb {
        let cc = pc + kk;
        let (oy, ox) = (cc / ow, cc % ow);
        let row = &mut dst[kk * NR..kk * NR + live];
        for (j, slot) in row.iter_mut().enumerate() {
            let r = jbase + j;
            let kx = r % g.kw;
            let ky = (r / g.kw) % g.kh;
            let c = r / (g.kw * g.kh);
            *slot = g.patch_value(image, c, ky, kx, oy, ox);
        }
    }
}

fn dims2(t: &Tensor, what: &str) -> (usize, usize) {
    assert_eq!(
        t.rank(),
        2,
        "{what} must be rank-2, got shape {:?}",
        t.shape()
    );
    (t.shape()[0], t.shape()[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive triple loop with the same per-element sequential `mul_add`
    /// fold the packed kernel guarantees — comparisons are exact-bits.
    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        Tensor::from_fn(vec![m, n], |idx| {
            let (i, j) = (idx / n, idx % n);
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc = a.at2(i, kk).mul_add(b.at2(kk, j), acc);
            }
            acc
        })
    }

    fn rand_tensor(shape: Vec<usize>, seed: u64) -> Tensor {
        let mut state = seed.max(1);
        Tensor::from_fn(shape, |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u32 << 24) as f32) - 0.5
        })
    }

    fn assert_bits_eq(c: &Tensor, r: &Tensor) {
        assert_eq!(c.shape(), r.shape());
        for (i, (x, y)) in c.data().iter().zip(r.data()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits(),
                "element {i}: {x} ({:#x}) vs {y} ({:#x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        assert_eq!(matmul(&a, &b).data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_matches_naive_bitwise_small() {
        let a = rand_tensor(vec![7, 5], 1);
        let b = rand_tensor(vec![5, 9], 2);
        assert_bits_eq(&matmul(&a, &b), &naive(&a, &b));
    }

    #[test]
    fn matmul_matches_naive_bitwise_across_blocks() {
        // Crosses MR/NR tile edges, the MC row blocking, and KC blocking.
        let a = rand_tensor(vec![MC + 7, KC + 3], 3);
        let b = rand_tensor(vec![KC + 3, NR * 2 + 5], 4);
        assert_bits_eq(&matmul(&a, &b), &naive(&a, &b));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose_bitwise() {
        let a = rand_tensor(vec![6, 4], 5);
        let b = rand_tensor(vec![6, 3], 6);
        let c = matmul_tn(&a, &b);
        assert_bits_eq(&c, &matmul(&a.t(), &b));
        assert_eq!(c.shape(), &[4, 3]);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose_bitwise() {
        let a = rand_tensor(vec![6, 4], 7);
        let b = rand_tensor(vec![5, 4], 8);
        let c = matmul_nt(&a, &b);
        assert_bits_eq(&c, &matmul(&a, &b.t()));
        assert_eq!(c.shape(), &[6, 5]);
    }

    #[test]
    fn matmul_parallel_path_matches_naive_bitwise() {
        let a = rand_tensor(vec![130, 70], 3);
        let b = rand_tensor(vec![70, 90], 4);
        assert_bits_eq(&matmul(&a, &b), &naive(&a, &b));
    }

    #[test]
    fn par_row_chunk_is_tile_aligned() {
        for (m, k, n) in [(1, 1, 1), (64, 784, 100), (1000, 3, 2), (5, 9000, 9000)] {
            let c = par_row_chunk(m, k, n);
            assert!(c.is_multiple_of(MR), "chunk {c} not a multiple of MR");
            assert!(c >= MR && c <= m.next_multiple_of(MR));
        }
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4, 2]);
        matmul(&a, &b);
    }

    #[test]
    #[should_panic(expected = "must be rank-2")]
    fn matmul_rank_mismatch_panics() {
        let a = Tensor::zeros(vec![2, 3, 4]);
        let b = Tensor::zeros(vec![4, 2]);
        matmul(&a, &b);
    }

    #[test]
    fn telemetry_hook_counts_calls_and_flops() {
        let g = dropback_telemetry::global();
        let calls_before = g.counter("tensor.gemm.calls").get();
        let flops_before = g.counter("tensor.gemm.flops").get();
        let a = rand_tensor(vec![4, 5], 20);
        let b = rand_tensor(vec![5, 6], 21);
        let _ = matmul(&a, &b);
        // Other tests call matmul concurrently in this process, so the
        // deltas are lower bounds rather than exact.
        assert!(g.counter("tensor.gemm.calls").get() > calls_before);
        assert!(g.counter("tensor.gemm.flops").get() >= flops_before + 2 * 4 * 5 * 6);
    }

    #[test]
    fn identity_multiplication() {
        let a = rand_tensor(vec![5, 5], 11);
        let eye = Tensor::from_fn(vec![5, 5], |i| if i / 5 == i % 5 { 1.0 } else { 0.0 });
        let c = matmul(&a, &eye);
        for (x, y) in c.data().iter().zip(a.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn gemm_into_accumulates() {
        let a = rand_tensor(vec![3, 4], 12);
        let b = rand_tensor(vec![4, 2], 13);
        let mut c = vec![1.0f32; 6];
        gemm_into(
            &mut c,
            3,
            2,
            4,
            ASrc::RowMajor(a.data()),
            BSrc::RowMajor(b.data()),
        );
        let plain = matmul(&a, &b);
        for (x, y) in c.iter().zip(plain.data()) {
            // Accumulation on top of 1.0 seeds the fold with 1.0.
            assert!((x - (y + 1.0)).abs() < 1e-5, "{x} vs {}", y + 1.0);
        }
    }
}
