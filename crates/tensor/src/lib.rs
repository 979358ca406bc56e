//! Dense `f32` tensor substrate for the DropBack reproduction.
//!
//! DropBack trains real networks (MLPs and BN-heavy convolutional nets), so
//! this crate provides the minimal-but-complete dense linear algebra that the
//! `dropback-nn` layer zoo is built on:
//!
//! * [`Tensor`] — a contiguous, row-major, dynamically-shaped `f32` tensor
//!   with elementwise arithmetic, mapping, and reductions.
//! * [`matmul`] and its transposed variants — packed-panel GEMM built on a
//!   fixed 6×16 microkernel ([`simd`]; AVX2/FMA with a bit-identical
//!   portable fallback), cache-blocked and multi-threaded on the
//!   persistent worker [`pool`] (no external dependency).
//! * [`conv`] — convolution with the `im2col` lowering fused into the GEMM
//!   pack (the column matrix is never materialized), plus pooling kernels.
//! * [`ops`] — numerically-stable softmax / log-softmax and friends.
//! * [`pool`] — the deterministic worker pool every threaded kernel in the
//!   workspace runs on (`DROPBACK_THREADS`; fixed, thread-count-independent
//!   work partitioning so results are bit-identical at any thread count —
//!   see `docs/PERFORMANCE.md`).
//! * [`alloc`] — process-wide tensor-allocation accounting (live bytes +
//!   high-water mark), sampled by the trainer's telemetry.
//!
//! The hot kernels (gemm, im2col/col2im, conv, pooling, activations) are
//! permanently instrumented with `dropback-telemetry` spans annotated with
//! flop/byte counts; with both timing and tracing off a span costs one
//! relaxed atomic load, so the instrumentation lives in the kernels
//! unconditionally.
//!
//! The crate is deliberately framework-free: every operation is a pure
//! function over `Tensor`, and all state (e.g. pooling argmax caches) is
//! returned to the caller, which keeps the layer implementations explicit
//! about what they store between forward and backward passes.
//!
//! # Example
//!
//! ```
//! use dropback_tensor::{Tensor, matmul};
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
//! let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
//! let c = matmul(&a, &b);
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.data(), &[58., 64., 139., 154.]);
//! ```

#![deny(missing_docs)]

pub mod activations;
pub mod alloc;
pub mod axis;
pub mod conv;
mod gemm;
pub mod ops;
pub mod pool;
pub mod simd;
mod tensor;

pub use gemm::{matmul, matmul_nt, matmul_nt_slice, matmul_slice, matmul_tn};
pub use tensor::Tensor;
