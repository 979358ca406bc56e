//! Fully-connected layer.

use crate::layer::{Layer, Mode};
use crate::param::{ParamRange, ParamStore};
use dropback_prng::InitScheme;
use dropback_tensor::{matmul_nt_slice, matmul_slice, matmul_tn, Tensor};

/// A fully-connected layer: `y = x · Wᵀ + b` with `W: [out, in]`.
///
/// Weights use LeCun scaled-normal initialization (the paper's choice);
/// biases initialize to zero (a constant scheme, so DropBack can regenerate
/// them for free).
#[derive(Debug)]
pub struct Linear {
    in_dim: usize,
    out_dim: usize,
    weight: ParamRange,
    bias: Option<ParamRange>,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Registers a `in_dim → out_dim` layer named `name` in `ps`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(ps: &mut ParamStore, name: &str, in_dim: usize, out_dim: usize) -> Self {
        Self::with_init(ps, name, in_dim, out_dim, InitScheme::lecun_normal(in_dim))
    }

    /// Same as [`Linear::new`] with an explicit weight-init scheme.
    pub fn with_init(
        ps: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        scheme: InitScheme,
    ) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "zero-sized linear layer");
        let weight = ps.register(&format!("{name}.weight"), in_dim * out_dim, scheme);
        let bias = Some(ps.register(&format!("{name}.bias"), out_dim, InitScheme::Constant(0.0)));
        Self {
            in_dim,
            out_dim,
            weight,
            bias,
            cached_input: None,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, ps: &ParamStore, _mode: Mode) -> Tensor {
        assert_eq!(x.rank(), 2, "linear input must be [n, d]");
        assert_eq!(x.shape()[1], self.in_dim, "linear input dim");
        // The `[out, in]` weight range feeds the GEMM in place.
        let mut y = matmul_nt_slice(x, ps.slice(&self.weight), self.out_dim);
        if let Some(b) = &self.bias {
            let bias = ps.slice(b);
            for row in y.data_mut().chunks_exact_mut(self.out_dim) {
                for (v, &bv) in row.iter_mut().zip(bias) {
                    *v += bv;
                }
            }
        }
        self.cached_input = Some(x.clone());
        y
    }

    fn backward(&mut self, dout: &Tensor, ps: &mut ParamStore) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("Linear::backward called before forward");
        // dW = doutᵀ · x  ([out, in])
        let dw = matmul_tn(dout, &x);
        ps.accumulate_grad(&self.weight, dw.data());
        if let Some(b) = &self.bias {
            let db = dout.sum_rows();
            ps.accumulate_grad(b, db.data());
        }
        // dx = dout · W  ([n, in])
        matmul_slice(dout, ps.slice(&self.weight), self.in_dim)
    }

    fn param_ranges(&self) -> Vec<ParamRange> {
        let mut v = vec![self.weight.clone()];
        if let Some(b) = &self.bias {
            v.push(b.clone());
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ParamStore {
        ParamStore::new(42)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut ps = store();
        let mut l = Linear::new(&mut ps, "fc", 3, 2);
        // Force known weights/bias.
        let w = l.param_ranges()[0].clone();
        let b = l.param_ranges()[1].clone();
        ps.params_mut()[w.start()..w.end()].copy_from_slice(&[1., 0., 0., 0., 1., 0.]);
        ps.params_mut()[b.start()..b.end()].copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(vec![1, 3], vec![2., 3., 4.]);
        let y = l.forward(&x, &ps, Mode::Train);
        assert_eq!(y.shape(), &[1, 2]);
        assert_eq!(y.data(), &[2.5, 2.5]);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut ps = store();
        let mut l = Linear::new(&mut ps, "fc", 4, 3);
        let x = Tensor::from_fn(vec![2, 4], |i| (i as f32 * 0.37).sin());
        // Loss = 0.5 * ||y||^2  =>  dout = y.
        let y = l.forward(&x, &ps, Mode::Train);
        ps.zero_grads();
        let dx = l.backward(&y, &mut ps);
        let eps = 1e-3;
        // Check a few weight gradients numerically.
        let wrange = l.param_ranges()[0].clone();
        for idx in [0usize, 5, 11] {
            let gi = wrange.start() + idx;
            let orig = ps.params()[gi];
            ps.params_mut()[gi] = orig + eps;
            let lp = {
                let y = l.forward(&x, &ps, Mode::Train);
                0.5 * y.norm_sq()
            };
            ps.params_mut()[gi] = orig - eps;
            let lm = {
                let y = l.forward(&x, &ps, Mode::Train);
                0.5 * y.norm_sq()
            };
            ps.params_mut()[gi] = orig;
            let num = (lp - lm) / (2.0 * eps);
            let ana = ps.grads()[gi];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + num.abs()),
                "{num} vs {ana}"
            );
        }
        // And an input gradient.
        let xi = 3;
        let mut x2 = x.clone();
        let orig = x2.data()[xi];
        x2.data_mut()[xi] = orig + eps;
        let lp = 0.5 * l.forward(&x2, &ps, Mode::Train).norm_sq();
        x2.data_mut()[xi] = orig - eps;
        let lm = 0.5 * l.forward(&x2, &ps, Mode::Train).norm_sq();
        let num = (lp - lm) / (2.0 * eps);
        assert!((num - dx.data()[xi]).abs() < 1e-2 * (1.0 + num.abs()));
    }

    #[test]
    fn bias_gradient_is_row_sum() {
        let mut ps = store();
        let mut l = Linear::new(&mut ps, "fc", 2, 2);
        let x = Tensor::from_vec(vec![3, 2], vec![1., 0., 0., 1., 1., 1.]);
        let _ = l.forward(&x, &ps, Mode::Train);
        ps.zero_grads();
        let dout = Tensor::from_vec(vec![3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let _ = l.backward(&dout, &mut ps);
        let b = l.param_ranges()[1].clone();
        assert_eq!(ps.grad_slice(&b), &[9., 12.]);
    }

    #[test]
    #[should_panic(expected = "called before forward")]
    fn backward_before_forward_panics() {
        let mut ps = store();
        let mut l = Linear::new(&mut ps, "fc", 2, 2);
        l.backward(&Tensor::zeros(vec![1, 2]), &mut ps);
    }

    #[test]
    fn param_count() {
        let mut ps = store();
        let _ = Linear::new(&mut ps, "fc", 300, 100);
        assert_eq!(ps.len(), 300 * 100 + 100);
    }
}
