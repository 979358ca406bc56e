//! The flat, regenerable parameter arena.

use dropback_prng::InitScheme;

/// A named, contiguous range of parameters inside a [`ParamStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParamRange {
    name: String,
    start: usize,
    len: usize,
    scheme: InitScheme,
}

impl ParamRange {
    /// Human-readable name (e.g. `"fc1.weight"`).
    pub fn name(&self) -> &str {
        &self.name
    }
    /// First global parameter index of the range.
    pub fn start(&self) -> usize {
        self.start
    }
    /// Number of parameters in the range.
    pub fn len(&self) -> usize {
        self.len
    }
    /// Whether the range is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
    /// One-past-the-end global index.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
    /// The initialization scheme for this range.
    pub fn scheme(&self) -> InitScheme {
        self.scheme
    }
}

/// Flat parameter/gradient arena with index-addressable initialization.
///
/// All of a network's parameters live in one `Vec<f32>` with a parallel
/// gradient vector. Each layer owns a [`ParamRange`]; the store can
/// regenerate any parameter's *initial* value from `(seed, global index)`
/// alone — the primitive DropBack builds on.
#[derive(Debug, Clone)]
pub struct ParamStore {
    seed: u64,
    params: Vec<f32>,
    grads: Vec<f32>,
    ranges: Vec<ParamRange>,
}

impl ParamStore {
    /// Creates an empty store whose regeneration streams derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            params: Vec::new(),
            grads: Vec::new(),
            ranges: Vec::new(),
        }
    }

    /// The store's regeneration seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Registers `len` parameters named `name` with initialization `scheme`,
    /// materializes their initial values, and returns the new range.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn register(&mut self, name: &str, len: usize, scheme: InitScheme) -> ParamRange {
        assert!(len > 0, "cannot register empty parameter range {name:?}");
        let start = self.params.len();
        let range = ParamRange {
            name: name.to_string(),
            start,
            len,
            scheme,
        };
        self.params.reserve(len);
        for i in start..start + len {
            self.params.push(scheme.value(self.seed, i as u64));
        }
        self.grads.resize(self.params.len(), 0.0);
        self.ranges.push(range.clone());
        range
    }

    /// Total number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// All registered ranges, in registration order.
    pub fn ranges(&self) -> &[ParamRange] {
        &self.ranges
    }

    /// The full flat parameter vector.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Mutable access to the full flat parameter vector (used by
    /// optimizers).
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// The full flat gradient vector.
    pub fn grads(&self) -> &[f32] {
        &self.grads
    }

    /// Mutable access to the full flat gradient vector.
    pub fn grads_mut(&mut self) -> &mut [f32] {
        &mut self.grads
    }

    /// The parameter slice of `range`.
    pub fn slice(&self, range: &ParamRange) -> &[f32] {
        &self.params[range.start..range.end()]
    }

    /// The gradient slice of `range`.
    pub fn grad_slice(&self, range: &ParamRange) -> &[f32] {
        &self.grads[range.start..range.end()]
    }

    /// Simultaneous read access to `range`'s parameters and write access to
    /// its gradients — what a layer backward pass needs.
    pub fn params_and_grads_mut(&mut self, range: &ParamRange) -> (&[f32], &mut [f32]) {
        (
            &self.params[range.start..range.end()],
            &mut self.grads[range.start..range.end()],
        )
    }

    /// Simultaneous mutable access to all parameters and read access to all
    /// gradients — the shape an optimizer's update loop needs.
    pub fn update_view(&mut self) -> (&mut [f32], &[f32]) {
        (&mut self.params, &self.grads)
    }

    /// Accumulates `delta` into `range`'s gradients.
    ///
    /// # Panics
    ///
    /// Panics if `delta.len() != range.len()`.
    pub fn accumulate_grad(&mut self, range: &ParamRange, delta: &[f32]) {
        assert_eq!(delta.len(), range.len(), "gradient length mismatch");
        for (g, &d) in self.grads[range.start..range.end()].iter_mut().zip(delta) {
            *g += d;
        }
    }

    /// Zeroes every gradient (call once per training step), re-allocating
    /// the buffer if [`ParamStore::release_grads`] dropped it.
    pub fn zero_grads(&mut self) {
        if self.grads.len() == self.params.len() {
            self.grads.fill(0.0);
        } else {
            self.grads = vec![0.0; self.params.len()];
        }
    }

    /// Frees the gradient buffer of a store that only runs forward passes
    /// (a served model), halving its resident size. Gradient accessors see
    /// an empty buffer until the next [`ParamStore::zero_grads`].
    pub fn release_grads(&mut self) {
        self.grads = Vec::new();
    }

    /// Regenerates the *initial* value of global parameter index `i` in O(1)
    /// without reading stored weights — DropBack's storage-avoidance
    /// primitive.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn init_value(&self, i: usize) -> f32 {
        let range = self
            .range_of(i)
            .unwrap_or_else(|| panic!("parameter index {i} out of range"));
        range.scheme.value(self.seed, i as u64)
    }

    /// The range containing global index `i`, if any.
    pub fn range_of(&self, i: usize) -> Option<&ParamRange> {
        // Ranges are sorted by construction; binary search by start.
        let idx = self
            .ranges
            .partition_point(|r| r.start <= i)
            .checked_sub(1)?;
        let r = &self.ranges[idx];
        (i < r.end()).then_some(r)
    }

    /// Snapshot of the full initial weight vector, regenerated (not read
    /// from storage). Mostly useful for diffusion-distance analysis.
    pub fn regen_initial(&self) -> Vec<f32> {
        (0..self.len()).map(|i| self.init_value(i)).collect()
    }

    /// Resets every parameter to its regenerated initial value and zeroes
    /// gradients (fresh-training reset).
    pub fn reset(&mut self) {
        for r in &self.ranges {
            for i in r.start..r.end() {
                self.params[i] = r.scheme.value(self.seed, i as u64);
            }
        }
        self.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_materializes_init() {
        let mut ps = ParamStore::new(7);
        let r = ps.register("w", 16, InitScheme::lecun_normal(4));
        assert_eq!(ps.len(), 16);
        for i in r.start()..r.end() {
            assert_eq!(ps.params()[i], ps.init_value(i));
        }
    }

    #[test]
    fn multiple_ranges_are_contiguous() {
        let mut ps = ParamStore::new(1);
        let a = ps.register("a", 5, InitScheme::Constant(1.0));
        let b = ps.register("b", 3, InitScheme::Constant(2.0));
        assert_eq!(a.start(), 0);
        assert_eq!(b.start(), 5);
        assert_eq!(ps.len(), 8);
        assert_eq!(ps.slice(&a), &[1.0; 5]);
        assert_eq!(ps.slice(&b), &[2.0; 3]);
    }

    #[test]
    fn range_of_finds_owner() {
        let mut ps = ParamStore::new(1);
        ps.register("a", 5, InitScheme::Constant(0.0));
        ps.register("b", 3, InitScheme::Constant(0.0));
        assert_eq!(ps.range_of(0).unwrap().name(), "a");
        assert_eq!(ps.range_of(4).unwrap().name(), "a");
        assert_eq!(ps.range_of(5).unwrap().name(), "b");
        assert_eq!(ps.range_of(7).unwrap().name(), "b");
        assert!(ps.range_of(8).is_none());
    }

    #[test]
    fn init_value_survives_mutation() {
        let mut ps = ParamStore::new(3);
        let r = ps.register("w", 8, InitScheme::lecun_normal(2));
        let inits: Vec<f32> = (0..8).map(|i| ps.init_value(i)).collect();
        for p in ps.params_mut() {
            *p = 99.0;
        }
        for (i, &init) in inits.iter().enumerate().take(r.end()).skip(r.start()) {
            assert_eq!(ps.init_value(i), init);
        }
    }

    #[test]
    fn grads_accumulate_and_zero() {
        let mut ps = ParamStore::new(3);
        let r = ps.register("w", 4, InitScheme::Constant(0.0));
        ps.accumulate_grad(&r, &[1.0, 2.0, 3.0, 4.0]);
        ps.accumulate_grad(&r, &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(ps.grad_slice(&r), &[2.0, 3.0, 4.0, 5.0]);
        ps.zero_grads();
        assert_eq!(ps.grad_slice(&r), &[0.0; 4]);
    }

    #[test]
    fn released_grads_come_back_on_zero() {
        let mut ps = ParamStore::new(3);
        let r = ps.register("w", 4, InitScheme::Constant(0.0));
        ps.accumulate_grad(&r, &[1.0; 4]);
        ps.release_grads();
        assert!(ps.grads().is_empty());
        assert_eq!(ps.params().len(), 4, "params are untouched");
        ps.zero_grads();
        assert_eq!(ps.grad_slice(&r), &[0.0; 4]);
    }

    #[test]
    fn reset_restores_init() {
        let mut ps = ParamStore::new(3);
        ps.register("w", 8, InitScheme::lecun_normal(2));
        let before = ps.params().to_vec();
        for p in ps.params_mut() {
            *p += 1.0;
        }
        ps.reset();
        assert_eq!(ps.params(), &before[..]);
    }

    #[test]
    fn regen_initial_matches_registration() {
        let mut ps = ParamStore::new(9);
        ps.register("a", 10, InitScheme::lecun_normal(5));
        ps.register("b", 6, InitScheme::Constant(0.5));
        assert_eq!(ps.regen_initial(), ps.params());
    }

    #[test]
    #[should_panic(expected = "cannot register empty")]
    fn empty_register_panics() {
        ParamStore::new(1).register("w", 0, InitScheme::Constant(0.0));
    }

    #[test]
    fn different_seeds_different_inits() {
        let mut a = ParamStore::new(1);
        let mut b = ParamStore::new(2);
        a.register("w", 32, InitScheme::lecun_normal(8));
        b.register("w", 32, InitScheme::lecun_normal(8));
        assert_ne!(a.params(), b.params());
    }
}
