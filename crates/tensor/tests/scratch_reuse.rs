//! A warm `Scratch` pool serves any shape it can fit without allocating.
//!
//! This binary holds a single test: it asserts a delta of the
//! process-global `buffer_allocs()` counter, which any concurrently
//! running test in the same binary would also bump.

use gel_tensor::{buffer_allocs, Matrix, Scratch};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A `Scratch` pool hands back buffers without new heap
    /// allocations once warm, and `take`n buffers always come back
    /// correctly shaped regardless of what was `put` in.
    #[test]
    fn scratch_reuse_is_allocation_free((r, c) in (1usize..6, 1usize..6)) {
        let mut scratch = Scratch::new();
        // Warm: one buffer of the largest shape this test will request.
        scratch.put(Matrix::zeros(8, 8));
        let base = buffer_allocs();
        for _ in 0..16 {
            let m = scratch.take(r, c);
            prop_assert_eq!(m.shape(), (r, c));
            scratch.put(m);
            let z = scratch.take_zeroed(c, r);
            prop_assert_eq!(z.shape(), (c, r));
            prop_assert!(z.data().iter().all(|&x| x == 0.0));
            scratch.put(z);
        }
        prop_assert_eq!(buffer_allocs() - base, 0,
            "scratch reuse allocated in steady state");
    }
}
