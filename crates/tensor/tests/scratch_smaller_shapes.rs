//! A smaller request reuses a larger pooled `Scratch` buffer.
//!
//! This binary holds a single test: it asserts a delta of the
//! process-global `buffer_allocs()` counter, which any concurrently
//! running test in the same binary would also bump.

use gel_tensor::{buffer_allocs, Scratch};

#[test]
fn smaller_shapes_reuse_larger_buffers() {
    let mut s = Scratch::new();
    let a = s.take(8, 8);
    s.put(a);
    let before = buffer_allocs();
    let b = s.take(2, 3);
    assert_eq!(b.shape(), (2, 3));
    s.put(b);
    assert_eq!(buffer_allocs() - before, 0, "2x3 fits in the pooled 8x8 buffer");
}
