//! A warm `Scratch` take/put cycle never allocates.
//!
//! This binary holds a single test: it asserts a delta of the
//! process-global `buffer_allocs()` counter, which any concurrently
//! running test in the same binary would also bump.

use gel_tensor::{buffer_allocs, Scratch};

#[test]
fn take_put_cycle_reuses_buffer() {
    let mut s = Scratch::new();
    let a = s.take(4, 4); // cold: allocates
    s.put(a);
    let before = buffer_allocs();
    for _ in 0..100 {
        let m = s.take(4, 4);
        s.put(m);
    }
    assert_eq!(buffer_allocs() - before, 0, "warm take/put must not allocate");
}
