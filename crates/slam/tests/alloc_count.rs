//! The exact guard on the SLAM application's heap traffic: with a counting
//! global allocator, every `SlamEngine::analyze` of a 320×240 frame costs
//! at most [`CALLS_PER_FRAME`] calls into the global allocator once the
//! engine has seen one frame. Detection and the patch search allocate per
//! frame, never per pixel or per corner; a kernel that puts a `Box` or a
//! `Vec` back in its inner loop moves this count by thousands.
//!
//! Alone in its binary: the allocator is the process's.

use rossf_slam::dataset::Sequence;
use rossf_slam::pipeline::{SlamConfig, SlamEngine};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Counts the calls that can hand out memory while `COUNTING` is on.
struct Counting;

// Relaxed everywhere: statistics, publishing no other data.
static COUNTING: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counter touches
// no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The bound: global-allocator calls per analyzed frame.
const CALLS_PER_FRAME: u64 = 64;

#[test]
fn analyze_costs_at_most_64_allocator_calls_per_frame() {
    let seq = Sequence::with_resolution(2022, 320, 240, 2.0);
    let grays: Vec<Vec<u8>> = (0..48).map(|i| seq.frame(i).to_gray()).collect();
    let config = SlamConfig {
        min_frame_compute: Duration::ZERO,
        threshold: 25,
    };
    let mut engine = SlamEngine::new(320, 240, config);
    engine.analyze(&grays[0]);
    let calls: Vec<u64> = grays
        .iter()
        .map(|gray| {
            CALLS.store(0, Ordering::Relaxed);
            COUNTING.store(true, Ordering::Relaxed);
            let analysis = engine.analyze(gray);
            COUNTING.store(false, Ordering::Relaxed);
            drop(analysis);
            CALLS.load(Ordering::Relaxed)
        })
        .collect();
    println!("global-allocator calls per analyze: {calls:?}");
    for (frame, &n) in calls.iter().enumerate() {
        assert!(
            n <= CALLS_PER_FRAME,
            "frame {frame}: analyze made {n} allocator calls"
        );
    }
}
