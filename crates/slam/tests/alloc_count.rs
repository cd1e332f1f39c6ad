//! The exact guard on the SLAM application's heap traffic: with a counting
//! global allocator, every `SlamEngine::analyze` of a 320×240 frame costs
//! at most [`CALLS_PER_FRAME`] calls into the global allocator, asking for
//! at most [`BYTES_PER_FRAME`] bytes, once the engine has seen one frame.
//! Detection and the patch search allocate per frame, never per pixel or
//! per corner; a kernel that puts a `Box` or a `Vec` back in its inner
//! loop moves the call count by thousands, and one that allocates a
//! scratch buffer the size of the frame moves the byte count past the
//! bound.
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
static BYTES: AtomicU64 = AtomicU64::new(0);

/// One call handing out `bytes`.
fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counter touches
// no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
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

/// The bound: global-allocator calls per analyzed frame (20–21 today).
const CALLS_PER_FRAME: u64 = 32;
/// The bound: bytes asked of the global allocator per analyzed frame,
/// a realloc counting its new size (33–47 KB today). A `w×h` scratch map
/// at 320×240 is 77 KB as bytes and 307 KB as `u32`s; either alone
/// breaks it.
const BYTES_PER_FRAME: u64 = 64 * 1024;

#[test]
fn analyze_costs_at_most_32_allocator_calls_and_64_kib_per_frame() {
    let seq = Sequence::with_resolution(2022, 320, 240, 2.0);
    let grays: Vec<Vec<u8>> = (0..48).map(|i| seq.frame(i).to_gray()).collect();
    let config = SlamConfig {
        min_frame_compute: Duration::ZERO,
        threshold: 25,
    };
    let mut engine = SlamEngine::new(320, 240, config);
    engine.analyze(&grays[0]);
    let counts: Vec<(u64, u64)> = grays
        .iter()
        .map(|gray| {
            CALLS.store(0, Ordering::Relaxed);
            BYTES.store(0, Ordering::Relaxed);
            COUNTING.store(true, Ordering::Relaxed);
            let analysis = engine.analyze(gray);
            COUNTING.store(false, Ordering::Relaxed);
            drop(analysis);
            (CALLS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
        })
        .collect();
    println!("global-allocator (calls, bytes) per analyze: {counts:?}");
    for (frame, &(n, bytes)) in counts.iter().enumerate() {
        assert!(
            n <= CALLS_PER_FRAME,
            "frame {frame}: analyze made {n} allocator calls"
        );
        assert!(
            bytes <= BYTES_PER_FRAME,
            "frame {frame}: analyze asked for {bytes} bytes"
        );
    }
}
