//! The raw, reference-counted allocation backing a serialization-free
//! message.
//!
//! In the paper the serialized buffer is a `std::shared_array` and the
//! message object is the *same memory* (§4.2). Here [`SfmAlloc`] owns the
//! bytes; `Arc<SfmAlloc>` plays the role of the paper's *buffer pointer*.
//! The message manager holds one clone, the developer's
//! [`SfmBox`](crate::SfmBox) holds one, and every transmission-queue entry
//! holds one — the memory is freed exactly when the last clone drops
//! (the `Destructed` state).

use crate::manager::home_partition;
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;
use std::sync::Mutex;

/// Alignment of every SFM allocation. 8 bytes covers the strictest field
/// type ROS supports (`float64`/`int64`) so nested skeletons and vector
/// content are always correctly aligned when the manager aligns offsets.
pub const SFM_ALLOC_ALIGN: usize = 8;

/// Per-size-class entries kept in the buffer pool.
const POOL_PER_CLASS: usize = 4;
/// Total bytes the pool may retain.
const POOL_BYTE_CAP: usize = 128 << 20;
/// Smallest allocation worth pooling (small ones are cheap to malloc).
const POOL_MIN_SIZE: usize = 64 << 10;

/// A recycled region: pointer + capacity.
struct PoolEntry {
    ptr: NonNull<u8>,
    capacity: usize,
}

// SAFETY: entries are owned, unaliased regions in transit between users.
unsafe impl Send for PoolEntry {}

#[derive(Default)]
struct Pool {
    entries: Vec<PoolEntry>,
    bytes: usize,
}

/// Buffer pool for message-sized allocations.
///
/// Every message allocates `max_size` (§4.2); for multi-megabyte types the
/// system allocator serves and returns such regions with `mmap`/`munmap`,
/// paying a page-fault storm on every message. Production zero-copy
/// middlewares (RTI FlatData, iceoryx, eCAL) all run over pre-allocated
/// buffer pools for exactly this reason, so `SfmAlloc` keeps a small
/// freelist: up to a few entries per size class, bounded total bytes,
/// exact-capacity matches only.
fn pool() -> &'static Mutex<Pool> {
    static POOL: Mutex<Pool> = Mutex::new(Pool {
        entries: Vec::new(),
        bytes: 0,
    });
    &POOL
}

/// Release every buffer retained by the allocation pool back to the
/// system allocator.
///
/// Benchmark harnesses call this between experiment cells so one message
/// family's pooled buffers cannot perturb the allocator behaviour another
/// family sees (heap layout is shared process state).
pub fn drain_alloc_pool() {
    let mut pool = pool().lock().expect("pool lock");
    for entry in pool.entries.drain(..) {
        let layout = Layout::from_size_align(entry.capacity, SFM_ALLOC_ALIGN)
            .expect("pooled layouts were validated at allocation");
        // SAFETY: pooled entries are unaliased regions allocated with this
        // exact layout; each is freed exactly once here.
        unsafe { dealloc(entry.ptr.as_ptr(), layout) };
    }
    pool.bytes = 0;
}

/// An owned, 8-byte-aligned byte region of fixed capacity.
///
/// The capacity never changes after construction — this is the paper's rule
/// that a message is allocated once at the largest size its type permits, so
/// that field addresses remain stable while the whole message grows.
///
/// Contents start **uninitialized** (like C++ `operator new` in the paper —
/// zeroing a multi-megabyte `max_size` region per message would dwarf the
/// serialization cost being eliminated). The SFM discipline guarantees every
/// byte inside the *whole message* is written before it is read: the owner
/// zeroes the skeleton at birth, field growth writes each appended region in
/// full, and the manager zeroes alignment gaps (see `MessageManager::expand`).
pub struct SfmAlloc {
    ptr: NonNull<u8>,
    capacity: usize,
    /// Birth timestamp on the tracing clock, or 0 when the tracer was not
    /// armed at allocation time. Recycled pool entries are re-stamped: the
    /// `alloc` span measures this message's construction, not the region's.
    born_ns: u64,
    /// The constructing thread's home partition of the message manager's
    /// record table: where this allocation's record is inserted, so every
    /// handle holding the allocation finds the record at its first probe
    /// from whichever thread it is used on.
    partition: u8,
    /// `Some` when the region is *externally owned* (e.g. a shared-memory
    /// mapping adopted by [`SfmAlloc::from_extern`]): the guard keeps the
    /// region alive and its drop performs whatever release the owner needs
    /// (cross-process refcount decrement, unmap). Such regions are never
    /// pooled nor deallocated here.
    extern_guard: Option<Box<dyn std::any::Any + Send + Sync>>,
}

// SAFETY: SfmAlloc uniquely owns its region; shared access is `&self` reads
// of the raw pointer only. Interior mutation is performed through raw
// pointers by the manager/field code under the aliasing discipline described
// on `as_ptr`.
unsafe impl Send for SfmAlloc {}
unsafe impl Sync for SfmAlloc {}

impl SfmAlloc {
    /// Allocate `capacity` uninitialized bytes aligned to
    /// [`SFM_ALLOC_ALIGN`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 (a message always has a nonempty skeleton)
    /// or on allocation failure.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "SFM allocation must be nonempty");
        let born_ns = if rossf_trace::tracer().armed() {
            rossf_trace::now_nanos()
        } else {
            0
        };
        if capacity >= POOL_MIN_SIZE {
            let mut pool = pool().lock().expect("pool lock");
            if let Some(idx) = pool.entries.iter().position(|e| e.capacity == capacity) {
                let entry = pool.entries.swap_remove(idx);
                pool.bytes -= entry.capacity;
                return SfmAlloc {
                    ptr: entry.ptr,
                    capacity: entry.capacity,
                    born_ns,
                    partition: home_partition(),
                    extern_guard: None,
                };
            }
        }
        let layout = Layout::from_size_align(capacity, SFM_ALLOC_ALIGN)
            .expect("invalid SFM allocation layout");
        // SAFETY: layout has nonzero size (asserted above).
        let raw = unsafe { alloc(layout) };
        let Some(ptr) = NonNull::new(raw) else {
            handle_alloc_error(layout)
        };
        SfmAlloc {
            ptr,
            capacity,
            born_ns,
            partition: home_partition(),
            extern_guard: None,
        }
    }

    /// Wrap an externally owned region (typically a shared-memory mapping)
    /// as an `SfmAlloc` without copying. `guard` is dropped exactly once
    /// when this allocation drops — it should release whatever keeps the
    /// region alive (a mapping handle, a cross-process reference count).
    /// `born_ns` of the result is 0: adopted frames do not re-run the
    /// `alloc` stage.
    ///
    /// # Safety
    ///
    /// * `ptr` must be non-null, aligned to [`SFM_ALLOC_ALIGN`], and valid
    ///   for reads of `capacity` bytes for as long as `guard` lives.
    /// * The region must not be written through other aliases while any
    ///   clone of the returned allocation is alive (read-only mappings
    ///   satisfy this trivially).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub unsafe fn from_extern(
        ptr: *mut u8,
        capacity: usize,
        guard: Box<dyn std::any::Any + Send + Sync>,
    ) -> Self {
        assert!(capacity > 0, "SFM allocation must be nonempty");
        let ptr = NonNull::new(ptr).expect("extern region must be non-null");
        debug_assert_eq!(ptr.as_ptr() as usize % SFM_ALLOC_ALIGN, 0);
        SfmAlloc {
            ptr,
            capacity,
            born_ns: 0,
            partition: home_partition(),
            extern_guard: Some(guard),
        }
    }

    /// Whether this allocation wraps an externally owned region (adopted
    /// through [`SfmAlloc::from_extern`]) rather than heap memory.
    #[inline]
    pub fn is_extern(&self) -> bool {
        self.extern_guard.is_some()
    }

    /// Re-stamp the birth timestamp. [`SfmAlloc::from_extern`] always sets
    /// it to 0 (reader-side adopted frames do not re-run the `alloc`
    /// stage), but a *loaned* publisher-side allocation is a genuine birth:
    /// the loan's segment acquisition is its `alloc` span, and the loaning
    /// code stamps it here before sharing the allocation.
    #[inline]
    pub fn set_born_ns(&mut self, born_ns: u64) {
        self.born_ns = born_ns;
    }

    /// Zero the first `n` bytes (used to initialize skeletons; an all-zero
    /// skeleton is the valid "empty" state of every SFM message type).
    ///
    /// # Panics
    ///
    /// Panics if `n > capacity`.
    pub fn zero_prefix(&self, n: usize) {
        assert!(n <= self.capacity);
        // SAFETY: in-bounds (asserted); callers hold the unique handle at
        // initialization time.
        unsafe { std::ptr::write_bytes(self.ptr.as_ptr(), 0, n) };
    }

    /// Base address of the region.
    #[inline]
    pub fn base(&self) -> usize {
        self.ptr.as_ptr() as usize
    }

    /// Capacity in bytes (fixed for the lifetime of the allocation).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// When this allocation was handed out, on the
    /// [`rossf_trace::now_nanos`] clock — 0 if tracing was not armed at
    /// allocation time. Anchors the `alloc` stage span.
    #[inline]
    pub fn born_ns(&self) -> u64 {
        self.born_ns
    }

    /// The record-table partition stamped at construction.
    #[inline]
    pub(crate) fn partition(&self) -> u8 {
        self.partition
    }

    /// Raw base pointer.
    ///
    /// Writes through this pointer must not race with reads of the same
    /// bytes. The SFM discipline guarantees this: a region is written at
    /// most once (one-shot assignment) *before* the message is published,
    /// and only read afterwards.
    #[inline]
    pub fn as_ptr(&self) -> *mut u8 {
        self.ptr.as_ptr()
    }

    /// View the first `len` bytes as a slice.
    ///
    /// Callers must only pass a `len` within the *whole message* (the
    /// initialized prefix maintained by the manager's append-only growth).
    ///
    /// # Panics
    ///
    /// Panics if `len > capacity`.
    #[inline]
    pub fn slice(&self, len: usize) -> &[u8] {
        assert!(len <= self.capacity);
        // SAFETY: in-bounds (asserted); the SFM discipline keeps [0, used)
        // fully initialized (skeleton zeroed at registration, appended
        // regions written in full, alignment gaps zeroed by expand).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), len) }
    }
}

impl Drop for SfmAlloc {
    fn drop(&mut self) {
        // Externally owned regions: release through the guard only — the
        // bytes belong to the mapping's owner, never to the heap or pool.
        if let Some(guard) = self.extern_guard.take() {
            drop(guard);
            return;
        }
        if self.capacity >= POOL_MIN_SIZE {
            // A panic here during unwinding would abort the process, so
            // recover from a poisoned pool lock instead of propagating:
            // the pool is a plain freelist, valid under any interleaving
            // of a panicked pusher.
            let mut pool = match pool().lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            let same_class = pool
                .entries
                .iter()
                .filter(|e| e.capacity == self.capacity)
                .count();
            if same_class < POOL_PER_CLASS && pool.bytes + self.capacity <= POOL_BYTE_CAP {
                pool.bytes += self.capacity;
                pool.entries.push(PoolEntry {
                    ptr: self.ptr,
                    capacity: self.capacity,
                });
                return;
            }
        }
        // The layout was validated at construction, so `Err` is
        // unreachable; leaking on it anyway beats an unwrap here, where a
        // panic during unwinding would abort.
        if let Ok(layout) = Layout::from_size_align(self.capacity, SFM_ALLOC_ALIGN) {
            // SAFETY: ptr was allocated with exactly this layout and is
            // dropped exactly once (pooled entries return through the
            // branch above).
            unsafe { dealloc(self.ptr.as_ptr(), layout) };
        }
    }
}

impl std::fmt::Debug for SfmAlloc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SfmAlloc")
            .field("base", &format_args!("{:#x}", self.base()))
            .field("capacity", &self.capacity)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_aligned_and_prefix_zeroable() {
        let a = SfmAlloc::new(1024);
        assert_eq!(a.capacity(), 1024);
        assert_eq!(a.base() % SFM_ALLOC_ALIGN, 0);
        a.zero_prefix(64);
        assert!(a.slice(64).iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic]
    fn zero_prefix_beyond_capacity_panics() {
        let a = SfmAlloc::new(8);
        a.zero_prefix(9);
    }

    #[test]
    fn slice_len_zero_is_empty() {
        let a = SfmAlloc::new(16);
        assert!(a.slice(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn zero_capacity_panics() {
        let _ = SfmAlloc::new(0);
    }

    #[test]
    #[should_panic]
    fn oversized_slice_panics() {
        let a = SfmAlloc::new(8);
        let _ = a.slice(9);
    }

    #[test]
    fn debug_is_nonempty() {
        let a = SfmAlloc::new(8);
        assert!(format!("{a:?}").contains("SfmAlloc"));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SfmAlloc>();
    }

    #[test]
    fn pool_recycles_large_allocations() {
        // Use a unique size class so concurrent tests don't interfere.
        let size = (9 << 20) + 8;
        let a = SfmAlloc::new(size);
        let base = a.base();
        drop(a); // goes to the pool
        let b = SfmAlloc::new(size);
        assert_eq!(b.base(), base, "same region recycled");
        let c = SfmAlloc::new(size);
        assert_ne!(c.base(), base, "pool was empty again");
    }

    #[test]
    fn small_allocations_bypass_the_pool() {
        let a = SfmAlloc::new(64);
        let base = a.base();
        drop(a);
        // The region may or may not be reused by malloc, but the pool
        // never holds it; allocating a *different* small size must work.
        let b = SfmAlloc::new(128);
        let _ = (base, b);
    }

    #[test]
    fn extern_region_released_through_guard_never_pooled() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        // The Vec is held only to keep the extern region alive for the
        // allocation's lifetime.
        struct Guard(Arc<AtomicUsize>, #[allow(dead_code)] Vec<u64>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let drops = Arc::new(AtomicUsize::new(0));
        // Large enough that the regular Drop path would try to pool it;
        // u64 storage guarantees the 8-byte alignment from_extern expects.
        let mut words = vec![0x0707_0707_0707_0707u64; POOL_MIN_SIZE / 8];
        let ptr = words.as_mut_ptr() as *mut u8;
        let guard = Guard(Arc::clone(&drops), words);
        let a = unsafe { SfmAlloc::from_extern(ptr, POOL_MIN_SIZE, Box::new(guard)) };
        assert!(a.is_extern());
        assert_eq!(a.born_ns(), 0);
        assert_eq!(a.slice(4), &[7, 7, 7, 7]);
        drop(a);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "guard dropped exactly once"
        );
        // A fresh allocation of the same size must not resurrect the
        // extern pointer from the pool.
        let b = SfmAlloc::new(POOL_MIN_SIZE);
        assert!(!b.is_extern());
    }

    #[test]
    fn many_allocations_distinct() {
        let allocs: Vec<_> = (0..64).map(|_| SfmAlloc::new(64)).collect();
        let mut bases: Vec<_> = allocs.iter().map(|a| a.base()).collect();
        bases.sort_unstable();
        bases.dedup();
        assert_eq!(bases.len(), 64);
    }
}
