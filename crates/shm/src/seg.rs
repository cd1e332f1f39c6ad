//! memfd-backed data segments and the per-publisher segment pool.
//!
//! Each segment is one anonymous memfd holding a 64-byte header followed by
//! an 8-aligned payload area. The header carries the *cross-process*
//! lifetime state:
//!
//! * `refs` — how many parties currently reference the payload: the
//!   publisher while it is writing, plus one per in-flight ring descriptor,
//!   plus one per subscriber-held frame. A segment is recyclable only at
//!   `refs == 0`, so a frame is never overwritten while any mapped reader
//!   still holds it.
//! * `generation` — bumped every time the publisher re-acquires the
//!   segment for a new frame. Ring descriptors carry the generation they
//!   were published under; a reader that pops a descriptor whose generation
//!   no longer matches the header (possible only after a publisher crashed
//!   mid-recycle and its counters were force-reset) abandons the frame as
//!   stale instead of reading torn bytes.
//!
//! The pool hands segments to links by directory index; an index is bound
//! to one segment for the pool's whole life (readers cache one mapping per
//! index), so capacity is sized up-front per segment and the pool grows by
//! appending new indices.

use crate::sync::{AtomicU64, Mutex, Ordering};
use rossf_sfm::mm;
use std::fs::File;
use std::io;
use std::os::fd::AsRawFd;
use std::sync::Arc;

/// Magic value stamped at offset 0 of every data segment ("ROSSFSEG").
pub(crate) const SEG_MAGIC: u64 = 0x524f_5353_4653_4547;
/// Size of the segment header; the payload starts here (8-aligned because
/// mappings are page-aligned).
pub(crate) const SEG_HEADER: usize = 64;
/// Maximum number of segments (= directory entries) per link pool.
pub const DIR_CAP: usize = 64;
/// Smallest payload capacity a segment is created with.
pub const MIN_SEGMENT_PAYLOAD: usize = 64 * 1024;

const OFF_MAGIC: usize = 0;
const OFF_REFS: usize = 8;
const OFF_GEN: usize = 16;
const OFF_LEN: usize = 24;
const OFF_CAP: usize = 32;

/// One publisher-owned shared data segment (memfd + read-write mapping).
pub struct Segment {
    file: File,
    ptr: *mut u8,
    total: usize,
    payload_cap: usize,
}

// SAFETY: the mapping is plain shared memory; all mutable header state is
// atomic and payload writes are fenced by the ring's seq protocol.
unsafe impl Send for Segment {}
unsafe impl Sync for Segment {}

impl Segment {
    /// Create a segment whose payload area holds at least `payload_cap`
    /// bytes, mapped read-write, header initialised (`refs = 0`,
    /// `generation = 0`).
    ///
    /// # Errors
    ///
    /// Any error from memfd creation, sizing, or mapping.
    pub fn create(payload_cap: usize) -> io::Result<Segment> {
        let total = rossf_sys::page_round(SEG_HEADER + payload_cap);
        let file = rossf_sys::memfd_create("rossf-seg")?;
        file.set_len(total as u64)?;
        let ptr = rossf_sys::mmap_shared(&file, total, true)?;
        let seg = Segment {
            file,
            ptr,
            total,
            payload_cap: total - SEG_HEADER,
        };
        // The mapping starts zeroed; publish capacity + magic last so a
        // reader that validates magic sees a complete header.
        // SAFETY: `ptr` maps `total >= SEG_HEADER` bytes we exclusively
        // own pre-publication; both offsets are u64-aligned and in bounds.
        unsafe {
            (seg.ptr.add(OFF_CAP) as *mut u64).write(seg.payload_cap as u64);
            (seg.ptr.add(OFF_MAGIC) as *mut u64).write(SEG_MAGIC);
        }
        mm().note_segment_map(seg.ptr as usize, seg.total);
        Ok(seg)
    }

    fn word(&self, off: usize) -> &AtomicU64 {
        // SAFETY: off < SEG_HEADER <= total and the mapping lives as long
        // as self.
        unsafe { &*(self.ptr.add(off) as *const AtomicU64) }
    }

    /// The cross-process reference count.
    pub fn refs(&self) -> &AtomicU64 {
        self.word(OFF_REFS)
    }

    /// Generation of the currently-held frame.
    pub fn generation(&self) -> u64 {
        self.word(OFF_GEN).load(Ordering::Acquire)
    }

    /// Payload capacity in bytes.
    pub fn payload_cap(&self) -> usize {
        self.payload_cap
    }

    /// The memfd's descriptor number in this process (what readers open
    /// through `/proc/<pid>/fd/<fd>`).
    pub fn fd(&self) -> i32 {
        self.file.as_raw_fd()
    }

    /// Try to claim the segment for a new frame: `refs` 0 → 1. On success
    /// the generation is bumped, invalidating any stale descriptor still
    /// naming this segment.
    pub fn try_acquire(&self) -> bool {
        // Relaxed: a look that spares a held segment's cache line — which
        // its readers are using — the CAS's write; the CAS decides.
        if self.refs().load(Ordering::Relaxed) != 0 {
            return false;
        }
        if self
            .refs()
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return false;
        }
        let gen = self.word(OFF_GEN).fetch_add(1, Ordering::AcqRel) + 1;
        if gen > 1 {
            mm().note_segment_recycle(self.ptr as usize);
        }
        true
    }

    /// Add one reference (a ring descriptor about to be published).
    pub fn add_ref(&self) {
        self.refs().fetch_add(1, Ordering::AcqRel);
    }

    /// Drop one reference (descriptor consumed/abandoned, or the
    /// publisher's own write hold released).
    pub fn release_ref(&self) {
        self.refs().fetch_sub(1, Ordering::AcqRel);
    }

    /// Subtract up to `n` references on behalf of a reader that cannot do
    /// it itself (abandoned references, or holds of a dead process).
    /// Clamped at zero — never underflows even if an account was already
    /// settled by a racing release.
    pub fn reclaim_refs(&self, n: u64) {
        if n == 0 {
            return;
        }
        let mut cur = self.refs().load(Ordering::Acquire);
        loop {
            let sub = cur.min(n);
            if sub == 0 {
                return;
            }
            match self
                .refs()
                .compare_exchange(cur, cur - sub, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Copy `payload` into the segment and stamp its length.
    ///
    /// # Panics
    ///
    /// If `payload` exceeds [`Segment::payload_cap`] — the pool never hands
    /// out a segment that small.
    pub fn write_payload(&self, payload: &[u8]) {
        assert!(payload.len() <= self.payload_cap);
        // SAFETY: the acquire CAS (refs 0 → 1) gives this thread exclusive
        // write access; readers only see the bytes after the descriptor's
        // seq release-store.
        unsafe {
            std::ptr::copy_nonoverlapping(
                payload.as_ptr(),
                self.ptr.add(SEG_HEADER),
                payload.len(),
            );
        }
        self.stamp_len(payload.len());
    }

    /// Base address of the payload area (8-aligned because the mapping is
    /// page-aligned and the 64-byte header is a multiple of 8).
    ///
    /// Writing through this pointer requires the segment's write hold
    /// ([`Segment::try_acquire`], `refs` 0 → 1) — the same exclusivity that
    /// covers [`Segment::write_payload`]. Loaned publication builds the SFM
    /// message in place here instead of copying a finished frame in.
    #[inline]
    pub fn payload_ptr(&self) -> *mut u8 {
        // SAFETY: SEG_HEADER < total for every segment.
        unsafe { self.ptr.add(SEG_HEADER) }
    }

    /// Stamp the header's payload-length word without touching the payload
    /// bytes — the loaned-publication counterpart of
    /// [`Segment::write_payload`], used after a message was built in place
    /// through [`Segment::payload_ptr`].
    ///
    /// # Panics
    ///
    /// If `len` exceeds [`Segment::payload_cap`].
    pub fn stamp_len(&self, len: usize) {
        assert!(len <= self.payload_cap);
        self.word(OFF_LEN).store(len as u64, Ordering::Release);
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        mm().note_segment_unmap(self.ptr as usize);
        // SAFETY: ptr/total denote the single live mapping created in
        // `create`; the memfd's memory stays valid for readers that still
        // map it.
        unsafe { rossf_sys::munmap(self.ptr, self.total) };
    }
}

/// Per-publisher pool of shared segments, indexed by directory slot.
///
/// Shared by every shm link of one publisher so the memfd count stays
/// bounded; contention is a single short mutex around the index scan.
#[derive(Default)]
pub struct SegmentPool {
    slots: Mutex<Slots>,
}

#[derive(Default)]
struct Slots {
    segments: Vec<Arc<Segment>>,
    /// Where the next scan starts: the slot acquired last. Free again, it
    /// is the segment still warm in cache (and already mapped by the
    /// readers); held, the scan moves on to the slots after it, which hold
    /// the oldest frames, instead of passing over every held slot from 0.
    cursor: usize,
}

impl SegmentPool {
    /// Fresh empty pool.
    pub fn new() -> SegmentPool {
        SegmentPool::default()
    }

    /// Acquire a free segment able to hold `need` payload bytes, creating
    /// one (capacity `need` rounded to a power of two, at least
    /// [`MIN_SEGMENT_PAYLOAD`]) if no existing slot is both large enough
    /// and unreferenced. Returns the directory index and the segment with
    /// the write hold (`refs == 1`) taken.
    ///
    /// `None` means backpressure: all [`DIR_CAP`] slots are still
    /// referenced by in-flight frames (or segment creation failed); the
    /// caller drops the frame and counts it.
    pub fn acquire(&self, need: usize) -> Option<(u32, Arc<Segment>)> {
        let mut slots = self.slots.lock();
        let len = slots.segments.len();
        let start = slots.cursor;
        let free = (0..len).map(|k| (start + k) % len).find(|&i| {
            let seg = &slots.segments[i];
            seg.payload_cap() >= need && seg.try_acquire()
        });
        let idx = match free {
            Some(i) => i,
            None if len >= DIR_CAP => return None,
            None => {
                let cap = need.next_power_of_two().max(MIN_SEGMENT_PAYLOAD);
                let seg = Arc::new(Segment::create(cap).ok()?);
                let acquired = seg.try_acquire();
                debug_assert!(acquired, "fresh segment must be free");
                slots.segments.push(seg);
                len
            }
        };
        slots.cursor = idx;
        Some((idx as u32, Arc::clone(&slots.segments[idx])))
    }

    /// The segment at directory index `idx`, if one exists.
    pub fn get(&self, idx: u32) -> Option<Arc<Segment>> {
        self.slots.lock().segments.get(idx as usize).cloned()
    }

    /// Number of segments created so far.
    pub fn len(&self) -> usize {
        self.slots.lock().segments.len()
    }

    /// Whether no segment has been created yet.
    pub fn is_empty(&self) -> bool {
        self.slots.lock().segments.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_recycles_only_at_zero_refs() {
        let _mapped = crate::census::mapping();
        let pool = SegmentPool::new();
        let (i0, s0) = pool.acquire(100).unwrap();
        assert_eq!(i0, 0);
        assert_eq!(s0.refs().load(Ordering::Relaxed), 1);
        assert_eq!(s0.generation(), 1);
        // Still held → second acquire creates a new slot.
        let (i1, s1) = pool.acquire(100).unwrap();
        assert_eq!(i1, 1);
        s1.release_ref();
        // Released slot 1 is reused, generation bumps.
        let (i2, s2) = pool.acquire(100).unwrap();
        assert_eq!(i2, 1);
        assert_eq!(s2.generation(), 2);
        s0.release_ref();
        s2.release_ref();
    }

    #[test]
    fn pool_respects_capacity_needs() {
        let _mapped = crate::census::mapping();
        let pool = SegmentPool::new();
        let (_, small) = pool.acquire(10).unwrap();
        small.release_ref();
        // A frame beyond the small slot's capacity cannot reuse it even
        // though it's free (capacity includes the page-rounding slack).
        let need = small.payload_cap() + 1;
        let (_, big) = pool.acquire(need).unwrap();
        assert!(big.payload_cap() >= need);
        assert_eq!(pool.len(), 2);
        big.release_ref();
    }

    #[test]
    fn acquire_passes_over_held_segments_to_the_first_free_one() {
        let _mapped = crate::census::mapping();
        let pool = SegmentPool::new();
        let held: Vec<_> = (0..5).map(|_| pool.acquire(100).unwrap()).collect();
        // Free one in the middle; every other segment is in flight.
        held[2].1.release_ref();
        let (idx, seg) = pool.acquire(100).unwrap();
        assert_eq!(idx, 2, "the held segments were passed over");
        assert_eq!(seg.generation(), 2, "the free one was recycled");
        assert_eq!(pool.len(), 5, "no segment was created");
        for (i, (_, s)) in held.iter().enumerate() {
            let refs = s.refs().load(Ordering::Relaxed);
            assert_eq!((i, refs, s.generation()), (i, 1, 1 + u64::from(i == 2)));
        }
        // The next scan starts at the slot just taken (held again), wraps,
        // and takes the first free one from there.
        held[0].1.release_ref();
        held[4].1.release_ref();
        assert_eq!(pool.acquire(100).unwrap().0, 4);
        assert_eq!(pool.acquire(100).unwrap().0, 0);
        for (i, (_, s)) in held.iter().enumerate() {
            s.release_ref();
            assert_eq!(s.refs().load(Ordering::Relaxed), 0, "slot {i} settled");
        }
    }

    #[test]
    fn payload_roundtrip_with_len_stamp() {
        let _mapped = crate::census::mapping();
        let seg = Segment::create(1024).unwrap();
        assert!(seg.try_acquire());
        seg.write_payload(&[1, 2, 3, 4, 5]);
        let base = seg.ptr;
        let got = unsafe { std::slice::from_raw_parts(base.add(SEG_HEADER), 5) };
        assert_eq!(got, &[1, 2, 3, 4, 5]);
        seg.release_ref();
    }

    #[test]
    fn reclaim_refs_clamps_at_zero() {
        let _mapped = crate::census::mapping();
        let seg = Segment::create(64).unwrap();
        assert!(seg.try_acquire());
        seg.add_ref();
        // Over-reclaiming (a racing release already settled part of the
        // account) clamps instead of wrapping to u64::MAX.
        seg.reclaim_refs(5);
        assert_eq!(seg.refs().load(Ordering::Relaxed), 0);
        seg.reclaim_refs(1);
        assert_eq!(seg.refs().load(Ordering::Relaxed), 0);
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let _mapped = crate::census::mapping();
        let pool = SegmentPool::new();
        let mut held = Vec::new();
        for _ in 0..DIR_CAP {
            held.push(pool.acquire(8).unwrap());
        }
        assert!(pool.acquire(8).is_none(), "all slots referenced");
        for (_, s) in &held {
            s.release_ref();
        }
        assert!(pool.acquire(8).is_some());
    }
}
