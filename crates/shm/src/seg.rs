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
//! appending new indices — each one a segment taken from the idle list or
//! else created.
//!
//! A segment's life spans pools. When a pool drops, each segment no frame
//! still references (`refs == 0`, and the pool held the last `Arc`) goes
//! onto one process-wide idle list instead of being unmapped, under the
//! heap's large-block bounds ([`LARGE_PER_CLASS`] per capacity,
//! [`LARGE_BYTE_CAP`] in all); a segment past them is unmapped. A pool that
//! would create a segment takes an idle one of exactly that capacity
//! first, so a new publisher's first frames land in pages already
//! resident. The new pool scrubs it on its own thread: the pages the old
//! pool's stamped frames covered are zeroed in place, and the rest, where
//! only an abandoned loan could have written, is punched out of the memfd
//! ([`rossf_sys::punch_hole`]), so every payload byte reads zero, as in a
//! new segment. The list belongs to the process that filled it: a forked
//! child, which inherits its parent's mappings, drops the list unused
//! instead of writing its parent's memory. An idle segment is out of the
//! manager's segment registry, which counts the segments that can hold a
//! frame. [`drain_idle_segments`] unmaps them all.

use crate::sync::{AtomicU64, Mutex, Ordering};
use rossf_sfm::{mm, LARGE_BYTE_CAP, LARGE_PER_CLASS};
use std::fs::File;
use std::io;
use std::os::fd::AsRawFd;
use std::sync::atomic::AtomicUsize;
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
    /// The highest length [`Segment::stamp_len`] was given: the payload
    /// a hand-over to another pool zeroes in place (it punches the rest).
    stamped_max: AtomicUsize,
    /// Whether the manager's segment registry holds the mapping: from
    /// creation on, except while the segment waits on the idle list.
    registered: bool,
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
            stamped_max: AtomicUsize::new(0),
            registered: true,
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
        // Relaxed: process-local, and only a hint of which pages to keep
        // warm at a hand-over: `scrub` zeroes or punches every payload
        // byte whatever it reads.
        if len > self.stamped_max.load(Ordering::Relaxed) {
            // Relaxed: as above.
            self.stamped_max.store(len, Ordering::Relaxed);
        }
        self.word(OFF_LEN).store(len as u64, Ordering::Release);
    }

    /// Offer a segment no pool, frame or reader holds to the idle list,
    /// which keeps it mapped if its capacity and the list's bytes are
    /// within the heap's large-block bounds; past them it is unmapped.
    fn park(mut self) {
        mm().note_segment_unmap(self.ptr as usize);
        self.registered = false;
        let mut idle = IDLE.lock();
        idle.claim();
        let same = idle.segments.iter().filter(|s| s.total == self.total);
        let bytes = idle.segments.iter().map(|s| s.total).sum::<usize>() + self.total;
        if same.count() < LARGE_PER_CLASS as usize && bytes <= LARGE_BYTE_CAP {
            idle.segments.push(self);
        }
    }

    /// An idle segment of exactly the size [`Segment::create`]`(cap)`
    /// makes, scrubbed and registered again.
    fn take_idle(cap: usize) -> Option<Segment> {
        let total = rossf_sys::page_round(SEG_HEADER + cap);
        let mut seg = {
            let mut idle = IDLE.lock();
            idle.claim();
            let i = idle.segments.iter().rposition(|s| s.total == total)?;
            idle.segments.swap_remove(i)
        };
        // A segment that cannot be scrubbed is unmapped, never handed out.
        seg.scrub().ok()?;
        mm().note_segment_map(seg.ptr as usize, seg.total);
        seg.registered = true;
        Some(seg)
    }

    /// Make every payload byte read zero, as in a new segment: the pages
    /// the last pool's stamped frames covered are zeroed in place and stay
    /// resident; the rest, where only a loan it never stamped could have
    /// written, is punched out of the memfd.
    fn scrub(&mut self) -> io::Result<()> {
        // Relaxed: the segment is ours alone (off every list, no `Arc`).
        let stamped = self.stamped_max.load(Ordering::Relaxed);
        let warm = rossf_sys::page_round(SEG_HEADER + stamped);
        // SAFETY: SEG_HEADER <= warm <= total bound the zeroed range to the
        // payload; nothing else holds the segment, so no reader or writer
        // can see the bytes change.
        unsafe { self.payload_ptr().write_bytes(0, warm - SEG_HEADER) };
        if warm < self.total {
            rossf_sys::punch_hole(&self.file, warm, self.total - warm)?;
        }
        // Relaxed: as above.
        self.stamped_max.store(0, Ordering::Relaxed);
        Ok(())
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        if self.registered {
            mm().note_segment_unmap(self.ptr as usize);
        }
        // SAFETY: ptr/total denote the single live mapping created in
        // `create`; the memfd's memory stays valid for readers that still
        // map it.
        unsafe { rossf_sys::munmap(self.ptr, self.total) };
    }
}

/// The segments no pool holds, kept mapped for the next pool (module docs).
struct Idle {
    /// The process the segments belong to.
    pid: u32,
    segments: Vec<Segment>,
}

static IDLE: parking_lot::Mutex<Idle> = parking_lot::Mutex::new(Idle {
    pid: 0,
    segments: Vec::new(),
});

impl Idle {
    /// Make the list this process's: a forked child finds its parent's
    /// segments on it, mapped into the child too, and unmaps its copies
    /// unused — writing them would write the parent's memory.
    fn claim(&mut self) {
        let pid = std::process::id();
        if self.pid != pid {
            self.pid = pid;
            self.segments.clear();
        }
    }
}

/// Unmap every idle segment (module docs) and return how many there were.
///
/// Benchmark harnesses call this between experiment cells, beside
/// `rossf_sfm::drain_alloc_pool`, so one cell's kept segments cannot spare
/// the next cell's publishers their first faults.
pub fn drain_idle_segments() -> usize {
    let drained = std::mem::take(&mut IDLE.lock().segments);
    drained.len()
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

    /// Acquire a free segment able to hold `need` payload bytes, adding
    /// one (capacity `need` rounded to a power of two, at least
    /// [`MIN_SEGMENT_PAYLOAD`]) if no existing slot is both large enough
    /// and unreferenced: an idle segment of that capacity if the process
    /// keeps one (module docs), else a new one. Returns the directory index
    /// and the segment with the write hold (`refs == 1`) taken.
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
                let seg = match Segment::take_idle(cap) {
                    Some(seg) => seg,
                    None => Segment::create(cap).ok()?,
                };
                let seg = Arc::new(seg);
                let acquired = seg.try_acquire();
                debug_assert!(acquired, "an added segment must be free");
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

    /// Number of segments the pool holds.
    pub fn len(&self) -> usize {
        self.slots.lock().segments.len()
    }

    /// Whether the pool holds no segment yet.
    pub fn is_empty(&self) -> bool {
        self.slots.lock().segments.is_empty()
    }
}

impl Drop for SegmentPool {
    fn drop(&mut self) {
        let segments = std::mem::take(&mut self.slots.lock().segments);
        for seg in segments {
            // The last `Arc` and no reference left: no frame, descriptor or
            // reader can reach the segment again. Acquire: a reader's last
            // release (AcqRel) and its reads come before the next pool's
            // scrub writes.
            if let Ok(seg) = Arc::try_unwrap(seg) {
                if seg.refs().load(Ordering::Acquire) == 0 {
                    seg.park();
                }
            }
        }
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
        assert!(s0.generation() >= 1, "the acquire bumped it");
        // Still held → second acquire adds a new slot. (A segment another
        // pool left idle carries its generation on.)
        let (i1, s1) = pool.acquire(100).unwrap();
        assert_eq!(i1, 1);
        let g1 = s1.generation();
        s1.release_ref();
        // Released slot 1 is reused, generation bumps.
        let (i2, s2) = pool.acquire(100).unwrap();
        assert_eq!(i2, 1);
        assert_eq!(s2.generation(), g1 + 1);
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
        let gens: Vec<u64> = held.iter().map(|(_, s)| s.generation()).collect();
        // Free one in the middle; every other segment is in flight.
        held[2].1.release_ref();
        let (idx, seg) = pool.acquire(100).unwrap();
        assert_eq!(idx, 2, "the held segments were passed over");
        assert_eq!(seg.generation(), gens[2] + 1, "the free one was recycled");
        assert_eq!(pool.len(), 5, "no segment was created");
        for (i, (_, s)) in held.iter().enumerate() {
            let refs = s.refs().load(Ordering::Relaxed);
            let gen = gens[i] + u64::from(i == 2);
            assert_eq!((i, refs, s.generation()), (i, 1, gen));
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

    /// The idle list's length, for the tests that count it.
    fn idle_len() -> usize {
        IDLE.lock().segments.len()
    }

    /// What a forked child finds: the idle list recorded under another
    /// process (the forked tests re-exec, so none inherits a list).
    fn record_idle_list_under(pid: u32) {
        IDLE.lock().pid = pid;
    }

    /// The payload of a frame the caller holds, as bytes.
    fn payload(frame: &crate::SharedFrame) -> &[u8] {
        // SAFETY: the payload is `capacity()` bytes, and the frame's write
        // hold keeps every other writer out.
        unsafe { std::slice::from_raw_parts(frame.payload_ptr(), frame.capacity()) }
    }

    /// Write `byte` over `range` of the payload of a frame the caller holds.
    fn fill(frame: &crate::SharedFrame, range: std::ops::Range<usize>, byte: u8) {
        assert!(range.start <= range.end && range.end <= frame.capacity());
        // SAFETY: the range is inside the payload's `capacity()` bytes,
        // which the frame's write hold makes the caller's.
        unsafe {
            frame
                .payload_ptr()
                .add(range.start)
                .write_bytes(byte, range.len())
        };
    }

    /// A dropped pool's free segment is the next pool's first, scrubbed:
    /// the same mapping, registered again, and zero in every payload byte
    /// — where a published frame wrote past its stamp, and where a loan
    /// that was never published wrote further still.
    #[test]
    fn a_dropped_pools_segment_is_the_next_pools_and_reads_zero() {
        use crate::{PushOutcome, ShmLink, ShmReader};
        let _alone = crate::census::counting();
        drain_idle_segments();
        // The 2 MiB class: a frame of a 1.44 MB image.
        const STAMPED: usize = (1 << 20) + 4096;
        let a = Arc::new(SegmentPool::new());
        let mut link = ShmLink::create(Arc::clone(&a), 4, 7).unwrap();
        let reader = ShmReader::connect(std::process::id(), link.ctrl_fd(), 7).unwrap();
        let frame = a.loan(STAMPED).unwrap();
        fill(&frame, 0..STAMPED + 5000, 0xA1);
        frame.set_len(STAMPED);
        let meta = crate::FrameMeta::default();
        assert_eq!(link.commit_shared(&frame, meta), PushOutcome::Pushed);
        drop(frame);
        let got = reader.try_take().unwrap().expect("the frame is queued");
        assert!(got.as_slice().iter().all(|&b| b == 0xA1));
        drop(got);
        let abandoned = a.loan(STAMPED).unwrap();
        assert_eq!(a.len(), 1, "the loan took the published frame's segment");
        fill(&abandoned, STAMPED + 5000..abandoned.capacity(), 0xA2);
        drop(abandoned);
        drop((reader, link));
        let with_a = mm().live_segments();
        let (addr, gen) = {
            let seg = a.get(0).unwrap();
            (seg.payload_ptr(), seg.generation())
        };
        drop(a);
        assert_eq!(idle_len(), 1, "the free segment was parked");
        assert_eq!(mm().live_segments(), with_a - 1, "out of the registry");

        let b = Arc::new(SegmentPool::new());
        let first = b.loan(STAMPED).unwrap();
        assert_eq!(first.payload_ptr(), addr, "A's segment");
        assert_eq!(first.segment().generation(), gen + 1, "A's segment");
        assert_eq!(mm().live_segments(), with_a, "registered again");
        assert_eq!(idle_len(), 0);
        let dirty = payload(&first).iter().position(|&b| b != 0);
        assert_eq!(
            dirty,
            None,
            "first nonzero payload byte of {}",
            first.capacity()
        );
        drop((first, b));
        assert_eq!(drain_idle_segments(), 1);
    }

    /// A segment a subscriber still holds a frame in is not parked when its
    /// publisher goes: the next publisher's first loan gets a new segment,
    /// and the held bytes stay the old frame's.
    #[test]
    fn a_held_frames_segment_is_not_parked() {
        use crate::{PushOutcome, ShmLink, ShmReader};
        let _alone = crate::census::counting();
        drain_idle_segments();
        let a = Arc::new(SegmentPool::new());
        let mut link = ShmLink::create(Arc::clone(&a), 4, 8).unwrap();
        let reader = ShmReader::connect(std::process::id(), link.ctrl_fd(), 8).unwrap();
        let meta = crate::FrameMeta::default();
        assert_eq!(link.push(&[0x5A; 3000], meta), PushOutcome::Pushed);
        let stashed = reader.try_take().unwrap().expect("the frame is queued");
        drop((link, a));
        assert_eq!(idle_len(), 0, "refs > 0: not parked");

        let b = Arc::new(SegmentPool::new());
        let first = b.loan(3000).unwrap();
        assert_eq!(first.segment().generation(), 1, "a new segment");
        fill(&first, 0..first.capacity(), 0xB0);
        assert!(stashed.as_slice().iter().all(|&b| b == 0x5A));
        drop((first, b, stashed, reader));
        drain_idle_segments();
    }

    /// The idle list keeps the heap's large-block bounds: at most
    /// `LARGE_PER_CLASS` segments of one capacity and `LARGE_BYTE_CAP`
    /// bytes in all; a segment past either is unmapped.
    #[test]
    fn segments_past_the_class_or_byte_bound_are_unmapped() {
        let _alone = crate::census::counting();
        drain_idle_segments();
        let before = mm().live_segments();
        let park = |n: usize, need: usize| {
            let pool = SegmentPool::new();
            let held: Vec<_> = (0..n).map(|_| pool.acquire(need).unwrap().1).collect();
            held.iter().for_each(|s| s.release_ref());
            let total = held[0].payload_cap() + SEG_HEADER;
            drop((held, pool));
            total
        };
        let per_class = LARGE_PER_CLASS as usize;
        park(per_class + 1, 200 << 10);
        assert_eq!(idle_len(), per_class, "one past the class bound");
        park(1, 100);
        assert_eq!(idle_len(), per_class + 1, "another class has room");
        assert_eq!(drain_idle_segments(), per_class + 1);

        let total = park(5, 20 << 20);
        assert!(5 * total > LARGE_BYTE_CAP, "the bytes bind first");
        assert_eq!(idle_len(), LARGE_BYTE_CAP / total, "past the byte bound");
        drain_idle_segments();
        assert_eq!(mm().live_segments(), before, "every segment unmapped");
    }

    /// An idle list recorded under another process — its parent's, to a
    /// forked child — is never handed out: the next pool creates.
    #[test]
    fn another_processs_idle_segment_is_never_handed_out() {
        let _alone = crate::census::counting();
        drain_idle_segments();
        let pool = SegmentPool::new();
        let (_, seg) = pool.acquire(100).unwrap();
        seg.release_ref();
        drop((seg, pool));
        assert_eq!(idle_len(), 1);
        record_idle_list_under(std::process::id() + 1);
        let pool = SegmentPool::new();
        let (_, seg) = pool.acquire(100).unwrap();
        assert_eq!(seg.generation(), 1, "a new segment");
        assert_eq!(idle_len(), 0, "the other process's list was dropped");
        seg.release_ref();
        drop((seg, pool));
        assert_eq!(drain_idle_segments(), 1, "this process's list again");
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
