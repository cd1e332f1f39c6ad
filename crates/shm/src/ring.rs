//! The per-link control segment: a bounded SPMC descriptor ring plus the
//! segment directory, all inside one shared memfd.
//!
//! Layout (everything 8-aligned, little-endian, one writer per field
//! class):
//!
//! ```text
//! [ 128 B header | dir_cap × 48 B directory entries | ring_cap × 64 B slots ]
//! ```
//!
//! The ring is a Vyukov-style bounded queue: each slot carries a sequence
//! word. A slot is writable by the producer when `seq == ticket`, readable
//! by a consumer when `seq == ticket + 1`, and recycled by storing
//! `ticket + ring_cap`. There is a single producer at a time — the
//! transport commits from whichever thread called `publish`, serialised
//! by a per-link mutex on its side; consumers are the subscriber process
//! *and* the publisher's own teardown drain, which is why the consumer
//! side takes the multi-consumer (`head` CAS) form.
//!
//! A consumer is an event-loop handler, and a drained one is woken one way:
//! its link's **doorbell**. It [arms](ControlSegment::arm) the ring, looks
//! at the ring once more — the push that raced the arming is either seen
//! by that look or sees the arming — and returns to its loop. The producer
//! [disarms](ControlSegment::disarm) after every push and rings the link's
//! doorbell (a byte on the control socket, or an in-process notify; the
//! transport owns both) only if the ring was armed, so a consumer still
//! draining costs the producer nothing but the swap.
//!
//! No spinning before going idle: on the closed-loop benchmark a bounded
//! spin only measures the generator waiting for itself, and it costs every
//! other thread the core (DESIGN §9).

use crate::seg::DIR_CAP;
use crate::sync::{AtomicU32, AtomicU64, Ordering};
use std::fs::File;
use std::io;
use std::os::fd::AsRawFd;

/// Magic value stamped at offset 0 of every control segment ("ROSSFCT4":
/// the fourth layout, whose slots carry the trace tag as two words).
const CTL_MAGIC: u64 = 0x524f_5353_4643_5434;
/// Largest ring capacity accepted when opening a peer's control segment
/// (sanity bound against corrupt headers).
const MAX_RING_CAP: u64 = 4096;

const HDR: usize = 128;
const OFF_MAGIC: usize = 0;
const OFF_EPOCH: usize = 8;
const OFF_RING_CAP: usize = 16;
const OFF_DIR_CAP: usize = 24;
const OFF_HEAD: usize = 32;
const OFF_TAIL: usize = 40;
const OFF_CLOSED: usize = 48;
/// 1 while a drained consumer wants its doorbell rung (u32).
const OFF_ARMED: usize = 56;

const DIR_ENTRY: usize = 48;
const DENT_FD: usize = 0;
const DENT_CAP: usize = 8;
const DENT_STATE: usize = 16;
/// Segment references the reader inherited from popped descriptors and has
/// not yet released. Written by the reader; drained by the publisher only
/// once the reader *process* is known dead (crash reclamation).
const DENT_HOLDS: usize = 24;
/// Segment references the reader inherited but declared unreleasable (the
/// data segment would not map, so it cannot reach the refcount). Drained
/// by the publisher at any time.
const DENT_ABANDONED: usize = 32;

const SLOT: usize = 64;
const SLOT_SEQ: usize = 0;
const SLOT_SEG: usize = 8;
const SLOT_GEN: usize = 16;
const SLOT_LEN: usize = 24;
const SLOT_TRACE: usize = 32;
const SLOT_SENT: usize = 40;
// Bytes 48..64 of a slot are unused: the stride stays one cache line.

/// One frame descriptor as it travels through the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Descriptor {
    /// Directory index of the data segment holding the payload.
    pub seg: u32,
    /// Segment generation the frame was published under; readers compare
    /// it against the segment header and abandon the frame on mismatch.
    pub gen: u64,
    /// Payload length in bytes.
    pub len: usize,
    /// Trace id (0 = untraced): [`FrameMeta::trace_id`](crate::FrameMeta).
    pub trace_id: u64,
    /// When the publisher finished writing the frame, on the host clock
    /// (0 = untraced): [`FrameMeta::sent_ns`](crate::FrameMeta).
    pub sent_ns: u64,
}

/// A mapped control segment; created by the publisher, opened read-write
/// by the subscriber through the peer's fd.
pub struct ControlSegment {
    file: File,
    ptr: *mut u8,
    total: usize,
    ring_cap: u64,
    dir_cap: u64,
}

// SAFETY: plain shared memory; all cross-thread state is atomic.
unsafe impl Send for ControlSegment {}
unsafe impl Sync for ControlSegment {}

fn layout_total(ring_cap: u64, dir_cap: u64) -> usize {
    rossf_sys::page_round(HDR + dir_cap as usize * DIR_ENTRY + ring_cap as usize * SLOT)
}

impl ControlSegment {
    /// Create a fresh control segment with `ring_cap` slots (rounded up to
    /// a power of two, at least 2) stamped with `epoch`.
    ///
    /// # Errors
    ///
    /// Any error from memfd creation, sizing, or mapping.
    pub fn create(ring_cap: usize, epoch: u64) -> io::Result<ControlSegment> {
        let ring_cap = (ring_cap.max(2).next_power_of_two() as u64).min(MAX_RING_CAP);
        let dir_cap = DIR_CAP as u64;
        let total = layout_total(ring_cap, dir_cap);
        let file = rossf_sys::memfd_create("rossf-ctl")?;
        file.set_len(total as u64)?;
        let ptr = rossf_sys::mmap_shared(&file, total, true)?;
        let ctl = ControlSegment {
            file,
            ptr,
            total,
            ring_cap,
            dir_cap,
        };
        // SAFETY: `ptr` maps `total >= HDR` zeroed bytes we exclusively
        // own until the magic is published; the header offsets are all
        // u64-aligned and within HDR.
        unsafe {
            (ctl.ptr.add(OFF_EPOCH) as *mut u64).write(epoch);
            (ctl.ptr.add(OFF_RING_CAP) as *mut u64).write(ring_cap);
            (ctl.ptr.add(OFF_DIR_CAP) as *mut u64).write(dir_cap);
        }
        // Slot i starts writable for ticket i.
        for i in 0..ring_cap {
            ctl.slot_word(i, SLOT_SEQ).store(i, Ordering::Relaxed);
        }
        // Magic last: a reader that validates it sees a complete layout.
        // SAFETY: same mapping as above; OFF_MAGIC is aligned and in HDR.
        unsafe { (ctl.ptr.add(OFF_MAGIC) as *mut u64).write(CTL_MAGIC) };
        rossf_sfm::mm().note_segment_map(ctl.ptr as usize, total);
        Ok(ctl)
    }

    /// Map a peer's control segment from an already-opened file (see
    /// [`rossf_sys::open_peer_fd`]).
    ///
    /// # Errors
    ///
    /// `InvalidData` if the magic, capacities, or file size are
    /// inconsistent; otherwise any mapping error.
    pub fn open(file: File) -> io::Result<ControlSegment> {
        let file_len = file.metadata()?.len() as usize;
        if file_len < HDR {
            return Err(bad("control segment shorter than its header"));
        }
        // Peek at the header through a minimal mapping to learn the layout.
        let peek = rossf_sys::mmap_shared(&file, HDR, false)?;
        // SAFETY: `peek` maps exactly HDR bytes (file length checked
        // above); the three header words are u64-aligned and in bounds.
        let (magic, ring_cap, dir_cap) = unsafe {
            (
                (peek.add(OFF_MAGIC) as *const u64).read(),
                (peek.add(OFF_RING_CAP) as *const u64).read(),
                (peek.add(OFF_DIR_CAP) as *const u64).read(),
            )
        };
        // SAFETY: unmapping the exact mapping created two lines up; no
        // references into it survive.
        unsafe { rossf_sys::munmap(peek, HDR) };
        if magic != CTL_MAGIC {
            return Err(bad("control segment magic mismatch"));
        }
        if ring_cap == 0 || ring_cap > MAX_RING_CAP || dir_cap == 0 || dir_cap > DIR_CAP as u64 {
            return Err(bad("control segment capacities out of range"));
        }
        let total = layout_total(ring_cap, dir_cap);
        if total > file_len {
            return Err(bad("control segment file shorter than its layout"));
        }
        let ptr = rossf_sys::mmap_shared(&file, total, true)?;
        let ctl = ControlSegment {
            file,
            ptr,
            total,
            ring_cap,
            dir_cap,
        };
        rossf_sfm::mm().note_segment_map(ctl.ptr as usize, total);
        Ok(ctl)
    }

    fn word(&self, off: usize) -> &AtomicU64 {
        // SAFETY: off < HDR <= total; mapping lives as long as self.
        unsafe { &*(self.ptr.add(off) as *const AtomicU64) }
    }

    fn word32(&self, off: usize) -> &AtomicU32 {
        // SAFETY: as `word`; the u32 header words sit at 4-aligned offsets.
        unsafe { &*(self.ptr.add(off) as *const AtomicU32) }
    }

    fn slot_word(&self, index: u64, off: usize) -> &AtomicU64 {
        let base = HDR + self.dir_cap as usize * DIR_ENTRY + (index as usize) * SLOT;
        debug_assert!(base + SLOT <= self.total);
        // SAFETY: in-bounds by construction (index < ring_cap).
        unsafe { &*(self.ptr.add(base + off) as *const AtomicU64) }
    }

    fn dir_word(&self, index: u32, off: usize) -> &AtomicU64 {
        debug_assert!((index as u64) < self.dir_cap);
        let base = HDR + index as usize * DIR_ENTRY;
        // SAFETY: in-bounds by construction.
        unsafe { &*(self.ptr.add(base + off) as *const AtomicU64) }
    }

    /// Epoch stamp the creator wrote — the publisher-incarnation check for
    /// crash recovery.
    pub fn epoch(&self) -> u64 {
        // SAFETY: immutable after create; plain read.
        unsafe { (self.ptr.add(OFF_EPOCH) as *const u64).read() }
    }

    /// Ring capacity in slots.
    pub fn ring_cap(&self) -> usize {
        self.ring_cap as usize
    }

    /// The memfd's descriptor in this process.
    pub fn fd(&self) -> i32 {
        self.file.as_raw_fd()
    }

    /// Publish directory entry `index` → (`fd`, `capacity`). Written once
    /// per segment, `state` released last so readers never observe a
    /// partial entry.
    pub fn publish_dir(&self, index: u32, fd: i32, capacity: usize) {
        self.dir_word(index, DENT_FD)
            .store(fd as u64, Ordering::Relaxed);
        self.dir_word(index, DENT_CAP)
            .store(capacity as u64, Ordering::Relaxed);
        self.dir_word(index, DENT_STATE).store(1, Ordering::Release);
    }

    /// Read directory entry `index` if it has been published.
    pub fn dir_entry(&self, index: u32) -> Option<(i32, usize)> {
        if index as u64 >= self.dir_cap {
            return None;
        }
        if self.dir_word(index, DENT_STATE).load(Ordering::Acquire) != 1 {
            return None;
        }
        Some((
            self.dir_word(index, DENT_FD).load(Ordering::Relaxed) as i32,
            self.dir_word(index, DENT_CAP).load(Ordering::Relaxed) as usize,
        ))
    }

    /// Reader: record that one segment reference for directory slot
    /// `index` was inherited from a popped descriptor. Returns `false`
    /// when the index is out of range (corrupt descriptor — nothing to
    /// account).
    pub fn add_hold(&self, index: u32) -> bool {
        if u64::from(index) >= self.dir_cap {
            return false;
        }
        self.dir_word(index, DENT_HOLDS)
            .fetch_add(1, Ordering::AcqRel);
        true
    }

    /// Reader: record that one inherited reference for slot `index` was
    /// released. Called *before* the segment refcount decrement, so a
    /// crash between the two leaks at most one bounded reference instead
    /// of letting dead-reader reclamation subtract the same reference
    /// twice.
    pub fn dec_hold(&self, index: u32) {
        if u64::from(index) >= self.dir_cap {
            return;
        }
        self.dir_word(index, DENT_HOLDS)
            .fetch_sub(1, Ordering::AcqRel);
    }

    /// Reader: convert one hold on slot `index` into an *abandoned*
    /// reference — inherited but unreleasable because the data segment
    /// would not map, so the reader cannot reach its refcount. The
    /// publisher drains these with [`ControlSegment::take_abandoned`] and
    /// subtracts them on its side, un-pinning the pool slot even while
    /// the reader process lives on.
    pub fn abandon_hold(&self, index: u32) {
        if u64::from(index) >= self.dir_cap {
            return;
        }
        self.dir_word(index, DENT_HOLDS)
            .fetch_sub(1, Ordering::AcqRel);
        self.dir_word(index, DENT_ABANDONED)
            .fetch_add(1, Ordering::AcqRel);
    }

    /// Reader references currently outstanding on slot `index`.
    pub fn reader_holds(&self, index: u32) -> u64 {
        if u64::from(index) >= self.dir_cap {
            return 0;
        }
        self.dir_word(index, DENT_HOLDS).load(Ordering::Acquire)
    }

    /// Publisher: drain the abandoned-reference count for slot `index`.
    pub fn take_abandoned(&self, index: u32) -> u64 {
        if u64::from(index) >= self.dir_cap {
            return 0;
        }
        self.dir_word(index, DENT_ABANDONED)
            .swap(0, Ordering::AcqRel)
    }

    /// Publisher: drain the outstanding-holds count for slot `index`.
    /// Only meaningful once the reader *process* is known dead — a live
    /// reader releases its own holds.
    pub fn take_holds(&self, index: u32) -> u64 {
        if u64::from(index) >= self.dir_cap {
            return 0;
        }
        self.dir_word(index, DENT_HOLDS).swap(0, Ordering::AcqRel)
    }

    /// Producer: publish `d` into the next slot. Returns `false` when the
    /// ring is full (backpressure — the caller drops the frame and counts
    /// it). Single producer only; a drained consumer is the caller's to
    /// wake, see [`ControlSegment::disarm`].
    pub fn try_push(&self, d: &Descriptor) -> bool {
        let t = self.word(OFF_TAIL).load(Ordering::Relaxed);
        let idx = t % self.ring_cap;
        if self.slot_word(idx, SLOT_SEQ).load(Ordering::Acquire) != t {
            return false; // ring full
        }
        self.slot_word(idx, SLOT_SEG)
            .store(u64::from(d.seg), Ordering::Relaxed);
        self.slot_word(idx, SLOT_GEN)
            .store(d.gen, Ordering::Relaxed);
        self.slot_word(idx, SLOT_LEN)
            .store(d.len as u64, Ordering::Relaxed);
        self.slot_word(idx, SLOT_TRACE)
            .store(d.trace_id, Ordering::Relaxed);
        self.slot_word(idx, SLOT_SENT)
            .store(d.sent_ns, Ordering::Relaxed);
        // Readers are gated by the slot's own sequence word; the tail only
        // feeds `pending`.
        self.slot_word(idx, SLOT_SEQ)
            .store(t + 1, Ordering::Release);
        self.word(OFF_TAIL).store(t + 1, Ordering::Release);
        true
    }

    /// Consumer, having drained the ring: ask for the doorbell to be rung
    /// by the next push. The caller **must
    /// look at the ring again** ([`ControlSegment::pending`],
    /// [`ControlSegment::is_closed`]) before going idle: a push that
    /// disarmed just before this call rang nothing.
    pub fn arm(&self) {
        // ORDER: SeqCst swap pairs with `disarm`'s. Both are read-modify-
        // writes of one word, so one reads the other's value: either the
        // producer's swap reads this 1 (and rings), or this swap reads the
        // producer's 0 — and with it everything the producer published
        // before disarming, which the caller's second look then sees.
        self.word32(OFF_ARMED).swap(1, Ordering::SeqCst);
    }

    /// Producer, after a push (or after closing): `true` means a drained
    /// consumer armed the ring and this caller must ring its doorbell.
    pub fn disarm(&self) -> bool {
        // ORDER: SeqCst swap, see `arm`.
        self.word32(OFF_ARMED).swap(0, Ordering::SeqCst) == 1
    }

    /// Consumer: take the oldest descriptor, if any. Multi-consumer safe
    /// (the subscriber and the publisher's teardown drain may race): the
    /// head CAS hands each descriptor to exactly one of them.
    pub fn try_pop(&self) -> Option<Descriptor> {
        loop {
            let h = self.word(OFF_HEAD).load(Ordering::Acquire);
            let idx = h % self.ring_cap;
            if self.slot_word(idx, SLOT_SEQ).load(Ordering::Acquire) != h + 1 {
                return None;
            }
            if self
                .word(OFF_HEAD)
                .compare_exchange(h, h + 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue; // another consumer claimed ahead of us
            }
            // The claimed slot is exclusively ours: the producer reuses it
            // only after the recycle store below.
            let d = Descriptor {
                seg: self.slot_word(idx, SLOT_SEG).load(Ordering::Relaxed) as u32,
                gen: self.slot_word(idx, SLOT_GEN).load(Ordering::Relaxed),
                len: self.slot_word(idx, SLOT_LEN).load(Ordering::Relaxed) as usize,
                trace_id: self.slot_word(idx, SLOT_TRACE).load(Ordering::Relaxed),
                sent_ns: self.slot_word(idx, SLOT_SENT).load(Ordering::Relaxed),
            };
            // Recycle the slot for ticket h + ring_cap.
            self.slot_word(idx, SLOT_SEQ)
                .store(h + self.ring_cap, Ordering::Release);
            return Some(d);
        }
    }

    /// Approximate number of descriptors currently in the ring.
    pub fn pending(&self) -> u64 {
        let t = self.word(OFF_TAIL).load(Ordering::Acquire);
        let h = self.word(OFF_HEAD).load(Ordering::Acquire);
        t.saturating_sub(h)
    }

    /// Mark the link closed (graceful teardown). A drained consumer is the
    /// caller's to wake, as after a push.
    pub fn close(&self) {
        self.word(OFF_CLOSED).store(1, Ordering::Release);
    }

    /// Whether [`ControlSegment::close`] has been called by either side.
    pub fn is_closed(&self) -> bool {
        self.word(OFF_CLOSED).load(Ordering::Acquire) != 0
    }
}

impl Drop for ControlSegment {
    fn drop(&mut self) {
        rossf_sfm::mm().note_segment_unmap(self.ptr as usize);
        // SAFETY: single live mapping created in create/open.
        unsafe { rossf_sys::munmap(self.ptr, self.total) };
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_roundtrip_and_backpressure() {
        let _mapped = crate::census::mapping();
        let c = ControlSegment::create(4, 7).unwrap();
        assert_eq!(c.epoch(), 7);
        assert_eq!(c.ring_cap(), 4);
        let d = |i: u64| Descriptor {
            seg: i as u32,
            gen: i,
            len: 100 + i as usize,
            trace_id: i,
            sent_ns: i,
        };
        for i in 0..4 {
            assert!(c.try_push(&d(i)));
        }
        assert!(!c.try_push(&d(99)), "ring full");
        assert_eq!(c.pending(), 4);
        for i in 0..4 {
            assert_eq!(c.try_pop().unwrap(), d(i));
        }
        assert!(c.try_pop().is_none());
        // Wrap-around works after recycling.
        for i in 4..10 {
            assert!(c.try_push(&d(i)));
            assert_eq!(c.try_pop().unwrap(), d(i));
        }
    }

    #[test]
    fn open_via_procfs_sees_same_ring() {
        let _mapped = crate::census::mapping();
        let a = ControlSegment::create(8, 42).unwrap();
        let file = rossf_sys::open_peer_fd(std::process::id(), a.fd()).unwrap();
        let b = ControlSegment::open(file).unwrap();
        assert_eq!(b.epoch(), 42);
        a.publish_dir(3, 17, 4096);
        assert_eq!(b.dir_entry(3), Some((17, 4096)));
        assert_eq!(b.dir_entry(2), None);
        let d = Descriptor {
            seg: 3,
            gen: 1,
            len: 5,
            ..Descriptor::default()
        };
        assert!(a.try_push(&d));
        assert_eq!(b.try_pop().unwrap(), d);
        a.close();
        assert!(b.is_closed());
    }

    #[test]
    fn open_rejects_garbage() {
        let _mapped = crate::census::mapping();
        let f = rossf_sys::memfd_create("rossf-bad-ctl").unwrap();
        f.set_len(4096).unwrap();
        assert!(ControlSegment::open(f).is_err(), "magic mismatch");
        let short = rossf_sys::memfd_create("rossf-short-ctl").unwrap();
        short.set_len(8).unwrap();
        assert!(ControlSegment::open(short).is_err(), "shorter than header");
    }

    #[test]
    fn hold_accounting_roundtrips_and_bounds_checks() {
        let _mapped = crate::census::mapping();
        let c = ControlSegment::create(4, 1).unwrap();
        // Inherit two references on slot 2; release one, abandon one.
        assert!(c.add_hold(2));
        assert!(c.add_hold(2));
        assert_eq!(c.reader_holds(2), 2);
        c.dec_hold(2);
        c.abandon_hold(2);
        assert_eq!(c.reader_holds(2), 0);
        assert_eq!(c.take_abandoned(2), 1);
        assert_eq!(c.take_abandoned(2), 0, "drained exactly once");
        // Dead-reader drain takes whatever is still held.
        assert!(c.add_hold(3));
        assert_eq!(c.take_holds(3), 1);
        assert_eq!(c.take_holds(3), 0);
        // Out-of-range indices are rejected without touching memory.
        let bogus = DIR_CAP as u32 + 1;
        assert!(!c.add_hold(bogus));
        assert_eq!(c.reader_holds(bogus), 0);
        assert_eq!(c.take_abandoned(bogus), 0);
        assert_eq!(c.take_holds(bogus), 0);
    }

    /// The doorbell protocol from both ends: a consumer that arms is told
    /// by `disarm`, once per arming, after a push and after the close —
    /// the only wake-up a drained consumer gets.
    #[test]
    fn a_doorbell_consumer_costs_no_futex_call() {
        let _mapped = crate::census::mapping();
        let c = ControlSegment::create(4, 1).unwrap();
        assert!(c.try_push(&Descriptor::default()));
        assert!(!c.disarm(), "nobody armed yet: no doorbell owed");
        for round in 0..100 {
            assert!(c.try_pop().is_some());
            assert!(c.try_pop().is_none());
            c.arm();
            assert_eq!(c.pending(), 0, "round {round}: the re-check finds it empty");
            assert!(c.try_push(&Descriptor::default()));
            assert!(c.disarm(), "round {round}: an armed ring owes its doorbell");
            assert!(!c.disarm(), "round {round}: and owes it once");
        }
        c.arm();
        c.close();
        assert!(
            c.disarm(),
            "the close owes an armed consumer its doorbell too"
        );
    }
}
