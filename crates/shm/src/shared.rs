//! A pooled segment holding one frame, shared by every shm link of one
//! publisher.
//!
//! The original push protocol was strictly per-link: each link's thread
//! called [`ShmLink::prepare`](crate::ShmLink::prepare), so a publish
//! fanning out to N shm subscribers copied the same frame into N distinct
//! segments. [`SharedFrame`] fixes that accounting: the frame occupies
//! **one** segment whose write hold is owned here (released when the last
//! clone drops), and each link contributes only a descriptor reference via
//! [`ShmLink::commit_shared`](crate::ShmLink::commit_shared). After the
//! fan-out completes and every clone has dropped, `refs` equals exactly the
//! number of in-flight descriptors — the reader-side protocol is unchanged.
//!
//! Two acquisition modes exist:
//!
//! * [`SegmentPool::prepare_shared`] — copy a finished frame in once
//!   (the single-copy fan-out for legacy `publish()`).
//! * [`SegmentPool::loan`] — take the write hold with **no copy at all**;
//!   the caller builds the message in place through
//!   [`SharedFrame::payload_ptr`] and stamps [`SharedFrame::set_len`] when
//!   done (loaned publication).

use crate::seg::{Segment, SegmentPool};
use crate::sync::{AtomicUsize, Ordering};
use std::sync::Arc;

struct SharedInner {
    pool: Arc<SegmentPool>,
    idx: u32,
    seg: Arc<Segment>,
    /// Payload length; 0 until the frame is written (copy) or stamped
    /// (loan). Atomic because a loan is stamped after clones were taken.
    len: AtomicUsize,
}

impl Drop for SharedInner {
    fn drop(&mut self) {
        // The write hold taken at acquisition. Descriptor references added
        // by commit_shared are owned by the ring/readers, not by us.
        self.seg.release_ref();
    }
}

/// One frame in one pooled segment, shareable across links and threads.
///
/// Cloning is cheap (an `Arc` bump); the segment's write hold is released
/// when the last clone drops. While any clone is alive `refs >= 1`, so the
/// pool cannot recycle the segment and its generation stamp is stable —
/// which is what makes a deferred
/// [`commit_shared`](crate::ShmLink::commit_shared) (a later link of the
/// fan-out, a frame parked behind an injected delay) safe.
#[derive(Clone)]
pub struct SharedFrame {
    inner: Arc<SharedInner>,
}

impl SharedFrame {
    /// Directory index of the segment holding the frame.
    #[inline]
    pub fn idx(&self) -> u32 {
        self.inner.idx
    }

    /// Current payload length (0 for a loan not yet stamped).
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.len.load(Ordering::Acquire)
    }

    /// Whether no payload bytes have been claimed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The segment holding the frame.
    #[inline]
    pub fn segment(&self) -> &Arc<Segment> {
        &self.inner.seg
    }

    /// Base address of the segment's payload area. Valid for
    /// [`SharedFrame::capacity`] bytes; writes are exclusive to the holder
    /// of this frame (the write hold) and must happen before any
    /// descriptor is committed.
    #[inline]
    pub fn payload_ptr(&self) -> *mut u8 {
        self.inner.seg.payload_ptr()
    }

    /// Payload capacity of the backing segment.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.inner.seg.payload_cap()
    }

    /// Stamp the payload length after an in-place build (also stamps the
    /// segment header, mirroring what a copying write does).
    ///
    /// # Panics
    ///
    /// If `len` exceeds the segment's payload capacity.
    pub fn set_len(&self, len: usize) {
        self.inner.seg.stamp_len(len);
        self.inner.len.store(len, Ordering::Release);
    }

    /// Whether this frame's segment came from `pool` — links refuse to
    /// commit a frame from a foreign pool (their directory indices would
    /// name a different segment).
    #[inline]
    pub fn pool_matches(&self, pool: &Arc<SegmentPool>) -> bool {
        Arc::ptr_eq(&self.inner.pool, pool)
    }
}

impl std::fmt::Debug for SharedFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedFrame")
            .field("idx", &self.idx())
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl SegmentPool {
    /// Copy `payload` into a pooled segment **once** and return the frame
    /// for descriptor-only fan-out across any number of links
    /// ([`ShmLink::commit_shared`](crate::ShmLink::commit_shared)).
    ///
    /// `None` means backpressure: every directory slot is still referenced
    /// (see [`SegmentPool::acquire`]).
    pub fn prepare_shared(self: &Arc<Self>, payload: &[u8]) -> Option<SharedFrame> {
        let (idx, seg) = self.acquire(payload.len())?;
        seg.write_payload(payload);
        Some(SharedFrame {
            inner: Arc::new(SharedInner {
                pool: Arc::clone(self),
                idx,
                seg,
                len: AtomicUsize::new(payload.len()),
            }),
        })
    }

    /// Take the write hold on a segment able to hold `capacity` payload
    /// bytes without writing anything — the caller builds the message in
    /// place through [`SharedFrame::payload_ptr`] and stamps
    /// [`SharedFrame::set_len`] before committing descriptors.
    ///
    /// `None` means backpressure: every directory slot is still referenced
    /// by in-flight frames, so no segment is loanable right now.
    pub fn loan(self: &Arc<Self>, capacity: usize) -> Option<SharedFrame> {
        let (idx, seg) = self.acquire(capacity)?;
        Some(SharedFrame {
            inner: Arc::new(SharedInner {
                pool: Arc::clone(self),
                idx,
                seg,
                len: AtomicUsize::new(0),
            }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_shared_copies_once_and_releases_hold_on_drop() {
        let _mapped = crate::census::mapping();
        let pool = Arc::new(SegmentPool::new());
        let frame = pool.prepare_shared(b"shared bytes").unwrap();
        assert_eq!(frame.len(), 12);
        assert_eq!(pool.len(), 1, "one segment for the frame");
        let seg = Arc::clone(frame.segment());
        assert_eq!(seg.refs().load(Ordering::Relaxed), 1, "write hold");
        let clone = frame.clone();
        drop(frame);
        assert_eq!(
            seg.refs().load(Ordering::Relaxed),
            1,
            "hold survives while any clone lives"
        );
        drop(clone);
        assert_eq!(seg.refs().load(Ordering::Relaxed), 0, "hold released");
    }

    #[test]
    fn loan_builds_in_place_without_copying() {
        let _mapped = crate::census::mapping();
        let pool = Arc::new(SegmentPool::new());
        let frame = pool.loan(64).unwrap();
        assert!(frame.is_empty(), "nothing written yet");
        assert!(frame.capacity() >= 64);
        // Build the payload directly in the segment.
        unsafe {
            std::ptr::copy_nonoverlapping(b"built in place".as_ptr(), frame.payload_ptr(), 14)
        };
        frame.set_len(14);
        assert_eq!(frame.len(), 14);
        let got = unsafe { std::slice::from_raw_parts(frame.payload_ptr(), 14) };
        assert_eq!(got, b"built in place");
    }

    #[test]
    fn loan_backpressure_when_all_slots_held() {
        let _mapped = crate::census::mapping();
        let pool = Arc::new(SegmentPool::new());
        let held: Vec<_> = (0..crate::seg::DIR_CAP)
            .map(|_| pool.loan(8).unwrap())
            .collect();
        assert!(pool.loan(8).is_none(), "every slot's write hold is taken");
        drop(held);
        assert!(pool.loan(8).is_some(), "holds returned on drop");
    }

    #[test]
    fn pool_identity_is_tracked() {
        let _mapped = crate::census::mapping();
        let a = Arc::new(SegmentPool::new());
        let b = Arc::new(SegmentPool::new());
        let frame = a.prepare_shared(b"x").unwrap();
        assert!(frame.pool_matches(&a));
        assert!(!frame.pool_matches(&b));
    }
}
