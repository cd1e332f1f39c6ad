//! Publisher side of one shm subscriber link: the control segment plus
//! the commit of [`SharedFrame`] descriptors over the shared segment pool.

use crate::ring::{ControlSegment, Descriptor};
use crate::seg::{SegmentPool, DIR_CAP};
use crate::shared::SharedFrame;
use rossf_trace::FrameMeta;
use std::io;
use std::sync::Arc;

/// Outcome of [`ShmLink::commit_shared`] and [`ShmLink::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Descriptor published; the reader owns one reference.
    Pushed,
    /// The descriptor ring was full — frame dropped (backpressure).
    RingFull,
    /// No segment could be acquired (all pool slots still referenced by
    /// in-flight frames) — frame dropped (backpressure).
    NoSegment,
}

/// Publisher-side handle to one subscriber's shm link.
pub struct ShmLink {
    ctrl: ControlSegment,
    pool: Arc<SegmentPool>,
    dir_published: [bool; DIR_CAP],
}

impl ShmLink {
    /// Create the link: a fresh control segment with `ring_cap` slots
    /// stamped with `epoch`, backed by the publisher-wide `pool`.
    ///
    /// # Errors
    ///
    /// Any error from control-segment creation.
    pub fn create(pool: Arc<SegmentPool>, ring_cap: usize, epoch: u64) -> io::Result<ShmLink> {
        Ok(ShmLink {
            ctrl: ControlSegment::create(ring_cap, epoch)?,
            pool,
            dir_published: [false; DIR_CAP],
        })
    }

    /// Fd of the control segment in the publisher process — what the
    /// handshake reply advertises for the reader's `/proc` open.
    pub fn ctrl_fd(&self) -> i32 {
        self.ctrl.fd()
    }

    /// Epoch the control segment was created with.
    pub fn epoch(&self) -> u64 {
        self.ctrl.epoch()
    }

    /// Descriptors committed and not yet popped by the reader — the depth
    /// of the link's transmission queue, approximate under concurrency.
    pub fn pending(&self) -> u64 {
        self.ctrl.pending()
    }

    /// The segment pool backing this link. A [`SharedFrame`] from this pool
    /// ([`SegmentPool::prepare_shared`] or [`SegmentPool::loan`]) is
    /// committable on every link sharing it.
    pub fn pool(&self) -> &Arc<SegmentPool> {
        &self.pool
    }

    /// Whether either side marked the link closed.
    pub fn is_closed(&self) -> bool {
        self.ctrl.is_closed()
    }

    /// Publish a descriptor for a frame held in a [`SharedFrame`] — the
    /// one way a frame enters a ring, for copied and loaned publication
    /// alike.
    ///
    /// The segment's write hold is **not** touched: it belongs to the
    /// `SharedFrame` and is released when its last clone drops (after every
    /// link of the publish has committed). This call only manages the
    /// descriptor's reference — `+1` before the push, `-1` back if the ring
    /// was full — so with N links one publish settles at `refs == N`
    /// descriptors against a single segment.
    ///
    /// Returns [`PushOutcome::NoSegment`] if the frame's segment belongs
    /// to a different pool than this link: its directory indices would
    /// name the wrong segment.
    pub fn commit_shared(&mut self, frame: &SharedFrame, meta: FrameMeta) -> PushOutcome {
        if !frame.pool_matches(&self.pool) {
            debug_assert!(false, "shared frame committed against a foreign pool");
            return PushOutcome::NoSegment;
        }
        let seg = frame.segment();
        let idx = frame.idx();
        if !self.dir_published[idx as usize] {
            self.ctrl.publish_dir(idx, seg.fd(), seg.payload_cap());
            self.dir_published[idx as usize] = true;
        }
        let d = Descriptor {
            seg: idx,
            // Stable: the SharedFrame's write hold keeps refs >= 1, so the
            // pool cannot re-acquire (and re-stamp) this segment yet.
            gen: seg.generation(),
            len: frame.len(),
            trace_id: meta.trace_id,
            sent_ns: meta.sent_ns,
        };
        seg.add_ref(); // the descriptor's reference
        if self.ctrl.try_push(&d) {
            PushOutcome::Pushed
        } else {
            seg.release_ref();
            PushOutcome::RingFull
        }
    }

    /// Copy `payload` into a pooled segment and publish its descriptor:
    /// [`SegmentPool::prepare_shared`] then [`ShmLink::commit_shared`], for
    /// a frame only this link carries. A pushed frame leaves `refs == 1`
    /// (the descriptor's, inherited by the reader); a refused one leaves
    /// the segment free.
    pub fn push(&mut self, payload: &[u8], meta: FrameMeta) -> PushOutcome {
        match self.pool.prepare_shared(payload) {
            None => PushOutcome::NoSegment,
            Some(frame) => self.commit_shared(&frame, meta),
        }
    }

    /// After a commit (or [`ShmLink::close`]): `true` means the reader
    /// drained the ring, armed it and went idle, and this caller must ring
    /// the link's doorbell — a drained reader's only wake-up.
    pub fn disarm(&self) -> bool {
        self.ctrl.disarm()
    }

    /// Mark the link closed (graceful teardown).
    pub fn close(&self) {
        self.ctrl.close();
    }

    /// Drain descriptors the reader never consumed, releasing their
    /// segment references so the pool can recycle. Races safely with a
    /// still-live reader (each descriptor is popped exactly once).
    pub fn drain(&self) {
        while let Some(d) = self.ctrl.try_pop() {
            if let Some(seg) = self.pool.get(d.seg) {
                seg.release_ref();
            }
        }
    }

    /// Subtract references the reader inherited but declared unreleasable
    /// (its mapping of the data segment failed, so it cannot reach the
    /// refcount itself). Safe to call at any time, even with the reader
    /// live — it only drains counts the reader explicitly gave up.
    pub fn reconcile_abandoned(&self) {
        for idx in 0..DIR_CAP as u32 {
            let n = self.ctrl.take_abandoned(idx);
            if n > 0 {
                if let Some(seg) = self.pool.get(idx) {
                    seg.reclaim_refs(n);
                }
            }
        }
    }

    /// Subtract every reference the reader still holds on popped frames.
    /// Only correct once the reader *process* is known dead: a live
    /// reader releases (and un-counts) its holds itself, and reclaiming
    /// under it would recycle segments it is still reading.
    pub fn reclaim_reader_holds(&self) {
        for idx in 0..DIR_CAP as u32 {
            let n = self.ctrl.take_holds(idx);
            if n > 0 {
                if let Some(seg) = self.pool.get(idx) {
                    seg.reclaim_refs(n);
                }
            }
        }
    }

    /// The link's control segment — exposed only to protocol tests (unit
    /// tests and the model-checked build's scenarios).
    #[cfg(any(test, rossf_model))]
    #[doc(hidden)]
    pub fn ctrl(&self) -> &ControlSegment {
        &self.ctrl
    }
}

impl Drop for ShmLink {
    fn drop(&mut self) {
        self.close();
        self.drain();
        self.reconcile_abandoned();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn push_leaves_one_descriptor_reference() {
        let _mapped = crate::census::mapping();
        let pool = Arc::new(SegmentPool::new());
        let mut link = ShmLink::create(Arc::clone(&pool), 4, 1).unwrap();
        assert_eq!(
            link.push(b"hello", FrameMeta::default()),
            PushOutcome::Pushed
        );
        let seg = pool.get(0).unwrap();
        assert_eq!(seg.refs().load(Ordering::Relaxed), 1);
        // Drain (as publisher teardown would) returns it to the pool.
        link.drain();
        assert_eq!(seg.refs().load(Ordering::Relaxed), 0);
    }

    #[test]
    fn ring_full_drops_frame_and_references() {
        let _mapped = crate::census::mapping();
        let pool = Arc::new(SegmentPool::new());
        let mut link = ShmLink::create(Arc::clone(&pool), 2, 1).unwrap();
        assert_eq!(link.push(b"a", FrameMeta::default()), PushOutcome::Pushed);
        assert_eq!(link.push(b"b", FrameMeta::default()), PushOutcome::Pushed);
        // Ring of 2 is full; the frame is dropped and its segment freed.
        assert_eq!(link.push(b"c", FrameMeta::default()), PushOutcome::RingFull);
        let freed = pool.get(2).expect("third segment was created");
        assert_eq!(freed.refs().load(Ordering::Relaxed), 0);
    }

    #[test]
    fn dead_reader_holds_are_reclaimed() {
        let _mapped = crate::census::mapping();
        let pool = Arc::new(SegmentPool::new());
        let mut link = ShmLink::create(Arc::clone(&pool), 4, 1).unwrap();
        assert_eq!(link.push(b"a", FrameMeta::default()), PushOutcome::Pushed);
        assert_eq!(link.push(b"b", FrameMeta::default()), PushOutcome::Pushed);
        // Act out the reader-side pop protocol by hand, then "crash": the
        // inherited references are never released and the hold counts
        // never decremented.
        for _ in 0..2 {
            let d = link.ctrl().try_pop().unwrap();
            assert!(link.ctrl().add_hold(d.seg));
        }
        link.drain(); // ring empty — drain alone reclaims nothing
        assert_eq!(pool.get(0).unwrap().refs().load(Ordering::Relaxed), 1);
        assert_eq!(pool.get(1).unwrap().refs().load(Ordering::Relaxed), 1);
        link.reclaim_reader_holds();
        assert_eq!(pool.get(0).unwrap().refs().load(Ordering::Relaxed), 0);
        assert_eq!(pool.get(1).unwrap().refs().load(Ordering::Relaxed), 0);
    }

    #[test]
    fn reclaim_after_clean_release_is_a_no_op() {
        let _mapped = crate::census::mapping();
        let pool = Arc::new(SegmentPool::new());
        let mut link = ShmLink::create(Arc::clone(&pool), 4, 1).unwrap();
        assert_eq!(link.push(b"a", FrameMeta::default()), PushOutcome::Pushed);
        // The reader pops, then releases properly: hold un-counted before
        // the refcount decrement.
        let d = link.ctrl().try_pop().unwrap();
        assert!(link.ctrl().add_hold(d.seg));
        link.ctrl().dec_hold(d.seg);
        pool.get(d.seg).unwrap().release_ref();
        // Reclaiming afterwards must not underflow the freed segment.
        link.reclaim_reader_holds();
        link.reconcile_abandoned();
        assert_eq!(pool.get(0).unwrap().refs().load(Ordering::Relaxed), 0);
        assert_eq!(link.push(b"b", FrameMeta::default()), PushOutcome::Pushed);
        link.drain();
    }

    #[test]
    fn shared_frame_fans_one_segment_out_to_n_links() {
        let _mapped = crate::census::mapping();
        let pool = Arc::new(SegmentPool::new());
        let mut links: Vec<_> = (0..3)
            .map(|i| ShmLink::create(Arc::clone(&pool), 4, i + 1).unwrap())
            .collect();
        let frame = pool.prepare_shared(b"one copy, three descriptors").unwrap();
        for link in &mut links {
            assert_eq!(
                link.commit_shared(&frame, FrameMeta::default()),
                PushOutcome::Pushed
            );
        }
        assert_eq!(pool.len(), 1, "exactly one pooled copy");
        let seg = pool.get(0).unwrap();
        assert_eq!(
            seg.refs().load(Ordering::Relaxed),
            4,
            "write hold + one descriptor per link"
        );
        drop(frame);
        assert_eq!(
            seg.refs().load(Ordering::Relaxed),
            3,
            "after the hold drops, refs == N links"
        );
        // Each reader would inherit and release its own descriptor ref;
        // publisher teardown drains the never-consumed ones here.
        for link in &links {
            link.drain();
        }
        assert_eq!(seg.refs().load(Ordering::Relaxed), 0);
    }

    #[test]
    fn commit_shared_ring_full_keeps_the_write_hold() {
        let _mapped = crate::census::mapping();
        let pool = Arc::new(SegmentPool::new());
        let mut link = ShmLink::create(Arc::clone(&pool), 2, 1).unwrap();
        let a = pool.prepare_shared(b"a").unwrap();
        let b = pool.prepare_shared(b"b").unwrap();
        let c = pool.prepare_shared(b"c").unwrap();
        assert_eq!(
            link.commit_shared(&a, FrameMeta::default()),
            PushOutcome::Pushed
        );
        assert_eq!(
            link.commit_shared(&b, FrameMeta::default()),
            PushOutcome::Pushed
        );
        assert_eq!(
            link.commit_shared(&c, FrameMeta::default()),
            PushOutcome::RingFull
        );
        let seg = Arc::clone(c.segment());
        assert_eq!(
            seg.refs().load(Ordering::Relaxed),
            1,
            "descriptor ref rolled back, hold intact"
        );
        drop(c);
        assert_eq!(seg.refs().load(Ordering::Relaxed), 0);
        link.drain();
    }

    #[test]
    fn loaned_frame_round_trips_through_the_ring() {
        let _mapped = crate::census::mapping();
        let pool = Arc::new(SegmentPool::new());
        let mut link = ShmLink::create(Arc::clone(&pool), 4, 1).unwrap();
        let frame = pool.loan(32).unwrap();
        unsafe { std::ptr::copy_nonoverlapping(b"loaned".as_ptr(), frame.payload_ptr(), 6) };
        frame.set_len(6);
        assert_eq!(
            link.commit_shared(&frame, FrameMeta::default()),
            PushOutcome::Pushed
        );
        let d = link.ctrl().try_pop().unwrap();
        assert_eq!(d.len, 6);
        assert_eq!(d.gen, frame.segment().generation());
        let got = unsafe { std::slice::from_raw_parts(frame.payload_ptr(), d.len) };
        assert_eq!(got, b"loaned");
        pool.get(d.seg).unwrap().release_ref(); // the popped descriptor's ref
        drop(frame);
        assert_eq!(pool.get(0).unwrap().refs().load(Ordering::Relaxed), 0);
    }

    #[test]
    fn drop_drains_outstanding_descriptors() {
        let _mapped = crate::census::mapping();
        let pool = Arc::new(SegmentPool::new());
        let mut link = ShmLink::create(Arc::clone(&pool), 4, 1).unwrap();
        link.push(b"x", FrameMeta::default());
        link.push(b"y", FrameMeta::default());
        drop(link);
        for i in 0..pool.len() as u32 {
            assert_eq!(pool.get(i).unwrap().refs().load(Ordering::Relaxed), 0);
        }
    }
}
