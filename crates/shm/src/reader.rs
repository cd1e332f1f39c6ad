//! Subscriber side: adopt the publisher's control segment, pop
//! descriptors, and map data segments for zero-copy frame access.

use crate::ring::{ControlSegment, Descriptor};
use crate::seg::{SEG_HEADER, SEG_MAGIC};
use crate::sync::{AtomicU64, Mutex, Ordering};
use rossf_sfm::SfmAlloc;
use std::collections::HashMap;
use std::fs::File;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Global registry of reader-side payload mappings, used by tests and the
/// check gate to prove zero-copy delivery: a subscriber-held SFM buffer
/// whose base lies inside one of these ranges was *not* copied out of the
/// shared segment.
static MAPPED: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());

/// Whether `addr` lies inside a live reader-side shared-segment mapping.
pub fn is_shm_mapped(addr: usize) -> bool {
    MAPPED.lock().iter().any(|&(s, e)| addr >= s && addr < e)
}

/// A data segment mapped into the subscriber: the payload is mapped
/// read-only (the subscriber can never corrupt a frame another reader or
/// the publisher sees), plus a small read-write view of the header page
/// for the cross-process refcount.
pub struct SegmentMap {
    _file: File,
    ro: *mut u8,
    total: usize,
    hdr: *mut u8,
    payload_cap: usize,
}

// SAFETY: shared memory with atomic header fields; payload reads are
// fenced by the ring's seq protocol.
unsafe impl Send for SegmentMap {}
unsafe impl Sync for SegmentMap {}

impl SegmentMap {
    /// Open and map segment `fd` of process `pub_pid` through procfs.
    ///
    /// # Errors
    ///
    /// `InvalidData` if the mapped header's magic or capacity disagree
    /// with the directory entry; otherwise any open/mapping error.
    pub fn open(pub_pid: u32, fd: i32, expected_cap: usize) -> io::Result<SegmentMap> {
        let file = rossf_sys::open_peer_fd(pub_pid, fd)?;
        let file_len = file.metadata()?.len() as usize;
        let total = rossf_sys::page_round(SEG_HEADER + expected_cap);
        if total > file_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "data segment shorter than its directory entry claims",
            ));
        }
        let ro = rossf_sys::mmap_shared(&file, total, false)?;
        let hdr = match rossf_sys::mmap_shared(&file, SEG_HEADER, true) {
            Ok(p) => p,
            Err(e) => {
                // SAFETY: ro is the mapping created just above.
                unsafe { rossf_sys::munmap(ro, total) };
                return Err(e);
            }
        };
        let map = SegmentMap {
            _file: file,
            ro,
            total,
            hdr,
            payload_cap: total - SEG_HEADER,
        };
        // SAFETY: `ro` is a page-aligned mapping of at least SEG_HEADER
        // bytes (checked above), so the u64 header words at offsets 0 and
        // 32 are in bounds and naturally aligned.
        let magic = unsafe { (map.ro as *const u64).read() };
        let cap = unsafe { (map.ro.add(32) as *const u64).read() } as usize;
        if magic != SEG_MAGIC || cap != map.payload_cap {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "data segment header mismatch",
            ));
        }
        rossf_sfm::mm().note_segment_map(map.ro as usize, map.total);
        MAPPED
            .lock()
            .push((map.ro as usize, map.ro as usize + map.total));
        Ok(map)
    }

    /// The cross-process reference count (through the writable header
    /// view).
    pub fn refs(&self) -> &AtomicU64 {
        // SAFETY: offset 8 within the header page; mapping lives as long
        // as self.
        unsafe { &*(self.hdr.add(8) as *const AtomicU64) }
    }

    /// Generation currently stamped in the segment header.
    pub fn generation(&self) -> u64 {
        // SAFETY: offset 16 within the header page.
        unsafe { (*(self.hdr.add(16) as *const AtomicU64)).load(Ordering::Acquire) }
    }

    /// Payload capacity in bytes.
    pub fn payload_cap(&self) -> usize {
        self.payload_cap
    }

    /// Base of the read-only payload area.
    pub fn payload_ptr(&self) -> *mut u8 {
        // The pointer is *mut only to satisfy SfmAlloc's signature; the
        // mapping is PROT_READ and nothing ever writes through it.
        // SAFETY: SEG_HEADER < total.
        unsafe { self.ro.add(SEG_HEADER) }
    }

    /// Drop one cross-process reference (frame released by this reader).
    pub fn release_ref(&self) {
        self.refs().fetch_sub(1, Ordering::AcqRel);
    }
}

impl Drop for SegmentMap {
    fn drop(&mut self) {
        rossf_sfm::mm().note_segment_unmap(self.ro as usize);
        MAPPED.lock().retain(|&(s, _)| s != self.ro as usize);
        // SAFETY: both mappings were created in open and die exactly once
        // here.
        unsafe {
            rossf_sys::munmap(self.ro, self.total);
            rossf_sys::munmap(self.hdr, SEG_HEADER);
        }
    }
}

/// Why [`ShmReader::take`] could not produce a frame.
#[derive(Debug)]
pub enum TakeError {
    /// The descriptor's generation no longer matches the segment header —
    /// a stale frame from a crashed or recycled publisher incarnation;
    /// the reader abandoned it.
    Stale,
    /// The descriptor or segment was structurally inconsistent.
    Corrupt(io::Error),
}

impl std::fmt::Display for TakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TakeError::Stale => write!(f, "stale frame (publisher generation moved on)"),
            TakeError::Corrupt(e) => write!(f, "corrupt shm frame: {e}"),
        }
    }
}

impl std::error::Error for TakeError {}

/// Subscriber-side handle to one publisher link: the adopted control
/// segment plus lazily-opened data-segment mappings (one per directory
/// index, cached for the reader's life).
pub struct ShmReader {
    ctrl: Arc<ControlSegment>,
    pub_pid: u32,
    maps: Mutex<HashMap<u32, Arc<SegmentMap>>>,
}

impl ShmReader {
    /// Adopt the publisher's control segment: open `ctrl_fd` of `pub_pid`
    /// through procfs, map it, and verify the epoch matches what the
    /// handshake promised (a mismatch means the fd was recycled by a new
    /// publisher incarnation — crash recovery falls back to TCP).
    ///
    /// # Errors
    ///
    /// Open/mapping errors, or `InvalidData` on epoch mismatch.
    pub fn connect(pub_pid: u32, ctrl_fd: i32, expected_epoch: u64) -> io::Result<ShmReader> {
        let file = rossf_sys::open_peer_fd(pub_pid, ctrl_fd)?;
        let ctrl = ControlSegment::open(file)?;
        if ctrl.epoch() != expected_epoch {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "control segment epoch mismatch (stale publisher incarnation)",
            ));
        }
        Ok(ShmReader {
            ctrl: Arc::new(ctrl),
            pub_pid,
            maps: Mutex::new(HashMap::new()),
        })
    }

    /// Whether the publisher marked the link closed.
    pub fn is_closed(&self) -> bool {
        self.ctrl.is_closed()
    }

    /// Approximate descriptors waiting in the ring.
    pub fn pending(&self) -> u64 {
        self.ctrl.pending()
    }

    fn map_for(&self, d: &Descriptor) -> Result<Arc<SegmentMap>, TakeError> {
        let mut maps = self.maps.lock();
        if let Some(m) = maps.get(&d.seg) {
            return Ok(Arc::clone(m));
        }
        let (fd, cap) = self.ctrl.dir_entry(d.seg).ok_or_else(|| {
            TakeError::Corrupt(io::Error::new(
                io::ErrorKind::InvalidData,
                "descriptor names an unpublished directory entry",
            ))
        })?;
        let m = Arc::new(SegmentMap::open(self.pub_pid, fd, cap).map_err(TakeError::Corrupt)?);
        maps.insert(d.seg, Arc::clone(&m));
        Ok(m)
    }

    /// Take the next frame committed before `timeout` runs out:
    /// [`ShmReader::try_take`] retried with [`std::thread::yield_now`].
    /// `Ok(None)` means the ring is closed and empty, or the deadline
    /// passed (check [`ShmReader::is_closed`] to tell them apart).
    ///
    /// A shim for a caller that owns a thread and knows a frame is queued
    /// (the benchmark's ring probe). It stays only until ROADMAP 6(ii)
    /// moves that probe to `try_take`; a reader that has to wait belongs on
    /// an event loop, draining with `try_take` and going idle with
    /// [`ShmReader::arm`].
    ///
    /// # Errors
    ///
    /// Those of [`ShmReader::try_take`].
    pub fn take(&self, timeout: Duration) -> Result<Option<MappedFrame>, TakeError> {
        let deadline = Instant::now() + timeout;
        loop {
            // Read before the pop, as in a handler: what was committed
            // before the close is visible to the pop that follows.
            let closed = self.ctrl.is_closed();
            if let Some(frame) = self.try_take()? {
                return Ok(Some(frame));
            }
            if closed || Instant::now() >= deadline {
                return Ok(None);
            }
            std::thread::yield_now();
        }
    }

    /// Take the next frame if one is ready — the form an event-loop
    /// handler drains the ring with. `Ok(None)` means the ring is empty:
    /// [`ShmReader::arm`] before going idle.
    ///
    /// # Errors
    ///
    /// [`TakeError::Stale`] when a popped descriptor's generation no
    /// longer matches its segment (abandoned); otherwise
    /// [`TakeError::Corrupt`].
    pub fn try_take(&self) -> Result<Option<MappedFrame>, TakeError> {
        self.ctrl.try_pop().map(|d| self.adopt(d)).transpose()
    }

    /// Having drained the ring, ask the producer to ring this link's
    /// doorbell on its next push, then look at the ring once more. `true`
    /// means the ring is still empty and open and the caller may go idle:
    /// the doorbell will ring. `false` means a push (or the close) raced
    /// the arming — it may have rung nothing, so drain again.
    pub fn arm(&self) -> bool {
        self.ctrl.arm();
        self.ctrl.pending() == 0 && !self.ctrl.is_closed()
    }

    /// Turn a popped descriptor into a frame, taking over its segment
    /// reference.
    fn adopt(&self, d: Descriptor) -> Result<MappedFrame, TakeError> {
        // The descriptor's reference is now ours. Account it in the
        // shared hold counter *before* anything can fail, so the
        // publisher can reclaim it if this process dies holding it.
        if !self.ctrl.add_hold(d.seg) {
            return Err(TakeError::Corrupt(io::Error::new(
                io::ErrorKind::InvalidData,
                "descriptor directory index out of range",
            )));
        }
        let map = match self.map_for(&d) {
            Ok(m) => m,
            Err(e) => {
                // The segment would not map, so its refcount is
                // unreachable from here; declare the reference abandoned
                // for the publisher to reconcile instead of leaking the
                // pool slot.
                self.ctrl.abandon_hold(d.seg);
                return Err(e);
            }
        };
        // Every early exit below must release the accounted reference.
        if map.generation() != d.gen {
            release_accounted(&self.ctrl, d.seg, &map);
            return Err(TakeError::Stale);
        }
        if d.len > map.payload_cap() {
            release_accounted(&self.ctrl, d.seg, &map);
            return Err(TakeError::Corrupt(io::Error::new(
                io::ErrorKind::InvalidData,
                "descriptor length exceeds segment capacity",
            )));
        }
        Ok(MappedFrame {
            ctrl: Arc::clone(&self.ctrl),
            map,
            desc: d,
            armed: true,
        })
    }
}

/// Release one accounted reference: hold un-counted first, then the
/// refcount decrement — a crash between the two leaks one bounded
/// reference instead of letting dead-reader reclamation subtract it a
/// second time.
fn release_accounted(ctrl: &ControlSegment, seg_idx: u32, map: &SegmentMap) {
    ctrl.dec_hold(seg_idx);
    map.release_ref();
}

/// One received frame, borrowed zero-copy from the shared segment. Holds
/// the descriptor's cross-process reference: dropping the frame (or the
/// SFM buffer it converts into) releases it, allowing the publisher to
/// recycle the segment.
pub struct MappedFrame {
    ctrl: Arc<ControlSegment>,
    map: Arc<SegmentMap>,
    desc: Descriptor,
    armed: bool,
}

impl MappedFrame {
    /// The payload bytes (read-only mapping).
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: seq protocol ordered the payload writes before the
        // descriptor became visible; len was bounds-checked in take().
        unsafe { std::slice::from_raw_parts(self.map.payload_ptr(), self.desc.len) }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.desc.len
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.desc.len == 0
    }

    /// The descriptor the frame arrived under (trace identity and
    /// publisher-clock timestamps).
    pub fn descriptor(&self) -> &Descriptor {
        &self.desc
    }

    /// Convert into an [`SfmAlloc`] wrapping the mapped payload **without
    /// copying**: the allocation's drop guard releases the cross-process
    /// reference, so the segment recycles exactly when the subscriber's
    /// last handle drops.
    pub fn into_sfm_alloc(mut self) -> SfmAlloc {
        self.armed = false;
        let guard = FrameGuard {
            ctrl: Arc::clone(&self.ctrl),
            seg_idx: self.desc.seg,
            map: Arc::clone(&self.map),
        };
        // Capacity is the 8-aligned frame length (within the segment:
        // capacities are 8-byte multiples).
        let cap = (self.desc.len.max(1) + 7) & !7;
        debug_assert!(cap <= self.map.payload_cap());
        // SAFETY: payload_ptr is page+64 aligned (so 8-aligned) and valid
        // for cap bytes while guard holds the mapping; the PROT_READ
        // mapping is never written.
        unsafe { SfmAlloc::from_extern(self.map.payload_ptr(), cap, guard) }
    }
}

impl Drop for MappedFrame {
    fn drop(&mut self) {
        if self.armed {
            release_accounted(&self.ctrl, self.desc.seg, &self.map);
        }
    }
}

/// Drop guard carried inside an adopted [`SfmAlloc`]: releases the
/// frame's cross-process reference (and, transitively, the mapping once
/// every frame from that segment is gone).
struct FrameGuard {
    ctrl: Arc<ControlSegment>,
    seg_idx: u32,
    map: Arc<SegmentMap>,
}

impl Drop for FrameGuard {
    fn drop(&mut self) {
        release_accounted(&self.ctrl, self.seg_idx, &self.map);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{PushOutcome, ShmLink};
    use crate::seg::SegmentPool;
    use crate::FrameMeta;

    fn loopback(ring: usize) -> (ShmLink, ShmReader, Arc<SegmentPool>) {
        let pool = Arc::new(SegmentPool::new());
        let link = ShmLink::create(Arc::clone(&pool), ring, 99).unwrap();
        let reader = ShmReader::connect(std::process::id(), link.ctrl_fd(), 99).unwrap();
        (link, reader, pool)
    }

    #[test]
    fn end_to_end_frame_roundtrip_zero_copy() {
        let _mapped = crate::census::mapping();
        let (mut link, reader, pool) = loopback(8);
        let payload: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
        let meta = FrameMeta {
            trace_id: 5,
            sent_ns: 3,
        };
        assert_eq!(link.push(&payload, meta), PushOutcome::Pushed);
        let frame = reader.take(Duration::from_secs(1)).unwrap().unwrap();
        assert_eq!(frame.as_slice(), &payload[..]);
        assert_eq!(frame.descriptor().trace_id, 5);
        assert_eq!(frame.descriptor().sent_ns, 3);
        assert!(is_shm_mapped(frame.as_slice().as_ptr() as usize));
        // Convert to an SfmAlloc: still the mapped bytes, no copy.
        let alloc = frame.into_sfm_alloc();
        assert!(alloc.is_extern());
        assert!(is_shm_mapped(alloc.base()));
        assert_eq!(alloc.slice(16), &payload[..16]);
        // The segment stays referenced until the alloc drops, and the
        // shared hold counter mirrors the outstanding reference.
        let seg = pool.get(0).unwrap();
        assert_eq!(seg.refs().load(Ordering::Relaxed), 1);
        assert_eq!(link.ctrl().reader_holds(0), 1);
        drop(alloc);
        assert_eq!(seg.refs().load(Ordering::Relaxed), 0);
        assert_eq!(link.ctrl().reader_holds(0), 0);
    }

    #[test]
    fn dropping_unconverted_frame_releases_reference() {
        let _mapped = crate::census::mapping();
        let (mut link, reader, pool) = loopback(8);
        link.push(b"abc", FrameMeta::default());
        let frame = reader.take(Duration::from_secs(1)).unwrap().unwrap();
        drop(frame);
        assert_eq!(pool.get(0).unwrap().refs().load(Ordering::Relaxed), 0);
    }

    #[test]
    fn stale_generation_is_abandoned() {
        let _mapped = crate::census::mapping();
        let (mut link, reader, pool) = loopback(8);
        link.push(b"old", FrameMeta::default());
        // Simulate a crashed publisher whose recovery re-acquired the
        // segment: force refs to 0 and re-acquire, bumping the generation
        // while the old descriptor still sits in the ring.
        let seg = pool.get(0).unwrap();
        seg.refs().store(0, Ordering::Release);
        assert!(seg.try_acquire());
        seg.write_payload(b"new");
        assert!(matches!(
            reader.take(Duration::from_secs(1)),
            Err(TakeError::Stale)
        ));
        seg.release_ref();
    }

    #[test]
    fn unmappable_segment_is_abandoned_and_reconciled() {
        let _mapped = crate::census::mapping();
        let (mut link, reader, pool) = loopback(8);
        assert_eq!(
            link.push(b"frame", FrameMeta::default()),
            PushOutcome::Pushed
        );
        let seg = pool.get(0).unwrap();
        assert_eq!(seg.refs().load(Ordering::Relaxed), 1);
        // Sabotage the directory before the reader's first mapping: point
        // slot 0 at an fd number that cannot be opened through procfs —
        // what a denied or exhausted open looks like from the reader.
        link.ctrl().publish_dir(0, 1_000_000, seg.payload_cap());
        assert!(matches!(
            reader.take(Duration::from_secs(1)),
            Err(TakeError::Corrupt(_))
        ));
        // The reader could not release the inherited reference itself but
        // declared it abandoned; the publisher reconciles the account and
        // the pool slot un-pins instead of leaking forever.
        assert_eq!(seg.refs().load(Ordering::Relaxed), 1);
        assert_eq!(link.ctrl().reader_holds(0), 0);
        link.reconcile_abandoned();
        assert_eq!(seg.refs().load(Ordering::Relaxed), 0);
    }

    #[test]
    fn connect_rejects_epoch_mismatch() {
        let _mapped = crate::census::mapping();
        let pool = Arc::new(SegmentPool::new());
        let link = ShmLink::create(pool, 4, 7).unwrap();
        let err = match ShmReader::connect(std::process::id(), link.ctrl_fd(), 8) {
            Err(e) => e,
            Ok(_) => panic!("epoch mismatch must be rejected"),
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn closed_link_reported_to_reader() {
        let _mapped = crate::census::mapping();
        let (link, reader, _pool) = loopback(4);
        assert!(!reader.is_closed());
        link.close();
        assert!(reader.is_closed());
        assert!(reader.take(Duration::from_millis(1)).unwrap().is_none());
    }

    /// `take` returns a frame committed while it waits, not only one that
    /// was queued before the call.
    #[test]
    fn take_returns_a_frame_committed_while_it_waits() {
        let _mapped = crate::census::mapping();
        let (mut link, reader, _pool) = loopback(4);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(
                link.push(b"late", FrameMeta::default()),
                PushOutcome::Pushed
            );
            link
        });
        let t0 = Instant::now();
        let frame = reader
            .take(Duration::from_secs(5))
            .unwrap()
            .expect("the frame committed during the wait");
        let waited = t0.elapsed();
        assert_eq!(frame.as_slice(), b"late");
        assert!(
            waited < Duration::from_secs(2),
            "returned after {waited:?}: the commit did not end the wait"
        );
        drop(frame);
        drop(producer.join().unwrap());
    }

    /// A link driven the way the transport's handler drives it — drain with
    /// `try_take`, `arm` when empty, the producer `disarm`s after each
    /// commit — owes the idle reader one doorbell per arming, and the
    /// re-check catches a push that raced the arming.
    #[test]
    fn handler_driven_link_makes_no_futex_call() {
        let _mapped = crate::census::mapping();
        let (mut link, reader, _pool) = loopback(4);
        assert!(reader.arm(), "empty and open: the reader may go idle");
        for i in 0..50u8 {
            assert_eq!(
                link.push(&[i; 9], FrameMeta::default()),
                PushOutcome::Pushed
            );
            assert!(
                link.disarm(),
                "frame {i}: the idle reader is owed a doorbell"
            );
            let frame = reader.try_take().unwrap().expect("the pushed frame");
            assert_eq!(frame.as_slice(), &[i; 9]);
            drop(frame);
            assert!(reader.try_take().unwrap().is_none());
            assert!(reader.arm());
        }
        // A push that lands before the arming is seen by the re-check.
        link.push(b"raced", FrameMeta::default());
        assert!(link.disarm(), "the last arming is still owed");
        assert!(
            !reader.arm(),
            "the re-check sees the frame: drain, do not idle"
        );
        link.close();
    }

    #[test]
    fn segment_mappings_unwind_cleanly() {
        let _alone = crate::census::counting();
        let before = rossf_sfm::mm().live_segments();
        {
            let (mut link, reader, _pool) = loopback(4);
            link.push(b"x", FrameMeta::default());
            let f = reader.take(Duration::from_secs(1)).unwrap().unwrap();
            assert!(rossf_sfm::mm().live_segments() > before);
            drop(f);
        }
        assert_eq!(
            rossf_sfm::mm().live_segments(),
            before,
            "all segments unmapped after teardown"
        );
    }
}
