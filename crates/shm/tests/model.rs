//! Model-checked interleaving scenarios for the shm tier's lock-free
//! protocols. Built only under `RUSTFLAGS="--cfg rossf_model"`, which
//! routes every atomic / futex / pool-lock in this crate through the
//! shadow primitives of `rossf-model`; each `#[test]` then exhaustively
//! explores the 2–3 thread schedules of one protocol family within a
//! bounded number of preemptions, failing (with a deterministic replayable
//! schedule + trace) on lost descriptors, double release, refcount
//! underflow, stale/torn generation reads, or lost wakeups (reported as
//! deadlocks, since model futex timeouts are infinite).
//!
//! Scenarios are kept intentionally tiny — the state space is exponential
//! in operations — and assert *protocol accounting* rather than timing:
//! descriptor conservation, refcount settlement at zero, byte stability
//! of held frames, generation stability under the write hold.
#![cfg(rossf_model)]

use rossf_model::sync::{futex_wait, futex_wake, AtomicU32};
use rossf_model::{spawn, Model, Outcome};
use rossf_shm::{
    ControlSegment, Descriptor, FrameMeta, PushOutcome, SegmentPool, ShmLink, ShmReader,
};
use std::sync::atomic::{AtomicU64 as StdAtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn model() -> Model {
    Model::new().preemptions(2)
}

/// Ring push/pop, SPSC shape with the `waiters`-gated futex wakeup in
/// play: the producer pushes two descriptors and closes, waking the word
/// only when it reads a registered sleeper; the consumer pops through the
/// `try_pop`/`wait` protocol exactly as the blocking `ShmReader::take`
/// does. A push that misses the sleeper's registration while the sleeper
/// misses the push would park the consumer forever → reported as a
/// deadlock; a lost or duplicated descriptor breaks the conservation
/// assert.
#[test]
fn ring_spsc_with_futex_wakeups() {
    let out = model().explore(|| {
        let ctrl = Arc::new(ControlSegment::create(4, 7).unwrap());
        let c2 = Arc::clone(&ctrl);
        let producer = spawn(move || {
            for g in 1..=2u64 {
                let ok = c2.try_push(&Descriptor {
                    seg: 0,
                    gen: g,
                    len: g as usize,
                    ..Descriptor::default()
                });
                assert!(ok, "cap-4 ring cannot fill with 2 pushes");
            }
            c2.close();
        });
        let mut got = Vec::new();
        loop {
            if let Some(d) = ctrl.try_pop() {
                got.push(d.gen);
                continue;
            }
            if ctrl.is_closed() && ctrl.pending() == 0 {
                break;
            }
            ctrl.wait(Duration::from_millis(50));
        }
        producer.join();
        assert_eq!(
            got,
            vec![1, 2],
            "descriptors lost, duplicated, or reordered"
        );
    });
    if let Some(f) = out.failure {
        panic!("{f}");
    }
    assert!(!out.capped, "exploration capped before exhaustion");
    assert!(
        out.executions > 10,
        "only {} schedules explored — the scheduler is not branching",
        out.executions
    );
}

/// A link's doorbell as the kernel delivers it — a byte in the control
/// socket, or a pending reactor notify: a ring while nobody waits is
/// remembered, and the wait has no timeout, so a doorbell that was owed
/// and never rung ends the schedule in a deadlock.
struct Doorbell(AtomicU32);

impl Doorbell {
    fn ring(&self) {
        self.0.store(1, Ordering::SeqCst);
        futex_wake(&self.0);
    }

    fn wait(&self) {
        while self.0.swap(0, Ordering::SeqCst) == 0 {
            futex_wait(&self.0, 0, 0);
        }
    }
}

/// The arm/ring handshake of a handler-driven link. The producer pushes
/// two descriptors and closes, ringing the doorbell after each step only
/// if `disarm` says the consumer armed; the main thread is the handler:
/// drain, arm, look again, go idle on the doorbell. `recheck` is that
/// second look — the body of `ShmReader::arm` after the swap.
fn doorbell_handshake(recheck: bool) -> Outcome {
    model().explore(move || {
        let ctrl = Arc::new(ControlSegment::create(4, 7).unwrap());
        let bell = Arc::new(Doorbell(AtomicU32::new(0)));
        let (c2, b2) = (Arc::clone(&ctrl), Arc::clone(&bell));
        let producer = spawn(move || {
            for g in 1..=2u64 {
                assert!(c2.try_push(&Descriptor {
                    gen: g,
                    ..Descriptor::default()
                }));
                if c2.disarm() {
                    b2.ring();
                }
            }
            c2.close();
            if c2.disarm() {
                b2.ring();
            }
        });
        let mut got = Vec::new();
        loop {
            // Read before the pops: what was pushed before the close is
            // visible to a pop that follows seeing the close.
            let closing = ctrl.is_closed();
            while let Some(d) = ctrl.try_pop() {
                got.push(d.gen);
            }
            if closing {
                break;
            }
            ctrl.arm();
            if recheck && (ctrl.pending() > 0 || ctrl.is_closed()) {
                continue;
            }
            bell.wait();
        }
        producer.join();
        assert_eq!(
            got,
            vec![1, 2],
            "descriptors lost, duplicated, or reordered"
        );
    })
}

/// No schedule leaves the handler idle with a descriptor (or the close)
/// in the ring and no doorbell on its way.
#[test]
fn armed_ring_never_loses_its_doorbell() {
    let out = doorbell_handshake(true);
    if let Some(f) = out.failure {
        panic!("{f}");
    }
    assert!(!out.capped, "exploration capped before exhaustion");
    assert!(
        out.executions > 10,
        "only {} schedules explored — the scheduler is not branching",
        out.executions
    );
    println!("doorbell handshake: {} schedules", out.executions);
}

/// The seeded bug: a handler that arms and goes idle without looking at
/// the ring again. A push whose `disarm` ran just before the arming rang
/// nothing, and nothing will.
#[test]
fn dropping_the_recheck_is_caught() {
    let out = doorbell_handshake(false);
    let f = out
        .failure
        .expect("a handler that idles without re-checking must lose a doorbell");
    assert!(
        f.message.contains("deadlock"),
        "expected the lost doorbell to surface as a deadlock, got: {}",
        f.message
    );
    println!("seeded bug caught after {} schedules", out.executions);
}

/// Ring pop under multi-consumer contention (the subscriber racing the
/// publisher's teardown drain): two consumers race `try_pop` over two
/// pre-pushed descriptors. The head CAS must hand each descriptor to
/// exactly one consumer — double delivery or loss breaks the sum.
#[test]
fn ring_spmc_pop_race_conserves_descriptors() {
    model().check(|| {
        let ctrl = Arc::new(ControlSegment::create(4, 7).unwrap());
        for g in 1..=2u64 {
            assert!(ctrl.try_push(&Descriptor {
                seg: 0,
                gen: g,
                ..Descriptor::default()
            }));
        }
        let sum = Arc::new(StdAtomicU64::new(0));
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&ctrl);
                let s = Arc::clone(&sum);
                spawn(move || {
                    while let Some(d) = c.try_pop() {
                        s.fetch_add(d.gen, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for t in consumers {
            t.join();
        }
        assert_eq!(ctrl.pending(), 0, "descriptors stranded in the ring");
        assert_eq!(
            sum.load(Ordering::Relaxed),
            3,
            "a descriptor was lost or delivered twice"
        );
    });
}

/// Two-phase publish fan-out: one `prepare_shared` frame, two links on
/// two threads each committing a descriptor-only reference, popping it
/// back (reader inheritance) and releasing. After both sides finish and
/// the write hold drops, the refcount must settle at exactly zero — a
/// double release or an `add_ref`/`try_push` accounting slip shows up as
/// a nonzero remainder or an underflow wrap.
#[test]
fn commit_shared_fanout_settles_refcounts() {
    model().check(|| {
        let pool = Arc::new(SegmentPool::new());
        let mut l1 = ShmLink::create(Arc::clone(&pool), 4, 1).unwrap();
        let mut l2 = ShmLink::create(Arc::clone(&pool), 4, 2).unwrap();
        let frame = pool.prepare_shared(b"one copy").unwrap();
        let f2 = frame.clone();
        let p2 = Arc::clone(&pool);
        let t = spawn(move || {
            assert_eq!(
                l2.commit_shared(&f2, FrameMeta::default()),
                PushOutcome::Pushed
            );
            drop(f2); // this clone's share of the write hold
            let d = l2.ctrl().try_pop().expect("own ring holds one descriptor");
            assert_eq!(d.len, 8);
            // Reader-side release of the inherited descriptor reference.
            p2.get(d.seg).unwrap().release_ref();
        });
        assert_eq!(
            l1.commit_shared(&frame, FrameMeta::default()),
            PushOutcome::Pushed
        );
        let seg = Arc::clone(frame.segment());
        // While any clone lives the write hold pins the segment: its
        // generation cannot move.
        assert_eq!(seg.generation(), 1, "generation moved under the write hold");
        drop(frame);
        let d = l1.ctrl().try_pop().expect("own ring holds one descriptor");
        pool.get(d.seg).unwrap().release_ref();
        t.join();
        let refs = seg.refs().load(Ordering::Relaxed);
        assert_eq!(refs, 0, "refcount did not settle (left {refs})");
        assert_eq!(pool.len(), 1, "fan-out must not clone the segment");
    });
}

/// Hold/abandon/reclaim: a reader that cannot map the data segment
/// abandons its inherited reference while the publisher concurrently
/// reconciles. Whatever the interleaving, the abandoned reference must be
/// subtracted exactly once (no leak pinning the slot, no double subtract
/// underflowing to u64::MAX).
#[test]
fn abandon_reclaim_race_settles_exactly_once() {
    model().check(|| {
        let pool = Arc::new(SegmentPool::new());
        let mut link = ShmLink::create(Arc::clone(&pool), 4, 9).unwrap();
        assert_eq!(
            link.push(b"frame", FrameMeta::default()),
            PushOutcome::Pushed
        );
        // Sabotage the directory before the reader maps: the mapping will
        // fail, forcing the abandon path (what a denied procfs open looks
        // like from the reader).
        let seg = pool.get(0).unwrap();
        link.ctrl().publish_dir(0, 1_000_000, seg.payload_cap());
        let reader = Arc::new(ShmReader::connect(std::process::id(), link.ctrl_fd(), 9).unwrap());
        let link = Arc::new(link);
        let l2 = Arc::clone(&link);
        let r2 = Arc::clone(&reader);
        let t = spawn(move || {
            match r2.take(Duration::from_millis(50)) {
                Err(_) => {}
                Ok(f) => panic!(
                    "sabotaged mapping unexpectedly yielded {:?}",
                    f.map(|x| x.len())
                ),
            }
            // Publisher racing the reader's abandon from a second thread.
            l2.reconcile_abandoned();
        });
        link.reconcile_abandoned();
        t.join();
        link.reconcile_abandoned(); // settle anything still pending
        let refs = seg.refs().load(Ordering::Relaxed);
        assert_eq!(
            refs, 0,
            "abandoned reference not settled exactly once (refs {refs})"
        );
        assert_eq!(link.ctrl().reader_holds(0), 0, "hold count leaked");
    });
}

/// Dead-reader reclamation: the reader pops and "crashes" while holding
/// the frame (simulated by leaking it). After the reader is gone the
/// publisher reclaims its recorded holds; the segment must return to
/// exactly zero — and a reclaim racing a *clean* release in the same run
/// must not subtract twice.
#[test]
fn dead_reader_holds_reclaimed_without_underflow() {
    model().check(|| {
        let pool = Arc::new(SegmentPool::new());
        let mut link = ShmLink::create(Arc::clone(&pool), 4, 3).unwrap();
        assert_eq!(link.push(b"a", FrameMeta::default()), PushOutcome::Pushed);
        assert_eq!(link.push(b"b", FrameMeta::default()), PushOutcome::Pushed);
        let reader = ShmReader::connect(std::process::id(), link.ctrl_fd(), 3).unwrap();
        let t = spawn(move || {
            // First frame: clean take + release (drop runs the
            // dec-hold-then-release-ref protocol).
            let f = reader
                .take(Duration::from_millis(50))
                .unwrap()
                .expect("frame a queued");
            assert_eq!(f.len(), 1);
            drop(f);
            // Second frame: take then crash while holding it.
            let f = reader
                .take(Duration::from_millis(50))
                .unwrap()
                .expect("frame b queued");
            std::mem::forget(f); // reader "dies" here; its maps leak with it
        });
        t.join(); // process-death analog: all reader activity has ceased
        link.drain();
        link.reclaim_reader_holds();
        link.reconcile_abandoned();
        for idx in 0..pool.len() as u32 {
            let refs = pool.get(idx).unwrap().refs().load(Ordering::Relaxed);
            assert_eq!(refs, 0, "segment {idx} did not settle (refs {refs})");
        }
    });
}

/// Generation / write-hold stability: while a reader holds a zero-copy
/// frame, the pool must never re-acquire (and re-stamp) its segment — a
/// racing acquirer has to be routed to a fresh slot, and the held bytes
/// must stay intact for the whole hold. Catches any weakening of the
/// `refs` CAS protocol that PR 6's relaxed counters lean on.
#[test]
fn held_frame_pins_generation_and_bytes() {
    model().check(|| {
        let pool = Arc::new(SegmentPool::new());
        let mut link = ShmLink::create(Arc::clone(&pool), 4, 5).unwrap();
        // Epoch renegotiation: a stale-incarnation connect must be
        // rejected before any ring traffic happens.
        assert!(
            ShmReader::connect(std::process::id(), link.ctrl_fd(), 6).is_err(),
            "epoch mismatch accepted"
        );
        assert_eq!(
            link.push(&[0xAA; 16], FrameMeta::default()),
            PushOutcome::Pushed
        );
        let reader = ShmReader::connect(std::process::id(), link.ctrl_fd(), 5).unwrap();
        let gen0 = pool.get(0).unwrap().generation();
        let t = spawn(move || {
            let f = reader
                .take(Duration::from_millis(50))
                .unwrap()
                .expect("one frame queued");
            // The hold spans several scheduler yields; any concurrent
            // recycle of the segment would overwrite these bytes.
            assert!(
                f.as_slice().iter().all(|&b| b == 0xAA),
                "held frame's bytes changed mid-hold (torn read)"
            );
            assert_eq!(f.descriptor().gen, gen0, "descriptor generation drifted");
            drop(f);
        });
        // Racing acquirer: while the reader holds slot 0, acquisition must
        // divert to a new slot; once the reader released, reuse is legal.
        if let Some((idx, seg)) = pool.acquire(16) {
            seg.write_payload(&[0xBB; 16]);
            if idx == 0 {
                // Reuse of slot 0 is only legal after the reader released:
                // the CAS saw refs == 0. The byte assert in the reader
                // thread would have caught a premature grab.
                assert!(seg.generation() > gen0);
            }
            seg.release_ref();
        }
        t.join();
        link.drain();
        link.reclaim_reader_holds();
        for idx in 0..pool.len() as u32 {
            assert_eq!(pool.get(idx).unwrap().refs().load(Ordering::Relaxed), 0);
        }
    });
}
