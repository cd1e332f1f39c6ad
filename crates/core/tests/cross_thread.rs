//! A message's life cycle spread over four threads, with more threads than
//! the manager's record table has partitions: built on A, its string and
//! vector fields assigned on B (an interior-address `expand` from a thread
//! the record does not live with), published on C, and its box — or the
//! last clone of its shared handle — dropped on D. Seeded, handed from
//! thread to thread over channels, with the lifecycle sanitizer on and the
//! default alert policy, so any anomaly panics the thread that caused it.
//!
//! The rest of the binary follows one block across the same hand-off: built
//! on one thread, freed on another, back home to its builder through its
//! partition's return list, and within the allocator's retention bounds
//! after a burst.
//!
//! Alone in their binary, one test at a time: they assert on the
//! process-global manager and on what the process-wide return lists hold.

use rossf_sfm::{
    drain_alloc_pool, mm, DrainedPool, MessageState, PublishedBuffer, SfmAlloc, SfmBox, SfmError,
    SfmMessage, SfmPod, SfmRecvBuffer, SfmShared, SfmString, SfmValidate, SfmVec,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex, MutexGuard};

/// One test at a time (see the module docs).
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run `f` on a fresh thread and wait for it to exit: by the time this
/// returns, whatever the thread's own lists kept has gone home.
fn on_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| s.spawn(f).join().expect("worker panicked"))
}

#[repr(C)]
struct Scan {
    frame_id: SfmString,
    seq: u32,
    ranges: SfmVec<u32>,
    intensities: SfmVec<u8>,
}
unsafe impl SfmPod for Scan {}
impl SfmValidate for Scan {
    fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
        self.frame_id.validate_in(base, len)?;
        self.ranges.validate_in(base, len)?;
        self.intensities.validate_in(base, len)
    }
}
unsafe impl SfmMessage for Scan {
    fn type_name() -> &'static str {
        "test/Scan"
    }
    fn max_size() -> usize {
        4096
    }
}

/// Deterministic xorshift64* generator (the scheme `manager.rs`'s sweep and
/// `crates/msg/tests/verify_corruption.rs` use).
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize
    }
}

/// Independent A → B → C → D pipelines; 4 threads each, 12 in all.
const LANES: u64 = 3;
const PER_LANE: u32 = 300;

/// What B wrote, for D to check against the bytes that were published.
struct Filled {
    frame_id: String,
    ranges: usize,
    intensities: usize,
}

/// How the message leaves: as the box, or as the last clone of its shared
/// handle (the other clone dropped on C).
enum Exit {
    Boxed(SfmBox<Scan>),
    Shared(SfmShared<Scan>),
}

fn build(seq: u32) -> SfmBox<Scan> {
    let mut msg = SfmBox::<Scan>::new();
    msg.seq = seq;
    msg
}

fn fill(rng: &mut Rng, msg: &mut SfmBox<Scan>) -> Filled {
    let filled = Filled {
        frame_id: "lidar_".repeat(1 + rng.below(4)),
        ranges: rng.below(300),
        intensities: rng.below(700),
    };
    // Each assignment is an `expand` keyed by the field's own address.
    msg.frame_id.assign(&filled.frame_id);
    msg.ranges.resize(filled.ranges);
    for i in 0..filled.ranges {
        msg.ranges[i] = msg.seq ^ i as u32;
    }
    msg.intensities.resize(filled.intensities);
    if let Some(last) = filled.intensities.checked_sub(1) {
        msg.intensities[last] = 0xA5;
    }
    filled
}

fn publish(rng: &mut Rng, msg: SfmBox<Scan>) -> (Exit, PublishedBuffer) {
    let frame = msg.publish_handle();
    assert_eq!(frame.len(), msg.whole_len());
    // A field's address finds the whole message from this thread too.
    let by_field = mm().info(&msg.ranges as *const _ as usize);
    let info = by_field.expect("live message has a record");
    assert_eq!((info.start, info.used), (msg.base(), frame.len()));
    assert_eq!(info.state, MessageState::Published);
    let exit = if rng.below(2) == 0 {
        Exit::Boxed(msg)
    } else {
        let shared = msg.into_shared();
        let last = shared.clone();
        drop(shared);
        Exit::Shared(last)
    };
    (exit, frame)
}

fn finish(rx: Receiver<(Exit, PublishedBuffer, Filled)>) {
    for (exit, frame, filled) in rx {
        let base = match &exit {
            Exit::Boxed(msg) => msg.base(),
            Exit::Shared(msg) => msg.base(),
        };
        drop(exit);
        assert!(mm().info(base).is_none(), "record released from here");
        // The published bytes outlive the record; adopt them the way a
        // subscriber would and read back what B wrote.
        let mut rb = SfmRecvBuffer::<Scan>::new(frame.len()).expect("frame fits its type");
        rb.as_mut_slice().copy_from_slice(frame.as_slice());
        let got = rb.finish().expect("published frame validates");
        assert_eq!(got.frame_id.as_str(), filled.frame_id);
        assert_eq!(got.ranges.len(), filled.ranges);
        assert!((0..filled.ranges).all(|i| got.ranges[i] == got.seq ^ i as u32));
        assert_eq!(got.intensities.len(), filled.intensities);
        assert_eq!(got.intensities.as_slice().last().unwrap_or(&0xA5), &0xA5);
    }
}

#[test]
fn life_cycle_spread_over_more_threads_than_partitions() {
    let _serial = serial();
    mm().set_sanitizer(true);
    let (live, before) = (mm().live(), mm().stats());
    std::thread::scope(|s| {
        let mut workers = Vec::new();
        for lane in 0..LANES {
            let (to_b, from_a) = channel::<SfmBox<Scan>>();
            let (to_c, from_b) = channel();
            let (to_d, from_c) = channel();
            workers.push(s.spawn(move || {
                for seq in 0..PER_LANE {
                    to_b.send(build(seq)).expect("B is listening");
                }
            }));
            workers.push(s.spawn(move || {
                let mut rng = Rng(0x5F3_2022 + lane);
                for mut msg in from_a {
                    let filled = fill(&mut rng, &mut msg);
                    to_c.send((msg, filled)).expect("C is listening");
                }
            }));
            workers.push(s.spawn(move || {
                let mut rng = Rng(0xC0FFEE + lane);
                for (msg, filled) in from_b {
                    let (exit, frame) = publish(&mut rng, msg);
                    to_d.send((exit, frame, filled)).expect("D is listening");
                }
            }));
            workers.push(s.spawn(move || finish(from_c)));
        }
        // Joined one by one, not just at the scope's end: a join also
        // waits for the thread's lists to go home, which the next test
        // counts on.
        for worker in workers {
            worker.join().expect("worker panicked");
        }
    });

    // A worker that panicked has failed the scope already; what is left is
    // the accounting.
    let after = mm().stats();
    assert_eq!(mm().live(), live, "every record released");
    let messages = LANES * u64::from(PER_LANE);
    assert_eq!(after.registered - before.registered, 2 * messages);
    assert_eq!(after.released - before.released, 2 * messages);
    assert_eq!(after.published - before.published, 2 * messages);
    assert!(
        after.foreign_lookups > before.foreign_lookups,
        "fields were assigned away from the thread that built the message"
    );
    let report = mm().sanitizer_report().expect("sanitizer is on");
    assert_eq!(
        (
            report.double_release,
            report.expand_after_release,
            report.refcount_anomaly
        ),
        (0, 0, 0)
    );
    assert!(mm().check_leaks().is_empty());
    mm().set_sanitizer(false);
}

#[test]
fn a_block_built_on_a_and_dropped_on_b_is_a_s_next_allocation() {
    let _serial = serial();
    on_thread(|| {
        drain_alloc_pool();
        let msg = SfmBox::<Scan>::new();
        let base = msg.base();
        let frame = msg.publish_handle();
        // B holds the last buffer pointer: the box and the queue's frame.
        on_thread(move || {
            drop(msg);
            drop(frame);
        });
        let next = SfmBox::<Scan>::new();
        assert_eq!(next.base(), base, "the block came home to its builder");
        assert_eq!(next.whole_len(), Scan::SKELETON_SIZE, "born empty again");
    });
}

#[test]
fn drain_alloc_pool_empties_the_return_lists_and_the_callers_lists() {
    let _serial = serial();
    on_thread(|| {
        drain_alloc_pool();
        const CAP: usize = 3000;
        let (mine, theirs) = (SfmAlloc::new(CAP), SfmAlloc::new(CAP));
        drop(mine); // onto this thread's list
        on_thread(move || drop(theirs)); // onto this partition's return list
        let drained = drain_alloc_pool();
        assert_eq!(drained.blocks, 2, "both went back to the global allocator");
        assert!(drained.bytes >= 2 * CAP, "{drained:?}");
        assert_eq!(drain_alloc_pool(), DrainedPool::default(), "nothing left");
    });
}

/// The bounds `rossf_sfm::SfmAlloc` documents: a thread keeps at most
/// 256 KiB of one small class, and the process keeps at most eight blocks
/// of one large class (64 KiB and up) and 128 MiB of large blocks (the
/// bytes each was asked for), cached or on their way home.
const LARGE_PER_CLASS: usize = 8;
const SMALL_CLASS_BYTES: usize = 256 << 10;
const LARGE_BYTE_CAP: usize = 128 << 20;

#[test]
fn retention_stays_under_the_caps_after_a_burst() {
    let _serial = serial();
    let burst = |n: usize, cap: usize| (0..n).map(|_| SfmAlloc::new(cap)).collect::<Vec<_>>();
    on_thread(|| {
        drain_alloc_pool();
        // Large blocks freed where they were built.
        drop(burst(10, 1 << 20));
        let drained = drain_alloc_pool();
        assert_eq!(drained.blocks, LARGE_PER_CLASS, "{drained:?}");

        // Large blocks freed on another thread: all come home, and the
        // next allocation sorts them in under the same bound.
        let blocks = burst(10, 1 << 20);
        on_thread(move || drop(blocks));
        let one = SfmAlloc::new(1 << 20);
        let drained = drain_alloc_pool();
        assert_eq!(drained.blocks, LARGE_PER_CLASS - 1, "{drained:?}");
        drop(one);
        drain_alloc_pool();

        // More large bytes than the process keeps, freed far from home.
        let blocks = burst(40, 4 << 20);
        on_thread(move || drop(blocks));
        let drained = drain_alloc_pool();
        assert!(drained.blocks * (4 << 20) <= LARGE_BYTE_CAP, "{drained:?}");
        assert!(drained.blocks < 40, "{drained:?}");

        // Small blocks freed where they were built.
        drop(burst(5000, 200));
        let drained = drain_alloc_pool();
        assert!(drained.bytes <= SMALL_CLASS_BYTES, "{drained:?}");
        assert!(drained.blocks > 100, "a small class is kept: {drained:?}");
    });
}

#[test]
fn extern_regions_never_enter_a_cache() {
    let _serial = serial();
    /// Counts its drops; holds the region it guards.
    struct Guard(Arc<AtomicUsize>, #[allow(dead_code)] Vec<u64>);
    impl Drop for Guard {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }
    const CAP: usize = 1 << 20;
    on_thread(|| {
        drain_alloc_pool();
        let drops = Arc::new(AtomicUsize::new(0));
        let mut words = vec![0u64; CAP / 8];
        let region = words.as_mut_ptr() as usize;
        let guard = Guard(Arc::clone(&drops), words);
        // SAFETY: the vector is 8-aligned, CAP bytes, kept alive by the
        // guard and written by no one else.
        let alloc = unsafe { SfmAlloc::from_extern(region as *mut u8, CAP, guard) };
        assert_eq!(alloc.base(), region);
        // Shared with and dropped last by another thread.
        let other = alloc.clone();
        drop(alloc);
        on_thread(move || drop(other));
        assert_eq!(drops.load(Ordering::SeqCst), 1, "guard dropped once");
        let heap: Vec<SfmAlloc> = (0..8).map(|_| SfmAlloc::new(CAP)).collect();
        assert!(heap.iter().all(|a| a.base() != region && !a.is_extern()));
        drop(heap);
        // What went home is the control block; the region never did. A
        // heap block of CAP bytes and a header sits in a class of 5/4 CAP,
        // so the region's CAP bytes would take the sum past the bound.
        let drained = drain_alloc_pool();
        assert_eq!(drained.blocks, LARGE_PER_CLASS + 1, "{drained:?}");
        assert!(
            drained.bytes < LARGE_PER_CLASS * (CAP + CAP / 4) + CAP,
            "{drained:?}"
        );
    });
}
