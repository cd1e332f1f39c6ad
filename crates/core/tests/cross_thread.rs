//! A message's life cycle spread over four threads, with more threads than
//! the manager's record table has partitions: built on A, its string and
//! vector fields assigned on B (an interior-address `expand` from a thread
//! the record does not live with), published on C, and its box — or the
//! last clone of its shared handle — dropped on D. Seeded, handed from
//! thread to thread over channels, with the lifecycle sanitizer on and the
//! default alert policy, so any anomaly panics the thread that caused it.
//!
//! Alone in its binary: it asserts on the process-global manager.

use rossf_sfm::{
    mm, MessageState, PublishedBuffer, SfmBox, SfmError, SfmMessage, SfmPod, SfmRecvBuffer,
    SfmShared, SfmString, SfmValidate, SfmVec,
};
use std::sync::mpsc::{channel, Receiver};

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
    mm().set_sanitizer(true);
    let (live, before) = (mm().live(), mm().stats());
    std::thread::scope(|s| {
        for lane in 0..LANES {
            let (to_b, from_a) = channel::<SfmBox<Scan>>();
            let (to_c, from_b) = channel();
            let (to_d, from_c) = channel();
            s.spawn(move || {
                for seq in 0..PER_LANE {
                    to_b.send(build(seq)).expect("B is listening");
                }
            });
            s.spawn(move || {
                let mut rng = Rng(0x5F3_2022 + lane);
                for mut msg in from_a {
                    let filled = fill(&mut rng, &mut msg);
                    to_c.send((msg, filled)).expect("C is listening");
                }
            });
            s.spawn(move || {
                let mut rng = Rng(0xC0FFEE + lane);
                for (msg, filled) in from_b {
                    let (exit, frame) = publish(&mut rng, msg);
                    to_d.send((exit, frame, filled)).expect("D is listening");
                }
            });
            s.spawn(move || finish(from_c));
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
