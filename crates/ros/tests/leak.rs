//! Fd/thread-leak regression, on every tier: churning connections —
//! subscription create/drop cycles and sever/heal cycles through the
//! netsim fault injector — must return the process to its baseline
//! `/proc/self/fd` and thread counts. A drift here means a handler wasn't
//! deregistered, a supervision chain kept a socket alive, or a
//! connection-scoped thread outlived its link. The same run pins each
//! tier's *steady* thread budget, which is zero: TCP, fast-path and shm
//! links and capture taps all live on the shared reactor, on both sides.

use rossf_ros::{
    BackoffPolicy, MachineId, Master, NodeHandle, Publisher, PublisherOptions, RawFrameTap,
    SubscriberOptions, TransportConfig,
};
use rossf_sfm::{SfmBox, SfmError, SfmMessage, SfmPod, SfmShared, SfmValidate, SfmVec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Debug)]
struct Payload {
    seq: u32,
    _pad: u32,
    data: SfmVec<u8>,
}
unsafe impl SfmPod for Payload {}
impl SfmValidate for Payload {
    fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
        self.data.validate_in(base, len)
    }
}
unsafe impl SfmMessage for Payload {
    fn type_name() -> &'static str {
        "test/LeakPayload"
    }
    fn max_size() -> usize {
        4096
    }
}

fn msg(seq: u32) -> SfmBox<Payload> {
    let mut m = SfmBox::<Payload>::new();
    m.seq = seq;
    m.data.resize(32);
    m
}

fn fast_reconnect() -> TransportConfig {
    TransportConfig {
        handshake_timeout: Duration::from_secs(2),
        backoff: BackoffPolicy {
            initial: Duration::from_millis(2),
            max: Duration::from_millis(40),
        },
        ..TransportConfig::default()
    }
}

/// Open descriptors of this process, as (shm segments, every other fd),
/// told apart by their `/proc/self/fd` link names. A publisher's segment
/// pool keeps the `memfd:rossf-seg` segments it grows while links churn,
/// and a reader keeps its mapping of each one it has read from, so their
/// number after the churn depends on how frames spread over the pool:
/// they are counted apart, against the pool's bound. Every other fd must
/// go with its link. `read_dir` briefly opens one fd of its own; that bias
/// is identical on every call, so comparisons hold.
fn fd_counts() -> (usize, usize) {
    let mut counts = (0, 0);
    for entry in std::fs::read_dir("/proc/self/fd").unwrap() {
        let target = std::fs::read_link(entry.unwrap().path()).unwrap_or_default();
        if target.to_string_lossy().starts_with("/memfd:rossf-seg") {
            counts.0 += 1;
        } else {
            counts.1 += 1;
        }
    }
    counts
}

/// [`fd_counts`]'s per-link part, checking on the way that the segment
/// fds stay within a pool's bound.
fn fd_count() -> usize {
    let (segments, other) = fd_counts();
    assert!(
        segments <= rossf_shm::DIR_CAP,
        "{segments} shm segment fds open, more than a pool holds"
    );
    other
}

/// Live threads of this process, from `/proc/self/status`.
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .unwrap()
        .trim()
        .parse()
        .unwrap()
}

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timeout waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn publish_until(
    publisher: &Publisher<SfmBox<Payload>>,
    seq: &mut u32,
    what: &str,
    cond: impl Fn() -> bool,
) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(Instant::now() < deadline, "timeout publishing until {what}");
        publisher.publish(&msg(*seq));
        *seq += 1;
        std::thread::sleep(Duration::from_millis(3));
    }
}

/// Threads of this process whose name (`/proc/self/task/*/comm`) is `name`.
fn tasks_named(name: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == name)
        .count()
}

/// The per-link threads the transport used to keep, by thread name.
const LINK_THREADS: [&str; 4] = [
    "rossf-fast-sub",
    "rossf-shm-sub",
    "rossf-bag-tap",
    "rossf-shm-pub",
];

/// One transport tier's placement.
struct TierCase {
    name: &'static str,
    sub_machine: MachineId,
    config: TransportConfig,
    /// Whether a capture tap can attach on this tier's publisher (it rides
    /// the fast path's local port).
    tappable: bool,
}

fn tier_cases() -> Vec<TierCase> {
    vec![
        TierCase {
            name: "tcp",
            sub_machine: MachineId::B,
            config: fast_reconnect(),
            tappable: true,
        },
        TierCase {
            name: "fastpath",
            sub_machine: MachineId::A,
            config: fast_reconnect(),
            tappable: true,
        },
        TierCase {
            name: "shm",
            sub_machine: MachineId::A,
            config: TransportConfig {
                enable_fastpath: false,
                shm_same_process: true,
                ..fast_reconnect()
            },
            tappable: false,
        },
    ]
}

/// N connect/sever/reconnect cycles plus subscription churn, then the
/// process must be back at its post-warmup fd and thread baseline — on
/// each tier in turn, and no link or tap may have cost a thread meanwhile.
#[test]
fn churn_cycles_return_to_fd_and_thread_baseline() {
    for case in tier_cases() {
        churn_one_tier(&case);
    }
}

fn churn_one_tier(case: &TierCase) {
    const CYCLES: usize = 10;
    let tier = case.name;

    let master = Master::new();
    let fault = master.links().inject(MachineId::A, case.sub_machine);
    let nh_pub = NodeHandle::with_config(&master, "pub", MachineId::A, case.config.clone());
    let nh_sub = NodeHandle::with_config(&master, "sub", case.sub_machine, case.config.clone());

    let publisher: Publisher<SfmBox<Payload>> =
        nh_pub.advertise_with("leak/churn", PublisherOptions::new().queue_size(64));
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let sub = nh_sub.subscribe_with(
        "leak/churn",
        SubscriberOptions::new(),
        move |m: SfmShared<Payload>| {
            assert_eq!(m.data.len(), 32);
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh_pub.wait_for_subscribers(&publisher, 1);

    let mut seq = 0u32;
    publish_until(&publisher, &mut seq, "warmup frames", || {
        seen.load(Ordering::SeqCst) >= 3
    });

    // One full warm-up cycle before taking the baseline, so lazy one-time
    // state (reactor thread, pool workers, tracer) is counted in.
    {
        let extra_seen = Arc::new(AtomicU64::new(0));
        let extra_cb = Arc::clone(&extra_seen);
        let _extra = nh_sub.subscribe_with(
            "leak/churn",
            SubscriberOptions::new(),
            move |_m: SfmShared<Payload>| {
                extra_cb.fetch_add(1, Ordering::SeqCst);
            },
        );
        nh_pub.wait_for_subscribers(&publisher, 2);
        publish_until(&publisher, &mut seq, "warmup extra delivery", || {
            extra_seen.load(Ordering::SeqCst) >= 1
        });
    }
    wait_until("warmup sub teardown", || publisher.subscriber_count() == 1);
    // Let the publisher notice the dropped link and close its side.
    std::thread::sleep(Duration::from_millis(100));

    let fd_base = fd_count();
    let thread_base = thread_count();

    let reconnects_before = sub.stats().reconnects;
    for _cycle in 0..CYCLES {
        // Subscription churn: connect a fresh link, see traffic on it,
        // drop it.
        let extra_seen = Arc::new(AtomicU64::new(0));
        let extra_cb = Arc::clone(&extra_seen);
        let extra = nh_sub.subscribe_with(
            "leak/churn",
            SubscriberOptions::new(),
            move |_m: SfmShared<Payload>| {
                extra_cb.fetch_add(1, Ordering::SeqCst);
            },
        );
        // ... and a capture tap beside it, where the tier has a local port.
        let tapped = Arc::new(AtomicU64::new(0));
        let tap = case.tappable.then(|| {
            let tapped = Arc::clone(&tapped);
            RawFrameTap::attach(&nh_pub, "leak/churn", Payload::type_name(), move |_| {
                tapped.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap()
        });
        let seen_before = seen.load(Ordering::SeqCst);
        publish_until(&publisher, &mut seq, "churned sub delivery", || {
            extra_seen.load(Ordering::SeqCst) >= 1
                && seen.load(Ordering::SeqCst) > seen_before
                && (tap.is_none() || tapped.load(Ordering::SeqCst) >= 1)
        });
        // The thread budget, read with two links (and the tap) up and
        // traffic on all of them: nothing per link, on either side.
        for name in LINK_THREADS {
            assert_eq!(tasks_named(name), 0, "{tier}: a `{name}` thread is back");
        }
        assert_eq!(
            thread_count(),
            thread_base,
            "{tier}: a second link and a tap cost no thread"
        );
        drop(tap);
        drop(extra);

        // Link churn: sever the steady link mid-stream, heal, and wait
        // for the supervisor to bring it back.
        let reconnects = sub.stats().reconnects;
        let attempts = sub.stats().reconnect_attempts;
        fault.sever_now();
        publish_until(&publisher, &mut seq, "sever to land", || {
            sub.stats().reconnect_attempts > attempts
        });
        fault.heal();
        publish_until(&publisher, &mut seq, "reconnect after heal", || {
            sub.stats().reconnects > reconnects
        });
        let resumed_from = seen.load(Ordering::SeqCst);
        publish_until(&publisher, &mut seq, "delivery after reconnect", || {
            seen.load(Ordering::SeqCst) > resumed_from
        });
        wait_until("churned link teardown", || {
            publisher.subscriber_count() == 1
        });
    }
    assert!(sub.stats().reconnects >= reconnects_before + CYCLES as u64);
    assert_eq!(sub.stats().decode_errors, 0, "{tier}");

    // Teardown of the last cycle is asynchronous (the publisher's writer
    // notices the dead peer on its next flush); poll back to baseline.
    wait_until(&format!("{tier}: fd count back to baseline"), || {
        fd_count() <= fd_base
    });
    wait_until(&format!("{tier}: thread count back to baseline"), || {
        thread_count() <= thread_base
    });

    // And the steady link must still be alive after all that churn.
    let resumed_from = seen.load(Ordering::SeqCst);
    publish_until(&publisher, &mut seq, "steady link still live", || {
        seen.load(Ordering::SeqCst) > resumed_from
    });
}
