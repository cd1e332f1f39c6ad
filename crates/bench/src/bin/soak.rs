//! `soak` — the churn soak behind the reactor's O(1)-threads claim.
//!
//! Spins up hundreds of topics, each fanning out to a mixed population of
//! subscriber links — TCP (subscribers on machine B, so the link crosses
//! the netsim wire), fast-path and same-process shared-memory (subscribers
//! on the publisher's machine) — plus one capture tap, then soaks the mesh
//! under churn: subscribers of every tier continuously leave and rejoin,
//! scheduled netsim drop faults eat frames, and mid-run both the machine
//! link and the loopback link are severed and healed — a full reconnect
//! storm across every link of every tier. Throughput is whatever the mesh
//! sustains through all of that.
//!
//! The point is the resource row, not the latency row: at steady state
//! the process must hold its thread count *independent of link count* —
//! one reactor thread plus the fixed job pool, never a thread per link on
//! any tier — and its fd count must track links, not churn history.
//! Both are gated here, every run, between the smallest and the largest
//! scale of the same process: threads may differ by at most
//! [`THREAD_SLACK`], fds *per link* by at most 10 %
//! ([`fds_track_links`]). Each row also records what the mesh did under
//! the storm — one-way latency percentiles on the steady subscribers,
//! delivered messages per second and per process-CPU-second, `rss_kb` —
//! none of it gated: a churn soak's tail is storm noise.
//!
//! ```text
//! cargo run -p rossf-bench --release --bin soak [--smoke] [--out DIR]
//! ```
//!
//! `--smoke` runs the same protocol at a small scale (a few seconds) —
//! the `scripts/check.sh` gate. With `--out DIR` the rows are written to
//! `DIR/BENCH_soak.json` (`BENCH_soak_smoke.json` for the smoke).

use rossf_bench::report::{fds_track_links, write_report, ScenarioReport};
use rossf_ros::time::now_nanos;
use rossf_ros::{
    BackoffPolicy, MachineId, Master, NodeHandle, Publisher, PublisherOptions, RawFrameTap,
    SubscriberOptions, TransportConfig,
};
use rossf_sfm::{SfmBox, SfmError, SfmMessage, SfmPod, SfmShared, SfmValidate, SfmVec};
use rossf_trace::StageHist;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Payload bytes carried per message.
const PAYLOAD: usize = 256;
/// Threads the largest scale may need beyond the smallest before the
/// in-binary O(1)-threads check fails.
const THREAD_SLACK: u64 = 2;

#[repr(C)]
#[derive(Debug)]
struct SoakMsg {
    seq: u64,
    /// Creation time on the experiment clock, nanoseconds (Fig. 12).
    stamp: u64,
    data: SfmVec<u8>,
}
// SAFETY: `SoakMsg` is `#[repr(C)]` and all fields (`u64`, `u64`,
// `SfmVec<u8>`) are themselves plain-old-data with no padding-sensitive
// invariants.
unsafe impl SfmPod for SoakMsg {}
impl SfmValidate for SoakMsg {
    fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
        self.data.validate_in(base, len)
    }
}
// SAFETY: `max_size` covers the header plus the largest `data` payload the
// bench ever publishes (`PAYLOAD` bytes), and `validate_in` bounds-checks
// the only indirect field.
unsafe impl SfmMessage for SoakMsg {
    fn type_name() -> &'static str {
        "bench/SoakMsg"
    }
    fn max_size() -> usize {
        4096
    }
}

/// Every this-many-th topic also carries the zero-copy subscribers. A shm
/// publisher's segment pool may grow to `DIR_CAP` memfds, each opened again
/// by every reader; keeping the shm population to a quarter of the topics
/// keeps the largest scale's worst case under the process's fd limit.
const ZERO_COPY_STRIDE: usize = 4;

/// One soak configuration: `topics` publishers, each with
/// `subs_per_topic` steady TCP subscribers and — on every
/// [`ZERO_COPY_STRIDE`]th topic — `zero_copy_per_topic` steady subscribers
/// on *each* zero-copy tier (fast path, same-process shm), churned for
/// `duration`. Topic 0 also carries the capture tap.
struct Scale {
    label: &'static str,
    topics: usize,
    subs_per_topic: usize,
    zero_copy_per_topic: usize,
    duration: Duration,
}

impl Scale {
    fn zero_copy_topics(&self) -> usize {
        self.topics.div_ceil(ZERO_COPY_STRIDE)
    }

    fn links(&self) -> usize {
        self.topics * self.subs_per_topic
            + self.zero_copy_topics() * 2 * self.zero_copy_per_topic
            + 1
    }
}

/// What one scale measured.
struct Outcome {
    report: ScenarioReport,
    threads: u64,
    fds: u64,
    pool_fds: u64,
    delivered: u64,
    reconnects: u64,
}

/// Open descriptors of this process as `(link, pool)`: the shm tier's
/// pooled data segments (one memfd per segment at the publisher, one more
/// per reader that mapped it) apart from everything else. A publisher's
/// pool grows to its links' peak of frames in flight and is capped at
/// `DIR_CAP` segments, so its descriptors follow load, not link count;
/// every other descriptor — sockets, listeners, control segments — belongs
/// to a link.
fn fd_counts() -> (u64, u64) {
    let (mut link, mut pool) = (0, 0);
    for fd in std::fs::read_dir("/proc/self/fd").unwrap().flatten() {
        let target = std::fs::read_link(fd.path()).unwrap_or_default();
        if target.to_string_lossy().contains("memfd:rossf-seg") {
            pool += 1;
        } else {
            link += 1;
        }
    }
    (link, pool)
}

fn proc_status_field(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches(" kB").parse().ok())
        .unwrap_or(0)
}

/// CPU seconds (user + system) this process has consumed, from
/// `/proc/self/stat` fields 14 and 15 in `USER_HZ` = 100 ticks.
fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // The command name (field 2) may contain spaces; count from its `)`.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

fn fast_reconnect() -> TransportConfig {
    TransportConfig {
        handshake_timeout: Duration::from_secs(5),
        backoff: BackoffPolicy {
            initial: Duration::from_millis(2),
            max: Duration::from_millis(50),
            multiplier: 2.0,
            jitter: 0.25,
            max_attempts: 0,
        },
        ..TransportConfig::default()
    }
}

fn wait_until(what: &str, secs: u64, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !cond() {
        assert!(
            Instant::now() < deadline,
            "soak: timeout waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn run_scale(scale: &Scale) -> Outcome {
    let master = Master::new();
    // The wire (TCP links) and the loopback (fast-path and shm links).
    let faults = [MachineId::B, MachineId::A].map(|to| master.links().inject(MachineId::A, to));
    // A sprinkle of scheduled drop faults across the early frame stream.
    for fault in &faults {
        for i in 0..16u64 {
            fault.drop_frame(i * 97 + 5);
        }
    }
    // The publishers grant shm to this same process; which tier a
    // subscriber lands on is then decided by where and how it subscribes.
    let same_process_shm = TransportConfig {
        shm_same_process: true,
        ..fast_reconnect()
    };
    let nh_pub =
        NodeHandle::with_config(&master, "soak-pub", MachineId::A, same_process_shm.clone());
    let nh_subs = [
        NodeHandle::with_config(&master, "soak-tcp", MachineId::B, fast_reconnect()),
        NodeHandle::with_config(&master, "soak-fast", MachineId::A, fast_reconnect()),
        NodeHandle::with_config(
            &master,
            "soak-shm",
            MachineId::A,
            TransportConfig {
                enable_fastpath: false,
                ..same_process_shm
            },
        ),
    ];
    const TCP: usize = 0;

    // One-way latency of every delivery; its count is the delivered total.
    let latency = Arc::new(StageHist::new());
    let subscribe = |tier: usize, topic: &str| {
        let latency = Arc::clone(&latency);
        nh_subs[tier].subscribe_with(
            topic,
            SubscriberOptions::new(),
            move |m: SfmShared<SoakMsg>| {
                debug_assert_eq!(m.data.len(), PAYLOAD);
                latency.record(now_nanos().saturating_sub(m.stamp));
            },
        )
    };

    let mut publishers: Vec<Publisher<SfmBox<SoakMsg>>> = Vec::with_capacity(scale.topics);
    let mut steady = Vec::with_capacity(scale.links());
    let topic_name = |t: usize| format!("soak/t{t}");
    for t in 0..scale.topics {
        let topic = topic_name(t);
        publishers.push(nh_pub.advertise_with(&topic, PublisherOptions::new().queue_size(64)));
        for tier in 0..nh_subs.len() {
            let subs = if tier == TCP {
                scale.subs_per_topic
            } else if t % ZERO_COPY_STRIDE == 0 {
                scale.zero_copy_per_topic
            } else {
                0
            };
            for _ in 0..subs {
                steady.push(subscribe(tier, &topic));
            }
        }
    }
    // The tap is one more attachment on its publisher, and hands frames on
    // without decoding them.
    let tapped = Arc::new(AtomicU64::new(0));
    let tap = {
        let tapped = Arc::clone(&tapped);
        RawFrameTap::attach(&nh_pub, &topic_name(0), SoakMsg::type_name(), move |_| {
            tapped.fetch_add(1, Ordering::Relaxed);
        })
        .expect("tap topic 0")
    };
    let want = scale.links();
    let all_connected = |pubs: &[Publisher<SfmBox<SoakMsg>>]| {
        pubs.iter().map(|p| p.subscriber_count()).sum::<usize>() >= want
    };
    wait_until("initial links", 60, || all_connected(&publishers));

    let mut msg = SfmBox::<SoakMsg>::new();
    msg.data.resize(PAYLOAD);

    // Soak: publish round-robin; churn one subscription every few rounds,
    // rotating through the tiers; sever both links mid-run and let them
    // heal.
    let start = Instant::now();
    let cpu_start = process_cpu_secs();
    let sever_at = scale.duration.mul_f64(0.4);
    let heal_at = scale.duration.mul_f64(0.5);
    let mut severed = false;
    let mut healed = false;
    let mut churner = None;
    let mut churn_topic = 0usize;
    let mut round = 0u64;
    while start.elapsed() < scale.duration {
        for publisher in &publishers {
            msg.seq = round;
            msg.stamp = now_nanos();
            publisher.publish(&msg);
        }
        round += 1;
        if round.is_multiple_of(8) {
            // Join/leave churn: drop the previous extra subscription and
            // open one on the next topic, on the next tier.
            churner = Some(subscribe(
                churn_topic % nh_subs.len(),
                &topic_name(churn_topic),
            ));
            churn_topic = (churn_topic + 1) % scale.topics;
        }
        if !severed && start.elapsed() >= sever_at {
            severed = true;
            faults.iter().for_each(|f| f.sever_now());
        }
        if !healed && start.elapsed() >= heal_at {
            healed = true;
            faults.iter().for_each(|f| f.heal());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(churner);
    let elapsed = start.elapsed();
    let cpu_secs = process_cpu_secs() - cpu_start;
    let latency = latency.snapshot();
    let got = latency.count;

    // Quiesce: every steady link reconnected after the storm, then read
    // the resource numbers the report exists for.
    wait_until("post-storm reconnect", 60, || all_connected(&publishers));
    std::thread::sleep(Duration::from_millis(200));
    let threads = proc_status_field("Threads:");
    let (fds, pool_fds) = fd_counts();
    let rss_kb = proc_status_field("VmRSS:");
    let reconnects = steady.iter().map(|s| s.stats().reconnects).sum::<u64>();
    assert!(
        tapped.load(Ordering::Relaxed) > 0 && tap.attached() >= 1,
        "the tap captured nothing at {}",
        scale.label
    );
    // Wire bytes are topic counters, each read once per topic.
    let (bytes_sent, bytes_received) = master
        .metrics()
        .snapshot()
        .iter()
        .fold((0, 0), |(sent, received), (_, m)| {
            (sent + m.bytes_sent, received + m.bytes_received)
        });
    assert!(
        bytes_received <= bytes_sent,
        "{bytes_received} bytes received but {bytes_sent} sent at {}",
        scale.label
    );

    let msgs_per_s = got as f64 / elapsed.as_secs_f64();
    let report = ScenarioReport {
        scenario: scale.label.to_string(),
        payload_bytes: PAYLOAD as u64,
        p50_ms: latency.quantile_ns(0.5) / 1e6,
        p99_ms: latency.quantile_ns(0.99) / 1e6,
        msgs_per_s,
        bytes_per_s: msgs_per_s * PAYLOAD as f64,
        msgs_per_cpu_s: (cpu_secs > 0.0).then(|| got as f64 / cpu_secs),
        ..ScenarioReport::default()
    }
    .with_process_counts(threads, fds + pool_fds, rss_kb)
    .with_wire_bytes(bytes_sent, bytes_received);
    Outcome {
        report,
        threads,
        fds,
        pool_fds,
        delivered: got,
        reconnects,
    }
}

fn main() {
    let mut smoke = false;
    let mut out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(args.next().expect("--out needs a directory").into()),
            other => panic!("unknown argument `{other}`; expected --smoke or --out DIR"),
        }
    }
    let (fig, scales): (&str, Vec<Scale>) = if smoke {
        (
            "soak_smoke",
            vec![
                Scale {
                    label: "soak-smoke 45 links",
                    topics: 8,
                    subs_per_topic: 5,
                    zero_copy_per_topic: 1,
                    duration: Duration::from_secs(2),
                },
                Scale {
                    label: "soak-smoke 133 links",
                    topics: 24,
                    subs_per_topic: 5,
                    zero_copy_per_topic: 1,
                    duration: Duration::from_secs(3),
                },
            ],
        )
    } else {
        (
            "soak",
            vec![
                Scale {
                    label: "soak 527 links",
                    topics: 50,
                    subs_per_topic: 10,
                    zero_copy_per_topic: 1,
                    duration: Duration::from_secs(6),
                },
                Scale {
                    label: "soak 2101 links",
                    topics: 200,
                    subs_per_topic: 10,
                    zero_copy_per_topic: 1,
                    duration: Duration::from_secs(8),
                },
            ],
        )
    };

    println!(
        "=== churn soak (TCP + fast path + shm + a tap): resource footprint vs link count ==="
    );
    println!(
        "{:<22} {:>7} {:>12} {:>10} {:>11} {:>9} {:>9} {:>8} {:>7} {:>8} {:>9}",
        "scale",
        "links",
        "delivered",
        "msgs/s",
        "msgs/cpu-s",
        "p50 (ms)",
        "p99 (ms)",
        "threads",
        "fds",
        "pool fds",
        "rss (MB)"
    );
    let mut outcomes = Vec::new();
    for scale in &scales {
        let outcome = run_scale(scale);
        println!(
            "{:<22} {:>7} {:>12} {:>10.0} {:>11.0} {:>9.3} {:>9.3} {:>8} {:>7} {:>8} {:>9.1}",
            scale.label,
            scale.links(),
            outcome.delivered,
            outcome.report.msgs_per_s,
            outcome.report.msgs_per_cpu_s.unwrap_or(0.0),
            outcome.report.p50_ms,
            outcome.report.p99_ms,
            outcome.threads,
            outcome.fds,
            outcome.pool_fds,
            outcome.report.rss_kb.unwrap_or(0) as f64 / 1024.0,
        );
        assert!(
            outcome.delivered > 0,
            "soak delivered nothing at {}",
            scale.label
        );
        assert!(
            outcome.reconnects > 0,
            "the sever storm must force reconnects at {}",
            scale.label
        );
        // A pool segment is open once at its publisher and once in each
        // reader that mapped it: the steady shm links, and the one churned
        // link whose mappings may not have unwound yet.
        let readers = scale.zero_copy_topics() * scale.zero_copy_per_topic + 1;
        let pool_cap = ((scale.zero_copy_topics() + 1 + readers) * rossf_shm::DIR_CAP) as u64;
        assert!(
            outcome.pool_fds <= pool_cap,
            "{} pool descriptors at {}; its pools and their readers can own at most {pool_cap}",
            outcome.pool_fds,
            scale.label
        );
        outcomes.push(outcome);
    }

    let rows: Vec<_> = outcomes.iter().map(|o| o.report.clone()).collect();
    write_report(out.as_deref(), fig, &rows).expect("write BENCH_soak.json");

    // The claims themselves, smallest scale against largest in this one
    // process: growing the mesh must not grow the thread count, and the
    // links' fds must track links rather than churn history (the segment
    // pools' are bounded per publisher, above).
    let (first, last) = (&outcomes[0], &outcomes[outcomes.len() - 1]);
    let (first_links, last_links) = (scales[0].links(), scales[scales.len() - 1].links());
    if last.threads > first.threads + THREAD_SLACK {
        eprintln!(
            "FAIL: thread count grew with link count ({} -> {}); \
             the reactor is supposed to hold it flat",
            first.threads, last.threads
        );
        std::process::exit(1);
    }
    if !fds_track_links(
        (first.fds, first_links as u64),
        (last.fds, last_links as u64),
    ) {
        eprintln!(
            "FAIL: fds per link moved by more than 10% ({} fds at {first_links} links, \
             {} at {last_links}); descriptors are supposed to track links",
            first.fds, last.fds
        );
        std::process::exit(1);
    }
    println!(
        "thread count independent of link count: {} thread(s) at {first_links} links, \
         {} at {last_links} links; fds per link {:.2} -> {:.2}",
        first.threads,
        last.threads,
        first.fds as f64 / first_links as f64,
        last.fds as f64 / last_links as f64,
    );
}
