//! A message's trace crosses a process boundary with it: a traced
//! publisher in this process and a traced subscriber in a forked child
//! share trace ids and one clock, on TCP (the child on another simulated
//! machine) and on shm (the same machine, fast path off). The child's
//! `wire_read` span starts exactly where this process's `wire_write` ended,
//! and the two processes' events form one causally ordered timeline.

use rossf_ros::{
    MachineId, Master, NodeHandle, Publisher, PublisherOptions, SubscriberOptions, TransportConfig,
};
use rossf_sfm::{SfmBox, SfmError, SfmMessage, SfmPod, SfmShared, SfmValidate, SfmVec};
use rossf_trace::{check_monotone, tracer, Stage, Tier, TraceEvent};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames each run publishes.
const FRAMES: usize = 20;

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
        "test/ForkedTracePayload"
    }
    fn max_size() -> usize {
        4096
    }
}

fn msg(seq: u32) -> SfmBox<Payload> {
    let mut m = SfmBox::<Payload>::new();
    m.seq = seq;
    m.data.resize(256);
    m
}

fn config() -> TransportConfig {
    TransportConfig {
        enable_fastpath: false,
        validate_on_receive: true,
        ..TransportConfig::default()
    }
}

fn topic_events(topic: &str) -> Vec<TraceEvent> {
    tracer()
        .events()
        .into_iter()
        .filter(|e| &*e.topic == topic)
        .collect()
}

/// One event per line: id, stage, tier, end, duration.
fn to_line(e: &TraceEvent) -> String {
    format!(
        "{} {} {} {} {}\n",
        e.trace_id,
        e.stage.index(),
        e.tier.index(),
        e.ts_ns,
        e.dur_ns
    )
}

fn from_line(topic: &str, line: &str) -> TraceEvent {
    let f: Vec<u64> = line
        .split_whitespace()
        .map(|w| w.parse().expect("numeric column"))
        .collect();
    TraceEvent {
        trace_id: f[0],
        stage: Stage::ALL[f[1] as usize],
        tier: Tier::ALL[f[2] as usize],
        ts_ns: f[3],
        dur_ns: f[4],
        topic: Arc::from(topic),
    }
}

/// Child half. Runs only when the parent set the environment contract; in
/// a normal test sweep it is a no-op. Subscribes, traced, to the parent's
/// publisher from `ROSSF_TRACE_CHILD_MACHINE`, and once every frame's
/// callback span is recorded writes its events for the topic.
#[test]
fn traced_child_entry() {
    let Ok(addr) = std::env::var("ROSSF_TRACE_CHILD_ADDR") else {
        return;
    };
    let env = |name: &str| std::env::var(name).expect(name);
    let topic = env("ROSSF_TRACE_CHILD_TOPIC");
    let machine = MachineId(env("ROSSF_TRACE_CHILD_MACHINE").parse().expect("machine"));
    let master = Master::new();
    master
        .register_publisher(
            &topic,
            Payload::type_name(),
            addr.parse().expect("addr"),
            MachineId::A,
        )
        .expect("register parent endpoint");
    let nh = NodeHandle::with_config(&master, "trace_child", machine, config());
    let _sub = nh.subscribe_with(
        &topic,
        SubscriberOptions::new().trace(true),
        |_m: SfmShared<Payload>| {},
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    let events = loop {
        let events = topic_events(&topic);
        let callbacks = events.iter().filter(|e| e.stage == Stage::Callback);
        if callbacks.count() == FRAMES {
            break events;
        }
        assert!(
            Instant::now() < deadline,
            "child saw {} events",
            events.len()
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    let lines: String = events.iter().map(to_line).collect();
    std::fs::write(env("ROSSF_TRACE_CHILD_OUT"), lines).expect("write child report");
}

/// Publish `FRAMES` traced frames to a forked child subscribing from
/// `child_machine`, and check the two processes' timelines against each
/// other.
fn forked_trace(topic: &str, child_machine: MachineId, tier: Tier) {
    let master = Master::new();
    let nh_pub = NodeHandle::with_config(&master, "trace_pub", MachineId::A, config());
    let publisher: Publisher<SfmBox<Payload>> =
        nh_pub.advertise_with(topic, PublisherOptions::new().queue_size(64).trace(true));
    let out = std::env::temp_dir().join(format!(
        "rossf-forked-trace-{}-{}.txt",
        tier.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_file(&out);
    let mut child = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["traced_child_entry", "--exact", "--test-threads", "1"])
        .env("ROSSF_TRACE_CHILD_ADDR", publisher.addr().to_string())
        .env("ROSSF_TRACE_CHILD_TOPIC", topic)
        .env("ROSSF_TRACE_CHILD_MACHINE", child_machine.0.to_string())
        .env("ROSSF_TRACE_CHILD_OUT", &out)
        .spawn()
        .expect("spawn child subscriber process");
    nh_pub.wait_for_subscribers(&publisher, 1);
    for seq in 0..FRAMES {
        publisher.publish(&msg(seq as u32));
        std::thread::sleep(Duration::from_millis(2));
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        match child.try_wait().expect("poll child") {
            Some(status) => break status,
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                panic!("child subscriber process timed out");
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    assert!(status.success(), "{topic}: child subscriber process failed");
    let report = std::fs::read_to_string(&out).expect("read child report");
    let _ = std::fs::remove_file(&out);
    let theirs: Vec<TraceEvent> = report.lines().map(|l| from_line(topic, l)).collect();
    let ours = topic_events(topic);

    // Every delivered frame kept its publisher-side identity.
    let delivered: Vec<u64> = theirs
        .iter()
        .filter(|e| e.stage == Stage::Callback)
        .map(|e| e.trace_id)
        .collect();
    assert_eq!(
        delivered.len(),
        FRAMES,
        "{topic}: one callback span per frame"
    );
    assert!(
        delivered.iter().all(|&id| id != 0),
        "{topic}: ids {delivered:?}"
    );
    let ids: BTreeSet<u64> = delivered.iter().copied().collect();
    assert_eq!(ids.len(), FRAMES, "{topic}: distinct ids {delivered:?}");
    assert!(theirs.iter().all(|e| e.tier == tier), "{topic}: child tier");

    // The child's wire_read starts where this process's wire_write ended.
    let written: HashMap<u64, u64> = ours
        .iter()
        .filter(|e| e.stage == Stage::WireWrite)
        .map(|e| (e.trace_id, e.ts_ns))
        .collect();
    let read: HashMap<u64, u64> = theirs
        .iter()
        .filter(|e| e.stage == Stage::WireRead)
        .map(|e| (e.trace_id, e.ts_ns - e.dur_ns))
        .collect();
    for id in &ids {
        let sent = written
            .get(id)
            .unwrap_or_else(|| panic!("{topic}: id {id} never written here"));
        let began = read
            .get(id)
            .unwrap_or_else(|| panic!("{topic}: id {id} has no wire_read"));
        assert_eq!(began, sent, "{topic}: id {id}");
    }

    // One host clock: the merged timeline is causally ordered.
    let mut merged: Vec<TraceEvent> = ours.into_iter().chain(theirs).collect();
    merged.sort_by_key(|e| (e.ts_ns, e.stage));
    check_monotone(&merged).unwrap_or_else(|e| panic!("{topic}: {e}"));
}

#[test]
fn a_forked_tcp_subscriber_shares_trace_ids_and_clock() {
    forked_trace("trace/fork/tcp", MachineId::B, Tier::Tcp);
}

#[test]
fn a_forked_shm_subscriber_shares_trace_ids_and_clock() {
    forked_trace("trace/fork/shm", MachineId::A, Tier::Shm);
}
