//! Direct probes of the layers below `rossf-ros`, at the workload's
//! message size: the shm segment pool and descriptor ring, the reactor's
//! wake-up and job hand-off, and the netsim pacing model. They run in the
//! traced pass only, after the rounds, and time public calls from outside.

use crate::stats;
use rossf_netsim::{LinkProfile, Shaper};
use rossf_reactor::{runtime, Ctl, Event, Handler};
use rossf_ros::time::now_nanos;
use rossf_shm::{FrameMeta, PushOutcome, SegmentPool, ShmLink, ShmReader};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Iterations of a probe moving `bytes` per iteration: many for small
/// messages, fewer for megabyte ones, so every probe stays well under a
/// second.
fn iterations(bytes: usize) -> usize {
    (64 * 1024 * 1024 / bytes.max(1)).clamp(64, 2000)
}

fn elapsed_us(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e3
}

#[derive(Debug, Clone, Copy, Default)]
pub struct ShmProbe {
    pub acquire_us: f64,
    pub push_us: f64,
    pub take_us: f64,
    pub release_us: f64,
    pub pool_segments: f64,
}

/// One publisher-side link and one reader over a private pool: acquire a
/// segment, push a frame (copy + descriptor commit), take it, release it.
pub fn shm(bytes: usize) -> Option<ShmProbe> {
    if !rossf_shm::supported() {
        return None;
    }
    let pool = Arc::new(SegmentPool::new());
    let mut link = ShmLink::create(Arc::clone(&pool), 8, rossf_shm::fresh_epoch()).ok()?;
    let reader = ShmReader::connect(std::process::id(), link.ctrl_fd(), link.epoch()).ok()?;
    let payload = vec![0xA5u8; bytes];
    let (mut acquire, mut push, mut take, mut release) = (vec![], vec![], vec![], vec![]);
    for _ in 0..iterations(bytes) {
        let start = Instant::now();
        let (_, segment) = pool.acquire(bytes)?;
        acquire.push(elapsed_us(start));
        segment.release_ref(); // hand the write hold straight back

        let start = Instant::now();
        let outcome = link.push(&payload, FrameMeta::default());
        push.push(elapsed_us(start));
        if outcome != PushOutcome::Pushed {
            return None;
        }

        let start = Instant::now();
        let frame = reader.take(Duration::from_millis(100)).ok()??;
        take.push(elapsed_us(start));
        std::hint::black_box(frame.as_slice().first());

        let start = Instant::now();
        drop(frame);
        release.push(elapsed_us(start));
    }
    link.close();
    Some(ShmProbe {
        acquire_us: stats::median(&acquire),
        push_us: stats::median(&push),
        take_us: stats::median(&take),
        release_us: stats::median(&release),
        pool_segments: pool.len() as f64,
    })
}

#[derive(Debug, Clone, Copy, Default)]
pub struct ReactorProbe {
    pub notify_us: f64,
    pub jobpool_dispatch_us: f64,
}

/// Stores the time its `Notify` arrived; owns the socket it registered.
struct NotifyProbe {
    _socket: UnixStream,
    fired_ns: Arc<AtomicU64>,
}

impl Handler for NotifyProbe {
    fn on_event(&mut self, event: Event, _ctl: &mut Ctl<'_>) {
        if event == Event::Notify {
            // Release: pairs with the Acquire spin in `await_stamp`.
            self.fired_ns.store(now_nanos(), Ordering::Release);
        }
    }
}

/// Spin (yielding) until `cell` holds a timestamp, then clear it.
fn await_stamp(cell: &AtomicU64) -> Option<u64> {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let stamp = cell.swap(0, Ordering::Acquire);
        if stamp != 0 {
            return Some(stamp);
        }
        if Instant::now() > deadline {
            return None;
        }
        std::thread::yield_now();
    }
}

/// `Reactor::notify` → handler entry, and `JobPool::spawn` → job start,
/// on the process-wide runtime every TCP link shares.
pub fn reactor() -> Option<ReactorProbe> {
    const ITERATIONS: usize = 2000;
    let rt = runtime();
    let (socket, _peer) = UnixStream::pair().ok()?;
    socket.set_nonblocking(true).ok()?;
    let fired_ns = Arc::new(AtomicU64::new(0));
    let fd = socket.as_raw_fd();
    let token = rt.reactor.register(
        fd,
        false,
        false,
        Box::new(NotifyProbe {
            _socket: socket,
            fired_ns: Arc::clone(&fired_ns),
        }),
    );
    let mut notify = Vec::with_capacity(ITERATIONS);
    for _ in 0..ITERATIONS {
        let sent = now_nanos();
        rt.reactor.notify(token);
        notify.push(await_stamp(&fired_ns)?.saturating_sub(sent) as f64 / 1e3);
    }
    rt.reactor.deregister(token);

    let mut dispatch = Vec::with_capacity(ITERATIONS);
    for _ in 0..ITERATIONS {
        let started_ns = Arc::clone(&fired_ns);
        let sent = now_nanos();
        rt.pool
            .spawn(move || started_ns.store(now_nanos(), Ordering::Release));
        dispatch.push(await_stamp(&fired_ns)?.saturating_sub(sent) as f64 / 1e3);
    }
    Some(ReactorProbe {
        notify_us: stats::median(&notify),
        jobpool_dispatch_us: stats::median(&dispatch),
    })
}

#[derive(Debug, Clone, Copy, Default)]
pub struct NetsimProbe {
    pub shaped_write_us: f64,
    /// `(measured - model) / model`, the model being
    /// `LinkProfile::transmit_time(bytes) + latency`.
    pub pacing_error_share: f64,
}

/// One frame of `bytes` paced over the 10 GbE profile the way the TCP
/// writer paces it: `Shaper::reserve` for the wait, a reactor timer to
/// sit it out. This is the floor under `img1m_tcp10g`'s latency.
pub fn netsim(bytes: usize) -> Option<NetsimProbe> {
    let profile = LinkProfile::ten_gbe();
    let rt = runtime();
    let fired_ns = Arc::new(AtomicU64::new(0));
    let mut shaper = Shaper::new(profile);
    let mut samples = Vec::new();
    for _ in 0..200 {
        let fired = Arc::clone(&fired_ns);
        let start = now_nanos();
        let wait = profile.latency + shaper.reserve(bytes);
        rt.reactor
            .timer(wait, move |_| fired.store(now_nanos(), Ordering::Release));
        samples.push(await_stamp(&fired_ns)?.saturating_sub(start) as f64 / 1e3);
    }
    let measured = stats::median(&samples);
    let model = (profile.transmit_time(bytes) + profile.latency).as_nanos() as f64 / 1e3;
    Some(NetsimProbe {
        shaped_write_us: measured,
        pacing_error_share: (measured - model) / model,
    })
}
