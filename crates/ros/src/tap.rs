//! Raw frame taps: observe a topic's already-encoded [`OutFrame`]s with
//! zero encode and zero copy.
//!
//! A [`RawFrameTap`] is the capture primitive under the bag recorder. It
//! attaches to every same-machine publisher of a topic through the same
//! local-attach tier the fast path uses, so the frames it observes are the
//! publisher's own `Arc`'d transmission-queue entries — pointer-identical
//! to what live subscribers adopt, with no serialization or payload copy
//! on the capture side.
//!
//! A tap is an *observer*, not a subscriber: it does not decode, does not
//! count toward delivery metrics, and ignores loopback fault injection
//! (capture wants ground truth of what the publisher emitted, not what a
//! lossy link let through). Publishers still see it as one more fast-path
//! attachment, which is exactly the cost model recording advertises:
//! one extra bounded queue per publisher, no extra encode.

use crate::error::RosError;
use crate::fastpath::LocalSinkHandle;
use crate::master::{Master, PublisherEndpoint};
use crate::node::NodeHandle;
use crate::wire::OutFrame;
use rossf_netsim::MachineId;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// State shared between the tap handle, the master's watcher, and the
/// per-publisher drain threads.
struct TapShared {
    master: Master,
    topic: String,
    type_name: String,
    machine: MachineId,
    cb: Box<dyn Fn(&OutFrame) + Send + Sync>,
    shutdown: AtomicBool,
    attached: AtomicU64,
    skipped: AtomicU64,
    frames_seen: AtomicU64,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// A live capture tap on one topic (see the module docs).
///
/// Dropping the tap detaches from every publisher and joins its drain
/// threads; publishers prune the dead attachment like any departed
/// fast-path subscriber.
pub struct RawFrameTap {
    shared: Arc<TapShared>,
    watch_id: u64,
}

impl std::fmt::Debug for RawFrameTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RawFrameTap")
            .field("topic", &self.shared.topic)
            .field("type_name", &self.shared.type_name)
            .field("attached", &self.attached())
            .field("skipped", &self.skipped())
            .field("frames_seen", &self.frames_seen())
            .finish()
    }
}

impl RawFrameTap {
    /// Attach a tap to `topic`, invoking `cb` for every frame published by
    /// any same-machine publisher (current and future). `type_name` must
    /// match the topic's registered message type.
    ///
    /// # Errors
    ///
    /// [`RosError::TypeMismatch`] if the topic already carries a different
    /// type.
    pub fn attach<F>(
        nh: &NodeHandle,
        topic: &str,
        type_name: &str,
        cb: F,
    ) -> Result<RawFrameTap, RosError>
    where
        F: Fn(&OutFrame) + Send + Sync + 'static,
    {
        let shared = Arc::new(TapShared {
            master: nh.master().clone(),
            topic: topic.to_string(),
            type_name: type_name.to_string(),
            machine: nh.machine(),
            cb: Box::new(cb),
            shutdown: AtomicBool::new(false),
            attached: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            frames_seen: AtomicU64::new(0),
            threads: Mutex::new(Vec::new()),
        });
        let watch_shared = Arc::clone(&shared);
        // Snapshot + watcher are atomic under the topic shard lock, so no
        // publisher is missed between the two.
        let (current, watch_id) = nh.master().register_subscriber_watch(
            topic,
            type_name,
            Arc::new(move |ep| {
                if watch_shared.shutdown.load(Ordering::Acquire) {
                    return false; // prunes the watcher
                }
                spawn_drain(&watch_shared, ep);
                true
            }),
        )?;
        for ep in current {
            spawn_drain(&shared, ep);
        }
        Ok(RawFrameTap { shared, watch_id })
    }

    /// Number of successful publisher attachments so far (re-attachments
    /// included). Callers that know the publisher count can poll this to
    /// ensure capture is live before publishing.
    pub fn attached(&self) -> u64 {
        self.shared.attached.load(Ordering::Acquire)
    }

    /// Publishers that could not be tapped (remote machine, fast path
    /// disabled, or capability refused). Their frames are not captured.
    pub fn skipped(&self) -> u64 {
        self.shared.skipped.load(Ordering::Acquire)
    }

    /// Frames delivered to the callback so far.
    pub fn frames_seen(&self) -> u64 {
        self.shared.frames_seen.load(Ordering::Acquire)
    }

    /// Wait until at least `publishers` attachments are live.
    pub fn wait_attached(&self, publishers: u64, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while self.attached() < publishers {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }
}

impl Drop for RawFrameTap {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared
            .master
            .unregister_subscriber(&self.shared.topic, self.watch_id);
        // A poisoned lock only means a drain thread panicked; still join
        // the rest rather than panicking (and aborting) in drop.
        let threads = match self.shared.threads.lock() {
            Ok(mut guard) => std::mem::take(&mut *guard),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        };
        for t in threads {
            let _ = t.join();
        }
    }
}

/// Spawn the drain thread for one publisher endpoint. Called from the
/// master's watcher (the registering publisher's thread) and from the
/// attach-time snapshot; must stay cheap.
fn spawn_drain(shared: &Arc<TapShared>, ep: PublisherEndpoint) {
    if ep.machine != shared.machine {
        // Remote publishers have no local port to tap. Recording them
        // would mean a TCP subscription (a copy), which the zero-copy
        // recorder refuses by design; the caller sees it in `skipped`.
        shared.skipped.fetch_add(1, Ordering::Release);
        return;
    }
    let thread_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("rossf-bag-tap".to_string())
        .spawn(move || drain_endpoint(thread_shared, ep));
    match spawned {
        Ok(handle) => shared.threads.lock().unwrap().push(handle),
        Err(_) => {
            shared.skipped.fetch_add(1, Ordering::Release);
        }
    }
}

/// Attach to one publisher and pump its frames into the callback until the
/// tap shuts down or the publisher unregisters, re-attaching across
/// transient failures.
fn drain_endpoint(shared: Arc<TapShared>, ep: PublisherEndpoint) {
    loop {
        // Relaxed-equivalent polling loop; Acquire pairs with Drop's store.
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Some(port) = shared.master.local_port(ep.id) else {
            // No local attach hook: either the publisher is gone, or it
            // never offered the fast path (enable_fastpath=false).
            if shared
                .master
                .lookup_publisher(&shared.topic, ep.id)
                .is_none()
            {
                return; // unregistered: nothing left to capture
            }
            shared.skipped.fetch_add(1, Ordering::Release);
            return;
        };
        // The same handshake a fast-path subscriber performs, so the
        // publisher-side validation and accounting are identical.
        match LocalSinkHandle::attach(port, &shared.topic, &shared.type_name, shared.machine) {
            Ok(sink) => {
                shared.attached.fetch_add(1, Ordering::Release);
                // One attachment's lifetime: every frame to the callback.
                sink.drain(&shared.shutdown, |frame| {
                    shared.frames_seen.fetch_add(1, Ordering::Release);
                    (shared.cb)(&frame);
                    ControlFlow::Continue(())
                });
            }
            Err(RosError::Rejected(_)) => {
                // Permanent refusal (capability/type): give up on this
                // publisher but keep the tap alive for others.
                shared.skipped.fetch_add(1, Ordering::Release);
                return;
            }
            // Transient (severed link, teardown in progress).
            Err(_) => {}
        }
        // Disconnected or transiently refused: re-attach while the
        // publisher stays registered (e.g. once a severed link heals),
        // otherwise stand down.
        if shared
            .master
            .lookup_publisher(&shared.topic, ep.id)
            .is_none()
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::PublisherOptions;
    use rossf_sfm::{SfmBox, SfmError, SfmMessage, SfmPod, SfmValidate, SfmVec};
    use std::sync::atomic::AtomicUsize;

    #[repr(C)]
    struct TapMsg {
        data: SfmVec<u8>,
    }
    unsafe impl SfmPod for TapMsg {}
    impl SfmValidate for TapMsg {
        fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
            self.data.validate_in(base, len)
        }
    }
    unsafe impl SfmMessage for TapMsg {
        fn type_name() -> &'static str {
            "test/TapMsg"
        }
        fn max_size() -> usize {
            256
        }
    }

    #[test]
    fn tap_sees_pointer_identical_frames() {
        let master = Master::new();
        let nh = NodeHandle::new(&master, "tap_test");
        let publisher =
            nh.advertise_with::<SfmBox<TapMsg>>("tap/cam", PublisherOptions::new().queue_size(8));
        let seen = Arc::new(Mutex::new(Vec::<(usize, usize)>::new()));
        let seen_cb = Arc::clone(&seen);
        let tap = RawFrameTap::attach(&nh, "tap/cam", "test/TapMsg", move |frame| {
            let slice = frame.as_slice();
            seen_cb
                .lock()
                .unwrap()
                .push((slice.as_ptr() as usize, slice.len()));
        })
        .unwrap();
        assert!(tap.wait_attached(1, Duration::from_secs(5)));

        let mut msg = SfmBox::<TapMsg>::new();
        msg.data.resize(8);
        let base = msg.base();
        publisher.publish(&msg);

        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while tap.frames_seen() < 1 {
            assert!(
                std::time::Instant::now() < deadline,
                "tap never saw the frame"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 1);
        assert_eq!(
            seen[0].0, base,
            "captured frame must alias the publisher's allocation (zero copy)"
        );
        assert!(seen[0].1 > 0);
    }

    #[test]
    fn tap_attaches_to_later_publishers_and_detaches_cleanly() {
        let master = Master::new();
        let nh = NodeHandle::new(&master, "tap_test2");
        let count = Arc::new(AtomicUsize::new(0));
        let count_cb = Arc::clone(&count);
        let tap = RawFrameTap::attach(&nh, "tap/late", "test/TapMsg", move |_| {
            count_cb.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        // Publisher arrives after the tap: the watcher must catch it.
        let publisher =
            nh.advertise_with::<SfmBox<TapMsg>>("tap/late", PublisherOptions::new().queue_size(8));
        assert!(tap.wait_attached(1, Duration::from_secs(5)));
        let mut msg = SfmBox::<TapMsg>::new();
        msg.data.resize(4);
        publisher.publish(&msg);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while count.load(Ordering::Relaxed) < 1 {
            assert!(std::time::Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(tap); // joins drain threads; publisher prunes the attachment
        publisher.publish(&msg);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(count.load(Ordering::Relaxed), 1, "no frames after detach");
    }

    #[test]
    fn type_mismatch_is_refused() {
        let master = Master::new();
        let nh = NodeHandle::new(&master, "tap_test3");
        let _publisher =
            nh.advertise_with::<SfmBox<TapMsg>>("tap/typed", PublisherOptions::new().queue_size(4));
        let err = RawFrameTap::attach(&nh, "tap/typed", "wrong/Type", |_| {}).unwrap_err();
        assert!(matches!(err, RosError::TypeMismatch { .. }));
    }
}
