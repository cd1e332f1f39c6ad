//! Raw frame taps: observe a topic's already-encoded [`OutFrame`]s with
//! zero encode and zero copy.
//!
//! A [`RawFrameTap`] is the capture primitive under the bag recorder
//! (`rossf_bag::Recorder`). It attaches to every same-machine publisher of
//! a topic through the same local attach the fast path uses, so the frames
//! it observes are the publisher's own `Arc`'d transmission-queue entries —
//! pointer-identical to what live subscribers adopt, with no serialization
//! or payload copy on the capture side.
//!
//! A tap is an *observer*, not a subscriber: it does not decode, does not
//! count toward delivery metrics, and its link has no fault gate — capture
//! wants ground truth of what the publisher emitted, not what a lossy link
//! let through, so a severed link neither refuses nor cuts a tap: only
//! the publisher's departure, or the tap's, ends an attachment. Publishers
//! still see it as one more fast-path attachment, which is exactly the
//! cost model recording advertises: one extra bounded queue per publisher,
//! no extra encode.

use crate::error::RosError;
use crate::master::{Master, PublisherEndpoint};
use crate::node::NodeHandle;
use crate::publisher::{Pop, QueueRx};
use crate::subscriber::FRAMES_PER_DISPATCH;
use crate::wire::OutFrame;
use parking_lot::Mutex;
use rossf_netsim::MachineId;
use rossf_reactor::{runtime, Ctl, Event, Handler, Token};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

type Callback = Box<dyn Fn(&OutFrame) + Send + Sync>;

/// State shared between the tap handle, the master's watcher, and the
/// per-publisher links on the reactor.
struct TapShared {
    master: Master,
    topic: String,
    type_name: String,
    machine: MachineId,
    /// The capture callback, run under this lock; `Drop` empties it under
    /// the same lock, so once `drop` returns the callback has run for the
    /// last time and everything it captured is released. `None` is the
    /// tap's shutdown flag.
    cb: Mutex<Option<Callback>>,
    attached: AtomicU64,
    frames_seen: AtomicU64,
    /// Reactor registrations of the live per-publisher links.
    links: Mutex<Vec<Token>>,
}

/// A live capture tap on one topic (see the module docs).
///
/// Dropping the tap detaches from every publisher — no callback runs once
/// `drop` has returned — and publishers prune the dead attachment like any
/// departed fast-path subscriber.
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
            .field("frames_seen", &self.frames_seen())
            .finish()
    }
}

impl RawFrameTap {
    /// Attach a tap to `topic`, invoking `cb` for every frame published by
    /// any same-machine publisher (current and future). `type_name` must
    /// match the topic's registered message type. `cb` runs on the
    /// process's event loop, like a subscriber callback, and must be as
    /// short: hand the frame on, do not work on it.
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
            cb: Mutex::new(Some(Box::new(cb))),
            attached: AtomicU64::new(0),
            frames_seen: AtomicU64::new(0),
            links: Mutex::new(Vec::new()),
        });
        let watch_shared = Arc::clone(&shared);
        // Snapshot + watcher are atomic under the topic shard lock, so no
        // publisher is missed between the two.
        let (current, watch_id) = nh.master().register_subscriber_watch(
            topic,
            type_name,
            Arc::new(move |ep| {
                if watch_shared.cb.lock().is_none() {
                    return false; // prunes the watcher
                }
                start_link(&watch_shared, ep);
                true
            }),
        )?;
        for ep in current {
            start_link(&shared, ep);
        }
        Ok(RawFrameTap { shared, watch_id })
    }

    /// Number of successful publisher attachments so far. Callers that know
    /// the publisher count can poll this to ensure capture is live before
    /// publishing.
    pub fn attached(&self) -> u64 {
        self.shared.attached.load(Ordering::Acquire)
    }

    /// Frames the callback has returned from so far: a caller that reads
    /// `n` sees what the first `n` calls did.
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
        // Waits out a callback in flight on the loop thread; none starts
        // after it.
        *self.shared.cb.lock() = None;
        self.shared
            .master
            .unregister_subscriber(&self.shared.topic, self.watch_id);
        // Each link's queue end goes with its handler, which is the event
        // the publisher's `subscriber_count` falls on. A link the watcher
        // registers after this sweep finds no callback at its first event.
        let reactor = runtime().reactor;
        for token in self.shared.links.lock().drain(..) {
            reactor.deregister(token);
        }
    }
}

/// Attach to one publisher endpoint and put the link on the reactor.
/// Called from the master's watcher (the registering publisher's thread)
/// and from the attach-time snapshot.
fn start_link(shared: &Arc<TapShared>, ep: PublisherEndpoint) {
    // Remote publishers have no local port to tap. Recording them would
    // mean a TCP subscription (a copy), which the zero-copy recorder
    // refuses by design.
    if ep.machine != shared.machine {
        return;
    }
    let reactor = runtime().reactor;
    let token = reactor.reserve();
    // The attach a fast-path subscriber makes, so the publisher-side
    // validation and accounting are identical — but for a link without a
    // fault gate. A port that does not upgrade means the publisher is gone,
    // or never offered the fast path (enable_fastpath=false); a refusal
    // (the type) gives up on this publisher but keeps the tap alive for
    // others.
    let attached = ep
        .port
        .upgrade()
        .map(|port| port.attach_local(&shared.type_name, token, true));
    let Some(Ok((queue, _))) = attached else {
        return;
    };
    shared.links.lock().push(token);
    shared.attached.fetch_add(1, Ordering::Release);
    let link = TapLink {
        shared: Arc::clone(shared),
        queue,
    };
    reactor.attach(token, Box::new(link));
}

/// One publisher's attachment as a reactor handler: pump every frame the
/// publisher deposits into the callback. The publisher notifies this
/// handler's token after each deposit, and once more when it goes.
struct TapLink {
    shared: Arc<TapShared>,
    /// The drainer's half of the publisher's queue for this tap; it ends
    /// the link when this handler goes.
    queue: QueueRx,
}

impl TapLink {
    /// Stand down for good: this publisher has nothing (more) to capture.
    fn leave(&mut self, ctl: &mut Ctl) {
        self.shared.links.lock().retain(|t| *t != ctl.token());
        ctl.close();
    }
}

impl Handler for TapLink {
    fn on_event(&mut self, _event: Event, ctl: &mut Ctl) {
        // Held for the dispatch: `Drop` waits it out, and finds no callback
        // running afterwards.
        let shared = Arc::clone(&self.shared);
        let cb = shared.cb.lock();
        let Some(cb) = cb.as_ref() else {
            return self.leave(ctl);
        };
        for _ in 0..FRAMES_PER_DISPATCH {
            match self.queue.pop() {
                Pop::Frame(frame) => {
                    cb(&frame);
                    // Release, after the callback: pairs with the Acquire in
                    // `frames_seen`, whose reader then finds its work done.
                    shared.frames_seen.fetch_add(1, Ordering::Release);
                }
                Pop::Empty => return,
                // Nothing cuts a tap's link: the publisher is gone.
                Pop::Ended => return self.leave(ctl),
            }
        }
        // Batch cap hit with frames remaining: yield the shared loop.
        ctl.notify_self();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{PublisherOptions, SubscriberOptions};
    use rossf_sfm::{SfmBox, SfmError, SfmMessage, SfmPod, SfmShared, SfmValidate, SfmVec};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;
    use std::time::Instant;

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
        drop(tap); // no callback past this point; publisher prunes the attachment
        publisher.publish(&msg);
        assert_eq!(count.load(Ordering::Relaxed), 1, "no frames after detach");
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timeout waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The capture is ground truth (module docs): on a link whose frame 1
    /// is dropped and frame 2 delayed, a tap beside the subscriber captures
    /// every frame the publisher emitted, in order and at once, while the
    /// subscriber loses frame 1 and waits out frame 2's delay.
    #[test]
    fn tap_captures_what_a_faulty_link_drops_or_delays() {
        const DELAY: Duration = Duration::from_millis(200);
        let master = Master::new();
        let fault = master.links().inject(MachineId::A, MachineId::A);
        fault.drop_frame(1);
        fault.delay_frame(2, DELAY);
        let nh = NodeHandle::new(&master, "tap_faults");
        let publisher = nh
            .advertise_with::<SfmBox<TapMsg>>("tap/faulty", PublisherOptions::new().queue_size(8));
        let tapped = Arc::new(Mutex::new(Vec::<usize>::new()));
        let tapped_cb = Arc::clone(&tapped);
        let tap = RawFrameTap::attach(&nh, "tap/faulty", "test/TapMsg", move |frame| {
            let base = frame.as_slice().as_ptr() as usize;
            tapped_cb.lock().unwrap().push(base);
        })
        .unwrap();
        let received = Arc::new(Mutex::new(Vec::<usize>::new()));
        let received_cb = Arc::clone(&received);
        let _sub = nh.subscribe_with(
            "tap/faulty",
            SubscriberOptions::new(),
            move |m: SfmShared<TapMsg>| received_cb.lock().unwrap().push(m.base()),
        );
        assert!(tap.wait_attached(1, Duration::from_secs(5)));
        nh.wait_for_subscribers(&publisher, 2);

        let msgs: Vec<SfmBox<TapMsg>> = (0..5)
            .map(|_| {
                let mut m = SfmBox::<TapMsg>::new();
                m.data.resize(4);
                m
            })
            .collect();
        let bases: Vec<usize> = msgs.iter().map(|m| m.base()).collect();
        let start = Instant::now();
        for m in &msgs {
            publisher.publish(m);
        }
        wait_until("the tap captured every frame", || {
            tapped.lock().unwrap().len() == bases.len()
        });
        let meanwhile = received.lock().unwrap().clone();
        if start.elapsed() < DELAY {
            assert!(
                meanwhile.iter().all(|b| *b == bases[0]),
                "the subscriber waits out the delay: {meanwhile:?}"
            );
        }
        assert_eq!(*tapped.lock().unwrap(), bases, "every frame, in order");
        wait_until("the subscriber's surviving frames", || {
            received.lock().unwrap().len() == 4
        });
        let survivors = [bases[0], bases[2], bases[3], bases[4]];
        assert_eq!(*received.lock().unwrap(), survivors);
    }

    /// A tap's link has no gate from its first moment: a tap attached
    /// while the loopback link is severed is neither refused nor cut, and
    /// captures what the publisher emits during the sever.
    #[test]
    fn a_severed_link_neither_refuses_nor_starves_a_tap() {
        let master = Master::new();
        let fault = master.links().inject(MachineId::A, MachineId::A);
        fault.sever_now();
        let nh = NodeHandle::new(&master, "tap_severed");
        let publisher = nh
            .advertise_with::<SfmBox<TapMsg>>("tap/severed", PublisherOptions::new().queue_size(8));
        let count = Arc::new(AtomicUsize::new(0));
        let count_cb = Arc::clone(&count);
        let tap = RawFrameTap::attach(&nh, "tap/severed", "test/TapMsg", move |_| {
            count_cb.fetch_add(1, Ordering::Relaxed);
        })
        .unwrap();
        assert!(
            tap.wait_attached(1, Duration::from_secs(1)),
            "the severed link refused the tap"
        );
        let mut msg = SfmBox::<TapMsg>::new();
        msg.data.resize(4);
        for _ in 0..3 {
            publisher.publish(&msg);
        }
        wait_until(
            "the tap captured the frames published during the sever",
            || count.load(Ordering::Relaxed) == 3,
        );
        assert!(fault.is_severed());
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
