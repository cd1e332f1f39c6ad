//! Intra-process transport (related work §2.1).
//!
//! When publisher and subscriber share one address space, no socket is
//! needed at all: the [`LocalBus`] hands the encoded frame to each local
//! subscriber directly, and the serialization-free
//! [`Decode::from_local_frame`] override turns that into true zero-copy
//! delivery — the subscriber's message *is* the publisher's buffer, held
//! alive by the reference counts of §4.2.
//!
//! This is the transport the `sfm_transport` ablation bench compares
//! against TCP loopback.

use crate::error::RosError;
use crate::options::SubscriberOptions;
use crate::traits::{Decode, Encode};
use crate::wire::OutFrame;
use parking_lot::RwLock;
use rossf_trace::{now_nanos, tracer, Stage, Tier, TopicTrace};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

type LocalDelivery = Arc<dyn Fn(&OutFrame) + Send + Sync>;

struct LocalTopic {
    type_name: &'static str,
    subscribers: Vec<(u64, LocalDelivery)>,
    /// Set when any subscription on this topic enabled tracing: `publish`
    /// then records the publish-side spans at [`Tier::Local`].
    trace: Option<Arc<TopicTrace>>,
}

struct BusInner {
    topics: RwLock<HashMap<String, LocalTopic>>,
    next_id: AtomicU64,
}

/// In-process publish/subscribe bus.
#[derive(Clone)]
pub struct LocalBus {
    inner: Arc<BusInner>,
}

impl Default for LocalBus {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalBus {
    /// Fresh bus.
    pub fn new() -> Self {
        LocalBus {
            inner: Arc::new(BusInner {
                topics: RwLock::new(HashMap::new()),
                next_id: AtomicU64::new(1),
            }),
        }
    }

    /// Register `callback` for messages on `topic`, taking the same
    /// [`SubscriberOptions`] the socket transport takes (only the tracing
    /// switch is meaningful here — there is no queue or transport config on
    /// the synchronous bus, and projection never applies in-process: the
    /// delivery is already zero-copy). Returns a guard; dropping it
    /// unsubscribes.
    ///
    /// # Errors
    ///
    /// [`RosError::TypeMismatch`] when the topic carries another type.
    pub fn subscribe_with<D, F>(
        &self,
        topic: &str,
        options: SubscriberOptions,
        callback: F,
    ) -> Result<LocalSubscription, RosError>
    where
        D: Decode,
        F: Fn(D) + Send + Sync + 'static,
    {
        let trace = if options.trace_enabled() {
            tracer().arm();
            Some(tracer().topic(topic))
        } else {
            None
        };
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let sub_trace = trace.clone();
        let deliver: LocalDelivery = Arc::new(move |frame| {
            let tag = frame.trace();
            let traced = if tag.id != 0 {
                sub_trace.as_deref()
            } else {
                None
            };
            let mut t_prev = tag.enqueued_ns;
            let decoded = D::from_local_frame(frame);
            if let Some(table) = traced {
                if decoded.is_ok() && t_prev != 0 {
                    // Synchronous dispatch: the hop from `publish` to here
                    // folds into `adopt` (there is no queue to dwell in).
                    let t = now_nanos();
                    tracer().span(table, Stage::Adopt, Tier::Local, tag.id, t_prev, t);
                    t_prev = t;
                }
            }
            if let Ok(msg) = decoded {
                callback(msg);
                if let Some(table) = traced {
                    let t = now_nanos();
                    tracer().span(table, Stage::Callback, Tier::Local, tag.id, t_prev, t);
                }
            }
        });
        let mut topics = self.inner.topics.write();
        let entry = topics
            .entry(topic.to_string())
            .or_insert_with(|| LocalTopic {
                type_name: D::topic_type(),
                subscribers: Vec::new(),
                trace: None,
            });
        if entry.type_name != D::topic_type() {
            return Err(RosError::TypeMismatch {
                topic: topic.to_string(),
                registered: entry.type_name.to_string(),
                attempted: D::topic_type().to_string(),
            });
        }
        if trace.is_some() {
            entry.trace = trace;
        }
        entry.subscribers.push((id, deliver));
        Ok(LocalSubscription {
            bus: self.clone(),
            topic: topic.to_string(),
            id,
        })
    }

    /// Publish `msg` to every local subscriber of `topic`, synchronously
    /// (delivery happens on the caller's thread, like roscpp's
    /// intra-process path).
    ///
    /// # Errors
    ///
    /// [`RosError::TypeMismatch`] when the topic carries another type.
    pub fn publish<M: Encode>(&self, topic: &str, msg: &M) -> Result<usize, RosError> {
        let topics = self.inner.topics.read();
        let Some(entry) = topics.get(topic) else {
            return Ok(0);
        };
        if entry.type_name != M::topic_type() {
            return Err(RosError::TypeMismatch {
                topic: topic.to_string(),
                registered: entry.type_name.to_string(),
                attempted: M::topic_type().to_string(),
            });
        }
        // Publish-side spans at the local tier, mirroring `Publisher::publish`:
        // one clock read brackets `encode`, `alloc` falls out of the buffer's
        // allocation timestamp. Untraced topics skip every clock read.
        let t_pub = entry.trace.as_ref().map(|_| now_nanos());
        let mut frame = msg.encode();
        if let (Some(table), Some(t0)) = (entry.trace.as_deref(), t_pub) {
            let t1 = now_nanos();
            let id = tracer().next_trace_id();
            let tag = frame.trace_mut();
            tag.id = id;
            if tag.born_ns != 0 && tag.born_ns <= t0 {
                tracer().span(table, Stage::Alloc, Tier::Local, id, tag.born_ns, t0);
            }
            tracer().span(table, Stage::Encode, Tier::Local, id, t0, t1);
            tag.enqueued_ns = t1;
        }
        for (_, deliver) in &entry.subscribers {
            deliver(&frame);
        }
        Ok(entry.subscribers.len())
    }

    /// Number of subscribers on `topic`.
    pub fn subscriber_count(&self, topic: &str) -> usize {
        self.inner
            .topics
            .read()
            .get(topic)
            .map_or(0, |t| t.subscribers.len())
    }

    fn unsubscribe(&self, topic: &str, id: u64) {
        if let Some(entry) = self.inner.topics.write().get_mut(topic) {
            entry.subscribers.retain(|(sid, _)| *sid != id);
        }
    }
}

impl std::fmt::Debug for LocalBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalBus")
            .field("topics", &self.inner.topics.read().len())
            .finish()
    }
}

/// Guard representing one live local subscription.
pub struct LocalSubscription {
    bus: LocalBus,
    topic: String,
    id: u64,
}

impl Drop for LocalSubscription {
    fn drop(&mut self) {
        self.bus.unsubscribe(&self.topic, self.id);
    }
}

impl std::fmt::Debug for LocalSubscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalSubscription")
            .field("topic", &self.topic)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rossf_sfm::{SfmBox, SfmError, SfmMessage, SfmPod, SfmShared, SfmValidate, SfmVec};
    use std::sync::atomic::AtomicUsize;

    #[repr(C)]
    #[derive(Debug)]
    struct Blob {
        data: SfmVec<u8>,
    }
    unsafe impl SfmPod for Blob {}
    impl SfmValidate for Blob {
        fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
            self.data.validate_in(base, len)
        }
    }
    unsafe impl SfmMessage for Blob {
        fn type_name() -> &'static str {
            "test/LocalBlob"
        }
        fn max_size() -> usize {
            1 << 16
        }
    }

    #[test]
    fn zero_copy_local_delivery() {
        let bus = LocalBus::new();
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let seen_cb = Arc::clone(&seen);
        let _sub = bus
            .subscribe_with(
                "blobs",
                SubscriberOptions::new(),
                move |m: SfmShared<Blob>| {
                    seen_cb.lock().push((m.base(), m.data.len()));
                },
            )
            .unwrap();

        let mut msg = SfmBox::<Blob>::new();
        msg.data.resize(100);
        let publisher_base = msg.base();
        let delivered = bus.publish("blobs", &msg).unwrap();
        assert_eq!(delivered, 1);
        let seen = seen.lock();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0], (publisher_base, 100), "same memory, no copy");
    }

    #[test]
    fn fan_out_and_unsubscribe() {
        let bus = LocalBus::new();
        let count = Arc::new(AtomicUsize::new(0));
        let c1 = Arc::clone(&count);
        let c2 = Arc::clone(&count);
        let s1 = bus
            .subscribe_with("t", SubscriberOptions::new(), move |_m: SfmShared<Blob>| {
                c1.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        let _s2 = bus
            .subscribe_with("t", SubscriberOptions::new(), move |_m: SfmShared<Blob>| {
                c2.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(bus.subscriber_count("t"), 2);

        let msg = SfmBox::<Blob>::new();
        assert_eq!(bus.publish("t", &msg).unwrap(), 2);
        assert_eq!(count.load(Ordering::SeqCst), 2);

        drop(s1);
        assert_eq!(bus.subscriber_count("t"), 1);
        assert_eq!(bus.publish("t", &msg).unwrap(), 1);
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn publish_without_subscribers_is_zero() {
        let bus = LocalBus::new();
        let msg = SfmBox::<Blob>::new();
        assert_eq!(bus.publish("nobody", &msg).unwrap(), 0);
    }

    #[test]
    fn type_mismatch_rejected() {
        #[repr(C)]
        #[derive(Debug)]
        struct Other {
            x: u32,
        }
        unsafe impl SfmPod for Other {}
        impl SfmValidate for Other {
            fn validate_in(&self, _b: usize, _l: usize) -> Result<(), SfmError> {
                Ok(())
            }
        }
        unsafe impl SfmMessage for Other {
            fn type_name() -> &'static str {
                "test/LocalOther"
            }
            fn max_size() -> usize {
                64
            }
        }

        let bus = LocalBus::new();
        let _sub = bus
            .subscribe_with("t2", SubscriberOptions::new(), |_m: SfmShared<Blob>| {})
            .unwrap();
        let other = SfmBox::<Other>::new();
        assert!(matches!(
            bus.publish("t2", &other),
            Err(RosError::TypeMismatch { .. })
        ));
        assert!(bus
            .subscribe_with("t2", SubscriberOptions::new(), |_m: SfmShared<Other>| {})
            .is_err());
        assert!(format!("{bus:?}").contains("LocalBus"));
    }
}
