//! The ROS master: the registry connecting publishers and subscribers.
//!
//! Real ROS1 runs `roscore` as a separate process speaking XML-RPC; the
//! experiments in the paper only need its *matchmaking* function, so this
//! master is an in-process registry shared by every simulated node (the
//! nodes still exchange message data over real TCP sockets, like roscpp).
//! It additionally owns the [`LinkTable`] that assigns link shaping to
//! cross-machine connections.

use crate::error::RosError;
use crate::metrics::MetricsRegistry;
use crate::publisher::PubCore;
use parking_lot::Mutex;
use rossf_netsim::{LinkTable, MachineId};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Lock shards for the topic table. Registration, lookup, and
/// unregistration during connection churn each touch one shard, so a soak
/// with hundreds of topics joining and leaving concurrently contends on
/// 1/16th of the registry instead of one global lock.
const SHARDS: usize = 16;

/// Shard index for a topic name.
fn topic_shard(topic: &str) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    topic.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

/// Callback notified of each future publisher on a watched topic.
/// Returning `false` declares the watcher dead; the master prunes it.
pub(crate) type WatchFn = Arc<dyn Fn(PublisherEndpoint) -> bool + Send + Sync>;

/// Where a publisher for a topic accepts subscriber connections.
/// Endpoints are equal when their address, machine and id are.
#[derive(Debug, Clone)]
pub struct PublisherEndpoint {
    /// TCP address of the publisher's listener.
    pub addr: SocketAddr,
    /// Simulated machine the publisher runs on.
    pub machine: MachineId,
    /// Unique id of the publisher registration.
    pub id: u64,
    /// The publisher's core, which a same-process subscriber attaches to
    /// on the zero-copy fast path; it does not upgrade for a publisher in
    /// another process, one without the fast path, or one already gone.
    /// `Weak`, so no endpoint keeps a dropped publisher alive.
    pub(crate) port: Weak<PubCore>,
}

impl PartialEq for PublisherEndpoint {
    fn eq(&self, other: &Self) -> bool {
        (self.addr, self.machine, self.id) == (other.addr, other.machine, other.id)
    }
}

impl Eq for PublisherEndpoint {}

struct TopicEntry {
    type_name: String,
    publishers: Vec<PublisherEndpoint>,
    watchers: Vec<(u64, WatchFn)>,
}

struct MasterInner {
    /// Topic registry, hash-sharded by topic name: all state for one topic
    /// lives in exactly one shard's map.
    topics: [Mutex<HashMap<String, TopicEntry>>; SHARDS],
    links: LinkTable,
    services: crate::service::ServiceRegistry,
    metrics: MetricsRegistry,
    next_id: AtomicU64,
}

/// Handle to the shared in-process master. Cloning is cheap; all clones
/// address the same registry.
#[derive(Clone)]
pub struct Master {
    inner: Arc<MasterInner>,
}

impl Default for Master {
    fn default() -> Self {
        Self::new()
    }
}

impl Master {
    /// Fresh, empty master with an unshaped link table.
    pub fn new() -> Self {
        Master {
            inner: Arc::new(MasterInner {
                topics: std::array::from_fn(|_| Mutex::new(HashMap::new())),
                links: LinkTable::new(),
                services: crate::service::ServiceRegistry::default(),
                metrics: MetricsRegistry::new(),
                next_id: AtomicU64::new(1),
            }),
        }
    }

    /// The simulated network between machines; configure before creating
    /// cross-machine subscriptions.
    pub fn links(&self) -> &LinkTable {
        &self.inner.links
    }

    /// The service registry (request/response endpoints).
    pub fn services(&self) -> &crate::service::ServiceRegistry {
        &self.inner.services
    }

    /// Every topic's transport counters: the sum of what each of its
    /// endpoints counted (`stats()`), those gone included. Dump with
    /// [`MetricsRegistry::render`] after an experiment.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    fn fresh_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Register a publisher of `type_name` on `topic`, listening at `addr`.
    /// Existing and future subscribers are pointed at it.
    ///
    /// # Errors
    ///
    /// [`RosError::TypeMismatch`] if the topic already carries a different
    /// type.
    pub fn register_publisher(
        &self,
        topic: &str,
        type_name: &str,
        addr: SocketAddr,
        machine: MachineId,
    ) -> Result<u64, RosError> {
        self.register_publisher_local(topic, type_name, addr, machine, Weak::new())
    }

    /// Register a publisher that *additionally* offers its core as a
    /// same-process port for the zero-copy fast path: the endpoint every
    /// subscriber learns, through the snapshot or a watcher, carries it.
    ///
    /// # Errors
    ///
    /// As [`Master::register_publisher`].
    pub(crate) fn register_publisher_local(
        &self,
        topic: &str,
        type_name: &str,
        addr: SocketAddr,
        machine: MachineId,
        port: Weak<PubCore>,
    ) -> Result<u64, RosError> {
        let shard = &self.inner.topics[topic_shard(topic)];
        let id = self.fresh_id();
        let ep = PublisherEndpoint {
            addr,
            machine,
            id,
            port,
        };
        // Snapshot the watcher callbacks under the shard lock but *invoke*
        // them outside it: a callback may call back into the master or do
        // real work, neither of which may hold up other registrations on
        // this shard.
        let watchers: Vec<(u64, WatchFn)> = {
            let mut topics = shard.lock();
            let entry = topics
                .entry(topic.to_string())
                .or_insert_with(|| TopicEntry {
                    type_name: type_name.to_string(),
                    publishers: Vec::new(),
                    watchers: Vec::new(),
                });
            if entry.type_name != type_name {
                return Err(RosError::TypeMismatch {
                    topic: topic.to_string(),
                    registered: entry.type_name.clone(),
                    attempted: type_name.to_string(),
                });
            }
            entry.publishers.push(ep.clone());
            entry
                .watchers
                .iter()
                .map(|(wid, w)| (*wid, Arc::clone(w)))
                .collect()
        };
        let dead: Vec<u64> = watchers
            .iter()
            .filter(|(_, w)| !w(ep.clone()))
            .map(|(wid, _)| *wid)
            .collect();
        if !dead.is_empty() {
            if let Some(entry) = shard.lock().get_mut(topic) {
                entry.watchers.retain(|(wid, _)| !dead.contains(wid));
            }
        }
        Ok(id)
    }

    /// Remove a publisher registration (called when the publisher drops).
    pub fn unregister_publisher(&self, topic: &str, id: u64) {
        if let Some(entry) = self.inner.topics[topic_shard(topic)].lock().get_mut(topic) {
            entry.publishers.retain(|p| p.id != id);
        }
    }

    /// Register interest in `topic`: returns the current publishers plus a
    /// watcher id, and invokes `watch` for every publisher that registers
    /// later. The callback runs on the registering publisher's thread,
    /// outside any master lock — it may call back into the master, but it
    /// must not block for long. Returning `false` unregisters the watcher.
    ///
    /// Snapshot and watcher installation are atomic under the topic's
    /// shard lock, so no concurrently registering publisher is either
    /// missed or delivered twice.
    ///
    /// # Errors
    ///
    /// [`RosError::TypeMismatch`] if the topic already carries a different
    /// type.
    pub(crate) fn register_subscriber_watch(
        &self,
        topic: &str,
        type_name: &str,
        watch: WatchFn,
    ) -> Result<(Vec<PublisherEndpoint>, u64), RosError> {
        let id = self.fresh_id();
        let mut topics = self.inner.topics[topic_shard(topic)].lock();
        let entry = topics
            .entry(topic.to_string())
            .or_insert_with(|| TopicEntry {
                type_name: type_name.to_string(),
                publishers: Vec::new(),
                watchers: Vec::new(),
            });
        if entry.type_name != type_name {
            return Err(RosError::TypeMismatch {
                topic: topic.to_string(),
                registered: entry.type_name.clone(),
                attempted: type_name.to_string(),
            });
        }
        entry.watchers.push((id, watch));
        Ok((entry.publishers.clone(), id))
    }

    /// Remove a subscriber watcher (called when the subscriber drops). The
    /// watcher callback is dropped, ending its notification stream.
    pub fn unregister_subscriber(&self, topic: &str, id: u64) {
        if let Some(entry) = self.inner.topics[topic_shard(topic)].lock().get_mut(topic) {
            entry.watchers.retain(|(wid, _)| *wid != id);
        }
    }

    /// The endpoint of publisher registration `id` on `topic`, if it is
    /// still registered. Subscriber supervisors poll this after a
    /// connection dies: `Some` means the publisher should be reachable
    /// again (reconnect with backoff); `None` means it unregistered and the
    /// supervisor can stand down (a replacement arrives through the
    /// watcher callback with a fresh id).
    pub fn lookup_publisher(&self, topic: &str, id: u64) -> Option<PublisherEndpoint> {
        self.inner.topics[topic_shard(topic)]
            .lock()
            .get(topic)
            .and_then(|e| e.publishers.iter().find(|p| p.id == id).cloned())
    }

    /// Message type currently registered for `topic`, if any.
    pub fn topic_type(&self, topic: &str) -> Option<String> {
        self.inner.topics[topic_shard(topic)]
            .lock()
            .get(topic)
            .map(|e| e.type_name.clone())
    }

    /// Number of live publishers on `topic`.
    pub fn publisher_count(&self, topic: &str) -> usize {
        self.inner.topics[topic_shard(topic)]
            .lock()
            .get(topic)
            .map_or(0, |e| e.publishers.len())
    }

    /// Names of all known topics, sorted. Locks each shard in turn — the
    /// view is per-shard consistent, not a global atomic snapshot.
    pub fn topic_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .topics
            .iter()
            .flat_map(|s| s.lock().keys().cloned().collect::<Vec<_>>())
            .collect();
        names.sort();
        names
    }

    /// Render the current graph (topics, publisher/subscriber counts,
    /// services) as Graphviz DOT — a `rqt_graph`-style snapshot.
    pub fn graph_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph rossf {\n  rankdir=LR;\n");
        {
            // Collect per-topic stats shard by shard, then emit sorted so
            // the rendering is stable regardless of shard assignment.
            let mut rows: Vec<(String, String, usize, usize)> = self
                .inner
                .topics
                .iter()
                .flat_map(|s| {
                    s.lock()
                        .iter()
                        .map(|(name, e)| {
                            (
                                name.clone(),
                                e.type_name.clone(),
                                e.publishers.len(),
                                e.watchers.len(),
                            )
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            rows.sort();
            for (name, type_name, pubs, subs) in rows {
                let _ = writeln!(
                    out,
                    "  \"{name}\" [shape=box, label=\"{name}\\n{type_name}\\npubs={pubs} subs={subs}\"];",
                );
            }
        }
        for service in self.services().names() {
            let _ = writeln!(
                out,
                "  \"{service}\" [shape=ellipse, label=\"{service}\\n(service)\"];"
            );
        }
        out.push_str("}\n");
        out
    }
}

impl std::fmt::Debug for Master {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Master")
            .field("topics", &self.topic_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A watcher that ignores every later publisher.
    fn ignore() -> WatchFn {
        Arc::new(|_| true)
    }

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn publisher_then_subscriber_sees_endpoint() {
        let m = Master::new();
        let id = m
            .register_publisher("t", "sensor_msgs/Image", addr(1000), MachineId::A)
            .unwrap();
        let (eps, _sid) = m
            .register_subscriber_watch("t", "sensor_msgs/Image", ignore())
            .unwrap();
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].id, id);
        assert_eq!(m.publisher_count("t"), 1);
    }

    #[test]
    fn subscriber_then_publisher_notified_via_channel() {
        let m = Master::new();
        let (tx, rx) = mpsc::channel();
        let watch = Arc::new(move |ep| tx.send(ep).is_ok());
        let (eps, _sid) = m.register_subscriber_watch("t", "T", watch).unwrap();
        assert!(eps.is_empty());
        let id = m
            .register_publisher("t", "T", addr(1234), MachineId::B)
            .unwrap();
        let ep = rx.recv_timeout(std::time::Duration::from_secs(1)).unwrap();
        assert_eq!(ep.id, id);
        assert_eq!(ep.machine, MachineId::B);
    }

    #[test]
    fn type_mismatch_rejected_both_directions() {
        let m = Master::new();
        m.register_publisher("t", "A", addr(1), MachineId::A)
            .unwrap();
        assert!(matches!(
            m.register_publisher("t", "B", addr(2), MachineId::A),
            Err(RosError::TypeMismatch { .. })
        ));
        assert!(matches!(
            m.register_subscriber_watch("t", "B", ignore()),
            Err(RosError::TypeMismatch { .. })
        ));
        assert_eq!(m.topic_type("t").unwrap(), "A");
    }

    #[test]
    fn unregister_publisher_removes_endpoint() {
        let m = Master::new();
        let id = m
            .register_publisher("t", "T", addr(1), MachineId::A)
            .unwrap();
        assert_eq!(m.lookup_publisher("t", id).unwrap().addr, addr(1));
        m.unregister_publisher("t", id);
        assert_eq!(m.publisher_count("t"), 0);
        assert!(m.lookup_publisher("t", id).is_none());
        assert!(m.lookup_publisher("missing", id).is_none());
    }

    #[test]
    fn metrics_registry_is_shared_across_clones() {
        let m = Master::new();
        let m2 = m.clone();
        let endpoint = m.metrics().register("t");
        endpoint
            .frames_sent
            .fetch_add(4, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(m2.metrics().topic("t").frames_sent, 4);
    }

    #[test]
    fn unregister_subscriber_closes_watcher_channel() {
        let m = Master::new();
        let (tx, rx) = mpsc::channel::<PublisherEndpoint>();
        let watch = Arc::new(move |ep| tx.send(ep).is_ok());
        let (_, sid) = m.register_subscriber_watch("t", "T", watch).unwrap();
        m.unregister_subscriber("t", sid);
        // Watcher dropped with its sender → receiver sees disconnect.
        assert!(rx.recv().is_err());
    }

    #[test]
    fn topic_names_sorted() {
        let m = Master::new();
        m.register_publisher("zeta", "T", addr(1), MachineId::A)
            .unwrap();
        m.register_publisher("alpha", "T", addr(2), MachineId::A)
            .unwrap();
        assert_eq!(
            m.topic_names(),
            vec!["alpha".to_string(), "zeta".to_string()]
        );
        assert!(format!("{m:?}").contains("alpha"));
    }

    #[test]
    fn graph_dot_lists_topics_and_services() {
        let m = Master::new();
        m.register_publisher("camera/image", "sensor_msgs/Image", addr(1), MachineId::A)
            .unwrap();
        m.services()
            .register(
                "add_two_ints",
                crate::service::ServiceEndpoint {
                    addr: addr(2),
                    req_type: "a".into(),
                    res_type: "b".into(),
                    id: 1,
                },
            )
            .unwrap();
        let dot = m.graph_dot();
        assert!(dot.starts_with("digraph rossf {"));
        assert!(dot.contains("camera/image"));
        assert!(dot.contains("sensor_msgs/Image"));
        assert!(dot.contains("pubs=1"));
        assert!(dot.contains("add_two_ints"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn clones_share_state() {
        let m = Master::new();
        let m2 = m.clone();
        m.register_publisher("t", "T", addr(1), MachineId::A)
            .unwrap();
        assert_eq!(m2.publisher_count("t"), 1);
    }
}
