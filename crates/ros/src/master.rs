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
use crossbeam::channel::{unbounded, Receiver};
use parking_lot::Mutex;
use rossf_netsim::{LinkTable, MachineId};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Lock shards for the topic and local-port tables. Registration,
/// lookup, and unregistration during connection churn each touch one
/// shard, so a soak with hundreds of topics joining and leaving
/// concurrently contends on 1/16th of the registry instead of one global
/// lock.
const SHARDS: usize = 16;

/// Shard index for a topic name.
fn topic_shard(topic: &str) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    topic.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

/// Shard index for a registration id.
fn id_shard(id: u64) -> usize {
    id as usize % SHARDS
}

/// Callback notified of each future publisher on a watched topic.
/// Returning `false` declares the watcher dead; the master prunes it.
pub(crate) type WatchFn = Arc<dyn Fn(PublisherEndpoint) -> bool + Send + Sync>;

/// Where a publisher for a topic accepts subscriber connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublisherEndpoint {
    /// TCP address of the publisher's listener.
    pub addr: SocketAddr,
    /// Simulated machine the publisher runs on.
    pub machine: MachineId,
    /// Unique id of the publisher registration.
    pub id: u64,
}

struct TopicEntry {
    type_name: String,
    publishers: Vec<PublisherEndpoint>,
    watchers: Vec<(u64, WatchFn)>,
}

struct MasterInner {
    /// Topic registry, hash-sharded by topic name: all state for one topic
    /// lives in exactly one shard's map.
    topics: [Mutex<HashMap<String, TopicEntry>>; SHARDS],
    /// Registration id → the publisher core a same-process subscriber
    /// attaches to on the zero-copy fast path, sharded by id. `Weak` so a
    /// dropped publisher vanishes without a round-trip; each shard is
    /// locked independently of (and never nested with) any `topics` shard.
    local_ports: [Mutex<HashMap<u64, Weak<PubCore>>>; SHARDS],
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
                local_ports: std::array::from_fn(|_| Mutex::new(HashMap::new())),
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

    /// Per-topic transport metrics for everything registered with this
    /// master. Dump with [`MetricsRegistry::render`] after an experiment.
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
        let id = self.fresh_id();
        self.register_with_id(topic, type_name, addr, machine, id)?;
        Ok(id)
    }

    /// Register a publisher that *additionally* exposes its core as a
    /// same-process port for the zero-copy fast path. The port is visible through
    /// [`Master::local_port`] before any watcher learns the endpoint, so a
    /// notified subscriber can never observe the registration without it.
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
        let id = self.fresh_id();
        {
            let mut ports = self.inner.local_ports[id_shard(id)].lock();
            // Prune entries whose publisher core is already gone while the
            // shard lock is held anyway — a publisher that died without a
            // clean unregister (panicked teardown) must not pin map entries
            // forever. Per-shard: siblings in other shards are pruned when
            // *their* shard is next touched.
            ports.retain(|_, p| p.strong_count() != 0);
            ports.insert(id, port);
        }
        match self.register_with_id(topic, type_name, addr, machine, id) {
            Ok(()) => Ok(id),
            Err(e) => {
                self.inner.local_ports[id_shard(id)].lock().remove(&id);
                Err(e)
            }
        }
    }

    fn register_with_id(
        &self,
        topic: &str,
        type_name: &str,
        addr: SocketAddr,
        machine: MachineId,
        id: u64,
    ) -> Result<(), RosError> {
        let shard = &self.inner.topics[topic_shard(topic)];
        let ep = PublisherEndpoint { addr, machine, id };
        // Snapshot the watcher callbacks under the shard lock but *invoke*
        // them outside it: a callback may call back into the master (e.g.
        // to look up a fast-path port) or do real work, neither of which
        // may hold up other registrations on this shard.
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
        Ok(())
    }

    /// The core of publisher registration `id`, if the publisher registered
    /// a same-process port and is still alive. `None` means the subscriber
    /// must use TCP (remote endpoint or fast path disabled).
    pub(crate) fn local_port(&self, id: u64) -> Option<Arc<PubCore>> {
        let mut ports = self.inner.local_ports[id_shard(id)].lock();
        // Same pruning as registration: lookups are the other hot moment
        // a shard is locked, so dead `Weak`s never outlive the shard's
        // next touch.
        ports.retain(|_, p| p.strong_count() != 0);
        ports.get(&id).and_then(Weak::upgrade)
    }

    /// Remove a publisher registration (called when the publisher drops).
    pub fn unregister_publisher(&self, topic: &str, id: u64) {
        if let Some(entry) = self.inner.topics[topic_shard(topic)].lock().get_mut(topic) {
            entry.publishers.retain(|p| p.id != id);
        }
        self.inner.local_ports[id_shard(id)].lock().remove(&id);
    }

    /// Register interest in `topic`: returns the current publishers, a
    /// channel yielding future ones, and a watcher id for
    /// [`Master::unregister_subscriber`]. A convenience wrapper over the
    /// crate's watcher-callback registration for callers that want to poll
    /// a channel; the channel's send doubles as the watcher's liveness.
    ///
    /// # Errors
    ///
    /// [`RosError::TypeMismatch`] if the topic already carries a different
    /// type.
    pub fn register_subscriber(
        &self,
        topic: &str,
        type_name: &str,
    ) -> Result<(Vec<PublisherEndpoint>, Receiver<PublisherEndpoint>, u64), RosError> {
        let (tx, rx) = unbounded();
        let (eps, id) = self.register_subscriber_watch(
            topic,
            type_name,
            Arc::new(move |ep| tx.send(ep).is_ok()),
        )?;
        Ok((eps, rx, id))
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
    /// supervisor can stand down (a replacement arrives via the watcher
    /// channel with a fresh id).
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
    use crate::config::TransportConfig;
    use crate::options::PublisherOptions;
    use crate::publisher::Publisher;
    use crate::traits::{Encode, TopicType};
    use crate::wire::OutFrame;

    fn addr(port: u16) -> SocketAddr {
        format!("127.0.0.1:{port}").parse().unwrap()
    }

    #[test]
    fn publisher_then_subscriber_sees_endpoint() {
        let m = Master::new();
        let id = m
            .register_publisher("t", "sensor_msgs/Image", addr(1000), MachineId::A)
            .unwrap();
        let (eps, _rx, _sid) = m.register_subscriber("t", "sensor_msgs/Image").unwrap();
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].id, id);
        assert_eq!(m.publisher_count("t"), 1);
    }

    #[test]
    fn subscriber_then_publisher_notified_via_channel() {
        let m = Master::new();
        let (eps, rx, _sid) = m.register_subscriber("t", "T").unwrap();
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
            m.register_subscriber("t", "B"),
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
        m.metrics()
            .topic("t")
            .frames_sent
            .store(4, std::sync::atomic::Ordering::Relaxed);
        assert_eq!(m2.metrics().topic("t").snapshot().frames_sent, 4);
    }

    #[test]
    fn unregister_subscriber_closes_watcher_channel() {
        let m = Master::new();
        let (_, rx, sid) = m.register_subscriber("t", "T").unwrap();
        m.unregister_subscriber("t", sid);
        // Channel sender dropped → receiver sees disconnect.
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

    /// A publisher core held by nothing but the returned `Arc`: its
    /// `Publisher` handle is gone, and it registered with a scratch master.
    fn lone_core() -> Arc<PubCore> {
        struct T;
        impl TopicType for T {
            fn topic_type() -> &'static str {
                "T"
            }
        }
        impl Encode for T {
            fn encode(&self) -> OutFrame {
                unreachable!("nothing is published")
            }
        }
        let scratch = Master::new();
        let options = PublisherOptions::new();
        let config = TransportConfig::default();
        let publisher = Publisher::<T>::create_with(&scratch, "t", options, MachineId::A, config)
            .expect("advertise on a scratch master");
        let (eps, _, _) = scratch.register_subscriber("t", "T").unwrap();
        let core = scratch.local_port(eps[0].id);
        drop(publisher);
        core.expect("the fast path registers a local port")
    }

    /// Total entries across every local-port shard.
    fn local_port_count(m: &Master) -> usize {
        m.inner.local_ports.iter().map(|s| s.lock().len()).sum()
    }

    /// Regression: a publisher core that dies without a clean
    /// `unregister_publisher` (panicked teardown, leaked id) leaves a dead
    /// `Weak` in the local-port map; both lookup and registration prune
    /// such entries so no shard's map grows without bound. Pruning is
    /// per-shard — a dead entry vanishes the next time *its* shard is
    /// touched, so the test drives lookups/registrations landing in the
    /// dead entries' own shards (ids are sequential; `SHARDS` apart means
    /// same shard).
    #[test]
    fn dead_local_port_entries_are_pruned() {
        let m = Master::new();
        let live = lone_core();
        let dead = lone_core();
        let live_id = m
            .register_publisher_local("t", "T", addr(1), MachineId::A, Arc::downgrade(&live))
            .unwrap();
        let dead_id = m
            .register_publisher_local("t", "T", addr(2), MachineId::A, Arc::downgrade(&dead))
            .unwrap();
        assert_eq!(local_port_count(&m), 2);

        // Kill one core without unregistering, then look it up: the dead
        // entry is pruned from its shard as a side effect (the lookup
        // itself misses because the `Weak` no longer upgrades).
        drop(dead);
        assert!(m.local_port(live_id).is_some());
        assert!(m.local_port(dead_id).is_none());
        assert_eq!(local_port_count(&m), 1);

        // Registration prunes its shard too: kill the remaining core and
        // register fresh ones until one lands in the dead entry's shard —
        // at that point the stale `Weak` is gone without any lookup.
        drop(live);
        let fresh = lone_core();
        let mut fresh_count = 0;
        loop {
            let id = m
                .register_publisher_local("t", "T", addr(3), MachineId::A, Arc::downgrade(&fresh))
                .unwrap();
            fresh_count += 1;
            if id_shard(id) == id_shard(live_id) {
                break;
            }
        }
        assert_eq!(local_port_count(&m), fresh_count);
    }
}
