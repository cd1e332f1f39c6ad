//! `NodeHandle` — the entry point of the paper's program pattern (Fig. 3).

use crate::config::TransportConfig;
use crate::error::RosError;
use crate::master::Master;
use crate::options::{PublisherOptions, SubscriberOptions};
use crate::publisher::Publisher;
use crate::subscriber::Subscriber;
use crate::traits::{Decode, Encode};
use rossf_netsim::MachineId;
use std::time::{Duration, Instant};

/// Handle representing a ROS node: a named participant on one simulated
/// machine, through which topics are advertised and subscribed.
///
/// ```
/// use rossf_ros::{Master, NodeHandle, MachineId};
///
/// let master = Master::new();
/// let nh = NodeHandle::new(&master, "pub_node");
/// let remote = NodeHandle::with_machine(&master, "trans_node", MachineId::B);
/// assert_eq!(nh.name(), "pub_node");
/// assert_eq!(remote.machine(), MachineId::B);
/// ```
#[derive(Debug, Clone)]
pub struct NodeHandle {
    master: Master,
    name: String,
    machine: MachineId,
    config: TransportConfig,
}

impl NodeHandle {
    /// Create a node on the default machine (machine A).
    pub fn new(master: &Master, name: &str) -> Self {
        Self::with_machine(master, name, MachineId::A)
    }

    /// Create a node on a specific simulated machine. Traffic between
    /// machines is shaped per the master's link table.
    pub fn with_machine(master: &Master, name: &str, machine: MachineId) -> Self {
        Self::with_config(master, name, machine, TransportConfig::default())
    }

    /// Create a node with explicit transport tunables. Every publisher and
    /// subscriber created through this handle, and every service, uses
    /// `config`: it is the one layer those knobs are set in, so endpoints
    /// that need different ones are made through different nodes.
    pub fn with_config(
        master: &Master,
        name: &str,
        machine: MachineId,
        config: TransportConfig,
    ) -> Self {
        NodeHandle {
            master: master.clone(),
            name: name.to_string(),
            machine,
            config,
        }
    }

    /// Node name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Simulated machine this node runs on.
    pub fn machine(&self) -> MachineId {
        self.machine
    }

    /// The master this node registered with.
    pub fn master(&self) -> &Master {
        &self.master
    }

    /// The transport tunables publishers and subscribers created through
    /// this handle use.
    pub fn transport_config(&self) -> &TransportConfig {
        &self.config
    }

    /// Declare a topic and obtain a publisher for it (the paper's Fig. 3
    /// `advertise`). [`PublisherOptions`] carries the queue size and the
    /// tracing switch; the transport tunables are this node's.
    ///
    /// # Panics
    ///
    /// Panics if the topic already carries a different message type or the
    /// listener socket cannot be created; use
    /// [`NodeHandle::try_advertise_with`] to handle those cases.
    pub fn advertise_with<M: Encode>(
        &self,
        topic: &str,
        options: PublisherOptions,
    ) -> Publisher<M> {
        self.try_advertise_with(topic, options)
            .unwrap_or_else(|e| panic!("advertise({topic}) failed: {e}"))
    }

    /// Fallible variant of [`NodeHandle::advertise_with`].
    ///
    /// # Errors
    ///
    /// [`RosError::TypeMismatch`] or [`RosError::Io`].
    pub fn try_advertise_with<M: Encode>(
        &self,
        topic: &str,
        options: PublisherOptions,
    ) -> Result<Publisher<M>, RosError> {
        Publisher::create_with(
            &self.master,
            topic,
            options,
            self.machine,
            self.config.clone(),
        )
    }

    /// Register `callback` for messages on `topic` (the paper's Fig. 3
    /// `subscribe`). The callback runs on the process's event-loop
    /// thread, receiving the decoded message — an `Arc<M>` for plain
    /// messages or an [`SfmShared`](rossf_sfm::SfmShared) for
    /// serialization-free ones. [`SubscriberOptions`] carries the tracing
    /// switch and the field projection ([`SubscriberOptions::project`]);
    /// the transport tunables are this node's.
    ///
    /// # Panics
    ///
    /// Panics on type mismatch or an unresolvable projection; use
    /// [`NodeHandle::try_subscribe_with`] to handle it.
    pub fn subscribe_with<D: Decode, F>(
        &self,
        topic: &str,
        options: SubscriberOptions,
        callback: F,
    ) -> Subscriber<D>
    where
        F: Fn(D) + Send + Sync + 'static,
    {
        self.try_subscribe_with(topic, options, callback)
            .unwrap_or_else(|e| panic!("subscribe({topic}) failed: {e}"))
    }

    /// Fallible variant of [`NodeHandle::subscribe_with`].
    ///
    /// # Errors
    ///
    /// [`RosError::TypeMismatch`]; [`RosError::Projection`] when a
    /// requested field projection does not resolve against the message
    /// type's schema.
    pub fn try_subscribe_with<D: Decode, F>(
        &self,
        topic: &str,
        options: SubscriberOptions,
        callback: F,
    ) -> Result<Subscriber<D>, RosError>
    where
        F: Fn(D) + Send + Sync + 'static,
    {
        Subscriber::create_with(
            &self.master,
            topic,
            options,
            self.machine,
            self.config.clone(),
            callback,
        )
    }

    /// Advertise a request/response service (`rosservice` style). The
    /// handler runs on the process's one event-loop thread, as a
    /// subscription callback does (DESIGN §9): it must be short, and must
    /// not wait for anything the loop delivers — a slow handler delays
    /// every link in the process.
    ///
    /// # Errors
    ///
    /// [`RosError::Rejected`] if the name is taken; I/O errors binding.
    pub fn advertise_service<Req, Res, F>(
        &self,
        name: &str,
        handler: F,
    ) -> Result<crate::service::ServiceServer, RosError>
    where
        Req: crate::Decode,
        Res: crate::Encode + 'static,
        F: Fn(Req) -> Res + Send + Sync + 'static,
    {
        crate::service::ServiceServer::advertise::<Req, Res, F>(self, name, handler)
    }

    /// Connect a client to a service advertised on this master.
    ///
    /// # Errors
    ///
    /// [`RosError::Rejected`] if the service does not exist or the types
    /// mismatch.
    pub fn service_client<Req, Res>(
        &self,
        name: &str,
    ) -> Result<crate::service::ServiceClient<Req, Res>, RosError>
    where
        Req: crate::Encode,
        Res: crate::Decode,
    {
        crate::service::ServiceClient::connect(self, name)
    }

    /// Block until `publisher` has at least `n` connected subscribers
    /// (handshakes complete), or 5 seconds elapse.
    ///
    /// # Panics
    ///
    /// Panics on timeout — connection problems in a benchmark should be
    /// loud, not measured.
    pub fn wait_for_subscribers<M: Encode>(&self, publisher: &Publisher<M>, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while publisher.subscriber_count() < n {
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {n} subscribers on {}",
                publisher.topic()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}
