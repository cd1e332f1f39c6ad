//! ROS services: the request/response half of the ROS1 API.
//!
//! The paper optimizes the publish/subscribe path, but a credible ROS
//! substrate also serves `rosservice`-style calls; and the same
//! [`Encode`]/[`Decode`] machinery makes service payloads
//! serialization-free when the request/response types are SFM messages.
//!
//! Protocol: one TCP connection per client, a connection-header handshake
//! (`service=`, `req_type=`, `res_type=`), then strictly alternating
//! length-prefixed request/response frames.
//!
//! The server side is event-driven like the pub/sub tiers: the listener
//! and every client connection, handshake included, are nonblocking state
//! machines on the process-wide [reactor](rossf_reactor) — the acceptor,
//! handshake, frame reader and write queue a TCP topic link uses — and the
//! handler runs on the loop thread too, inline, under the rule a
//! subscription callback follows (DESIGN §9): it must be short, and must
//! not wait for anything the loop has to deliver. The synchronous
//! [`ServiceClient`] blocks in the *caller's* thread — it owns no thread of
//! its own.

use crate::error::RosError;
use crate::master::Master;
use crate::node::NodeHandle;
use crate::tier::tcp::{
    check_frame_len, dial, grow_socket_buffers, Acceptor, Flush, FrameReader, Pending, Setup, Step,
    WriteQueue,
};
use crate::traits::{Decode, Encode, RecvSlot};
use crate::wire::{read_frame_len, write_frame, ConnectionHeader, OutFrame, MAX_FRAME_LEN};
use parking_lot::Mutex;
use rossf_reactor::{runtime, Ctl, Event, Handler};
use std::collections::HashMap;
use std::io::{BufReader, Read};
use std::marker::PhantomData;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// Where a service server accepts client connections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceEndpoint {
    /// TCP address of the server's listener.
    pub addr: SocketAddr,
    /// Request type name.
    pub req_type: String,
    /// Response type name.
    pub res_type: String,
    /// Registration id.
    pub id: u64,
}

/// Master-side service registry (held by [`Master`]).
#[derive(Debug, Default)]
pub struct ServiceRegistry {
    services: Mutex<HashMap<String, ServiceEndpoint>>,
}

impl ServiceRegistry {
    /// Register a server. Errors if the name is taken.
    ///
    /// # Errors
    ///
    /// [`RosError::Rejected`] when the service name is already registered.
    pub fn register(&self, name: &str, ep: ServiceEndpoint) -> Result<(), RosError> {
        let mut services = self.services.lock();
        if services.contains_key(name) {
            return Err(RosError::Rejected(format!(
                "service `{name}` already advertised"
            )));
        }
        services.insert(name.to_string(), ep);
        Ok(())
    }

    /// Remove a registration by id.
    pub fn unregister(&self, name: &str, id: u64) {
        let mut services = self.services.lock();
        if services.get(name).is_some_and(|ep| ep.id == id) {
            services.remove(name);
        }
    }

    /// Look up a service by name.
    pub fn lookup(&self, name: &str) -> Option<ServiceEndpoint> {
        self.services.lock().get(name).cloned()
    }

    /// Names of all registered services, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.services.lock().keys().cloned().collect();
        names.sort();
        names
    }
}

struct ServerCore {
    name: String,
    master: Master,
    registration: u64,
    calls: AtomicU64,
    /// The acceptor's reactor registration, deregistered on drop (which
    /// drops the listener and closes it).
    listener_token: OnceLock<rossf_reactor::Token>,
}

impl Drop for ServerCore {
    fn drop(&mut self) {
        self.master
            .services()
            .unregister(&self.name, self.registration);
        if let Some(token) = self.listener_token.get() {
            runtime().reactor.deregister(*token);
        }
    }
}

/// A live service server; dropping it withdraws the service.
pub struct ServiceServer {
    core: Arc<ServerCore>,
}

impl ServiceServer {
    /// Advertise `name` on `nh`, serving requests with `handler`.
    ///
    /// `Req` is what arrives (e.g. `Arc<M>` or `SfmShared<T>`); `Res` is
    /// what the handler returns (e.g. a plain message or `SfmBox<T>`).
    ///
    /// # Errors
    ///
    /// [`RosError::Rejected`] if the name is taken, or I/O errors binding
    /// the listener.
    pub fn advertise<Req, Res, F>(
        nh: &NodeHandle,
        name: &str,
        handler: F,
    ) -> Result<ServiceServer, RosError>
    where
        Req: Decode,
        Res: Encode + 'static,
        F: Fn(Req) -> Res + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        let registration = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        nh.master().services().register(
            name,
            ServiceEndpoint {
                addr,
                req_type: Req::topic_type().to_string(),
                res_type: Res::topic_type().to_string(),
                id: registration,
            },
        )?;
        let core = Arc::new(ServerCore {
            name: name.to_string(),
            master: nh.master().clone(),
            registration,
            calls: AtomicU64::new(0),
            listener_token: OnceLock::new(),
        });
        // Clients are accepted, handshaken and served on the shared event
        // loop, each connection bounded at first by the node's handshake
        // timeout. Only a weak core reference rides along, so an orphaned
        // acceptor cannot keep a dropped server alive.
        let (weak, handler) = (Arc::downgrade(&core), Arc::new(handler));
        let timeout = nh.transport_config().handshake_timeout;
        let token = Acceptor::register(listener, timeout, move || {
            // The `ServiceServer` gone takes the listener along.
            (weak.strong_count() > 0).then(|| SvcAccept::<Req, Res, F> {
                core: weak.clone(),
                handler: Arc::clone(&handler),
                _marker: PhantomData,
            })
        });
        let _ = core.listener_token.set(token);
        Ok(ServiceServer { core })
    }

    /// Requests served so far.
    pub fn calls(&self) -> u64 {
        // ORDER: pairs with the SeqCst fetch_add in `reply_frame` — a
        // caller that has received a response must observe its count.
        self.core.calls.load(Ordering::SeqCst)
    }

    /// The service name.
    pub fn name(&self) -> &str {
        &self.core.name
    }
}

/// The server's side of a client's connection setup, on the loop: the
/// client's header must name this service's types, and the connection
/// then carries on as a [`SvcConn`].
struct SvcAccept<Req, Res, F> {
    core: Weak<ServerCore>,
    handler: Arc<F>,
    _marker: PhantomData<fn(Req) -> Res>,
}

impl<Req, Res, F> Setup for SvcAccept<Req, Res, F>
where
    Req: Decode,
    Res: Encode + 'static,
    F: Fn(Req) -> Res + Send + Sync + 'static,
{
    fn answer(&mut self, header: &ConnectionHeader) -> Result<Option<ConnectionHeader>, RosError> {
        // A server gone meanwhile hangs up without a word.
        let gone = || RosError::Io(std::io::ErrorKind::ConnectionAborted.into());
        let core = self.core.upgrade().ok_or_else(gone)?;
        let want_req = header.get("req_type").unwrap_or_default();
        let want_res = header.get("res_type").unwrap_or_default();
        if want_req != Req::topic_type() || want_res != Res::topic_type() {
            let types = format!(
                "service types are {}/{}",
                Req::topic_type(),
                Res::topic_type()
            );
            return Ok(Some(ConnectionHeader::new().with("error", types)));
        }
        let reply = ConnectionHeader::new()
            .with("service", &core.name)
            .with("endian", ConnectionHeader::native_endian());
        Ok(Some(reply))
    }

    fn establish(self, stream: TcpStream, _header: ConnectionHeader, ctl: &mut Ctl) {
        let Some(core) = self.core.upgrade() else {
            return ctl.close();
        };
        grow_socket_buffers(&stream);
        let conn: SvcConn<Req, Res, F> = SvcConn::new(stream, &core, self.handler);
        ctl.handover(true, false, Box::new(conn));
    }
}

/// The reply to a served request: count the call, then encode the response
/// (for a serialization-free message this only clones the buffer pointer).
/// `None` once the server is gone: hang up.
fn reply_frame(core: &Weak<ServerCore>, response: &impl Encode) -> Option<OutFrame> {
    let core = core.upgrade()?;
    // ORDER: the count must be globally visible before the reply bytes hit
    // the wire so `calls()` read after a response is never behind it.
    core.calls.fetch_add(1, Ordering::SeqCst);
    Some(response.encode())
}

/// One client connection as a reactor state machine — a [`FrameReader`]
/// and a [`WriteQueue`], like a topic link. The protocol is strictly
/// alternating, so the machine is too: read one request, run the handler
/// inline, queue the response, and read the next only once it is on the
/// wire — read interest is off while a response waits for a writable
/// socket. One request is served per dispatch, so a client that pipelines
/// its requests cannot hold the loop from every other link.
struct SvcConn<Req: Decode, Res, F> {
    stream: TcpStream,
    /// Only a weak core reference, so idle clients never block server drop.
    core: Weak<ServerCore>,
    handler: Arc<F>,
    reader: FrameReader<Req>,
    /// The response being written (at most one: requests are not read
    /// while it drains).
    out: WriteQueue,
    /// The (readable, writable) interest currently registered, tracked to
    /// skip no-op updates.
    interest: (bool, bool),
    _marker: PhantomData<fn() -> Res>,
}

impl<Req, Res, F> Handler for SvcConn<Req, Res, F>
where
    Req: Decode,
    Res: Encode + 'static,
    F: Fn(Req) -> Res + Send + Sync + 'static,
{
    fn on_event(&mut self, _event: Event, ctl: &mut Ctl) {
        // Even `Closed` pumps: a response in flight still gets its write
        // attempted (the failure, if any, arrives as a write error), and
        // reads drain to a definite EOF.
        self.reader.wake();
        match self.out.flush(&mut &self.stream, drop) {
            Flush::Blocked => return self.set_interest(false, true, ctl),
            Flush::Dead => return ctl.close(),
            // A response is never paced, so nothing is ever held.
            Flush::Drained | Flush::Held(_) => {}
        }
        match self.reader.advance(&mut &self.stream) {
            Ok(Step::Frame { slot, .. }) => {
                let reply = Req::finish_slot(slot).ok().and_then(|request| {
                    let frame = reply_frame(&self.core, &(self.handler)(request))?;
                    // `None` for a response the prefix cannot describe.
                    Pending::new(frame, None).ok()
                });
                let Some(reply) = reply else {
                    return ctl.close();
                };
                self.out.push(reply);
                // The response goes out, and the next request is read, on
                // the next turn of the loop.
                ctl.notify_self();
            }
            Ok(Step::Idle) => self.set_interest(true, false, ctl),
            // The client hung up — or sent a request the transport or the
            // type cannot hold: a strictly alternating stream cannot be
            // resynced behind a request that gets no response.
            Ok(Step::Eof | Step::Oversized) | Err(_) => ctl.close(),
        }
    }
}

impl<Req, Res, F> SvcConn<Req, Res, F>
where
    Req: Decode,
    Res: Encode + 'static,
    F: Fn(Req) -> Res + Send + Sync + 'static,
{
    /// The serving half of a handshaken, nonblocking `stream`, to be
    /// registered with read interest.
    fn new(stream: TcpStream, core: &Arc<ServerCore>, handler: Arc<F>) -> Self {
        SvcConn {
            stream,
            core: Arc::downgrade(core),
            handler,
            reader: FrameReader::new(MAX_FRAME_LEN, 0),
            out: WriteQueue::default(),
            interest: (true, false),
            _marker: PhantomData,
        }
    }

    fn set_interest(&mut self, readable: bool, writable: bool, ctl: &mut Ctl) {
        if self.interest != (readable, writable) {
            self.interest = (readable, writable);
            ctl.set_interest(readable, writable);
        }
    }
}

/// A connected service client.
pub struct ServiceClient<Req: Encode, Res: Decode> {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    service: String,
    _marker: PhantomData<fn(&Req) -> Res>,
}

impl<Req: Encode, Res: Decode> ServiceClient<Req, Res> {
    /// Connect to service `name` through `nh`'s master.
    ///
    /// # Errors
    ///
    /// [`RosError::Rejected`] if the service does not exist, refuses the
    /// types, or runs on the other endianness; I/O errors on connect, or
    /// when the server does not answer the handshake within the node's
    /// `handshake_timeout`.
    pub fn connect(nh: &NodeHandle, name: &str) -> Result<Self, RosError> {
        let ep = nh
            .master()
            .services()
            .lookup(name)
            .ok_or_else(|| RosError::Rejected(format!("no such service `{name}`")))?;
        if ep.req_type != Req::topic_type() || ep.res_type != Res::topic_type() {
            return Err(RosError::TypeMismatch {
                topic: name.to_string(),
                registered: format!("{}/{}", ep.req_type, ep.res_type),
                attempted: format!("{}/{}", Req::topic_type(), Res::topic_type()),
            });
        }
        let request = ConnectionHeader::new()
            .with("service", name)
            .with("req_type", Req::topic_type())
            .with("res_type", Res::topic_type());
        let timeout = nh.transport_config().handshake_timeout;
        let stream = dial(ep.addr, &request, timeout)?;
        Ok(ServiceClient {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            stream,
            service: name.to_string(),
            _marker: PhantomData,
        })
    }

    /// Invoke the service synchronously.
    ///
    /// # Errors
    ///
    /// I/O errors if the server goes away mid-call; decode errors on a
    /// malformed response; [`RosError::FrameTooLarge`] for a response
    /// prefix above [`MAX_FRAME_LEN`] — rejected before anything
    /// is allocated, and the connection is shut down (the stream cannot be
    /// trusted to be in sync anymore).
    pub fn call(&mut self, request: &Req) -> Result<Res, RosError> {
        let frame = request.encode();
        write_frame(&mut self.stream, frame.as_slice())?;
        let len = read_frame_len(&mut self.reader)?.ok_or_else(|| {
            RosError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "service closed before responding",
            ))
        })?;
        let len = check_frame_len(len, MAX_FRAME_LEN).inspect_err(|_| {
            let _ = self.stream.shutdown(Shutdown::Both);
        })?;
        let mut slot = Res::new_slot(len)?;
        self.reader.read_exact(slot.as_mut_slice())?;
        Res::finish_slot(slot)
    }

    /// The service name this client is bound to.
    pub fn service(&self) -> &str {
        &self.service
    }
}

impl<Req: Encode, Res: Decode> std::fmt::Debug for ServiceClient<Req, Res> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceClient")
            .field("service", &self.service)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{TopicType, VecSlot};
    use rossf_reactor::Reactor;
    use rossf_sfm::{SfmBox, SfmError, SfmMessage, SfmPod, SfmValidate, SfmVec};
    use std::io::{IoSlice, Write};
    use std::os::fd::AsRawFd;
    use std::time::Duration;

    /// One little-endian `u32` as a message, either direction.
    struct Word(u32);

    impl TopicType for Word {
        fn topic_type() -> &'static str {
            "test/Word"
        }
    }

    impl Encode for Word {
        fn encode(&self) -> OutFrame {
            OutFrame::owned(Arc::new(self.0.to_le_bytes().to_vec()))
        }
    }

    impl Decode for Word {
        type Slot = VecSlot;

        fn new_slot(len: usize) -> Result<VecSlot, RosError> {
            Ok(VecSlot::new(len))
        }

        fn finish_slot(slot: VecSlot) -> Result<Self, RosError> {
            let bytes = slot.as_slice().try_into();
            let bytes = bytes.map_err(|_| RosError::BadHeader("not a word".into()))?;
            Ok(Word(u32::from_le_bytes(bytes)))
        }
    }

    #[repr(C)]
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
            "test/SvcBlob"
        }
        fn max_size() -> usize {
            (1 << 20) + 64
        }
    }

    fn test_core() -> Arc<ServerCore> {
        Arc::new(ServerCore {
            name: "test".to_string(),
            master: Master::new(),
            registration: 0,
            calls: AtomicU64::new(0),
            listener_token: OnceLock::new(),
        })
    }

    /// Counts the events a connection is dispatched.
    struct CountDispatches<H> {
        conn: H,
        dispatches: Arc<AtomicU64>,
    }

    impl<H: Handler> Handler for CountDispatches<H> {
        fn on_event(&mut self, event: Event, ctl: &mut Ctl) {
            self.dispatches.fetch_add(1, Ordering::Relaxed);
            self.conn.on_event(event, ctl);
        }
    }

    /// A client that sends request 2 before reply 1 is served in order, one
    /// request per dispatch: both replies arrive, and the connection is
    /// dispatched a handful of times in all.
    #[test]
    fn a_pipelining_client_does_not_spin_the_loop() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let fd = stream.as_raw_fd();
        let core = test_core();
        let handler = Arc::new(|req: Word| {
            std::thread::sleep(Duration::from_millis(50));
            Word(req.0 + 1)
        });
        let dispatches = Arc::new(AtomicU64::new(0));
        let counted = CountDispatches {
            conn: SvcConn::<Word, Word, _>::new(stream, &core, handler),
            dispatches: Arc::clone(&dispatches),
        };
        let reactor = Reactor::new("test-svc-pipeline");
        reactor.register(fd, true, false, Box::new(counted));

        // Request 2 lands while handler 1 runs — after the read that took
        // request 1, or the reader's buffer would have swallowed both.
        write_frame(&mut client, &10u32.to_le_bytes()).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        write_frame(&mut client, &20u32.to_le_bytes()).unwrap();
        let mut replies = [0u8; 16];
        client.read_exact(&mut replies).unwrap();

        let mut expected = Vec::new();
        write_frame(&mut expected, &11u32.to_le_bytes()).unwrap();
        write_frame(&mut expected, &21u32.to_le_bytes()).unwrap();
        assert_eq!(replies[..], expected[..]);
        assert_eq!(core.calls.load(Ordering::SeqCst), 2);
        let seen = dispatches.load(Ordering::Relaxed);
        assert!(seen <= 8, "{seen} dispatches for two pipelined requests");
        reactor.shutdown();
    }

    /// Records where the slices of each vectored write point.
    #[derive(Default)]
    struct SliceLog(Vec<(usize, usize)>);

    impl Write for SliceLog {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            unreachable!("the write queue only writes vectored")
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.0
                .extend(bufs.iter().map(|b| (b.as_ptr() as usize, b.len())));
            Ok(bufs.iter().map(|b| b.len()).sum())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The reply to a served request, then the queueing the connection
    /// does with it: a 1 MB serialization-free response reaches the socket
    /// as two slices — the prefix, and the handler's own buffer (pointer
    /// identity, as on the fast path). No user-space copy.
    #[test]
    fn a_serialization_free_response_is_not_copied() {
        let core = test_core();
        let mut response = SfmBox::<Blob>::new();
        response.data.resize(1 << 20);
        let frame = reply_frame(&Arc::downgrade(&core), &response).expect("a live server replies");
        let mut out = WriteQueue::default();
        out.push(Pending::new(frame, None).unwrap());
        let mut wire = SliceLog::default();
        assert!(matches!(out.flush(&mut wire, drop), Flush::Drained));
        assert!(out.is_empty());
        let len = response.whole_len();
        assert!(len > 1 << 20);
        assert_eq!(wire.0.len(), 2, "prefix and payload: {:?}", wire.0);
        assert_eq!(wire.0[0].1, 4);
        assert_eq!(wire.0[1], (response.base(), len));
    }
}
