//! # rossf-reactor — one event loop for every link in the process
//!
//! The transport used to spend one or two dedicated threads per
//! connection (a blocking reader, a queue-draining writer, a ring or
//! queue consumer). That caps the node graph at hundreds of endpoints; the
//! ROADMAP north star is thousands. This crate replaces thread-per-link
//! with the classic reactor shape:
//!
//! * **one reactor thread** per process runs a readiness loop
//!   ([`rossf_sys::Poller`], raw `epoll`) over *all* registered
//!   nonblocking sockets and dispatches [`Event`]s to per-link
//!   [`Handler`] state machines — including links that have no socket at
//!   all ([`Reactor::attach`]: the in-process fast path, driven purely by
//!   [`Reactor::notify`] and timers);
//! * **a fixed job pool** ([`JobPool`]) absorbs the blocking edges —
//!   connects, connection-header handshakes, supervision steps — so the
//!   reactor thread itself never blocks on anything but the poll;
//! * **cross-thread wakeups** go through a single eventfd, watched
//!   edge-triggered: enqueuing work for a link from any thread is
//!   [`Reactor::notify`] — a push onto the pending list, plus one counter
//!   bump *only when the loop is (about to be) blocked*. The loop announces
//!   a block through a [`WakeGate`], re-checks both queues, and only then
//!   waits; producers that queue while it is busy pay no syscall, and
//!   nothing ever reads the counter (the kernel's edge clears the
//!   wake-up). The handshake is model-checked in `tests/model.rs`;
//! * **timers** (pacing, fault delays, reconnect backoff) ride the poll
//!   timeout with sub-millisecond precision — the loop thread drops its
//!   timer slack from the kernel's default 50 µs to 1 ns — so netsim's
//!   50 µs propagation delays stay accurate without sleeping the loop;
//! * **peer death is an event**: hangup/error readiness is delivered as
//!   [`Event::Closed`], so supervision is *triggered* instead of
//!   discovering failures via blocking-read errors.
//!
//! Handlers own their socket; the reactor only borrows the raw fd while
//! the registration lives. All dispatch happens on the reactor thread, so
//! handler state needs no locking.

#![deny(missing_docs)]

mod pool;
mod sync;
mod wake;

pub use pool::JobPool;
pub use wake::WakeGate;

use parking_lot::Mutex;
use rossf_sys::{PollEvent, Poller, WakeFd};
use std::collections::{BinaryHeap, HashMap};
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Identifies one registration (socket + handler) on a [`Reactor`].
/// Tokens are never reused within a reactor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(u64);

impl Token {
    /// The raw token value (stable diagnostic identity).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The token a [`Token::raw`] value named. Only meaningful inside the
    /// process that issued it; a value no registration carries is a token
    /// nobody listens on, and notifying it does nothing.
    pub fn from_raw(raw: u64) -> Token {
        Token(raw)
    }
}

/// Why a [`Handler`] is being dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// The socket has data (or EOF) to read.
    Readable,
    /// The socket can accept writes again (only delivered while write
    /// interest is enabled via [`Ctl::set_interest`]).
    Writable,
    /// Peer hangup or socket error: the link is dead. Delivered after any
    /// final `Readable` so trailing bytes can still be drained.
    Closed,
    /// Another thread called [`Reactor::notify`] for this token (new
    /// frames were enqueued for a writer, shutdown was requested, …).
    Notify,
    /// A timer armed with [`Ctl::arm_timer`] fired.
    Timer,
}

/// A per-link state machine driven by the reactor thread.
///
/// Handlers own their socket (dropping the handler closes it) and must
/// only perform nonblocking I/O plus bounded computation: the loop is
/// shared by every link in the process.
pub trait Handler: Send {
    /// React to `event`. Use `ctl` to adjust interest, arm timers, or
    /// close this registration.
    fn on_event(&mut self, event: Event, ctl: &mut Ctl<'_>);
}

/// Per-dispatch control surface handed to [`Handler::on_event`].
/// Operations are applied by the loop after the handler returns.
pub struct Ctl<'a> {
    reactor: &'a Reactor,
    token: Token,
    close: bool,
    interest: Option<(bool, bool)>,
    timers: Vec<Duration>,
}

impl Ctl<'_> {
    /// The reactor this handler runs on (for notifying *other* tokens or
    /// arming free-standing timers).
    pub fn reactor(&self) -> &Reactor {
        self.reactor
    }

    /// This handler's token.
    pub fn token(&self) -> Token {
        self.token
    }

    /// Replace the interest set: whether `Readable` / `Writable` events
    /// are wanted. Hangup is always delivered.
    pub fn set_interest(&mut self, readable: bool, writable: bool) {
        self.interest = Some((readable, writable));
    }

    /// Deregister this handler once the dispatch returns: the poller
    /// forgets the fd and the handler (with its socket) is dropped.
    pub fn close(&mut self) {
        self.close = true;
    }

    /// Dispatch this handler again with [`Event::Notify`] after the other
    /// ready links had their turn — how a handler that hit its per-dispatch
    /// batch cap yields the shared loop without losing its place.
    pub fn notify_self(&self) {
        self.reactor.notify(self.token);
    }

    /// Deliver [`Event::Timer`] to this handler after `after`.
    pub fn arm_timer(&mut self, after: Duration) {
        self.timers.push(after);
    }
}

enum TimerTarget {
    Token(Token),
    Callback(Box<dyn FnOnce(&Reactor) + Send>),
}

struct TimerSlot {
    deadline: Instant,
    seq: u64,
    target: TimerTarget,
}

impl PartialEq for TimerSlot {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl Eq for TimerSlot {}
impl PartialOrd for TimerSlot {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerSlot {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // deadline on top.
        (other.deadline, other.seq).cmp(&(self.deadline, self.seq))
    }
}

enum Cmd {
    Register {
        token: Token,
        /// `None` for a handler driven by notifies and timers alone.
        fd: Option<RawFd>,
        readable: bool,
        writable: bool,
        handler: Box<dyn Handler>,
    },
    Deregister(Token),
    Timer {
        after: Duration,
        cb: Box<dyn FnOnce(&Reactor) + Send>,
    },
    Shutdown,
}

struct Shared {
    cmds: Mutex<Vec<Cmd>>,
    /// Tokens with a pending [`Event::Notify`], in arrival order. May hold
    /// duplicates; the loop de-duplicates the batch it takes.
    notifies: Mutex<Vec<u64>>,
    waker: WakeFd,
    /// Whether a producer has to bump `waker`.
    gate: WakeGate,
    next_token: AtomicU64,
    live: AtomicUsize,
}

/// Token the internal wakeup fd is registered under; user tokens start
/// at 1.
const WAKE_TOKEN: u64 = 0;

/// Cloneable handle to one reactor thread.
#[derive(Clone)]
pub struct Reactor {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("live_links", &self.live_links())
            .finish()
    }
}

impl Reactor {
    /// Start a reactor thread named `name`.
    ///
    /// # Panics
    ///
    /// Panics when the process cannot get an epoll instance, an eventfd or
    /// a thread — descriptor or memory exhaustion; there is no degraded
    /// mode to run the links in.
    pub fn new(name: &str) -> Reactor {
        let poller = Poller::new().expect("create the reactor's epoll instance");
        let waker = WakeFd::new().expect("create the reactor's wake eventfd");
        poller
            .add_wake(&waker, WAKE_TOKEN)
            .expect("watch the reactor's wake eventfd");
        let shared = Arc::new(Shared {
            cmds: Mutex::new(Vec::new()),
            notifies: Mutex::new(Vec::new()),
            waker,
            gate: WakeGate::new(),
            next_token: AtomicU64::new(WAKE_TOKEN + 1),
            live: AtomicUsize::new(0),
        });
        let reactor = Reactor {
            shared: Arc::clone(&shared),
        };
        let on_loop = reactor.clone();
        std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || run_loop(on_loop, poller))
            .expect("spawn reactor thread");
        reactor
    }

    /// Register `handler` for `fd` with the given initial interest and
    /// return its token. The handler must own the object behind `fd` (the
    /// fd has to stay open until the registration is closed) and `fd`
    /// must already be nonblocking.
    pub fn register(
        &self,
        fd: RawFd,
        readable: bool,
        writable: bool,
        handler: Box<dyn Handler>,
    ) -> Token {
        let token = self.reserve();
        self.register_as(token, fd, readable, writable, handler);
        token
    }

    /// Issue a token ahead of its registration, for a link whose peer must
    /// learn the token before the handler can be built (the peer's queue
    /// is part of the handler). Notifies sent before the registration
    /// lands are covered by the `Notify` every fresh handler is primed
    /// with; a reserved token that is never registered costs nothing.
    pub fn reserve(&self) -> Token {
        // Relaxed: the counter's atomicity alone guarantees unique tokens.
        Token(self.shared.next_token.fetch_add(1, Ordering::Relaxed))
    }

    /// [`Reactor::register`] under a token from [`Reactor::reserve`].
    pub fn register_as(
        &self,
        token: Token,
        fd: RawFd,
        readable: bool,
        writable: bool,
        handler: Box<dyn Handler>,
    ) {
        self.push_cmd(Cmd::Register {
            token,
            fd: Some(fd),
            readable,
            writable,
            handler,
        });
    }

    /// Register a handler that has no descriptor under a token from
    /// [`Reactor::reserve`]: it is dispatched by [`Reactor::notify`] and
    /// its own timers only, and leaves through [`Ctl::close`] or
    /// [`Reactor::deregister`].
    pub fn attach(&self, token: Token, handler: Box<dyn Handler>) {
        self.push_cmd(Cmd::Register {
            token,
            fd: None,
            readable: false,
            writable: false,
            handler,
        });
    }

    /// Deregister `token` from any thread: the poller forgets the fd and
    /// the handler (with its socket) is dropped on the loop thread.
    /// Idempotent; unknown tokens are ignored.
    pub fn deregister(&self, token: Token) {
        self.push_cmd(Cmd::Deregister(token));
    }

    /// Deliver [`Event::Notify`] to `token` on the loop thread. Cheap and
    /// coalescing: notifies for the same token merge until dispatched.
    pub fn notify(&self, token: Token) {
        {
            let mut pending = self.shared.notifies.lock();
            // A burst for one link merges here; the loop merges the rest.
            if pending.last() != Some(&token.0) {
                pending.push(token.0);
            }
        }
        self.wake();
    }

    /// Run `cb` on the loop thread after `after`. `cb` must be brief — it
    /// shares the loop with every link; typically it just schedules a
    /// [`JobPool`] job.
    pub fn timer(&self, after: Duration, cb: impl FnOnce(&Reactor) + Send + 'static) {
        self.push_cmd(Cmd::Timer {
            after,
            cb: Box::new(cb),
        });
    }

    /// Number of live registrations (diagnostics; the leak test gates on
    /// this returning to baseline).
    pub fn live_links(&self) -> usize {
        // Relaxed: diagnostic counter.
        self.shared.live.load(Ordering::Relaxed)
    }

    /// Stop the loop thread, dropping every handler. Only for tests —
    /// the process-wide reactor from [`runtime`] lives forever.
    pub fn shutdown(&self) {
        self.push_cmd(Cmd::Shutdown);
    }

    fn push_cmd(&self, cmd: Cmd) {
        self.shared.cmds.lock().push(cmd);
        self.wake();
    }

    /// Called after queuing work: wake the loop if it is blocked.
    fn wake(&self) {
        if self.shared.gate.claim_wake() {
            self.shared.waker.wake();
        }
    }
}

struct Slot {
    /// The watched descriptor; `None` for an [`Reactor::attach`]ed handler.
    fd: Option<RawFd>,
    handler: Box<dyn Handler>,
}

impl Slot {
    /// Stop watching the descriptor, if there is one (it is still open:
    /// the handler that owns it is dropped after this).
    fn unwatch(&self, poller: &Poller) {
        if let Some(fd) = self.fd {
            let _ = poller.remove(fd);
        }
    }
}

struct LoopState {
    handlers: HashMap<u64, Slot>,
    timers: BinaryHeap<TimerSlot>,
    timer_seq: u64,
}

impl LoopState {
    fn dispatch(&mut self, reactor: &Reactor, poller: &Poller, token: u64, event: Event) {
        // The handler runs in its slot: it can reach the loop only through
        // the reactor handle, whose operations are queued, never the map.
        let Some(slot) = self.handlers.get_mut(&token) else {
            return;
        };
        let mut ctl = Ctl {
            reactor,
            token: Token(token),
            close: false,
            interest: None,
            timers: Vec::new(),
        };
        slot.handler.on_event(event, &mut ctl);
        let Ctl {
            close,
            interest,
            timers,
            ..
        } = ctl;
        if !timers.is_empty() {
            let now = Instant::now();
            for after in timers {
                self.timer_seq += 1;
                self.timers.push(TimerSlot {
                    deadline: now + after,
                    seq: self.timer_seq,
                    target: TimerTarget::Token(Token(token)),
                });
            }
        }
        if close {
            slot.unwatch(poller);
            // Dropping the slot closes the socket.
            self.handlers.remove(&token);
            // Relaxed: diagnostic counter.
            reactor.shared.live.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        if let (Some((r, w)), Some(fd)) = (interest, slot.fd) {
            let _ = poller.modify(fd, token, r, w);
        }
    }
}

fn run_loop(reactor: Reactor, poller: Poller) {
    // Pacing, fault-delay and backoff timers are sub-millisecond; the
    // thread's default 50 µs timer slack would land on every one of them.
    // Best-effort: a refusal costs precision, not correctness.
    let _ = rossf_sys::set_timer_slack_ns(1);
    let shared = Arc::clone(&reactor.shared);
    let mut state = LoopState {
        handlers: HashMap::new(),
        timers: BinaryHeap::new(),
        timer_seq: 0,
    };
    // Loop-side buffers, swapped against the shared queues so neither side
    // allocates in steady state.
    let mut events: Vec<PollEvent> = Vec::new();
    let mut cmds: Vec<Cmd> = Vec::new();
    let mut pending: Vec<u64> = Vec::new();
    loop {
        // 1. Apply externally queued commands, in order.
        std::mem::swap(&mut *shared.cmds.lock(), &mut cmds);
        for cmd in cmds.drain(..) {
            match cmd {
                Cmd::Register {
                    token,
                    fd,
                    readable,
                    writable,
                    handler,
                } => {
                    let mut slot = Slot { fd, handler };
                    let watched =
                        fd.map_or(Ok(()), |fd| poller.add(fd, token.0, readable, writable));
                    match watched {
                        Ok(()) => {
                            state.handlers.insert(token.0, slot);
                            // Relaxed: diagnostic counter.
                            shared.live.fetch_add(1, Ordering::Relaxed);
                            // A notify sent between `register` returning and
                            // this command applying targets a token the loop
                            // does not know yet and would be dropped: prime
                            // every fresh handler with one Notify so work
                            // queued in that window is never missed.
                            state.dispatch(&reactor, &poller, token.0, Event::Notify);
                        }
                        Err(_) => {
                            // Unwatchable fd: tell the handler its link is
                            // dead so supervision reacts, then drop it.
                            let mut ctl = Ctl {
                                reactor: &reactor,
                                token,
                                close: true,
                                interest: None,
                                timers: Vec::new(),
                            };
                            slot.handler.on_event(Event::Closed, &mut ctl);
                        }
                    }
                }
                Cmd::Deregister(token) => {
                    if let Some(slot) = state.handlers.remove(&token.0) {
                        slot.unwatch(&poller);
                        // Relaxed: diagnostic counter.
                        shared.live.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                Cmd::Timer { after, cb } => {
                    state.timer_seq += 1;
                    state.timers.push(TimerSlot {
                        deadline: Instant::now() + after,
                        seq: state.timer_seq,
                        target: TimerTarget::Callback(cb),
                    });
                }
                Cmd::Shutdown => {
                    for (_, slot) in state.handlers.drain() {
                        slot.unwatch(&poller);
                    }
                    shared.live.store(0, Ordering::Relaxed);
                    return;
                }
            }
        }

        // 2. Cross-thread notifies, one dispatch per token.
        std::mem::swap(&mut *shared.notifies.lock(), &mut pending);
        pending.sort_unstable();
        pending.dedup();
        for token in pending.drain(..) {
            state.dispatch(&reactor, &poller, token, Event::Notify);
        }

        // 3. Due timers.
        if !state.timers.is_empty() {
            let now = Instant::now();
            while state.timers.peek().is_some_and(|t| t.deadline <= now) {
                let slot = state.timers.pop().expect("peeked");
                match slot.target {
                    TimerTarget::Token(tok) => {
                        state.dispatch(&reactor, &poller, tok.0, Event::Timer)
                    }
                    TimerTarget::Callback(cb) => cb(&reactor),
                }
            }
        }

        // 4. Wait for readiness (bounded by the next timer deadline).
        let timeout = state
            .timers
            .peek()
            .map(|t| t.deadline.saturating_duration_since(Instant::now()));
        // Work queued by a handler above (or by a producer that saw the loop
        // awake and skipped the wake-up) must not wait out the block:
        // announce it, look again, and only poll if so.
        let idle = shared
            .gate
            .may_block(|| !shared.cmds.lock().is_empty() || !shared.notifies.lock().is_empty());
        let timeout = if idle { timeout } else { Some(Duration::ZERO) };
        if poller.wait(&mut events, timeout).is_err() {
            events.clear();
        }
        if idle {
            shared.gate.woke();
        }
        for &ev in &events {
            // The wake-up's whole job was to end the wait; its edge cleared
            // by being reported.
            if ev.token == WAKE_TOKEN {
                continue;
            }
            if ev.readable {
                state.dispatch(&reactor, &poller, ev.token, Event::Readable);
            }
            if ev.writable {
                state.dispatch(&reactor, &poller, ev.token, Event::Writable);
            }
            if ev.closed {
                state.dispatch(&reactor, &poller, ev.token, Event::Closed);
            }
        }
    }
}

/// The process-wide reactor + pool pair.
#[derive(Debug, Clone)]
pub struct Runtime {
    /// The shared event loop every link registers with.
    pub reactor: Reactor,
    /// The fixed pool absorbing blocking connects/handshakes.
    pub pool: JobPool,
}

/// Pool width: enough to overlap a few blocking handshakes without
/// contributing meaningfully to the process thread count.
const POOL_WORKERS: usize = 4;

/// The process-wide [`Runtime`], created on first use.
///
/// Fork-aware: a child process (the shm tier's forked tests) observes a
/// different pid and lazily gets a fresh reactor and pool — the parent's
/// loop thread does not exist on the child's side of the fork.
pub fn runtime() -> Runtime {
    static GLOBAL: OnceLock<Mutex<Option<(u32, Runtime)>>> = OnceLock::new();
    let slot = GLOBAL.get_or_init(|| Mutex::new(None));
    let mut guard = slot.lock();
    let pid = std::process::id();
    if let Some((owner, rt)) = &*guard {
        if *owner == pid {
            return rt.clone();
        }
    }
    let rt = Runtime {
        reactor: Reactor::new("rossf-reactor"),
        pool: JobPool::new(POOL_WORKERS, "rossf-pool"),
    };
    *guard = Some((pid, rt.clone()));
    rt
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;

    /// Echoes every byte back and reports lifecycle events on a channel.
    struct Echo {
        stream: TcpStream,
        events: mpsc::Sender<&'static str>,
    }

    impl Handler for Echo {
        fn on_event(&mut self, event: Event, ctl: &mut Ctl<'_>) {
            match event {
                Event::Readable => {
                    let mut buf = [0u8; 4096];
                    loop {
                        match self.stream.read(&mut buf) {
                            Ok(0) => {
                                let _ = self.events.send("eof");
                                ctl.close();
                                return;
                            }
                            Ok(n) => {
                                // Echo responses are tiny; a full send
                                // buffer is not reachable in this test.
                                let _ = self.stream.write_all(&buf[..n]);
                                let _ = self.events.send("echoed");
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                            Err(_) => {
                                let _ = self.events.send("error");
                                ctl.close();
                                return;
                            }
                        }
                    }
                }
                Event::Closed => {
                    let _ = self.events.send("closed");
                    ctl.close();
                }
                _ => {}
            }
        }
    }

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn echo_roundtrip_and_peer_death_event() {
        let reactor = Reactor::new("test-reactor-echo");
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let (tx, rx) = mpsc::channel();
        use std::os::fd::AsRawFd;
        let fd = server.as_raw_fd();
        reactor.register(
            fd,
            true,
            false,
            Box::new(Echo {
                stream: server,
                events: tx,
            }),
        );

        client.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok("echoed"));
        assert_eq!(reactor.live_links(), 1);

        drop(client);
        // EOF arrives as Readable-then-0 or Closed; either path closes.
        let ev = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(ev == "eof" || ev == "closed", "got {ev}");
        let deadline = Instant::now() + Duration::from_secs(10);
        while reactor.live_links() != 0 {
            assert!(Instant::now() < deadline, "registration never released");
            std::thread::sleep(Duration::from_millis(1));
        }
        reactor.shutdown();
    }

    /// Drains a shared queue into the socket on notify.
    struct QueueWriter {
        stream: TcpStream,
        queue: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl Handler for QueueWriter {
        fn on_event(&mut self, event: Event, _ctl: &mut Ctl<'_>) {
            if matches!(event, Event::Notify | Event::Writable) {
                let pending = std::mem::take(&mut *self.queue.lock());
                for msg in pending {
                    let _ = self.stream.write_all(&msg);
                }
            }
        }
    }

    #[test]
    fn notify_coalesces_and_drives_writes() {
        let reactor = Reactor::new("test-reactor-notify");
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let queue = Arc::new(Mutex::new(Vec::new()));
        use std::os::fd::AsRawFd;
        let fd = server.as_raw_fd();
        let token = reactor.register(
            fd,
            false,
            false,
            Box::new(QueueWriter {
                stream: server,
                queue: Arc::clone(&queue),
            }),
        );
        for i in 0..8u8 {
            queue.lock().push(vec![i]);
            reactor.notify(token);
        }
        let mut buf = [0u8; 8];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(buf, [0, 1, 2, 3, 4, 5, 6, 7]);
        reactor.shutdown();
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let reactor = Reactor::new("test-reactor-timer");
        let (tx, rx) = mpsc::channel();
        let tx2 = tx.clone();
        reactor.timer(Duration::from_millis(40), move |_| {
            let _ = tx2.send("late");
        });
        reactor.timer(Duration::from_millis(5), move |_| {
            let _ = tx.send("early");
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok("early"));
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok("late"));
        reactor.shutdown();
    }

    /// Timer precision without a clock: the loop thread — and only it —
    /// runs with the kernel's tightest timer slack.
    #[test]
    fn loop_thread_runs_with_minimal_timer_slack() {
        let reactor = Reactor::new("test-reactor-slack");
        let (tx, rx) = mpsc::channel();
        reactor.timer(Duration::ZERO, move |_| {
            let _ = tx.send(rossf_sys::timer_slack_ns());
        });
        let on_loop = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(on_loop.unwrap(), 1);
        reactor.shutdown();
    }

    #[test]
    fn handler_armed_timer_reaches_its_own_token() {
        struct TimerSelf {
            stream: TcpStream,
            armed: bool,
            fired: Arc<AtomicBool>,
        }
        impl Handler for TimerSelf {
            fn on_event(&mut self, event: Event, ctl: &mut Ctl<'_>) {
                match event {
                    Event::Notify if !self.armed => {
                        self.armed = true;
                        ctl.arm_timer(Duration::from_millis(5));
                    }
                    Event::Timer => {
                        // Store before the write: the client asserts `fired`
                        // as soon as the byte arrives.
                        self.fired.store(true, Ordering::Release);
                        let _ = self.stream.write_all(b"t");
                    }
                    _ => {}
                }
            }
        }
        let reactor = Reactor::new("test-reactor-self-timer");
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let fired = Arc::new(AtomicBool::new(false));
        use std::os::fd::AsRawFd;
        let fd = server.as_raw_fd();
        let token = reactor.register(
            fd,
            false,
            false,
            Box::new(TimerSelf {
                stream: server,
                armed: false,
                fired: Arc::clone(&fired),
            }),
        );
        reactor.notify(token);
        let mut b = [0u8; 1];
        client.read_exact(&mut b).unwrap();
        assert!(fired.load(Ordering::Acquire));
        reactor.shutdown();
    }

    #[test]
    fn deregister_drops_handler_and_closes_socket() {
        let reactor = Reactor::new("test-reactor-dereg");
        let (mut client, server) = pair();
        server.set_nonblocking(true).unwrap();
        let (tx, _rx) = mpsc::channel();
        use std::os::fd::AsRawFd;
        let fd = server.as_raw_fd();
        let token = reactor.register(
            fd,
            true,
            false,
            Box::new(Echo {
                stream: server,
                events: tx,
            }),
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while reactor.live_links() != 1 {
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(1));
        }
        reactor.deregister(token);
        // The dropped server socket surfaces as EOF on the client.
        let mut buf = [0u8; 1];
        assert_eq!(client.read(&mut buf).unwrap(), 0);
        assert_eq!(reactor.live_links(), 0);
        reactor.shutdown();
    }

    /// A handler with no descriptor: primed on attach, driven by notifies
    /// sent to its reserved token and by its own timers, gone on close.
    #[test]
    fn attached_handler_runs_on_notifies_and_timers_alone() {
        struct Fdless {
            events: mpsc::Sender<Event>,
        }
        impl Handler for Fdless {
            fn on_event(&mut self, event: Event, ctl: &mut Ctl<'_>) {
                let _ = self.events.send(event);
                match event {
                    Event::Notify => ctl.arm_timer(Duration::from_millis(1)),
                    Event::Timer => ctl.close(),
                    _ => {}
                }
            }
        }
        let reactor = Reactor::new("test-reactor-attach");
        let (tx, rx) = mpsc::channel();
        let token = reactor.reserve();
        // A notify before the registration lands is covered by the prime.
        reactor.notify(token);
        reactor.attach(token, Box::new(Fdless { events: tx }));
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(Event::Notify));
        let rest: Vec<Event> = rx.iter().collect(); // ends when the handler drops
        assert_eq!(rest.last(), Some(&Event::Timer), "{rest:?}");
        assert!(rest
            .iter()
            .all(|e| matches!(e, Event::Notify | Event::Timer)));
        let deadline = Instant::now() + Duration::from_secs(10);
        while reactor.live_links() != 0 {
            assert!(Instant::now() < deadline, "registration never released");
            std::thread::yield_now();
        }
        reactor.shutdown();
    }

    #[test]
    fn runtime_is_process_wide_and_stable() {
        let a = runtime();
        let b = runtime();
        assert!(Arc::ptr_eq(&a.reactor.shared, &b.reactor.shared));
        assert_eq!(a.pool.workers(), POOL_WORKERS);
    }
}
