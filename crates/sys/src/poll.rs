//! Readiness: `epoll_create1`, `epoll_ctl`, `epoll_pwait`/`epoll_pwait2`,
//! `eventfd2`, plus the socket calls the loop's links need: `setsockopt`
//! for sizing data-socket buffers, and `socket` + `connect` for a dial
//! that does not block.
//!
//! Nothing ever reads the eventfd: the counter is watched edge-triggered
//! ([`Poller::add_wake`]), so the kernel reports each bump once and there
//! is no level to clear.
//!
//! Sub-millisecond waits matter here: netsim pacing charges 50 µs
//! propagation delays through reactor timers, so [`Poller::wait`] prefers
//! `epoll_pwait2` (nanosecond timeout) and falls back to millisecond
//! `epoll_pwait` only when the kernel lacks it.

use crate::{check, syscall6, Timespec};
use std::fs::File;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const SYS_EPOLL_WAIT_NS: i64 = 441; // epoll_pwait2
const SYS_EPOLL_WAIT_MS: i64 = 281; // epoll_pwait
const SYS_EPOLL_CTL: i64 = 233;
const SYS_EPOLL_CREATE1: i64 = 291;
const SYS_EVENTFD2: i64 = 290;
const SYS_SETSOCKOPT: i64 = 54;
const SYS_PRCTL: i64 = 157;
const SYS_SOCKET: i64 = 41;
const SYS_CONNECT: i64 = 42;

const SOL_SOCKET: i64 = 1;
const SO_SNDBUF: i64 = 7;
const SO_RCVBUF: i64 = 8;
const PR_SET_TIMERSLACK: i64 = 29;
const PR_GET_TIMERSLACK: i64 = 30;

const CLOEXEC: i64 = 0x8_0000; // EPOLL_CLOEXEC == EFD_CLOEXEC == SOCK_CLOEXEC
const EFD_NONBLOCK: i64 = 0x800; // == SOCK_NONBLOCK

const AF_INET: i64 = 2;
const AF_INET6: i64 = 10;
const NONBLOCKING_STREAM: i64 = 1 | EFD_NONBLOCK | CLOEXEC; // SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC
const EINPROGRESS: i32 = 115;

const OP_ADD: i64 = 1;
const OP_DEL: i64 = 2;
const OP_MOD: i64 = 3;

const EV_IN: u32 = 0x1;
const EV_OUT: u32 = 0x4;
const EV_ERR: u32 = 0x8;
const EV_HUP: u32 = 0x10;
const EV_RDHUP: u32 = 0x2000;
const EV_EDGE: u32 = 1 << 31; // EPOLLET

/// The kernel's epoll_event layout — packed on x86-64.
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct RawEvent {
    events: u32,
    data: u64,
}

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollEvent {
    /// The `token` the descriptor was registered under.
    pub token: u64,
    /// Data (or EOF) is available to read.
    pub readable: bool,
    /// The socket can accept writes again.
    pub writable: bool,
    /// Peer hangup or socket error: the link is dead and will never be
    /// readable/writable again.
    pub closed: bool,
}

/// An owned kernel readiness queue (one per reactor thread).
#[derive(Debug)]
pub struct Poller {
    file: File,
}

impl Poller {
    /// Create a close-on-exec readiness queue.
    ///
    /// # Errors
    ///
    /// The raw `errno` from the kernel.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes a flags word and dereferences
        // nothing.
        let fd = check(unsafe { syscall6(SYS_EPOLL_CREATE1, CLOEXEC, 0, 0, 0, 0, 0) })?;
        // SAFETY: fd is a fresh, owned descriptor returned by the kernel.
        let file = unsafe { File::from_raw_fd(fd as i32) };
        Ok(Poller { file })
    }

    /// Start watching `fd` under `token`. Hangup/error conditions are
    /// always reported regardless of the interest flags.
    ///
    /// # Errors
    ///
    /// The raw `errno` from the kernel (`EEXIST` if already added).
    pub fn add(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(OP_ADD, fd, token, readable, writable, false)
    }

    /// Start watching `wake` under `token`, edge-triggered: every
    /// [`WakeFd::wake`] since the last report makes one readable event,
    /// and the event clears by being reported — no `read` of the counter.
    ///
    /// # Errors
    ///
    /// The raw `errno` from the kernel.
    pub fn add_wake(&self, wake: &WakeFd, token: u64) -> io::Result<()> {
        self.ctl(OP_ADD, wake.file.as_raw_fd(), token, true, false, true)
    }

    /// Change the interest set of an already-watched `fd`.
    ///
    /// # Errors
    ///
    /// The raw `errno` from the kernel (`ENOENT` if never added).
    pub fn modify(&self, fd: RawFd, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(OP_MOD, fd, token, readable, writable, false)
    }

    /// Stop watching `fd`. Must be called while `fd` is still open.
    ///
    /// # Errors
    ///
    /// The raw `errno` from the kernel.
    pub fn remove(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(OP_DEL, fd, 0, false, false, false)
    }

    fn ctl(
        &self,
        op: i64,
        fd: RawFd,
        token: u64,
        readable: bool,
        writable: bool,
        edge: bool,
    ) -> io::Result<()> {
        // Peer half-close (RDHUP) is requested alongside read interest so
        // a write-only link still learns its peer died without polling.
        let mut events = EV_RDHUP;
        if edge {
            events |= EV_EDGE;
        }
        if readable {
            events |= EV_IN;
        }
        if writable {
            events |= EV_OUT;
        }
        let ev = RawEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` lives across the call (DEL ignores the pointer on
        // modern kernels but passing it is always valid); the poller and
        // `fd` are live descriptors.
        check(unsafe {
            syscall6(
                SYS_EPOLL_CTL,
                self.file.as_raw_fd() as i64,
                op,
                fd as i64,
                &ev as *const RawEvent as i64,
                0,
                0,
            )
        })?;
        Ok(())
    }

    /// Block until at least one watched descriptor is ready or `timeout`
    /// elapses (`None` blocks indefinitely). Ready descriptors are
    /// appended to `out` (which is cleared first). An interrupted wait
    /// returns success with no events; callers loop.
    ///
    /// # Errors
    ///
    /// The raw `errno` from the kernel.
    pub fn wait(&self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        const MAX_EVENTS: usize = 256;
        out.clear();
        let mut buf = [RawEvent { events: 0, data: 0 }; MAX_EVENTS];
        let n = if NO_WAIT_NS.load(Ordering::Relaxed) {
            self.wait_ms(&mut buf, timeout)?
        } else {
            match self.wait_ns(&mut buf, timeout) {
                Err(e) if e.raw_os_error() == Some(38) || e.raw_os_error() == Some(1) => {
                    // ENOSYS/EPERM: pre-5.11 kernel or seccomp; degrade to
                    // millisecond granularity permanently.
                    NO_WAIT_NS.store(true, Ordering::Relaxed);
                    self.wait_ms(&mut buf, timeout)?
                }
                Err(e) if e.raw_os_error() == Some(4) => 0, // EINTR: retry via caller
                other => other?,
            }
        };
        for ev in buf.iter().take(n) {
            let bits = ev.events;
            out.push(PollEvent {
                token: ev.data,
                readable: bits & EV_IN != 0,
                writable: bits & EV_OUT != 0,
                closed: bits & (EV_ERR | EV_HUP | EV_RDHUP) != 0,
            });
        }
        Ok(())
    }

    fn wait_ns(&self, buf: &mut [RawEvent], timeout: Option<Duration>) -> io::Result<usize> {
        let ts = timeout.map(Timespec::from);
        let ts_ptr = ts.as_ref().map_or(0i64, |t| t as *const Timespec as i64);
        // SAFETY: `buf` is a live array of the length passed; `ts` (when
        // present) lives across the call; the null sigmask means the
        // sigsetsize argument is ignored.
        let n = check(unsafe {
            syscall6(
                SYS_EPOLL_WAIT_NS,
                self.file.as_raw_fd() as i64,
                buf.as_mut_ptr() as i64,
                buf.len() as i64,
                ts_ptr,
                0,
                0,
            )
        })?;
        Ok(n as usize)
    }

    fn wait_ms(&self, buf: &mut [RawEvent], timeout: Option<Duration>) -> io::Result<usize> {
        // Round up so a 50 µs timer still sleeps (1 ms) rather than
        // busy-spinning at 0.
        let ms = timeout.map_or(-1i64, |t| t.as_millis().max(1).min(i64::MAX as u128) as i64);
        // SAFETY: `buf` is a live array of the length passed; the null
        // sigmask means the sigsetsize argument is ignored.
        let ret = unsafe {
            syscall6(
                SYS_EPOLL_WAIT_MS,
                self.file.as_raw_fd() as i64,
                buf.as_mut_ptr() as i64,
                buf.len() as i64,
                ms,
                0,
                0,
            )
        };
        if ret == -4 {
            return Ok(0); // EINTR: caller re-loops
        }
        Ok(check(ret)? as usize)
    }
}

/// Latched once the kernel reports it lacks `epoll_pwait2`.
static NO_WAIT_NS: AtomicBool = AtomicBool::new(false);

/// Grow `fd`'s kernel send and receive buffers to `bytes` each
/// (best-effort; the kernel clamps to `net.core.{w,r}mem_max`).
///
/// Multi-megabyte frames through a nonblocking socket otherwise trickle
/// at TCP's small *initial* buffer size, costing one reactor round trip
/// (EAGAIN → EPOLLOUT → write) per buffer-full until auto-tuning catches
/// up. Pre-sizing the buffers lets a large frame move in a handful of
/// syscalls from the first write. Failure is ignored by callers: an
/// untuned socket is slower, never incorrect.
///
/// # Errors
///
/// The raw `errno` from the kernel.
pub fn set_socket_buffers(fd: RawFd, bytes: usize) -> io::Result<()> {
    let val: i32 = bytes.min(i32::MAX as usize) as i32;
    for opt in [SO_SNDBUF, SO_RCVBUF] {
        // SAFETY: `val` lives across the call and optlen matches its
        // size; `fd` is a live descriptor owned by the caller.
        check(unsafe {
            syscall6(
                SYS_SETSOCKOPT,
                fd as i64,
                SOL_SOCKET,
                opt,
                &val as *const i32 as i64,
                std::mem::size_of::<i32>() as i64,
                0,
            )
        })?;
    }
    Ok(())
}

/// Start a TCP connection to `addr` on a fresh nonblocking, close-on-exec
/// socket, without waiting for it: the socket comes back at once, and the
/// connect has finished when it first reports writable — then
/// [`TcpStream::take_error`] says whether it succeeded.
///
/// # Errors
///
/// The raw `errno` from the kernel, for a connect refused before it
/// started (`EINPROGRESS` is the normal answer, not an error).
pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
    // The kernel's `struct sockaddr_in` / `sockaddr_in6`, laid out by hand.
    let mut sa = [0u8; 28];
    let (family, len) = match addr {
        SocketAddr::V4(a) => {
            sa[4..8].copy_from_slice(&a.ip().octets());
            (AF_INET, 16)
        }
        SocketAddr::V6(a) => {
            sa[4..8].copy_from_slice(&a.flowinfo().to_ne_bytes());
            sa[8..24].copy_from_slice(&a.ip().octets());
            sa[24..28].copy_from_slice(&a.scope_id().to_ne_bytes());
            (AF_INET6, 28)
        }
    };
    sa[..2].copy_from_slice(&(family as u16).to_ne_bytes());
    sa[2..4].copy_from_slice(&addr.port().to_be_bytes());
    // SAFETY: socket takes three integers and dereferences nothing.
    let fd = check(unsafe { syscall6(SYS_SOCKET, family, NONBLOCKING_STREAM, 0, 0, 0, 0) })?;
    // SAFETY: fd is a fresh, owned descriptor returned by the kernel.
    let stream = unsafe { TcpStream::from_raw_fd(fd as i32) };
    // SAFETY: `sa` holds a sockaddr of `len` bytes for the whole call.
    match check(unsafe { syscall6(SYS_CONNECT, fd, sa.as_ptr() as i64, len, 0, 0, 0) }) {
        Err(e) if e.raw_os_error() != Some(EINPROGRESS) => Err(e),
        _ => Ok(stream),
    }
}

/// Set the calling thread's timer slack — how far past its deadline the
/// kernel may let a timed wait (a [`Poller::wait`] timeout) run so
/// it can batch wake-ups. Threads start at 50 µs, which every
/// sub-millisecond timer would pay on top of its deadline; the kernel
/// reads 0 as "back to the default", so 1 is the tightest setting.
///
/// # Errors
///
/// The raw `errno` from the kernel.
pub fn set_timer_slack_ns(ns: u64) -> io::Result<()> {
    // SAFETY: PR_SET_TIMERSLACK takes a plain integer and dereferences
    // nothing.
    check(unsafe { syscall6(SYS_PRCTL, PR_SET_TIMERSLACK, ns as i64, 0, 0, 0, 0) })?;
    Ok(())
}

/// The calling thread's timer slack in nanoseconds (see
/// [`set_timer_slack_ns`]).
///
/// # Errors
///
/// The raw `errno` from the kernel.
pub fn timer_slack_ns() -> io::Result<u64> {
    // SAFETY: PR_GET_TIMERSLACK takes no argument and returns the value.
    Ok(check(unsafe { syscall6(SYS_PRCTL, PR_GET_TIMERSLACK, 0, 0, 0, 0, 0) })? as u64)
}

/// A cross-thread wakeup descriptor (kernel counter): any thread bumps the
/// counter to force a blocked [`Poller::wait`] to return.
#[derive(Debug)]
pub struct WakeFd {
    file: File,
}

impl WakeFd {
    /// Create a nonblocking close-on-exec wakeup counter.
    ///
    /// # Errors
    ///
    /// The raw `errno` from the kernel.
    pub fn new() -> io::Result<WakeFd> {
        // SAFETY: eventfd2 takes an initial count and a flags word and
        // dereferences nothing.
        let fd = check(unsafe { syscall6(SYS_EVENTFD2, 0, CLOEXEC | EFD_NONBLOCK, 0, 0, 0, 0) })?;
        // SAFETY: fd is a fresh, owned descriptor returned by the kernel.
        let file = unsafe { File::from_raw_fd(fd as i32) };
        Ok(WakeFd { file })
    }

    /// Bump the counter, waking the poller. Infallible from the caller's
    /// view: the only failure is a counter within one of `u64::MAX`, which
    /// takes more bumps than a process can issue.
    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.file).write(&1u64.to_ne_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    #[test]
    fn wait_times_out_with_sub_millisecond_precision() {
        let p = Poller::new().unwrap();
        let mut events = Vec::new();
        let t0 = Instant::now();
        p.wait(&mut events, Some(Duration::from_micros(200)))
            .unwrap();
        let dt = t0.elapsed();
        assert!(events.is_empty());
        // Either ns-precision (sub-ms) or the ms fallback (~1 ms): both
        // must return promptly rather than blocking.
        assert!(dt < Duration::from_millis(100), "timeout took {dt:?}");
    }

    #[test]
    fn socket_readiness_and_hangup_are_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let p = Poller::new().unwrap();
        p.add(server.as_raw_fd(), 7, true, false).unwrap();

        client.write_all(b"hi").unwrap();
        let mut events = Vec::new();
        p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        let mut buf = [0u8; 8];
        assert_eq!((&server).read(&mut buf).unwrap(), 2);

        drop(client);
        p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.closed),
            "peer close must surface as a closed event: {events:?}"
        );
        p.remove(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn write_interest_fires_and_can_be_modified_away() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (_server, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();

        let p = Poller::new().unwrap();
        p.add(client.as_raw_fd(), 9, false, true).unwrap();
        let mut events = Vec::new();
        p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 9 && e.writable));

        // Dropping write interest silences the (level-triggered) event.
        p.modify(client.as_raw_fd(), 9, false, false).unwrap();
        p.wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "no interest -> no events: {events:?}");
    }

    /// The dial the loop issues: the socket is nonblocking from the
    /// start, reports writable once connected, and a refused connect
    /// surfaces as the socket's pending error.
    #[test]
    fn a_nonblocking_connect_completes_on_writable() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = connect_nonblocking(addr).unwrap();
        let p = Poller::new().unwrap();
        p.add(client.as_raw_fd(), 3, false, true).unwrap();
        let mut events = Vec::new();
        p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable));
        assert!(client.take_error().unwrap().is_none());
        let (mut server, _) = listener.accept().unwrap();
        server.write_all(b"x").unwrap();
        let mut buf = [0u8; 2];
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match (&client).read(&mut buf) {
                Ok(n) => break assert_eq!(n, 1),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    assert!(Instant::now() < deadline, "the byte never arrived");
                }
                Err(e) => panic!("{e}"),
            }
        }

        drop(listener); // nothing listens on `addr` any more
        let refused = match connect_nonblocking(addr) {
            Err(e) => e,
            Ok(stream) => {
                p.add(stream.as_raw_fd(), 4, false, true).unwrap();
                p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
                stream.take_error().unwrap().expect("a pending error")
            }
        };
        assert_eq!(refused.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn socket_buffers_can_be_grown() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        set_socket_buffers(client.as_raw_fd(), 1 << 20).unwrap();
        // No getsockopt wrapper to read it back; success of the syscall
        // (and the kernel's documented clamp-don't-fail behavior) is the
        // contract under test.
    }

    #[test]
    fn timer_slack_is_per_thread_and_reads_back() {
        std::thread::spawn(|| {
            set_timer_slack_ns(1).unwrap();
            assert_eq!(timer_slack_ns().unwrap(), 1);
        })
        .join()
        .unwrap();
        assert_ne!(timer_slack_ns().unwrap(), 1, "the caller keeps its own");
    }

    /// The edge-triggered contract the loop relies on: a wake-up is
    /// reported once and goes quiet without anyone reading the counter,
    /// and a later wake-up — the counter still nonzero — is reported again.
    #[test]
    fn wake_fd_edges_are_each_reported_once_without_a_read() {
        let p = Poller::new().unwrap();
        let wake = WakeFd::new().unwrap();
        p.add_wake(&wake, 0).unwrap();
        let mut events = Vec::new();
        for round in 0..2 {
            wake.wake();
            wake.wake(); // bumps before the report merge into one event
            p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert!(
                events.iter().any(|e| e.token == 0 && e.readable),
                "round {round}: wake-up not reported: {events:?}"
            );
            p.wait(&mut events, Some(Duration::from_millis(10)))
                .unwrap();
            assert!(
                events.is_empty(),
                "round {round}: a reported edge must go quiet: {events:?}"
            );
        }
    }
}
