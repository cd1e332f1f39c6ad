//! Connection-header vocabulary for the shared-memory tier.
//!
//! The shm capability is negotiated exactly like the fast path: the
//! subscriber's request header announces support (plus the identity the
//! publisher needs to judge eligibility), and the publisher's reply either
//! grants the tier — carrying everything the subscriber needs to attach to
//! the ring — or omits it, in which case the connection proceeds as plain
//! TCP with byte-identical frames.
//!
//! On a granted link the handshake socket stays open as the control
//! plane. Publisher to subscriber it carries the doorbell — one byte per
//! push into a ring the subscriber drained and armed — and either end's
//! EOF tells the other its peer is gone. The subscriber never writes on
//! it, so [`peer_gone`] is the publisher's whole reading of it.

use std::io::Read;
use std::net::TcpStream;

/// Probe the publisher's end of a shm link's (nonblocking) control socket.
/// The subscriber writes nothing on it after the handshake, so any read
/// outcome other than `WouldBlock` — EOF, stray bytes, an error — means
/// the subscriber's end of the link is gone.
pub(crate) fn peer_gone(mut stream: &TcpStream) -> bool {
    !matches!(
        stream.read(&mut [0u8; 1]),
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock
    )
}

/// Request *and* reply field: `shm=1` in the request offers the
/// capability; `shm=1` in the reply grants it.
pub(crate) const SHM_FIELD: &str = "shm";

/// Request field: the subscriber's process id. The publisher grants shm
/// only to a *different* process on the same machine (the fast path
/// already covers same-process), unless `shm_same_process` overrides.
pub(crate) const SHM_PID_FIELD: &str = "pid";

/// Request field: the reactor token of the subscriber-side handler that
/// will drain the ring. Meaningful only to a publisher in the same process
/// (`pid` matches its own — the `shm_same_process` mode), which rings the
/// link's doorbell with a notify to it instead of a byte on the socket.
pub(crate) const SHM_TOKEN_FIELD: &str = "shm_token";

/// Reply field: the publisher's process id — the `<pid>` of the
/// `/proc/<pid>/fd/<fd>` path the subscriber opens segments through.
pub(crate) const SHM_PUB_PID_FIELD: &str = "shm_pid";

/// Reply field: the control segment's fd number in the publisher process.
pub(crate) const SHM_FD_FIELD: &str = "shm_fd";

/// Reply field: the epoch stamp of this publisher incarnation. The
/// subscriber verifies the mapped control segment carries the same stamp;
/// a mismatch means the fd was recycled by a crashed-and-restarted
/// publisher and the subscriber falls back to TCP.
pub(crate) const SHM_EPOCH_FIELD: &str = "shm_epoch";
