//! The wake handshake between producers and the loop.

use crate::sync::{AtomicU32, Ordering};

/// Decides which cross-thread hand-offs need a wake-up at all.
///
/// A wake-up costs a syscall on the producer and a cross-core interrupt on
/// the loop, so it should happen only when the loop is — or is about to be
/// — blocked. The protocol is the two-flag handshake: each side writes its
/// own flag, then reads the other's.
///
/// * A **producer** queues its work, then calls [`WakeGate::claim_wake`]
///   and issues the wake-up only if that returns `true`.
/// * The **loop**, before blocking, calls [`WakeGate::may_block`] with a
///   closure that looks at the queues. The gate announces the block
///   *first* and runs the closure *second*, so work queued before the
///   announcement is seen by the closure, and work queued after it sees
///   the announcement and claims the wake-up. After the wait returns the
///   loop calls [`WakeGate::woke`].
///
/// Both directions are sequentially consistent: with anything weaker the
/// producer's "queue, then read the flag" and the loop's "set the flag,
/// then read the queue" could each miss the other's write.
#[derive(Debug, Default)]
pub struct WakeGate {
    /// 1 while the loop is blocked or committed to blocking.
    sleeping: AtomicU32,
}

impl WakeGate {
    /// A gate whose loop is awake.
    pub const fn new() -> WakeGate {
        WakeGate {
            sleeping: AtomicU32::new(0),
        }
    }

    /// Producer side, **after** the work is queued: `true` means the loop
    /// is (about to be) blocked and this caller — alone among concurrent
    /// producers — must issue the wake-up.
    pub fn claim_wake(&self) -> bool {
        // ORDER: SeqCst pairs with `may_block`'s store: the queue write
        // that precedes this swap and the queue read that follows that
        // store cannot both miss each other.
        self.sleeping.swap(0, Ordering::SeqCst) == 1
    }

    /// Loop side, before blocking: announce the block, then ask `queued`
    /// whether work arrived in the meantime. `true` means the loop may
    /// block; `false` means work is queued and it must only poll.
    pub fn may_block(&self, queued: impl FnOnce() -> bool) -> bool {
        // ORDER: SeqCst pairs with `claim_wake`'s swap (see there).
        self.sleeping.store(1, Ordering::SeqCst);
        if queued() {
            self.woke();
            return false;
        }
        true
    }

    /// Loop side, after the wait returned: producers stop waking.
    pub fn woke(&self) {
        // ORDER: SeqCst keeps the flag's writes in one total order with
        // `claim_wake`'s swaps; a producer that still reads 1 issues one
        // spurious wake-up, never a missing one.
        self.sleeping.store(0, Ordering::SeqCst);
    }
}
