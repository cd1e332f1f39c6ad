//! Deterministic fault injection for simulated links.
//!
//! A [`FaultInjector`] attaches to one link of the
//! [`LinkTable`](crate::LinkTable) and tells the transport what to do with
//! each frame that crosses it. Faults are scheduled against a monotonically
//! increasing *frame index* (the order frames reach the link), so a test
//! can say "drop frame 3, delay frame 7 by 5 ms, sever the link at frame
//! 10" and get the same behaviour on every run — no randomness, no timing
//! dependence.
//!
//! A *severed* link is a latch: every frame after the sever point fails and
//! new connection attempts across the link are refused, until [`heal`] is
//! called. This models unplugging and replugging a cable mid-experiment —
//! the scenario a transport's reconnect logic exists for.
//!
//! [`heal`]: FaultInjector::heal

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// What the transport must do with one frame crossing a faulty link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver the frame normally.
    Pass,
    /// Deliver the frame after an added delay.
    Delay(Duration),
    /// Silently discard the frame (delivery continues with the next one).
    Drop,
    /// Cut the connection: the frame is lost and the link stays down until
    /// [`FaultInjector::heal`].
    Sever,
}

/// Per-link fault schedule plus the severed-link latch.
///
/// Shared via `Arc` between the link table and the fault gate of every
/// transport link between its two machines, which consults it once per
/// frame; all operations are lock-free except rule lookup.
#[derive(Debug, Default)]
pub struct FaultInjector {
    /// Frame index → scheduled action. Consulted once per frame.
    rules: Mutex<BTreeMap<u64, FaultAction>>,
    /// Frames that have crossed (or attempted to cross) the link.
    next_frame: AtomicU64,
    /// Severed latch: set by a `Sever` rule or [`FaultInjector::sever_now`],
    /// cleared only by [`FaultInjector::heal`].
    severed: AtomicBool,
    /// Attach-denial latch: see [`FaultInjector::deny_attach`].
    attach_denied: AtomicBool,
    frames_dropped: AtomicU64,
    frames_delayed: AtomicU64,
    frames_passed: AtomicU64,
    severs: AtomicU64,
}

impl FaultInjector {
    /// A fresh injector with no scheduled faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule the `index`-th frame (0-based, in link order) to be
    /// discarded.
    pub fn drop_frame(&self, index: u64) {
        self.rules.lock().insert(index, FaultAction::Drop);
    }

    /// Schedule the `index`-th frame to be delivered `delay` late.
    pub fn delay_frame(&self, index: u64, delay: Duration) {
        self.rules.lock().insert(index, FaultAction::Delay(delay));
    }

    /// Schedule the link to be cut when the `index`-th frame is sent.
    pub fn sever_at_frame(&self, index: u64) {
        self.rules.lock().insert(index, FaultAction::Sever);
    }

    /// Cut the link immediately: in-flight and future frames fail and new
    /// connections are refused until [`FaultInjector::heal`].
    pub fn sever_now(&self) {
        // Relaxed: `severed` is a standalone flag — no data is published
        // through it (rules live under their own lock), and the swap alone
        // guarantees the sever is counted exactly once.
        if !self.severed.swap(true, Ordering::Relaxed) {
            self.severs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Restore a severed link. Scheduled rules for not-yet-reached frame
    /// indices remain in force.
    pub fn heal(&self) {
        // Relaxed: see `sever_now` — the flag is self-contained.
        self.severed.store(false, Ordering::Relaxed);
    }

    /// `true` while the link is cut.
    pub fn is_severed(&self) -> bool {
        // Relaxed: see `sever_now` — the flag is self-contained.
        self.severed.load(Ordering::Relaxed)
    }

    /// Latch the link into refusing out-of-band attachments: a transport
    /// tier that hands the data path over outside the connection (a
    /// shared-memory ring granted in the handshake) must treat the
    /// hand-over as denied and fall back to the connection itself. Models
    /// a kernel policy refusing the cross-process fd hand-off; there is no
    /// un-latch, as there is none for the policy.
    pub fn deny_attach(&self) {
        // Relaxed: a self-contained flag, like `severed`.
        self.attach_denied.store(true, Ordering::Relaxed);
    }

    /// `true` once [`FaultInjector::deny_attach`] latched.
    pub fn attach_denied(&self) -> bool {
        // Relaxed: see `deny_attach`.
        self.attach_denied.load(Ordering::Relaxed)
    }

    /// Consume the next frame index and return the action for it.
    ///
    /// While the link is severed this returns [`FaultAction::Sever`]
    /// without consuming an index, so every transport link between the two
    /// machines observes the cut regardless of frame ordering.
    pub fn next_frame_action(&self) -> FaultAction {
        if self.is_severed() {
            return FaultAction::Sever;
        }
        // Relaxed: the fetch_add's atomicity alone guarantees unique
        // frame indices; the rules map is read under its own lock.
        let index = self.next_frame.fetch_add(1, Ordering::Relaxed);
        let action = self
            .rules
            .lock()
            .get(&index)
            .copied()
            .unwrap_or(FaultAction::Pass);
        match action {
            FaultAction::Pass => {
                self.frames_passed.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::Delay(_) => {
                self.frames_delayed.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::Drop => {
                self.frames_dropped.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::Sever => self.sever_now(),
        }
        action
    }

    /// Frames discarded by `Drop` rules so far.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped.load(Ordering::Relaxed)
    }

    /// Frames delayed by `Delay` rules so far.
    pub fn frames_delayed(&self) -> u64 {
        self.frames_delayed.load(Ordering::Relaxed)
    }

    /// Frames that crossed the link untouched (`Pass`). Every transport
    /// tier consults the injector once per frame, where the frame enters
    /// the link — a pointer or descriptor hand-off exactly as a socket
    /// write — so this counts the frames let through on *any* tier.
    pub fn frames_passed(&self) -> u64 {
        self.frames_passed.load(Ordering::Relaxed)
    }

    /// Times the link has been severed.
    pub fn severs(&self) -> u64 {
        self.severs.load(Ordering::Relaxed)
    }

    /// Frame indices consumed so far (frames that reached the link).
    pub fn frames_seen(&self) -> u64 {
        // Relaxed: monotonic counter read for diagnostics only.
        self.next_frame.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_pass() {
        let f = FaultInjector::new();
        for _ in 0..10 {
            assert_eq!(f.next_frame_action(), FaultAction::Pass);
        }
        assert_eq!(f.frames_seen(), 10);
        assert_eq!(f.frames_dropped(), 0);
    }

    #[test]
    fn scheduled_rules_fire_at_their_index() {
        let f = FaultInjector::new();
        f.drop_frame(1);
        f.delay_frame(2, Duration::from_millis(5));
        assert_eq!(f.next_frame_action(), FaultAction::Pass);
        assert_eq!(f.next_frame_action(), FaultAction::Drop);
        assert_eq!(
            f.next_frame_action(),
            FaultAction::Delay(Duration::from_millis(5))
        );
        assert_eq!(f.next_frame_action(), FaultAction::Pass);
        assert_eq!(f.frames_dropped(), 1);
        assert_eq!(f.frames_delayed(), 1);
        assert_eq!(f.frames_passed(), 2);
    }

    #[test]
    fn sever_latches_until_heal() {
        let f = FaultInjector::new();
        f.sever_at_frame(1);
        assert_eq!(f.next_frame_action(), FaultAction::Pass);
        assert_eq!(f.next_frame_action(), FaultAction::Sever);
        assert!(f.is_severed());
        // Latched: further frames sever without consuming indices.
        assert_eq!(f.next_frame_action(), FaultAction::Sever);
        assert_eq!(f.frames_seen(), 2);
        assert_eq!(f.severs(), 1);
        f.heal();
        assert!(!f.is_severed());
        assert_eq!(f.next_frame_action(), FaultAction::Pass);
    }

    #[test]
    fn sever_now_counts_once() {
        let f = FaultInjector::new();
        f.sever_now();
        f.sever_now();
        assert_eq!(f.severs(), 1);
        f.heal();
        f.sever_now();
        assert_eq!(f.severs(), 2);
    }
}
