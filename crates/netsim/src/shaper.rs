//! Pacing of a byte stream to a [`LinkProfile`].

use crate::link::LinkProfile;
use std::time::{Duration, Instant};

/// Stateful pacing engine: tracks when the simulated link next becomes
/// idle and computes how long a frame must be held back. It never sleeps —
/// the transport that owns the socket turns the wait into a timer.
#[derive(Debug)]
pub struct Shaper {
    profile: LinkProfile,
    busy_until: Instant,
}

impl Shaper {
    /// New shaper for `profile`; the link starts idle.
    pub fn new(profile: LinkProfile) -> Self {
        Shaper {
            profile,
            busy_until: Instant::now(),
        }
    }

    /// The profile being enforced.
    pub fn profile(&self) -> LinkProfile {
        self.profile
    }

    /// Account for transmitting `bytes` now; returns how long from now the
    /// link needs to have carried the last of them.
    ///
    /// Uses the busy-until model: consecutive writes queue behind each
    /// other, so a burst of frames drains at exactly the link bandwidth.
    pub fn reserve(&mut self, bytes: usize) -> Duration {
        if self.profile.bandwidth_bps == 0 {
            return Duration::ZERO;
        }
        let now = Instant::now();
        let start = self.busy_until.max(now);
        self.busy_until = start + self.profile.transmit_time(bytes);
        self.busy_until.saturating_duration_since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkProfile;

    fn mbps(bits_per_sec: u64) -> LinkProfile {
        LinkProfile {
            bandwidth_bps: bits_per_sec,
            latency: Duration::ZERO,
        }
    }

    #[test]
    fn unlimited_is_instant() {
        let mut s = Shaper::new(LinkProfile::UNLIMITED);
        assert_eq!(s.reserve(10_000_000), Duration::ZERO);
    }

    #[test]
    fn reserve_accumulates_busy_time() {
        // 8 Mb/s → 1 byte per microsecond.
        let mut s = Shaper::new(mbps(8_000_000));
        let w1 = s.reserve(1000);
        let w2 = s.reserve(1000);
        // Second reservation queues behind the first.
        assert!(w2 > w1, "w1={w1:?} w2={w2:?}");
        assert!(w2.as_micros() >= 1900, "w2={w2:?}");
    }
}
