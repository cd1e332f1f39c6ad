//! The closed-loop window: how many messages the generator may have
//! outstanding. The latency phase runs with a window of one (publish,
//! wait for the callback, publish the next); the throughput phase with the
//! workload's window `W`.

/// Counts messages sent against messages completed and refuses a send
/// that would put more than `limit` in flight.
#[derive(Debug, Clone)]
pub struct Window {
    limit: u64,
    sent: u64,
    /// Messages given up on (refused, or missing after the delivery
    /// timeout); they no longer occupy the window.
    written_off: u64,
}

impl Window {
    pub fn new(limit: u64) -> Window {
        assert!(limit >= 1, "a closed loop needs a window of at least one");
        Window {
            limit,
            sent: 0,
            written_off: 0,
        }
    }

    /// Messages sent so far, including written-off ones.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Messages outstanding given that `completed` have been delivered.
    pub fn in_flight(&self, completed: u64) -> u64 {
        self.sent
            .saturating_sub(self.written_off)
            .saturating_sub(completed)
    }

    /// Claim a slot for the next message. `false` means the window is
    /// full: wait for a completion and ask again.
    pub fn try_send(&mut self, completed: u64) -> bool {
        if self.in_flight(completed) < self.limit {
            self.sent += 1;
            true
        } else {
            false
        }
    }

    /// Give up on `n` outstanding messages so the loop can go on.
    pub fn write_off(&mut self, n: u64) {
        self.written_off += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_more_than_the_limit_in_flight() {
        // Drive the window with an adversarial completion schedule and
        // check the invariant after every step.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for limit in [1u64, 2, 4, 32] {
            let mut w = Window::new(limit);
            let mut completed = 0u64;
            for _ in 0..10_000 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(3) && completed < w.sent() {
                    completed += 1;
                }
                let before = w.in_flight(completed);
                let granted = w.try_send(completed);
                assert_eq!(granted, before < limit);
                assert!(w.in_flight(completed) <= limit, "limit {limit} exceeded");
            }
            assert!(w.sent() > limit, "the loop made progress");
        }
    }

    #[test]
    fn window_of_one_alternates_send_and_wait() {
        let mut w = Window::new(1);
        assert!(w.try_send(0));
        assert!(!w.try_send(0), "second send must wait for the callback");
        assert!(w.try_send(1));
        assert_eq!(w.sent(), 2);
    }

    #[test]
    fn written_off_messages_free_their_slots() {
        let mut w = Window::new(2);
        assert!(w.try_send(0) && w.try_send(0));
        assert!(!w.try_send(0));
        w.write_off(2);
        assert_eq!(w.in_flight(0), 0);
        assert!(w.try_send(0));
    }
}
