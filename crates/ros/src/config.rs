//! Per-node transport tunables.
//!
//! A [`TransportConfig`] lives on the [`NodeHandle`](crate::NodeHandle) and
//! is handed to every publisher and subscriber it creates — the one layer
//! these knobs are set in — so one node can run a hardened profile (fast
//! reconnect, verified frames) while another runs the defaults. A
//! publisher's queue size is the one per-endpoint knob
//! ([`PublisherOptions::queue_size`](crate::PublisherOptions::queue_size));
//! the largest frame is a constant,
//! [`MAX_FRAME_LEN`](crate::wire::MAX_FRAME_LEN).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Duration;

/// Capped exponential backoff governing subscriber reconnection, which
/// retries for as long as the publisher stays registered.
///
/// The delay before attempt `n` (0-based) is `initial * 2^n`, capped at
/// `max`, then scaled by a deterministic jitter factor in `[0.75, 1.25]`
/// derived from the (seed, attempt) pair — different subscribers
/// desynchronize without any global randomness, and a given subscriber
/// retries on the same schedule every run.
#[derive(Debug, Clone, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first retry.
    pub initial: Duration,
    /// Upper bound on any single delay, before jitter.
    pub max: Duration,
}

/// Growth factor between consecutive delays.
const MULTIPLIER: f64 = 2.0;
/// Jitter fraction: delays spread ±25 %.
const JITTER: f64 = 0.25;

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            initial: Duration::from_millis(10),
            max: Duration::from_secs(2),
        }
    }
}

impl BackoffPolicy {
    /// The delay to sleep before retry number `attempt` (0-based), jittered
    /// deterministically by `seed`.
    pub fn delay(&self, attempt: u32, seed: u64) -> Duration {
        let base = self.initial.as_secs_f64() * MULTIPLIER.powi(attempt.min(63) as i32);
        let capped = base.min(self.max.as_secs_f64());
        let mut h = DefaultHasher::new();
        (seed, attempt).hash(&mut h);
        // Map the hash to [-1, 1], then to [1 - JITTER, 1 + JITTER].
        let unit = (h.finish() >> 11) as f64 / (1u64 << 53) as f64;
        Duration::from_secs_f64(capped * (1.0 + JITTER * (2.0 * unit - 1.0)))
    }
}

/// Per-node transport tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportConfig {
    /// How long either side of the connection handshake may block reading
    /// the peer's header before the connection is abandoned.
    pub handshake_timeout: Duration,
    /// Reconnection schedule for subscriber connections that die.
    pub backoff: BackoffPolicy,
    /// Run the structural verifier over every received frame before
    /// adopting it ([`rossf_sfm::verify_frame`]). A frame that fails is
    /// dropped and counted (`verify_rejects`) instead of being adopted; the
    /// connection stays up because length-prefixed framing is still in
    /// sync. Off by default — adopted frames are otherwise only
    /// bounds-checked, not proved structurally sound.
    pub validate_on_receive: bool,
    /// Use the zero-copy same-machine fast path when publisher and
    /// subscriber share a `MachineId` within one process: the encoded
    /// [`OutFrame`](crate::OutFrame) — a refcounted SFM buffer pointer — is
    /// handed directly into the subscriber's delivery queue, skipping the
    /// loopback socket entirely. Both ends must opt in; either side
    /// disabling it falls back to TCP transparently. On by default.
    pub enable_fastpath: bool,
    /// Allow the shared-memory tier even when publisher and subscriber
    /// share one process (where the fast path would normally win). Across
    /// processes on one machine the shm tier is always offered and granted;
    /// within one process it is off by default, and benchmarks and tests
    /// turn it on to exercise the full shm data path — ring, segments, and
    /// read-only mapping — inside a single process.
    pub shm_same_process: bool,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            handshake_timeout: Duration::from_secs(5),
            backoff: BackoffPolicy::default(),
            validate_on_receive: false,
            enable_fastpath: true,
            shm_same_process: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = TransportConfig::default();
        assert!(c.enable_fastpath, "zero-copy fast path on by default");
        assert!(
            !c.shm_same_process,
            "same-process traffic prefers the fast path by default"
        );
    }

    /// Whether `d` is `base` scaled by a jitter factor inside its bounds.
    fn jittered(d: Duration, base: f64) -> bool {
        let secs = d.as_secs_f64();
        secs >= base * (1.0 - JITTER) - 1e-9 && secs <= base * (1.0 + JITTER) + 1e-9
    }

    #[test]
    fn backoff_grows_and_caps() {
        let b = BackoffPolicy::default();
        assert!(jittered(b.delay(0, 7), 0.010));
        assert!(jittered(b.delay(1, 7), 0.020));
        assert!(jittered(b.delay(3, 7), 0.080));
        // Far past the cap.
        assert!(jittered(b.delay(30, 7), b.max.as_secs_f64()));
        // Overflowing exponents still cap instead of going non-finite.
        assert!(jittered(b.delay(u32::MAX, 7), b.max.as_secs_f64()));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let b = BackoffPolicy::default();
        for attempt in 0..8 {
            for seed in [1u64, 99, 12345] {
                let d = b.delay(attempt, seed);
                assert_eq!(d, b.delay(attempt, seed), "same inputs, same delay");
                let base = b.initial.as_secs_f64() * MULTIPLIER.powi(attempt as i32);
                let base = base.min(b.max.as_secs_f64());
                assert!(jittered(d, base), "delay {d:?} outside ±{JITTER} of {base}");
            }
        }
        // Different seeds should (almost surely) jitter differently.
        assert_ne!(b.delay(4, 1), b.delay(4, 2));
    }
}
