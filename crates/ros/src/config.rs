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

/// Capped exponential backoff governing subscriber reconnection.
///
/// The delay before attempt `n` (0-based) is
/// `initial * multiplier^n`, capped at `max`, then scaled by a
/// deterministic jitter factor in `[1 - jitter, 1 + jitter]` derived from
/// the (seed, attempt) pair — different subscribers desynchronize without
/// any global randomness, and a given subscriber retries on the same
/// schedule every run.
#[derive(Debug, Clone, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first retry.
    pub initial: Duration,
    /// Upper bound on any single delay.
    pub max: Duration,
    /// Growth factor between consecutive delays.
    pub multiplier: f64,
    /// Jitter fraction in `[0, 1)`; `0.25` spreads delays ±25 %.
    pub jitter: f64,
    /// Give up after this many failed attempts; `0` retries forever.
    pub max_attempts: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy {
            initial: Duration::from_millis(10),
            max: Duration::from_secs(2),
            multiplier: 2.0,
            jitter: 0.25,
            max_attempts: 0,
        }
    }
}

impl BackoffPolicy {
    /// The delay to sleep before retry number `attempt` (0-based), jittered
    /// deterministically by `seed`.
    pub fn delay(&self, attempt: u32, seed: u64) -> Duration {
        let base = self.initial.as_secs_f64() * self.multiplier.powi(attempt.min(63) as i32);
        let capped = base.min(self.max.as_secs_f64());
        let jittered = capped * self.jitter_factor(attempt, seed);
        Duration::from_secs_f64(jittered.max(0.0))
    }

    /// `true` once `attempt` retries have failed and the policy says stop.
    pub fn exhausted(&self, attempt: u32) -> bool {
        self.max_attempts != 0 && attempt >= self.max_attempts
    }

    fn jitter_factor(&self, attempt: u32, seed: u64) -> f64 {
        if self.jitter <= 0.0 {
            return 1.0;
        }
        let mut h = DefaultHasher::new();
        (seed, attempt).hash(&mut h);
        // Map the hash to [-1, 1], then to [1 - jitter, 1 + jitter].
        let unit = (h.finish() >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + self.jitter * (2.0 * unit - 1.0)
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
        assert!(!c.backoff.exhausted(1_000_000));
        assert!(c.enable_fastpath, "zero-copy fast path on by default");
        assert!(
            !c.shm_same_process,
            "same-process traffic prefers the fast path by default"
        );
    }

    #[test]
    fn backoff_grows_and_caps() {
        let b = BackoffPolicy {
            jitter: 0.0,
            ..BackoffPolicy::default()
        };
        assert_eq!(b.delay(0, 7), Duration::from_millis(10));
        assert_eq!(b.delay(1, 7), Duration::from_millis(20));
        assert_eq!(b.delay(3, 7), Duration::from_millis(80));
        // Far past the cap.
        assert_eq!(b.delay(30, 7), b.max);
        // Overflowing exponents still cap instead of going non-finite.
        assert_eq!(b.delay(u32::MAX, 7), b.max);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let b = BackoffPolicy::default();
        for attempt in 0..8 {
            for seed in [1u64, 99, 12345] {
                let d = b.delay(attempt, seed);
                assert_eq!(d, b.delay(attempt, seed), "same inputs, same delay");
                let base = b.initial.as_secs_f64() * b.multiplier.powi(attempt as i32);
                let base = base.min(b.max.as_secs_f64());
                let lo = base * (1.0 - b.jitter) - 1e-9;
                let hi = base * (1.0 + b.jitter) + 1e-9;
                let secs = d.as_secs_f64();
                assert!(
                    secs >= lo && secs <= hi,
                    "delay {secs} outside [{lo}, {hi}]"
                );
            }
        }
        // Different seeds should (almost surely) jitter differently.
        assert_ne!(b.delay(4, 1), b.delay(4, 2));
    }

    #[test]
    fn max_attempts_exhaustion() {
        let b = BackoffPolicy {
            max_attempts: 3,
            ..BackoffPolicy::default()
        };
        assert!(!b.exhausted(2));
        assert!(b.exhausted(3));
        assert!(b.exhausted(4));
    }
}
