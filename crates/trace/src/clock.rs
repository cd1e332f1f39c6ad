//! The host-wide monotonic clock all trace timestamps share.
//!
//! [`now_nanos`] counts `CLOCK_MONOTONIC` since boot, which every process on
//! a host reads alike: a stamp taken by a publisher and carried beside its
//! frame ([`FrameMeta`](crate::FrameMeta)) is directly comparable with the
//! subscriber's clock, in this process or another, so span arithmetic never
//! crosses clock domains. `rossf_ros::time::now_nanos` delegates here, so
//! end-to-end latency measurements and stage spans are comparable too.
//! Clocks on different hosts are not synchronised.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since boot on the host's `CLOCK_MONOTONIC`. The clock is
/// read by syscall once, on first use; every read after that advances it
/// with [`Instant`], which runs on the same clock at vDSO cost.
#[inline]
pub fn now_nanos() -> u64 {
    static EPOCH: OnceLock<(Instant, u64)> = OnceLock::new();
    let (epoch, boot_ns) = *EPOCH.get_or_init(|| {
        let epoch = Instant::now();
        (epoch, rossf_sys::monotonic_now().as_nanos() as u64)
    });
    boot_ns + epoch.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(now_nanos() - a >= 2_000_000);
    }

    /// The offset is the host clock's: a fresh syscall read lands within a
    /// millisecond of the offset clock, either way.
    #[test]
    fn clock_counts_from_boot() {
        let ours = now_nanos();
        let host = rossf_sys::monotonic_now().as_nanos() as u64;
        assert!(ours.abs_diff(host) < 1_000_000, "{ours} vs host {host}");
    }
}
