//! ROS time: the `time` primitive of the ROS IDL plus the host's monotonic
//! clock used for latency measurement.
//!
//! The experiments stamp a message with its creation time at the publisher
//! and subtract at the subscriber (Fig. 12). The clock counts
//! `CLOCK_MONOTONIC` since boot, which every process on the host reads
//! alike, so a stamp subtracts cleanly in the same process or another one
//! on the host — the simulated machines share it too (the reason the paper
//! uses ping-pong for inter-machine tests is *avoided*, but we still
//! reproduce the ping-pong topology).

/// The ROS `time` primitive: seconds + nanoseconds since an epoch. Wire
/// format: two little-endian `u32`s.
///
/// `#[repr(C)]` and [`SfmPod`](rossf_sfm::SfmPod) so the same type serves
/// as the `time` field of both plain and SFM message structs.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RosTime {
    /// Whole seconds.
    pub sec: u32,
    /// Nanoseconds within the second (`< 1_000_000_000`).
    pub nsec: u32,
}

impl RosTime {
    /// Zero time.
    pub const ZERO: RosTime = RosTime { sec: 0, nsec: 0 };

    /// Current time on the host's monotonic clock (since boot).
    pub fn now() -> RosTime {
        RosTime::from_nanos(now_nanos())
    }

    /// Build from a nanosecond count.
    pub fn from_nanos(nanos: u64) -> RosTime {
        RosTime {
            sec: (nanos / 1_000_000_000) as u32,
            nsec: (nanos % 1_000_000_000) as u32,
        }
    }

    /// Total nanoseconds represented.
    pub fn as_nanos(&self) -> u64 {
        self.sec as u64 * 1_000_000_000 + self.nsec as u64
    }

    /// `self - earlier` in nanoseconds; saturates at zero if `earlier` is
    /// later (clock misuse).
    pub fn nanos_since(&self, earlier: RosTime) -> u64 {
        self.as_nanos().saturating_sub(earlier.as_nanos())
    }
}

// SAFETY: two u32s, repr(C), all-zero is valid, no drop glue.
unsafe impl rossf_sfm::SfmPod for RosTime {}

impl rossf_sfm::SfmReflect for RosTime {
    /// A `time` is an indirection-free 8-byte leaf to the verifier.
    fn type_desc() -> rossf_sfm::TypeDesc {
        rossf_sfm::TypeDesc::Prim {
            size: core::mem::size_of::<RosTime>(),
            align: core::mem::align_of::<RosTime>(),
        }
    }
}

impl rossf_sfm::SfmValidate for RosTime {
    #[inline]
    fn validate_in(&self, _base: usize, _len: usize) -> Result<(), rossf_sfm::SfmError> {
        Ok(())
    }
}

/// The ROS `duration` primitive: a signed seconds + nanoseconds span.
/// Wire format: two little-endian `i32`s.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RosDuration {
    /// Whole seconds (may be negative).
    pub sec: i32,
    /// Nanoseconds within the second.
    pub nsec: i32,
}

// SAFETY: two i32s, repr(C), all-zero is valid, no drop glue.
unsafe impl rossf_sfm::SfmPod for RosDuration {}

impl rossf_sfm::SfmReflect for RosDuration {
    /// A `duration` is an indirection-free 8-byte leaf to the verifier.
    fn type_desc() -> rossf_sfm::TypeDesc {
        rossf_sfm::TypeDesc::Prim {
            size: core::mem::size_of::<RosDuration>(),
            align: core::mem::align_of::<RosDuration>(),
        }
    }
}

impl rossf_sfm::SfmValidate for RosDuration {
    #[inline]
    fn validate_in(&self, _base: usize, _len: usize) -> Result<(), rossf_sfm::SfmError> {
        Ok(())
    }
}

/// Nanoseconds since boot on the host's `CLOCK_MONOTONIC`.
///
/// Shares the tracing clock (`rossf_trace::now_nanos`): message stamps and
/// stage spans live on one timeline, so a trace waterfall can be correlated
/// with `RosTime` latency measurements directly.
pub fn now_nanos() -> u64 {
    rossf_trace::now_nanos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nanos() {
        for nanos in [0u64, 1, 999_999_999, 1_000_000_000, 1_234_567_891] {
            assert_eq!(RosTime::from_nanos(nanos).as_nanos(), nanos);
        }
    }

    #[test]
    fn now_is_monotone() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
        let t1 = RosTime::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let t2 = RosTime::now();
        assert!(t2.nanos_since(t1) >= 2_000_000);
    }

    #[test]
    fn nanos_since_saturates() {
        let early = RosTime::from_nanos(100);
        let late = RosTime::from_nanos(500);
        assert_eq!(late.nanos_since(early), 400);
        assert_eq!(early.nanos_since(late), 0);
    }

    #[test]
    fn nsec_stays_in_range() {
        let t = RosTime::from_nanos(7_999_999_999);
        assert_eq!(t.sec, 7);
        assert_eq!(t.nsec, 999_999_999);
    }
}
