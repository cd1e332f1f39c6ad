//! Error type for middleware operations.

use crate::ser::DecodeError;
use core::fmt;

/// Errors surfaced by the pub/sub middleware.
#[derive(Debug)]
pub enum RosError {
    /// Underlying socket/listener failure.
    Io(std::io::Error),
    /// A frame failed ROS1 de-serialization.
    Decode(DecodeError),
    /// A serialization-free frame failed adoption (size/offset checks).
    Sfm(rossf_sfm::SfmError),
    /// A serialization-free frame failed structural verification
    /// (`validate_on_receive`); the diagnostic names the failing field
    /// path.
    Verify(rossf_sfm::VerifyError),
    /// Publisher and subscriber disagree about the topic's message type.
    TypeMismatch {
        /// The topic in question.
        topic: String,
        /// Type registered on the other end.
        registered: String,
        /// Type this end attempted to use.
        attempted: String,
    },
    /// A frame length violated the transport's bound: an incoming length
    /// prefix above [`MAX_FRAME_LEN`](crate::wire::MAX_FRAME_LEN) (rejected
    /// before any allocation) or an outgoing payload too large for the
    /// 4-byte prefix.
    FrameTooLarge {
        /// Claimed or actual payload length.
        len: usize,
        /// The bound that was exceeded.
        max: usize,
    },
    /// A requested field projection (`SubscriberOptions::project`) could
    /// not be resolved against the message type's layout schema.
    Projection(rossf_sfm::PathError),
    /// Malformed connection header during the TCPROS-style handshake.
    BadHeader(String),
    /// The peer rejected the connection during handshake.
    Rejected(String),
}

impl fmt::Display for RosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RosError::Io(e) => write!(f, "transport i/o error: {e}"),
            RosError::Decode(e) => write!(f, "message decode error: {e}"),
            RosError::Sfm(e) => write!(f, "serialization-free adoption error: {e}"),
            RosError::Verify(e) => write!(f, "frame failed structural verification: {e}"),
            RosError::TypeMismatch {
                topic,
                registered,
                attempted,
            } => write!(
                f,
                "topic `{topic}` carries `{registered}` but `{attempted}` was used"
            ),
            RosError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds limit of {max}")
            }
            RosError::Projection(e) => write!(f, "field projection rejected: {e}"),
            RosError::BadHeader(s) => write!(f, "malformed connection header: {s}"),
            RosError::Rejected(s) => write!(f, "connection rejected by peer: {s}"),
        }
    }
}

impl std::error::Error for RosError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RosError::Io(e) => Some(e),
            RosError::Decode(e) => Some(e),
            RosError::Sfm(e) => Some(e),
            RosError::Verify(e) => Some(e),
            RosError::Projection(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RosError {
    fn from(e: std::io::Error) -> Self {
        RosError::Io(e)
    }
}

impl From<DecodeError> for RosError {
    fn from(e: DecodeError) -> Self {
        RosError::Decode(e)
    }
}

impl From<rossf_sfm::SfmError> for RosError {
    fn from(e: rossf_sfm::SfmError) -> Self {
        RosError::Sfm(e)
    }
}

impl From<rossf_sfm::VerifyError> for RosError {
    fn from(e: rossf_sfm::VerifyError) -> Self {
        RosError::Verify(e)
    }
}

impl From<rossf_sfm::PathError> for RosError {
    fn from(e: rossf_sfm::PathError) -> Self {
        RosError::Projection(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let io: RosError = std::io::Error::other("boom").into();
        assert!(io.to_string().contains("boom"));
        assert!(io.source().is_some());

        let tm = RosError::TypeMismatch {
            topic: "camera/image".into(),
            registered: "sensor_msgs/Image".into(),
            attempted: "sensor_msgs/LaserScan".into(),
        };
        assert!(tm.to_string().contains("camera/image"));
        assert!(tm.source().is_none());

        let sfm: RosError = rossf_sfm::SfmError::FrameTooSmall {
            expected: 24,
            actual: 2,
        }
        .into();
        assert!(sfm.to_string().contains("adoption"));

        let big = RosError::FrameTooLarge {
            len: 5_000_000_000,
            max: 1 << 26,
        };
        assert!(big.to_string().contains("5000000000"));
        assert!(big.source().is_none());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RosError>();
    }
}
