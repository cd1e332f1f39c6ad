//! The tag a traced frame carries beside its payload, on every tier that
//! leaves the process: the shm ring's descriptor holds its two words, and a
//! granted TCP link sends its 16 encoded bytes after each frame's payload.

/// A frame's trace identity and the instant its sender let go of it, on
/// the [`now_nanos`](crate::now_nanos) clock — the start of the reader's
/// `wire_read` span. All zeros when untraced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameMeta {
    /// Trace id (0 = untraced).
    pub trace_id: u64,
    /// When the sender offered the frame's last bytes to the link.
    pub sent_ns: u64,
}

impl FrameMeta {
    /// Encoded size: two little-endian `u64`s, `trace_id` first.
    pub const LEN: usize = 16;

    /// The wire encoding.
    pub fn to_le_bytes(self) -> [u8; Self::LEN] {
        let mut out = [0; Self::LEN];
        out[..8].copy_from_slice(&self.trace_id.to_le_bytes());
        out[8..].copy_from_slice(&self.sent_ns.to_le_bytes());
        out
    }

    /// Decode [`FrameMeta::to_le_bytes`]'s output. Any 16 bytes decode:
    /// the values come from a peer and are only ever subtracted with
    /// saturation.
    pub fn from_le_bytes(bytes: [u8; Self::LEN]) -> FrameMeta {
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        FrameMeta {
            trace_id: word(0),
            sent_ns: word(8),
        }
    }
}
