//! Wire framing and the TCPROS-style connection header.
//!
//! Each (publisher, subscriber) pair speaks over one TCP connection:
//!
//! 1. the subscriber sends a [`ConnectionHeader`] (topic, type, machine,
//!    endianness);
//! 2. the publisher validates and replies with its own header (or an
//!    `error=` header);
//! 3. message frames follow, each a little-endian `u32` length + payload
//!    (+ a 16-byte trace trailer on a link both of whose ends are traced).
//!
//! The payload of a frame is either serialized bytes (ordinary messages) or
//! the whole serialization-free message verbatim ([`FramePayload::Sfm`]).

use crate::error::RosError;
use rossf_netsim::MachineId;
use rossf_sfm::PublishedBuffer;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::Arc;

/// The payload of an encoded message: serialized bytes or the whole
/// serialization-free message verbatim.
#[derive(Debug, Clone)]
pub enum FramePayload {
    /// Serialized bytes produced by a ROS1 serializer (baseline path).
    Owned(Arc<Vec<u8>>),
    /// The whole serialization-free message (zero-copy path).
    Sfm(PublishedBuffer),
}

/// Per-message tracing tag riding on a frame.
///
/// `Copy`, so each per-connection clone of an [`OutFrame`] carries an
/// *independent* tag — `publish` stamps a distinct `enqueued_ns` into every
/// transmission-queue copy without aliasing. An `id` of 0 means the frame is
/// untraced and every instrumentation site skips it.
///
/// On the fast path the tag reaches the subscriber on the frame object
/// itself. A frame that leaves the process carries its id beside the
/// payload as a [`FrameMeta`](rossf_trace::FrameMeta): in the shm
/// descriptor, or as a trailer after the payload on a TCP link granted
/// one in the handshake.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceTag {
    /// Process-unique trace id (0 = untraced).
    pub id: u64,
    /// Backing-buffer birth timestamp (0 when unknown): anchors the `alloc`
    /// stage. Republished messages zero this so a relay hop doesn't inherit
    /// the first hop's allocation span.
    pub born_ns: u64,
    /// When this copy was deposited into its transmission queue (0 until
    /// enqueued).
    pub enqueued_ns: u64,
}

/// One encoded message ready for transmission.
///
/// `Clone` is cheap (reference counted) — `publish` encodes once and hands
/// a clone to every per-connection transmission queue, which is exactly the
/// paper's "copy of the buffer pointer is provided to ROS" (Fig. 8).
#[derive(Debug, Clone)]
pub struct OutFrame {
    payload: FramePayload,
    trace: TraceTag,
}

impl OutFrame {
    /// A frame over serialized bytes (baseline path), untraced.
    pub fn owned(bytes: Arc<Vec<u8>>) -> Self {
        OutFrame {
            payload: FramePayload::Owned(bytes),
            trace: TraceTag::default(),
        }
    }

    /// A frame over a serialization-free whole message (zero-copy path).
    /// Inherits the buffer's birth timestamp as the `alloc` anchor.
    pub fn sfm(buffer: PublishedBuffer) -> Self {
        let born_ns = buffer.alloc_ns();
        OutFrame {
            payload: FramePayload::Sfm(buffer),
            trace: TraceTag {
                born_ns,
                ..TraceTag::default()
            },
        }
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.payload {
            FramePayload::Owned(v) => v.as_slice(),
            FramePayload::Sfm(b) => b.as_slice(),
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match &self.payload {
            FramePayload::Owned(v) => v.len(),
            FramePayload::Sfm(b) => b.len(),
        }
    }

    /// `true` for an empty payload (never produced by real messages).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The payload (serialized bytes or whole serialization-free message).
    pub fn payload(&self) -> &FramePayload {
        &self.payload
    }

    /// This copy's tracing tag.
    #[inline]
    pub fn trace(&self) -> TraceTag {
        self.trace
    }

    /// Mutable access to this copy's tracing tag (stamped by `publish`).
    #[inline]
    pub fn trace_mut(&mut self) -> &mut TraceTag {
        &mut self.trace
    }
}

/// Largest frame the transport carries, 64 MiB. A publisher refuses to send
/// a bigger one (`frames_dropped_oversized`), and a length prefix above it is
/// a protocol violation on every read path — topic links and both ends of a
/// service — rejected *before* any allocation (a corrupted or hostile
/// 4-byte prefix can claim up to 4 GiB).
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Validate that a payload length fits the 4-byte frame prefix.
///
/// # Errors
///
/// [`RosError::FrameTooLarge`] for payloads the prefix cannot represent —
/// writing such a frame would silently truncate the length and desync the
/// stream.
pub fn frame_len_prefix(len: usize) -> Result<u32, RosError> {
    u32::try_from(len).map_err(|_| RosError::FrameTooLarge {
        len,
        max: u32::MAX as usize,
    })
}

/// Write one length-prefixed frame.
///
/// # Errors
///
/// [`RosError::FrameTooLarge`] if the payload cannot be represented by the
/// 4-byte length prefix (≥ 4 GiB); otherwise propagates I/O errors from the
/// underlying stream.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), RosError> {
    w.write_all(&frame_len_prefix(payload.len())?.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame length header. Returns `None` on clean EOF before the
/// header (peer closed).
///
/// # Errors
///
/// Propagates I/O errors from the underlying stream.
pub fn read_frame_len<R: Read>(r: &mut R) -> Result<Option<usize>, RosError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(RosError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame header",
                )))
            }
            n => filled += n,
        }
    }
    Ok(Some(u32::from_le_bytes(len_buf) as usize))
}

/// Connection-header field carrying a subscriber's requested field
/// projection (the canonical comma-joined path spec). A publisher that can
/// honor it echoes the *exact* spec back in its reply; any other reply —
/// no echo, an error, a different spec — means the link carries full
/// frames. Old peers ignore the field entirely, so projection degrades to
/// full-frame delivery across version skew.
pub const PROJECT_FIELD: &str = "project";

/// Connection-header field a traced subscriber adds to its request
/// (`trace=1`); a traced publisher echoes it exactly, and that echo is the
/// grant: every frame on the link is then followed by a 16-byte
/// [`FrameMeta`](rossf_trace::FrameMeta) trailer. Any other reply — no
/// echo, from an untraced publisher or one that predates the field — means
/// the link carries untagged frames, byte-identical to an untraced link.
pub(crate) const TRACE_FIELD: &str = "trace";

/// The key/value connection header exchanged at connect time, mirroring
/// TCPROS (`topic=`, `type=`, plus this reproduction's `machine=` used for
/// link shaping and `endian=` per the paper's §4.4.1 discussion).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConnectionHeader {
    fields: BTreeMap<String, String>,
}

impl ConnectionHeader {
    /// Empty header.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a field, returning `self` for chaining.
    pub fn with(mut self, key: &str, value: impl Into<String>) -> Self {
        self.fields.insert(key.to_string(), value.into());
        self
    }

    /// Get a field.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.get(key).map(String::as_str)
    }

    /// The request every subscriber-side attachment opens with — TCP
    /// handshake, fast-path attach and capture tap alike; each adds its
    /// own capability fields on top.
    pub(crate) fn request(topic: &str, type_name: &str, machine: MachineId) -> Self {
        ConnectionHeader::new()
            .with("topic", topic)
            .with("type", type_name)
            .with("machine", machine.0.to_string())
            .with("endian", ConnectionHeader::native_endian())
    }

    /// Judge a publisher's reply the way every attachment does.
    ///
    /// # Errors
    ///
    /// [`RosError::Rejected`] when the publisher answered with an `error=`
    /// field, or runs on the other endianness (§4.4.1: a
    /// serialization-free frame arrives in the publisher's byte order and
    /// conversion is out of scope, so a cross-endian link is refused
    /// outright).
    pub(crate) fn check_reply(&self) -> Result<(), RosError> {
        if let Some(err) = self.get("error") {
            return Err(RosError::Rejected(err.to_string()));
        }
        match self.get("endian") {
            Some(endian) if endian != ConnectionHeader::native_endian() => Err(RosError::Rejected(
                format!("endianness mismatch: publisher is {endian}"),
            )),
            _ => Ok(()),
        }
    }

    /// Host endianness marker for the `endian` field.
    pub fn native_endian() -> &'static str {
        if cfg!(target_endian = "little") {
            "le"
        } else {
            "be"
        }
    }

    /// Serialize and write as a length-prefixed blob.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), RosError> {
        let mut blob = Vec::new();
        for (k, v) in &self.fields {
            let field = format!("{k}={v}");
            (field.len() as u32)
                .to_le_bytes()
                .iter()
                .for_each(|b| blob.push(*b));
            blob.extend_from_slice(field.as_bytes());
        }
        write_frame(w, &blob)
    }

    /// Read a header previously written by [`ConnectionHeader::write_to`].
    ///
    /// # Errors
    ///
    /// [`RosError::BadHeader`] on malformed input, [`RosError::Io`] on
    /// transport failure or EOF.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Self, RosError> {
        let len = read_frame_len(r)?.ok_or_else(|| {
            RosError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof before connection header",
            ))
        })?;
        if len > 64 * 1024 {
            return Err(RosError::BadHeader(format!("header too large: {len}")));
        }
        let mut blob = vec![0u8; len];
        r.read_exact(&mut blob)?;
        let mut fields = BTreeMap::new();
        let mut pos = 0;
        while pos < blob.len() {
            if pos + 4 > blob.len() {
                return Err(RosError::BadHeader("truncated field length".into()));
            }
            let flen = u32::from_le_bytes(blob[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            pos += 4;
            if pos + flen > blob.len() {
                return Err(RosError::BadHeader("truncated field".into()));
            }
            let field = std::str::from_utf8(&blob[pos..pos + flen])
                .map_err(|_| RosError::BadHeader("non-utf8 field".into()))?;
            pos += flen;
            let (k, v) = field
                .split_once('=')
                .ok_or_else(|| RosError::BadHeader(format!("missing `=` in `{field}`")))?;
            fields.insert(k.to_string(), v.to_string());
        }
        Ok(ConnectionHeader { fields })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"payload").unwrap();
        let mut r = &wire[..];
        let len = read_frame_len(&mut r).unwrap().unwrap();
        assert_eq!(len, 7);
        assert_eq!(r, b"payload");
    }

    #[test]
    fn unencodable_payload_length_is_an_error() {
        // 4 GiB and beyond cannot be described by the u32 prefix; the check
        // fires on the length alone, before any payload byte is touched.
        assert_eq!(frame_len_prefix(u32::MAX as usize).unwrap(), u32::MAX);
        let too_big = u32::MAX as usize + 1;
        assert!(matches!(
            frame_len_prefix(too_big),
            Err(RosError::FrameTooLarge { len, max })
                if len == too_big && max == u32::MAX as usize
        ));
    }

    #[test]
    fn eof_before_frame_is_none() {
        let mut r: &[u8] = &[];
        assert!(read_frame_len(&mut r).unwrap().is_none());
    }

    #[test]
    fn eof_inside_header_is_error() {
        let mut r: &[u8] = &[1, 2];
        assert!(read_frame_len(&mut r).is_err());
    }

    #[test]
    fn header_roundtrip() {
        let h = ConnectionHeader::new()
            .with("topic", "camera/image")
            .with("type", "sensor_msgs/Image")
            .with("machine", "0")
            .with("endian", ConnectionHeader::native_endian());
        let mut wire = Vec::new();
        h.write_to(&mut wire).unwrap();
        let back = ConnectionHeader::read_from(&mut &wire[..]).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.get("topic"), Some("camera/image"));
        assert_eq!(back.get("missing"), None);
    }

    #[test]
    fn malformed_headers_rejected() {
        // Field without '='.
        let mut blob = Vec::new();
        blob.extend_from_slice(&3u32.to_le_bytes());
        blob.extend_from_slice(b"abc");
        let mut wire = Vec::new();
        write_frame(&mut wire, &blob).unwrap();
        assert!(matches!(
            ConnectionHeader::read_from(&mut &wire[..]),
            Err(RosError::BadHeader(_))
        ));

        // Truncated inner field.
        let mut blob = Vec::new();
        blob.extend_from_slice(&100u32.to_le_bytes());
        blob.extend_from_slice(b"k=v");
        let mut wire = Vec::new();
        write_frame(&mut wire, &blob).unwrap();
        assert!(ConnectionHeader::read_from(&mut &wire[..]).is_err());
    }

    /// Deterministic xorshift64* generator (the scheme
    /// `crates/msg/tests/verify_corruption.rs` uses), for every seeded
    /// sweep in this crate's unit tests.
    pub(crate) struct Rng(pub(crate) u64);

    impl Rng {
        pub(crate) fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        pub(crate) fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// The header arrives from an unauthenticated peer: whatever the bytes,
    /// `read_from` answers `Ok`, `BadHeader` or `Io` — no panic — and an
    /// outer length past the 64 KiB cap is refused on the prefix alone,
    /// before a body byte is read or a buffer sized from it.
    #[test]
    fn corrupted_headers_never_panic_or_overallocate() {
        let mut rng = Rng(0x0C0F_FEE5_2022);
        for case in 0..4000 {
            let mut header = ConnectionHeader::new();
            for f in 0..1 + rng.below(6) {
                let value: String = (0..rng.below(40))
                    .map(|_| (b'a' + rng.below(26) as u8) as char)
                    .collect();
                header = header.with(&format!("k{f}"), value);
            }
            let mut wire = Vec::new();
            header.write_to(&mut wire).unwrap();
            // Inner field-length prefixes sit at 4, 4 + 4 + len0, ...
            let mut field_at = vec![4];
            while let Some(&at) = field_at.last() {
                let flen = u32::from_le_bytes(wire[at..at + 4].try_into().unwrap()) as usize;
                if at + 4 + flen >= wire.len() {
                    break;
                }
                field_at.push(at + 4 + flen);
            }
            let at = field_at[rng.below(field_at.len())];
            let hostile_len = [0, u32::MAX, (wire.len() - at) as u32 + rng.below(64) as u32];
            match case % 6 {
                0 => wire.truncate(rng.below(wire.len())),
                1 => {
                    for _ in 0..1 + rng.below(8) {
                        let bit = rng.below(wire.len() * 8);
                        wire[bit / 8] ^= 1 << (bit % 8);
                    }
                }
                2 => wire[at..at + 4].copy_from_slice(&hostile_len[rng.below(3)].to_le_bytes()),
                3 => {
                    let outer = 64 * 1024 + 1 + rng.below(1 << 20) as u32;
                    wire[..4].copy_from_slice(&outer.to_le_bytes());
                    wire.resize(4 + outer as usize * rng.below(2), 0);
                }
                4 => wire[at + 4] = 0xFF, // not UTF-8
                _ => {
                    let eq = at + 4 + wire[at + 4..].iter().position(|&b| b == b'=').unwrap();
                    wire[eq] = b'~'; // the field's only `=` (keys and values are a-z, 0-9)
                }
            }
            let outer = wire
                .get(..4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()) as usize);
            let mut reader = std::io::Cursor::new(&wire);
            match ConnectionHeader::read_from(&mut reader) {
                Ok(_) | Err(RosError::Io(_)) => assert!(outer.is_none_or(|n| n <= 64 * 1024)),
                Err(RosError::BadHeader(_)) => {}
                Err(other) => panic!("case {case}: unexpected error {other:?}"),
            }
            if outer.is_some_and(|n| n > 64 * 1024) {
                assert_eq!(
                    reader.position(),
                    4,
                    "case {case}: read past the refused prefix"
                );
            }
        }
    }

    #[test]
    fn outframe_views() {
        let f = OutFrame::owned(Arc::new(vec![1, 2, 3]));
        assert_eq!(f.as_slice(), &[1, 2, 3]);
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
        assert!(matches!(f.payload(), FramePayload::Owned(_)));
        let g = f.clone();
        assert_eq!(g.as_slice(), f.as_slice());
    }

    #[test]
    fn outframe_trace_tags_are_per_clone() {
        let mut f = OutFrame::owned(Arc::new(vec![9]));
        assert_eq!(f.trace(), TraceTag::default(), "untraced by default");
        f.trace_mut().id = 7;
        let mut g = f.clone();
        g.trace_mut().enqueued_ns = 123;
        assert_eq!(f.trace().enqueued_ns, 0, "clones carry independent tags");
        assert_eq!(g.trace().id, 7);
    }

    #[test]
    fn native_endian_matches_cfg() {
        assert_eq!(ConnectionHeader::native_endian(), "le");
    }

    /// §4.4.1 as this repo implements it: a cross-endian link is refused at
    /// the handshake, naming the publisher's order; a peer that predates
    /// the field is accepted. (Pins behaviour the parent already had.)
    #[test]
    fn check_reply_refuses_a_foreign_endian_publisher() {
        let reply = ConnectionHeader::new().with("type", "sensor_msgs/Image");
        match reply.clone().with("endian", "be").check_reply() {
            Err(RosError::Rejected(why)) => assert!(why.contains("publisher is be"), "{why}"),
            other => panic!("foreign endian must be rejected, got {other:?}"),
        }
        reply
            .clone()
            .with("endian", ConnectionHeader::native_endian())
            .check_reply()
            .expect("native order is accepted");
        reply.check_reply().expect("old peers send no field");
    }
}
