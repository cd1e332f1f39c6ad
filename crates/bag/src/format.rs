//! On-disk layout of the ROS-SF bag format, version 2.
//!
//! A bag is a single append-only file:
//!
//! ```text
//! +----------------------------+
//! | header (16 bytes)          |  magic "ROSSFBAG2\0", u16 version, u32 flags
//! +----------------------------+
//! | connection record (0x01)   |  topic, type name, schema hash
//! | frame record      (0x02)   |  stamp + raw SFM frame, 8-byte aligned payload
//! | ...                        |  records interleave freely
//! +----------------------------+
//! | footer (0x03) + tail       |  per-connection index, checksummed
//! +----------------------------+
//! ```
//!
//! Design rules that everything else relies on:
//!
//! * **Little-endian, fixed offsets.** Every integer is little-endian so a
//!   memory-mapped bag can be parsed with plain slice reads.
//! * **Payloads are 8-byte aligned in the file.** Each frame record carries a
//!   `pad_len` so the payload's absolute file offset is a multiple of
//!   [`PAYLOAD_ALIGN`]; a mapped payload can then be adopted in place as an
//!   SFM allocation without any copy.
//! * **Frames are self-delimiting in both directions.** A `u32` length
//!   trailer repeats the payload length after the payload. Crash recovery
//!   scans forward and treats the first record whose trailer is missing or
//!   wrong-length as the torn tail of an interrupted write.
//! * **The footer is advisory but checksummed.** A reader with a valid
//!   footer never scans the body; a reader without one rebuilds the index
//!   from the records that made it to disk.
//!
//! This module owns the byte-level encode/decode and the error type; file
//! I/O lives in [`crate::writer`] / [`crate::reader`].

use std::fmt;
use std::io;

use rossf_sfm::verify::{FieldDesc, MessageSchema, StructDesc, TypeDesc};

/// File magic: 10 bytes at offset 0.
pub const MAGIC: &[u8; 10] = b"ROSSFBAG2\0";
/// Format version stored after the magic.
pub const VERSION: u16 = 2;
/// Total size of the fixed file header (magic + version + flags).
pub const HEADER_LEN: usize = 16;

/// Record kind byte: connection (topic/type/schema) metadata.
pub const REC_CONNECTION: u8 = 0x01;
/// Record kind byte: one raw message frame.
pub const REC_FRAME: u8 = 0x02;
/// Record kind byte: footer index (always last when present).
pub const REC_FOOTER: u8 = 0x03;

/// Alignment guaranteed for every payload's absolute file offset. Matches
/// `rossf_sfm::SFM_ALLOC_ALIGN` so mapped payloads can be adopted in place.
pub const PAYLOAD_ALIGN: usize = rossf_sfm::SFM_ALLOC_ALIGN;

/// Fixed-size prefix of a frame record before padding and payload.
pub const FRAME_HEADER_LEN: usize = 20;
/// Length trailer repeated after every frame payload.
pub const FRAME_TRAILER_LEN: usize = 4;
/// Fixed-size prefix of a connection record before the topic/type strings.
pub const CONNECTION_HEADER_LEN: usize = 20;
/// Fixed-size tail at the very end of a finished bag: footer body length,
/// footer checksum, end magic.
pub const FOOTER_TAIL_LEN: usize = 16;
/// Magic terminating a finished bag (last 8 bytes of the file).
pub const FOOTER_MAGIC: &[u8; 8] = b"RSBGEND2";

/// Upper bound on topic / type-name byte length in a connection record.
pub const MAX_NAME_LEN: usize = 4096;
/// Upper bound on a single frame payload (1 GiB); a length above this in a
/// record header is treated as corruption rather than an allocation request.
pub const MAX_PAYLOAD_LEN: usize = 1 << 30;

/// Errors produced by the bag subsystem.
#[derive(Debug)]
pub enum BagError {
    /// Underlying file or channel I/O failed.
    Io(io::Error),
    /// The file's bytes violate the format; `offset` is where parsing gave
    /// up and `detail` is a human-readable diagnostic.
    Corrupt {
        /// Absolute file offset of the violation.
        offset: u64,
        /// Diagnostic message.
        detail: String,
    },
    /// A replay route's message type name does not match the recorded one.
    TypeMismatch {
        /// Topic whose connection was being routed.
        topic: String,
        /// Type name stored in the bag.
        recorded: String,
        /// Type name of the route the caller attempted.
        attempted: String,
    },
    /// A replay route's schema hash does not match the recorded one.
    SchemaMismatch {
        /// Topic whose connection was being routed.
        topic: String,
        /// Schema hash stored in the bag.
        recorded: u64,
        /// Schema hash computed from the route's message type.
        attempted: u64,
    },
    /// The requested topic has no connection record in the bag.
    UnknownTopic(String),
    /// A record referenced a connection id that was never declared.
    UnknownConnection(u32),
    /// A frame failed structural verification (`verify_frame`) during replay.
    Verify(String),
    /// The recorder writer thread already failed; the stream is dead.
    WriterFailed(String),
}

impl fmt::Display for BagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BagError::Io(e) => write!(f, "bag i/o error: {e}"),
            BagError::Corrupt { offset, detail } => {
                write!(f, "corrupt bag at offset {offset}: {detail}")
            }
            BagError::TypeMismatch {
                topic,
                recorded,
                attempted,
            } => write!(
                f,
                "type mismatch on `{topic}`: bag recorded `{recorded}`, route uses `{attempted}`"
            ),
            BagError::SchemaMismatch {
                topic,
                recorded,
                attempted,
            } => write!(
                f,
                "schema hash mismatch on `{topic}`: bag recorded {recorded:#018x}, \
                 route computes {attempted:#018x}"
            ),
            BagError::UnknownTopic(t) => write!(f, "topic `{t}` is not in the bag"),
            BagError::UnknownConnection(id) => {
                write!(f, "frame references undeclared connection id {id}")
            }
            BagError::Verify(msg) => write!(f, "frame verification failed: {msg}"),
            BagError::WriterFailed(msg) => write!(f, "bag writer thread failed: {msg}"),
        }
    }
}

impl std::error::Error for BagError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BagError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for BagError {
    fn from(e: io::Error) -> Self {
        BagError::Io(e)
    }
}

/// FNV-1a 64-bit hash — the digest used for schema hashes and for the
/// fidelity diffs in `bag_gate` / `sfm_bag --self-test`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Incremental FNV-1a 64-bit hasher for streaming digests.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Start a new digest at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// Current digest value.
    pub fn digest(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// Hash a message schema to a stable 64-bit fingerprint.
///
/// The hash covers a canonical recursive rendering of the schema tree —
/// struct/field names, offsets, sizes, alignments, and element types — so
/// any layout-visible change to a message type changes the hash. Replay
/// refuses to adopt frames when the recorded hash disagrees with the hash
/// of the route's compiled-in type (hash `0` means "no schema recorded"
/// and disables the check).
pub fn schema_hash(schema: &MessageSchema) -> u64 {
    let mut out = Vec::with_capacity(256);
    render_struct(&schema.root, &mut out);
    out.extend_from_slice(&(schema.max_size as u64).to_le_bytes());
    fnv1a64(&out)
}

fn render_struct(desc: &StructDesc, out: &mut Vec<u8>) {
    out.push(b'S');
    render_str(&desc.name, out);
    out.extend_from_slice(&(desc.size as u64).to_le_bytes());
    out.extend_from_slice(&(desc.align as u64).to_le_bytes());
    out.extend_from_slice(&(desc.fields().len() as u64).to_le_bytes());
    for f in desc.fields() {
        render_field(f, out);
    }
}

fn render_field(field: &FieldDesc, out: &mut Vec<u8>) {
    out.push(b'F');
    render_str(&field.name, out);
    out.extend_from_slice(&(field.offset as u64).to_le_bytes());
    render_type(&field.ty, out);
}

fn render_type(ty: &TypeDesc, out: &mut Vec<u8>) {
    match ty {
        TypeDesc::Prim { size, align } => {
            out.push(b'p');
            out.extend_from_slice(&(*size as u64).to_le_bytes());
            out.extend_from_slice(&(*align as u64).to_le_bytes());
        }
        TypeDesc::Str => out.push(b's'),
        TypeDesc::Vec(elem) => {
            out.push(b'v');
            render_type(elem, out);
        }
        TypeDesc::Array { elem, len } => {
            out.push(b'a');
            out.extend_from_slice(&(*len as u64).to_le_bytes());
            render_type(elem, out);
        }
        TypeDesc::Struct(s) => render_struct(s, out),
    }
}

fn render_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// One topic's metadata as stored in the bag.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Connection {
    /// Dense id referenced by frame records (assigned in declaration order).
    pub id: u32,
    /// Topic name the frames were captured from.
    pub topic: String,
    /// Message type name (`TopicType::topic_type()` of the publisher).
    pub type_name: String,
    /// Schema fingerprint from [`schema_hash`]; `0` if the type had no
    /// schema (plain serialized messages).
    pub schema_hash: u64,
}

/// One frame's index entry: where it lives and when it was captured.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexEntry {
    /// Capture stamp in nanoseconds (monotonic, non-decreasing per
    /// connection — the writer clamps regressions up).
    pub stamp_nanos: u64,
    /// Absolute file offset of the frame record header (the kind byte).
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
}

/// Encode the 16-byte file header.
pub fn encode_header() -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..10].copy_from_slice(MAGIC);
    h[10..12].copy_from_slice(&VERSION.to_le_bytes());
    // bytes 12..16: flags, reserved as zero.
    h
}

/// Validate the 16-byte file header. Returns the format version.
pub fn decode_header(bytes: &[u8]) -> Result<u16, BagError> {
    if bytes.len() < HEADER_LEN {
        return Err(BagError::Corrupt {
            offset: 0,
            detail: format!("file too short for header ({} bytes)", bytes.len()),
        });
    }
    if &bytes[..10] != MAGIC {
        return Err(BagError::Corrupt {
            offset: 0,
            detail: format!("bad magic {:02x?} (expected {:02x?})", &bytes[..10], MAGIC),
        });
    }
    let version = u16::from_le_bytes([bytes[10], bytes[11]]);
    if version != VERSION {
        return Err(BagError::Corrupt {
            offset: 10,
            detail: format!("unsupported bag version {version} (reader supports {VERSION})"),
        });
    }
    Ok(version)
}

/// Encode a connection record into `out`.
///
/// Layout: `u8 kind, u8 zero, u16 topic_len, u16 type_len, u16 zero,
/// u32 conn_id, u64 schema_hash, topic bytes, type bytes`.
pub fn encode_connection(conn: &Connection, out: &mut Vec<u8>) {
    debug_assert!(conn.topic.len() <= MAX_NAME_LEN);
    debug_assert!(conn.type_name.len() <= MAX_NAME_LEN);
    out.push(REC_CONNECTION);
    out.push(0);
    out.extend_from_slice(&(conn.topic.len() as u16).to_le_bytes());
    out.extend_from_slice(&(conn.type_name.len() as u16).to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&conn.id.to_le_bytes());
    out.extend_from_slice(&conn.schema_hash.to_le_bytes());
    out.extend_from_slice(conn.topic.as_bytes());
    out.extend_from_slice(conn.type_name.as_bytes());
}

/// Decoded view of a record parsed out of the body.
#[derive(Debug)]
pub enum Record {
    /// A connection declaration.
    Connection(Connection),
    /// A frame; `payload_offset` is absolute, aligned to [`PAYLOAD_ALIGN`].
    Frame {
        /// Connection the frame belongs to.
        conn_id: u32,
        /// Capture stamp in nanoseconds.
        stamp_nanos: u64,
        /// Absolute file offset of the payload bytes.
        payload_offset: u64,
        /// Payload length in bytes.
        payload_len: u32,
    },
    /// The footer kind byte was reached; body parsing stops here.
    Footer,
}

/// Outcome of [`decode_record`].
#[derive(Debug)]
pub enum Parsed {
    /// A complete record; `next` is the offset just past it.
    Ok {
        /// The decoded record.
        record: Record,
        /// Offset of the next record.
        next: u64,
    },
    /// The bytes run out mid-record: a torn tail from an interrupted write.
    /// Recovery truncates the logical bag here.
    Truncated,
}

/// Decode one record starting at absolute offset `at` within `file`.
///
/// Returns `Parsed::Truncated` when the record extends past the end of the
/// buffer (an interrupted append), and `BagError::Corrupt` when the bytes
/// that *are* present violate the format.
pub fn decode_record(file: &[u8], at: u64) -> Result<Parsed, BagError> {
    let off = at as usize;
    let rest = &file[off..];
    if rest.is_empty() {
        return Ok(Parsed::Truncated);
    }
    match rest[0] {
        REC_CONNECTION => {
            if rest.len() < CONNECTION_HEADER_LEN {
                return Ok(Parsed::Truncated);
            }
            let topic_len = u16::from_le_bytes([rest[2], rest[3]]) as usize;
            let type_len = u16::from_le_bytes([rest[4], rest[5]]) as usize;
            if topic_len > MAX_NAME_LEN || type_len > MAX_NAME_LEN {
                return Err(BagError::Corrupt {
                    offset: at,
                    detail: format!(
                        "connection name lengths {topic_len}/{type_len} exceed {MAX_NAME_LEN}"
                    ),
                });
            }
            let total = CONNECTION_HEADER_LEN + topic_len + type_len;
            if rest.len() < total {
                return Ok(Parsed::Truncated);
            }
            let id = u32::from_le_bytes([rest[8], rest[9], rest[10], rest[11]]);
            let schema_hash = u64::from_le_bytes(rest[12..20].try_into().unwrap());
            let topic = std::str::from_utf8(&rest[20..20 + topic_len])
                .map_err(|_| BagError::Corrupt {
                    offset: at,
                    detail: "connection topic is not valid UTF-8".into(),
                })?
                .to_string();
            let type_name = std::str::from_utf8(&rest[20 + topic_len..total])
                .map_err(|_| BagError::Corrupt {
                    offset: at,
                    detail: "connection type name is not valid UTF-8".into(),
                })?
                .to_string();
            Ok(Parsed::Ok {
                record: Record::Connection(Connection {
                    id,
                    topic,
                    type_name,
                    schema_hash,
                }),
                next: at + total as u64,
            })
        }
        REC_FRAME => {
            if rest.len() < FRAME_HEADER_LEN {
                return Ok(Parsed::Truncated);
            }
            let pad_len = rest[1] as usize;
            if pad_len >= PAYLOAD_ALIGN {
                return Err(BagError::Corrupt {
                    offset: at,
                    detail: format!("frame pad length {pad_len} >= alignment {PAYLOAD_ALIGN}"),
                });
            }
            let conn_id = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
            let stamp_nanos = u64::from_le_bytes(rest[8..16].try_into().unwrap());
            let payload_len = u32::from_le_bytes([rest[16], rest[17], rest[18], rest[19]]) as usize;
            if payload_len == 0 || payload_len > MAX_PAYLOAD_LEN {
                return Err(BagError::Corrupt {
                    offset: at,
                    detail: format!("frame payload length {payload_len} out of range"),
                });
            }
            let payload_offset = at + (FRAME_HEADER_LEN + pad_len) as u64;
            if !(payload_offset as usize).is_multiple_of(PAYLOAD_ALIGN) {
                return Err(BagError::Corrupt {
                    offset: at,
                    detail: format!(
                        "frame payload offset {payload_offset} not {PAYLOAD_ALIGN}-byte aligned"
                    ),
                });
            }
            let total = FRAME_HEADER_LEN + pad_len + payload_len + FRAME_TRAILER_LEN;
            if rest.len() < total {
                return Ok(Parsed::Truncated);
            }
            let trailer =
                u32::from_le_bytes(rest[total - FRAME_TRAILER_LEN..total].try_into().unwrap())
                    as usize;
            if trailer != payload_len {
                return Err(BagError::Corrupt {
                    offset: at + (total - FRAME_TRAILER_LEN) as u64,
                    detail: format!(
                        "frame trailer {trailer} disagrees with header length {payload_len}"
                    ),
                });
            }
            Ok(Parsed::Ok {
                record: Record::Frame {
                    conn_id,
                    stamp_nanos,
                    payload_offset,
                    payload_len: payload_len as u32,
                },
                next: at + total as u64,
            })
        }
        REC_FOOTER => Ok(Parsed::Ok {
            record: Record::Footer,
            next: at + 1,
        }),
        other => Err(BagError::Corrupt {
            offset: at,
            detail: format!("unknown record kind {other:#04x}"),
        }),
    }
}

/// Compute the padding needed so a frame payload written at file position
/// `record_offset` lands on a [`PAYLOAD_ALIGN`] boundary.
pub fn frame_padding(record_offset: u64) -> usize {
    let payload_at = record_offset as usize + FRAME_HEADER_LEN;
    (PAYLOAD_ALIGN - payload_at % PAYLOAD_ALIGN) % PAYLOAD_ALIGN
}

/// Encode a frame record header (including padding) into `out`. The caller
/// appends the payload and then the trailer via [`encode_frame_trailer`].
pub fn encode_frame_header(
    record_offset: u64,
    conn_id: u32,
    stamp_nanos: u64,
    payload_len: u32,
    out: &mut Vec<u8>,
) {
    let pad = frame_padding(record_offset);
    out.push(REC_FRAME);
    out.push(pad as u8);
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&conn_id.to_le_bytes());
    out.extend_from_slice(&stamp_nanos.to_le_bytes());
    out.extend_from_slice(&payload_len.to_le_bytes());
    out.resize(out.len() + pad, 0);
}

/// Encode the length trailer that terminates a frame record.
pub fn encode_frame_trailer(payload_len: u32, out: &mut Vec<u8>) {
    out.extend_from_slice(&payload_len.to_le_bytes());
}

/// Encode the footer: the per-connection index plus the fixed tail.
///
/// Footer body: `u8 kind, u8[3] zero, u32 conn_count`, then per connection
/// `u32 id, u16 topic_len, u16 type_len, u64 schema_hash, u64 entry_count,
/// topic bytes, type bytes`, then that connection's entries as
/// `(u64 stamp, u64 offset, u32 len, u32 zero)`. Tail: `u32 body_len,
/// u32 fnv1a32(body), 8-byte end magic`.
pub fn encode_footer(connections: &[Connection], index: &[Vec<IndexEntry>]) -> Vec<u8> {
    debug_assert_eq!(connections.len(), index.len());
    let mut body = Vec::with_capacity(64 + index.iter().map(|v| v.len() * 24).sum::<usize>());
    body.push(REC_FOOTER);
    body.extend_from_slice(&[0u8; 3]);
    body.extend_from_slice(&(connections.len() as u32).to_le_bytes());
    for (conn, entries) in connections.iter().zip(index) {
        body.extend_from_slice(&conn.id.to_le_bytes());
        body.extend_from_slice(&(conn.topic.len() as u16).to_le_bytes());
        body.extend_from_slice(&(conn.type_name.len() as u16).to_le_bytes());
        body.extend_from_slice(&conn.schema_hash.to_le_bytes());
        body.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        body.extend_from_slice(conn.topic.as_bytes());
        body.extend_from_slice(conn.type_name.as_bytes());
        for e in entries {
            body.extend_from_slice(&e.stamp_nanos.to_le_bytes());
            body.extend_from_slice(&e.offset.to_le_bytes());
            body.extend_from_slice(&e.len.to_le_bytes());
            body.extend_from_slice(&0u32.to_le_bytes());
        }
    }
    let checksum = fnv1a64(&body) as u32;
    let mut out = body;
    let body_len = out.len() as u32;
    out.extend_from_slice(&body_len.to_le_bytes());
    out.extend_from_slice(&checksum.to_le_bytes());
    out.extend_from_slice(FOOTER_MAGIC);
    out
}

/// Result of locating and decoding the footer of a finished bag.
pub struct Footer {
    /// Connections in declaration order (the footer stores a copy so a
    /// finished bag can be opened without scanning the body).
    pub connections: Vec<Connection>,
    /// Per-connection index, parallel to `connections`.
    pub index: Vec<Vec<IndexEntry>>,
    /// Absolute offset of the footer's kind byte (= logical end of body).
    pub body_end: u64,
}

/// Try to decode the footer of `file`.
///
/// Returns `Ok(None)` when the end magic is absent (an unfinished bag —
/// the caller may fall back to a recovery scan), `Ok(Some(..))` for a
/// valid footer, and `Err(Corrupt)` when the end magic is present but the
/// footer does not checksum or parse — a finished-then-damaged file is
/// corruption, not a crash.
pub fn decode_footer(file: &[u8]) -> Result<Option<Footer>, BagError> {
    if file.len() < HEADER_LEN + FOOTER_TAIL_LEN {
        return Ok(None);
    }
    let tail_at = file.len() - FOOTER_TAIL_LEN;
    let tail = &file[tail_at..];
    if &tail[8..16] != FOOTER_MAGIC {
        return Ok(None);
    }
    let body_len = u32::from_le_bytes(tail[..4].try_into().unwrap()) as usize;
    let checksum = u32::from_le_bytes(tail[4..8].try_into().unwrap());
    if body_len > tail_at || tail_at - body_len < HEADER_LEN {
        return Err(BagError::Corrupt {
            offset: tail_at as u64,
            detail: format!("footer length {body_len} exceeds file body"),
        });
    }
    let body_at = tail_at - body_len;
    let body = &file[body_at..tail_at];
    if fnv1a64(body) as u32 != checksum {
        return Err(BagError::Corrupt {
            offset: body_at as u64,
            detail: "footer checksum mismatch".into(),
        });
    }
    let corrupt = |detail: &str| BagError::Corrupt {
        offset: body_at as u64,
        detail: format!("footer: {detail}"),
    };
    if body.len() < 8 || body[0] != REC_FOOTER {
        return Err(corrupt("bad footer record header"));
    }
    let conn_count = u32::from_le_bytes(body[4..8].try_into().unwrap()) as usize;
    let mut connections = Vec::with_capacity(conn_count);
    let mut index = Vec::with_capacity(conn_count);
    let mut at = 8usize;
    for _ in 0..conn_count {
        if body.len() - at < 24 {
            return Err(corrupt("truncated connection block"));
        }
        let id = u32::from_le_bytes(body[at..at + 4].try_into().unwrap());
        let topic_len = u16::from_le_bytes(body[at + 4..at + 6].try_into().unwrap()) as usize;
        let type_len = u16::from_le_bytes(body[at + 6..at + 8].try_into().unwrap()) as usize;
        let schema = u64::from_le_bytes(body[at + 8..at + 16].try_into().unwrap());
        let entry_count = u64::from_le_bytes(body[at + 16..at + 24].try_into().unwrap()) as usize;
        at += 24;
        if body.len() - at < topic_len + type_len {
            return Err(corrupt("truncated connection names"));
        }
        let topic = std::str::from_utf8(&body[at..at + topic_len])
            .map_err(|_| corrupt("topic not UTF-8"))?
            .to_string();
        at += topic_len;
        let type_name = std::str::from_utf8(&body[at..at + type_len])
            .map_err(|_| corrupt("type name not UTF-8"))?
            .to_string();
        at += type_len;
        if (body.len() - at) / 24 < entry_count {
            return Err(corrupt("truncated index entries"));
        }
        let mut entries = Vec::with_capacity(entry_count);
        for _ in 0..entry_count {
            let stamp = u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
            let offset = u64::from_le_bytes(body[at + 8..at + 16].try_into().unwrap());
            let len = u32::from_le_bytes(body[at + 16..at + 20].try_into().unwrap());
            at += 24;
            if (offset as usize) < HEADER_LEN || offset as usize >= body_at {
                return Err(corrupt(&format!("index offset {offset} outside body")));
            }
            entries.push(IndexEntry {
                stamp_nanos: stamp,
                offset,
                len,
            });
        }
        connections.push(Connection {
            id,
            topic,
            type_name,
            schema_hash: schema,
        });
        index.push(entries);
    }
    if at != body.len() {
        return Err(corrupt("trailing bytes after index"));
    }
    Ok(Some(Footer {
        connections,
        index,
        body_end: body_at as u64,
    }))
}
