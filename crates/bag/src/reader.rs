//! Bag reading: memory-mapped open, footer-driven indexing, crash-recovery
//! scanning, structural verification, and in-place frame adoption.

use std::path::Path;
use std::sync::Arc;

use rossf_sfm::SfmAlloc;

use crate::format::{
    decode_footer, decode_header, decode_record, BagError, Connection, IndexEntry, Parsed, Record,
    FRAME_HEADER_LEN, HEADER_LEN,
};
use crate::sys::BagMap;

/// How strictly [`BagReader::open_with`] treats an imperfect file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpenMode {
    /// A valid checksummed footer is trusted as-is; a missing footer
    /// triggers a recovery scan over the complete-record prefix (setting
    /// [`BagReader::recovered`]). This is how replay tools open bags.
    Tolerant,
    /// The footer must be present and every index entry is cross-checked
    /// against the record bytes it points at; unfinished or internally
    /// inconsistent bags are rejected. This is `sfm_bag verify`.
    Strict,
}

/// A parsed, queryable view of one bag file.
pub struct BagReader {
    map: Arc<BagMap>,
    connections: Vec<Connection>,
    index: Vec<Vec<IndexEntry>>,
    recovered: bool,
    lost_tail_bytes: u64,
}

impl std::fmt::Debug for BagReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BagReader")
            .field("connections", &self.connections)
            .field("frames", &self.frame_count())
            .field("recovered", &self.recovered)
            .field("lost_tail_bytes", &self.lost_tail_bytes)
            .finish()
    }
}

impl BagReader {
    /// Open `path` tolerantly (see [`OpenMode::Tolerant`]).
    pub fn open(path: &Path) -> Result<BagReader, BagError> {
        Self::open_with(path, OpenMode::Tolerant)
    }

    /// Open `path` strictly (see [`OpenMode::Strict`]).
    pub fn open_strict(path: &Path) -> Result<BagReader, BagError> {
        Self::open_with(path, OpenMode::Strict)
    }

    /// Open `path` with an explicit mode.
    pub fn open_with(path: &Path, mode: OpenMode) -> Result<BagReader, BagError> {
        let map = BagMap::open(path)?;
        Self::parse(Arc::new(map), mode)
    }

    /// Parse an in-memory byte image of a bag (tolerant mode).
    pub fn from_bytes(bytes: &[u8]) -> Result<BagReader, BagError> {
        Self::parse(Arc::new(BagMap::from_bytes(bytes)), OpenMode::Tolerant)
    }

    /// Parse an in-memory byte image of a bag (strict mode).
    pub fn from_bytes_strict(bytes: &[u8]) -> Result<BagReader, BagError> {
        Self::parse(Arc::new(BagMap::from_bytes(bytes)), OpenMode::Strict)
    }

    fn parse(map: Arc<BagMap>, mode: OpenMode) -> Result<BagReader, BagError> {
        let file = map.as_slice();
        decode_header(file)?;
        match decode_footer(file)? {
            Some(footer) => {
                let reader = BagReader {
                    map,
                    connections: footer.connections,
                    index: footer.index,
                    recovered: false,
                    lost_tail_bytes: 0,
                };
                // Bound-check every entry against the body so tolerant
                // reads can't walk off the map even with a forged footer.
                let body_end = footer.body_end;
                for entries in &reader.index {
                    for e in entries {
                        if e.offset + (FRAME_HEADER_LEN as u64) > body_end
                            || e.offset as usize + e.len as usize > body_end as usize
                        {
                            return Err(BagError::Corrupt {
                                offset: e.offset,
                                detail: "index entry outside bag body".into(),
                            });
                        }
                    }
                }
                if mode == OpenMode::Strict {
                    reader.verify_structure()?;
                }
                Ok(reader)
            }
            None => {
                if mode == OpenMode::Strict {
                    return Err(BagError::Corrupt {
                        offset: file.len() as u64,
                        detail: "missing footer (bag was never finished or its tail was lost)"
                            .into(),
                    });
                }
                Self::recover(map)
            }
        }
    }

    /// Rebuild the index by scanning complete records from the top. The
    /// first torn record ends the logical bag; everything before it is
    /// preserved. Structural violations in the complete region are still
    /// corruption errors — recovery only forgives a missing tail.
    fn recover(map: Arc<BagMap>) -> Result<BagReader, BagError> {
        let file = map.as_slice();
        let mut connections: Vec<Connection> = Vec::new();
        let mut index: Vec<Vec<IndexEntry>> = Vec::new();
        let mut last_stamp: Vec<u64> = Vec::new();
        let mut at = HEADER_LEN as u64;
        let end = loop {
            match decode_record(file, at)? {
                Parsed::Truncated => break at,
                Parsed::Ok { record, next } => {
                    match record {
                        Record::Connection(conn) => {
                            if conn.id as usize != connections.len() {
                                return Err(BagError::Corrupt {
                                    offset: at,
                                    detail: format!(
                                        "connection id {} out of order (expected {})",
                                        conn.id,
                                        connections.len()
                                    ),
                                });
                            }
                            connections.push(conn);
                            index.push(Vec::new());
                            last_stamp.push(0);
                        }
                        Record::Frame {
                            conn_id,
                            stamp_nanos,
                            payload_len,
                            ..
                        } => {
                            let idx = conn_id as usize;
                            if idx >= connections.len() {
                                return Err(BagError::UnknownConnection(conn_id));
                            }
                            if stamp_nanos < last_stamp[idx] {
                                return Err(BagError::Corrupt {
                                    offset: at,
                                    detail: format!(
                                        "stamp {stamp_nanos} regresses below {}",
                                        last_stamp[idx]
                                    ),
                                });
                            }
                            last_stamp[idx] = stamp_nanos;
                            index[idx].push(IndexEntry {
                                stamp_nanos,
                                offset: at,
                                len: payload_len,
                            });
                        }
                        Record::Footer => {
                            // decode_footer said the tail magic is absent,
                            // so a footer kind byte here is a torn footer:
                            // the body before it is complete.
                            break at;
                        }
                    }
                    at = next;
                }
            }
        };
        Ok(BagReader {
            lost_tail_bytes: file.len() as u64 - end,
            map,
            connections,
            index,
            recovered: true,
        })
    }

    /// Full structural verification: re-walk every record in the body and
    /// require the walked frames to match the index exactly (count, offset,
    /// stamp, length), with per-connection stamps monotonic. Catches bags
    /// whose footer checksums correctly but lies about the body.
    pub fn verify_structure(&self) -> Result<(), BagError> {
        let file = self.map.as_slice();
        let mut walked: Vec<Vec<IndexEntry>> = vec![Vec::new(); self.connections.len()];
        let mut walked_conns: Vec<Connection> = Vec::new();
        let mut last_stamp = vec![0u64; self.connections.len()];
        let mut at = HEADER_LEN as u64;
        loop {
            match decode_record(file, at)? {
                Parsed::Truncated => {
                    return Err(BagError::Corrupt {
                        offset: at,
                        detail: "body ends in a torn record".into(),
                    })
                }
                Parsed::Ok { record, next } => {
                    match record {
                        Record::Connection(conn) => walked_conns.push(conn),
                        Record::Frame {
                            conn_id,
                            stamp_nanos,
                            payload_len,
                            ..
                        } => {
                            let idx = conn_id as usize;
                            if idx >= self.connections.len() {
                                return Err(BagError::UnknownConnection(conn_id));
                            }
                            if stamp_nanos < last_stamp[idx] {
                                return Err(BagError::Corrupt {
                                    offset: at,
                                    detail: format!(
                                        "stamp {stamp_nanos} regresses below {}",
                                        last_stamp[idx]
                                    ),
                                });
                            }
                            last_stamp[idx] = stamp_nanos;
                            walked[idx].push(IndexEntry {
                                stamp_nanos,
                                offset: at,
                                len: payload_len,
                            });
                        }
                        Record::Footer => break,
                    }
                    at = next;
                }
            }
        }
        if walked_conns != self.connections {
            return Err(BagError::Corrupt {
                offset: at,
                detail: "footer connection table disagrees with body records".into(),
            });
        }
        if walked != self.index {
            // Find the first divergence for the diagnostic.
            for (idx, (a, b)) in walked.iter().zip(&self.index).enumerate() {
                if a != b {
                    let at = b
                        .iter()
                        .zip(a)
                        .find(|(x, y)| x != y)
                        .map(|(x, _)| x.offset)
                        .unwrap_or(0);
                    return Err(BagError::Corrupt {
                        offset: at,
                        detail: format!(
                            "footer index for `{}` disagrees with body records",
                            self.connections[idx].topic
                        ),
                    });
                }
            }
            return Err(BagError::Corrupt {
                offset: at,
                detail: "footer index disagrees with body records".into(),
            });
        }
        Ok(())
    }

    /// Connections in declaration order.
    pub fn connections(&self) -> &[Connection] {
        &self.connections
    }

    /// Look up a connection by topic name.
    pub fn connection(&self, topic: &str) -> Option<&Connection> {
        self.connections.iter().find(|c| c.topic == topic)
    }

    /// Index entries of connection `conn_id`, in capture order.
    pub fn entries(&self, conn_id: u32) -> &[IndexEntry] {
        self.index
            .get(conn_id as usize)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Total frames across all connections.
    pub fn frame_count(&self) -> u64 {
        self.index.iter().map(|v| v.len() as u64).sum()
    }

    /// Earliest and latest capture stamps in the bag, if any frames exist.
    pub fn stamp_range(&self) -> Option<(u64, u64)> {
        let first = self
            .index
            .iter()
            .filter_map(|v| v.first())
            .map(|e| e.stamp_nanos)
            .min()?;
        let last = self
            .index
            .iter()
            .filter_map(|v| v.last())
            .map(|e| e.stamp_nanos)
            .max()?;
        Some((first, last))
    }

    /// File size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.map.len() as u64
    }

    /// Whether the index was rebuilt by the recovery scan (footer missing).
    pub fn recovered(&self) -> bool {
        self.recovered
    }

    /// Bytes of torn tail discarded by recovery (0 for finished bags).
    pub fn lost_tail_bytes(&self) -> u64 {
        self.lost_tail_bytes
    }

    /// Whether the file is served by a real memory mapping.
    pub fn is_mapped(&self) -> bool {
        self.map.is_mapped()
    }

    /// Address range of the underlying view, for zero-copy assertions.
    pub fn addr_range(&self) -> (usize, usize) {
        self.map.addr_range()
    }

    /// All frames of the bag merged into file order, as
    /// `(connection id, entry)` pairs. File order equals capture order for
    /// a single recorder.
    pub fn frames_in_order(&self) -> Vec<(u32, IndexEntry)> {
        let mut all: Vec<(u32, IndexEntry)> = self
            .index
            .iter()
            .enumerate()
            .flat_map(|(conn, entries)| entries.iter().map(move |e| (conn as u32, *e)))
            .collect();
        all.sort_by_key(|(_, e)| e.offset);
        all
    }

    /// Borrow the raw payload bytes of an index entry.
    pub fn frame_bytes(&self, entry: &IndexEntry) -> Result<&[u8], BagError> {
        let (payload_offset, payload_len) = self.frame_payload_span(entry)?;
        Ok(&self.map.as_slice()[payload_offset..payload_offset + payload_len])
    }

    /// Adopt an entry's payload as an SFM allocation aliasing the map — the
    /// zero-copy replay path. The allocation keeps the whole map alive.
    pub fn adopt_frame(&self, entry: &IndexEntry) -> Result<(SfmAlloc, usize), BagError> {
        let (payload_offset, payload_len) = self.frame_payload_span(entry)?;
        Ok((
            self.map.adopt(payload_offset as u64, payload_len),
            payload_len,
        ))
    }

    /// Re-validate an entry against the record bytes it points at and
    /// return the payload span. Every read path funnels through this, so a
    /// stale or hostile index can never produce an out-of-bounds slice.
    fn frame_payload_span(&self, entry: &IndexEntry) -> Result<(usize, usize), BagError> {
        let file = self.map.as_slice();
        match decode_record(file, entry.offset)? {
            Parsed::Ok {
                record:
                    Record::Frame {
                        payload_offset,
                        payload_len,
                        ..
                    },
                ..
            } => {
                if payload_len != entry.len {
                    return Err(BagError::Corrupt {
                        offset: entry.offset,
                        detail: format!(
                            "index length {} disagrees with record length {payload_len}",
                            entry.len
                        ),
                    });
                }
                Ok((payload_offset as usize, payload_len as usize))
            }
            Parsed::Ok { .. } => Err(BagError::Corrupt {
                offset: entry.offset,
                detail: "index entry does not point at a frame record".into(),
            }),
            Parsed::Truncated => Err(BagError::Corrupt {
                offset: entry.offset,
                detail: "index entry points at a torn record".into(),
            }),
        }
    }
}
