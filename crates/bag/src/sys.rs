//! File-mapping surface of the bag crate.
//!
//! Every mmap/munmap call and every `unsafe` block in `rossf-bag` lives in
//! this module. The rest of the crate sees only [`BagMap`]: an immutable,
//! 8-byte-aligned view of a bag file's bytes that stays valid for the
//! lifetime of the value.
//!
//! A file's view is a read-only shared mapping (`rossf_sys::mmap_shared`),
//! so replay adopts frames straight out of the page cache with no payload
//! copy; a file that cannot be mapped fails to open. Bytes already in
//! memory ([`BagMap::from_bytes`]) get an aligned heap copy.

use std::fs::File;
use std::path::Path;

use rossf_sfm::{SfmAlloc, SFM_ALLOC_ALIGN};
use std::sync::Arc;

/// An immutable view of a whole bag file, aligned to [`SFM_ALLOC_ALIGN`].
///
/// The base pointer is page-aligned when memory-mapped and 8-byte aligned
/// when heap-backed; either satisfies the alignment contract of
/// [`SfmAlloc::from_extern`], and the format guarantees every payload offset
/// is a multiple of 8 — so `base + payload_offset` is always adoptable.
pub struct BagMap {
    ptr: *mut u8,
    len: usize,
    backing: Backing,
}

enum Backing {
    /// A live mapping of `map_len` bytes (page-rounded) that must be
    /// unmapped on drop. The `File` can be dropped once mapped, but keeping
    /// it makes the ownership story obvious.
    Mapped { map_len: usize, _file: File },
    /// In-memory bytes (and the empty file, which cannot be mapped): the
    /// buffer owns the bytes; `ptr` points into it.
    Heap {
        /// Never read back, but must stay alive while `ptr` is in use.
        _buf: Vec<u64>,
    },
}

// SAFETY: the view is immutable after construction — `ptr` is only ever read,
// the mapping is read-only (PROT_READ), and the heap buffer is never touched
// again — so sharing across threads is sound.
unsafe impl Send for BagMap {}
// SAFETY: same immutability argument as Send.
unsafe impl Sync for BagMap {}

impl BagMap {
    /// Map the file at `path`.
    ///
    /// # Errors
    ///
    /// Opening or sizing the file, or the `mmap` itself.
    pub fn open(path: &Path) -> std::io::Result<BagMap> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len > usize::MAX as u64 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "bag file larger than address space",
            ));
        }
        let len = len as usize;
        if len == 0 {
            // A zero-length mapping is an `EINVAL`; the reader reports the
            // empty file as truncated from the empty view.
            return Ok(BagMap::from_bytes(&[]));
        }
        let map_len = rossf_sys::page_round(len);
        let ptr = rossf_sys::mmap_shared(&file, map_len, false)?;
        Ok(BagMap {
            ptr,
            len,
            backing: Backing::Mapped {
                map_len,
                _file: file,
            },
        })
    }

    /// Build a view over in-memory bytes (for `read_from`-style callers and
    /// tests). Always heap-backed and 8-byte aligned.
    pub fn from_bytes(bytes: &[u8]) -> BagMap {
        let len = bytes.len();
        let mut buf = vec![0u64; len.div_ceil(8).max(1)];
        // SAFETY: `buf` owns at least `len` bytes at 8-byte alignment.
        let dst = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr() as *mut u8, len) };
        dst.copy_from_slice(bytes);
        let ptr = buf.as_mut_ptr() as *mut u8;
        BagMap {
            ptr,
            len,
            backing: Backing::Heap { _buf: buf },
        }
    }

    /// The file's bytes.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr` is valid for `len` bytes for the lifetime of self
        // (mapping unmapped only in Drop; heap buffer owned by self) and the
        // contents are never written after construction.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Total length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Address range `[start, end)` of the view — used by callers asserting
    /// that adopted frames point into the mapping (zero-copy proof).
    pub fn addr_range(&self) -> (usize, usize) {
        (self.ptr as usize, self.ptr as usize + self.len)
    }

    /// True when the view is a file mapping (not in-memory bytes).
    pub fn is_mapped(&self) -> bool {
        matches!(self.backing, Backing::Mapped { .. })
    }

    /// Adopt the `len` bytes at `offset` as an external SFM allocation whose
    /// lifetime is tied to this map (`self` is kept alive via the guard).
    ///
    /// # Panics
    /// Panics if the range is out of bounds, misaligned, or empty — callers
    /// (the bag reader) validate offsets against the parsed format first.
    pub fn adopt(self: &Arc<Self>, offset: u64, len: usize) -> SfmAlloc {
        let offset = offset as usize;
        assert!(len > 0 && offset.checked_add(len).is_some_and(|end| end <= self.len));
        assert_eq!(offset % SFM_ALLOC_ALIGN, 0, "payload offset misaligned");
        // SAFETY: `ptr + offset` is non-null, SFM_ALLOC_ALIGN-aligned (the
        // base is at least 8-byte aligned and offset ≡ 0 mod 8), and valid
        // for `len` bytes for as long as the guard (an Arc of this map)
        // lives. The view is immutable, so no other alias writes to it;
        // adopted frames are read-only payloads.
        unsafe { SfmAlloc::from_extern(self.ptr.add(offset), len, Arc::clone(self)) }
    }
}

impl Drop for BagMap {
    fn drop(&mut self) {
        if let Backing::Mapped { map_len, .. } = &self.backing {
            // SAFETY: `ptr` is the address returned by mmap_shared for
            // `map_len` bytes and is unmapped exactly once, here.
            unsafe { rossf_sys::munmap(self.ptr, *map_len) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bytes_is_aligned_and_faithful() {
        let data: Vec<u8> = (0..41u8).collect();
        let map = BagMap::from_bytes(&data);
        assert_eq!(map.as_slice(), &data[..]);
        assert_eq!(map.as_slice().as_ptr() as usize % SFM_ALLOC_ALIGN, 0);
        assert!(!map.is_mapped());
    }

    #[test]
    fn open_maps_real_files() {
        let path = std::env::temp_dir().join(format!("rossf_bagmap_{}.bin", std::process::id()));
        std::fs::write(&path, [7u8; 4096 + 13]).unwrap();
        let map = BagMap::open(&path).unwrap();
        assert!(map.is_mapped());
        assert_eq!(map.len(), 4096 + 13);
        assert!(map.as_slice().iter().all(|&b| b == 7));
        drop(map);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn adopt_points_into_the_view() {
        let mut data = vec![0u8; 64];
        data[16..24].copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let map = Arc::new(BagMap::from_bytes(&data));
        let alloc = map.adopt(16, 8);
        let (lo, hi) = map.addr_range();
        let base = alloc.base() as usize;
        assert!(
            base >= lo && base + 8 <= hi,
            "adopted frame must alias the map"
        );
    }
}
