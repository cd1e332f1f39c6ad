//! Shared memory: `memfd_create`, `mmap`, `munmap`, `fallocate`'s hole
//! punch, and the procfs facts cross-process hand-off needs.

use crate::{check, syscall6};
use std::fs::File;
use std::io;
use std::os::fd::{AsRawFd, FromRawFd};

const SYS_MMAP: i64 = 9;
const SYS_MUNMAP: i64 = 11;
const SYS_FALLOCATE: i64 = 285;
const SYS_MEMFD_CREATE: i64 = 319;

const PROT_READ: i64 = 1;
const PROT_WRITE: i64 = 2;
const MAP_SHARED: i64 = 1;
const MFD_CLOEXEC: i64 = 1;
const FALLOC_FL_KEEP_SIZE: i64 = 1;
const FALLOC_FL_PUNCH_HOLE: i64 = 2;

/// Create an anonymous memfd named `name` (close-on-exec) wrapped in a
/// [`File`]. Size it with [`File::set_len`] before mapping.
///
/// # Errors
///
/// The raw `errno` from the kernel.
pub fn memfd_create(name: &str) -> io::Result<File> {
    // memfd_create wants a NUL-terminated name (used only for
    // diagnostics in /proc/.../fd); truncate defensively.
    let mut buf = [0u8; 64];
    let n = name.len().min(buf.len() - 1);
    buf[..n].copy_from_slice(&name.as_bytes()[..n]);
    // SAFETY: `buf` is a live, NUL-terminated 64-byte array; the
    // remaining arguments are plain flags.
    let fd = check(unsafe {
        syscall6(
            SYS_MEMFD_CREATE,
            buf.as_ptr() as i64,
            MFD_CLOEXEC,
            0,
            0,
            0,
            0,
        )
    })?;
    // SAFETY: fd is a fresh, owned descriptor returned by the kernel.
    Ok(unsafe { File::from_raw_fd(fd as i32) })
}

/// Map `len` bytes of `file` shared into this process.
///
/// `writable` selects `PROT_READ|PROT_WRITE` vs `PROT_READ`; the mapping
/// is always `MAP_SHARED` so stores (and the kernel-side pages) are seen by
/// every process mapping the same memfd.
///
/// # Errors
///
/// The raw `errno` from the kernel.
pub fn mmap_shared(file: &File, len: usize, writable: bool) -> io::Result<*mut u8> {
    let prot = if writable {
        PROT_READ | PROT_WRITE
    } else {
        PROT_READ
    };
    // SAFETY: address 0 lets the kernel pick the range; `file` is a
    // live descriptor for the duration of the call.
    let ret = check(unsafe {
        syscall6(
            SYS_MMAP,
            0,
            len as i64,
            prot,
            MAP_SHARED,
            file.as_raw_fd() as i64,
            0,
        )
    })?;
    Ok(ret as *mut u8)
}

/// Unmap a region previously returned by [`mmap_shared`].
///
/// # Safety
///
/// `ptr`/`len` must denote exactly one live mapping created by
/// [`mmap_shared`]; no reference into the region may outlive the call.
pub unsafe fn munmap(ptr: *mut u8, len: usize) {
    // Failure here means the arguments were corrupted; nothing useful
    // to do at drop time, so swallow it.
    // SAFETY: callers pass the exact (ptr, len) a successful
    // mmap_shared returned, with no live references into the range.
    let _ = check(unsafe { syscall6(SYS_MUNMAP, ptr as i64, len as i64, 0, 0, 0, 0) });
}

/// Free the pages backing bytes `offset..offset + len` of `file`
/// (`fallocate(FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE)`): the range
/// reads back as zeros, in every mapping of the file, and the file keeps
/// its size. A memfd supports it; partial pages at either end are zeroed
/// in place.
///
/// # Errors
///
/// The raw `errno` from the kernel (`EOPNOTSUPP` on a file system without
/// hole punching).
pub fn punch_hole(file: &File, offset: usize, len: usize) -> io::Result<()> {
    // SAFETY: `file` is a live descriptor for the duration of the call;
    // the remaining arguments are plain integers.
    check(unsafe {
        syscall6(
            SYS_FALLOCATE,
            file.as_raw_fd() as i64,
            FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
            offset as i64,
            len as i64,
            0,
            0,
        )
    })?;
    Ok(())
}

/// Open another process's open file descriptor through procfs
/// (`/proc/<pid>/fd/<fd>`), read-write. This is how a subscriber process
/// adopts a publisher's memfd without fd-passing over a Unix socket: both
/// processes run as the same user in these experiments, so procfs grants
/// access, and the resulting [`File`] keeps the memfd's memory alive even
/// after the publisher closes or exits.
///
/// # Errors
///
/// Any error from [`std::fs::OpenOptions::open`] — most notably
/// `NotFound` when the peer already exited.
pub fn open_peer_fd(pid: u32, fd: i32) -> io::Result<File> {
    std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(format!("/proc/{pid}/fd/{fd}"))
}

/// Whether process `pid` is still running, judged from
/// `/proc/<pid>/stat`. A missing entry or a zombie/dead state char (`Z`,
/// `X`, `x` — the process can never release resources again) counts as
/// dead. Used by the publisher to decide when a vanished subscriber's
/// outstanding frame references are reclaimable.
pub fn process_alive(pid: u32) -> bool {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return false;
    };
    // Field 3 (state) follows the parenthesised comm, which may itself
    // contain spaces and parentheses — parse from the last ')'.
    let Some(end) = stat.rfind(')') else {
        return false;
    };
    match stat[end + 1..].split_whitespace().next() {
        Some(state) => !matches!(state, "Z" | "X" | "x"),
        None => false,
    }
}

/// Round `len` up to the page granularity mappings are made at.
pub fn page_round(len: usize) -> usize {
    const PAGE: usize = 4096;
    len.div_ceil(PAGE) * PAGE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_round_is_page_granular() {
        assert_eq!(page_round(0), 0);
        assert_eq!(page_round(1), 4096);
        assert_eq!(page_round(4096), 4096);
        assert_eq!(page_round(4097), 8192);
    }

    #[test]
    fn memfd_map_write_read_roundtrip() {
        let f = memfd_create("rossf-sys-test").unwrap();
        f.set_len(4096).unwrap();
        let rw = mmap_shared(&f, 4096, true).unwrap();
        let ro = mmap_shared(&f, 4096, false).unwrap();
        assert_ne!(rw, ro, "two independent mappings");
        unsafe {
            rw.write(0xAB);
            rw.add(4095).write(0xCD);
            assert_eq!(ro.read(), 0xAB);
            assert_eq!(ro.add(4095).read(), 0xCD);
            munmap(rw, 4096);
            munmap(ro, 4096);
        }
    }

    #[test]
    fn punch_hole_zeroes_the_range_in_every_mapping_and_keeps_the_size() {
        let f = memfd_create("rossf-punch-test").unwrap();
        f.set_len(3 * 4096).unwrap();
        let rw = mmap_shared(&f, 3 * 4096, true).unwrap();
        let ro = mmap_shared(&f, 3 * 4096, false).unwrap();
        unsafe { rw.write_bytes(0xEE, 3 * 4096) };
        punch_hole(&f, 4096 - 8, 4096 + 16).unwrap();
        let seen = unsafe { std::slice::from_raw_parts(ro, 3 * 4096) };
        for (i, &b) in seen.iter().enumerate() {
            let punched = (4096 - 8..2 * 4096 + 8).contains(&i);
            assert_eq!(b, if punched { 0 } else { 0xEE }, "byte {i}");
        }
        assert_eq!(f.metadata().unwrap().len(), 3 * 4096, "size kept");
        unsafe {
            munmap(rw, 3 * 4096);
            munmap(ro, 3 * 4096);
        }
    }

    #[test]
    fn open_own_fd_through_procfs() {
        let f = memfd_create("rossf-procfs-test").unwrap();
        f.set_len(4096).unwrap();
        let rw = mmap_shared(&f, 4096, true).unwrap();
        unsafe { rw.write(0x5A) };
        let peer = open_peer_fd(std::process::id(), f.as_raw_fd()).unwrap();
        let ro = mmap_shared(&peer, 4096, false).unwrap();
        assert_eq!(unsafe { ro.read() }, 0x5A);
        unsafe {
            munmap(rw, 4096);
            munmap(ro, 4096);
        }
    }

    #[test]
    fn process_alive_detects_self_and_garbage() {
        assert!(process_alive(std::process::id()));
        // Pid 0 has no /proc entry; u32::MAX is far beyond pid_max.
        assert!(!process_alive(0));
        assert!(!process_alive(u32::MAX));
    }
}
