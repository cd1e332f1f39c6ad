//! # rossf-sys — the workspace's one syscall layer
//!
//! The workspace has no access to crates.io (so no `libc`/`nix`/`mio`);
//! the syscalls the transport needs are issued directly with inline
//! assembly, and this crate is the only place that does so (`rossf-lint`'s
//! `syscall-outside-sys` rule confines `asm!` to `crates/sys/src/`):
//!
//! * [`memfd_create`], [`mmap_shared`], [`munmap`] — shared-memory
//!   segments (the shm tier, and the bag's read-only file mapping);
//! * [`Poller`] (`epoll`), [`WakeFd`] (`eventfd`), [`set_socket_buffers`]
//!   (`setsockopt`), [`set_timer_slack_ns`] (`prctl`) — the reactor's
//!   readiness loop;
//! * [`open_peer_fd`], [`process_alive`], [`page_round`] — the procfs and
//!   page-size facts the callers of the above share.
//!
//! Everything that *can* go through `std` does: every descriptor is
//! immediately wrapped in a [`std::fs::File`] so sizing (`set_len`) and
//! close come from the standard library, cross-process hand-off opens the
//! peer's fd through `/proc/<pid>/fd/<fd>` with `std::fs::OpenOptions`,
//! and the eventfd counter is bumped with an ordinary `Write` call.
//!
//! **Supported target: x86-64 Linux.** The zero-copy tiers are a Linux
//! mechanism (memfd, epoll, eventfd), the syscall numbers and the register
//! convention below are x86-64's, and nothing in the workspace has ever
//! run anywhere else — so any other target is refused here, once, at
//! compile time, instead of being served by stubs no test executes.

#[cfg(any(not(target_os = "linux"), not(target_arch = "x86_64")))]
compile_error!(
    "rossf supports x86-64 Linux only: rossf-sys issues raw x86-64 Linux syscalls \
     (memfd/mmap/epoll/eventfd); port crates/sys to add a target"
);

mod mem;
mod poll;

pub use mem::{memfd_create, mmap_shared, munmap, open_peer_fd, page_round, process_alive};
pub use poll::{set_socket_buffers, set_timer_slack_ns, timer_slack_ns, PollEvent, Poller, WakeFd};

use std::io;
use std::time::Duration;

/// The kernel's `struct timespec` (the `epoll_pwait2` timeout).
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

impl From<Duration> for Timespec {
    fn from(d: Duration) -> Timespec {
        Timespec {
            tv_sec: d.as_secs() as i64,
            tv_nsec: i64::from(d.subsec_nanos()),
        }
    }
}

/// Raw 6-argument syscall. Return value is the kernel's `rax`:
/// negative values in `-4095..0` encode `-errno`.
///
/// # Safety
///
/// The caller must pass arguments valid for syscall `nr` — pointers
/// must reference live memory of the size the kernel will access.
unsafe fn syscall6(nr: i64, a1: i64, a2: i64, a3: i64, a4: i64, a5: i64, a6: i64) -> i64 {
    let ret: i64;
    core::arch::asm!(
        "syscall",
        inlateout("rax") nr => ret,
        in("rdi") a1,
        in("rsi") a2,
        in("rdx") a3,
        in("r10") a4,
        in("r8") a5,
        in("r9") a6,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    ret
}

fn check(ret: i64) -> io::Result<i64> {
    if (-4095..0).contains(&ret) {
        Err(io::Error::from_raw_os_error((-ret) as i32))
    } else {
        Ok(ret)
    }
}
