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
//!   page-size facts the callers of the above share;
//! * [`monotonic_now`] (`clock_gettime`) — the host's `CLOCK_MONOTONIC`,
//!   which every process on the machine reads alike.
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

/// The kernel's `struct timespec` (the `epoll_pwait2` timeout, the
/// `clock_gettime` result).
#[repr(C)]
#[derive(Default)]
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

const SYS_CLOCK_GETTIME: i64 = 228;
const CLOCK_MONOTONIC: i64 = 1;

/// The host's `CLOCK_MONOTONIC`: time since boot, not counting suspend.
/// Every process on the machine reads the same clock, so two processes'
/// readings can be subtracted. A raw syscall, not the vDSO: callers read it
/// once and advance it with [`std::time::Instant`].
pub fn monotonic_now() -> Duration {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a live, writable `struct timespec` for the duration
    // of the call; CLOCK_MONOTONIC always exists, so the call cannot fail.
    let ret = unsafe {
        syscall6(
            SYS_CLOCK_GETTIME,
            CLOCK_MONOTONIC,
            &mut ts as *mut Timespec as i64,
            0,
            0,
            0,
            0,
        )
    };
    debug_assert_eq!(ret, 0, "clock_gettime(CLOCK_MONOTONIC) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
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

#[cfg(test)]
mod tests {
    use std::time::Duration;

    #[test]
    fn monotonic_now_advances_with_instant() {
        let a = super::monotonic_now();
        let started = std::time::Instant::now();
        std::thread::sleep(Duration::from_millis(2));
        let elapsed = started.elapsed();
        let b = super::monotonic_now();
        assert!(a > Duration::ZERO, "time since boot");
        assert!(
            b - a >= elapsed,
            "{:?} between reads, {elapsed:?} inside",
            b - a
        );
    }
}
