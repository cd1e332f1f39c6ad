//! Thread placement: the load generator on one CPU, every other thread of
//! the process on the rest.
//!
//! On the 2-vCPU box this benchmark is sized for, three or four busy
//! threads (generator, link threads, reactor) share two cores; left to the
//! scheduler, which of them shares a core with the spinning generator
//! changes from round to round and the throughput of the small-message
//! workloads moves with it (README.md has the numbers). Pinning makes the
//! placement the same in every round and every run.
//!
//! A thread inherits the affinity of the thread that spawns it. The
//! runtime's reactor and pool threads, from which every link thread
//! descends, are therefore started while the main thread sits on the
//! middleware's CPUs. During a cold build the generator may run anywhere
//! (it waits there for handshakes done by those threads, and anything the
//! build itself spawns must not be born onto the generator's CPU); for the
//! phases it narrows to its own CPU.

use crate::procfs;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    generator_cpu: usize,
    middleware_cpus: Vec<usize>,
    all_cpus: Vec<usize>,
}

impl Placement {
    /// The placement for the CPUs this process may run on, or `None` when
    /// there are fewer than two (nothing to separate) or the platform has
    /// no affinity call we can make.
    pub fn detect() -> Option<Placement> {
        let placement = Placement::over(&procfs::process_status().cpus_allowed)?;
        // Probe once: a sandbox may forbid the call, and a benchmark that
        // is unpinned throughout is better than one pinned by halves.
        set_affinity(&placement.middleware_cpus).then_some(placement)
    }

    fn over(allowed: &[usize]) -> Option<Placement> {
        match allowed {
            [generator_cpu, rest @ ..] if !rest.is_empty() => Some(Placement {
                generator_cpu: *generator_cpu,
                middleware_cpus: rest.to_vec(),
                all_cpus: allowed.to_vec(),
            }),
            _ => None,
        }
    }

    /// Process start: the calling thread goes where the middleware's
    /// threads go, so the runtime it starts next is born there.
    pub fn for_runtime_start(&self) {
        set_affinity(&self.middleware_cpus);
    }

    /// Cold build: the calling thread may run on any CPU.
    pub fn for_build(&self) {
        set_affinity(&self.all_cpus);
    }

    /// Phases: the calling thread has the generator's CPU to itself.
    pub fn for_phases(&self) {
        set_affinity(&[self.generator_cpu]);
    }

    pub fn describe(&self) -> String {
        format!(
            "generator on cpu {}, all other threads on cpus {:?}",
            self.generator_cpu, self.middleware_cpus
        )
    }
}

/// Restrict the calling thread to `cpus`; `false` if the kernel refused.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn set_affinity(cpus: &[usize]) -> bool {
    const SYS_SCHED_SETAFFINITY: i64 = 203;
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        if let Some(word) = mask.get_mut(cpu / 64) {
            *word |= 1 << (cpu % 64);
        }
    }
    let result: i64;
    // SAFETY: `sched_setaffinity(0, len, mask)` reads `len` bytes from
    // `mask`, which is a live local array of exactly that size, and
    // changes only the calling thread's scheduling. The `syscall`
    // instruction clobbers rcx and r11, both declared; no memory the
    // compiler knows about is written.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") SYS_SCHED_SETAFFINITY => result,
            in("rdi") 0i64,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack, readonly),
        );
    }
    result == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn set_affinity(_cpus: &[usize]) -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_takes_the_first_cpu_and_the_rest_go_to_the_middleware() {
        assert_eq!(
            Placement::over(&[0, 1]),
            Some(Placement {
                generator_cpu: 0,
                middleware_cpus: vec![1],
                all_cpus: vec![0, 1],
            })
        );
        assert_eq!(
            Placement::over(&[2, 5, 6]).unwrap().middleware_cpus,
            vec![5, 6]
        );
        assert_eq!(Placement::over(&[3]), None);
        assert_eq!(Placement::over(&[]), None);
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn the_kernel_reports_the_affinity_we_set() {
        // On its own thread, so the test harness's threads keep theirs.
        std::thread::spawn(|| {
            let before = procfs::thread_status().cpus_allowed;
            let Some(&first) = before.first() else { return };
            assert!(set_affinity(&[first]));
            assert_eq!(procfs::thread_status().cpus_allowed, vec![first]);
            assert!(set_affinity(&before));
            assert_eq!(procfs::thread_status().cpus_allowed, before);
        })
        .join()
        .unwrap();
    }
}
