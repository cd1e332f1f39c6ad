//! Shadow synchronization primitives.
//!
//! Drop-in replacements for the `std::sync::atomic` types plus a model
//! futex and a model mutex. Each type is `#[repr(transparent)]` over its
//! std counterpart, so code that conjures atomics by pointer-casting into
//! mmap'd shared memory works identically in model builds — the shadow
//! types add *behavior* (a scheduler yield before every operation and a
//! trace/state-hash record after), not layout.
//!
//! Every operation is performed with `SeqCst` regardless of the ordering
//! the caller requested: the explorer enumerates sequentially-consistent
//! interleavings only. Weak-memory reorderings are out of scope (see the
//! crate docs for why this still catches lost updates, lost wakeups,
//! double releases and refcount underflows). Outside an exploration the
//! hooks are no-ops and the requested ordering is honored, so these types
//! are safe to leave linked into non-model binaries.

use crate::sched::hooks;
use std::sync::atomic::{self, Ordering};

macro_rules! shadow_atomic {
    ($name:ident, $std:ty, $prim:ty) => {
        /// Shadow counterpart of the same-named `std::sync::atomic` type.
        #[repr(transparent)]
        #[derive(Debug, Default)]
        pub struct $name(pub(crate) $std);

        impl $name {
            /// Create a new shadow atomic holding `v`.
            pub const fn new(v: $prim) -> Self {
                Self(<$std>::new(v))
            }

            fn addr(&self) -> usize {
                self as *const _ as usize
            }

            /// Atomic load (model: explored at `SeqCst`).
            pub fn load(&self, order: Ordering) -> $prim {
                if crate::sched::in_model() {
                    hooks::before_op();
                    // ORDER: model builds explore SC interleavings only;
                    // every shadow op runs at SeqCst by construction.
                    let v = self.0.load(Ordering::SeqCst);
                    hooks::note(self.addr(), None, || {
                        format!("{}::load -> {v}", stringify!($name))
                    });
                    v
                } else {
                    self.0.load(order)
                }
            }

            /// Atomic store (model: explored at `SeqCst`).
            pub fn store(&self, v: $prim, order: Ordering) {
                if crate::sched::in_model() {
                    hooks::before_op();
                    // ORDER: SC-only exploration (see load above).
                    self.0.store(v, Ordering::SeqCst);
                    hooks::note(self.addr(), Some(v as u64), || {
                        format!("{}::store {v}", stringify!($name))
                    });
                } else {
                    self.0.store(v, order);
                }
            }

            /// Atomic swap.
            pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                if crate::sched::in_model() {
                    hooks::before_op();
                    // ORDER: SC-only exploration (see load above).
                    let old = self.0.swap(v, Ordering::SeqCst);
                    hooks::note(self.addr(), Some(v as u64), || {
                        format!("{}::swap {old} -> {v}", stringify!($name))
                    });
                    old
                } else {
                    self.0.swap(v, order)
                }
            }

            /// Atomic add, returning the previous value.
            pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                if crate::sched::in_model() {
                    hooks::before_op();
                    // ORDER: SC-only exploration (see load above).
                    let old = self.0.fetch_add(v, Ordering::SeqCst);
                    hooks::note(self.addr(), Some(old.wrapping_add(v) as u64), || {
                        format!("{}::fetch_add({v}) -> {old}", stringify!($name))
                    });
                    old
                } else {
                    self.0.fetch_add(v, order)
                }
            }

            /// Atomic subtract, returning the previous value.
            pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                if crate::sched::in_model() {
                    hooks::before_op();
                    // ORDER: SC-only exploration (see load above).
                    let old = self.0.fetch_sub(v, Ordering::SeqCst);
                    hooks::note(self.addr(), Some(old.wrapping_sub(v) as u64), || {
                        format!("{}::fetch_sub({v}) -> {old}", stringify!($name))
                    });
                    old
                } else {
                    self.0.fetch_sub(v, order)
                }
            }

            /// Atomic bitwise or, returning the previous value.
            pub fn fetch_or(&self, v: $prim, order: Ordering) -> $prim {
                if crate::sched::in_model() {
                    hooks::before_op();
                    // ORDER: SC-only exploration (see load above).
                    let old = self.0.fetch_or(v, Ordering::SeqCst);
                    hooks::note(self.addr(), Some((old | v) as u64), || {
                        format!("{}::fetch_or({v}) -> {old}", stringify!($name))
                    });
                    old
                } else {
                    self.0.fetch_or(v, order)
                }
            }

            /// Atomic compare-exchange.
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                if crate::sched::in_model() {
                    hooks::before_op();
                    // ORDER: SC-only exploration (see load above).
                    let r =
                        self.0
                            .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst);
                    let write = r.is_ok().then_some(new as u64);
                    hooks::note(self.addr(), write, || {
                        format!("{}::cas {current}->{new} = {r:?}", stringify!($name))
                    });
                    r
                } else {
                    self.0.compare_exchange(current, new, success, failure)
                }
            }

            /// Atomic compare-exchange, allowed to fail spuriously. The
            /// shadow version never fails spuriously (it delegates to the
            /// strong form), which only shrinks the schedule space.
            pub fn compare_exchange_weak(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                if crate::sched::in_model() {
                    self.compare_exchange(current, new, success, failure)
                } else {
                    self.0.compare_exchange_weak(current, new, success, failure)
                }
            }
        }
    };
}

shadow_atomic!(AtomicU32, atomic::AtomicU32, u32);
shadow_atomic!(AtomicU64, atomic::AtomicU64, u64);
shadow_atomic!(AtomicUsize, atomic::AtomicUsize, usize);

/// Model futex wait on a shadow `AtomicU32`: parks the calling thread
/// until a [`futex_wake`] on the same word, unless the word no longer
/// holds `expected`. Timeouts are modeled as infinite, so a schedule in
/// which the wake never arrives is reported as a deadlock (the lost-wakeup
/// signature) instead of timing out silently.
pub fn futex_wait(word: &AtomicU32, expected: u32, _timeout_ms: i32) {
    let addr = word as *const _ as usize;
    // ORDER: SC-only exploration; the re-check load matches the kernel's
    // atomicity guarantee for FUTEX_WAIT.
    hooks::futex_wait(addr, || word.0.load(Ordering::SeqCst), expected);
}

/// Model futex wake: unparks every thread waiting on `word`.
pub fn futex_wake(word: &AtomicU32) {
    let addr = word as *const _ as usize;
    hooks::futex_wake(addr);
}

/// A model-aware mutex: under exploration it spins on `try_lock` through
/// the scheduler (blocking the thread between attempts), so lock
/// acquisition order is part of the explored schedule space; outside
/// exploration it is an uncontended-fast-path spin mutex equivalent to the
/// `parking_lot` shim.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    flag: AtomicU32,
    value: std::cell::UnsafeCell<T>,
}

// SAFETY: the flag CAS guarantees a single live guard, so &Mutex<T> only
// hands out &mut T exclusively; T: Send suffices exactly as for std::sync::Mutex.
unsafe impl<T: Send> Sync for Mutex<T> {}
// SAFETY: moving the mutex moves the T; no thread affinity is captured.
unsafe impl<T: Send> Send for Mutex<T> {}

impl<T> Mutex<T> {
    /// Create an unlocked mutex holding `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            flag: AtomicU32::new(0),
            value: std::cell::UnsafeCell::new(value),
        }
    }

    fn addr(&self) -> usize {
        self as *const _ as usize
    }

    /// Acquire the lock, blocking (model: through the scheduler) until
    /// it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if crate::sched::in_model() {
            loop {
                hooks::lock_attempt();
                // ORDER: SC-only exploration (model path).
                if self
                    .flag
                    .0
                    .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    hooks::note(self.addr(), Some(1), || "Mutex::lock".to_string());
                    return MutexGuard { lock: self };
                }
                hooks::lock_blocked(self.addr());
            }
        } else {
            while self
                .flag
                .0
                .compare_exchange_weak(0, 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                std::hint::spin_loop();
            }
            MutexGuard { lock: self }
        }
    }

    /// Try to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if crate::sched::in_model() {
            hooks::lock_attempt();
            // ORDER: SC-only exploration (model path).
            let ok = self
                .flag
                .0
                .compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok();
            hooks::note(self.addr(), ok.then_some(1), || {
                format!("Mutex::try_lock -> {ok}")
            });
            ok.then_some(MutexGuard { lock: self })
        } else {
            self.flag
                .0
                .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                .ok()
                .map(|_| MutexGuard { lock: self })
        }
    }
}

/// RAII guard for [`Mutex`]; releases (and wakes model contenders) on drop.
#[derive(Debug)]
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard exists, so the CAS in lock()/try_lock()
        // succeeded and no other guard is live; exclusive access holds
        // until Drop stores 0.
        unsafe { &*self.lock.value.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as for Deref — single live guard gives exclusive access.
        unsafe { &mut *self.lock.value.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if crate::sched::in_model() && !std::thread::panicking() {
            // ORDER: SC-only exploration (model path).
            self.lock.flag.0.store(0, Ordering::SeqCst);
            hooks::lock_released(self.lock.addr());
        } else {
            self.lock.flag.0.store(0, Ordering::Release);
        }
    }
}
