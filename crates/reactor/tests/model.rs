//! Model-checked interleavings of the reactor's wake handshake. Built only
//! under `RUSTFLAGS="--cfg rossf_model"`, which routes [`WakeGate`]'s flag
//! through the shadow atomics of `rossf-model`; each test then explores
//! every schedule of two producers and the loop within the default
//! preemption bound.
//!
//! What is real and what is modelled: the gate is the crate's own type, and
//! producers and loop call it in the order `Reactor::notify` and `run_loop`
//! do. The pending list is a model mutex around a `Vec` (the shape of
//! `Shared::notifies`). The kernel is modelled by [`Edge`]: a wake-up that
//! stays pending until the waiter consumes it, and a wait with no timeout —
//! so a schedule that ends with work queued, the loop blocked and no
//! wake-up issued is a deadlock, which the explorer reports.
#![cfg(rossf_model)]

use rossf_model::sync::{futex_wait, futex_wake, AtomicU32, Mutex};
use rossf_model::{spawn, Model, Outcome};
use rossf_reactor::WakeGate;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The wake-up descriptor watched edge-triggered: `raise` while nobody
/// waits is remembered, `wait` consumes exactly what was raised.
struct Edge(AtomicU32);

impl Edge {
    fn raise(&self) {
        self.0.store(1, Ordering::SeqCst);
        futex_wake(&self.0);
    }

    fn wait(&self) {
        while self.0.swap(0, Ordering::SeqCst) == 0 {
            futex_wait(&self.0, 0, 0);
        }
    }
}

struct Shared {
    pending: Mutex<Vec<u32>>,
    gate: WakeGate,
    edge: Edge,
}

const PRODUCERS: u32 = 2;

/// Two producers each queue one item and wake as `Reactor::notify` does;
/// the main thread is the loop: take the batch, and before blocking go
/// through the gate. `recheck` is the loop's second look at the queue.
fn handshake(recheck: bool) -> Outcome {
    Model::new().explore(move || {
        let shared = Arc::new(Shared {
            pending: Mutex::new(Vec::new()),
            gate: WakeGate::new(),
            edge: Edge(AtomicU32::new(0)),
        });
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|i| {
                let s = Arc::clone(&shared);
                spawn(move || {
                    s.pending.lock().push(i);
                    if s.gate.claim_wake() {
                        s.edge.raise();
                    }
                })
            })
            .collect();
        let mut taken = Vec::new();
        while taken.len() < PRODUCERS as usize {
            taken.append(&mut shared.pending.lock());
            if taken.len() == PRODUCERS as usize {
                break;
            }
            if shared
                .gate
                .may_block(|| recheck && !shared.pending.lock().is_empty())
            {
                shared.edge.wait();
                shared.gate.woke();
            }
        }
        for p in producers {
            p.join();
        }
        taken.sort_unstable();
        assert_eq!(taken, vec![0, 1], "an item was lost or duplicated");
    })
}

#[test]
fn no_schedule_strands_queued_work_behind_a_blocked_loop() {
    let out = handshake(true);
    if let Some(f) = out.failure {
        panic!("{f}");
    }
    assert!(!out.capped, "exploration capped before exhaustion");
    assert!(
        out.executions > 10,
        "only {} schedules explored — the scheduler is not branching",
        out.executions
    );
}

/// The seeded bug: a loop that announces the block and waits without
/// looking at the queue again. A producer that queued and read the flag
/// just before the announcement has already decided not to wake.
#[test]
fn dropping_the_recheck_is_caught() {
    let out = handshake(false);
    let f = out
        .failure
        .expect("a loop that blocks without re-checking must lose a wake-up");
    assert!(
        f.message.contains("deadlock"),
        "expected the lost wake-up to surface as a deadlock, got: {}",
        f.message
    );
}
