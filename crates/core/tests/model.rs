//! Model-checked interleavings of the allocator's return list. Built only
//! under `RUSTFLAGS="--cfg rossf_model"`, which routes the list's head and
//! the blocks' links through the shadow atomics of `rossf-model`; each test
//! then explores every schedule of two foreign threads and the owning
//! drainer within the default preemption bound.
//!
//! What is real and what is modelled: the list, its CAS push, its one-swap
//! take and the thread-exit chain are the allocator's own code, reached
//! through `rossf_sfm::model`. The blocks are fresh header-only blocks from
//! the global allocator rather than a thread's lists, so that one
//! execution leaves nothing behind for the next. Each scenario asserts the
//! accounting: every block pushed comes back, exactly once.
#![cfg(rossf_model)]

use rossf_model::{spawn, Model, Outcome};
use rossf_sfm::model::{FreeBlock, ReturnList};
use std::sync::Arc;

/// Drain `list` into `got` on the owning side.
fn drain(list: &ReturnList, got: &mut Vec<FreeBlock>) {
    got.append(&mut list.take());
}

/// Every block in `sent` came back in `got`, exactly once.
fn assert_each_once(sent: &[usize], got: &[FreeBlock]) {
    let mut got: Vec<usize> = got.iter().map(FreeBlock::addr).collect();
    got.sort_unstable();
    let mut sent = sent.to_vec();
    sent.sort_unstable();
    assert_eq!(got, sent, "a block was lost or came back twice");
}

/// Two foreign threads free blocks home — one pushes two, one pushes one —
/// while the owner takes the list twice as they go and once after both
/// are done. `racy` selects the seeded mutant take.
fn pushers_and_drainer(racy: bool) -> Outcome {
    Model::new().explore(move || {
        let list = Arc::new(if racy {
            ReturnList::with_racy_take()
        } else {
            ReturnList::new()
        });
        let blocks: Vec<FreeBlock> = (0..3).map(|_| FreeBlock::new()).collect();
        let sent: Vec<usize> = blocks.iter().map(FreeBlock::addr).collect();
        let mut blocks = blocks.into_iter();
        let (first, second, third) = (blocks.next(), blocks.next(), blocks.next());
        let l1 = Arc::clone(&list);
        let two = spawn(move || {
            l1.push(first.unwrap());
            l1.push(second.unwrap());
        });
        let l2 = Arc::clone(&list);
        let one = spawn(move || l2.push(third.unwrap()));
        let mut got = Vec::new();
        drain(&list, &mut got);
        drain(&list, &mut got);
        two.join();
        one.join();
        drain(&list, &mut got);
        assert_each_once(&sent, &got);
    })
}

#[test]
fn every_block_pushed_home_is_taken_exactly_once() {
    let out = pushers_and_drainer(false);
    if let Some(f) = out.failure {
        panic!("{f}");
    }
    assert!(!out.capped, "exploration capped before exhaustion");
    assert!(
        out.executions > 10,
        "only {} schedules explored — the scheduler is not branching",
        out.executions
    );
    println!(
        "return list, two pushers + drainer: {} schedules",
        out.executions
    );
}

/// The seeded bug: a take that loads the head and then stores an empty
/// list. A push that lands between the two is overwritten, and its block
/// never comes home.
#[test]
fn a_take_split_into_load_and_store_is_caught() {
    let out = pushers_and_drainer(true);
    let f = out
        .failure
        .expect("a take that is not one swap must lose a racing push");
    assert!(
        f.message.contains("lost or came back twice"),
        "expected the lost push to fail the accounting, got: {}",
        f.message
    );
    println!(
        "seeded load+store take: caught after {} schedules",
        out.executions
    );
}

/// A thread exits, handing its two blocks home as one chain, while a
/// foreign thread frees a third block home and the owner takes the list.
#[test]
fn a_thread_exit_hand_back_racing_a_push_conserves_the_count() {
    let out = Model::new().explore(|| {
        let list = Arc::new(ReturnList::new());
        let mut exiting: Vec<FreeBlock> = (0..2).map(|_| FreeBlock::new()).collect();
        let foreign = FreeBlock::new();
        let mut sent: Vec<usize> = exiting.iter().map(FreeBlock::addr).collect();
        sent.push(foreign.addr());
        let l1 = Arc::clone(&list);
        let exit = spawn(move || l1.hand_back(std::mem::take(&mut exiting)));
        let l2 = Arc::clone(&list);
        let free = spawn(move || l2.push(foreign));
        let mut got = Vec::new();
        drain(&list, &mut got);
        exit.join();
        free.join();
        drain(&list, &mut got);
        assert_each_once(&sent, &got);
    });
    if let Some(f) = out.failure {
        panic!("{f}");
    }
    assert!(!out.capped, "exploration capped before exhaustion");
    assert!(out.executions > 10, "only {} schedules", out.executions);
    println!("hand-back racing a push: {} schedules", out.executions);
}
