//! Model-checked interleavings of the allocator's return list and of a
//! block's header record. Built only under `RUSTFLAGS="--cfg rossf_model"`,
//! which routes the list's head, the blocks' links and the record's words
//! through the shadow atomics of `rossf-model`; each test then explores
//! every schedule of its threads within the default preemption bound.
//!
//! What is real and what is modelled: the list, its CAS push, its one-swap
//! take and the thread-exit chain, and the record's write, publish and
//! lookup, are the allocator's own code, reached through
//! `rossf_sfm::model`. The blocks are fresh header-only blocks from the
//! global allocator rather than a thread's lists, so that one execution
//! leaves nothing behind for the next. The list's scenarios assert the
//! accounting — every block pushed comes back, exactly once; the record's,
//! that a publication is counted once, that a lookup sees a whole record
//! or none, and that two growths of one message get regions of their own.
#![cfg(rossf_model)]

use rossf_model::{spawn, Model, Outcome};
use rossf_sfm::model::{FreeBlock, ReturnList};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// The owner word of the record scenarios' manager (nonzero, state bit
/// clear).
const OWNER: usize = 2;

/// Two threads publish one record — as two clones of one subscriber's
/// handle republishing it may — and the publication is counted once.
/// `split` selects the seeded mutant publish.
fn racing_publishers(split: bool) -> Outcome {
    Model::new().explore(move || {
        let rec = Arc::new(FreeBlock::new());
        rec.write_record(OWNER, 8, "t/A");
        let counted = Arc::new(AtomicUsize::new(0));
        let (r, c) = (Arc::clone(&rec), Arc::clone(&counted));
        // Relaxed: a tally, read after the join.
        let count = move |rec: &FreeBlock, c: &AtomicUsize| {
            let first = if split {
                // The mutant: a load and then a store of the state bit (1).
                // Relaxed: as the real publish; the bug is the gap.
                let word = rec.record_word().load(Ordering::Relaxed);
                rec.record_word().store(word | 1, Ordering::Relaxed);
                word & 1 == 0
            } else {
                rec.publish_record()
            };
            c.fetch_add(first.into(), Ordering::Relaxed)
        };
        let other = spawn(move || {
            count(&r, &c);
        });
        count(&rec, &counted);
        other.join();
        // Relaxed: as above.
        let counted = counted.load(Ordering::Relaxed);
        assert_eq!(counted, 1, "a publication counted {counted} times");
    })
}

#[test]
fn two_publishers_count_a_publication_once() {
    let out = racing_publishers(false);
    if let Some(f) = out.failure {
        panic!("{f}");
    }
    assert!(!out.capped, "exploration capped before exhaustion");
    assert!(out.executions > 2, "only {} schedules", out.executions);
    println!("racing publishers: {} schedules", out.executions);
}

/// The seeded bug: publish as a load and a store. Both publishers can read
/// the record unpublished before either stores.
#[test]
fn a_publish_split_into_load_and_store_is_caught() {
    let out = racing_publishers(true);
    let f = out.failure.expect("a split publish must count twice");
    assert!(f.message.contains("counted 2 times"), "got: {}", f.message);
    println!(
        "seeded split publish: caught after {} schedules",
        out.executions
    );
}

/// A lookup races the record's registration: it sees the whole record
/// (its size and name) or none of it. `owner_first` selects the seeded
/// mutant write.
fn lookup_racing_a_write(owner_first: bool) -> Outcome {
    Model::new().explore(move || {
        let rec = Arc::new(FreeBlock::new());
        let r = Arc::clone(&rec);
        let writer = spawn(move || {
            if owner_first {
                // The mutant: the owner word stored before the size and name.
                // Release: as the real write's; the bug is the order.
                r.record_word().store(OWNER, Ordering::Release);
            }
            r.write_record(OWNER, 40, "geometry_msgs/Pose");
        });
        let seen = rec.read_record(OWNER);
        writer.join();
        let whole = Some((40, "geometry_msgs/Pose"));
        assert!(
            seen.is_none() || seen == whole,
            "a partial record: {seen:?}"
        );
        assert_eq!(rec.read_record(OWNER), whole);
    })
}

#[test]
fn a_lookup_sees_a_whole_record_or_none() {
    let out = lookup_racing_a_write(false);
    if let Some(f) = out.failure {
        panic!("{f}");
    }
    assert!(!out.capped, "exploration capped before exhaustion");
    assert!(out.executions > 2, "only {} schedules", out.executions);
    println!("lookup racing a write: {} schedules", out.executions);
}

/// The seeded bug: the owner word stored first. A lookup between it and
/// the size finds the record with an empty name and no size.
#[test]
fn an_owner_written_before_its_record_is_caught() {
    let out = lookup_racing_a_write(true);
    let f = out
        .failure
        .expect("an owner stored first must expose a partial record");
    assert!(f.message.contains("a partial record"), "got: {}", f.message);
    println!(
        "seeded owner-first write: caught after {} schedules",
        out.executions
    );
}

/// Two threads grow one message at once — each holds one of its fields, as
/// `expand` lets them — by 8 bytes aligned to 8 from a size of 4: each gets
/// a region of its own, and the size ends past both. `split` selects the
/// seeded mutant growth.
fn racing_growths(split: bool) -> Outcome {
    Model::new().explore(move || {
        let rec = Arc::new(FreeBlock::new());
        rec.write_record(OWNER, 4, "t/A");
        let grow = move |rec: &FreeBlock| {
            if split {
                // The mutant: the size loaded, then the grown size stored.
                // Relaxed: as the real growth; the bug is the gap.
                let at = (rec.used_word().load(Ordering::Relaxed) as usize).next_multiple_of(8);
                rec.used_word().store(at as u32 + 8, Ordering::Relaxed);
                at
            } else {
                rec.reserve_record(8, 8).expect("room for both")
            }
        };
        let (r, theirs) = (Arc::clone(&rec), Arc::new(AtomicUsize::new(0)));
        let t = Arc::clone(&theirs);
        // Relaxed: read after the join.
        let other = spawn(move || t.store(grow(&r), Ordering::Relaxed));
        let mine = grow(&rec);
        other.join();
        // Relaxed: as above.
        let theirs = theirs.load(Ordering::Relaxed);
        assert_ne!(mine, theirs, "two growths were given one region");
        assert_eq!(rec.read_record(OWNER), Some((24, "t/A")));
    })
}

#[test]
fn two_growths_of_one_message_get_regions_of_their_own() {
    let out = racing_growths(false);
    if let Some(f) = out.failure {
        panic!("{f}");
    }
    assert!(!out.capped, "exploration capped before exhaustion");
    assert!(out.executions > 2, "only {} schedules", out.executions);
    println!("racing growths: {} schedules", out.executions);
}

/// The seeded bug: a growth as a load and a store of the size. Both
/// threads can load the size before either stores, and are given one
/// region.
#[test]
fn a_growth_split_into_load_and_store_is_caught() {
    let out = racing_growths(true);
    let f = out
        .failure
        .expect("a split growth must hand out one region twice");
    assert!(f.message.contains("one region"), "got: {}", f.message);
    println!(
        "seeded split growth: caught after {} schedules",
        out.executions
    );
}
