//! The message manager — the paper's `sfm::mm` / `sfm::gmm` (§4.2, §4.3.3).
//!
//! Every live serialization-free message has a *record* holding its base
//! address, capacity, current *whole message* size, a buffer pointer
//! ([`SfmAlloc`]), its life-cycle state and type name. Two operations
//! dominate:
//!
//! * **register / release** — keyed by the message's *start* address
//!   (the paper: "can be easily implemented by maintaining a `std::map`").
//! * **expand** — keyed by *any address inside* the message ("an address in
//!   the middle of the message"), because a field only knows its own
//!   location.
//!
//! A message keeps its record in its block's own header ([`HeaderRecord`]),
//! and the record's buffer pointer is a count there. A handle reaches the
//! record directly; an address inside a small heap block finds the header
//! by arithmetic on the allocator's arena (`alloc.rs`), so a small
//! message's whole life cycle takes no lock and searches nothing. The
//! records the arithmetic cannot find — an extern region (a shared-memory
//! frame, a bag frame, a loaned segment), a large block — have an entry in
//! an ordered table, searched as the paper does, by "a binary search from a
//! `std::vector` of ordered records". Every lookup asks the arithmetic
//! first and the table second.
//!
//! The table is *partitioned by owning thread*: each thread is given a home
//! partition on first use, an allocation is stamped with its constructing
//! thread's home and its record lives there, and every partition is its own
//! ordered vector under its own lock. A handle reaches its record through
//! the stamp; an address-keyed call looks in the caller's home partition
//! first and then in the others, one lock held at a time.

use crate::alert::{raise, AlertKind};
use crate::alloc::{HeaderRecord, SfmAlloc};
use crate::error::SfmError;
use parking_lot::{Mutex, MutexGuard};
use std::cell::Cell;
use std::collections::VecDeque;
use std::mem;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use LifecycleOp::Anomaly;
use MessageState::{Allocated, Published};

/// Life-cycle state of a serialization-free message (paper Figs. 8–9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageState {
    /// Registered and owned by developer code; not yet published.
    Allocated,
    /// Published at least once (publisher side) or adopted from a received
    /// buffer (subscriber side): the memory simultaneously *is* the message
    /// object and the serialized buffer.
    Published,
}

/// An entry of the table: the start of a message whose block the arena's
/// arithmetic cannot name from the message's bytes, and that block's header,
/// which holds the record.
type Entry = (usize, HeaderRecord);

/// Partitions of the record table. A constant, not a knob: it only has to
/// cover the threads that build or adopt messages at the same time (a
/// publishing thread and the loop, in every workload here); threads beyond
/// it share a partition, which costs a lock collision and never correctness.
pub(crate) const PARTITIONS: usize = 8;

/// One partition of the table, aligned so that two partitions never share
/// a cache line: the entries of the allocations built by the threads homed
/// here, ordered by start address.
#[repr(align(128))]
#[derive(Default)]
struct Partition(Mutex<Vec<Entry>>);

/// A share of [`ManagerStats`], on a cache line of its own: a partition's,
/// counted by the one thread that holds it, or the shared one, counted by
/// every other thread.
#[repr(align(128))]
#[derive(Default)]
struct Counts {
    registered: AtomicU64,
    released: AtomicU64,
    expands: AtomicU64,
    published: AtomicU64,
    table_locks: AtomicU64,
}

/// Source of manager identities, each shifted clear of the owner word's
/// state bit and never reused.
static NEXT_ID: AtomicUsize = AtomicUsize::new(1);

/// Partitions a live thread holds, one bit each.
static HELD: AtomicUsize = AtomicUsize::new(0);

/// Every partition's bit.
const ALL_HELD: usize = (1 << PARTITIONS) - 1;

/// A thread's home partition, and whether it holds it alone. It has no
/// destructor, so it stays readable while the thread's other thread-locals
/// are torn down.
struct Home {
    /// `u8::MAX` until the thread first asks.
    partition: Cell<u8>,
    /// The partition's bit in [`HELD`] is this thread's to clear.
    held: Cell<bool>,
}

thread_local! {
    static HOME: Home = const {
        Home {
            partition: Cell::new(u8::MAX),
            held: Cell::new(false),
        }
    };
}

/// The calling thread's home partition, the same for every manager in the
/// process: on first use, the lowest partition no live thread holds, held
/// until the thread exits ([`leave_home`]). Threads share a partition only
/// once every partition is held; the rest are then dealt round-robin.
pub(crate) fn home_partition() -> u8 {
    home().0
}

/// The calling thread's home partition, and whether it holds it alone.
fn home() -> (u8, bool) {
    HOME.with(|home| {
        if home.partition.get() == u8::MAX {
            let (partition, held) = claim();
            home.partition.set(partition);
            home.held.set(held);
        }
        (home.partition.get(), home.held.get())
    })
}

/// A partition for a thread that has none yet, and whether it holds it.
fn claim() -> (u8, bool) {
    // Relaxed: a bit spreads threads over partitions and guards no memory;
    // two threads on one partition cost lock collisions, never correctness.
    let mut held = HELD.load(Ordering::Relaxed);
    // Only a thread whose allocator cache will still be dropped holds a
    // partition: that drop gives it back.
    while held != ALL_HELD && crate::alloc::drop_cache_at_exit() {
        let lowest = (!held).trailing_zeros();
        // Acquire: the partition's counts, as the thread that gave it up
        // left them (see `leave_home`), are this thread's to write now.
        let claimed = held | 1 << lowest;
        match HELD.compare_exchange_weak(held, claimed, Ordering::Acquire, Ordering::Relaxed) {
            Ok(_) => return (lowest as u8, true),
            Err(now) => held = now,
        }
    }
    static SHARED: AtomicUsize = AtomicUsize::new(0);
    let next = SHARED.fetch_add(1, Ordering::Relaxed);
    ((next % PARTITIONS) as u8, false)
}

/// The calling thread is exiting and its allocator cache has handed its
/// blocks home: give its partition to the next thread that needs one. The
/// thread keeps the partition as its home, shared, for whatever its
/// remaining thread-locals drop.
pub(crate) fn leave_home() {
    HOME.with(|home| {
        if home.held.replace(false) {
            // Release: pairs with `claim`'s Acquire; the thread counts in
            // the shared slot from here on.
            HELD.fetch_and(!(1 << home.partition.get()), Ordering::Release);
        }
    });
}

/// A snapshot of one record, for introspection and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordInfo {
    /// Base address of the whole message.
    pub start: usize,
    /// Fixed capacity (the type's `max_size`).
    pub capacity: usize,
    /// Current size of the whole message.
    pub used: usize,
    /// Life-cycle state.
    pub state: MessageState,
    /// ROS type name, e.g. `sensor_msgs/Image`.
    pub type_name: &'static str,
    /// Strong count of the underlying buffer (includes the record's own
    /// buffer pointer).
    pub buffer_refs: usize,
    /// When the record's block was handed out, on the
    /// [`rossf_trace::now_nanos`] clock — for a registered message, its
    /// registration; 0 unless tracing was armed then, and 0 for a region
    /// adopted from elsewhere. Lets the tracer attribute manager-resident
    /// lifetime per message.
    pub registered_ns: u64,
}

/// Cumulative counters exposed for benchmarks and EXPERIMENTS.md.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Messages registered (publisher-side allocations + adopted frames).
    pub registered: u64,
    /// Messages released (records removed).
    pub released: u64,
    /// `expand` calls served.
    pub expands: u64,
    /// Messages that reached the `Published` state.
    pub published: u64,
    /// Cross-node adoptions that shared a published buffer in place instead
    /// of copying it (the same-machine zero-copy fast path): no new record
    /// is created — the subscriber's handle joins the refcount of the
    /// publisher's allocation.
    pub shared_adoptions: u64,
    /// Locks taken on a partition of the record table: for a record the
    /// arena's arithmetic cannot find (an extern region, a large block), a
    /// lookup of an address no small block's record holds, or a
    /// whole-table scan. Stays 0 while every message is a small heap block.
    pub table_locks: u64,
}

/// One lifecycle operation recorded by the sanitizer's event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleOp {
    /// `register` — message entered `Allocated`.
    Register,
    /// `register_loaned` — message entered `Allocated` inside a loaned
    /// shared-memory segment (built in place; publish will be copy-free).
    RegisterLoaned,
    /// `adopt` — received frame entered `Published` directly.
    Adopt,
    /// A subscriber began sharing a published buffer in place (zero-copy
    /// same-machine delivery): the existing record's refcount grew; no new
    /// record was created.
    AdoptShared,
    /// `expand` — content space appended.
    Expand,
    /// `mark_published` — `Allocated → Published` transition.
    MarkPublished,
    /// `release` — record removed.
    Release,
    /// A shared-memory segment was mapped into this process (publisher
    /// creation or subscriber adoption of a peer's memfd).
    SegmentMap,
    /// A shared-memory segment mapping was torn down.
    SegmentUnmap,
    /// A shared-memory segment was re-acquired for a new frame after its
    /// cross-process refcount returned to zero (generation bump).
    SegmentRecycle,
    /// An anomaly was detected (the paired [`AlertKind`] says which).
    Anomaly(AlertKind),
}

/// One entry in the sanitizer's event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleEvent {
    /// What happened.
    pub op: LifecycleOp,
    /// The address the operation targeted (base for register/adopt/release,
    /// interior field address for expand).
    pub addr: usize,
    /// ROS type name of the message, when the record was found.
    pub type_name: Option<&'static str>,
}

/// Snapshot of the sanitizer's anomaly counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SanitizerReport {
    /// Lifecycle events logged since the sanitizer was enabled.
    pub events_logged: u64,
    /// Releases of a base address that was already released (and not since
    /// reused by a new registration).
    pub double_release: u64,
    /// `expand` calls whose field address fell inside a released message.
    pub expand_after_release: u64,
    /// Releases performed while the manager held the only buffer reference
    /// (the developer's handle was already gone — a stale-handle release).
    pub refcount_anomaly: u64,
    /// `Allocated` records found by the last [`MessageManager::check_leaks`]
    /// call.
    pub leaked_allocated: u64,
    /// Shared-memory segments still mapped at the last
    /// [`MessageManager::check_leaks`] call — orphaned segments whose
    /// mapping was never torn down.
    pub leaked_segments: u64,
}

/// Bounded history of recently released `[start, end)` ranges plus the
/// event log — the sanitizer's working state.
struct Sanitizer {
    events: VecDeque<LifecycleEvent>,
    /// `(start, end)` of released whole messages, oldest first. Purged on
    /// address reuse (the allocator pool recycles buffers, so a released
    /// base coming back is normal, not a bug).
    released: VecDeque<(usize, usize)>,
    report: SanitizerReport,
}

/// Cap on the sanitizer's event log (oldest entries are dropped).
const SANITIZER_EVENTS_CAP: usize = 1024;
/// Cap on the released-range history.
const SANITIZER_RELEASED_CAP: usize = 512;

impl Sanitizer {
    fn new() -> Self {
        Sanitizer {
            events: VecDeque::new(),
            released: VecDeque::new(),
            report: SanitizerReport::default(),
        }
    }

    fn log(&mut self, op: LifecycleOp, addr: usize, type_name: Option<&'static str>) {
        if self.events.len() == SANITIZER_EVENTS_CAP {
            self.events.pop_front();
        }
        self.events.push_back(LifecycleEvent {
            op,
            addr,
            type_name,
        });
        self.report.events_logged += 1;
    }

    fn remember_released(&mut self, start: usize, end: usize) {
        if self.released.len() == SANITIZER_RELEASED_CAP {
            self.released.pop_front();
        }
        self.released.push_back((start, end));
    }

    fn in_released(&self, addr: usize) -> bool {
        self.released.iter().any(|&(s, e)| addr >= s && addr < e)
    }

    /// Forget released ranges overlapping `[start, end)` — the address has
    /// been legitimately reused by a fresh allocation.
    fn purge_reused(&mut self, start: usize, end: usize) {
        self.released.retain(|&(s, e)| e <= start || s >= end);
    }
}

/// The message life-cycle manager (`sfm::mm`).
///
/// A single process-global instance is available through [`mm()`] (the
/// paper's `sfm::gmm`); independent instances can be created for tests.
pub struct MessageManager {
    /// The record table. At most one partition is locked at a time; whole
    /// table readers walk them in index order.
    partitions: [Partition; PARTITIONS],
    /// This manager's identity in the owner word of the header records it
    /// holds.
    id: usize,
    /// The counts: one per partition, and last the shared one, of the
    /// threads that hold no partition alone.
    counts: [Counts; PARTITIONS + 1],
    /// Opt-in lifecycle sanitizer (`None` = disabled, the default). Locked
    /// only after the partition has been released — never nested.
    sanitizer: Mutex<Option<Sanitizer>>,
    /// Mirrors `sanitizer.is_some()`, written under its lock, so the
    /// default (off) path of every operation takes one partition only.
    sanitizing: AtomicBool,
    /// Live shared-memory segment mappings, base address → mapped bytes.
    /// Maintained unconditionally (cheap), reported through the sanitizer.
    segments: Mutex<std::collections::BTreeMap<usize, usize>>,
    shared_adoptions: AtomicU64,
}

impl Default for MessageManager {
    fn default() -> Self {
        Self::new()
    }
}

impl MessageManager {
    /// Create an empty manager.
    pub fn new() -> Self {
        MessageManager {
            partitions: Default::default(),
            // Relaxed: a unique number, ordering nothing.
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed) << 1,
            counts: Default::default(),
            sanitizer: Mutex::new(None),
            sanitizing: AtomicBool::new(false),
            segments: Mutex::new(std::collections::BTreeMap::new()),
            shared_adoptions: AtomicU64::new(0),
        }
    }

    /// Count one event in `field`: in the calling thread's partition when
    /// it holds that alone — its one writer, so a load and a store, not a
    /// locked read-modify-write — else in the shared counts.
    fn count(&self, field: fn(&Counts) -> &AtomicU64) {
        // Relaxed: statistics; a partition passes between holders with
        // Release and Acquire (`leave_home`, `claim`).
        match home() {
            (i, true) => {
                let count = field(&self.counts[i as usize]);
                count.store(count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            }
            _ => drop(field(&self.counts[PARTITIONS]).fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// Lock partition `i` of the table, counted.
    fn lock(&self, i: usize) -> MutexGuard<'_, Vec<Entry>> {
        self.count(|c| &c.table_locks);
        self.partitions[i].0.lock()
    }

    /// Run `f` on the record this manager holds for the message whose
    /// bytes hold `addr` (that starts at `addr`, if `exact`): found by the
    /// arena's arithmetic — the mask half of every address-keyed lookup,
    /// whose answer is final, as no table entry starts in the arena — else
    /// in the table, under the partition's lock.
    fn find<R>(&self, addr: usize, exact: bool, f: impl FnOnce(HeaderRecord) -> R) -> Option<R> {
        if let Some(rec) = HeaderRecord::at(addr) {
            return (rec.held_by(self.id).is_some() && holds(rec, addr, exact)).then(|| f(rec));
        }
        let mut f = Some(f);
        self.probe(home_partition(), |index| {
            let idx = Self::locate(index, addr, exact)?;
            Some(f.take()?(index[idx].1))
        })
    }

    /// Take the entry of the message starting at `start` out of the table.
    fn unindex(&self, first: u8, start: usize) -> Option<HeaderRecord> {
        self.probe(first, |index| {
            Some(index.remove(Self::locate(index, start, true)?).1)
        })
    }

    /// A snapshot of `rec`, if this manager holds it: of the next message
    /// in part, if a racing release frees its block and hands it out again.
    fn header_info(&self, rec: HeaderRecord) -> Option<RecordInfo> {
        Some(RecordInfo {
            state: rec.held_by(self.id)?,
            start: rec.start(),
            capacity: rec.capacity(),
            used: rec.used(),
            type_name: rec.type_name(),
            buffer_refs: rec.refs(),
            registered_ns: rec.born_ns(),
        })
    }

    /// Enable or disable the lifecycle sanitizer. Returns whether it was
    /// previously enabled. Enabling starts a fresh event log; disabling
    /// discards state.
    ///
    /// The sanitizer is best-effort debug instrumentation: it logs every
    /// lifecycle operation and reports double-release, expand-after-release,
    /// and refcount anomalies through the alert channel (respecting the
    /// active [`AlertPolicy`](crate::AlertPolicy)).
    pub fn set_sanitizer(&self, enabled: bool) -> bool {
        let mut san = self.sanitizer.lock();
        let was = san.is_some();
        *san = enabled.then(Sanitizer::new);
        // Relaxed: the flag only routes callers to the lock above, which
        // orders the state itself; an operation racing the switch may miss
        // (or find `None` behind) the flag once, as it could before.
        self.sanitizing.store(enabled, Ordering::Relaxed);
        was
    }

    /// Run `f` on the sanitizer's state when it is enabled.
    fn sanitize(&self, f: impl FnOnce(&mut Sanitizer)) {
        // Relaxed: see `set_sanitizer`.
        if self.sanitizing.load(Ordering::Relaxed) {
            if let Some(san) = self.sanitizer.lock().as_mut() {
                f(san);
            }
        }
    }

    /// Snapshot of the sanitizer's counters (`None` while disabled).
    pub fn sanitizer_report(&self) -> Option<SanitizerReport> {
        self.sanitizer.lock().as_ref().map(|s| s.report)
    }

    /// Snapshot of the sanitizer's event log (empty while disabled).
    pub fn lifecycle_events(&self) -> Vec<LifecycleEvent> {
        self.sanitizer
            .lock()
            .as_ref()
            .map(|s| s.events.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Log `op` and purge the released-history for a fresh registration at
    /// `[start, end)` (pool/heap address reuse is legitimate).
    fn sanitize_insert(&self, op: LifecycleOp, start: usize, end: usize, ty: &'static str) {
        self.sanitize(|san| {
            san.purge_reused(start, end);
            san.log(op, start, Some(ty));
        });
    }

    /// Register a freshly allocated message whose skeleton occupies the
    /// first `skeleton_size` bytes of `buffer`.
    ///
    /// This is what the overloaded global `new` operator does in the paper:
    /// "the allocated memory segment is then registered into the message
    /// manager, and the message enters the *Allocated* state".
    pub fn register(&self, buffer: SfmAlloc, skeleton_size: usize, type_name: &'static str) {
        let op = LifecycleOp::Register;
        self.insert(op, buffer, skeleton_size, Allocated, type_name);
    }

    /// Register a *loaned* message: identical to
    /// [`MessageManager::register`] except that the buffer lives inside a
    /// shared-memory segment's payload area (wrapped by
    /// [`SfmAlloc::from_extern`]) rather than on the process heap, and the
    /// sanitizer logs the distinct [`LifecycleOp::RegisterLoaned`] op so
    /// tests can confirm a message was built in-segment.
    pub fn register_loaned(&self, buffer: SfmAlloc, skeleton_size: usize, type_name: &'static str) {
        let op = LifecycleOp::RegisterLoaned;
        self.insert(op, buffer, skeleton_size, Allocated, type_name);
    }

    /// Register a message adopted from a received frame of `used` bytes
    /// (the paper's "dummy de-serialization routine", Fig. 9): the record is
    /// created directly in the `Published` state.
    pub fn adopt(&self, buffer: SfmAlloc, used: usize, type_name: &'static str) {
        self.insert(LifecycleOp::Adopt, buffer, used, Published, type_name);
    }

    /// Write the record of the message in `buffer` into its block's header,
    /// and enter it in the table partition the allocation is stamped with
    /// when the arena's arithmetic cannot find it.
    fn insert(
        &self,
        op: LifecycleOp,
        buffer: SfmAlloc,
        used: usize,
        state: MessageState,
        type_name: &'static str,
    ) {
        debug_assert!(used <= buffer.capacity());
        let (start, end) = (buffer.base(), buffer.base() + buffer.capacity());
        let rec = buffer.header_record();
        // An owner of 0 is no manager: the header holds no record.
        debug_assert!(rec.held_by(0).is_some(), "{start:#x} registered twice");
        self.count(|c| &c.registered);
        if state == Published {
            self.count(|c| &c.published);
        }
        rec.write(self.id, state, used, type_name);
        if !rec.by_arena(start) {
            debug_assert!(HeaderRecord::at(start).is_none(), "{start:#x} in arena");
            let mut index = self.lock(buffer.partition() as usize);
            let idx = index.partition_point(|e| e.0 < start);
            index.insert(idx, (start, rec));
        }
        // The record's buffer pointer is a count in the header.
        mem::forget(buffer);
        self.sanitize_insert(op, start, end, type_name);
    }

    /// Note that a subscriber adopted the published message starting at
    /// `start` *in place* — zero-copy same-machine delivery, where the
    /// subscriber's handle shares the publisher's allocation instead of
    /// re-materializing it (Published → Destructed governed purely by the
    /// buffer refcount, §4.2). No record is created or mutated; the record
    /// may already be gone if the publisher released after publishing, which
    /// is fine — the queue's buffer pointer keeps the bytes alive.
    pub fn note_shared_adoption(&self, start: usize) {
        self.shared_adoptions.fetch_add(1, Ordering::Relaxed);
        // The record is read for the log's type name only, and it lives in
        // the *publisher's* partition: not worth a cross-thread lock on
        // every fast-path delivery unless someone reads the log.
        // Relaxed: see `set_sanitizer`.
        if self.sanitizing.load(Ordering::Relaxed) {
            let ty = self.find(start, true, |rec| rec.type_name());
            self.sanitize(|san| san.log(LifecycleOp::AdoptShared, start, ty));
        }
    }

    /// Note that a shared-memory segment of `bytes` bytes was mapped at
    /// `base` in this process (publisher segment creation or subscriber
    /// adoption of a peer's memfd). The mapping is tracked until
    /// [`MessageManager::note_segment_unmap`]; anything still tracked when
    /// [`MessageManager::check_leaks`] runs is an orphaned segment.
    pub fn note_segment_map(&self, base: usize, bytes: usize) {
        self.segments.lock().insert(base, bytes);
        self.sanitize(|san| san.log(LifecycleOp::SegmentMap, base, None));
    }

    /// Note that the shared-memory segment mapping at `base` was torn down.
    pub fn note_segment_unmap(&self, base: usize) {
        self.segments.lock().remove(&base);
        self.sanitize(|san| san.log(LifecycleOp::SegmentUnmap, base, None));
    }

    /// Note that the segment mapped at `base` was recycled for a new frame
    /// (cross-process refcount returned to zero; generation bumped).
    pub fn note_segment_recycle(&self, base: usize) {
        self.sanitize(|san| san.log(LifecycleOp::SegmentRecycle, base, None));
    }

    /// Number of shared-memory segment mappings currently live in this
    /// process.
    pub fn live_segments(&self) -> usize {
        self.segments.lock().len()
    }

    /// Snapshot of the live segment mappings as `(base, bytes)` pairs.
    pub fn segment_mappings(&self) -> Vec<(usize, usize)> {
        self.segments.lock().iter().map(|(&b, &n)| (b, n)).collect()
    }

    /// Whether `addr` falls inside a live shared-memory segment mapping —
    /// how the lifecycle sanitizer confirms a loaned message really was
    /// built in-segment rather than on the heap.
    pub fn address_in_segment(&self, addr: usize) -> bool {
        self.segments
            .lock()
            .range(..=addr)
            .next_back()
            .is_some_and(|(&base, &bytes)| addr < base + bytes)
    }

    /// Run `f` on one partition at a time — `first`, then the others in
    /// index order, never two locks held — until it returns `Some`.
    fn probe<R>(&self, first: u8, mut f: impl FnMut(&mut Vec<Entry>) -> Option<R>) -> Option<R> {
        let first = first as usize;
        // A statement of its own: the first partition's guard drops before
        // the others are locked.
        let found = f(&mut self.lock(first));
        found.or_else(|| {
            let mut others = (0..PARTITIONS).filter(|&i| i != first);
            others.find_map(|i| f(&mut self.lock(i)))
        })
    }

    /// Grow the whole message that contains `field_addr` by `len` bytes,
    /// aligning the new region to `align`. Returns the absolute address of
    /// the new region.
    ///
    /// This is the operation behind first-time string assignment and vector
    /// resizing: "whenever a field requests for extra memory, the message
    /// manager is informed to find the corresponding record of the message
    /// based on the address of the requesting field" (§4.2).
    ///
    /// Growths of one message may run at once, on the threads that hold
    /// its fields: each gets a region of its own.
    ///
    /// # Errors
    ///
    /// * [`SfmError::UnmanagedAddress`] if no record contains `field_addr`.
    /// * [`SfmError::CapacityExceeded`] if growth would pass `max_size`.
    pub fn expand(&self, field_addr: usize, len: usize, align: usize) -> Result<usize, SfmError> {
        self.grow(field_addr, len, align, true)
    }

    /// [`MessageManager::expand`], taking a count on the block first if
    /// `pin`: an address alone does not keep a block from being released,
    /// freed and handed out again while its gap is zeroed. A field type
    /// growing through `&mut self` passes `false`: its borrow keeps the
    /// block alive.
    pub(crate) fn grow(
        &self,
        addr: usize,
        len: usize,
        align: usize,
        pin: bool,
    ) -> Result<usize, SfmError> {
        self.count(|c| &c.expands);
        let unmanaged = SfmError::UnmanagedAddress { addr };
        let outcome = self
            .find(addr, false, |rec| {
                // Looked up again once pinned: the record may have gone.
                let pinned = pin.then(|| rec.clone_live()).flatten();
                let mine = || rec.held_by(self.id).is_some() && holds(rec, addr, false);
                if pin && (pinned.is_none() || !mine()) {
                    return Err(unmanaged.clone());
                }
                let (start, type_name) = (rec.start(), rec.type_name());
                let reserved = rec.reserve(len, align);
                let (used, offset) = reserved.map_err(|available| SfmError::CapacityExceeded {
                    type_name,
                    requested: len,
                    available,
                })?;
                // Zero the alignment gap so the whole message never exposes
                // uninitialized bytes on the wire.
                if offset > used {
                    // SAFETY: [used, offset) is in-bounds (offset <= capacity),
                    // reserved for this call alone, and part of no field's
                    // region; the block lives while the caller's field (or
                    // the pin) does.
                    unsafe { std::ptr::write_bytes((start + used) as *mut u8, 0, offset - used) };
                }
                Ok((start + offset, type_name))
            })
            .unwrap_or(Err(unmanaged));
        // Sanitizer pass runs with the partition lock already dropped so
        // the alert channel may panic freely.
        let mut anomaly = false;
        self.sanitize(|san| match &outcome {
            Ok((_, ty)) => san.log(LifecycleOp::Expand, addr, Some(ty)),
            Err(_) if san.in_released(addr) => {
                san.report.expand_after_release += 1;
                san.log(Anomaly(AlertKind::LifecycleExpandAfterRelease), addr, None);
                anomaly = true;
            }
            Err(_) => san.log(LifecycleOp::Expand, addr, None),
        });
        if anomaly {
            raise(AlertKind::LifecycleExpandAfterRelease, "<released message>");
        }
        outcome.map(|(addr, _)| addr)
    }

    /// Index of the entry whose message holds `addr` (starts at `addr`, if
    /// `exact`): binary search over entries ordered by start address
    /// (paper §4.3.3).
    fn locate(index: &[Entry], addr: usize, exact: bool) -> Option<usize> {
        // Greatest start <= addr, then containment check.
        let idx = index.partition_point(|e| e.0 <= addr).checked_sub(1)?;
        holds(index[idx].1, addr, exact).then_some(idx)
    }

    /// Reference implementation `locate` is tested against: a linear scan.
    #[cfg(test)]
    fn locate_linear(index: &[Entry], addr: usize) -> Option<usize> {
        index.iter().position(|e| holds(e.1, addr, false))
    }

    /// Mark the message starting at `start` as published.
    ///
    /// Idempotent; unknown addresses are ignored (publishing an already
    /// released message is handled by the buffer pointer held in the transmission
    /// queue).
    pub fn mark_published(&self, start: usize) {
        let found = self.find(start, true, |rec| self.publish(rec));
        self.log_published(start, found);
    }

    /// [`MessageManager::mark_published`] for a handle, through its block's
    /// header: returns the whole-message size the record holds (`None` if
    /// the record is gone).
    pub(crate) fn publish_from(&self, buffer: &SfmAlloc) -> Option<usize> {
        let rec = buffer.header_record();
        let found = rec.held_by(self.id).map(|_| self.publish(rec));
        self.log_published(buffer.base(), found)
    }

    fn publish(&self, rec: HeaderRecord) -> (usize, &'static str) {
        if rec.publish() {
            self.count(|c| &c.published);
        }
        (rec.used(), rec.type_name())
    }

    fn log_published(&self, start: usize, found: Option<(usize, &'static str)>) -> Option<usize> {
        let ty = found.map(|(_, ty)| ty);
        self.sanitize(|san| san.log(LifecycleOp::MarkPublished, start, ty));
        found.map(|(used, _)| used)
    }

    /// Remove the record for the message starting at `start`, dropping the
    /// manager's buffer-pointer clone (the overloaded `delete` operator).
    ///
    /// If a transmission queue or another buffer pointer still references it
    /// the bytes stay alive; otherwise they are freed now ("only when the
    /// reference count becomes zero will the message memory be actually
    /// freed").
    pub fn release(&self, start: usize) {
        let rec = self.find(start, true, |rec| rec);
        self.release_record(start, rec, home_partition());
    }

    /// [`MessageManager::release`] for a handle, through its block's header
    /// (and the table, for a record the arena's arithmetic cannot find).
    pub(crate) fn release_from(&self, buffer: &SfmAlloc) {
        let rec = buffer.header_record();
        let rec = rec.held_by(self.id).map(|_| rec);
        self.release_record(buffer.base(), rec, buffer.partition());
    }

    /// Clear `rec`, the record of the message at `start` — out of the table
    /// first (probing `first` first), if the arena's arithmetic cannot find
    /// it — and drop its buffer pointer.
    fn release_record(&self, start: usize, rec: Option<HeaderRecord>, first: u8) {
        // A racing release may have freed a block the table held: it is read
        // only once out of the table.
        let rec = rec.filter(|rec| rec.by_arena(start) || self.unindex(first, start).is_some());
        // Found-record facts, read before the buffer pointer drops.
        let removed = rec.and_then(|rec| {
            let ty = rec.type_name();
            let buffer = rec.take(self.id)?;
            Some((buffer.capacity(), ty, buffer.refs()))
        });
        if removed.is_some() {
            self.count(|c| &c.released);
        }
        let mut alert = None;
        self.sanitize(|san| match removed {
            Some((capacity, ty, refs)) => {
                san.log(LifecycleOp::Release, start, Some(ty));
                san.remember_released(start, start + capacity);
                // A live developer handle plus the record's own clone
                // means >= 2 strong references at release entry; a count
                // of 1 means the caller released through a dangling
                // handle (the record was the last owner).
                if refs < 2 {
                    let kind = AlertKind::LifecycleRefcountAnomaly;
                    san.report.refcount_anomaly += 1;
                    san.log(Anomaly(kind), start, Some(ty));
                    alert = Some((kind, ty));
                }
            }
            None if san.in_released(start) => {
                san.report.double_release += 1;
                san.log(Anomaly(AlertKind::LifecycleDoubleRelease), start, None);
                alert = Some((AlertKind::LifecycleDoubleRelease, "<released message>"));
            }
            None => san.log(LifecycleOp::Release, start, None),
        });
        if let Some((kind, ty)) = alert {
            raise(kind, ty);
        }
    }

    /// Scan for `Allocated` records that were never published or released —
    /// the leak check the sanitizer runs at shutdown. Returns the leaked
    /// records; raises one [`AlertKind::LifecycleLeak`] alert (naming the
    /// first leaked type) when any are found and the sanitizer is enabled.
    ///
    /// The scan also covers orphaned shared-memory segments: any mapping
    /// noted through [`MessageManager::note_segment_map`] and never
    /// unmapped counts into [`SanitizerReport::leaked_segments`] and raises
    /// the same alert kind.
    pub fn check_leaks(&self) -> Vec<RecordInfo> {
        // Every record in the arena's headers, and every one in the table (an
        // extern region's control block may be in both).
        let info = |rec| self.header_info(rec);
        let mut leaked: Vec<RecordInfo> = HeaderRecord::all().filter_map(info).collect();
        for i in 0..PARTITIONS {
            leaked.extend(self.lock(i).iter().filter_map(|&(_, rec)| info(rec)));
        }
        leaked.retain(|r| r.state == Allocated);
        // Address order, as one ordered table would report them.
        leaked.sort_unstable_by_key(|r| r.start);
        leaked.dedup_by_key(|r| r.start);
        let live_segments = self.segment_mappings();
        // The first leaked record, else the first orphaned segment.
        let first = leaked.first().map(|r| (r.start, Some(r.type_name)));
        let first = first.or(live_segments.first().map(|&(base, _)| (base, None)));
        let mut alert = None;
        self.sanitize(|san| {
            san.report.leaked_allocated = leaked.len() as u64;
            san.report.leaked_segments = live_segments.len() as u64;
            if let Some((addr, ty)) = first {
                san.log(Anomaly(AlertKind::LifecycleLeak), addr, ty);
                alert = Some(ty.unwrap_or("<shm segment>"));
            }
        });
        if let Some(ty) = alert {
            raise(AlertKind::LifecycleLeak, ty);
        }
        leaked
    }

    /// Current whole-message size of the record containing `addr`.
    ///
    /// # Errors
    ///
    /// [`SfmError::UnmanagedAddress`] if no record contains `addr`.
    pub fn used_size(&self, addr: usize) -> Result<usize, SfmError> {
        self.find(addr, false, |rec| rec.used())
            .ok_or(SfmError::UnmanagedAddress { addr })
    }

    /// [`MessageManager::used_size`] for a handle, through its block's
    /// header.
    pub(crate) fn used_size_from(&self, buffer: &SfmAlloc) -> Option<usize> {
        let rec = buffer.header_record();
        rec.held_by(self.id).map(|_| rec.used())
    }

    /// Clone the buffer pointer of the message starting at `start` (used by
    /// `publish` to hand a reference to the transmission queue, Fig. 8).
    ///
    /// # Errors
    ///
    /// [`SfmError::UnmanagedAddress`] if `start` is not a registered base.
    pub fn buffer_of(&self, start: usize) -> Result<SfmAlloc, SfmError> {
        // A block freed by a racing release is not brought back; one reused
        // since is this manager's message at `start` only if it says so.
        let live = self.find(start, true, |rec| rec.clone_live()).flatten();
        let mine = |b: &SfmAlloc| b.base() == start && b.header_record().held_by(self.id).is_some();
        live.filter(mine)
            .ok_or(SfmError::UnmanagedAddress { addr: start })
    }

    /// Snapshot of the record containing `addr`, if any.
    pub fn info(&self, addr: usize) -> Option<RecordInfo> {
        self.find(addr, false, |rec| self.header_info(rec))
            .flatten()
    }

    /// Number of live records: those registered and not yet released.
    pub fn live(&self) -> usize {
        let stats = self.stats();
        stats.registered.wrapping_sub(stats.released) as usize
    }

    /// Cumulative counters.
    pub fn stats(&self) -> ManagerStats {
        // Relaxed: statistics, summed as they stand.
        let sum = |count: fn(&Counts) -> &AtomicU64| {
            let each = self.counts.iter().map(|c| count(c).load(Ordering::Relaxed));
            each.fold(0, u64::wrapping_add)
        };
        ManagerStats {
            registered: sum(|c| &c.registered),
            released: sum(|c| &c.released),
            expands: sum(|c| &c.expands),
            published: sum(|c| &c.published),
            // Relaxed: as above.
            shared_adoptions: self.shared_adoptions.load(Ordering::Relaxed),
            table_locks: sum(|c| &c.table_locks),
        }
    }
}

/// Whether `addr` is in `rec`'s message — is its start, if `exact`.
fn holds(rec: HeaderRecord, addr: usize, exact: bool) -> bool {
    let offset = addr.wrapping_sub(rec.start());
    offset == 0 || !exact && offset < rec.capacity()
}

impl Drop for MessageManager {
    /// The records go with the manager: each drops its buffer pointer.
    fn drop(&mut self) {
        let parts = &mut self.partitions;
        let indexed = parts.iter_mut().flat_map(|p| mem::take(p.0.get_mut()));
        for rec in indexed.map(|e| e.1).chain(HeaderRecord::all()) {
            drop(rec.take(self.id));
        }
    }
}

impl std::fmt::Debug for MessageManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MessageManager")
            .field("live", &self.live())
            .field("stats", &self.stats())
            .finish()
    }
}

/// The process-global message manager (the paper's `sfm::gmm`).
pub fn mm() -> &'static MessageManager {
    static GLOBAL: OnceLock<MessageManager> = OnceLock::new();
    GLOBAL.get_or_init(MessageManager::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(cap: usize) -> SfmAlloc {
        SfmAlloc::new(cap)
    }

    #[test]
    fn register_and_release_roundtrip() {
        let m = MessageManager::new();
        let a = alloc(256);
        let base = a.base();
        m.register(a, 24, "t/A");
        assert_eq!(m.live(), 1);
        let info = m.info(base).unwrap();
        assert_eq!(info.used, 24);
        assert_eq!(info.state, MessageState::Allocated);
        assert_eq!(info.type_name, "t/A");
        m.release(base);
        assert_eq!(m.live(), 0);
        assert!(m.info(base).is_none());
    }

    #[test]
    fn expand_by_interior_address() {
        let m = MessageManager::new();
        let a = alloc(256);
        let base = a.base();
        m.register(a, 24, "t/A");
        // A field in the middle of the skeleton requests 10 bytes.
        let got = m.expand(base + 8, 10, 1).unwrap();
        assert_eq!(got, base + 24);
        assert_eq!(m.used_size(base).unwrap(), 34);
        // Next request is aligned up.
        let got2 = m.expand(base + 16, 8, 8).unwrap();
        assert_eq!(got2, base + 40); // 34 aligned to 8 = 40
        assert_eq!(m.used_size(base).unwrap(), 48);
    }

    #[test]
    fn expand_unmanaged_address_errors() {
        let m = MessageManager::new();
        let err = m.expand(0x1000, 4, 1).unwrap_err();
        assert!(matches!(err, SfmError::UnmanagedAddress { .. }));
        assert_eq!(
            m.stats().expands,
            1,
            "counted though no partition served it"
        );
    }

    #[test]
    fn expand_beyond_capacity_errors() {
        let m = MessageManager::new();
        let a = alloc(64);
        let base = a.base();
        m.register(a, 24, "t/A");
        let err = m.expand(base, 100, 1).unwrap_err();
        assert!(matches!(err, SfmError::CapacityExceeded { .. }));
        // used must be unchanged after a failed expand.
        assert_eq!(m.used_size(base).unwrap(), 24);
    }

    /// `(start, capacity)` of every record `m` holds that the arena's
    /// arithmetic finds, by a scan of every slot: the linear oracle of the
    /// mask.
    fn header_records(m: &MessageManager) -> Vec<(usize, usize)> {
        let by_arena = |rec: &HeaderRecord| HeaderRecord::at(rec.buffer().base()) == Some(*rec);
        let infos = HeaderRecord::all().filter_map(|rec| Some((m.header_info(rec)?, rec)));
        let infos = infos.filter(|(_, rec)| by_arena(rec));
        infos.map(|(info, _)| (info.start, info.capacity)).collect()
    }

    /// Start of the record containing `addr`, checked against the
    /// linear-scan oracle on the way out: `locate`'s binary search in every
    /// partition, and the manager's lookup — mask first, table second —
    /// against the union of the partitions and `headers` (from
    /// [`header_records`]).
    fn locate_checked(
        m: &MessageManager,
        headers: &[(usize, usize)],
        addr: usize,
    ) -> Option<usize> {
        let mut oracle = None;
        let mut found = |start| {
            let twice = oracle.replace(start);
            assert_eq!(twice, None, "{addr:#x} is in two records");
        };
        for part in &m.partitions {
            let index = &part.0.lock();
            let idx = MessageManager::locate(index, addr, false);
            assert_eq!(
                idx,
                MessageManager::locate_linear(index, addr),
                "binary search and linear oracle disagree at {addr:#x}"
            );
            if let Some(i) = idx {
                found(index[i].0);
            }
        }
        let holds = |&&(start, capacity): &&(usize, usize)| addr.wrapping_sub(start) < capacity;
        headers
            .iter()
            .filter(holds)
            .for_each(|&(start, _)| found(start));
        assert_eq!(
            m.info(addr).map(|i| i.start),
            oracle,
            "lookup and union oracle disagree at {addr:#x}"
        );
        oracle
    }

    /// Run `f` on fresh threads, one call at a time, until every partition
    /// has been the home of one of them. A partition is held by one live
    /// thread, so each round keeps [`PARTITIONS`] workers alive together;
    /// the harness's other threads may hold some partitions meanwhile, and
    /// a later round finds them free.
    fn on_every_partition(f: impl FnMut() + Send) {
        let f = std::sync::Mutex::new(f);
        let mut seen = [false; PARTITIONS];
        while seen.contains(&false) {
            let all_homed = std::sync::Barrier::new(PARTITIONS);
            std::thread::scope(|s| {
                let workers: Vec<_> = (0..PARTITIONS)
                    .map(|_| {
                        s.spawn(|| {
                            let home = home_partition();
                            all_homed.wait();
                            (f.lock().expect("f panicked"))();
                            home
                        })
                    })
                    .collect();
                for worker in workers {
                    seen[worker.join().expect("worker panicked") as usize] = true;
                }
            });
        }
    }

    #[test]
    fn lookup_finds_correct_record_among_many() {
        let m = MessageManager::new();
        let allocs: Vec<_> = (0..32).map(|_| alloc(128)).collect();
        for a in &allocs {
            m.register(a.clone(), 16, "t/A");
        }
        let headers = header_records(&m);
        assert_eq!(headers.len(), 32, "small heap blocks hold their records");
        for a in &allocs {
            assert_eq!(locate_checked(&m, &headers, a.base() + 120), Some(a.base()));
            let got = m.expand(a.base() + 120, 0, 1).unwrap();
            assert!(got >= a.base() && got <= a.base() + 128);
        }
    }

    #[test]
    fn linear_and_binary_agree_on_miss() {
        let m = MessageManager::new();
        let a = alloc(64);
        m.register(a.clone(), 8, "t/A");
        let miss = a.base().wrapping_add(64); // one past the end
        assert_eq!(locate_checked(&m, &header_records(&m), miss), None);
        assert!(m.expand(miss, 1, 1).is_err());
    }

    /// Deterministic xorshift64* generator (the scheme
    /// `crates/msg/tests/verify_corruption.rs` uses).
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// One message of the sweep: a small heap block of one of several
    /// classes (its record in the header), a large block or an extern
    /// region (theirs in the table). The `Vec` keeps an extern region alive.
    fn sweep_message(rng: &mut Rng) -> SfmAlloc {
        match rng.below(16) {
            0 => alloc(70_000 + 8 * rng.below(4_000)),
            1 | 2 => {
                let cap = 8 * (1 + rng.below(300));
                let mut words = vec![0u64; cap / 8];
                let ptr = words.as_mut_ptr().cast();
                // SAFETY: the vector is 8-aligned, `cap` bytes, kept alive
                // by the guard and written by no one else.
                unsafe { SfmAlloc::from_extern(ptr, cap, words) }
            }
            n => alloc([8, 200, 3_000, 40_000][n % 4] + rng.below(900)),
        }
    }

    #[test]
    fn binary_search_agrees_with_linear_oracle_on_seeded_sweep() {
        let mut rng = Rng(0x5F3_2022);
        let mut counts = vec![1, 2, 511, 512];
        counts.extend((0..12).map(|_| 1 + rng.below(512)));
        for count in counts {
            let m = MessageManager::new();
            // Built and registered a share per partition, each by a thread
            // homed there: the table the sweep walks is spread out.
            let share = count.div_ceil(PARTITIONS);
            let (mut allocs, mut tabled) = (Vec::new(), 0);
            let mut homes = [false; PARTITIONS];
            on_every_partition(|| {
                if std::mem::replace(&mut homes[home_partition() as usize], true) {
                    return;
                }
                for _ in 0..share.min(count - allocs.len()) {
                    let a = sweep_message(&mut rng);
                    let locks = m.stats().table_locks;
                    m.register(a.clone(), 8, "t/A");
                    // A record the arena's arithmetic finds is written
                    // without a lock; the rest take one, for the table.
                    let in_table = m.stats().table_locks - locks;
                    let by_arena = HeaderRecord::at(a.base()) == Some(a.header_record());
                    assert_eq!(in_table, u64::from(!by_arena));
                    tabled += in_table;
                    allocs.push(a);
                }
            });
            assert_eq!((allocs.len(), m.live()), (count, count));
            let headers = header_records(&m);
            let in_tables: usize = m.partitions.iter().map(|p| p.0.lock().len()).sum();
            assert_eq!(in_tables as u64, tabled, "{count} records");
            assert_eq!(headers.len() + in_tables, count, "{count} records");
            assert!(count < 32 || headers.len() > count / 2, "most are small");
            // The sweep itself runs on this thread, foreign to most records:
            // every byte of a message of up to 1 KiB (a pose's `max_size`) — where a slot's divide
            // could be off by one inside its block — and the first, second,
            // middle and last byte of a larger one; one past the end and
            // one before the start.
            for a in &allocs {
                let (first, last) = (a.base(), a.base() + a.capacity() - 1);
                let sampled = [first, first + 1, first + a.capacity() / 2, last];
                let every = (a.capacity() <= 1024).then_some(first..=last);
                for addr in every.into_iter().flatten().chain(sampled) {
                    assert_eq!(
                        locate_checked(&m, &headers, addr),
                        Some(first),
                        "{count} records"
                    );
                }
                // Beside the message is a miss or a neighbour, never `a`; a
                // heap block's header is before its message.
                assert_ne!(locate_checked(&m, &headers, last + 1), Some(first));
                let before = locate_checked(&m, &headers, first - 1);
                if a.is_extern() {
                    assert_ne!(before, Some(first));
                } else {
                    assert_eq!(before, None, "{first:#x} has a header before it");
                }
                // A header hit takes no lock.
                let locks = m.stats().table_locks;
                m.info(first);
                if headers.contains(&(first, a.capacity())) {
                    assert_eq!(m.stats().table_locks, locks);
                }
            }
            let lowest = allocs.iter().map(|a| a.base()).min().unwrap();
            let before = locate_checked(&m, &headers, lowest - 1);
            assert_eq!(before, None, "gap before the first record");
            // Released — every other one also freed — from here too: every
            // record is found wherever it is, and then no more.
            let freed: Vec<(usize, usize)> =
                allocs.iter().map(|a| (a.base(), a.capacity())).collect();
            for (i, a) in std::mem::take(&mut allocs).into_iter().enumerate() {
                m.release(a.base());
                if i % 2 == 0 {
                    allocs.push(a);
                }
            }
            assert_eq!(m.live(), 0);
            assert!(header_records(&m).is_empty());
            for (first, capacity) in freed {
                for addr in [first, first + capacity - 1] {
                    assert_eq!(
                        locate_checked(&m, &[], addr),
                        None,
                        "{count} records, released"
                    );
                }
            }
        }
    }

    #[test]
    fn mark_published_transitions_once() {
        let m = MessageManager::new();
        let a = alloc(64);
        let base = a.base();
        m.register(a, 8, "t/A");
        m.mark_published(base);
        m.mark_published(base);
        assert_eq!(m.info(base).unwrap().state, MessageState::Published);
        assert_eq!(m.stats().published, 1);
    }

    #[test]
    fn adopt_starts_published() {
        let m = MessageManager::new();
        let a = alloc(64);
        let base = a.base();
        m.adopt(a, 40, "t/A");
        let info = m.info(base).unwrap();
        assert_eq!(info.state, MessageState::Published);
        assert_eq!(info.used, 40);
    }

    #[test]
    fn buffer_of_clones_refcount() {
        let m = MessageManager::new();
        let a = alloc(64);
        let base = a.base();
        m.register(a.clone(), 8, "t/A");
        let before = m.info(base).unwrap().buffer_refs;
        let extra = m.buffer_of(base).unwrap();
        let after = m.info(base).unwrap().buffer_refs;
        assert_eq!(after, before + 1);
        drop(extra);
        assert_eq!(m.info(base).unwrap().buffer_refs, before);
    }

    #[test]
    fn release_keeps_bytes_alive_while_queue_holds_arc() {
        let m = MessageManager::new();
        let a = alloc(64);
        let base = a.base();
        m.register(a.clone(), 8, "t/A");
        let queue_copy = m.buffer_of(base).unwrap();
        m.release(base);
        assert_eq!(m.live(), 0);
        // Bytes still addressable through the queue's clone.
        assert_eq!(queue_copy.base(), base);
        assert_eq!(queue_copy.slice(8).len(), 8);
        drop(a);
        drop(queue_copy); // memory actually freed here (Destructed)
    }

    #[test]
    fn stats_accumulate() {
        let m = MessageManager::new();
        let a = alloc(64);
        let base = a.base();
        m.register(a, 8, "t/A");
        m.expand(base, 4, 1).unwrap();
        m.mark_published(base);
        m.release(base);
        let s = m.stats();
        assert_eq!(s.registered, 1);
        assert_eq!(s.expands, 1);
        assert_eq!(s.published, 1);
        assert_eq!(s.released, 1);
    }

    #[test]
    fn shared_adoption_counts_and_logs_without_touching_records() {
        let m = MessageManager::new();
        m.set_sanitizer(true);
        let a = alloc(64);
        let base = a.base();
        m.register(a.clone(), 8, "t/A");
        m.mark_published(base);
        m.note_shared_adoption(base);
        assert_eq!(m.stats().shared_adoptions, 1);
        assert_eq!(m.live(), 1, "no record created or removed");
        let ev = m.lifecycle_events();
        let shared = ev
            .iter()
            .find(|e| e.op == LifecycleOp::AdoptShared)
            .expect("AdoptShared logged");
        assert_eq!(shared.addr, base);
        assert_eq!(shared.type_name, Some("t/A"));
        m.release(base);
        // After release the record is gone; the notation still counts.
        m.note_shared_adoption(base);
        assert_eq!(m.stats().shared_adoptions, 2);
    }

    #[test]
    fn global_manager_is_singleton() {
        assert!(std::ptr::eq(mm(), mm()));
    }

    // --- lifecycle sanitizer ---
    //
    // All sanitizer tests use a private manager and the counting alert
    // policy (under the alert test guard, since policy is process-global).

    fn with_counting_alerts<R>(f: impl FnOnce() -> R) -> R {
        let _g = crate::alert::test_guard();
        let prev = crate::set_alert_policy(crate::AlertPolicy::Count);
        let r = f();
        crate::set_alert_policy(prev);
        r
    }

    #[test]
    fn sanitizer_disabled_by_default_and_toggles() {
        let m = MessageManager::new();
        assert!(m.sanitizer_report().is_none());
        assert!(m.lifecycle_events().is_empty());
        assert!(!m.set_sanitizer(true));
        assert!(m.sanitizer_report().is_some());
        assert!(m.set_sanitizer(false));
        assert!(m.sanitizer_report().is_none());
    }

    #[test]
    fn sanitizer_logs_normal_lifecycle() {
        let m = MessageManager::new();
        m.set_sanitizer(true);
        let a = alloc(256);
        let base = a.base();
        m.register(a.clone(), 24, "t/A");
        m.expand(base + 8, 10, 1).unwrap();
        m.mark_published(base);
        m.release(base);
        drop(a);
        let ops: Vec<LifecycleOp> = m.lifecycle_events().iter().map(|e| e.op).collect();
        assert_eq!(
            ops,
            vec![
                LifecycleOp::Register,
                LifecycleOp::Expand,
                LifecycleOp::MarkPublished,
                LifecycleOp::Release,
            ]
        );
        let rep = m.sanitizer_report().unwrap();
        assert_eq!(rep.events_logged, 4);
        assert_eq!(rep.double_release, 0);
        assert_eq!(rep.refcount_anomaly, 0);
    }

    #[test]
    fn sanitizer_detects_double_release() {
        with_counting_alerts(|| {
            let m = MessageManager::new();
            m.set_sanitizer(true);
            let a = alloc(128);
            let base = a.base();
            m.register(a.clone(), 16, "t/A");
            m.release(base);
            let before = crate::lifecycle_alert_count();
            m.release(base); // stale handle strikes again
            let rep = m.sanitizer_report().unwrap();
            assert_eq!(rep.double_release, 1);
            assert_eq!(crate::lifecycle_alert_count(), before + 1);
            assert!(m
                .lifecycle_events()
                .iter()
                .any(|e| e.op == LifecycleOp::Anomaly(AlertKind::LifecycleDoubleRelease)));
        });
    }

    #[test]
    fn sanitizer_detects_expand_after_release() {
        with_counting_alerts(|| {
            let m = MessageManager::new();
            m.set_sanitizer(true);
            let a = alloc(128);
            let base = a.base();
            m.register(a.clone(), 16, "t/A");
            m.release(base);
            assert!(m.expand(base + 8, 4, 1).is_err());
            let rep = m.sanitizer_report().unwrap();
            assert_eq!(rep.expand_after_release, 1);
        });
    }

    #[test]
    fn sanitizer_detects_refcount_anomaly() {
        with_counting_alerts(|| {
            let m = MessageManager::new();
            m.set_sanitizer(true);
            let a = alloc(128);
            let base = a.base();
            m.register(a, 16, "t/A"); // record holds the ONLY buffer pointer
            m.release(base);
            let rep = m.sanitizer_report().unwrap();
            assert_eq!(rep.refcount_anomaly, 1);
        });
    }

    #[test]
    fn sanitizer_forgives_address_reuse() {
        with_counting_alerts(|| {
            let m = MessageManager::new();
            m.set_sanitizer(true);
            let a = alloc(128);
            let base = a.base();
            m.register(a.clone(), 16, "t/A");
            m.release(base);
            // The "allocator" hands the same base back: re-registering must
            // purge the released-history so the next release is clean.
            m.register(a.clone(), 16, "t/B");
            m.release(base);
            let rep = m.sanitizer_report().unwrap();
            assert_eq!(rep.double_release, 0);
        });
    }

    #[test]
    fn sanitizer_leak_check_finds_allocated_records() {
        with_counting_alerts(|| {
            let m = MessageManager::new();
            m.set_sanitizer(true);
            let a = alloc(128);
            let b = alloc(128);
            m.register(a.clone(), 16, "t/Leaky");
            m.register(b.clone(), 16, "t/B");
            m.mark_published(b.base());
            let before = crate::lifecycle_alert_count();
            let leaked = m.check_leaks();
            assert_eq!(leaked.len(), 1);
            assert_eq!(leaked[0].type_name, "t/Leaky");
            assert_eq!(m.sanitizer_report().unwrap().leaked_allocated, 1);
            assert_eq!(crate::lifecycle_alert_count(), before + 1);
            m.release(a.base());
            m.release(b.base());
            assert!(m.check_leaks().is_empty());
        });
    }

    #[test]
    fn sanitizer_event_log_is_bounded() {
        let m = MessageManager::new();
        m.set_sanitizer(true);
        let a = alloc(64);
        m.register(a.clone(), 8, "t/A");
        let base = a.base();
        for _ in 0..(super::SANITIZER_EVENTS_CAP + 100) {
            m.mark_published(base);
        }
        assert_eq!(m.lifecycle_events().len(), super::SANITIZER_EVENTS_CAP);
        assert!(m.sanitizer_report().unwrap().events_logged > super::SANITIZER_EVENTS_CAP as u64);
        m.release(base);
    }

    #[test]
    fn segment_tracking_and_leak_detection() {
        with_counting_alerts(|| {
            let m = MessageManager::new();
            m.set_sanitizer(true);
            m.note_segment_map(0x7000_0000, 4096);
            m.note_segment_map(0x7000_2000, 8192);
            m.note_segment_recycle(0x7000_0000);
            assert_eq!(m.live_segments(), 2);
            assert_eq!(
                m.segment_mappings(),
                vec![(0x7000_0000, 4096), (0x7000_2000, 8192)]
            );
            let before = crate::lifecycle_alert_count();
            m.check_leaks();
            assert_eq!(m.sanitizer_report().unwrap().leaked_segments, 2);
            assert_eq!(crate::lifecycle_alert_count(), before + 1);
            m.note_segment_unmap(0x7000_0000);
            m.note_segment_unmap(0x7000_2000);
            assert_eq!(m.live_segments(), 0);
            m.check_leaks();
            assert_eq!(m.sanitizer_report().unwrap().leaked_segments, 0);
            let ops: Vec<LifecycleOp> = m.lifecycle_events().iter().map(|e| e.op).collect();
            assert!(ops.contains(&LifecycleOp::SegmentMap));
            assert!(ops.contains(&LifecycleOp::SegmentRecycle));
            assert!(ops.contains(&LifecycleOp::SegmentUnmap));
        });
    }

    #[test]
    fn register_loaned_logs_distinct_op() {
        let m = MessageManager::new();
        m.set_sanitizer(true);
        let a = alloc(128);
        let base = a.base();
        m.register_loaned(a.clone(), 16, "t/Loaned");
        assert_eq!(m.info(base).unwrap().state, MessageState::Allocated);
        let ops: Vec<LifecycleOp> = m.lifecycle_events().iter().map(|e| e.op).collect();
        assert_eq!(ops, vec![LifecycleOp::RegisterLoaned]);
        // Loaned records work through the ordinary lifecycle afterwards.
        m.expand(base + 8, 4, 1).unwrap();
        m.mark_published(base);
        m.release(base);
        drop(a);
    }

    #[test]
    fn address_in_segment_checks_containment() {
        let m = MessageManager::new();
        m.note_segment_map(0x7000_0000, 4096);
        assert!(m.address_in_segment(0x7000_0000));
        assert!(m.address_in_segment(0x7000_0FFF));
        assert!(!m.address_in_segment(0x7000_1000));
        assert!(!m.address_in_segment(0x6FFF_FFFF));
        m.note_segment_unmap(0x7000_0000);
        assert!(!m.address_in_segment(0x7000_0000));
    }

    #[test]
    fn debug_impl_nonempty() {
        let m = MessageManager::new();
        assert!(format!("{m:?}").contains("MessageManager"));
    }
}
