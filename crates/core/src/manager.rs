//! The message manager — the paper's `sfm::mm` / `sfm::gmm` (§4.2, §4.3.3).
//!
//! Every live serialization-free message has a *record* in the global
//! manager holding its base address, capacity, current *whole message* size,
//! a clone of the buffer pointer ([`SfmAlloc`]), and its life-cycle state.
//!
//! Two operations dominate:
//!
//! * **register / release** — keyed by the message's *start* address
//!   (the paper: "can be easily implemented by maintaining a `std::map`").
//! * **expand** — keyed by *any address inside* the message ("an address in
//!   the middle of the message"), because a field only knows its own
//!   location. The paper implements this as "a binary search from a
//!   `std::vector` of ordered records"; so do we.
//!
//! The table is *partitioned by owning thread*: each thread is given a home
//! partition on first use, an allocation is stamped with its constructing
//! thread's home and its record lives there, and every partition is its own
//! ordered vector under its own lock. A handle reaches its record through
//! the stamp; an address-keyed call looks in the caller's home partition
//! first and then in the others, one lock held at a time — so a publishing
//! thread and the loop thread, each on messages of its own, never meet on a
//! lock, and a message built on one thread can still be grown on a second
//! and released on a third.

use crate::alert::{raise, AlertKind};
use crate::align_up;
use crate::alloc::SfmAlloc;
use crate::error::SfmError;
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

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

struct Record {
    start: usize,
    capacity: usize,
    used: usize,
    state: MessageState,
    type_name: &'static str,
    buffer: SfmAlloc,
    /// When the record was created, on the tracing clock (0 when tracing
    /// was not armed at registration time).
    registered_ns: u64,
}

impl Record {
    fn info(&self) -> RecordInfo {
        RecordInfo {
            start: self.start,
            capacity: self.capacity,
            used: self.used,
            state: self.state,
            type_name: self.type_name,
            buffer_refs: self.buffer.refs(),
            registered_ns: self.registered_ns,
        }
    }
}

/// Partitions of the record table. A constant, not a knob: it only has to
/// cover the threads that build or adopt messages at the same time (a
/// publishing thread and the loop, in every workload here); threads beyond
/// it share a partition, which costs a lock collision and never correctness.
pub(crate) const PARTITIONS: usize = 8;

/// One partition of the table, aligned so that two partitions never share
/// a cache line.
#[repr(align(128))]
#[derive(Default)]
struct Partition(Mutex<Table>);

/// What a partition's lock guards: the records whose allocations were built
/// by the threads homed here, and its share of [`ManagerStats`] — counted
/// under the lock the operation holds anyway, so counting is neither an
/// atomic nor a cache line two threads write.
#[derive(Default)]
struct Table {
    /// Ordered by start address.
    records: Vec<Record>,
    registered: u64,
    released: u64,
    expands: u64,
    published: u64,
}

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
    HOME.with(|home| {
        if home.partition.get() == u8::MAX {
            let (partition, held) = claim();
            home.partition.set(partition);
            home.held.set(held);
        }
        home.partition.get()
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
        match HELD.compare_exchange_weak(
            held,
            held | 1 << lowest,
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return (lowest as u8, true),
            Err(now) => held = now,
        }
    }
    static SHARED: AtomicUsize = AtomicUsize::new(0);
    (
        (SHARED.fetch_add(1, Ordering::Relaxed) % PARTITIONS) as u8,
        false,
    )
}

/// The calling thread is exiting and its allocator cache has handed its
/// blocks home: give its partition to the next thread that needs one. The
/// thread keeps the partition as its home, shared, for whatever its
/// remaining thread-locals drop.
pub(crate) fn leave_home() {
    HOME.with(|home| {
        if home.held.replace(false) {
            // Relaxed: as in `claim`.
            HELD.fetch_and(!(1 << home.partition.get()), Ordering::Relaxed);
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
    /// clone).
    pub buffer_refs: usize,
    /// When the record was created, on the [`rossf_trace::now_nanos`]
    /// clock — 0 unless tracing was armed at registration time. Lets the
    /// tracer attribute manager-resident lifetime per message.
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
    /// Operations that had to lock a partition of the record table other
    /// than the calling thread's home: a handle used away from the thread
    /// that built its allocation, an address looked up from a foreign
    /// thread, or an address no partition knows. Stays 0 while every thread
    /// works on messages of its own.
    pub foreign_lookups: u64,
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
    foreign_lookups: AtomicU64,
}

impl Default for MessageManager {
    fn default() -> Self {
        Self::new()
    }
}

impl MessageManager {
    /// Create an empty manager using binary-search lookup.
    pub fn new() -> Self {
        MessageManager {
            partitions: Default::default(),
            sanitizer: Mutex::new(None),
            sanitizing: AtomicBool::new(false),
            segments: Mutex::new(std::collections::BTreeMap::new()),
            shared_adoptions: AtomicU64::new(0),
            foreign_lookups: AtomicU64::new(0),
        }
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
        self.register_as(LifecycleOp::Register, buffer, skeleton_size, type_name);
    }

    /// Register a *loaned* message: identical to
    /// [`MessageManager::register`] except that the buffer lives inside a
    /// shared-memory segment's payload area (wrapped by
    /// [`SfmAlloc::from_extern`]) rather than on the process heap, and the
    /// sanitizer logs the distinct [`LifecycleOp::RegisterLoaned`] op so
    /// tests can confirm a message was built in-segment.
    pub fn register_loaned(&self, buffer: SfmAlloc, skeleton_size: usize, type_name: &'static str) {
        self.register_as(
            LifecycleOp::RegisterLoaned,
            buffer,
            skeleton_size,
            type_name,
        );
    }

    fn register_as(
        &self,
        op: LifecycleOp,
        buffer: SfmAlloc,
        skeleton_size: usize,
        type_name: &'static str,
    ) {
        debug_assert!(skeleton_size <= buffer.capacity());
        let (start, end) = (buffer.base(), buffer.base() + buffer.capacity());
        self.insert(Record {
            start,
            capacity: buffer.capacity(),
            used: skeleton_size,
            state: MessageState::Allocated,
            type_name,
            registered_ns: buffer.born_ns(),
            buffer,
        });
        self.sanitize_insert(op, start, end, type_name);
    }

    /// Register a message adopted from a received frame of `used` bytes
    /// (the paper's "dummy de-serialization routine", Fig. 9): the record is
    /// created directly in the `Published` state.
    pub fn adopt(&self, buffer: SfmAlloc, used: usize, type_name: &'static str) {
        debug_assert!(used <= buffer.capacity());
        let (start, end) = (buffer.base(), buffer.base() + buffer.capacity());
        let registered_ns = if rossf_trace::tracer().armed() {
            rossf_trace::now_nanos()
        } else {
            0
        };
        self.insert(Record {
            start,
            capacity: buffer.capacity(),
            used,
            state: MessageState::Published,
            type_name,
            registered_ns,
            buffer,
        });
        self.sanitize_insert(LifecycleOp::Adopt, start, end, type_name);
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
            let ty = self.probe(home_partition(), |table| {
                Self::find(&table.records, start).map(|idx| table.records[idx].type_name)
            });
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
        self.sanitize(|san| {
            san.log(LifecycleOp::SegmentMap, base, None);
        });
    }

    /// Note that the shared-memory segment mapping at `base` was torn down.
    pub fn note_segment_unmap(&self, base: usize) {
        self.segments.lock().remove(&base);
        self.sanitize(|san| {
            san.log(LifecycleOp::SegmentUnmap, base, None);
        });
    }

    /// Note that the segment mapped at `base` was recycled for a new frame
    /// (cross-process refcount returned to zero; generation bumped).
    pub fn note_segment_recycle(&self, base: usize) {
        self.sanitize(|san| {
            san.log(LifecycleOp::SegmentRecycle, base, None);
        });
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

    /// Insert into the partition the record's allocation is stamped with —
    /// the registering thread's home, unless the allocation was built on
    /// another thread.
    fn insert(&self, rec: Record) {
        let part = rec.buffer.partition();
        if part != home_partition() {
            self.foreign_lookups.fetch_add(1, Ordering::Relaxed);
        }
        let mut table = self.partitions[part as usize].0.lock();
        table.registered += 1;
        table.published += u64::from(rec.state == MessageState::Published);
        let idx = table.records.partition_point(|r| r.start < rec.start);
        debug_assert!(
            table.records.get(idx).is_none_or(|r| r.start != rec.start),
            "double registration of base address {:#x}",
            rec.start
        );
        table.records.insert(idx, rec);
    }

    /// Run `f` on one partition at a time — `first`, then the others in
    /// index order, never two locks held — until it returns `Some`.
    fn probe<R>(&self, first: u8, mut f: impl FnMut(&mut Table) -> Option<R>) -> Option<R> {
        let first = first as usize;
        let found = f(&mut self.partitions[first].0.lock());
        if found.is_some() && first == home_partition() as usize {
            return found;
        }
        self.foreign_lookups.fetch_add(1, Ordering::Relaxed);
        found.or_else(|| {
            let mut others = (0..PARTITIONS).filter(|&i| i != first);
            others.find_map(|i| f(&mut self.partitions[i].0.lock()))
        })
    }

    /// Index of the record starting exactly at `start`.
    fn find(records: &[Record], start: usize) -> Option<usize> {
        records.binary_search_by(|r| r.start.cmp(&start)).ok()
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
    /// # Errors
    ///
    /// * [`SfmError::UnmanagedAddress`] if no record contains `field_addr`.
    /// * [`SfmError::CapacityExceeded`] if growth would pass `max_size`.
    pub fn expand(&self, field_addr: usize, len: usize, align: usize) -> Result<usize, SfmError> {
        let grow = |table: &mut Table| {
            let idx = Self::locate(&table.records, field_addr)?;
            table.expands += 1;
            let rec = &mut table.records[idx];
            let offset = align_up(rec.used, align);
            let new_used = match offset.checked_add(len) {
                Some(new_used) if new_used <= rec.capacity => new_used,
                _ => {
                    return Some(Err(SfmError::CapacityExceeded {
                        type_name: rec.type_name,
                        requested: len,
                        available: rec.capacity - rec.used,
                    }))
                }
            };
            if offset > rec.used {
                // Zero the alignment gap so the whole message never exposes
                // uninitialized bytes on the wire.
                // SAFETY: [used, offset) is in-bounds (offset <= new_used <=
                // capacity) and not yet part of any field's region.
                unsafe {
                    std::ptr::write_bytes((rec.start + rec.used) as *mut u8, 0, offset - rec.used);
                }
            }
            rec.used = new_used;
            Some(Ok((rec.start + offset, rec.type_name)))
        };
        let home = home_partition();
        let outcome: Result<(usize, &'static str), SfmError> =
            self.probe(home, grow).unwrap_or_else(|| {
                // A call no partition could serve is still a call counted.
                self.partitions[home as usize].0.lock().expands += 1;
                Err(SfmError::UnmanagedAddress { addr: field_addr })
            });
        // Sanitizer pass runs with the partition lock already dropped so
        // the alert channel may panic freely.
        let mut anomaly = false;
        self.sanitize(|san| match &outcome {
            Ok((_, ty)) => san.log(LifecycleOp::Expand, field_addr, Some(ty)),
            Err(_) if san.in_released(field_addr) => {
                san.report.expand_after_release += 1;
                san.log(
                    LifecycleOp::Anomaly(AlertKind::LifecycleExpandAfterRelease),
                    field_addr,
                    None,
                );
                anomaly = true;
            }
            Err(_) => san.log(LifecycleOp::Expand, field_addr, None),
        });
        if anomaly {
            raise(AlertKind::LifecycleExpandAfterRelease, "<released message>");
        }
        outcome.map(|(addr, _)| addr)
    }

    /// Index of the record containing `addr`: binary search over records
    /// ordered by start address (paper §4.3.3).
    fn locate(records: &[Record], addr: usize) -> Option<usize> {
        // Greatest start <= addr, then containment check.
        let idx = records.partition_point(|r| r.start <= addr);
        if idx == 0 {
            return None;
        }
        let rec = &records[idx - 1];
        (addr < rec.start + rec.capacity).then_some(idx - 1)
    }

    /// Reference implementation `locate` is tested against: a linear scan.
    #[cfg(test)]
    fn locate_linear(records: &[Record], addr: usize) -> Option<usize> {
        records
            .iter()
            .position(|r| addr >= r.start && addr < r.start + r.capacity)
    }

    /// Mark the message starting at `start` as published.
    ///
    /// Idempotent; unknown addresses are ignored (publishing an already
    /// released message is handled by the buffer pointer held in the transmission
    /// queue).
    pub fn mark_published(&self, start: usize) {
        self.publish_from(home_partition(), start);
    }

    /// [`MessageManager::mark_published`] for a handle: probes the
    /// partition its allocation is stamped with first, and returns the
    /// whole-message size the record holds — the publish step's one table
    /// trip (`None` if the record is gone).
    pub(crate) fn publish_from(&self, first: u8, start: usize) -> Option<usize> {
        let found = self.probe(first, |table| {
            let idx = Self::find(&table.records, start)?;
            let rec = &mut table.records[idx];
            if rec.state != MessageState::Published {
                rec.state = MessageState::Published;
                table.published += 1;
            }
            Some((rec.used, rec.type_name))
        });
        self.sanitize(|san| {
            san.log(LifecycleOp::MarkPublished, start, found.map(|(_, ty)| ty));
        });
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
        self.release_from(home_partition(), start);
    }

    /// [`MessageManager::release`] for a handle: probes the partition its
    /// allocation is stamped with first.
    pub(crate) fn release_from(&self, first: u8, start: usize) {
        // (found-record facts, gathered under the partition lock; the
        // record's buffer clone drops after it, outside the lock)
        let removed: Option<(usize, &'static str, usize)> = self
            .probe(first, |table| {
                let idx = Self::find(&table.records, start)?;
                table.released += 1;
                Some(table.records.remove(idx))
            })
            .map(|rec| {
                let refs = rec.buffer.refs();
                (rec.capacity, rec.type_name, refs)
            });
        let mut alert = None;
        self.sanitize(|san| {
            match removed {
                Some((capacity, ty, refs)) => {
                    san.log(LifecycleOp::Release, start, Some(ty));
                    san.remember_released(start, start + capacity);
                    // A live developer handle plus the record's own clone
                    // means >= 2 strong references at release entry; a count
                    // of 1 means the caller released through a dangling
                    // handle (the record was the last owner).
                    if refs < 2 {
                        san.report.refcount_anomaly += 1;
                        san.log(
                            LifecycleOp::Anomaly(AlertKind::LifecycleRefcountAnomaly),
                            start,
                            Some(ty),
                        );
                        alert = Some((AlertKind::LifecycleRefcountAnomaly, ty));
                    }
                }
                None if san.in_released(start) => {
                    san.report.double_release += 1;
                    san.log(
                        LifecycleOp::Anomaly(AlertKind::LifecycleDoubleRelease),
                        start,
                        None,
                    );
                    alert = Some((AlertKind::LifecycleDoubleRelease, "<released message>"));
                }
                None => san.log(LifecycleOp::Release, start, None),
            }
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
        let mut leaked: Vec<RecordInfo> = Vec::new();
        for part in &self.partitions {
            let table = part.0.lock();
            let records = table.records.iter();
            let allocated = records.filter(|r| r.state == MessageState::Allocated);
            leaked.extend(allocated.map(Record::info));
        }
        // Address order, as one ordered table would report them.
        leaked.sort_unstable_by_key(|r| r.start);
        let live_segments = self.segment_mappings();
        let mut alert = None;
        self.sanitize(|san| {
            san.report.leaked_allocated = leaked.len() as u64;
            san.report.leaked_segments = live_segments.len() as u64;
            if let Some(first) = leaked.first() {
                san.log(
                    LifecycleOp::Anomaly(AlertKind::LifecycleLeak),
                    first.start,
                    Some(first.type_name),
                );
                alert = Some(first.type_name);
            } else if let Some(&(base, _)) = live_segments.first() {
                san.log(LifecycleOp::Anomaly(AlertKind::LifecycleLeak), base, None);
                alert = Some("<shm segment>");
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
        self.used_size_from(home_partition(), addr)
    }

    /// [`MessageManager::used_size`] for a handle: probes the partition its
    /// allocation is stamped with first.
    pub(crate) fn used_size_from(&self, first: u8, addr: usize) -> Result<usize, SfmError> {
        self.probe(first, |table| {
            Self::locate(&table.records, addr).map(|i| table.records[i].used)
        })
        .ok_or(SfmError::UnmanagedAddress { addr })
    }

    /// Clone the buffer pointer of the message starting at `start` (used by
    /// `publish` to hand a reference to the transmission queue, Fig. 8).
    ///
    /// # Errors
    ///
    /// [`SfmError::UnmanagedAddress`] if `start` is not a registered base.
    pub fn buffer_of(&self, start: usize) -> Result<SfmAlloc, SfmError> {
        self.probe(home_partition(), |table| {
            Self::find(&table.records, start).map(|idx| table.records[idx].buffer.clone())
        })
        .ok_or(SfmError::UnmanagedAddress { addr: start })
    }

    /// Snapshot of the record containing `addr`, if any.
    pub fn info(&self, addr: usize) -> Option<RecordInfo> {
        self.probe(home_partition(), |table| {
            Self::locate(&table.records, addr).map(|i| table.records[i].info())
        })
    }

    /// Number of live records.
    pub fn live(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.0.lock().records.len())
            .sum()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> ManagerStats {
        let mut stats = ManagerStats {
            shared_adoptions: self.shared_adoptions.load(Ordering::Relaxed),
            foreign_lookups: self.foreign_lookups.load(Ordering::Relaxed),
            ..ManagerStats::default()
        };
        for part in &self.partitions {
            let table = part.0.lock();
            stats.registered += table.registered;
            stats.released += table.released;
            stats.expands += table.expands;
            stats.published += table.published;
        }
        stats
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

    /// Start of the record containing `addr`, checked against the
    /// linear-scan oracle on the way out: `locate`'s binary search in every
    /// partition, and the manager's probe against the *union* of them.
    fn locate_checked(m: &MessageManager, addr: usize) -> Option<usize> {
        let mut oracle = None;
        for part in &m.partitions {
            let records = &part.0.lock().records;
            let found = MessageManager::locate(records, addr);
            assert_eq!(
                found,
                MessageManager::locate_linear(records, addr),
                "binary search and linear oracle disagree at {addr:#x}"
            );
            if let Some(i) = found {
                let twice = oracle.replace(records[i].start);
                assert_eq!(twice, None, "{addr:#x} is in two partitions");
            }
        }
        assert_eq!(
            m.info(addr).map(|i| i.start),
            oracle,
            "probe and union oracle disagree at {addr:#x}"
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
        for a in &allocs {
            assert_eq!(locate_checked(&m, a.base() + 120), Some(a.base()));
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
        assert_eq!(locate_checked(&m, miss), None);
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
            let mut allocs = Vec::new();
            on_every_partition(|| {
                if !m.partitions[home_partition() as usize]
                    .0
                    .lock()
                    .records
                    .is_empty()
                {
                    return;
                }
                for _ in 0..share.min(count - allocs.len()) {
                    let a = alloc(8 + rng.below(89));
                    m.register(a.clone(), 8, "t/A");
                    assert_eq!(locate_checked(&m, a.base()), Some(a.base()));
                    allocs.push(a);
                }
            });
            assert_eq!((allocs.len(), m.live()), (count, count));
            assert_eq!(m.stats().foreign_lookups, 0, "each thread at home");
            let spread = m
                .partitions
                .iter()
                .filter(|p| !p.0.lock().records.is_empty());
            assert_eq!(spread.count(), count.div_ceil(share), "{count} records");
            // The sweep itself runs on this thread, foreign to most records.
            for a in &allocs {
                let (first, last) = (a.base(), a.base() + a.capacity() - 1);
                for addr in first..=last {
                    assert_eq!(locate_checked(&m, addr), Some(first), "{count} records");
                }
                // One past the end is either a miss or a neighbour, never `a`.
                assert_ne!(locate_checked(&m, last + 1), Some(first));
            }
            let lowest = allocs.iter().map(|a| a.base()).min().unwrap();
            assert_eq!(
                locate_checked(&m, lowest - 1),
                None,
                "gap before the first record"
            );
            assert!(m.stats().foreign_lookups > 0);
            // Released from here too: every record is found wherever it is.
            for a in &allocs {
                m.release(a.base());
            }
            assert_eq!(m.live(), 0);
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
