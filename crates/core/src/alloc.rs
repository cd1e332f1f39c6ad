//! The block behind a serialization-free message, and where blocks come
//! from.
//!
//! In the paper the serialized buffer is a `std::shared_array` and the
//! message object is the *same memory* (§4.2). Here an [`SfmAlloc`] plays
//! the paper's *buffer pointer*, and it points at one block: a small header
//! (reference count, capacity, home partition, birth stamp) followed by the
//! message bytes. The count lives with the bytes, as `ipc_shared_ptr` keeps
//! its control block with the object, so a reference costs no allocation of
//! its own. The message manager holds one buffer pointer, the developer's
//! [`SfmBox`](crate::SfmBox) holds one, and every transmission-queue entry
//! holds one; the block is released exactly when the last drops (the
//! `Destructed` state). The object pointers of a subscriber's
//! [`SfmShared`](crate::SfmShared) are counted in the same header.
//!
//! # Where a block comes from, and how it goes home
//!
//! Blocks come in size classes: [`MIN_BLOCK`] bytes, then four classes per
//! doubling up to [`LARGE_BYTE_CAP`]; a larger block is never cached. Every
//! thread keeps one free list per class and allocates from it without
//! synchronisation. A block is stamped with the home partition of the
//! thread that built it — the partition of the manager's record table its
//! record lives in. A free on a thread of that partition puts the block on
//! the thread's own list. A free on any other thread pushes it, with one
//! CAS, onto the partition's return list, and the owning side takes that
//! list whole with one `swap` when a list of its own runs dry (free-list
//! sharding: Leijen et al., *Mimalloc: Free List Sharding in Action*,
//! 2019). A thread that exits hands its small blocks to its partition's
//! return list, so no block is orphaned.
//!
//! What is kept is bounded: a thread keeps at most [`SMALL_CLASS_BYTES`] of
//! one small class, and the process keeps at most [`LARGE_PER_CLASS`]
//! blocks of one large class (at least [`LARGE_BLOCK`] bytes) and
//! [`LARGE_BYTE_CAP`] bytes of large blocks — counting the bytes each was
//! asked for — on any thread's lists or on their way home: the bounds of
//! the process-wide pool this replaces, which served large blocks only.
//! Whatever would pass a bound goes back to the global allocator, and so do
//! an exiting thread's large blocks.
//!
//! A region that is not the heap's — a shared-memory mapping, a bag mmap, a
//! loaned segment — never enters a cache: only its header, a *control
//! block* of the smallest class, does.

use crate::manager::{home_partition, leave_home, PARTITIONS};
use crate::sync::{fence, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::cell::RefCell;
use std::mem;
use std::ptr::NonNull;

/// Alignment of every SFM allocation. 8 bytes covers the strictest field
/// type ROS supports (`float64`/`int64`) so nested skeletons and vector
/// content are always correctly aligned when the manager aligns offsets.
pub const SFM_ALLOC_ALIGN: usize = 8;

/// Alignment of a small block: a cache line, which the header fills, so
/// the header and the first message bytes never share one.
const BLOCK_ALIGN: usize = 64;
/// Alignment of a large block. The global allocator serves an over-aligned
/// request of that size through `memalign`, off its `mmap` path, and holds
/// on to the chunks it frees: aligned to 64, slam_320x240's peak RSS went
/// from 17.5 to 26 MB.
const LARGE_ALIGN: usize = 16;
/// Bytes from the start of a heap block to its message bytes.
const HEADER: usize = crate::align_up(mem::size_of::<Block>(), BLOCK_ALIGN);
/// The smallest block, and the class of every control block.
const MIN_BLOCK: usize = 128;
/// Bytes a control block keeps its guard in, after the header.
const GUARD_ROOM: usize = MIN_BLOCK - HEADER;
/// Counts past this are a leak of handles, not a workload: abort, as `Arc`
/// does, before a count can wrap.
const MAX_COUNT: u32 = u32::MAX / 2;
/// Blocks of at least this many bytes are large: they are kept by a
/// process-wide count per class and byte cap, not by a per-thread budget.
/// For multi-megabyte types the system allocator serves and returns such
/// blocks with `mmap`/`munmap`, paying a page-fault storm per message, which
/// is why production zero-copy middlewares (RTI FlatData, iceoryx, eCAL)
/// run over pools.
const LARGE_BLOCK: usize = 64 << 10;
/// Large blocks the process keeps per class.
const LARGE_PER_CLASS: u32 = 4;
/// Bytes of large blocks the process keeps, cached or on their way home;
/// also the largest block that is cached at all.
const LARGE_BYTE_CAP: usize = 128 << 20;
/// Bytes one thread keeps of one small class.
const SMALL_CLASS_BYTES: usize = 256 << 10;
/// [`MIN_BLOCK`], then four classes per doubling up to [`LARGE_BYTE_CAP`].
const CLASSES: usize =
    1 + 4 * (LARGE_BYTE_CAP.trailing_zeros() - MIN_BLOCK.trailing_zeros()) as usize;
/// The class of a block too large to cache.
const UNCACHED: u8 = u8::MAX;

const _: () = assert!(HEADER == BLOCK_ALIGN && HEADER < MIN_BLOCK && CLASSES < UNCACHED as usize);

/// The class of a block of `bytes` bytes, or [`UNCACHED`].
fn class_of(bytes: usize) -> u8 {
    if bytes <= MIN_BLOCK {
        return 0;
    }
    if bytes > LARGE_BYTE_CAP {
        return UNCACHED;
    }
    // 2^p < bytes <= 2^(p+1), cut into four steps of 2^(p-2).
    let p = (usize::BITS - 1 - (bytes - 1).leading_zeros()) as usize;
    let quarter = ((bytes - 1) >> (p - 2)) - 4;
    (1 + 4 * (p - MIN_BLOCK.trailing_zeros() as usize) + quarter) as u8
}

/// Bytes of a block of class `class` (not [`UNCACHED`]).
fn class_bytes(class: u8) -> usize {
    match class as usize {
        0 => MIN_BLOCK,
        c => {
            let p = MIN_BLOCK.trailing_zeros() as usize + (c - 1) / 4;
            (5 + (c - 1) % 4) << (p - 2)
        }
    }
}

fn is_large(class: u8) -> bool {
    class_bytes(class) >= LARGE_BLOCK
}

/// The layout a block of `class` was allocated with; `bytes` is the
/// header plus capacity, which sizes an [`UNCACHED`] block.
fn block_layout(class: u8, bytes: usize) -> Option<Layout> {
    let size = if class == UNCACHED {
        bytes
    } else {
        class_bytes(class)
    };
    let align = if size >= LARGE_BLOCK {
        LARGE_ALIGN
    } else {
        BLOCK_ALIGN
    };
    Layout::from_size_align(size, align).ok()
}

/// Large blocks of each class kept now, and their bytes in all: on any
/// thread's lists or on a return list.
static LARGE_KEPT: [AtomicU32; CLASSES] = [const { AtomicU32::new(0) }; CLASSES];
static LARGE_RETAINED: AtomicUsize = AtomicUsize::new(0);

/// What a free large block counts against the cap: the bytes it was last
/// asked for, as the pool this replaces counted them — the rest of its
/// class is address space the message never touched.
///
/// # Safety
///
/// `block` is free and the caller's.
unsafe fn charged_bytes(block: NonNull<Block>) -> usize {
    // SAFETY: (the caller's) a free block is owned by this thread.
    HEADER + unsafe { block.as_ref() }.capacity
}

/// Count a free large block of `class` and `bytes` as kept, if its class
/// and the process have room.
fn charge(class: u8, bytes: usize) -> bool {
    let kept = &LARGE_KEPT[class as usize];
    // Relaxed: budgets, not publications — the block itself travels
    // through a list's own ordering edges.
    if kept.fetch_add(1, Ordering::Relaxed) < LARGE_PER_CLASS {
        // Relaxed: as above.
        if LARGE_RETAINED.fetch_add(bytes, Ordering::Relaxed) + bytes <= LARGE_BYTE_CAP {
            return true;
        }
        // Relaxed: as above.
        LARGE_RETAINED.fetch_sub(bytes, Ordering::Relaxed);
    }
    // Relaxed: as above.
    kept.fetch_sub(1, Ordering::Relaxed);
    false
}

fn uncharge(class: u8, bytes: usize) {
    // Relaxed: see `charge`.
    LARGE_KEPT[class as usize].fetch_sub(1, Ordering::Relaxed);
    // Relaxed: see `charge`.
    LARGE_RETAINED.fetch_sub(bytes, Ordering::Relaxed);
}

/// What a block holds besides its own header.
enum Backing {
    /// The bytes follow the header. A free block's backing is always this.
    Heap,
    /// The bytes belong to someone else. The guard that releases them
    /// lives in the control block's tail; this drops it there.
    // SAFETY: called only by the last buffer pointer's drop, once, on the
    // block whose tail `SfmAlloc::guarded` put the guard in.
    Extern(unsafe fn(NonNull<Block>)),
    /// A subscriber's view of another block's bytes, holding one buffer
    /// pointer to it.
    View(SfmAlloc),
}

/// The header at the start of every block: one cache line, and aligned to
/// one in a small block.
#[repr(C)]
struct Block {
    /// Buffer pointers alive: every [`SfmAlloc`] naming this block.
    refs: AtomicU32,
    /// Object pointers alive in the block's one handle group (the clones
    /// of one [`SfmShared`](crate::SfmShared)); the group holds one buffer
    /// pointer between them.
    objs: AtomicU32,
    /// The next block while this one is on a free or return list.
    next: AtomicUsize,
    /// The first message byte.
    data: NonNull<u8>,
    /// Bytes the message may use; fixed until the block is freed.
    capacity: usize,
    /// When the block was handed out, on the tracing clock (0 when the
    /// tracer was not armed).
    born_ns: AtomicU64,
    /// The building thread's home partition of the record table.
    partition: u8,
    class: u8,
    backing: Backing,
}

impl Block {
    fn next_block(&self) -> Option<NonNull<Block>> {
        // Relaxed: a list's link is read by the list's one owner; a block
        // that crossed threads was published by the return list's edge.
        NonNull::new(self.next.load(Ordering::Relaxed) as *mut Block)
    }

    fn link_to(&self, next: Option<NonNull<Block>>) {
        let next = next.map_or(0, |b| b.as_ptr() as usize);
        // Relaxed: see `next_block`.
        self.next.store(next, Ordering::Relaxed);
    }
}

/// Where a control block keeps a guard of type `G`: its tail.
fn guard_slot<G>(block: NonNull<Block>) -> *mut G {
    block.as_ptr().cast::<u8>().wrapping_add(HEADER).cast()
}

/// Drop the guard of type `G` in `block`'s tail.
///
/// # Safety
///
/// The tail holds a live `G` (put there by [`SfmAlloc::from_extern`]),
/// dropped no other time.
unsafe fn drop_guard<G>(block: NonNull<Block>) {
    // SAFETY: (the caller's) a live, aligned `G`.
    unsafe { guard_slot::<G>(block).drop_in_place() };
}

/// Write a fresh header into a free block and return its first handle.
///
/// # Safety
///
/// `block` is free — no handle names it and it is on no list — and at
/// least [`HEADER`] bytes; a heap block also holds `capacity` bytes after
/// the header.
unsafe fn init(
    block: NonNull<Block>,
    class: u8,
    data: NonNull<u8>,
    capacity: usize,
    born_ns: u64,
    backing: Backing,
) -> SfmAlloc {
    // SAFETY: (the caller's) the block is this thread's alone; a free
    // block's old header owns nothing (its backing is `Heap`), so it is
    // overwritten without a drop.
    unsafe {
        block.as_ptr().write(Block {
            refs: AtomicU32::new(1),
            objs: AtomicU32::new(0),
            next: AtomicUsize::new(0),
            data,
            capacity,
            born_ns: AtomicU64::new(born_ns),
            partition: home_partition(),
            class,
            backing,
        })
    };
    SfmAlloc { block }
}

/// Give a free block back to the global allocator; returns its size.
///
/// # Safety
///
/// `block` is free (no handle names it, it is on no list) and was
/// allocated by [`take_block`].
unsafe fn free_block(block: NonNull<Block>) -> usize {
    // SAFETY: (the caller's) a free block is owned by this thread.
    let (class, capacity) = unsafe { (block.as_ref().class, block.as_ref().capacity) };
    // `None` is unreachable (the layout was built at allocation); leaking
    // then beats a panic on a drop path.
    let Some(layout) = block_layout(class, HEADER + capacity) else {
        return 0;
    };
    // SAFETY: allocated with exactly this layout, freed once.
    unsafe { dealloc(block.as_ptr().cast(), layout) };
    layout.size()
}

/// Give a kept block back to the global allocator, a large one leaving the
/// cap; returns its size.
///
/// # Safety
///
/// As [`free_block`], and the block was kept: on a list, counted if large.
unsafe fn free_kept(block: NonNull<Block>) -> usize {
    // SAFETY: (the caller's) free and the caller's.
    let class = unsafe { block.as_ref() }.class;
    if is_large(class) {
        // SAFETY: as above.
        uncharge(class, unsafe { charged_bytes(block) });
    }
    // SAFETY: as above.
    unsafe { free_block(block) }
}

/// A chain taken off a list, yielded block by block. Each block's link is
/// read before the block is yielded, because the consumer may free it.
struct Taken(Option<NonNull<Block>>);

impl Iterator for Taken {
    type Item = NonNull<Block>;

    fn next(&mut self) -> Option<NonNull<Block>> {
        let block = self.0?;
        // SAFETY: a taken chain's blocks are free and owned by the taker.
        self.0 = unsafe { block.as_ref() }.next_block();
        Some(block)
    }
}

/// Free blocks linked first to last, on their way onto a return list.
#[derive(Default)]
struct Chain {
    first: Option<NonNull<Block>>,
    last: Option<NonNull<Block>>,
}

impl Chain {
    /// Put a free block owned by the caller at the front.
    fn link(&mut self, block: NonNull<Block>) {
        // SAFETY: the block is free and the caller's.
        unsafe { block.as_ref() }.link_to(self.first);
        self.last.get_or_insert(block);
        self.first = Some(block);
    }

    fn hand_to(self, list: &ReturnList) {
        if let (Some(first), Some(last)) = (self.first, self.last) {
            list.push(first, last);
        }
    }
}

/// A partition's return list: a stack any thread pushes onto with a CAS and
/// the owning side empties whole with one `swap`. Nothing is ever popped
/// one by one, so a block that comes back while a push is retrying cannot
/// be mistaken for the head it replaced.
#[repr(align(128))]
struct ReturnList {
    /// Address of the first block, 0 when empty.
    head: AtomicUsize,
}

impl ReturnList {
    const fn new() -> ReturnList {
        ReturnList {
            head: AtomicUsize::new(0),
        }
    }

    /// Push the chain `first ..= last`, linked through `next` and owned by
    /// the caller.
    fn push(&self, first: NonNull<Block>, last: NonNull<Block>) {
        // SAFETY: the chain is the caller's until the CAS below lands.
        let last = unsafe { last.as_ref() };
        // Relaxed: only a guess for the CAS, which re-reads on failure.
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            last.link_to(NonNull::new(head as *mut Block));
            // Release: the chain's links and headers are visible to the
            // thread whose Acquire swap in `take` empties the list.
            match self.head.compare_exchange_weak(
                head,
                first.as_ptr() as usize,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(now) => head = now,
            }
        }
    }

    /// Everything pushed so far, in one swap.
    fn take(&self) -> Taken {
        // Relaxed: a peek that spares the swap's cache-line write when
        // nothing came home; a push it misses waits for the next take.
        if self.head.load(Ordering::Relaxed) == 0 {
            return Taken(None);
        }
        // Acquire: pairs with the Release CAS of every push taken.
        Taken(NonNull::new(
            self.head.swap(0, Ordering::Acquire) as *mut Block
        ))
    }

    /// The seeded mutant of the model suite: `take` with the swap split
    /// into a load and a store, which loses a push landing in between.
    #[cfg(rossf_model)]
    fn take_racy(&self) -> Taken {
        // Acquire/Release: as `take` and `push`; the bug is the gap.
        let head = self.head.load(Ordering::Acquire);
        self.head.store(0, Ordering::Release);
        Taken(NonNull::new(head as *mut Block))
    }
}

/// One return list per partition of the record table.
static RETURNS: [ReturnList; PARTITIONS] = [const { ReturnList::new() }; PARTITIONS];

/// One class's free list on one thread.
#[derive(Clone, Copy)]
struct FreeList {
    head: Option<NonNull<Block>>,
    len: usize,
}

/// A thread's free lists, one per class. Every block on them is of the
/// thread's home partition.
struct Cache {
    lists: [FreeList; CLASSES],
}

thread_local! {
    static CACHE: RefCell<Cache> = const {
        RefCell::new(Cache {
            lists: [FreeList { head: None, len: 0 }; CLASSES],
        })
    };
}

impl Cache {
    /// A free block of `class`: from its list, refilled from the
    /// partition's return list when the list is empty.
    fn pop(&mut self, class: u8) -> Option<NonNull<Block>> {
        if self.lists[class as usize].len == 0 {
            for block in RETURNS[home_partition() as usize].take() {
                self.put(block, true);
            }
        }
        let list = &mut self.lists[class as usize];
        let block = list.head?;
        // SAFETY: the block is on this thread's list, so free and its own.
        list.head = unsafe { block.as_ref() }.next_block();
        list.len -= 1;
        if is_large(class) {
            // SAFETY: as above.
            uncharge(class, unsafe { charged_bytes(block) });
        }
        Some(block)
    }

    /// Keep a free block of this thread's partition if there is room, else
    /// free it: room on this thread's list for a small class, room under
    /// the process's bounds for a large one. `charged`: a large block
    /// already counts as kept.
    fn put(&mut self, block: NonNull<Block>, charged: bool) {
        // SAFETY: the block is free and the caller's.
        let class = unsafe { block.as_ref() }.class;
        let list = &mut self.lists[class as usize];
        let room = if is_large(class) {
            // SAFETY: as above.
            charged || charge(class, unsafe { charged_bytes(block) })
        } else {
            list.len < SMALL_CLASS_BYTES / class_bytes(class)
        };
        if !room {
            // SAFETY: free and the caller's, and not counted.
            unsafe { free_block(block) };
            return;
        }
        // SAFETY: as above.
        unsafe { block.as_ref() }.link_to(list.head);
        list.head = Some(block);
        list.len += 1;
    }

    /// Every block on the lists, which are left empty.
    fn take_all(&mut self) -> impl Iterator<Item = NonNull<Block>> + '_ {
        self.lists.iter_mut().flat_map(|list| {
            list.len = 0;
            Taken(list.head.take())
        })
    }
}

/// Arrange for the calling thread's cache to be dropped when the thread
/// exits, and say whether it will be: `false` once the thread's cache has
/// been torn down. The drop is what gives the thread's partition back.
pub(crate) fn drop_cache_at_exit() -> bool {
    CACHE.try_with(|_| ()).is_ok()
}

impl Drop for Cache {
    /// The thread is exiting: its small blocks go home to its partition's
    /// return list, for the partition's next thread, and then the partition
    /// itself is given up. Its large blocks go back to the global allocator:
    /// parked where no thread may ask for them again, they would hold the
    /// process-wide cap.
    fn drop(&mut self) {
        let mut chain = Chain::default();
        for block in self.take_all() {
            // SAFETY: taken off this thread's lists, so free and its own.
            if is_large(unsafe { block.as_ref() }.class) {
                // SAFETY: as above.
                unsafe { free_kept(block) };
            } else {
                chain.link(block);
            }
        }
        chain.hand_to(&RETURNS[home_partition() as usize]);
        leave_home();
    }
}

/// A free block of at least `bytes` bytes and its class: from this
/// thread's list for the class, else from the global allocator.
fn take_block(bytes: usize) -> (NonNull<Block>, u8) {
    let class = class_of(bytes);
    if class != UNCACHED {
        let cached = CACHE.try_with(|cache| cache.try_borrow_mut().ok()?.pop(class));
        if let Ok(Some(block)) = cached {
            return (block, class);
        }
    }
    let layout = block_layout(class, bytes).expect("invalid SFM allocation layout");
    // SAFETY: the layout has nonzero size (at least MIN_BLOCK bytes).
    let raw = unsafe { alloc(layout) };
    match NonNull::new(raw.cast::<Block>()) {
        Some(block) => (block, class),
        None => handle_alloc_error(layout),
    }
}

/// Send a free block home: onto this thread's list when the thread is of
/// the block's partition, else onto the partition's return list.
fn recycle(block: NonNull<Block>) {
    // SAFETY: the last handle is gone; the block is the caller's.
    let (class, partition) = unsafe { (block.as_ref().class, block.as_ref().partition) };
    if class == UNCACHED {
        // SAFETY: free and the caller's; an uncached block is never kept.
        unsafe { free_block(block) };
        return;
    }
    if partition == home_partition() {
        let kept = CACHE.try_with(|cache| match cache.try_borrow_mut() {
            Ok(mut cache) => {
                cache.put(block, false);
                true
            }
            Err(_) => false,
        });
        if kept == Ok(true) {
            return;
        }
    }
    // Another partition's block — or this thread's, freed while the thread
    // exits: home by the return list.
    // SAFETY: as above.
    if is_large(class) && !charge(class, unsafe { charged_bytes(block) }) {
        // SAFETY: free and the caller's; not charged.
        unsafe { free_block(block) };
        return;
    }
    RETURNS[partition as usize].push(block, block);
}

/// What [`drain_alloc_pool`] gave back to the global allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainedPool {
    /// Blocks freed.
    pub blocks: usize,
    /// Their bytes, headers included.
    pub bytes: usize,
}

/// Free every block waiting on a return list, and every block on the
/// calling thread's own lists, back to the global allocator. Other
/// threads' lists are theirs: each goes home when its thread exits.
///
/// Benchmark harnesses call this between experiment cells so one message
/// family's cached blocks cannot perturb the allocator behaviour another
/// family sees (heap layout is shared process state).
pub fn drain_alloc_pool() -> DrainedPool {
    let mut drained = DrainedPool::default();
    let mut free = |block| {
        drained.blocks += 1;
        // SAFETY: taken off a list, so free and ours alone.
        drained.bytes += unsafe { free_kept(block) };
    };
    for list in &RETURNS {
        list.take().for_each(&mut free);
    }
    let _ = CACHE.try_with(|cache| {
        if let Ok(mut cache) = cache.try_borrow_mut() {
            cache.take_all().for_each(&mut free);
        }
    });
    drained
}

/// The birth stamp of a block handed out now.
fn birth_stamp() -> u64 {
    if rossf_trace::tracer().armed() {
        rossf_trace::now_nanos()
    } else {
        0
    }
}

/// A buffer pointer: one reference to a block of 8-byte-aligned bytes of
/// fixed capacity. Cloning it counts one more reference in the block's
/// header; the block goes home when the last one drops.
///
/// The capacity never changes after construction — this is the paper's rule
/// that a message is allocated once at the largest size its type permits, so
/// that field addresses remain stable while the whole message grows.
///
/// Contents start **uninitialized** (like C++ `operator new` in the paper —
/// zeroing a multi-megabyte `max_size` region per message would dwarf the
/// serialization cost being eliminated). The SFM discipline guarantees every
/// byte inside the *whole message* is written before it is read: the owner
/// zeroes the skeleton at birth, field growth writes each appended region in
/// full, and the manager zeroes alignment gaps (see `MessageManager::expand`).
#[repr(transparent)]
pub struct SfmAlloc {
    block: NonNull<Block>,
}

// SAFETY: the header's shared state is atomic; the bytes are read through
// `&self` and written only under the aliasing discipline described on
// `as_ptr`; a guard is never shared, only dropped — on whichever thread
// drops the last pointer — and is `Send`.
unsafe impl Send for SfmAlloc {}
unsafe impl Sync for SfmAlloc {}

impl SfmAlloc {
    /// Allocate `capacity` uninitialized bytes aligned to
    /// [`SFM_ALLOC_ALIGN`].
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 (a message always has a nonempty skeleton)
    /// or on allocation failure.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "SFM allocation must be nonempty");
        let bytes = HEADER
            .checked_add(capacity)
            .expect("invalid SFM allocation layout");
        let (block, class) = take_block(bytes);
        // SAFETY: the block holds HEADER + capacity bytes, so its bytes
        // start in bounds and are non-null.
        let data = unsafe { NonNull::new_unchecked(block.as_ptr().cast::<u8>().add(HEADER)) };
        // SAFETY: a free block of HEADER + capacity bytes from take_block.
        unsafe { init(block, class, data, capacity, birth_stamp(), Backing::Heap) }
    }

    /// Wrap an externally owned region (typically a shared-memory mapping)
    /// as an `SfmAlloc` without copying. `guard` is dropped exactly once
    /// when the last clone drops — it should release whatever keeps the
    /// region alive (a mapping handle, a cross-process reference count).
    /// The region never enters a cache; only its control block does, and
    /// the guard lives in that block's tail when it fits (a few words; a
    /// larger guard is boxed), so wrapping a region allocates nothing.
    /// `born_ns` of the result is 0: adopted frames do not re-run the
    /// `alloc` stage.
    ///
    /// # Safety
    ///
    /// * `ptr` must be non-null, aligned to [`SFM_ALLOC_ALIGN`], and valid
    ///   for reads of `capacity` bytes for as long as `guard` lives.
    /// * The region must not be written through other aliases while any
    ///   clone of the returned allocation is alive (read-only mappings
    ///   satisfy this trivially).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub unsafe fn from_extern<G: Send + 'static>(ptr: *mut u8, capacity: usize, guard: G) -> Self {
        assert!(capacity > 0, "SFM allocation must be nonempty");
        let data = NonNull::new(ptr).expect("extern region must be non-null");
        debug_assert_eq!(data.as_ptr() as usize % SFM_ALLOC_ALIGN, 0);
        if mem::size_of::<G>() > GUARD_ROOM || mem::align_of::<G>() > BLOCK_ALIGN {
            return Self::guarded(data, capacity, Box::new(guard));
        }
        Self::guarded(data, capacity, guard)
    }

    /// A control block over `data` with `guard`, which fits, in its tail.
    fn guarded<G: Send + 'static>(data: NonNull<u8>, capacity: usize, guard: G) -> Self {
        let alloc = Self::control(data, capacity, 0, Backing::Extern(drop_guard::<G>));
        // SAFETY: a control block's tail is free, and a `G` fits there,
        // aligned (HEADER is a multiple of BLOCK_ALIGN, checked by the
        // caller); no one else holds the handle yet.
        unsafe { guard_slot::<G>(alloc.block).write(guard) };
        alloc
    }

    /// A control block: a header of the smallest class over bytes that
    /// live elsewhere.
    fn control(data: NonNull<u8>, capacity: usize, born_ns: u64, backing: Backing) -> Self {
        let (block, class) = take_block(HEADER);
        // SAFETY: a free block of at least HEADER bytes from take_block; a
        // control block's bytes are `data`, not the block's own.
        unsafe { init(block, class, data, capacity, born_ns, backing) }
    }

    /// A view of these bytes for a handle group that does not own their
    /// record: a control block holding one buffer pointer to this block.
    pub(crate) fn view(&self) -> SfmAlloc {
        let header = self.header();
        Self::control(
            header.data,
            header.capacity,
            self.born_ns(),
            Backing::View(self.clone()),
        )
    }

    /// The block whose bytes these are: the viewed one for a view (views
    /// are made of published buffers only, which are never views).
    pub(crate) fn viewed(&self) -> &SfmAlloc {
        match &self.header().backing {
            Backing::View(of) => of,
            _ => self,
        }
    }

    /// Whether this allocation is a view that owns no record.
    pub(crate) fn is_view(&self) -> bool {
        matches!(self.header().backing, Backing::View(_))
    }

    #[inline]
    fn header(&self) -> &Block {
        // SAFETY: the block lives while this handle does.
        unsafe { self.block.as_ref() }
    }

    /// Whether this allocation wraps an externally owned region (adopted
    /// through [`SfmAlloc::from_extern`]) rather than heap memory.
    #[inline]
    pub fn is_extern(&self) -> bool {
        matches!(self.viewed().header().backing, Backing::Extern(_))
    }

    /// Re-stamp the birth timestamp. [`SfmAlloc::from_extern`] always sets
    /// it to 0 (reader-side adopted frames do not re-run the `alloc`
    /// stage), but a *loaned* publisher-side allocation is a genuine birth:
    /// the loan's segment acquisition is its `alloc` span, and the loaning
    /// code stamps it here before sharing the allocation.
    #[inline]
    pub fn set_born_ns(&mut self, born_ns: u64) {
        // Relaxed: stamped before the handle is shared, which publishes it.
        self.header().born_ns.store(born_ns, Ordering::Relaxed);
    }

    /// Zero the first `n` bytes (used to initialize skeletons; an all-zero
    /// skeleton is the valid "empty" state of every SFM message type).
    ///
    /// # Panics
    ///
    /// Panics if `n > capacity`.
    pub fn zero_prefix(&self, n: usize) {
        assert!(n <= self.capacity());
        // SAFETY: in-bounds (asserted); callers hold the unique handle at
        // initialization time.
        unsafe { std::ptr::write_bytes(self.as_ptr(), 0, n) };
    }

    /// Base address of the region.
    #[inline]
    pub fn base(&self) -> usize {
        self.as_ptr() as usize
    }

    /// Capacity in bytes (fixed for the lifetime of the allocation).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.header().capacity
    }

    /// When this allocation was handed out, on the
    /// [`rossf_trace::now_nanos`] clock — 0 if tracing was not armed at
    /// allocation time. Anchors the `alloc` stage span.
    #[inline]
    pub fn born_ns(&self) -> u64 {
        // Relaxed: written before the handle was shared (see set_born_ns).
        self.header().born_ns.load(Ordering::Relaxed)
    }

    /// The record-table partition stamped at construction.
    #[inline]
    pub(crate) fn partition(&self) -> u8 {
        self.header().partition
    }

    /// Buffer pointers alive to this block, this one included.
    pub(crate) fn refs(&self) -> usize {
        // Acquire: as `Arc::strong_count`.
        self.header().refs.load(Ordering::Acquire) as usize
    }

    /// Add an object pointer to the block's handle group.
    pub(crate) fn enter_object(&self) {
        // Relaxed: made from a live member of the group (or its founding
        // buffer pointer), which keeps the block alive — Arc's argument.
        if self.header().objs.fetch_add(1, Ordering::Relaxed) > MAX_COUNT {
            std::process::abort();
        }
    }

    /// Drop an object pointer from the group; `true` when it was the last,
    /// whose holder then releases the group's record and buffer pointer.
    pub(crate) fn leave_object(&self) -> bool {
        // Release: this member's reads happen before the last member's
        // release of the record and bytes.
        if self.header().objs.fetch_sub(1, Ordering::Release) != 1 {
            return false;
        }
        // Acquire: every other member's reads happen before what follows.
        fence(Ordering::Acquire);
        true
    }

    /// Object pointers alive in the block's handle group.
    pub(crate) fn objects(&self) -> usize {
        // Acquire: as `Arc::strong_count`.
        self.header().objs.load(Ordering::Acquire) as usize
    }

    /// Raw base pointer.
    ///
    /// Writes through this pointer must not race with reads of the same
    /// bytes. The SFM discipline guarantees this: a region is written at
    /// most once (one-shot assignment) *before* the message is published,
    /// and only read afterwards.
    #[inline]
    pub fn as_ptr(&self) -> *mut u8 {
        self.header().data.as_ptr()
    }

    /// View the first `len` bytes as a slice.
    ///
    /// Callers must only pass a `len` within the *whole message* (the
    /// initialized prefix maintained by the manager's append-only growth).
    ///
    /// # Panics
    ///
    /// Panics if `len > capacity`.
    #[inline]
    pub fn slice(&self, len: usize) -> &[u8] {
        assert!(len <= self.capacity());
        // SAFETY: in-bounds (asserted); the SFM discipline keeps [0, used)
        // fully initialized (skeleton zeroed at registration, appended
        // regions written in full, alignment gaps zeroed by expand).
        unsafe { std::slice::from_raw_parts(self.as_ptr(), len) }
    }
}

impl Clone for SfmAlloc {
    /// One more buffer pointer to the same block.
    fn clone(&self) -> Self {
        // Relaxed: made from a live reference, which keeps the block alive
        // — Arc's argument.
        if self.header().refs.fetch_add(1, Ordering::Relaxed) > MAX_COUNT {
            std::process::abort();
        }
        SfmAlloc { block: self.block }
    }
}

impl Drop for SfmAlloc {
    fn drop(&mut self) {
        // Release: this handle's use of the bytes happens before the
        // block's reuse.
        if self.header().refs.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // Acquire: every other handle's use happens before what follows.
        fence(Ordering::Acquire);
        // SAFETY: the last buffer pointer is gone, so the block is this
        // thread's alone; its backing is taken out, leaving `Heap` (which
        // owns nothing), before the block goes home.
        let backing = unsafe { mem::replace(&mut (*self.block.as_ptr()).backing, Backing::Heap) };
        match backing {
            // SAFETY: an extern block's tail holds its live guard, dropped
            // here once — which releases the external region.
            Backing::Extern(drop_guard) => unsafe { drop_guard(self.block) },
            // A view drops its buffer pointer to the viewed block.
            other => drop(other),
        }
        recycle(self.block);
    }
}

impl std::fmt::Debug for SfmAlloc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SfmAlloc")
            .field("base", &format_args!("{:#x}", self.base()))
            .field("capacity", &self.capacity())
            .finish()
    }
}

/// The return list and its blocks, opened for the model-checked scenarios
/// in `tests/model.rs` (built only under `--cfg rossf_model`).
#[cfg(rossf_model)]
pub mod model {
    use super::{block_layout, free_block, init, Backing, Block, Chain, Taken, MIN_BLOCK};
    use std::ptr::NonNull;

    /// A free block, owned by whoever holds it. Drawn from the global
    /// allocator, not a thread's lists: an exploration re-runs its scenario
    /// many times, and must not carry blocks from one run to the next.
    pub struct FreeBlock(NonNull<Block>);

    // SAFETY: a free block has exactly one owner, which may be any thread.
    unsafe impl Send for FreeBlock {}

    impl FreeBlock {
        /// A fresh block of the smallest class.
        #[allow(clippy::new_without_default)]
        pub fn new() -> FreeBlock {
            let layout = block_layout(0, MIN_BLOCK).expect("the smallest class has a layout");
            // SAFETY: nonzero size.
            let block = NonNull::new(unsafe { std::alloc::alloc(layout) }.cast::<Block>())
                .unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
            // SAFETY: fresh and ours; a control-block header (no bytes of
            // its own) is all a free block needs.
            let handle = unsafe { init(block, 0, NonNull::dangling(), 1, 0, Backing::Heap) };
            std::mem::forget(handle);
            FreeBlock(block)
        }

        /// The block's address: its identity in the scenarios' accounting.
        pub fn addr(&self) -> usize {
            self.0.as_ptr() as usize
        }

        fn into_raw(self) -> NonNull<Block> {
            let block = self.0;
            std::mem::forget(self);
            block
        }
    }

    impl Drop for FreeBlock {
        fn drop(&mut self) {
            // SAFETY: free and owned by this handle.
            unsafe { free_block(self.0) };
        }
    }

    /// A partition's return list.
    pub struct ReturnList {
        list: super::ReturnList,
        racy_take: bool,
    }

    impl ReturnList {
        /// The list as the allocator has it.
        #[allow(clippy::new_without_default)]
        pub fn new() -> ReturnList {
            ReturnList {
                list: super::ReturnList::new(),
                racy_take: false,
            }
        }

        /// The seeded mutant: a take that loads the head and then stores
        /// an empty list, instead of one swap.
        pub fn with_racy_take() -> ReturnList {
            ReturnList {
                racy_take: true,
                ..ReturnList::new()
            }
        }

        /// A free on a foreign thread: the block goes home with one CAS.
        pub fn push(&self, block: FreeBlock) {
            let block = block.into_raw();
            self.list.push(block, block);
        }

        /// A thread's exit: its blocks go home as one chain.
        pub fn hand_back(&self, blocks: Vec<FreeBlock>) {
            let mut chain = Chain::default();
            for block in blocks {
                chain.link(block.into_raw());
            }
            chain.hand_to(&self.list);
        }

        /// The owning side's drain: everything pushed so far.
        pub fn take(&self) -> Vec<FreeBlock> {
            let taken: Taken = if self.racy_take {
                self.list.take_racy()
            } else {
                self.list.take()
            };
            taken.map(FreeBlock).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_aligned_and_prefix_zeroable() {
        let a = SfmAlloc::new(1024);
        assert_eq!(a.capacity(), 1024);
        assert_eq!(a.base() % SFM_ALLOC_ALIGN, 0);
        a.zero_prefix(64);
        assert!(a.slice(64).iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic]
    fn zero_prefix_beyond_capacity_panics() {
        let a = SfmAlloc::new(8);
        a.zero_prefix(9);
    }

    #[test]
    fn slice_len_zero_is_empty() {
        let a = SfmAlloc::new(16);
        assert!(a.slice(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn zero_capacity_panics() {
        let _ = SfmAlloc::new(0);
    }

    #[test]
    #[should_panic]
    fn oversized_slice_panics() {
        let a = SfmAlloc::new(8);
        let _ = a.slice(9);
    }

    #[test]
    fn debug_is_nonempty() {
        let a = SfmAlloc::new(8);
        assert!(format!("{a:?}").contains("SfmAlloc"));
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SfmAlloc>();
    }

    #[test]
    fn classes_cover_every_size_in_order() {
        assert_eq!(class_of(1), 0);
        assert_eq!(class_of(MIN_BLOCK), 0);
        assert_eq!(class_of(LARGE_BYTE_CAP + 1), UNCACHED);
        assert_eq!(class_of(LARGE_BYTE_CAP) as usize, CLASSES - 1);
        let mut last = 0;
        for bytes in (1..4096).chain((12..=27).map(|p| 1usize << p)) {
            let class = class_of(bytes);
            assert!(class_bytes(class) >= bytes, "{bytes} fits its class");
            assert!(class >= last, "classes grow with the size");
            if class > 0 {
                assert!(class_bytes(class - 1) < bytes, "{bytes}: the smallest fit");
            }
            last = class;
        }
    }

    #[test]
    fn a_freed_block_is_the_next_allocation_of_its_class() {
        assert_eq!(class_of(HEADER + 100), class_of(HEADER + 99));
        let a = SfmAlloc::new(100);
        let base = a.base();
        drop(a);
        let b = SfmAlloc::new(99);
        assert_eq!(b.base(), base, "same block, same class, same thread");
        assert_eq!(b.capacity(), 99, "capacity is the request, not the class");
    }

    #[test]
    fn clones_share_the_block_and_the_last_frees_it() {
        let a = SfmAlloc::new(64);
        let b = a.clone();
        assert_eq!((a.refs(), a.base()), (2, b.base()));
        drop(a);
        assert_eq!(b.refs(), 1);
    }

    #[test]
    fn pool_recycles_large_allocations() {
        // A size class no other test uses.
        let size = (9 << 20) + 8;
        let a = SfmAlloc::new(size);
        let base = a.base();
        drop(a); // kept by this thread
        let b = SfmAlloc::new(size);
        assert_eq!(b.base(), base, "same region recycled");
        let c = SfmAlloc::new(size);
        assert_ne!(c.base(), base, "the list was empty again");
    }

    #[test]
    fn a_view_holds_the_viewed_block_and_shares_its_bytes() {
        let a = SfmAlloc::new(64);
        let v = a.view();
        assert_eq!((v.base(), v.capacity()), (a.base(), 64));
        assert!(v.is_view() && !a.is_view());
        assert_eq!(a.refs(), 2, "the view holds one buffer pointer");
        assert_eq!(v.viewed().base(), a.base());
        drop(v);
        assert_eq!(a.refs(), 1);
    }

    #[test]
    fn extern_region_released_through_guard_never_pooled() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        // The Vec is held only to keep the extern region alive for the
        // allocation's lifetime.
        struct Guard(Arc<AtomicUsize>, #[allow(dead_code)] Vec<u64>);
        impl Drop for Guard {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }

        let drops = Arc::new(AtomicUsize::new(0));
        // Large enough that a heap block of its size would be cached as a
        // large block; u64 storage gives the 8-byte alignment from_extern
        // expects.
        let mut words = vec![0x0707_0707_0707_0707u64; LARGE_BLOCK / 8];
        let ptr = words.as_mut_ptr() as *mut u8;
        let guard = Guard(Arc::clone(&drops), words);
        let a = unsafe { SfmAlloc::from_extern(ptr, LARGE_BLOCK, guard) };
        assert!(a.is_extern());
        assert!(a.view().is_extern(), "a view sees through to the region");
        assert_eq!(a.born_ns(), 0);
        assert_eq!(a.slice(4), &[7, 7, 7, 7]);
        drop(a);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "guard dropped exactly once"
        );
        // A fresh allocation of the same size must not resurrect the
        // extern pointer from a cache.
        let b = SfmAlloc::new(LARGE_BLOCK);
        assert!(!b.is_extern());
        assert_ne!(b.base(), ptr as usize);
    }

    #[test]
    fn many_allocations_distinct() {
        let allocs: Vec<_> = (0..64).map(|_| SfmAlloc::new(64)).collect();
        let mut bases: Vec<_> = allocs.iter().map(|a| a.base()).collect();
        bases.sort_unstable();
        bases.dedup();
        assert_eq!(bases.len(), 64);
    }
}
