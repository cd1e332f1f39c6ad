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
//! asked for — on any thread's lists or on their way home: the byte cap of
//! the process-wide pool this replaces, which served large blocks only, and
//! twice its count. A large block that would pass a bound goes back to the
//! global allocator, and so do an exiting thread's large blocks; a small
//! one goes to its arena's spare list (below). The count covers
//! the image blocks a pipeline keeps live at once: the Fig. 17 SLAM graph
//! holds more than 4 of one class between its input, its node's queue and
//! its debug output, so at 4 one in a few dozen frames sent a block back
//! to the allocator and faulted a fresh mapping in for the next; at 8 it
//! keeps them all.
//!
//! A region that is not the heap's — a shared-memory mapping, a bag mmap, a
//! loaned segment — never enters a cache: only its header, a *control
//! block* of the smallest class, does.
//!
//! # Small blocks live in one arena, and their headers are records
//!
//! Every block's header can hold its message's record for the message
//! manager — owner, state, size and type name ([`HeaderRecord`]). A small
//! block (below [`LARGE_BLOCK`]) is carved from an arena reserved once, on
//! first use: [`REGION`] bytes per small class, each region cut into blocks
//! of its class from its start. An address inside the arena names its
//! block with a subtraction, a shift and a divide — mimalloc's segment →
//! page → block arithmetic — so the manager finds a small message's record
//! from any field's address without a table. The arena's memory is never
//! given back, so a header stays readable whatever becomes of its block;
//! the arena is zeroed address space, and only the blocks carved from it
//! are ever touched. A small block no thread keeps — past a thread's
//! bound, or drained — waits on its class's spare list for the next thread
//! whose lists run dry, and its memory is not returned to the OS: a small
//! class keeps resident the most blocks it ever had in use at once, at
//! most its region. A class whose region is full takes its blocks from
//! the global allocator, and the manager finds their records through its
//! table, as it finds an extern region's or a large block's.

use crate::manager::{home_partition, leave_home, MessageState, PARTITIONS};
use crate::sync::{fence, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use parking_lot::Mutex;
use std::alloc::{alloc, alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::cell::RefCell;
use std::mem::{self, ManuallyDrop};
use std::ptr::{addr_of_mut, NonNull};
use std::sync::OnceLock;

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
/// Large blocks the process keeps per class. The one retention rule for
/// message memory: `rossf_shm` keeps as many idle segments per capacity.
pub const LARGE_PER_CLASS: u32 = 8;
/// Bytes of large blocks the process keeps, cached or on their way home;
/// also the largest block that is cached at all. `rossf_shm`'s idle
/// segments are bounded by the same number of bytes, their own.
pub const LARGE_BYTE_CAP: usize = 128 << 20;
/// Bytes one thread keeps of one small class.
const SMALL_CLASS_BYTES: usize = 256 << 10;
/// [`MIN_BLOCK`], then four classes per doubling up to [`LARGE_BYTE_CAP`].
const CLASSES: usize =
    1 + 4 * (LARGE_BYTE_CAP.trailing_zeros() - MIN_BLOCK.trailing_zeros()) as usize;
/// The class of a block too large to cache.
const UNCACHED: u8 = u8::MAX;
/// Classes below [`LARGE_BLOCK`], each with a region of the arena.
const SMALL_CLASSES: usize = class_of(LARGE_BLOCK) as usize;
/// Arena bytes per small class: 131 072 blocks of the smallest class, 292
/// of the largest small one, 576 MiB of address space in all.
const REGION: usize = 16 << 20;

const _: () = assert!(HEADER == BLOCK_ALIGN && HEADER < MIN_BLOCK && CLASSES < UNCACHED as usize);

/// The class of a block of `bytes` bytes, or [`UNCACHED`].
const fn class_of(bytes: usize) -> u8 {
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
const fn class_bytes(class: u8) -> usize {
    match class as usize {
        0 => MIN_BLOCK,
        c => {
            let p = MIN_BLOCK.trailing_zeros() as usize + (c - 1) / 4;
            (5 + (c - 1) % 4) << (p - 2)
        }
    }
}

/// The small blocks' address space: one region per small class.
struct Arena {
    base: usize,
    /// Blocks carved from each class's region so far; past the region's
    /// room once it is full.
    carved: [AtomicUsize; SMALL_CLASSES],
}

/// `None` once reserving the arena has failed.
static ARENA: OnceLock<Option<Arena>> = OnceLock::new();

impl Arena {
    fn reserve() -> Option<Arena> {
        // Aligned by hand: an over-aligned zeroed request is zeroed by a
        // write to every byte.
        let layout = Layout::from_size_align(SMALL_CLASSES * REGION + BLOCK_ALIGN, 16).ok()?;
        // SAFETY: nonzero size. A request this large is a fresh mapping,
        // which the system allocator zeroes without touching a page.
        let raw = unsafe { alloc_zeroed(layout) };
        (!raw.is_null()).then(|| Arena {
            base: crate::align_up(raw as usize, BLOCK_ALIGN),
            carved: [const { AtomicUsize::new(0) }; SMALL_CLASSES],
        })
    }

    fn get() -> Option<&'static Arena> {
        ARENA.get()?.as_ref()
    }

    /// The block of `class`'s region at `slot`.
    fn block(&self, class: usize, slot: usize) -> NonNull<Block> {
        let addr = self.base + class * REGION + slot * class_bytes(class as u8);
        // SAFETY: inside the arena, whose base is not null.
        unsafe { NonNull::new_unchecked(addr as *mut Block) }
    }

    fn holds(&self, block: NonNull<Block>) -> bool {
        (block.as_ptr() as usize).wrapping_sub(self.base) < SMALL_CLASSES * REGION
    }
}

/// Small blocks no thread keeps, one list per class: an arena block never
/// goes back to the global allocator. Taken only when a thread's own lists
/// and its partition's return list are dry.
static SPARE: Mutex<[FreeList; SMALL_CLASSES]> = Mutex::new([FreeList::EMPTY; SMALL_CLASSES]);

/// A free small block no thread keeps, else a fresh one from the arena.
fn arena_block(class: u8) -> Option<NonNull<Block>> {
    let class = class as usize;
    if let Some(block) = SPARE.lock().get_mut(class)?.pop() {
        return Some(block);
    }
    let arena = ARENA.get_or_init(Arena::reserve).as_ref()?;
    // Relaxed: a slot is claimed once; the block travels with its claimer.
    let slot = arena.carved[class].fetch_add(1, Ordering::Relaxed);
    (slot < REGION / class_bytes(class as u8)).then(|| arena.block(class, slot))
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
    HEADER + HeaderRecord(block).capacity()
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
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Backing {
    /// The bytes follow the header. A free block's backing is always this.
    Heap,
    /// The bytes belong to someone else. The control block's tail holds
    /// the function that drops the guard releasing them ([`DropGuard`]),
    /// then the guard.
    Extern,
    /// A subscriber's view of another block's bytes: the control block's
    /// tail holds one buffer pointer to it.
    View,
}

/// Drops the guard in an extern block's tail.
// SAFETY: called only by the last buffer pointer's drop, once, on the
// block whose tail `SfmAlloc::guarded` put the guard in.
type DropGuard = unsafe fn(NonNull<Block>);

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
    data: AtomicPtr<u8>,
    /// Bytes the message may use; fixed until the block is freed.
    capacity: AtomicUsize,
    /// When the block was handed out, on the tracing clock (0 when the
    /// tracer was not armed).
    born_ns: AtomicU64,
    /// The record words ([`HeaderRecord`]): the owner and state, the type
    /// name and the whole-message size. Written only atomically; `init`
    /// leaves an arena block's as they are and zeroes the owner word of a
    /// block from the global allocator.
    ///
    /// In an arena block, these, the count, the data pointer, the capacity
    /// and the birth stamp are what a lookup reads: every write to them is
    /// atomic, as a lookup may read them while the block is freed and
    /// handed out again.
    record: AtomicUsize,
    name: AtomicU64,
    used: AtomicU32,
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

/// A control block's tail, where its backing keeps a [`DropGuard`] or a
/// view's buffer pointer.
fn tail<T>(block: NonNull<Block>) -> *mut T {
    block.as_ptr().cast::<u8>().wrapping_add(HEADER).cast()
}

/// Where an extern control block keeps a guard of type `G`: after its
/// [`DropGuard`].
fn guard_offset<G>() -> usize {
    crate::align_up(mem::size_of::<DropGuard>(), mem::align_of::<G>())
}

fn guard_slot<G>(block: NonNull<Block>) -> *mut G {
    tail::<u8>(block).wrapping_add(guard_offset::<G>()).cast()
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
    // SAFETY: (the caller's) the block is this thread's alone, and a free
    // block's old header owns nothing. A lookup reads none of the fields
    // written by pointer.
    unsafe {
        let b = block.as_ptr();
        if Arena::get().is_none_or(|arena| !arena.holds(block)) {
            // Nothing initialised a block from the global allocator, and no
            // lookup reads it before its record is in the table. Zeroed,
            // it holds no record.
            b.write_bytes(0, 1);
        }
        addr_of_mut!((*b).objs).write(AtomicU32::new(0));
        addr_of_mut!((*b).next).write(AtomicUsize::new(0));
        addr_of_mut!((*b).partition).write(home_partition());
        addr_of_mut!((*b).class).write(class);
        addr_of_mut!((*b).backing).write(backing);
        // A lookup may read these words of an arena block at any time
        // (`HeaderRecord`), and its record words, left as they are: zero,
        // as the arena starts and as a released record is cleared.
        // Relaxed: published by the Release store of the count.
        (*b).data.store(data.as_ptr(), Ordering::Relaxed);
        (*b).capacity.store(capacity, Ordering::Relaxed);
        (*b).born_ns.store(born_ns, Ordering::Relaxed);
        // Release: a lookup that takes a count by `clone_live` (Acquire)
        // sees this header whole.
        (*b).refs.store(1, Ordering::Release);
    };
    SfmAlloc { block }
}

/// Give a free block back to the global allocator, or an arena block to
/// its class's spare list; returns its size.
///
/// # Safety
///
/// `block` is free (no handle names it, it is on no list) and was
/// allocated by [`take_block`].
unsafe fn free_block(block: NonNull<Block>) -> usize {
    // SAFETY: (the caller's) a free block is owned by this thread.
    let class = unsafe { block.as_ref() }.class;
    if Arena::get().is_some_and(|arena| arena.holds(block)) {
        SPARE.lock()[class as usize].push(block);
        return class_bytes(class);
    }
    // `None` is unreachable (the layout was built at allocation); leaking
    // then beats a panic on a drop path.
    let Some(layout) = block_layout(class, HEADER + HeaderRecord(block).capacity()) else {
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
        let head = self.head.swap(0, Ordering::Acquire);
        Taken(NonNull::new(head as *mut Block))
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

/// One class's free list.
#[derive(Clone, Copy)]
struct FreeList {
    head: Option<NonNull<Block>>,
    len: usize,
}

// SAFETY: the blocks on a list are free, owned by the list's owner.
unsafe impl Send for FreeList {}

impl FreeList {
    const EMPTY: FreeList = FreeList { head: None, len: 0 };

    /// Put a free block owned by the caller on the list.
    fn push(&mut self, block: NonNull<Block>) {
        // SAFETY: the block is free and the caller's.
        unsafe { block.as_ref() }.link_to(self.head);
        self.head = Some(block);
        self.len += 1;
    }

    fn pop(&mut self) -> Option<NonNull<Block>> {
        let block = self.head?;
        // SAFETY: a block on the list is free and the list owner's.
        self.head = unsafe { block.as_ref() }.next_block();
        self.len -= 1;
        Some(block)
    }
}

/// A thread's free lists, one per class. Every block on them is of the
/// thread's home partition.
struct Cache {
    lists: [FreeList; CLASSES],
}

thread_local! {
    static CACHE: RefCell<Cache> = const {
        RefCell::new(Cache {
            lists: [FreeList::EMPTY; CLASSES],
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
        let block = self.lists[class as usize].pop()?;
        if is_large(class) {
            // SAFETY: off this thread's list, so free and its own.
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
        list.push(block);
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
/// thread's list for the class, else from the arena for a small class,
/// else from the global allocator.
fn take_block(bytes: usize) -> (NonNull<Block>, u8) {
    let class = class_of(bytes);
    if class != UNCACHED {
        let cached = CACHE.try_with(|cache| cache.try_borrow_mut().ok()?.pop(class));
        if let Some(block) = cached.ok().flatten().or_else(|| arena_block(class)) {
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

/// What [`drain_alloc_pool`] gave back: large blocks to the global
/// allocator, small ones to the spare lists of the arena they came from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainedPool {
    /// Blocks freed.
    pub blocks: usize,
    /// Their bytes, headers included.
    pub bytes: usize,
}

/// Free every block waiting on a return list, and every block on the
/// calling thread's own lists: a large block back to the global
/// allocator, a small one to its class's spare list, where any thread's
/// next allocation of the class may take it. Other threads' lists are
/// theirs: each goes home when its thread exits.
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
    /// * The region is not SFM heap memory (no part of an [`SfmAlloc`]'s
    ///   own block): the manager finds a record in the small-block arena
    ///   by arithmetic alone, and never looks for one there in its table.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub unsafe fn from_extern<G: Send + 'static>(ptr: *mut u8, capacity: usize, guard: G) -> Self {
        assert!(capacity > 0, "SFM allocation must be nonempty");
        let data = NonNull::new(ptr).expect("extern region must be non-null");
        debug_assert_eq!(data.as_ptr() as usize % SFM_ALLOC_ALIGN, 0);
        if guard_offset::<G>() + mem::size_of::<G>() > GUARD_ROOM {
            return Self::guarded(data, capacity, Box::new(guard));
        }
        Self::guarded(data, capacity, guard)
    }

    /// A control block over `data` with `guard`, which fits, in its tail.
    fn guarded<G: Send + 'static>(data: NonNull<u8>, capacity: usize, guard: G) -> Self {
        let alloc = Self::control(data, capacity, 0, Backing::Extern);
        // SAFETY: a control block's tail is free, and the drop function and
        // a `G` after it fit there, aligned (HEADER is a multiple of
        // BLOCK_ALIGN, and the caller checked the room); no one else holds
        // the handle yet.
        unsafe {
            tail::<DropGuard>(alloc.block).write(drop_guard::<G>);
            guard_slot::<G>(alloc.block).write(guard);
        }
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
        // SAFETY: a live block's data pointer is not null.
        let data = unsafe { NonNull::new_unchecked(self.as_ptr()) };
        let view = Self::control(data, self.capacity(), self.born_ns(), Backing::View);
        // SAFETY: a control block's tail is free and holds a pointer; no
        // one else holds the view yet.
        unsafe { tail::<SfmAlloc>(view.block).write(self.clone()) };
        view
    }

    /// The block whose bytes these are: the viewed one for a view (views
    /// are made of published buffers only, which are never views).
    pub(crate) fn viewed(&self) -> &SfmAlloc {
        match self.header().backing {
            // SAFETY: a view's tail holds its buffer pointer while it lives.
            Backing::View => unsafe { &*tail::<SfmAlloc>(self.block) },
            _ => self,
        }
    }

    /// Whether this allocation is a view that owns no record.
    pub(crate) fn is_view(&self) -> bool {
        self.header().backing == Backing::View
    }

    /// This block's header as the slot of its message's record.
    pub(crate) fn header_record(&self) -> HeaderRecord {
        HeaderRecord(self.block)
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
        self.viewed().header().backing == Backing::Extern
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
        self.header_record().capacity()
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
        // Relaxed: see `HeaderRecord::start`.
        self.header().data.load(Ordering::Relaxed)
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
        // The last buffer pointer is gone, so the block is this thread's
        // alone; what its tail holds is dropped here, once.
        match self.header().backing {
            // SAFETY: an extern block's tail holds its drop function and its
            // live guard, which releases the external region.
            Backing::Extern => unsafe { tail::<DropGuard>(self.block).read()(self.block) },
            // SAFETY: a view's tail holds its buffer pointer to the viewed
            // block.
            Backing::View => unsafe { tail::<SfmAlloc>(self.block).drop_in_place() },
            Backing::Heap => {}
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

/// Bits of a type name's pointer in the packed name word; its length takes
/// the other 16. User-space addresses on the 64-bit targets this runs on
/// are below 2^48.
const NAME_PTR_BITS: u32 = 48;
/// The owner word's state bit: the record is `Published`.
const PUBLISHED: usize = 1;

/// A block's header seen as the one message record it holds for one
/// manager (DESIGN §4): the manager's identity and the message's state in
/// one word, the type name packed in another, and the whole message's
/// size; the record's buffer pointer is one of the block's counts. The
/// owner word is written last, with `Release`, so whoever sees it sees the
/// rest. A record is written, published and cleared by whoever holds its
/// message. In the arena, the memory is never freed and the words a lookup
/// reads — the record's, the count, the data pointer, the capacity, the
/// birth stamp — are written only atomically, so a lookup may read them in
/// any slot at any time. Read without a count of its own, they may already
/// be the next message's, if the block was released, freed and handed out
/// again meanwhile: a lookup that acts on the block takes a count first
/// ([`HeaderRecord::clone_live`]) and then checks the record again.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct HeaderRecord(NonNull<Block>);

// SAFETY: a pointer to a header whose record words are atomics; the block
// is read only while the record holds it.
unsafe impl Send for HeaderRecord {}

impl HeaderRecord {
    /// The slot of the arena block whose bytes may hold `addr`: a
    /// subtraction, a shift and a divide. The caller checks the owner and
    /// that `addr` lies in the message.
    #[inline]
    pub(crate) fn at(addr: usize) -> Option<HeaderRecord> {
        let arena = Arena::get()?;
        let offset = addr.wrapping_sub(arena.base);
        let class = offset / REGION;
        (class < SMALL_CLASSES).then_some(())?;
        // 32-bit: a region's offsets and block sizes fit, and the divide is
        // several times cheaper than a 64-bit one.
        let bytes = class_bytes(class as u8) as u32;
        let slot = (offset % REGION) as u32 / bytes;
        ((slot + 1) * bytes <= REGION as u32)
            .then(|| HeaderRecord(arena.block(class, slot as usize)))
    }

    /// Every slot carved so far, for whole-manager scans.
    pub(crate) fn all() -> impl Iterator<Item = HeaderRecord> {
        Arena::get().into_iter().flat_map(|arena| {
            (0..SMALL_CLASSES).flat_map(move |class| {
                // Relaxed: a slot not yet written holds zero words.
                let carved = arena.carved[class].load(Ordering::Relaxed);
                let slots = carved.min(REGION / class_bytes(class as u8));
                (0..slots).map(move |slot| HeaderRecord(arena.block(class, slot)))
            })
        })
    }

    /// Whether the arena's arithmetic finds this record from `start`, its
    /// message's first byte: a heap block carved from the arena. Reads no
    /// memory, so it may be asked of a block a racing release freed.
    pub(crate) fn by_arena(&self, start: usize) -> bool {
        start == self.0.as_ptr() as usize + HEADER && Arena::get().is_some_and(|a| a.holds(self.0))
    }

    /// The record's state when `owner` holds it.
    #[inline]
    pub(crate) fn held_by(&self, owner: usize) -> Option<MessageState> {
        // SAFETY: the arena's words are never freed. Acquire: pairs with
        // `write`, so the size and name read after are the record's.
        let word = unsafe { &(*self.0.as_ptr()).record }.load(Ordering::Acquire);
        let states = [MessageState::Allocated, MessageState::Published];
        (word & !PUBLISHED == owner).then_some(states[word & PUBLISHED])
    }

    /// Make this slot `owner`'s record of a message of `used` bytes.
    /// `owner` is nonzero with its state bit clear. A name that does not
    /// pack into a word — 64 KiB long, or above the user address range — is
    /// kept as "?".
    pub(crate) fn write(&self, owner: usize, state: MessageState, used: usize, ty: &'static str) {
        let fits = (ty.as_ptr() as u64) >> NAME_PTR_BITS == 0 && u16::try_from(ty.len()).is_ok();
        let ty = if fits { ty } else { "?" };
        // SAFETY: as in `held_by`.
        let b = unsafe { &*self.0.as_ptr() };
        // Relaxed: published by the Release store of the owner word.
        // An SFM message's offsets are 32-bit, so no message outgrows this.
        let used = u32::try_from(used).expect("an SFM message is under 4 GiB");
        b.used.store(used, Ordering::Relaxed);
        let name = ty.as_ptr() as u64 | (ty.len() as u64) << NAME_PTR_BITS;
        b.name.store(name, Ordering::Relaxed);
        // Release: see `held_by`.
        let state = usize::from(state == MessageState::Published);
        b.record.store(owner | state, Ordering::Release);
    }

    /// Mark the record published; `true` for the one call that did.
    pub(crate) fn publish(&self) -> bool {
        // SAFETY: as in `held_by`.
        let record = unsafe { &(*self.0.as_ptr()).record };
        // Relaxed: a state bit, ordering nothing; the RMW makes exactly
        // one of two racing publishers the first.
        record.load(Ordering::Relaxed) & PUBLISHED == 0
            && record.fetch_or(PUBLISHED, Ordering::Relaxed) & PUBLISHED == 0
    }

    /// Clear `owner`'s record — the slot holds none until the next
    /// `write` — and take back its buffer pointer, the count the header
    /// kept: for one caller only, however many race to release it.
    pub(crate) fn take(&self, owner: usize) -> Option<SfmAlloc> {
        // SAFETY: as in `held_by`.
        let record = unsafe { &(*self.0.as_ptr()).record };
        // Relaxed: the guess for the exchange. Release: the record's last
        // reads happen before a later owner's writes. Acquire: pairs with
        // `write`, so the header the taken pointer drops is the record's.
        let word = record.load(Ordering::Relaxed);
        if word & !PUBLISHED != owner {
            return None;
        }
        let cleared = record.compare_exchange(word, 0, Ordering::AcqRel, Ordering::Relaxed);
        cleared
            .ok()
            .map(|_| ManuallyDrop::into_inner(self.buffer()))
    }

    /// One more buffer pointer to the record's block, unless its last one
    /// is gone — a release raced the caller — which is `Arc::upgrade`'s rule.
    /// While it lives the block is not handed out again, but the caller
    /// checks that the record is still the one it looked up.
    pub(crate) fn clone_live(&self) -> Option<SfmAlloc> {
        // SAFETY: as in `held_by`.
        let refs = unsafe { &(*self.0.as_ptr()).refs };
        // Relaxed: the guess, and a count being nonzero keeps the block
        // alive. Acquire: pairs with `init`'s store of the first count, so
        // the header the pointer reads is the one its block was given.
        let mut n = refs.load(Ordering::Relaxed);
        while n != 0 {
            match refs.compare_exchange_weak(n, n + 1, Ordering::Acquire, Ordering::Relaxed) {
                Ok(_) => return Some(SfmAlloc { block: self.0 }),
                Err(now) => n = now,
            }
        }
        None
    }

    /// The whole message's size.
    pub(crate) fn used(&self) -> usize {
        // SAFETY: as in `held_by`. Relaxed: the size is read and written by
        // whoever holds the message (and published by `write`).
        unsafe { &(*self.0.as_ptr()).used }.load(Ordering::Relaxed) as usize
    }

    /// Grow the whole message by `len` bytes aligned to `align`: returns
    /// the size before and the new region's offset, for one caller only
    /// however many grow the message at once (two threads may each hold one
    /// field of it). `Err` holds the bytes left, when the region would pass
    /// the capacity.
    pub(crate) fn reserve(&self, len: usize, align: usize) -> Result<(usize, usize), usize> {
        // SAFETY: as in `held_by`.
        let (used, capacity) = (unsafe { &(*self.0.as_ptr()).used }, self.capacity());
        // Relaxed: the guess, re-read by a failed exchange. The exchange
        // makes the region this caller's alone; the bytes written into it
        // reach a reader through whatever hands the message over.
        let mut now = used.load(Ordering::Relaxed);
        loop {
            let offset = crate::align_up(now as usize, align);
            let end = offset.checked_add(len).filter(|&end| end <= capacity);
            let end = end.ok_or(capacity - now as usize)?;
            let end = u32::try_from(end).expect("an SFM message is under 4 GiB");
            match used.compare_exchange_weak(now, end, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Ok((now as usize, offset)),
                Err(seen) => now = seen,
            }
        }
    }

    /// The message's first byte.
    pub(crate) fn start(&self) -> usize {
        // SAFETY: as in `held_by`. Relaxed: written before the block's first
        // handle is shared, which publishes it (see `init`).
        unsafe { &(*self.0.as_ptr()).data }.load(Ordering::Relaxed) as usize
    }

    /// The bytes the message may use.
    pub(crate) fn capacity(&self) -> usize {
        // SAFETY: as in `held_by`. Relaxed: as `start`.
        unsafe { &(*self.0.as_ptr()).capacity }.load(Ordering::Relaxed)
    }

    /// Buffer pointers alive to the block.
    pub(crate) fn refs(&self) -> usize {
        // SAFETY: as in `held_by`. Acquire: as `SfmAlloc::refs`.
        unsafe { &(*self.0.as_ptr()).refs }.load(Ordering::Acquire) as usize
    }

    /// The block's birth stamp.
    pub(crate) fn born_ns(&self) -> u64 {
        // SAFETY: as in `held_by`. Relaxed: as `SfmAlloc::born_ns`.
        unsafe { &(*self.0.as_ptr()).born_ns }.load(Ordering::Relaxed)
    }

    pub(crate) fn type_name(&self) -> &'static str {
        // SAFETY: as in `held_by`. Relaxed: see `write`.
        let word = unsafe { &(*self.0.as_ptr()).name }.load(Ordering::Relaxed);
        let (ptr, len) = (word & ((1 << NAME_PTR_BITS) - 1), word >> NAME_PTR_BITS);
        if ptr == 0 {
            return "";
        }
        // SAFETY: one atomic word, so never torn, packed by `write` from a
        // `&'static str`.
        let bytes = unsafe { std::slice::from_raw_parts(ptr as *const u8, len as usize) };
        // SAFETY: as above.
        unsafe { std::str::from_utf8_unchecked(bytes) }
    }

    /// The record's buffer pointer, borrowed: read while a record is held,
    /// its block is live.
    pub(crate) fn buffer(&self) -> ManuallyDrop<SfmAlloc> {
        ManuallyDrop::new(SfmAlloc { block: self.0 })
    }
}

/// The return list and its blocks, and a block's header record, opened
/// for the model-checked scenarios in `tests/model.rs` (built only under
/// `--cfg rossf_model`).
#[cfg(rossf_model)]
pub mod model {
    use super::{block_layout, free_block, init, Backing, Block, Chain, HeaderRecord, Taken};
    use super::{AtomicU32, AtomicUsize, MessageState, MIN_BLOCK};
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
            // SAFETY: nonzero size. Zeroed: a record's words read 0 until
            // written.
            let block = NonNull::new(unsafe { std::alloc::alloc_zeroed(layout) }.cast::<Block>())
                .unwrap_or_else(|| std::alloc::handle_alloc_error(layout));
            // SAFETY: fresh and ours; a control-block header (no bytes of
            // its own) is all a free block needs.
            let handle = unsafe { init(block, 0, NonNull::dangling(), 64, 0, Backing::Heap) };
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

    // SAFETY: a shared free block is used only through its record's
    // atomic words.
    unsafe impl Sync for FreeBlock {}

    /// The block's header record, written, published and read as the
    /// manager does it.
    impl FreeBlock {
        /// Make it `owner`'s record of a message of `used` bytes.
        pub fn write_record(&self, owner: usize, used: usize, ty: &'static str) {
            HeaderRecord(self.0).write(owner, MessageState::Allocated, used, ty);
        }

        /// Mark it published; `true` for the one call that did.
        pub fn publish_record(&self) -> bool {
            HeaderRecord(self.0).publish()
        }

        /// What a lookup reads: the size and name, if `owner` holds it.
        pub fn read_record(&self, owner: usize) -> Option<(usize, &'static str)> {
            let rec = HeaderRecord(self.0);
            rec.held_by(owner).map(|_| (rec.used(), rec.type_name()))
        }

        /// Grow its message (of 64 bytes at most) by `len` bytes aligned
        /// to `align`, as `expand` does: the new region's offset.
        pub fn reserve_record(&self, len: usize, align: usize) -> Option<usize> {
            HeaderRecord(self.0).reserve(len, align).ok().map(|at| at.1)
        }

        /// The record's owner word, for the scenarios' seeded mutants.
        pub fn record_word(&self) -> &AtomicUsize {
            // SAFETY: the block lives while its handle does.
            unsafe { &self.0.as_ref().record }
        }

        /// The record's size word, for the scenarios' seeded mutants.
        pub fn used_word(&self) -> &AtomicU32 {
            // SAFETY: as above.
            unsafe { &self.0.as_ref().used }
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
