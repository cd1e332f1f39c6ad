//! Smart pointers implementing the paper's message life cycle (§4.2).
//!
//! * [`SfmBox`] — the developer's owned message object on the publisher
//!   side. Creating one plays the role of the overloaded global `new`
//!   operator (allocate `max_size`, register with the manager, state
//!   `Allocated`); dropping it plays the role of the overloaded `delete`
//!   (release the record; the bytes survive while any transmission-queue
//!   reference exists).
//! * [`SfmShared`] — the *object pointer* handed to subscriber callbacks
//!   (the `Image::ConstPtr` of Fig. 3). Cloning it is cheap; the record is
//!   released when the last clone drops.
//! * [`PublishedBuffer`] — the *buffer pointer* copy handed to the ROS
//!   transmission queue by `publish` (Fig. 8).

use crate::alloc::SfmAlloc;
use crate::manager::mm;
use crate::message::SfmMessage;
use core::marker::PhantomData;
use core::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Owned, manager-registered serialization-free message (publisher side).
///
/// Dereferences to the skeleton type `T`; field access *is* plain struct
/// field access — this is the transparency property of the SFM format.
///
/// ```
/// # use rossf_sfm::*;
/// # #[repr(C)] pub struct M { pub v: SfmVec<u8> }
/// # unsafe impl SfmPod for M {}
/// # impl SfmValidate for M {
/// #     fn validate_in(&self, b: usize, l: usize) -> Result<(), SfmError> {
/// #         self.v.validate_in(b, l)
/// #     }
/// # }
/// # unsafe impl SfmMessage for M {
/// #     fn type_name() -> &'static str { "t/M" }
/// #     fn max_size() -> usize { 1024 }
/// # }
/// let mut msg = SfmBox::<M>::new();
/// msg.v.resize(16);          // just like `img.data.resize(...)` in ROS
/// msg.v[0] = 42;
/// assert_eq!(msg.v[0], 42);
/// ```
pub struct SfmBox<T: SfmMessage> {
    buffer: Arc<SfmAlloc>,
    _marker: PhantomData<T>,
}

// SAFETY: the buffer is Send+Sync and T is a pod skeleton; &SfmBox only
// permits reads, &mut SfmBox is unique.
unsafe impl<T: SfmMessage> Send for SfmBox<T> {}
unsafe impl<T: SfmMessage> Sync for SfmBox<T> {}

impl<T: SfmMessage> SfmBox<T> {
    /// Allocate a new message at its type's `max_size`, zero-initialized,
    /// and register it with the global manager (state: `Allocated`).
    ///
    /// # Panics
    ///
    /// Panics if `T::max_size() < T::SKELETON_SIZE` (an IDL configuration
    /// error caught eagerly).
    pub fn new() -> Self {
        let max = T::max_size();
        assert!(
            max >= T::SKELETON_SIZE,
            "max_size for {} ({max}) is smaller than its skeleton ({})",
            T::type_name(),
            T::SKELETON_SIZE
        );
        let buffer = Arc::new(SfmAlloc::new(max));
        // The overloaded `new` zero-initializes only the skeleton — the
        // all-zero skeleton is the valid empty message; content regions
        // are written in full when fields are assigned.
        buffer.zero_prefix(T::SKELETON_SIZE);
        mm().register(Arc::clone(&buffer), T::SKELETON_SIZE, T::type_name());
        SfmBox {
            buffer,
            _marker: PhantomData,
        }
    }

    /// Build an owned message inside a caller-provided allocation — the
    /// *loaned publication* constructor. The skeleton is zeroed and the
    /// record registered exactly as [`SfmBox::new`] does (the sanitizer
    /// logs [`RegisterLoaned`](crate::LifecycleOp::RegisterLoaned)); the
    /// only difference is where the bytes live — typically a shared-memory
    /// segment's payload area wrapped by [`SfmAlloc::from_extern`], so
    /// that publishing later needs no copy at all.
    ///
    /// # Safety
    ///
    /// The allocation's region must be valid for **writes** of its full
    /// capacity (stronger than the read-validity [`SfmAlloc::from_extern`]
    /// requires — a read-only mapping must never be passed here), and no
    /// other alias may access the region while this box is being built.
    ///
    /// # Panics
    ///
    /// Panics if the allocation's capacity is smaller than
    /// `T::max_size()` — fields grow toward `max_size` and must never
    /// overrun the region.
    pub unsafe fn from_alloc(buffer: Arc<SfmAlloc>) -> Self {
        let max = T::max_size();
        assert!(
            max >= T::SKELETON_SIZE,
            "max_size for {} ({max}) is smaller than its skeleton ({})",
            T::type_name(),
            T::SKELETON_SIZE
        );
        assert!(
            buffer.capacity() >= max,
            "loaned region for {} holds {} bytes, max_size is {max}",
            T::type_name(),
            buffer.capacity()
        );
        buffer.zero_prefix(T::SKELETON_SIZE);
        mm().register_loaned(Arc::clone(&buffer), T::SKELETON_SIZE, T::type_name());
        SfmBox {
            buffer,
            _marker: PhantomData,
        }
    }

    /// Base address of the whole message.
    #[inline]
    pub fn base(&self) -> usize {
        self.buffer.base()
    }

    /// Current size of the whole message (skeleton + appended content).
    pub fn whole_len(&self) -> usize {
        mm().used_size_from(self.buffer.partition(), self.base())
            .expect("live SfmBox always has a record")
    }

    /// Take the buffer-pointer copy that `publish` hands to the
    /// transmission queue, and transition the message to `Published`.
    ///
    /// The returned [`PublishedBuffer`] keeps the bytes alive independently
    /// of this `SfmBox` — dropping the box after publishing is safe and
    /// copy-free (Fig. 8).
    pub fn publish_handle(&self) -> PublishedBuffer {
        let len = mm()
            .publish_from(self.buffer.partition(), self.base())
            .expect("live SfmBox always has a record");
        PublishedBuffer {
            buffer: Arc::clone(&self.buffer),
            len,
        }
    }

    /// Convert into the shared (subscriber-style) object pointer without
    /// copying. Useful when publisher code wants to retain the message
    /// after publishing, or to feed intra-process subscribers.
    pub fn into_shared(self) -> SfmShared<T> {
        let core = SharedCore {
            buffer: Arc::clone(&self.buffer),
            base: self.base(),
            len: self.whole_len(),
            owns_record: true,
            _marker: PhantomData,
        };
        // The record now belongs to the SharedCore; forget self so Drop
        // does not release it.
        core::mem::forget(self);
        SfmShared {
            core: Arc::new(core),
        }
    }
}

impl<T: SfmMessage> Default for SfmBox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: SfmMessage> Deref for SfmBox<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: base is 8-aligned, at least SKELETON_SIZE bytes, zeroed at
        // birth; T: SfmPod accepts any initialized bytes.
        unsafe { &*(self.buffer.as_ptr() as *const T) }
    }
}

impl<T: SfmMessage> DerefMut for SfmBox<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as Deref; &mut self guarantees uniqueness of the object
        // handle (queue/shared handles only read after publish).
        unsafe { &mut *(self.buffer.as_ptr() as *mut T) }
    }
}

impl<T: SfmMessage> Clone for SfmBox<T> {
    /// Deep copy — the paper's generated copy constructor: "find the current
    /// size of the whole message from the message manager and copy the
    /// message" (§4.3.1). Valid because all offsets are self-relative.
    fn clone(&self) -> Self {
        let used = self.whole_len();
        let new = SfmBox::<T>::new();
        // SAFETY: distinct allocations, both at least `used` long
        // (capacity == max_size for both).
        unsafe {
            core::ptr::copy_nonoverlapping(self.buffer.as_ptr(), new.buffer.as_ptr(), used);
        }
        // Record the copied content length with the manager.
        if used > T::SKELETON_SIZE {
            mm().expand(new.base(), used - T::SKELETON_SIZE, 1)
                .expect("copy target has identical capacity");
        }
        new
    }
}

impl<T: SfmMessage> Drop for SfmBox<T> {
    fn drop(&mut self) {
        // The overloaded `delete`: the manager releases the record (and its
        // buffer-pointer clone). The bytes survive while the transmission
        // queue still holds a PublishedBuffer.
        mm().release_from(self.buffer.partition(), self.base());
    }
}

impl<T: SfmMessage + core::fmt::Debug> core::fmt::Debug for SfmBox<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("SfmBox").field(&**self).finish()
    }
}

struct SharedCore<T: SfmMessage> {
    buffer: Arc<SfmAlloc>,
    base: usize,
    len: usize,
    /// Whether this handle owns a manager record. Network-adopted messages
    /// do; intra-process views created from a `PublishedBuffer` share the
    /// publisher's record instead of registering a duplicate.
    owns_record: bool,
    _marker: PhantomData<T>,
}

impl<T: SfmMessage> Drop for SharedCore<T> {
    fn drop(&mut self) {
        // Last object pointer gone → manager releases the record; the
        // buffer is freed when its last Arc clone drops (Fig. 9).
        if self.owns_record {
            mm().release_from(self.buffer.partition(), self.base);
        }
    }
}

/// Shared, read-only handle to a serialization-free message — the *object
/// pointer* delivered to subscriber callbacks.
///
/// `Clone` is a cheap reference-count bump, matching the paper: "the
/// developer's code can add references of the message object by creating
/// copies of the object pointer".
pub struct SfmShared<T: SfmMessage> {
    core: Arc<SharedCore<T>>,
}

// SAFETY: read-only view of Send+Sync storage.
unsafe impl<T: SfmMessage> Send for SfmShared<T> {}
unsafe impl<T: SfmMessage> Sync for SfmShared<T> {}

impl<T: SfmMessage> SfmShared<T> {
    pub(crate) fn from_parts(buffer: Arc<SfmAlloc>, len: usize) -> Self {
        let base = buffer.base();
        SfmShared {
            core: Arc::new(SharedCore {
                buffer,
                base,
                len,
                owns_record: true,
                _marker: PhantomData,
            }),
        }
    }

    /// Zero-copy view of an already-published buffer within the same
    /// process (intra-process transport, related-work §2.1).
    ///
    /// The view shares the publisher's memory and does **not** own a
    /// manager record, so the publisher's own life cycle is unaffected.
    ///
    /// # Errors
    ///
    /// [`SfmError`](crate::SfmError) variants as for
    /// [`SfmRecvBuffer`](crate::SfmRecvBuffer): the frame must be at least
    /// a skeleton and structurally valid.
    pub fn from_published(frame: &PublishedBuffer) -> Result<Self, crate::SfmError> {
        if frame.len < T::SKELETON_SIZE {
            return Err(crate::SfmError::FrameTooSmall {
                expected: T::SKELETON_SIZE,
                actual: frame.len,
            });
        }
        let base = frame.buffer.base();
        // SAFETY: aligned pod view over an initialized, published buffer.
        let view = unsafe { &*(frame.buffer.as_ptr() as *const T) };
        view.validate_in(base, frame.len)?;
        // Life-cycle notation: the subscriber now shares the publisher's
        // allocation (the Published state gains a reference; Destructed is
        // reached when the last Arc drops).
        mm().note_shared_adoption(base);
        Ok(SfmShared {
            core: Arc::new(SharedCore {
                buffer: Arc::clone(&frame.buffer),
                base,
                len: frame.len,
                owns_record: false,
                _marker: PhantomData,
            }),
        })
    }

    /// Adopt an externally owned buffer (typically a shared-memory mapped
    /// frame wrapped by [`SfmAlloc::from_extern`]) as a subscriber-side
    /// message **without copying**: the frame is validated in place,
    /// registered with the global manager in the `Published` state, and the
    /// returned handle's drop releases the record — which in turn drops the
    /// buffer's external guard (unmapping / refcount release).
    ///
    /// This is the shared-memory analogue of
    /// [`SfmRecvBuffer::finish`](crate::SfmRecvBuffer::finish): the same
    /// validation and adoption sequence, minus the receive-time copy.
    ///
    /// # Errors
    ///
    /// * [`SfmError::FrameTooSmall`](crate::SfmError::FrameTooSmall) if
    ///   `len` cannot hold the skeleton.
    /// * [`SfmError::FrameTooLarge`](crate::SfmError::FrameTooLarge) if
    ///   `len` exceeds the type's `max_size`.
    /// * Validation errors from `validate_in` (malformed offsets).
    pub fn adopt_extern(buffer: Arc<SfmAlloc>, len: usize) -> Result<Self, crate::SfmError> {
        if len < T::SKELETON_SIZE {
            return Err(crate::SfmError::FrameTooSmall {
                expected: T::SKELETON_SIZE,
                actual: len,
            });
        }
        if len > T::max_size() {
            return Err(crate::SfmError::FrameTooLarge {
                max_size: T::max_size(),
                actual: len,
            });
        }
        let base = buffer.base();
        // SAFETY: aligned pod view over the initialized received frame.
        let view = unsafe { &*(buffer.as_ptr() as *const T) };
        view.validate_in(base, len)?;
        mm().adopt(Arc::clone(&buffer), len, T::type_name());
        Ok(SfmShared::from_parts(buffer, len))
    }

    /// Size of the whole message.
    #[inline]
    pub fn whole_len(&self) -> usize {
        self.core.len
    }

    /// Base address of the whole message.
    #[inline]
    pub fn base(&self) -> usize {
        self.core.base
    }

    /// The raw whole-message bytes (e.g. for relaying without access to the
    /// typed fields).
    pub fn as_bytes(&self) -> &[u8] {
        self.core.buffer.slice(self.core.len)
    }

    /// Buffer-pointer copy for re-publishing this message verbatim on
    /// another topic — still zero-copy.
    pub fn publish_handle(&self) -> PublishedBuffer {
        mm().publish_from(self.core.buffer.partition(), self.core.base);
        PublishedBuffer {
            buffer: Arc::clone(&self.core.buffer),
            len: self.core.len,
        }
    }

    /// Number of object-pointer clones currently alive.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.core)
    }
}

impl<T: SfmMessage> Clone for SfmShared<T> {
    fn clone(&self) -> Self {
        SfmShared {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T: SfmMessage> Deref for SfmShared<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: as SfmBox::deref; adopted frames were validated by
        // SfmRecvBuffer::finish before construction.
        unsafe { &*(self.core.buffer.as_ptr() as *const T) }
    }
}

impl<T: SfmMessage + core::fmt::Debug> core::fmt::Debug for SfmShared<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_tuple("SfmShared").field(&**self).finish()
    }
}

/// The buffer-pointer copy held by the ROS transmission queue: the whole
/// message as raw wire bytes plus a reference count keeping them alive.
#[derive(Clone)]
pub struct PublishedBuffer {
    buffer: Arc<SfmAlloc>,
    len: usize,
}

impl PublishedBuffer {
    /// Wire bytes of the whole message — written to the transport verbatim
    /// (this is what "serialization-free" means on the send path).
    pub fn as_slice(&self) -> &[u8] {
        self.buffer.slice(self.len)
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if empty (never the case for a real message).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Birth timestamp of the backing allocation on the tracing clock
    /// (0 when tracing was not armed when the buffer was allocated). The
    /// transport uses this to anchor the `alloc` stage span without any
    /// extra bookkeeping on the publish path.
    #[inline]
    pub fn alloc_ns(&self) -> u64 {
        self.buffer.born_ns()
    }
}

impl core::fmt::Debug for PublishedBuffer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PublishedBuffer")
            .field("len", &self.len)
            .field("refs", &Arc::strong_count(&self.buffer))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MessageState, SfmError, SfmPod, SfmString, SfmValidate, SfmVec};

    #[repr(C)]
    #[derive(Debug)]
    struct Img {
        encoding: SfmString,
        height: u32,
        width: u32,
        data: SfmVec<u8>,
    }
    unsafe impl SfmPod for Img {}
    impl SfmValidate for Img {
        fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
            self.encoding.validate_in(base, len)?;
            self.data.validate_in(base, len)
        }
    }
    unsafe impl SfmMessage for Img {
        fn type_name() -> &'static str {
            "test/Img"
        }
        fn max_size() -> usize {
            2048
        }
    }

    fn make_img() -> SfmBox<Img> {
        let mut img = SfmBox::<Img>::new();
        img.encoding.assign("rgb8");
        img.height = 10;
        img.width = 10;
        img.data.resize(300);
        for i in 0..300 {
            img.data[i] = (i % 251) as u8;
        }
        img
    }

    #[test]
    fn new_registers_allocated_state() {
        let img = SfmBox::<Img>::new();
        let info = mm().info(img.base()).unwrap();
        assert_eq!(info.state, MessageState::Allocated);
        assert_eq!(info.used, Img::SKELETON_SIZE);
        assert_eq!(info.capacity, 2048);
        assert_eq!(info.type_name, "test/Img");
    }

    #[test]
    fn whole_len_grows_with_content() {
        let img = make_img();
        // skeleton + "rgb8" (8) + 300 data
        assert_eq!(img.whole_len(), Img::SKELETON_SIZE + 8 + 300);
    }

    #[test]
    fn publish_transitions_state_and_pins_bytes() {
        let img = make_img();
        let base = img.base();
        let frame = img.publish_handle();
        assert_eq!(mm().info(base).unwrap().state, MessageState::Published);
        assert_eq!(frame.len(), img.whole_len());

        // Developer releases the message object before transmission ends.
        drop(img);
        assert!(mm().info(base).is_none(), "record gone after delete");
        // Bytes still readable through the queue's buffer pointer.
        assert_eq!(frame.as_slice().len(), frame.len());
        assert!(!frame.is_empty());
        drop(frame); // memory actually freed (Destructed)
    }

    #[test]
    fn drop_before_publish_frees_immediately() {
        let img = make_img();
        let base = img.base();
        drop(img);
        assert!(mm().info(base).is_none());
    }

    #[test]
    fn deep_clone_copies_content_and_registers() {
        let img = make_img();
        let copy = img.clone();
        assert_ne!(img.base(), copy.base());
        assert_eq!(copy.encoding.as_str(), "rgb8");
        assert_eq!(copy.height, 10);
        assert_eq!(copy.data.as_slice(), img.data.as_slice());
        assert_eq!(copy.whole_len(), img.whole_len());
        // The copy is independent: growing it does not affect the original.
        drop(img);
        assert_eq!(copy.data[5], 5);
    }

    #[test]
    fn into_shared_preserves_record_and_content() {
        let img = make_img();
        let base = img.base();
        let shared = img.into_shared();
        assert!(mm().info(base).is_some(), "record still owned by shared");
        assert_eq!(shared.encoding.as_str(), "rgb8");
        assert_eq!(shared.whole_len(), shared.as_bytes().len());
        let s2 = shared.clone();
        assert_eq!(s2.ref_count(), 2);
        drop(shared);
        assert!(mm().info(base).is_some());
        drop(s2);
        assert!(mm().info(base).is_none(), "record released by last clone");
    }

    #[test]
    fn shared_republish_is_zero_copy() {
        let img = make_img();
        let base = img.base();
        let shared = img.into_shared();
        let frame = shared.publish_handle();
        // Same underlying memory — no copy happened.
        assert_eq!(frame.as_slice().as_ptr() as usize, base);
    }

    #[test]
    fn debug_impls() {
        let img = make_img();
        assert!(format!("{img:?}").contains("SfmBox"));
        let frame = img.publish_handle();
        assert!(format!("{frame:?}").contains("PublishedBuffer"));
        let shared = img.into_shared();
        assert!(format!("{shared:?}").contains("SfmShared"));
    }

    #[test]
    fn from_alloc_builds_in_caller_region_and_publishes_zero_copy() {
        // A u64 backing store stands in for a shm segment's payload area:
        // externally owned, 8-aligned, writable.
        let mut words = vec![0u64; Img::max_size() / 8];
        let ptr = words.as_mut_ptr() as *mut u8;
        let buffer =
            Arc::new(unsafe { SfmAlloc::from_extern(ptr, Img::max_size(), Box::new(words)) });
        let mut img = unsafe { SfmBox::<Img>::from_alloc(Arc::clone(&buffer)) };
        assert_eq!(img.base(), buffer.base(), "message lives in the region");
        img.encoding.assign("rgb8");
        img.height = 2;
        img.data.resize(32);
        img.data[7] = 0x5A;
        assert_eq!(img.whole_len(), Img::SKELETON_SIZE + 8 + 32);
        let frame = img.publish_handle();
        assert_eq!(
            frame.as_slice().as_ptr() as usize,
            buffer.base(),
            "publish hands out the region itself — no copy"
        );
        assert_eq!(frame.as_slice()[frame.len() - 32 + 7], 0x5A);
        drop(img);
        drop(frame);
    }

    #[test]
    #[should_panic(expected = "loaned region")]
    fn from_alloc_rejects_undersized_region() {
        let buffer = Arc::new(SfmAlloc::new(Img::max_size() / 2));
        let _ = unsafe { SfmBox::<Img>::from_alloc(buffer) };
    }

    #[test]
    fn default_equals_new() {
        let a: SfmBox<Img> = SfmBox::default();
        assert_eq!(a.whole_len(), Img::SKELETON_SIZE);
    }

    #[test]
    fn send_sync_bounds() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SfmBox<Img>>();
        assert_send_sync::<SfmShared<Img>>();
        assert_send_sync::<PublishedBuffer>();
    }
}
