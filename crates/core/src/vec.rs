//! `sfm::vector` — the SFM skeleton of a vector field (§4.1, §4.3.3).

use crate::alert::{self, AlertKind};
use crate::error::SfmError;
use crate::manager::mm;
use crate::message::{SfmPod, SfmValidate};
use core::fmt;
use core::marker::PhantomData;
use core::ops::{Index, IndexMut};

/// The 8-byte skeleton of a ROS array field (`uint8[] data`,
/// `Point32[] points`, …).
///
/// Layout (paper Fig. 7): a `u32` element count followed by a `u32` offset
/// from the address of the offset word itself to the contiguous elements.
/// `{0, 0}` is the unassigned/empty state.
///
/// Elements are stored contiguously "in the ascending order of index" so
/// they "can be accessed as elements of a C++ array" — here: as a Rust
/// slice. When the element type is itself a message, the elements are that
/// message's *skeletons*; their own variable-size fields grow the same whole
/// message through the manager.
///
/// The API mirrors the read surface of `std::vector` plus the one-shot
/// [`SfmVec::resize`]. Growing mutators (`push_back`, `pop_back`, `insert`,
/// …) are deliberately absent — the *No Modifier Assumption* is a compile
/// error, exactly as in the paper.
#[repr(C)]
pub struct SfmVec<T: SfmPod> {
    len: u32,
    off: u32,
    _marker: PhantomData<T>,
}

// SAFETY: layout is two u32s (PhantomData is zero-sized); all-zero is the
// valid empty state; no drop glue because T: SfmPod has none and elements
// live in the message allocation, not in this struct.
unsafe impl<T: SfmPod> SfmPod for SfmVec<T> {}

impl<T: SfmPod> SfmVec<T> {
    #[inline]
    fn off_addr(&self) -> usize {
        core::ptr::addr_of!(self.off) as usize
    }

    #[inline]
    fn content_addr(&self) -> Option<usize> {
        (self.off != 0).then(|| self.off_addr() + self.off as usize)
    }

    /// `true` until the first resize.
    #[inline]
    pub fn is_unassigned(&self) -> bool {
        self.len == 0 && self.off == 0
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` when there are no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match self.content_addr() {
            None => &[],
            // SAFETY: the region was reserved through the manager with
            // align_of::<T>() alignment for exactly `len` elements (or
            // validated by `SfmValidate` for received frames); T: SfmPod so
            // any initialized bytes are a valid value.
            Some(addr) => unsafe {
                core::slice::from_raw_parts(addr as *const T, self.len as usize)
            },
        }
    }

    /// Elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match self.content_addr() {
            None => &mut [],
            // SAFETY: as `as_slice`, plus we hold `&mut self` on the owning
            // message so no aliasing reads exist.
            Some(addr) => unsafe {
                core::slice::from_raw_parts_mut(addr as *mut T, self.len as usize)
            },
        }
    }

    /// One-shot sizing (the `resize` of the paper's `sfm::vector`).
    ///
    /// The first resize expands the whole message by
    /// `n * size_of::<T>()` bytes (aligned to `align_of::<T>()`) and
    /// zero-initializes the elements — for message elements the all-zero
    /// skeleton is the valid empty value. A second resize violates the
    /// *One-Shot Vector Resizing Assumption*: an alert is raised through the
    /// active [`AlertPolicy`](crate::AlertPolicy); under `Warn`/`Count` a
    /// fresh region is appended (leaking the old one inside the message).
    ///
    /// # Panics
    ///
    /// Panics if this vector is not inside a managed message, if the
    /// message's `max_size` is exceeded, or (per policy) on re-resize.
    pub fn resize(&mut self, n: usize) {
        if let Err(e) = self.try_resize(n) {
            panic!("SfmVec::resize failed: {e}");
        }
    }

    /// Fallible variant of [`SfmVec::resize`].
    ///
    /// # Errors
    ///
    /// * [`SfmError::UnmanagedAddress`] — not inside a managed message.
    /// * [`SfmError::CapacityExceeded`] — `max_size` would be exceeded.
    pub fn try_resize(&mut self, n: usize) -> Result<(), SfmError> {
        // SAFETY contract of reserve(zero=true) is upheld: the region is
        // zero-initialized before becoming reachable.
        self.reserve_region(n, true)
    }

    /// Reserve the content region; when `zero` is false the caller must
    /// fully overwrite all `n * size_of::<T>()` bytes before any read
    /// (only `assign` does this, with a `copy_from_slice` of exactly that
    /// length).
    fn reserve_region(&mut self, n: usize, zero: bool) -> Result<(), SfmError> {
        let self_addr = self as *const _ as usize;
        if !self.is_unassigned() {
            let type_name = mm().info(self_addr).map_or("<unmanaged>", |i| i.type_name);
            alert::raise(AlertKind::OneShotVectorResizing, type_name);
        }
        if n == 0 {
            // `resize(0)` on an unassigned vector is a no-op (common ROS
            // pattern, see the paper's third failure case line 147).
            self.len = 0;
            return Ok(());
        }
        let bytes = n
            .checked_mul(core::mem::size_of::<T>())
            .expect("element count overflow");
        // Unpinned: `&mut self` keeps the message's block alive.
        let addr = mm().grow(self_addr, bytes, core::mem::align_of::<T>().max(1), false)?;
        if zero {
            // SAFETY: freshly reserved region inside the allocation;
            // zeroing is a valid initialization for T: SfmPod (and clears
            // stale bytes if a Warn/Count re-resize reuses budget).
            unsafe { core::ptr::write_bytes(addr as *mut u8, 0, bytes) };
        }
        self.len = n as u32;
        self.off = (addr - self.off_addr()) as u32;
        Ok(())
    }

    /// One-shot resize followed by a copy from `src` — the idiomatic way to
    /// fill a data field (`img.data.assign(&pixels)`). Unlike
    /// `resize`-then-write, the region is written exactly once (the copy
    /// fully initializes it; no zeroing pass).
    ///
    /// # Panics
    ///
    /// As [`SfmVec::resize`].
    pub fn assign(&mut self, src: &[T])
    where
        T: Copy,
    {
        if let Err(e) = self.reserve_region(src.len(), false) {
            panic!("SfmVec::assign failed: {e}");
        }
        // Fully initializes the reserved region (same length by
        // construction), discharging reserve_region's contract.
        self.as_mut_slice().copy_from_slice(src);
    }

    /// Reference to the element at `index`, or `None` if out of bounds.
    pub fn get(&self, index: usize) -> Option<&T> {
        self.as_slice().get(index)
    }

    /// Mutable reference to the element at `index`, or `None` if out of
    /// bounds.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        self.as_mut_slice().get_mut(index)
    }

    /// Iterator over the elements (mirrors `std::vector::begin()/end()`).
    pub fn iter(&self) -> SfmVecIter<'_, T> {
        SfmVecIter {
            inner: self.as_slice().iter(),
        }
    }

    /// Mutable iterator over the elements.
    pub fn iter_mut(&mut self) -> core::slice::IterMut<'_, T> {
        self.as_mut_slice().iter_mut()
    }
}

impl<T: SfmPod + SfmValidate> SfmValidate for SfmVec<T> {
    fn validate_in(&self, base: usize, whole_len: usize) -> Result<(), SfmError> {
        if self.off == 0 {
            if self.len != 0 {
                return Err(SfmError::CorruptOffset {
                    offset: 0,
                    len: whole_len,
                });
            }
            return Ok(());
        }
        let start = self.content_addr().expect("off != 0").wrapping_sub(base);
        let bytes = (self.len as usize)
            .checked_mul(core::mem::size_of::<T>())
            .ok_or(SfmError::CorruptOffset {
                offset: usize::MAX,
                len: whole_len,
            })?;
        let end = start.wrapping_add(bytes);
        if start > whole_len || end > whole_len || end < start {
            return Err(SfmError::CorruptOffset {
                offset: end,
                len: whole_len,
            });
        }
        // Recurse into element skeletons (no-op for primitives).
        for item in self.as_slice() {
            item.validate_in(base, whole_len)?;
        }
        Ok(())
    }
}

/// Iterator returned by [`SfmVec::iter`].
#[derive(Debug, Clone)]
pub struct SfmVecIter<'a, T> {
    inner: core::slice::Iter<'a, T>,
}

impl<'a, T> Iterator for SfmVecIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<T> ExactSizeIterator for SfmVecIter<'_, T> {}

impl<'a, T: SfmPod> IntoIterator for &'a SfmVec<T> {
    type Item = &'a T;
    type IntoIter = SfmVecIter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: SfmPod> Index<usize> for SfmVec<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        &self.as_slice()[index]
    }
}

impl<T: SfmPod> IndexMut<usize> for SfmVec<T> {
    fn index_mut(&mut self, index: usize) -> &mut T {
        &mut self.as_mut_slice()[index]
    }
}

impl<T: SfmPod + fmt::Debug> fmt::Debug for SfmVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() > 16 {
            write!(f, "[{} elements]", self.len())
        } else {
            f.debug_list().entries(self.as_slice()).finish()
        }
    }
}

impl<T: SfmPod + PartialEq> PartialEq<[T]> for SfmVec<T> {
    fn eq(&self, other: &[T]) -> bool {
        self.as_slice() == other
    }
}

impl<T: SfmPod + PartialEq> PartialEq for SfmVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SfmBox, SfmMessage, SfmString};

    #[repr(C)]
    #[derive(Debug)]
    struct VecMsg {
        bytes: SfmVec<u8>,
        floats: SfmVec<f64>,
    }
    unsafe impl SfmPod for VecMsg {}
    impl SfmValidate for VecMsg {
        fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
            self.bytes.validate_in(base, len)?;
            self.floats.validate_in(base, len)
        }
    }
    unsafe impl SfmMessage for VecMsg {
        fn type_name() -> &'static str {
            "test/VecMsg"
        }
        fn max_size() -> usize {
            4096
        }
    }

    // A nested element message: vectors of message skeletons.
    #[repr(C)]
    #[derive(Debug)]
    struct NamedPoint {
        x: f64,
        y: f64,
        name: SfmString,
    }
    unsafe impl SfmPod for NamedPoint {}
    impl SfmValidate for NamedPoint {
        fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
            self.name.validate_in(base, len)
        }
    }

    #[repr(C)]
    #[derive(Debug)]
    struct Cloud {
        points: SfmVec<NamedPoint>,
    }
    unsafe impl SfmPod for Cloud {}
    impl SfmValidate for Cloud {
        fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
            self.points.validate_in(base, len)
        }
    }
    unsafe impl SfmMessage for Cloud {
        fn type_name() -> &'static str {
            "test/Cloud"
        }
        fn max_size() -> usize {
            8192
        }
    }

    #[test]
    fn unassigned_is_empty() {
        let msg = SfmBox::<VecMsg>::new();
        assert!(msg.bytes.is_unassigned());
        assert!(msg.bytes.is_empty());
        assert_eq!(msg.bytes.len(), 0);
        assert!(msg.bytes.as_slice().is_empty());
        assert!(msg.bytes.get(0).is_none());
    }

    #[test]
    fn resize_zero_initializes() {
        let mut msg = SfmBox::<VecMsg>::new();
        msg.bytes.resize(300);
        assert_eq!(msg.bytes.len(), 300);
        assert!(msg.bytes.iter().all(|&b| b == 0));
    }

    #[test]
    fn write_and_read_elements() {
        let mut msg = SfmBox::<VecMsg>::new();
        msg.bytes.resize(10);
        for i in 0..10 {
            msg.bytes[i] = (i * 3) as u8;
        }
        assert_eq!(msg.bytes[9], 27);
        assert_eq!(msg.bytes.as_slice(), &[0, 3, 6, 9, 12, 15, 18, 21, 24, 27]);
    }

    #[test]
    fn assign_copies_slice() {
        let mut msg = SfmBox::<VecMsg>::new();
        msg.floats.assign(&[1.5, -2.5, 3.25]);
        assert_eq!(msg.floats.as_slice(), &[1.5, -2.5, 3.25]);
    }

    #[test]
    fn f64_content_is_aligned() {
        let mut msg = SfmBox::<VecMsg>::new();
        // Force a misaligning prefix first.
        msg.bytes.resize(3);
        msg.floats.resize(4);
        let addr = msg.floats.as_slice().as_ptr() as usize;
        assert_eq!(addr % core::mem::align_of::<f64>(), 0);
    }

    #[test]
    fn resize_zero_then_real_resize_is_not_a_violation() {
        let _g = crate::alert::test_guard();
        // The common ROS pattern `points.resize(0); ... resize(n)`:
        // resize(0) on an unassigned vec leaves it unassigned.
        let prev = crate::set_alert_policy(crate::AlertPolicy::Count);
        crate::reset_alert_counts();
        let mut msg = SfmBox::<VecMsg>::new();
        msg.bytes.resize(0);
        assert!(msg.bytes.is_unassigned());
        msg.bytes.resize(8);
        assert_eq!(crate::alert_counts().1, 0);
        crate::set_alert_policy(prev);
        crate::reset_alert_counts();
    }

    #[test]
    fn double_resize_raises_alert() {
        let _g = crate::alert::test_guard();
        let prev = crate::set_alert_policy(crate::AlertPolicy::Count);
        crate::reset_alert_counts();
        let mut msg = SfmBox::<VecMsg>::new();
        msg.bytes.resize(4);
        msg.bytes.resize(8); // violates One-Shot Vector Resizing
        assert_eq!(crate::alert_counts().1, 1);
        assert_eq!(msg.bytes.len(), 8);
        crate::set_alert_policy(prev);
        crate::reset_alert_counts();
    }

    #[test]
    fn capacity_exceeded_errors_and_leaves_vec_unassigned() {
        let mut msg = SfmBox::<VecMsg>::new();
        let err = msg.bytes.try_resize(1 << 20).unwrap_err();
        assert!(matches!(err, SfmError::CapacityExceeded { .. }));
        assert!(msg.bytes.is_unassigned());
    }

    #[test]
    fn vector_of_message_skeletons() {
        let mut cloud = SfmBox::<Cloud>::new();
        cloud.points.resize(3);
        for (i, p) in cloud.points.iter_mut().enumerate() {
            p.x = i as f64;
            p.y = -(i as f64);
        }
        // Element strings grow the same whole message.
        cloud.points[0].name.assign("origin");
        cloud.points[2].name.assign("far");
        assert_eq!(cloud.points[0].name.as_str(), "origin");
        assert_eq!(cloud.points[1].name.as_str(), "");
        assert_eq!(cloud.points[2].name.as_str(), "far");
        assert_eq!(cloud.points[1].x, 1.0);
    }

    #[test]
    fn elements_are_contiguous() {
        let mut cloud = SfmBox::<Cloud>::new();
        cloud.points.resize(4);
        let s = cloud.points.as_slice();
        let stride = core::mem::size_of::<NamedPoint>();
        for w in 0..3 {
            let a = &s[w] as *const _ as usize;
            let b = &s[w + 1] as *const _ as usize;
            assert_eq!(b - a, stride);
        }
    }

    #[test]
    fn iterator_matches_indexing() {
        let mut msg = SfmBox::<VecMsg>::new();
        msg.bytes.assign(&[9, 8, 7]);
        let via_iter: Vec<u8> = msg.bytes.iter().copied().collect();
        assert_eq!(via_iter, vec![9, 8, 7]);
        assert_eq!(msg.bytes.iter().len(), 3);
        let via_intoiter: Vec<u8> = (&msg.bytes).into_iter().copied().collect();
        assert_eq!(via_intoiter, vec![9, 8, 7]);
    }

    #[test]
    fn debug_formats() {
        let mut msg = SfmBox::<VecMsg>::new();
        msg.bytes.assign(&[1, 2]);
        assert_eq!(format!("{:?}", msg.bytes), "[1, 2]");
        msg.floats.resize(32);
        assert_eq!(format!("{:?}", msg.floats), "[32 elements]");
    }

    #[test]
    fn partial_eq() {
        let mut a = SfmBox::<VecMsg>::new();
        let mut b = SfmBox::<VecMsg>::new();
        a.bytes.assign(&[1, 2, 3]);
        b.bytes.assign(&[1, 2, 3]);
        assert!(a.bytes == b.bytes);
        assert!(a.bytes == *[1u8, 2, 3].as_slice());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let mut msg = SfmBox::<VecMsg>::new();
        msg.bytes.resize(2);
        let _ = msg.bytes[2];
    }

    #[test]
    fn unmanaged_resize_errors() {
        let mut loose: SfmVec<u8> = SfmVec {
            len: 0,
            off: 0,
            _marker: PhantomData,
        };
        assert!(matches!(
            loose.try_resize(4),
            Err(SfmError::UnmanagedAddress { .. })
        ));
    }
}
