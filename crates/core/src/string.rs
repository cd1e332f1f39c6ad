//! `sfm::string` — the SFM skeleton of a string field (§4.1, §4.3.3).

use crate::alert::{self, AlertKind};
use crate::align_up;
use crate::error::SfmError;
use crate::manager::mm;
use crate::message::{SfmPod, SfmValidate};
use core::fmt;

/// The 8-byte skeleton of a ROS `string` field.
///
/// Layout (paper Fig. 7): a `u32` *stored length* — content bytes **plus the
/// terminating NUL plus padding to a 4-byte multiple** (`"rgb8"` stores 8) —
/// followed by a `u32` offset from the address of the offset word itself to
/// the content bytes. `{0, 0}` is the unassigned/empty state.
///
/// The API mirrors the read-only and one-shot-write surface of
/// `std::string`; growing mutators are deliberately absent (*No Modifier
/// Assumption*).
///
/// An `SfmString` is only meaningful inside a managed message allocation
/// ([`SfmBox`](crate::SfmBox) / [`SfmShared`](crate::SfmShared)); assignment
/// asks the global message manager for content space by its own address.
#[repr(C)]
pub struct SfmString {
    stored: u32,
    off: u32,
}

// SAFETY: two u32s, repr(C), all-zero is the valid empty state, no drop.
unsafe impl SfmPod for SfmString {}

impl SfmString {
    /// Address of the offset word — the base all offsets are relative to.
    #[inline]
    fn off_addr(&self) -> usize {
        core::ptr::addr_of!(self.off) as usize
    }

    /// Absolute address of the content, or `None` when unassigned.
    #[inline]
    fn content_addr(&self) -> Option<usize> {
        (self.off != 0).then(|| self.off_addr() + self.off as usize)
    }

    /// `true` until the first assignment.
    #[inline]
    pub fn is_unassigned(&self) -> bool {
        self.stored == 0 && self.off == 0
    }

    /// The raw stored size: content + NUL + padding (the paper's "length of
    /// *encoding* = 8" for `"rgb8"`).
    #[inline]
    pub fn stored_len(&self) -> usize {
        self.stored as usize
    }

    /// Content length in bytes, `strlen`-style (NUL and padding excluded),
    /// mirroring `std::string::length()`.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// `true` when the content is empty (including the unassigned state).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Content bytes up to (excluding) the terminating NUL.
    pub fn as_bytes(&self) -> &[u8] {
        let Some(addr) = self.content_addr() else {
            return &[];
        };
        let stored = self.stored as usize;
        // SAFETY: the region [addr, addr+stored) was reserved through the
        // message manager inside this message's allocation at assignment
        // time (or validated by `SfmValidate` for received frames), and is
        // never mutated after the one-shot write.
        let raw = unsafe { core::slice::from_raw_parts(addr as *const u8, stored) };
        let nul = raw.iter().position(|&b| b == 0).unwrap_or(stored);
        &raw[..nul]
    }

    /// Content as `&str`.
    ///
    /// # Panics
    ///
    /// Panics if the stored bytes are not valid UTF-8 (possible only for a
    /// corrupt or foreign frame); use [`SfmString::try_as_str`] to handle
    /// that case.
    pub fn as_str(&self) -> &str {
        self.try_as_str()
            .expect("SfmString content is not valid UTF-8")
    }

    /// Content as `&str`, or `None` if not valid UTF-8.
    pub fn try_as_str(&self) -> Option<&str> {
        core::str::from_utf8(self.as_bytes()).ok()
    }

    /// One-shot assignment (the `operator=` of the paper's `sfm::string`).
    ///
    /// The first assignment expands the whole message by
    /// `align_up(s.len() + 1, 4)` bytes and writes the content + NUL there.
    /// A second assignment violates the *One-Shot String Assignment
    /// Assumption*: an alert is raised through the active
    /// [`AlertPolicy`](crate::AlertPolicy); under `Warn`/`Count` the
    /// assignment still succeeds by appending a fresh region (leaking the
    /// old one inside the message — the memory waste the paper warns about).
    ///
    /// # Panics
    ///
    /// Panics if this string is not inside a managed message, if the
    /// message's `max_size` is exceeded, or (per policy) on reassignment.
    pub fn assign(&mut self, s: impl AsRef<str>) {
        if let Err(e) = self.try_assign(s) {
            panic!("SfmString::assign failed: {e}");
        }
    }

    /// Fallible variant of [`SfmString::assign`].
    ///
    /// # Errors
    ///
    /// * [`SfmError::UnmanagedAddress`] — not inside a managed message.
    /// * [`SfmError::CapacityExceeded`] — `max_size` would be exceeded.
    pub fn try_assign(&mut self, s: impl AsRef<str>) -> Result<(), SfmError> {
        let s = s.as_ref();
        let self_addr = self as *const _ as usize;
        if !self.is_unassigned() {
            let type_name = mm().info(self_addr).map_or("<unmanaged>", |i| i.type_name);
            alert::raise(AlertKind::OneShotStringAssignment, type_name);
        }
        let stored = align_up(s.len() + 1, 4);
        // Unpinned: `&mut self` keeps the message's block alive.
        let addr = mm().grow(self_addr, stored, 1, false)?;
        // SAFETY: [addr, addr+stored) was just reserved for us inside the
        // allocation; regions are append-only and start zeroed, and we hold
        // `&mut self` on the owning message.
        unsafe {
            core::ptr::copy_nonoverlapping(s.as_ptr(), addr as *mut u8, s.len());
            // Explicit NUL + zero padding (regions start zeroed, but a
            // reassignment under Warn/Count must not inherit stale bytes).
            core::ptr::write_bytes((addr + s.len()) as *mut u8, 0, stored - s.len());
        }
        self.stored = stored as u32;
        self.off = (addr - self.off_addr()) as u32;
        Ok(())
    }
}

impl SfmValidate for SfmString {
    fn validate_in(&self, base: usize, whole_len: usize) -> Result<(), SfmError> {
        if self.off == 0 {
            return Ok(());
        }
        let start = self.content_addr().expect("off != 0").wrapping_sub(base);
        let end = start.wrapping_add(self.stored as usize);
        if start > whole_len || end > whole_len || end < start {
            return Err(SfmError::CorruptOffset {
                offset: end,
                len: whole_len,
            });
        }
        Ok(())
    }
}

impl fmt::Display for SfmString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.try_as_str().unwrap_or("<invalid utf-8>"))
    }
}

impl fmt::Debug for SfmString {
    // Debug shows the logical value, not the skeleton words.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.try_as_str().unwrap_or("<invalid utf-8>"))
    }
}

impl PartialEq<str> for SfmString {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for SfmString {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq for SfmString {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SfmBox, SfmMessage};

    #[repr(C)]
    #[derive(Debug)]
    struct OneString {
        s: SfmString,
        t: SfmString,
    }
    unsafe impl SfmPod for OneString {}
    impl SfmValidate for OneString {
        fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
            self.s.validate_in(base, len)?;
            self.t.validate_in(base, len)
        }
    }
    unsafe impl SfmMessage for OneString {
        fn type_name() -> &'static str {
            "test/OneString"
        }
        fn max_size() -> usize {
            256
        }
    }

    #[test]
    fn unassigned_reads_as_empty() {
        let msg = SfmBox::<OneString>::new();
        assert!(msg.s.is_unassigned());
        assert_eq!(msg.s.len(), 0);
        assert!(msg.s.is_empty());
        assert_eq!(msg.s.as_str(), "");
        assert_eq!(msg.s.as_bytes(), b"");
    }

    #[test]
    fn assign_and_read_back() {
        let mut msg = SfmBox::<OneString>::new();
        msg.s.assign("rgb8");
        assert_eq!(msg.s.as_str(), "rgb8");
        assert_eq!(msg.s.len(), 4);
        // Paper Fig. 7: "rgb8" stores 8 bytes (4 content + NUL + 3 pad).
        assert_eq!(msg.s.stored_len(), 8);
        assert!(msg.s == "rgb8");
        assert!(msg.s != "rgb");
    }

    #[test]
    fn stored_len_is_multiple_of_four() {
        for (input, expect) in [("", 4), ("a", 4), ("abc", 4), ("abcd", 8), ("abcdefg", 8)] {
            let mut msg = SfmBox::<OneString>::new();
            msg.s.assign(input);
            assert_eq!(msg.s.stored_len(), expect, "input {input:?}");
            assert_eq!(msg.s.as_str(), input);
        }
    }

    #[test]
    fn two_strings_share_the_message_tail() {
        let mut msg = SfmBox::<OneString>::new();
        msg.s.assign("hello");
        msg.t.assign("world!");
        assert_eq!(msg.s.as_str(), "hello");
        assert_eq!(msg.t.as_str(), "world!");
    }

    #[test]
    fn reassignment_raises_alert() {
        let _g = crate::alert::test_guard();
        let prev = crate::set_alert_policy(crate::AlertPolicy::Count);
        crate::reset_alert_counts();
        let mut msg = SfmBox::<OneString>::new();
        msg.s.assign("one");
        msg.s.assign("two"); // violates One-Shot String Assignment
        assert_eq!(crate::alert_counts().0, 1);
        // Under a continuing policy the new value is visible.
        assert_eq!(msg.s.as_str(), "two");
        crate::set_alert_policy(prev);
        crate::reset_alert_counts();
    }

    #[test]
    fn unmanaged_assignment_errors() {
        // Not inside a SfmBox — the condition the ROS-SF Converter prevents.
        let mut loose = OneString {
            s: SfmString { stored: 0, off: 0 },
            t: SfmString { stored: 0, off: 0 },
        };
        let err = loose.s.try_assign("x").unwrap_err();
        assert!(matches!(err, SfmError::UnmanagedAddress { .. }));
    }

    #[test]
    fn capacity_exhaustion_errors() {
        let mut msg = SfmBox::<OneString>::new();
        let long = "x".repeat(1024); // > max_size 256
        let err = msg.s.try_assign(&long).unwrap_err();
        assert!(matches!(err, SfmError::CapacityExceeded { .. }));
        assert!(msg.s.is_unassigned());
    }

    #[test]
    fn display_and_debug() {
        let mut msg = SfmBox::<OneString>::new();
        msg.s.assign("mono8");
        assert_eq!(format!("{}", msg.s), "mono8");
        assert_eq!(format!("{:?}", msg.s), "\"mono8\"");
    }

    #[test]
    fn eq_between_sfm_strings() {
        let mut a = SfmBox::<OneString>::new();
        let mut b = SfmBox::<OneString>::new();
        a.s.assign("same");
        b.s.assign("same");
        b.t.assign("diff");
        assert!(a.s == b.s);
        assert!(!(a.s == b.t));
    }
}
