//! Loaned write-in-place publication (the ROADMAP item "Transparent zero
//! copy: a heap-built message is already shared, and the loan API goes").
//!
//! [`Publisher::loan`](crate::Publisher::loan) hands out a message whose
//! backing store *is* a shared-memory pool segment: the caller fills the
//! fields through plain `&mut` access, and
//! [`publish_loaned`](crate::Publisher::publish_loaned) turns the segment
//! the message already lives in into the published frame. Because the SFM
//! format is position-independent (self-relative offsets only), the bytes
//! built in the publisher's mapping are exactly the bytes every subscriber
//! maps — the publish-side payload memcpy disappears entirely.
//!
//! When the shm tier is not in play (disabled or no shm subscriber yet),
//! `loan` transparently falls back to an ordinary heap-backed message and
//! `publish_loaned` behaves exactly like `publish` — the caller's code is
//! identical either way, preserving the paper's transparency claim.

use rossf_sfm::{SfmBox, SfmMessage};
use rossf_shm::SharedFrame;

/// A message under construction inside a loaned region — a pooled
/// shared-memory segment when the shm tier granted one, an ordinary heap
/// allocation otherwise.
///
/// Dereferences to the message type for in-place building. Dropping an
/// unpublished loan is clean: the allocation record is released and the
/// segment's write hold (if any) returns to the pool.
pub struct LoanedMessage<T: SfmMessage> {
    msg: SfmBox<T>,
    shm: Option<SharedFrame>,
}

impl<T: SfmMessage> LoanedMessage<T> {
    pub(crate) fn new(msg: SfmBox<T>, shm: Option<SharedFrame>) -> Self {
        LoanedMessage { msg, shm }
    }

    pub(crate) fn into_parts(self) -> (SfmBox<T>, Option<SharedFrame>) {
        (self.msg, self.shm)
    }

    /// Whether the message is being built directly inside a shared-memory
    /// segment (`false` means the heap fallback — publishing will behave
    /// like an ordinary `publish`).
    pub fn is_shm_backed(&self) -> bool {
        self.shm.is_some()
    }
}

impl<T: SfmMessage> std::ops::Deref for LoanedMessage<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.msg
    }
}

impl<T: SfmMessage> std::ops::DerefMut for LoanedMessage<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.msg
    }
}

impl<T: SfmMessage> std::fmt::Debug for LoanedMessage<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoanedMessage")
            .field("type", &T::type_name())
            .field("shm_backed", &self.is_shm_backed())
            .finish()
    }
}
