//! Receiving a serialization-free message without copies (§4.2, Fig. 9).
//!
//! The transport knows the incoming frame length before the payload bytes.
//! [`SfmRecvBuffer`] allocates the message's final resting place up front so
//! the socket read lands directly in it; [`SfmRecvBuffer::finish`] is the
//! paper's "dummy de-serialization routine": it validates the skeleton,
//! registers the record (state `Published`), and hands out the object
//! pointer. No byte is ever copied after the socket read.

use crate::alloc::SfmAlloc;
use crate::boxed::SfmShared;
use crate::error::SfmError;
use crate::manager::mm;
use crate::message::SfmMessage;
use core::marker::PhantomData;

/// In-flight receive buffer for one frame of message type `T`.
pub struct SfmRecvBuffer<T: SfmMessage> {
    buffer: SfmAlloc,
    len: usize,
    // fn() -> T keeps the buffer Send/Sync regardless of T's auto traits;
    // T is only a type-level tag here.
    _marker: PhantomData<fn() -> T>,
}

impl<T: SfmMessage> SfmRecvBuffer<T> {
    /// Prepare to receive a frame of `frame_len` bytes.
    ///
    /// # Errors
    ///
    /// * [`SfmError::FrameTooSmall`] — the frame cannot contain `T`'s
    ///   skeleton.
    /// * [`SfmError::FrameTooLarge`] — the frame exceeds `T::max_size()`,
    ///   so it could not have been produced by a conforming publisher.
    pub fn new(frame_len: usize) -> Result<Self, SfmError> {
        if frame_len < T::SKELETON_SIZE {
            return Err(SfmError::FrameTooSmall {
                expected: T::SKELETON_SIZE,
                actual: frame_len,
            });
        }
        if frame_len > T::max_size() {
            return Err(SfmError::FrameTooLarge {
                max_size: T::max_size(),
                actual: frame_len,
            });
        }
        // Adopted messages are read-only (`SfmShared` has no `&mut`
        // surface), so they can never grow: the allocation only needs the
        // frame itself, not the type's full `max_size`.
        Ok(SfmRecvBuffer {
            buffer: SfmAlloc::new(crate::align_up(frame_len.max(1), 8)),
            len: frame_len,
            _marker: PhantomData,
        })
    }

    /// The destination slice the transport reads the payload into.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: [0, len) is within capacity (checked in `new`); we hold
        // the unique handle.
        unsafe { core::slice::from_raw_parts_mut(self.buffer.as_ptr(), self.len) }
    }

    /// Frame length this buffer expects.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always `false`: frames contain at least a skeleton.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Validate and adopt the filled buffer, producing the subscriber-side
    /// object pointer.
    ///
    /// # Errors
    ///
    /// [`SfmError::CorruptOffset`] if any offset stored in the frame points
    /// outside the frame (corrupt or schema-mismatched data).
    pub fn finish(self) -> Result<SfmShared<T>, SfmError> {
        let base = self.buffer.base();
        // SAFETY: aligned, zero-padded to max_size, fully initialized in
        // [0, len); T is pod so the cast view is sound. Offsets are checked
        // *before* any typed field access by user code.
        let view = unsafe { &*(self.buffer.as_ptr() as *const T) };
        view.validate_in(base, self.len)?;
        mm().adopt(self.buffer.clone(), self.len, T::type_name());
        Ok(SfmShared::from_parts(self.buffer, self.len))
    }
}

impl<T: SfmMessage> core::fmt::Debug for SfmRecvBuffer<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SfmRecvBuffer")
            .field("type", &T::type_name())
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MessageState, SfmBox, SfmPod, SfmString, SfmValidate, SfmVec};

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
            "test/ImgRecv"
        }
        fn max_size() -> usize {
            2048
        }
    }

    fn wire_frame() -> Vec<u8> {
        let mut img = SfmBox::<Img>::new();
        img.encoding.assign("rgb8");
        img.height = 10;
        img.width = 10;
        img.data.resize(300);
        for i in 0..300 {
            img.data[i] = (i % 7) as u8;
        }
        img.publish_handle().as_slice().to_vec()
    }

    #[test]
    fn roundtrip_over_simulated_wire() {
        let frame = wire_frame();
        let mut rb = SfmRecvBuffer::<Img>::new(frame.len()).unwrap();
        rb.as_mut_slice().copy_from_slice(&frame); // "socket read"
        let msg = rb.finish().unwrap();
        assert_eq!(msg.encoding.as_str(), "rgb8");
        assert_eq!(msg.height, 10);
        assert_eq!(msg.width, 10);
        assert_eq!(msg.data.len(), 300);
        assert_eq!(msg.data[6], 6);
        // Adopted messages are born Published (Fig. 9).
        assert_eq!(
            mm().info(msg.base()).unwrap().state,
            MessageState::Published
        );
    }

    #[test]
    fn frame_too_small_rejected() {
        let err = SfmRecvBuffer::<Img>::new(3).unwrap_err();
        assert!(matches!(err, SfmError::FrameTooSmall { .. }));
    }

    #[test]
    fn frame_too_large_rejected() {
        let err = SfmRecvBuffer::<Img>::new(1 << 20).unwrap_err();
        assert!(matches!(err, SfmError::FrameTooLarge { .. }));
    }

    #[test]
    fn corrupt_string_offset_rejected() {
        let mut frame = wire_frame();
        // The encoding skeleton occupies the first 8 bytes; poison the
        // offset word to point far outside the frame.
        frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut rb = SfmRecvBuffer::<Img>::new(frame.len()).unwrap();
        rb.as_mut_slice().copy_from_slice(&frame);
        let err = rb.finish().unwrap_err();
        assert!(matches!(err, SfmError::CorruptOffset { .. }));
    }

    #[test]
    fn corrupt_vec_len_rejected() {
        let mut frame = wire_frame();
        // The data skeleton is after encoding(8) + height(4) + width(4).
        frame[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut rb = SfmRecvBuffer::<Img>::new(frame.len()).unwrap();
        rb.as_mut_slice().copy_from_slice(&frame);
        assert!(rb.finish().is_err());
    }

    #[test]
    fn zero_copy_from_recv_buffer_to_shared() {
        let frame = wire_frame();
        let mut rb = SfmRecvBuffer::<Img>::new(frame.len()).unwrap();
        let dest = rb.as_mut_slice().as_ptr() as usize;
        rb.as_mut_slice().copy_from_slice(&frame);
        let msg = rb.finish().unwrap();
        assert_eq!(msg.base(), dest, "no copy between read and callback");
    }

    #[test]
    fn record_released_when_last_shared_drops() {
        let frame = wire_frame();
        let mut rb = SfmRecvBuffer::<Img>::new(frame.len()).unwrap();
        rb.as_mut_slice().copy_from_slice(&frame);
        let msg = rb.finish().unwrap();
        let base = msg.base();
        let keep = msg.clone(); // callback keeps a reference
        drop(msg); // callback returned
        assert!(mm().info(base).is_some());
        drop(keep);
        assert!(mm().info(base).is_none());
    }

    #[test]
    fn debug_nonempty() {
        let rb = SfmRecvBuffer::<Img>::new(64).unwrap();
        assert!(format!("{rb:?}").contains("SfmRecvBuffer"));
        assert!(!rb.is_empty());
        assert_eq!(rb.len(), 64);
    }
}
