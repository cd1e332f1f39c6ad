//! The frame verifier's cost contract, counted from outside: a frame that
//! passes [`verify_frame`] costs no heap allocation, and a frame that fails
//! still gets the exact `VerifyError { path, kind }` diagnostics — paths are
//! rendered lazily, only for the failing frame.
//!
//! Allocations are counted per thread by a counting `#[global_allocator]`,
//! so the tests in this binary can run in parallel without seeing each
//! other. The expected errors are literals: they are what the verifier
//! produced before its success path stopped allocating, so a diagnostic
//! that drifts fails here by name.

use rossf_msg::geometry_msgs::SfmPoseStamped;
use rossf_msg::sensor_msgs::{SfmImage, SfmPointCloud2};
use rossf_msg::tf2_msgs::SfmTFMessage;
use rossf_msg::visualization_msgs::SfmMarkerArray;
use rossf_sfm::{
    verify_frame, SfmBox, SfmMessage, VerifyError,
    VerifyErrorKind::{self, *},
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, when the counter is gone and nobody is counting.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// const-initialized thread-local `Cell` and touches no allocator state.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations this thread makes while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn frame_of<T: SfmMessage>(msg: SfmBox<T>) -> Vec<u8> {
    msg.publish_handle().as_slice().to_vec()
}

fn pose_frame() -> Vec<u8> {
    let mut pose = SfmBox::<SfmPoseStamped>::new();
    pose.header.seq = 7;
    pose.header.frame_id.assign("map");
    pose.pose.orientation.w = 1.0;
    frame_of(pose)
}

fn image_frame() -> Vec<u8> {
    let mut img = SfmBox::<SfmImage>::new();
    img.header.frame_id.assign("cam0");
    img.height = 4;
    img.width = 4;
    img.encoding.assign("rgb8");
    img.step = 12;
    img.data.assign(&[0x5A; 48]);
    frame_of(img)
}

/// A vector of structs that carry strings: one region for the elements,
/// one more per element name.
fn cloud_frame() -> Vec<u8> {
    let mut pc = SfmBox::<SfmPointCloud2>::new();
    pc.header.frame_id.assign("lidar");
    pc.height = 1;
    pc.width = 2;
    pc.fields.resize(4);
    for (i, name) in ["x", "y", "z", "intensity"].into_iter().enumerate() {
        let field = &mut pc.fields[i];
        field.name.assign(name);
        field.offset = 4 * i as u32;
        field.datatype = 7;
        field.count = 1;
    }
    pc.point_step = 16;
    pc.row_step = 32;
    pc.data.assign(&[0xA5; 32]);
    frame_of(pc)
}

/// `markers` markers with all six variable-size fields assigned each.
fn marker_frame(markers: usize) -> Vec<u8> {
    let mut arr = SfmBox::<SfmMarkerArray>::new();
    arr.markers.resize(markers);
    for i in 0..markers {
        let m = &mut arr.markers[i];
        m.header.frame_id.assign("map");
        m.ns.assign("boxes");
        m.id = i as i32;
        m.points.resize(2);
        m.colors.resize(2);
        m.text.assign("label");
        m.mesh_resource.assign("package://meshes/box.dae");
    }
    frame_of(arr)
}

fn tf_frame() -> Vec<u8> {
    let mut tf = SfmBox::<SfmTFMessage>::new();
    tf.transforms.resize(3);
    for (i, (parent, child)) in [
        ("map", "odom"),
        ("odom", "base_link"),
        ("base_link", "laser"),
    ]
    .into_iter()
    .enumerate()
    {
        let t = &mut tf.transforms[i];
        t.header.frame_id.assign(parent);
        t.child_frame_id.assign(child);
        t.transform.rotation.w = 1.0;
    }
    frame_of(tf)
}

/// `verify_frame` ×1000 on a valid frame: every call passes, none allocates.
fn assert_valid_and_allocation_free<T: SfmMessage>(frame: &[u8], regions: usize) {
    let schema = T::schema().expect("generated types export a schema");
    let report = verify_frame(schema, frame).expect("valid frame");
    assert_eq!(report.regions, regions, "{}", T::type_name());
    assert_eq!(report.covered_bytes + report.gap_bytes, frame.len());
    let allocs = allocs_during(|| {
        for _ in 0..1000 {
            assert_eq!(verify_frame(schema, frame), Ok(report));
        }
    });
    assert_eq!(
        allocs,
        0,
        "verify_frame allocated on valid {} frames",
        T::type_name()
    );
}

#[test]
fn valid_frames_verify_without_allocating() {
    assert_valid_and_allocation_free::<SfmPoseStamped>(&pose_frame(), 1);
    assert_valid_and_allocation_free::<SfmImage>(&image_frame(), 3);
    assert_valid_and_allocation_free::<SfmPointCloud2>(&cloud_frame(), 7);
    assert_valid_and_allocation_free::<SfmMarkerArray>(&marker_frame(3), 19);
    assert_valid_and_allocation_free::<SfmTFMessage>(&tf_frame(), 7);
}

/// More regions than the verifier keeps on the stack: still accepted, with
/// the same accounting; the region list spills, which is the only
/// allocation a passing frame may make.
#[test]
fn many_regions_spill_and_still_verify() {
    let frame = marker_frame(8);
    let schema = SfmMarkerArray::schema().unwrap();
    let report = verify_frame(schema, &frame).expect("valid frame");
    assert_eq!(report.regions, 1 + 8 * 6);
    assert_eq!(report.covered_bytes + report.gap_bytes, frame.len());
    let allocs = allocs_during(|| {
        verify_frame(schema, &frame).unwrap();
    });
    assert!(allocs <= 2, "spill cost {allocs} allocations");
}

fn write_u32(frame: &mut [u8], pos: usize, v: u32) {
    frame[pos..pos + 4].copy_from_slice(&v.to_ne_bytes());
}

fn read_u32(frame: &[u8], pos: usize) -> u32 {
    u32::from_ne_bytes(frame[pos..pos + 4].try_into().unwrap())
}

/// Frame position of the `{len, off}` pair of element `i`'s field at
/// `field_at` inside the vector whose own pair sits at `vec_at`.
fn elem_pair(frame: &[u8], vec_at: usize, elem_size: usize, i: usize, field_at: usize) -> usize {
    vec_at + 4 + read_u32(frame, vec_at + 4) as usize + i * elem_size + field_at
}

fn rejected<T: SfmMessage>(frame: &[u8], path: &str, kind: VerifyErrorKind) {
    let schema = T::schema().unwrap();
    assert_eq!(
        verify_frame(schema, frame),
        Err(VerifyError {
            path: path.to_string(),
            kind
        }),
        "{}",
        T::type_name()
    );
}

#[test]
fn corrupted_pairs_keep_their_exact_diagnostics() {
    use core::mem::{offset_of, size_of};
    use rossf_msg::geometry_msgs::SfmTransformStamped;
    use rossf_msg::sensor_msgs::SfmPointField;
    use rossf_msg::std_msgs::SfmHeader;
    use rossf_msg::visualization_msgs::SfmMarker;

    // Pose: the only pair's offset escapes the frame.
    let mut pose = pose_frame();
    let at = offset_of!(SfmPoseStamped, header) + offset_of!(SfmHeader, frame_id);
    write_u32(&mut pose, at + 4, 4096);
    rejected::<SfmPoseStamped>(
        &pose,
        "header.frame_id",
        OutOfBounds {
            start: 4112,
            end: 4116,
            frame_len: 84,
        },
    );

    // Image: the data vector grows by four bytes past the frame's end.
    let mut img = image_frame();
    let at = offset_of!(SfmImage, data);
    let len = read_u32(&img, at);
    write_u32(&mut img, at, len + 4);
    rejected::<SfmImage>(
        &img,
        "data",
        OutOfBounds {
            start: 68,
            end: 120,
            frame_len: 116,
        },
    );

    // PointCloud2: an element's string loses its offset but keeps its size.
    let mut pc = cloud_frame();
    let at = elem_pair(
        &pc,
        offset_of!(SfmPointCloud2, fields),
        size_of::<SfmPointField>(),
        2,
        offset_of!(SfmPointField, name),
    );
    write_u32(&mut pc, at + 4, 0);
    rejected::<SfmPointCloud2>(&pc, "fields[2].name", ZeroOffsetNonZeroLen { len: 4 });

    // MarkerArray: an element's vector keeps its offset but loses its count.
    let mut arr = marker_frame(3);
    let at = elem_pair(
        &arr,
        offset_of!(SfmMarkerArray, markers),
        size_of::<SfmMarker>(),
        1,
        offset_of!(SfmMarker, colors),
    );
    write_u32(&mut arr, at, 0);
    rejected::<SfmMarkerArray>(&arr, "markers[1].colors", ZeroLenNonZeroOffset);

    // TFMessage: an element's string is re-pointed onto its neighbour's.
    let mut tf = tf_frame();
    let elem = |i, field| {
        elem_pair(
            &tf,
            offset_of!(SfmTFMessage, transforms),
            size_of::<SfmTransformStamped>(),
            i,
            field,
        )
    };
    let parent_at = elem(
        1,
        offset_of!(SfmTransformStamped, header) + offset_of!(SfmHeader, frame_id),
    );
    let child_at = elem(1, offset_of!(SfmTransformStamped, child_frame_id));
    // Same target address, expressed relative to the other pair's offset word.
    let target = parent_at + 4 + read_u32(&tf, parent_at + 4) as usize;
    let stored = read_u32(&tf, parent_at);
    write_u32(&mut tf, child_at, stored);
    write_u32(&mut tf, child_at + 4, (target - (child_at + 4)) as u32);
    rejected::<SfmTFMessage>(
        &tf,
        "transforms[1].child_frame_id",
        Overlap {
            other: "transforms[1].header.frame_id".to_string(),
        },
    );
}

/// Regions a conforming publisher appended in an order other than the
/// declaration order the verifier walks in: disjoint, not ascending.
fn image_frame_assigned_backwards() -> Vec<u8> {
    let mut img = SfmBox::<SfmImage>::new();
    img.data.assign(&[0x5A; 48]);
    img.encoding.assign("rgb8");
    img.header.frame_id.assign("cam0");
    frame_of(img)
}

#[test]
fn out_of_order_regions_are_accepted_when_disjoint_and_rejected_when_not() {
    use core::mem::offset_of;
    use rossf_msg::std_msgs::SfmHeader;

    let frame = image_frame_assigned_backwards();
    let frame_id_at = offset_of!(SfmImage, header) + offset_of!(SfmHeader, frame_id);
    let encoding_at = offset_of!(SfmImage, encoding);
    let start_of = |at| at + 4 + read_u32(&frame, at + 4) as usize;
    assert!(
        start_of(frame_id_at) > start_of(encoding_at),
        "the walk must meet these regions in descending order"
    );
    // Disjoint: accepted, and still without allocating (the sort runs in
    // the inline region list).
    assert_valid_and_allocation_free::<SfmImage>(&frame, 3);

    // Overlapping out of order: `encoding` re-pointed onto `frame_id`'s
    // bytes (same size, so every per-region check still passes).
    let mut bad = frame.clone();
    let target = start_of(frame_id_at);
    write_u32(
        &mut bad,
        encoding_at + 4,
        (target - (encoding_at + 4)) as u32,
    );
    rejected::<SfmImage>(
        &bad,
        "encoding",
        Overlap {
            other: "header.frame_id".to_string(),
        },
    );
}
