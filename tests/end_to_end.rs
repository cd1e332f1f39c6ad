//! Cross-crate integration tests: the whole system assembled the way a
//! downstream robotics project would use it.

use rossf::prelude::*;
use rossf::sfm::{mm, MessageState};
use rossf_msg::geometry_msgs::{PoseStamped, SfmPoseStamped};
use rossf_msg::sensor_msgs::{LaserScan, SfmPointCloud2};
use rossf_msg::std_msgs::Header as MsgHeader;
use rossf_ros::time::RosTime;
use rossf_ros::LinkProfile;
use rossf_sfm::SfmBox;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

#[test]
fn mixed_type_robot_graph_plain_and_sfm() {
    // A small robot graph: one node publishes plain LaserScan, another
    // publishes SFM PointCloud2; both delivered to dedicated consumers
    // through the same master.
    let master = Master::new();
    let nh = NodeHandle::new(&master, "robot");

    let scan_pub =
        nh.advertise_with::<LaserScan>("mixed/scan", PublisherOptions::new().queue_size(8));
    let cloud_pub = nh.advertise_with::<SfmBox<SfmPointCloud2>>(
        "mixed/cloud",
        PublisherOptions::new().queue_size(8),
    );

    let (scan_tx, scan_rx) = mpsc::channel();
    let _s1 = nh.subscribe_with(
        "mixed/scan",
        SubscriberOptions::new(),
        move |m: Arc<LaserScan>| {
            scan_tx.send(m.ranges.len()).unwrap();
        },
    );
    let (cloud_tx, cloud_rx) = mpsc::channel();
    let _s2 = nh.subscribe_with(
        "mixed/cloud",
        SubscriberOptions::new(),
        move |m: SfmShared<SfmPointCloud2>| {
            cloud_tx.send((m.width, m.data.len())).unwrap();
        },
    );
    nh.wait_for_subscribers(&scan_pub, 1);
    nh.wait_for_subscribers(&cloud_pub, 1);

    scan_pub.publish(&LaserScan {
        header: MsgHeader::default(),
        ranges: vec![1.0; 360],
        intensities: vec![0.5; 360],
        ..LaserScan::default()
    });
    assert_eq!(scan_rx.recv_timeout(TIMEOUT).unwrap(), 360);

    let mut cloud = SfmBox::<SfmPointCloud2>::new();
    cloud.width = 100;
    cloud.point_step = 16;
    cloud.data.resize(1600);
    cloud_pub.publish(&cloud);
    assert_eq!(cloud_rx.recv_timeout(TIMEOUT).unwrap(), (100, 1600));

    assert_eq!(master.topic_names().len(), 2);
}

#[test]
fn sfm_relay_republishes_without_copy() {
    // receiver relays the *same* received message object to a second
    // topic — the zero-copy relay the SFM life cycle enables.
    let master = Master::new();
    let nh = NodeHandle::new(&master, "relay");
    let p1 =
        nh.advertise_with::<SfmBox<SfmImage>>("relay/in", PublisherOptions::new().queue_size(8));
    let p2 = nh
        .advertise_with::<SfmShared<SfmImage>>("relay/out", PublisherOptions::new().queue_size(8));

    let p2_cb = p2.clone();
    let _mid = nh.subscribe_with(
        "relay/in",
        SubscriberOptions::new(),
        move |m: SfmShared<SfmImage>| {
            p2_cb.publish(&m); // republish the received object verbatim
        },
    );
    let (tx, rx) = mpsc::channel();
    let _out = nh.subscribe_with(
        "relay/out",
        SubscriberOptions::new(),
        move |m: SfmShared<SfmImage>| {
            tx.send((m.width, m.data.len())).unwrap();
        },
    );
    nh.wait_for_subscribers(&p1, 1);
    nh.wait_for_subscribers(&p2, 1);

    let mut img = SfmBox::<SfmImage>::new();
    img.width = 77;
    img.data.resize(1024);
    p1.publish(&img);
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap(), (77, 1024));
}

#[test]
fn lifecycle_states_follow_fig8_and_fig9() {
    // This test pins the *wire adoption* life cycle: the subscriber reads
    // the frame into a fresh allocation with its own manager record
    // (Fig. 9's dummy de-serialization). Force the TCP path — the
    // same-machine zero-copy fast path shares the publisher's allocation
    // instead (no second record; covered in crates/ros/tests/fastpath.rs).
    let master = Master::new();
    let config = rossf_ros::TransportConfig {
        enable_fastpath: false,
        ..rossf_ros::TransportConfig::default()
    };
    let nh = NodeHandle::with_config(&master, "lifecycle", rossf_ros::MachineId::A, config);
    let publisher = nh.advertise_with::<SfmBox<SfmImage>>(
        "lifecycle/topic",
        PublisherOptions::new().queue_size(8),
    );
    let (tx, rx) = mpsc::channel();
    let _sub = nh.subscribe_with(
        "lifecycle/topic",
        SubscriberOptions::new(),
        move |m: SfmShared<SfmImage>| {
            tx.send(m).unwrap();
        },
    );
    nh.wait_for_subscribers(&publisher, 1);

    // Publisher side (Fig. 8).
    let mut img = SfmBox::<SfmImage>::new();
    img.data.resize(256);
    let pub_base = img.base();
    assert_eq!(mm().info(pub_base).unwrap().state, MessageState::Allocated);
    publisher.publish(&img);
    assert_eq!(mm().info(pub_base).unwrap().state, MessageState::Published);
    drop(img); // developer releases the message object
    assert!(mm().info(pub_base).is_none(), "record released on delete");

    // Subscriber side (Fig. 9).
    let received = rx.recv_timeout(TIMEOUT).unwrap();
    let sub_base = received.base();
    assert_eq!(
        mm().info(sub_base).unwrap().state,
        MessageState::Published,
        "adopted message is born Published"
    );
    let clone = received.clone(); // callback keeps a reference
    drop(received);
    assert!(
        mm().info(sub_base).is_some(),
        "alive while references exist"
    );
    drop(clone);
    assert!(
        mm().info(sub_base).is_none(),
        "released with last reference"
    );
}

#[test]
fn inter_machine_graph_mixed_families_with_shaping() {
    let master = Master::new();
    master.links().connect(
        rossf_ros::MachineId::A,
        rossf_ros::MachineId::B,
        LinkProfile::gigabit(),
    );
    let nh_a = NodeHandle::new(&master, "base");
    let nh_b = NodeHandle::with_machine(&master, "arm", rossf_ros::MachineId::B);

    let pose_pub = nh_a.advertise_with::<SfmBox<SfmPoseStamped>>(
        "cross/pose",
        PublisherOptions::new().queue_size(8),
    );
    let (tx, rx) = mpsc::channel();
    let _sub = nh_b.subscribe_with(
        "cross/pose",
        SubscriberOptions::new(),
        move |m: SfmShared<SfmPoseStamped>| {
            tx.send((m.pose.position.x, m.header.frame_id.as_str().to_string()))
                .unwrap();
        },
    );
    nh_a.wait_for_subscribers(&pose_pub, 1);

    let mut pose = SfmBox::<SfmPoseStamped>::new();
    pose.header.frame_id.assign("world");
    pose.header.stamp = RosTime::now();
    pose.pose.position.x = 3.25;
    pose.pose.orientation.w = 1.0;
    pose_pub.publish(&pose);
    let (x, frame) = rx.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(x, 3.25);
    assert_eq!(frame, "world");
}

#[test]
fn plain_and_sfm_agree_on_content_after_network_trip() {
    // Serialize a plain PoseStamped over the wire; convert the same data
    // through the SFM family; both receivers must observe identical
    // content.
    let master = Master::new();
    let nh = NodeHandle::new(&master, "agree");

    let original = PoseStamped {
        header: MsgHeader {
            seq: 9,
            stamp: RosTime { sec: 4, nsec: 5 },
            frame_id: "odom".to_string(),
        },
        ..PoseStamped::default()
    };

    let p_plain =
        nh.advertise_with::<PoseStamped>("agree/plain", PublisherOptions::new().queue_size(8));
    let (tx1, rx1) = mpsc::channel();
    let _s1 = nh.subscribe_with(
        "agree/plain",
        SubscriberOptions::new(),
        move |m: Arc<PoseStamped>| {
            tx1.send((*m).clone()).unwrap();
        },
    );
    let p_sfm = nh.advertise_with::<SfmBox<SfmPoseStamped>>(
        "agree/sfm",
        PublisherOptions::new().queue_size(8),
    );
    let (tx2, rx2) = mpsc::channel();
    let _s2 = nh.subscribe_with(
        "agree/sfm",
        SubscriberOptions::new(),
        move |m: SfmShared<SfmPoseStamped>| {
            tx2.send(m.to_plain()).unwrap();
        },
    );
    nh.wait_for_subscribers(&p_plain, 1);
    nh.wait_for_subscribers(&p_sfm, 1);

    p_plain.publish(&original);
    p_sfm.publish(&SfmPoseStamped::boxed_from_plain(&original));

    let got_plain = rx1.recv_timeout(TIMEOUT).unwrap();
    let got_sfm = rx2.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(got_plain, original);
    assert_eq!(got_sfm, original);
}

#[test]
fn assumption_violation_is_caught_at_runtime_end_to_end() {
    // A full-stack rerun of the paper's Fig. 19 failure, with the alert
    // observed at the API level.
    let _prev = rossf::sfm::set_alert_policy(rossf::sfm::AlertPolicy::Count);
    rossf::sfm::reset_alert_counts();

    let mut img = SfmBox::<SfmImage>::new();
    img.header.frame_id.assign("camera");
    img.header.frame_id.assign("rotated_camera"); // Fig. 19 violation
    let (strings, _) = rossf::sfm::alert_counts();
    assert!(strings >= 1);

    // ...and the static checker catches the same pattern in source form.
    let report = rossf::checker::analyze_source(
        "e2e.cpp",
        "sensor_msgs::Image img;\nimg.header.frame_id = \"a\";\nimg.header.frame_id = \"b\";\n",
    );
    assert_eq!(
        report
            .violations_of(rossf::checker::ViolationKind::StringReassignment)
            .len(),
        1
    );
    rossf::sfm::set_alert_policy(rossf::sfm::AlertPolicy::Panic);
    rossf::sfm::reset_alert_counts();
}

#[test]
fn idl_generated_types_flow_through_the_middleware() {
    // nav_msgs/Odometry was generated at build time by rossf-idl; use it
    // on a live topic in both directions.
    use rossf_msg::nav_msgs::{Odometry, SfmOdometry};

    let master = Master::new();
    let nh = NodeHandle::new(&master, "gen");
    let p =
        nh.advertise_with::<SfmBox<SfmOdometry>>("gen/odom", PublisherOptions::new().queue_size(8));
    let (tx, rx) = mpsc::channel();
    let _s = nh.subscribe_with(
        "gen/odom",
        SubscriberOptions::new(),
        move |m: SfmShared<SfmOdometry>| {
            tx.send(m.to_plain()).unwrap();
        },
    );
    nh.wait_for_subscribers(&p, 1);

    let mut odom = Odometry {
        child_frame_id: "base_link".to_string(),
        ..Odometry::default()
    };
    odom.pose.pose.position.y = -1.5;
    odom.pose.covariance[10] = 0.125;
    p.publish(&SfmOdometry::boxed_from_plain(&odom));
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap(), odom);
}
