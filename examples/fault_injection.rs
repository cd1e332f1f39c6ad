//! Fault injection and automatic reconnection, end to end.
//!
//! Streams SFM images from a publisher on machine A to a subscriber on
//! machine B, severs the link mid-stream with the netsim fault injector,
//! watches the subscriber retry under backoff, heals the link, and shows
//! delivery resume — then dumps the per-topic transport metrics.
//!
//! ```text
//! cargo run --example fault_injection
//! ```

use rossf::netsim::MachineId;
use rossf::prelude::*;
use rossf_msg::sensor_msgs::SfmImage;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let master = Master::new();
    let fault = master.links().inject(MachineId::A, MachineId::B);

    // Fast backoff so the demo finishes in a couple of seconds.
    let config = TransportConfig {
        backoff: BackoffPolicy {
            initial: Duration::from_millis(5),
            max: Duration::from_millis(80),
            ..BackoffPolicy::default()
        },
        ..TransportConfig::default()
    };
    let nh_pub = NodeHandle::new(&master, "camera");
    let nh_sub = NodeHandle::with_config(&master, "viewer", MachineId::B, config);

    let publisher = nh_pub
        .advertise_with::<SfmBox<SfmImage>>("camera/image", PublisherOptions::new().queue_size(16));
    let seen = Arc::new(AtomicU64::new(0));
    let seen_cb = Arc::clone(&seen);
    let sub = nh_sub.subscribe_with(
        "camera/image",
        SubscriberOptions::new(),
        move |img: SfmShared<SfmImage>| {
            assert_eq!(img.encoding.as_str(), "rgb8");
            seen_cb.fetch_add(1, Ordering::SeqCst);
        },
    );
    nh_pub.wait_for_subscribers(&publisher, 1);

    let publish_one = |seq: u32| {
        let mut img = SfmBox::<SfmImage>::new();
        img.header.seq = seq;
        img.encoding.assign("rgb8");
        img.height = 48;
        img.width = 64;
        img.data.resize(48 * 64 * 3);
        publisher.publish(&img);
    };
    let publish_until = |seq: &mut u32, what: &str, cond: &dyn Fn() -> bool| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            publish_one(*seq);
            *seq += 1;
            std::thread::sleep(Duration::from_millis(3));
        }
    };

    let mut seq = 0;
    publish_until(&mut seq, "healthy delivery", &|| {
        seen.load(Ordering::SeqCst) >= 5
    });
    println!(
        "[demo] healthy: {} frames delivered",
        seen.load(Ordering::SeqCst)
    );

    println!("[demo] severing the A<->B link mid-stream...");
    fault.sever_now();
    publish_until(&mut seq, "reconnect attempts", &|| {
        sub.stats().reconnect_attempts >= 3
    });
    println!(
        "[demo] link down: {} reconnect attempts under backoff, 0 reconnects",
        sub.stats().reconnect_attempts
    );

    println!("[demo] healing the link...");
    fault.heal();
    let before = seen.load(Ordering::SeqCst);
    publish_until(&mut seq, "delivery to resume", &|| {
        seen.load(Ordering::SeqCst) > before
    });
    let stats = sub.stats();
    println!(
        "[demo] recovered: reconnects={}, delivery resumed ({} frames total), decode errors={}",
        stats.reconnects,
        seen.load(Ordering::SeqCst),
        stats.decode_errors
    );
    assert!(stats.reconnects >= 1);
    assert_eq!(stats.decode_errors, 0);

    print!("{}", master.metrics().render());
}
