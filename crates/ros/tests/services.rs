//! Service (request/response) tests over both message families.

use rossf_ros::ser::{ByteReader, DecodeError, RosField, RosMessage};
use rossf_ros::service::ServiceEndpoint;
use rossf_ros::{
    ConnectionHeader, Encode, MachineId, Master, NodeHandle, OutFrame, RosError, TopicType,
    TransportConfig,
};
use rossf_sfm::{SfmBox, SfmError, SfmMessage, SfmPod, SfmShared, SfmValidate, SfmVec};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

// Plain request/response pair (the `rossf-msg` macro would generate this).
#[derive(Debug, Clone, PartialEq, Default)]
struct AddRequest {
    a: i32,
    b: i32,
}
#[derive(Debug, Clone, PartialEq, Default)]
struct AddResponse {
    sum: i32,
}

macro_rules! plain_msg {
    ($t:ident, $name:literal, $($field:ident),+) => {
        impl RosField for $t {
            fn field_len(&self) -> usize {
                0 $(+ self.$field.field_len())+
            }
            fn write_field(&self, out: &mut Vec<u8>) {
                $(self.$field.write_field(out);)+
            }
            fn read_field(r: &mut ByteReader<'_>) -> Result<Self, DecodeError> {
                Ok($t { $($field: RosField::read_field(r)?),+ })
            }
        }
        impl RosMessage for $t {
            fn ros_type_name() -> &'static str {
                $name
            }
        }
        impl TopicType for $t {
            fn topic_type() -> &'static str {
                $name
            }
        }
        impl Encode for $t {
            fn encode(&self) -> OutFrame {
                OutFrame::owned(Arc::new(self.to_bytes()))
            }
        }
    };
}
plain_msg!(AddRequest, "test/AddRequest", a, b);
plain_msg!(AddResponse, "test/AddResponse", sum);

// SFM request/response pair: a blur service over image-like payloads.
#[repr(C)]
#[derive(Debug)]
struct SfmBlob {
    rounds: u32,
    _pad: u32,
    data: SfmVec<u8>,
}
unsafe impl SfmPod for SfmBlob {}
impl SfmValidate for SfmBlob {
    fn validate_in(&self, base: usize, len: usize) -> Result<(), SfmError> {
        self.data.validate_in(base, len)
    }
}
unsafe impl SfmMessage for SfmBlob {
    fn type_name() -> &'static str {
        "test/SfmBlob"
    }
    fn max_size() -> usize {
        1 << 16
    }
}

#[test]
fn plain_service_roundtrip() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "calc");
    let server = nh
        .advertise_service("add_two_ints", |req: Arc<AddRequest>| AddResponse {
            sum: req.a + req.b,
        })
        .expect("advertise service");

    let mut client = nh
        .service_client::<AddRequest, Arc<AddResponse>>("add_two_ints")
        .expect("connect client");
    assert_eq!(client.service(), "add_two_ints");

    for (a, b) in [(1, 2), (-5, 5), (i32::MAX - 1, 1)] {
        let res = client.call(&AddRequest { a, b }).expect("call succeeds");
        assert_eq!(res.sum, a.wrapping_add(b));
    }
    assert_eq!(server.calls(), 3);
    assert_eq!(master.services().names(), vec!["add_two_ints".to_string()]);
}

#[test]
fn sfm_service_roundtrip_zero_serialization() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "imgproc");
    let _server = nh
        .advertise_service("invert", |req: SfmShared<SfmBlob>| {
            // Build the response directly in its wire form.
            let mut res = SfmBox::<SfmBlob>::new();
            res.rounds = req.rounds + 1;
            res.data.resize(req.data.len());
            for (dst, src) in res.data.iter_mut().zip(req.data.iter()) {
                *dst = !*src;
            }
            res
        })
        .expect("advertise sfm service");

    let mut client = nh
        .service_client::<SfmBox<SfmBlob>, SfmShared<SfmBlob>>("invert")
        .expect("connect");
    let mut req = SfmBox::<SfmBlob>::new();
    req.rounds = 1;
    req.data.assign(&[0x00, 0xFF, 0xA5]);
    let res = client.call(&req).expect("call");
    assert_eq!(res.rounds, 2);
    assert_eq!(res.data.as_slice(), &[0xFF, 0x00, 0x5A]);
}

#[test]
fn duplicate_service_name_rejected() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "dup");
    let _first = nh
        .advertise_service("svc", |_: Arc<AddRequest>| AddResponse::default())
        .unwrap();
    let second = nh.advertise_service("svc", |_: Arc<AddRequest>| AddResponse::default());
    assert!(matches!(second, Err(RosError::Rejected(_))));
}

#[test]
fn missing_service_and_type_mismatch_rejected() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "strict");
    assert!(matches!(
        nh.service_client::<AddRequest, Arc<AddResponse>>("nope"),
        Err(RosError::Rejected(_))
    ));

    let _server = nh
        .advertise_service("typed", |req: Arc<AddRequest>| AddResponse { sum: req.a })
        .unwrap();
    // Wrong request type at connect time.
    assert!(matches!(
        nh.service_client::<SfmBox<SfmBlob>, SfmShared<SfmBlob>>("typed"),
        Err(RosError::TypeMismatch { .. })
    ));
}

#[test]
fn server_drop_withdraws_service() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "ephemeral");
    let server = nh
        .advertise_service("gone_soon", |_: Arc<AddRequest>| AddResponse::default())
        .unwrap();
    assert!(master.services().lookup("gone_soon").is_some());
    drop(server);
    assert!(master.services().lookup("gone_soon").is_none());
    // And the name becomes reusable.
    let again = nh.advertise_service("gone_soon", |_: Arc<AddRequest>| AddResponse::default());
    assert!(again.is_ok());
}

#[test]
fn sequential_calls_share_one_connection() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "seq");
    let server = nh
        .advertise_service("echo", |req: Arc<AddRequest>| AddResponse { sum: req.a })
        .unwrap();
    let mut client = nh
        .service_client::<AddRequest, Arc<AddResponse>>("echo")
        .unwrap();
    for i in 0..20 {
        assert_eq!(client.call(&AddRequest { a: i, b: 0 }).unwrap().sum, i);
    }
    assert_eq!(server.calls(), 20);
}

// === Hostile bytes, both directions ===
//
// What a peer may cost either end before it has said anything well-formed:
// every length below is bounded by `MAX_FRAME_LEN`, and every wait by the
// node's `TransportConfig::handshake_timeout`.

/// The test's own deadline for anything read off a raw socket.
const DEADLINE: Duration = Duration::from_secs(5);

#[test]
fn hostile_request_prefix_hangs_up_without_serving() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "hostile_req");
    let server = nh
        .advertise_service("add", |req: Arc<AddRequest>| AddResponse {
            sum: req.a + req.b,
        })
        .unwrap();
    let addr = master.services().lookup("add").unwrap().addr;

    // A raw client completes the handshake, then claims a 4 GiB request.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(DEADLINE)).unwrap();
    ConnectionHeader::new()
        .with("service", "add")
        .with("req_type", "test/AddRequest")
        .with("res_type", "test/AddResponse")
        .write_to(&mut raw)
        .unwrap();
    let reply = ConnectionHeader::read_from(&mut raw).unwrap();
    assert_eq!(reply.get("service"), Some("add"));
    raw.write_all(&[0xFF; 4]).unwrap();
    match raw.read(&mut [0u8; 16]) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("the server must hang up on the prefix alone, got {other:?}"),
    }
    assert_eq!(server.calls(), 0);

    // The next well-formed client is served.
    let mut client = nh
        .service_client::<AddRequest, Arc<AddResponse>>("add")
        .unwrap();
    assert_eq!(client.call(&AddRequest { a: 2, b: 3 }).unwrap().sum, 5);
    assert_eq!(server.calls(), 1);
}

/// Pose as service `name` of the add types on `master`: accept one client
/// and hand its socket to `script`.
fn fake_server(
    master: &Master,
    name: &str,
    script: impl FnOnce(TcpStream) + Send + 'static,
) -> std::thread::JoinHandle<()> {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let endpoint = ServiceEndpoint {
        addr: listener.local_addr().unwrap(),
        req_type: "test/AddRequest".to_string(),
        res_type: "test/AddResponse".to_string(),
        id: 1,
    };
    master.services().register(name, endpoint).unwrap();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(DEADLINE)).unwrap();
        script(stream);
    })
}

#[test]
fn hostile_response_prefix_is_refused_before_allocation() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "hostile_res");
    let server = fake_server(&master, "fake_add", |mut stream| {
        ConnectionHeader::read_from(&mut stream).unwrap();
        ConnectionHeader::new()
            .with("service", "fake_add")
            .with("endian", ConnectionHeader::native_endian())
            .write_to(&mut stream)
            .unwrap();
        // Whatever the request, the response claims 4 GiB.
        let mut request = [0u8; 12];
        stream.read_exact(&mut request).unwrap();
        stream.write_all(&[0xFF; 4]).unwrap();
        // Held open until the client has judged the prefix (it hangs up).
        let _ = stream.read(&mut [0u8; 1]);
    });
    let mut client = nh
        .service_client::<AddRequest, Arc<AddResponse>>("fake_add")
        .unwrap();
    match client.call(&AddRequest { a: 1, b: 1 }) {
        Err(RosError::FrameTooLarge { len, max }) => {
            assert_eq!(len, u32::MAX as usize);
            assert_eq!(max, rossf_ros::wire::MAX_FRAME_LEN);
        }
        other => panic!("a 4 GiB response prefix must be refused, got {other:?}"),
    }
    server.join().unwrap();
}

#[test]
fn cross_endian_service_is_refused_at_connect() {
    let master = Master::new();
    let nh = NodeHandle::new(&master, "endian");
    let server = fake_server(&master, "be_add", |mut stream| {
        ConnectionHeader::read_from(&mut stream).unwrap();
        ConnectionHeader::new()
            .with("service", "be_add")
            .with("endian", "be")
            .write_to(&mut stream)
            .unwrap();
    });
    match nh.service_client::<AddRequest, Arc<AddResponse>>("be_add") {
        Err(RosError::Rejected(why)) => assert!(why.contains("is be"), "{why}"),
        other => panic!("a big-endian server must be refused, got {other:?}"),
    }
    server.join().unwrap();
}

#[test]
fn silent_server_cannot_pin_a_connecting_client() {
    let master = Master::new();
    let timeout = Duration::from_millis(200);
    let config = TransportConfig {
        handshake_timeout: timeout,
        ..TransportConfig::default()
    };
    let nh = NodeHandle::with_config(&master, "impatient", MachineId::A, config);
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let server = fake_server(&master, "mute_add", move |_stream| {
        // Accepts, never answers; holds the socket until the client gave up.
        let _ = done_rx.recv_timeout(DEADLINE);
    });
    let started = Instant::now();
    let result = nh.service_client::<AddRequest, Arc<AddResponse>>("mute_add");
    let waited = started.elapsed();
    assert!(matches!(result, Err(RosError::Io(_))), "got {result:?}");
    assert!(
        waited >= timeout && waited < 2 * timeout,
        "gave up after {waited:?}"
    );
    done_tx.send(()).unwrap();
    server.join().unwrap();
}
