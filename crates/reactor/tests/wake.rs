//! The wake path under load: producers write the wake-up descriptor only
//! when the loop announced a block, and nothing reads it — so a lost
//! wake-up (work queued, loop blocked, nobody waking it) would park the
//! loop for good. No timer is armed in these tests: the loop blocks without
//! a timeout, and a lost wake-up shows as a hang the deadline turns into a
//! failure, never as a silent timeout-driven recovery.

use rossf_reactor::{Ctl, Event, Handler, Reactor, Token};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

/// One link's hand-off: producers bump `queued` *before* notifying; each
/// `Notify` dispatch copies what it sees into `seen`.
#[derive(Default)]
struct Mailbox {
    queued: AtomicU64,
    seen: AtomicU64,
    dispatches: AtomicU64,
}

struct Drain {
    /// The registered descriptor and its peer, kept open (a dropped peer
    /// would be a standing hangup event); never read or written.
    _sockets: (UnixStream, UnixStream),
    mailbox: Arc<Mailbox>,
}

impl Handler for Drain {
    fn on_event(&mut self, event: Event, _ctl: &mut Ctl<'_>) {
        if event == Event::Notify {
            // ORDER: SeqCst on both sides of the hand-off keeps the test's
            // own bookkeeping out of the question: a dispatch that starts
            // after a producer's `notify` returned reads that producer's
            // bump.
            let queued = self.mailbox.queued.load(Ordering::SeqCst);
            self.mailbox.seen.store(queued, Ordering::SeqCst);
            self.mailbox.dispatches.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn register_drains(reactor: &Reactor, n: usize) -> Vec<(Token, Arc<Mailbox>)> {
    (0..n)
        .map(|_| {
            let sockets = UnixStream::pair().unwrap();
            sockets.0.set_nonblocking(true).unwrap();
            let mailbox = Arc::new(Mailbox::default());
            let fd = sockets.0.as_raw_fd();
            let token = reactor.register(
                fd,
                false,
                false,
                Box::new(Drain {
                    _sockets: sockets,
                    mailbox: Arc::clone(&mailbox),
                }),
            );
            (token, mailbox)
        })
        .collect()
}

#[test]
fn no_notify_is_lost_under_contention() {
    const PRODUCERS: usize = 4;
    const NOTIFIES: usize = 100_000;
    const LINKS: usize = 8;

    let reactor = Reactor::new("test-reactor-stress");
    let links = Arc::new(register_drains(&reactor, LINKS));
    let start = Arc::new(Barrier::new(PRODUCERS));
    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let (reactor, links, start) = (reactor.clone(), Arc::clone(&links), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for k in 0..NOTIFIES {
                    let (token, mailbox) = &links[(p + k) % LINKS];
                    // ORDER: see `Drain::on_event`.
                    mailbox.queued.fetch_add(1, Ordering::SeqCst);
                    reactor.notify(*token);
                    // Let the loop reach its blocking wait now and then, so
                    // the announce / re-check / block window is exercised
                    // and not only the loop-is-busy path.
                    if k % 1024 == p {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            })
        })
        .collect();
    for t in producers {
        t.join().unwrap();
    }
    // Every producer's last notify (and every one before it) must be
    // followed by a dispatch that sees its bump.
    let deadline = Instant::now() + Duration::from_secs(30);
    for (i, (_, mailbox)) in links.iter().enumerate() {
        let queued = mailbox.queued.load(Ordering::SeqCst);
        assert_eq!(queued as usize, PRODUCERS * NOTIFIES / LINKS);
        while mailbox.seen.load(Ordering::SeqCst) != queued {
            assert!(
                Instant::now() < deadline,
                "link {i}: work queued ({queued}) but the last dispatch saw {} — a wake-up was lost",
                mailbox.seen.load(Ordering::SeqCst)
            );
            std::thread::yield_now();
        }
        let dispatches = mailbox.dispatches.load(Ordering::Relaxed);
        assert!(
            dispatches >= 1 && dispatches <= queued + 1,
            "link {i}: {dispatches} dispatches for {queued} notifies (+1 registration prime)"
        );
    }
    reactor.shutdown();
}

/// Reports each `Notify` dispatch on a channel.
struct Report {
    _sockets: (UnixStream, UnixStream),
    tx: mpsc::Sender<()>,
}

impl Handler for Report {
    fn on_event(&mut self, event: Event, _ctl: &mut Ctl<'_>) {
        if event == Event::Notify {
            let _ = self.tx.send(());
        }
    }
}

/// Two wake-ups with the loop back in its blocking wait in between: the
/// second must be observed although nothing ever read the counter the
/// first one bumped (it is watched edge-triggered, so "still nonzero" is
/// not "still ready", and a new bump is a new edge).
#[test]
fn separated_wakeups_are_each_observed() {
    let reactor = Reactor::new("test-reactor-edges");
    let sockets = UnixStream::pair().unwrap();
    sockets.0.set_nonblocking(true).unwrap();
    let (tx, rx) = mpsc::channel();
    let fd = sockets.0.as_raw_fd();
    let token = reactor.register(
        fd,
        false,
        false,
        Box::new(Report {
            _sockets: sockets,
            tx,
        }),
    );
    let wait = Duration::from_secs(10);
    rx.recv_timeout(wait).expect("registration prime");
    for round in 0..3 {
        // No timer is armed and nothing is queued: once the loop has had
        // time to finish its iteration it is blocked for good until woken.
        std::thread::sleep(Duration::from_millis(20));
        assert!(rx.try_recv().is_err(), "round {round}: spurious dispatch");
        reactor.notify(token);
        rx.recv_timeout(wait)
            .unwrap_or_else(|_| panic!("round {round}: wake-up not observed"));
    }
    reactor.shutdown();
}
