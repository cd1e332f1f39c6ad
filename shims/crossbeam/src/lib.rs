//! Minimal offline stand-in for the `crossbeam` crate.
//!
//! Provides the `crossbeam::channel` subset the workspace uses: MPMC
//! `bounded`/`unbounded` channels with cloneable senders and receivers,
//! `send`/`try_send`/`recv`/`recv_timeout`/`iter`/`len`, and crossbeam's
//! disconnect semantics (receive fails once the queue is empty *and* all
//! senders are gone; send fails once all receivers are gone).

#![deny(missing_docs)]

/// MPMC channels with crossbeam's API.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked in (or about to enter) a `not_empty` wait.
        rx_waiting: usize,
        /// Senders blocked in (or about to enter) a `not_full` wait.
        tx_waiting: usize,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    #[cfg(test)]
    thread_local! {
        /// Condvar notifies the current thread issued — each one is a
        /// `futex(FUTEX_WAKE)` in std, waiter or no waiter.
        pub(crate) static NOTIFIES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Wake one thread blocked on `cv` — if `waiting`, the count its
    /// waiters keep under the channel mutex, says there is one. Most
    /// hand-offs in this workspace go to a consumer that only ever polls
    /// (`try_recv` from an event loop), and an unconditional notify is a
    /// syscall to nobody on each of them.
    fn notify_one(cv: &Condvar, waiting: usize) {
        if waiting != 0 {
            #[cfg(test)]
            NOTIFIES.with(|n| n.set(n.get() + 1));
            cv.notify_one();
        }
    }

    impl<T> Shared<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Sender::try_send`].
    pub enum TrySendError<T> {
        /// The channel is bounded and at capacity; the message is returned.
        Full(T),
        /// All receivers are gone; the message is returned.
        Disconnected(T),
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
            }
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// The sending half of a channel. Cloneable; the channel disconnects
    /// for receivers when the last clone drops.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel. Cloneable; the channel disconnects
    /// for senders when the last clone drops.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Create a bounded MPMC channel holding at most `cap` messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        new_channel(Some(cap))
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_channel(None)
    }

    fn new_channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
                rx_waiting: 0,
                tx_waiting: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Send `msg`, blocking while a bounded channel is full.
        ///
        /// # Errors
        ///
        /// [`SendError`] when every receiver has been dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.lock();
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(msg));
                }
                match inner.cap {
                    Some(cap) if inner.queue.len() >= cap => {
                        inner.tx_waiting += 1;
                        inner = self
                            .shared
                            .not_full
                            .wait(inner)
                            .unwrap_or_else(PoisonError::into_inner);
                        inner.tx_waiting -= 1;
                    }
                    _ => break,
                }
            }
            inner.queue.push_back(msg);
            let rx_waiting = inner.rx_waiting;
            drop(inner);
            notify_one(&self.shared.not_empty, rx_waiting);
            Ok(())
        }

        /// Send without blocking.
        ///
        /// # Errors
        ///
        /// [`TrySendError::Full`] when a bounded channel is at capacity,
        /// [`TrySendError::Disconnected`] when every receiver is gone.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut inner = self.shared.lock();
            if inner.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if let Some(cap) = inner.cap {
                if inner.queue.len() >= cap {
                    return Err(TrySendError::Full(msg));
                }
            }
            inner.queue.push_back(msg);
            let rx_waiting = inner.rx_waiting;
            drop(inner);
            notify_one(&self.shared.not_empty, rx_waiting);
            Ok(())
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// `true` when no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Receivers currently blocked on this channel.
        #[cfg(test)]
        pub(crate) fn rx_waiting(&self) -> usize {
            self.shared.lock().rx_waiting
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.lock().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let last = {
                let mut inner = self.shared.lock();
                inner.senders -= 1;
                inner.senders == 0
            };
            if last {
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receive a message, blocking until one arrives.
        ///
        /// # Errors
        ///
        /// [`RecvError`] when the channel is empty and every sender is
        /// gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.lock();
            loop {
                if let Some(msg) = inner.queue.pop_front() {
                    let tx_waiting = inner.tx_waiting;
                    drop(inner);
                    notify_one(&self.shared.not_full, tx_waiting);
                    return Ok(msg);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner.rx_waiting += 1;
                inner = self
                    .shared
                    .not_empty
                    .wait(inner)
                    .unwrap_or_else(PoisonError::into_inner);
                inner.rx_waiting -= 1;
            }
        }

        /// Receive with a deadline.
        ///
        /// # Errors
        ///
        /// [`RecvTimeoutError::Timeout`] when nothing arrives in time,
        /// [`RecvTimeoutError::Disconnected`] when every sender is gone.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.shared.lock();
            loop {
                if let Some(msg) = inner.queue.pop_front() {
                    let tx_waiting = inner.tx_waiting;
                    drop(inner);
                    notify_one(&self.shared.not_full, tx_waiting);
                    return Ok(msg);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                inner.rx_waiting += 1;
                let (guard, _timed_out) = self
                    .shared
                    .not_empty
                    .wait_timeout(inner, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
                inner = guard;
                inner.rx_waiting -= 1;
            }
        }

        /// Receive without blocking.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] or [`TryRecvError::Disconnected`].
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.lock();
            if let Some(msg) = inner.queue.pop_front() {
                let tx_waiting = inner.tx_waiting;
                drop(inner);
                notify_one(&self.shared.not_full, tx_waiting);
                return Ok(msg);
            }
            if inner.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Blocking iterator over received messages; ends on disconnect.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.shared.lock().queue.len()
        }

        /// `true` when no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let last = {
                let mut inner = self.shared.lock();
                inner.receivers -= 1;
                inner.receivers == 0
            };
            if last {
                self.shared.not_full.notify_all();
            }
        }
    }

    /// Iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;

        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn bounded_try_send_full_and_disconnect() {
        let (tx, rx) = bounded::<u32>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(tx.len(), 2);
        drop(rx);
        assert!(matches!(tx.try_send(4), Err(TrySendError::Disconnected(4))));
    }

    fn notifies() -> usize {
        super::channel::NOTIFIES.with(|n| n.get())
    }

    /// A hand-off to a consumer that only polls wakes nobody, so it must
    /// not pay for a wake-up: neither the sends nor the pops notify.
    #[test]
    fn a_send_with_no_blocked_receiver_does_not_notify() {
        let (tx, rx) = bounded::<u32>(4);
        let before = notifies();
        for i in 0..4 {
            tx.try_send(i).unwrap();
        }
        for i in 0..4 {
            assert_eq!(rx.try_recv(), Ok(i));
        }
        tx.send(9).unwrap();
        assert_eq!(rx.recv(), Ok(9));
        assert_eq!(notifies(), before, "a notify with nobody blocked");
    }

    /// The gate's other side: a receiver that is blocked is counted, and
    /// the send that ends its wait issues exactly one notify.
    #[test]
    fn a_send_to_a_blocked_receiver_notifies_once() {
        let (tx, rx) = bounded::<u32>(1);
        let h = std::thread::spawn(move || rx.recv());
        while tx.rx_waiting() == 0 {
            std::thread::yield_now();
        }
        let before = notifies();
        tx.send(7).unwrap();
        assert_eq!(notifies(), before + 1);
        assert_eq!(h.join().unwrap(), Ok(7));
    }

    #[test]
    fn recv_drains_then_disconnects() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn recv_timeout_times_out() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(9));
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = bounded::<u32>(1);
        let h = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(20));
        tx.send(5).unwrap();
        assert_eq!(h.join().unwrap(), Ok(5));
    }

    #[test]
    fn iter_ends_on_disconnect() {
        let (tx, rx) = unbounded::<u32>();
        let h = std::thread::spawn(move || rx.iter().collect::<Vec<_>>());
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(h.join().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn mpmc_clones_share_queue() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        let a = rx.recv().unwrap();
        let b = rx2.recv().unwrap();
        let mut got = vec![a, b];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn bounded_send_blocks_until_room() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        let h = std::thread::spawn(move || {
            tx.send(2).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        h.join().unwrap();
        assert_eq!(rx.recv(), Ok(2));
    }
}
