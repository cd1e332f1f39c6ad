//! A small fixed-size job pool for blocking work the reactor thread must
//! never do itself: TCP connects, connection-header handshakes, and
//! supervision steps that take locks or block on timeouts.
//!
//! The pool is deliberately tiny (a handful of threads, independent of
//! link count) — it bounds the process's thread count while the reactor
//! carries all steady-state I/O, every link's consumer included. Jobs are
//! short-lived by contract.

use parking_lot::Mutex;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Handle to a fixed set of worker threads draining one shared job queue.
///
/// Cloning shares the queue; the workers exit when every handle is gone
/// and the queue drains.
#[derive(Clone, Debug)]
pub struct JobPool {
    tx: Sender<Job>,
    workers: usize,
}

impl JobPool {
    /// Spawn `workers` threads (at least one) named `<name>-<i>`.
    pub fn new(workers: usize, name: &str) -> JobPool {
        let workers = workers.max(1);
        let (tx, rx) = channel::<Job>();
        // The workers share the one receiver: whoever holds the lock waits
        // for the next job, and runs it after letting go.
        let rx = Arc::new(Mutex::new(rx));
        for i in 0..workers {
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || loop {
                    let next = rx.lock().recv();
                    match next {
                        Ok(job) => job(),
                        Err(_) => return,
                    }
                })
                .expect("spawn pool worker");
        }
        JobPool { tx, workers }
    }

    /// Queue `job` for execution on some worker. Jobs must be short-lived:
    /// a job that blocks forever permanently shrinks the pool.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        // The queue is unbounded and the workers only stop when every
        // sender is gone, so a send can only fail after `self` is dropped.
        let _ = self.tx.send(Box::new(job));
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn jobs_run_and_pool_reports_shape() {
        let pool = JobPool::new(3, "test-pool");
        assert_eq!(pool.workers(), 3);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..64 {
            let done = Arc::clone(&done);
            pool.spawn(move || {
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while done.load(Ordering::Relaxed) < 64 {
            assert!(Instant::now() < deadline, "jobs did not finish");
            std::thread::yield_now();
        }
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let pool = JobPool::new(0, "clamped");
        assert_eq!(pool.workers(), 1);
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn(move || {
            tx.send(42u32).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(42));
    }
}
