//! A small fixed-size job pool for blocking work the reactor thread must
//! never do itself: TCP connects, connection-header handshakes, and
//! supervision steps that take locks or block on timeouts.
//!
//! The pool is deliberately tiny (a handful of threads, independent of
//! link count) — it bounds the process's thread count while the reactor
//! carries all steady-state I/O. Jobs are short-lived by contract;
//! long-lived loops (a subscriber's shm and fast-path consumers, which
//! block on a ring or a channel rather than an fd) own their threads
//! instead.

use crossbeam::channel::{unbounded, Receiver, Sender};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Handle to a fixed set of worker threads draining one shared job queue.
///
/// Cloning shares the queue; the workers exit when every handle is gone
/// and the queue drains.
#[derive(Clone)]
pub struct JobPool {
    tx: Sender<Job>,
    workers: usize,
}

impl std::fmt::Debug for JobPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobPool")
            .field("workers", &self.workers)
            .field("queued", &self.tx.len())
            .finish()
    }
}

impl JobPool {
    /// Spawn `workers` threads (at least one) named `<name>-<i>`.
    pub fn new(workers: usize, name: &str) -> JobPool {
        let workers = workers.max(1);
        let (tx, rx) = unbounded::<Job>();
        for i in 0..workers {
            let rx: Receiver<Job> = rx.clone();
            std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
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

    /// Jobs queued but not yet picked up.
    pub fn backlog(&self) -> usize {
        self.tx.len()
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
        let (tx, rx) = crossbeam::channel::bounded(1);
        pool.spawn(move || {
            tx.send(42u32).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(42));
    }
}
