//! [`JobPool`], a handle with no thread of its own: a job runs on the
//! reactor's loop thread, like every other piece of work in the process.
//!
//! No production code calls it. It is kept, with [`Runtime::pool`], for
//! the message-path benchmark's dispatch probe alone, which times
//! `spawn` → job start.
//!
//! [`Runtime::pool`]: crate::Runtime::pool

use crate::Reactor;
use std::time::Duration;

/// Runs jobs on one reactor's loop thread.
#[derive(Clone, Debug)]
pub struct JobPool(pub(crate) Reactor);

impl JobPool {
    /// Run `job` on the loop thread, as a zero-delay [`Reactor::timer`].
    /// It shares the loop with every link, so it must be brief and must
    /// not block.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.0.timer(Duration::ZERO, move |_| job());
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime;
    use std::time::Duration;

    #[test]
    fn a_job_runs_on_the_loop_thread() {
        let (tx, rx) = std::sync::mpsc::channel();
        runtime().pool.spawn(move || {
            let _ = tx.send(std::thread::current().name().map(str::to_string));
        });
        let ran_on = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(ran_on.as_deref(), Some("rossf-reactor"));
    }
}
