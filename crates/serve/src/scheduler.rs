//! [`SessionScheduler`] — a fixed worker pool with bounded admission and
//! graceful drain.
//!
//! Mining is CPU-bound, so the server never runs it on connection threads:
//! admitted sessions queue onto a pool sized to the machine.  The queue is
//! *bounded* — when it fills, [`SessionScheduler::submit`] fails fast with
//! [`FfsmError::Overloaded`] (the wire maps it to a typed rejection frame)
//! instead of buffering unbounded work the server cannot finish.
//!
//! Every admitted session registers its [`CancelToken`] in an in-flight table
//! for the duration of the job.  [`SessionScheduler::shutdown`] drains
//! gracefully: new submissions are refused with [`FfsmError::ShuttingDown`],
//! every registered token is cancelled (in-flight sessions stop at the next
//! level boundary and still emit their terminal frame), queued-but-unstarted
//! jobs run with their token already cancelled (so their clients get a
//! `cancelled` completion, not silence), and the pool is joined.

use ffsm_core::FfsmError;
use ffsm_graph::CancelToken;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// In-flight session table shared by submitters, workers and `shutdown`.
#[derive(Debug, Default)]
struct Inflight {
    tokens: Mutex<HashMap<u64, CancelToken>>,
    next_id: AtomicU64,
    draining: AtomicBool,
}

impl Inflight {
    /// Register `token`; if a drain already started, cancel it immediately so
    /// the racing session observes the shutdown (closing the submit/shutdown
    /// window).  Returns the table key.
    fn register(&self, token: &CancelToken) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.tokens.lock().expect("inflight lock poisoned").insert(id, token.clone());
        if self.draining.load(Ordering::SeqCst) {
            token.cancel();
        }
        id
    }

    fn deregister(&self, id: u64) {
        self.tokens.lock().expect("inflight lock poisoned").remove(&id);
    }

    fn cancel_all(&self) {
        for token in self.tokens.lock().expect("inflight lock poisoned").values() {
            token.cancel();
        }
    }
}

/// Counters the server surfaces in `stat` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedulerStats {
    /// Sessions admitted onto the queue.
    pub admitted: u64,
    /// Sessions refused with [`FfsmError::Overloaded`].
    pub rejected: u64,
    /// Sessions whose job ran to the end (any completion).
    pub finished: u64,
    /// Sessions registered right now (queued or running).
    pub inflight: usize,
}

/// The serving pool.  See the module docs in `scheduler.rs`.
#[derive(Debug)]
pub struct SessionScheduler {
    /// `None` once `shutdown` has disconnected the queue.
    sender: Mutex<Option<SyncSender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    inflight: Arc<Inflight>,
    capacity: usize,
    admitted: AtomicU64,
    rejected: AtomicU64,
    finished: Arc<AtomicU64>,
}

impl SessionScheduler {
    /// A pool of `workers` threads (clamped to ≥ 1) admitting at most
    /// `queue_capacity` queued sessions (clamped to ≥ 1) beyond the running
    /// ones.
    pub fn new(workers: usize, queue_capacity: usize) -> Self {
        let capacity = queue_capacity.max(1);
        let (sender, receiver) = sync_channel::<Job>(capacity);
        let receiver = Arc::new(Mutex::new(receiver));
        let finished = Arc::new(AtomicU64::new(0));
        let handles = (0..workers.max(1))
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let finished = Arc::clone(&finished);
                std::thread::Builder::new()
                    .name(format!("ffsm-serve-worker-{i}"))
                    .spawn(move || worker_loop(&receiver, &finished))
                    .expect("spawning scheduler worker")
            })
            .collect();
        SessionScheduler {
            sender: Mutex::new(Some(sender)),
            workers: Mutex::new(handles),
            inflight: Arc::new(Inflight::default()),
            capacity,
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            finished,
        }
    }

    /// Admit a session: register `token` as in-flight and queue `job`.  The
    /// job runs on a worker thread; the token stays registered (visible to
    /// `shutdown`) until the job returns.
    ///
    /// # Errors
    ///
    /// [`FfsmError::Overloaded`] when the queue is full;
    /// [`FfsmError::ShuttingDown`] once a drain has started.
    pub fn submit(
        &self,
        token: &CancelToken,
        job: impl FnOnce() + Send + 'static,
    ) -> Result<(), FfsmError> {
        if self.inflight.draining.load(Ordering::SeqCst) {
            return Err(FfsmError::ShuttingDown);
        }
        let id = self.inflight.register(token);
        let inflight = Arc::clone(&self.inflight);
        let wrapped: Job = Box::new(move || {
            job();
            inflight.deregister(id);
        });
        let sender = self.sender.lock().expect("sender lock poisoned");
        let result = match sender.as_ref() {
            Some(sender) => sender.try_send(wrapped),
            None => return Err(FfsmError::ShuttingDown),
        };
        match result {
            Ok(()) => {
                self.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.inflight.deregister(id);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                Err(FfsmError::Overloaded { capacity: self.capacity })
            }
            Err(TrySendError::Disconnected(_)) => {
                self.inflight.deregister(id);
                Err(FfsmError::ShuttingDown)
            }
        }
    }

    /// Cancel every in-flight session without refusing new work.  Each
    /// session stops at its next cancellation poll and emits its terminal
    /// frame as usual.
    pub fn cancel_all(&self) {
        self.inflight.cancel_all();
    }

    /// Graceful drain: refuse new sessions, cancel in-flight ones, then join
    /// the pool once every queued job has flushed its terminal frame.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.inflight.draining.store(true, Ordering::SeqCst);
        self.inflight.cancel_all();
        // Disconnect the queue: workers finish what is queued, then exit.
        drop(self.sender.lock().expect("sender lock poisoned").take());
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers lock poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }

    /// `true` once `shutdown` has started.
    pub fn is_draining(&self) -> bool {
        self.inflight.draining.load(Ordering::SeqCst)
    }

    /// Admission queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current counters.
    pub fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            finished: self.finished.load(Ordering::Relaxed),
            inflight: self.inflight.tokens.lock().expect("inflight lock poisoned").len(),
        }
    }
}

impl Drop for SessionScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(receiver: &Mutex<Receiver<Job>>, finished: &AtomicU64) {
    loop {
        // Hold the lock only to dequeue, never while running a job.
        let job = match receiver.lock().expect("receiver lock poisoned").recv() {
            Ok(job) => job,
            Err(_) => return, // queue disconnected and drained
        };
        // A panicking session must not shrink the pool; the wire layer has
        // already classified the failure for the client by the time it
        // unwinds, so containment is all that is left to do.
        let _ = catch_unwind(AssertUnwindSafe(job));
        finished.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::Duration;

    /// A job that blocks until released, so tests control queue occupancy.
    fn blocking_job(release: Arc<Mutex<Receiver<()>>>) -> impl FnOnce() + Send + 'static {
        move || {
            let _ = release.lock().unwrap().recv_timeout(Duration::from_secs(10));
        }
    }

    #[test]
    fn overflow_is_a_typed_rejection() {
        let scheduler = SessionScheduler::new(1, 1);
        let (release, gate) = channel();
        let gate = Arc::new(Mutex::new(gate));
        let token = CancelToken::new();
        // Occupy the single worker, then the single queue slot.
        scheduler.submit(&token, blocking_job(Arc::clone(&gate))).unwrap();
        // The worker may not have dequeued yet; admission capacity is
        // queue + workers, so fill until the first rejection.
        let mut admitted = 1;
        let err = loop {
            match scheduler.submit(&token, blocking_job(Arc::clone(&gate))) {
                Ok(()) => admitted += 1,
                Err(err) => break err,
            }
        };
        assert!(matches!(err, FfsmError::Overloaded { capacity: 1 }));
        assert!(admitted <= 2, "one running + one queued at most");
        assert_eq!(scheduler.stats().rejected, 1);
        for _ in 0..admitted {
            release.send(()).unwrap();
        }
        scheduler.shutdown();
        assert_eq!(scheduler.stats().finished, admitted as u64);
    }

    #[test]
    fn shutdown_cancels_inflight_and_refuses_new_work() {
        let scheduler = SessionScheduler::new(2, 4);
        let token = CancelToken::new();
        let (started_tx, started) = channel();
        let observed = Arc::new(Mutex::new(None));
        let observed_in_job = Arc::clone(&observed);
        let job_token = token.clone();
        scheduler
            .submit(&token, move || {
                started_tx.send(()).unwrap();
                // Wait for the drain to cancel us, then record what we saw.
                while !job_token.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                *observed_in_job.lock().unwrap() = Some(true);
            })
            .unwrap();
        started.recv_timeout(Duration::from_secs(5)).unwrap();
        scheduler.shutdown();
        assert_eq!(*observed.lock().unwrap(), Some(true), "job saw the cancellation");
        assert!(token.is_cancelled());
        assert!(scheduler.is_draining());
        let err = scheduler.submit(&CancelToken::new(), || {}).unwrap_err();
        assert!(matches!(err, FfsmError::ShuttingDown));
        assert_eq!(scheduler.stats().inflight, 0);
    }

    #[test]
    fn queued_jobs_run_during_drain_with_cancelled_tokens() {
        let scheduler = SessionScheduler::new(1, 4);
        let (release, gate) = channel();
        let gate = Arc::new(Mutex::new(gate));
        let blocker = CancelToken::new();
        scheduler.submit(&blocker, blocking_job(Arc::clone(&gate))).unwrap();
        // Queue a second job behind the blocked worker.
        let queued_token = CancelToken::new();
        let seen = Arc::new(Mutex::new(None));
        let seen_in_job = Arc::clone(&seen);
        let observe = queued_token.clone();
        scheduler
            .submit(&queued_token, move || {
                *seen_in_job.lock().unwrap() = Some(observe.is_cancelled());
            })
            .unwrap();
        // Release the blocker from another thread once the drain starts.
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let _ = release.send(());
        });
        scheduler.shutdown();
        releaser.join().unwrap();
        assert_eq!(
            *seen.lock().unwrap(),
            Some(true),
            "queued job still ran, and its token was already cancelled"
        );
    }

    #[test]
    fn panicking_jobs_do_not_shrink_the_pool() {
        let scheduler = SessionScheduler::new(1, 2);
        let token = CancelToken::new();
        scheduler.submit(&token, || panic!("session exploded")).unwrap();
        let (done_tx, done) = channel();
        // The same single worker must still be alive to run this.
        loop {
            let done_tx = done_tx.clone();
            match scheduler.submit(&token, move || done_tx.send(()).unwrap()) {
                Ok(()) => break,
                Err(FfsmError::Overloaded { .. }) => std::thread::sleep(Duration::from_millis(1)),
                Err(err) => panic!("unexpected: {err}"),
            }
        }
        done.recv_timeout(Duration::from_secs(5)).expect("worker survived the panic");
        scheduler.shutdown();
    }
}
