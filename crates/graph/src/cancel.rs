//! [`CancelToken`] — cooperative cancellation and wall-clock deadlines for long
//! searches.
//!
//! Subgraph-isomorphism enumeration and the mining loop built on it can run for an
//! unbounded time on adversarial inputs.  A serving deployment needs two ways to
//! stop them besides the embedding budget:
//!
//! * **explicit cancellation** — a client disconnects, a request is superseded;
//! * **deadlines** — a request has a latency budget and a partial answer (or a typed
//!   "deadline exceeded" status) beats a late one.
//!
//! Both are carried by one token.  The token is *cooperative*: the enumerators poll
//! it at bounded intervals (once at search entry, then every [`CHECK_STRIDE`]
//! search steps), so cancellation latency is bounded by a few
//! thousand feasibility checks, not by the size of the search space.  A fired token
//! makes the enumeration return early with `complete == false`, exactly like an
//! exhausted embedding budget; the mining stream built on top translates the cause
//! into a typed `Completion` status.
//!
//! The default token (`CancelToken::default()`) is **inert**: it never fires and
//! costs nothing to poll (no allocation, no clock read).  Fireable tokens come from
//! [`CancelToken::new`]; deadlines are attached with [`CancelToken::with_deadline`]
//! or [`CancelToken::with_timeout`].  Clones share the underlying flag, so any clone
//! can cancel every holder.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many search steps an enumerator may take between two token polls.  Bounds
/// cancellation latency without putting a clock read on every feasibility check.
pub const CHECK_STRIDE: u32 = 1024;

/// A cloneable cancellation handle, optionally carrying a wall-clock deadline.
///
/// See the [module docs](self) for the contract.  All clones share one flag:
/// calling [`CancelToken::cancel`] on any of them fires all of them.  The deadline
/// is per-clone state ([`CancelToken::with_deadline`] returns a new token sharing
/// the flag), which lets one request-level token fan out to per-call tokens with
/// tighter deadlines.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    /// `None` for the inert default token — polling it is free.
    flag: Option<Arc<AtomicBool>>,
    /// Absolute wall-clock deadline, if any.
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fireable token (not yet fired, no deadline).
    pub fn new() -> Self {
        CancelToken { flag: Some(Arc::new(AtomicBool::new(false))), deadline: None }
    }

    /// This token with an absolute wall-clock deadline attached.  The returned
    /// token shares the cancellation flag with `self`.  Attaching never *loosens*
    /// an existing deadline: the result carries the earlier of the two, so a
    /// request-level token can fan out to per-call tokens with tighter bounds but
    /// a later bound cannot override an earlier one.
    pub fn with_deadline(&self, deadline: Instant) -> Self {
        let deadline = match self.deadline {
            Some(existing) => existing.min(deadline),
            None => deadline,
        };
        CancelToken { flag: self.flag.clone(), deadline: Some(deadline) }
    }

    /// This token with a deadline of `timeout` from now.
    pub fn with_timeout(&self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// The absolute deadline this token carries, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Fire the token: every clone sharing the flag reports cancelled from now on.
    /// A no-op on the inert default token (which has no flag to fire).
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone.  Does not
    /// consult the deadline — use this to distinguish explicit cancellation from a
    /// deadline hit.
    pub fn cancel_requested(&self) -> bool {
        self.flag.as_ref().is_some_and(|f| f.load(Ordering::Relaxed))
    }

    /// `true` once the attached deadline (if any) has passed.  Reads the clock, so
    /// poll through [`CancelToken::is_cancelled`] at a bounded stride in hot loops.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// `true` if the token has fired for either reason (explicit cancel or
    /// deadline).  This is the single check the enumerators poll.
    pub fn is_cancelled(&self) -> bool {
        self.cancel_requested() || self.deadline_exceeded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_token_is_inert_and_never_fires() {
        let token = CancelToken::default();
        assert_eq!(token.deadline(), None);
        assert!(!token.is_cancelled());
        token.cancel(); // no-op, must not panic
        assert!(!token.is_cancelled());
        assert!(!token.cancel_requested());
    }

    #[test]
    fn cancel_fires_every_clone() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        assert!(clone.cancel_requested());
        assert!(!clone.deadline_exceeded());
    }

    #[test]
    fn deadline_fires_without_explicit_cancel() {
        let token = CancelToken::new().with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(token.is_cancelled());
        assert!(token.deadline_exceeded());
        assert!(!token.cancel_requested());
        let future = CancelToken::new().with_timeout(Duration::from_secs(3600));
        assert!(!future.is_cancelled());
    }

    #[test]
    fn deadline_is_per_clone_but_flag_is_shared() {
        let parent = CancelToken::new();
        let child = parent.with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "parent has no deadline");
        child.cancel();
        assert!(parent.is_cancelled(), "flag is shared upward");
    }

    #[test]
    fn attaching_a_deadline_never_loosens_an_existing_one() {
        let tight = Instant::now() + Duration::from_millis(10);
        let loose = Instant::now() + Duration::from_secs(3600);
        let token = CancelToken::new().with_deadline(tight);
        assert_eq!(token.with_deadline(loose).deadline(), Some(tight), "later bound ignored");
        assert_eq!(
            CancelToken::new().with_deadline(loose).with_deadline(tight).deadline(),
            Some(tight),
            "earlier bound tightens"
        );
        assert_eq!(CancelToken::default().deadline(), None);
    }
}
