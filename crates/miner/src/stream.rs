//! [`PatternStream`] — lazy, pull-based mining with typed events.
//!
//! [`crate::MiningSession::stream`] returns a `PatternStream`: an owned, `Send`
//! iterator of [`MiningEvent`]s that replaces the old lifetime-infected
//! `on_pattern` callback.  Nothing is evaluated until the consumer pulls; each
//! pull advances the engine by at most one pattern-growth level, so a server
//! thread can interleave consumption with its own work, forward events over the
//! wire as they happen (`ffsm mine --stream` does exactly this), or abandon the
//! run early.
//!
//! ## Event contract
//!
//! For one session configuration the event sequence is fully deterministic:
//!
//! 1. zero or more [`MiningEvent::Pattern`] events per level, in the engine's
//!    fixed candidate order (threshold mode: every emitted pattern; top-k mode:
//!    every pattern *entering* the running top-k — a later, better pattern may
//!    still evict it from the final result);
//! 2. one [`MiningEvent::LevelCompleted`] per fully processed level, carrying a
//!    stats snapshot;
//! 3. in a bounds-first session interrupted by deadline or cancellation, one
//!    [`MiningEvent::Undecided`] per still-pending candidate, each carrying a
//!    certified support interval (honest anytime semantics);
//! 4. exactly one final [`MiningEvent::Finished`] carrying the typed
//!    [`Completion`] status, after which the iterator yields `None`.
//!
//! Streaming and batch mining are the same computation:
//! [`PatternStream::into_result`] drains the remainder and returns precisely the
//! [`MiningResult`] that [`crate::MiningSession::run`] (a thin adapter over this
//! method) would have produced.  A cancelled or deadline-hit stream emits a
//! deterministic *prefix* of the full run's events (whole levels only) and
//! finishes with [`Completion::Cancelled`] / [`Completion::DeadlineExceeded`].
//!
//! Items are `Result<MiningEvent, FfsmError>`.  A session over a partition
//! whose shard store cannot fetch a shard (a missing or corrupt spill file)
//! ends the stream with exactly one `Err` item in place of `Finished`, then
//! `None`; [`PatternStream::into_result`] returns that error.  Interruptions, in
//! contrast, are *events* (a typed `Finished`), not errors, because the prefix
//! mined so far is still valid.

use crate::engine::EngineState;
use crate::types::{Completion, FrequentPattern, MiningResult, MiningStats, UndecidedPattern};
use ffsm_core::FfsmError;
use std::collections::VecDeque;

/// Progress of one fully processed pattern-growth level.
#[derive(Debug, Clone)]
pub struct LevelSummary {
    /// 1-based level number (level 1 evaluates the single-edge seeds).
    pub level: usize,
    /// Candidates whose support was evaluated in this level.
    pub evaluated: usize,
    /// Candidates accepted in this level (threshold mode: emitted patterns;
    /// top-k mode: patterns that entered the running top-k).
    pub accepted: usize,
    /// The threshold in force after the level (rises in top-k mode).
    pub threshold: f64,
    /// Cumulative statistics snapshot (its `completion` field stays
    /// [`Completion::Complete`] until the run actually stops).
    pub stats: MiningStats,
}

/// The final event of every stream.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Why the run stopped.
    pub completion: Completion,
    /// The threshold in force when the run stopped.
    pub final_threshold: f64,
    /// Number of patterns in the final result (top-k mode: after evictions, so
    /// this can be smaller than the number of `Pattern` events).
    pub num_patterns: usize,
    /// Candidates a bounds-first session left undecided at an interruption
    /// (equals the number of [`MiningEvent::Undecided`] events; 0 otherwise).
    pub num_undecided: usize,
    /// Final statistics.
    pub stats: MiningStats,
}

/// One streamed mining event.  See the module docs in `stream.rs` for the sequence
/// contract.
#[derive(Debug, Clone)]
pub enum MiningEvent {
    /// A pattern was accepted (threshold mode: final; top-k mode: provisional —
    /// it may later be evicted from the running top-k).
    Pattern(FrequentPattern),
    /// A pattern-growth level was fully processed.
    LevelCompleted(LevelSummary),
    /// A bounds-first session was interrupted (deadline or cancellation) before
    /// deciding this candidate; the payload carries its certified support
    /// interval.  Emitted between the last `LevelCompleted` and `Finished`,
    /// in the engine's deterministic candidate order.
    Undecided(UndecidedPattern),
    /// The run stopped; always the last event.
    Finished(RunSummary),
}

/// A lazy, pull-based mining run.  Owned and `Send`: spawn it onto any thread.
/// Construct via [`crate::MiningSession::stream`].
pub struct PatternStream {
    state: EngineState,
    queue: VecDeque<MiningEvent>,
    finished: bool,
    /// The error that ended the stream, if one did.
    error: Option<FfsmError>,
}

impl PatternStream {
    pub(crate) fn new(state: EngineState) -> Self {
        PatternStream { state, queue: VecDeque::new(), finished: false, error: None }
    }

    /// The typed completion status, once the `Finished` event has been emitted
    /// (`None` while the run is still in progress, and after it failed).
    pub fn completion(&self) -> Option<Completion> {
        self.state.completion()
    }

    /// Drain the remaining events and return the batch [`MiningResult`].
    ///
    /// Consuming the whole stream first is *not* required — this method runs the
    /// rest of the mining loop itself.  To get a partial result instead, fire the
    /// session's `CancelToken` first: the result then holds the deterministic
    /// prefix with [`Completion::Cancelled`].
    ///
    /// # Errors
    ///
    /// The shard-fetch error that ended the stream, whether or not the
    /// consumer already pulled it.
    pub fn into_result(mut self) -> Result<MiningResult, FfsmError> {
        for _event in &mut self {}
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.state.into_result()),
        }
    }

    /// Drain the remaining events and return the batch result together with the
    /// per-pattern [`EvalCache`](crate::EvalCache) the run recorded (empty unless
    /// the session asked for recording — `run_recorded` / `run_delta`).
    pub(crate) fn into_result_and_cache(
        mut self,
    ) -> Result<(MiningResult, crate::EvalCache), FfsmError> {
        for _event in &mut self {}
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.state.into_result_and_cache()),
        }
    }
}

impl Iterator for PatternStream {
    type Item = Result<MiningEvent, FfsmError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(event) = self.queue.pop_front() {
                if matches!(event, MiningEvent::Finished(_)) {
                    self.finished = true;
                }
                return Some(Ok(event));
            }
            if self.finished {
                return None;
            }
            // Lazy pull: advance the engine by one level (which pushes >= 1
            // events — at minimum the Finished event — unless it fails).
            if let Err(e) = self.state.step(&mut self.queue) {
                self.finished = true;
                self.error = Some(e.clone());
                return Some(Err(e));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send<T: Send>() {}

    #[test]
    fn stream_and_events_are_send() {
        assert_send::<PatternStream>();
        assert_send::<MiningEvent>();
    }
}
