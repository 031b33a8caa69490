//! Result types shared by every mining mode.

use ffsm_approx::{Certificate, SupportInterval};
use ffsm_graph::Pattern;
use ffsm_obs::{PhaseTimes, SearchCounters};
use std::time::Duration;

/// A frequent pattern found by the miner.
#[derive(Debug, Clone)]
pub struct FrequentPattern {
    /// The pattern graph.
    pub pattern: Pattern,
    /// Its support under the session's measure.  In a bounds-first session a
    /// bound-decided pattern reports the certified *lower* bound (the exact
    /// value was never computed); `support_interval` carries the full interval.
    pub support: f64,
    /// Number of occurrences enumerated while computing the support (0 when a
    /// pre-enumeration bound decided the pattern).
    pub num_occurrences: usize,
    /// The certified support interval, in bounds-first sessions
    /// ([`crate::MiningSession::bounds_first`]); `None` otherwise.  Always
    /// contains the exact support; a point interval means the support was
    /// computed exactly.
    pub support_interval: Option<SupportInterval>,
    /// The argument that certified `support_interval`; `None` outside
    /// bounds-first sessions.
    pub certificate: Option<Certificate>,
}

/// A candidate pattern a bounds-first session could not decide before it was
/// interrupted (deadline or cancellation): the honest anytime answer is the
/// certified interval its support is known to lie in, rather than silence.
#[derive(Debug, Clone)]
pub struct UndecidedPattern {
    /// The candidate pattern.
    pub pattern: Pattern,
    /// A certified interval containing the pattern's exact support, derived
    /// from pre-enumeration arguments only (parent support, index cardinality)
    /// — never from a truncated enumeration.
    pub interval: SupportInterval,
    /// The argument behind the interval's binding upper bound.
    pub certificate: Certificate,
}

/// Which safety cap stopped a run early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// The cap on support evaluations ([`crate::MiningBudget::max_evaluations`]).
    Evaluations,
    /// The cap on reported patterns ([`crate::MiningBudget::max_patterns`]).
    Patterns,
}

/// Why a mining run stopped.
///
/// Before this type existed a capped run was indistinguishable from a complete
/// one (a single `truncated` bool, silently defaulting to "looks complete" in
/// every report).  Every run now carries its typed completion status: in
/// [`MiningStats::completion`], in the final
/// [`MiningEvent::Finished`](crate::MiningEvent::Finished) of a stream, and via
/// [`MiningResult::completion`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Completion {
    /// The search space was exhausted: every pattern above the threshold (or the
    /// full top-k) was found.
    #[default]
    Complete,
    /// A [`crate::MiningBudget`] cap stopped the search; the payload names which.
    /// The reported patterns are exactly the prefix found before the cap.
    BudgetExhausted(BudgetKind),
    /// The session's wall-clock deadline passed.  The reported patterns are a
    /// deterministic prefix of the full run (whole levels only).
    DeadlineExceeded,
    /// The session's [`CancelToken`](ffsm_core::CancelToken) fired.  The reported
    /// patterns are a deterministic prefix of the full run (whole levels only).
    Cancelled,
}

impl Completion {
    /// `true` only for [`Completion::Complete`].
    pub fn is_complete(&self) -> bool {
        matches!(self, Completion::Complete)
    }

    /// Stable lower-case machine name (used by the CLI's NDJSON stream).
    pub fn name(&self) -> &'static str {
        match self {
            Completion::Complete => "complete",
            Completion::BudgetExhausted(BudgetKind::Evaluations) => "evaluation-budget",
            Completion::BudgetExhausted(BudgetKind::Patterns) => "pattern-budget",
            Completion::DeadlineExceeded => "deadline-exceeded",
            Completion::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for Completion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Completion::Complete => write!(f, "complete"),
            Completion::BudgetExhausted(BudgetKind::Evaluations) => {
                write!(f, "stopped early: evaluation budget exhausted")
            }
            Completion::BudgetExhausted(BudgetKind::Patterns) => {
                write!(f, "stopped early: pattern budget exhausted")
            }
            Completion::DeadlineExceeded => write!(f, "stopped early: deadline exceeded"),
            Completion::Cancelled => write!(f, "stopped early: cancelled"),
        }
    }
}

/// The observability counter block of a mining run: the matcher's search
/// counters (summed across the per-worker arenas — totals are invariant under
/// the thread partition), the overlap builders' probe count, and the session's
/// own emission counter.  Always collected; every increment is a plain `u64`
/// add on thread-owned memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionCounters {
    /// The matcher's per-arena counters, summed across workers: search steps,
    /// backjumps taken, pools filled, hub fast-path (fully edge-verified)
    /// pools, arena reuses (`searches`), cancellation polls and
    /// candidate-space refinement sweeps.
    pub search: SearchCounters,
    /// Candidate-pair probes made by the overlap builders inside support
    /// evaluation (MI/MVC/MIS-family measures; 0 under MNI).
    pub overlap_probes: u64,
    /// Patterns emitted by the run so far — equals the number of
    /// [`MiningEvent::Pattern`](crate::MiningEvent::Pattern) events a streaming
    /// consumer sees (top-k runs count emissions, including patterns later
    /// evicted from the final k).
    pub patterns_emitted: u64,
    /// High-water heap footprint of the largest search arena, in bytes
    /// (arena capacities never shrink, so the current footprint is the peak).
    /// A **gauge** — the per-worker *maximum*, never a sum across workers: a
    /// parallel run reports the biggest single arena, so the value answers
    /// "how much memory does one worker's search state need" regardless of
    /// thread count.  The one field that legitimately varies with the thread
    /// count — a single arena serving every candidate grows larger than each
    /// of several, so the parallel max is bounded above by the sequential one.
    pub arena_peak_bytes: u64,
    /// Candidates routed through the bounds evaluator of a bounds-first session
    /// (always 0 otherwise).
    pub evaluations_bounded: u64,
    /// Of the bounded candidates, how many a certified interval decided without
    /// an exact support computation — pre-enumeration skips and
    /// containment-chain / greedy / LP short-circuits alike.
    pub bound_decided: u64,
    /// Occurrences of a partitioned run whose image leaves the anchor's shard
    /// interior — the ones the halo exists for (always 0 over a whole graph).
    pub cross_shard_occurrences: u64,
    /// Candidates decided infrequent by the seeded candidate-space cap: the
    /// candidate's space, seeded from its parent's refined lists, had a list
    /// shorter than the threshold, so no refinement, search or solve ran
    /// (always 0 for partitions, the naive backend and custom measures).
    pub space_capped: u64,
    /// Support evaluations this run performed whose value the measure could not
    /// prove optimal: exact branch-and-bound solves (MVC, MIS, MIES, MCP) that
    /// ran out of their [`SearchBudget`](ffsm_core::measures::MeasureConfig::search_budget),
    /// plus every solve of a greedy MVC algorithm.  Cache-reused, capped and
    /// bound-decided candidates run no solve and never count.
    pub solve_budget_exhausted: u64,
}

impl SessionCounters {
    /// Field-wise `self − earlier` (per-level deltas from the cumulative
    /// snapshots in [`LevelSummary`](crate::LevelSummary)).  `arena_peak_bytes`
    /// is carried over, not subtracted — it is a high-water mark.
    pub fn saturating_sub(&self, earlier: &SessionCounters) -> SessionCounters {
        SessionCounters {
            search: self.search.saturating_sub(&earlier.search),
            overlap_probes: self.overlap_probes.saturating_sub(earlier.overlap_probes),
            patterns_emitted: self.patterns_emitted.saturating_sub(earlier.patterns_emitted),
            arena_peak_bytes: self.arena_peak_bytes,
            evaluations_bounded: self
                .evaluations_bounded
                .saturating_sub(earlier.evaluations_bounded),
            bound_decided: self.bound_decided.saturating_sub(earlier.bound_decided),
            cross_shard_occurrences: self
                .cross_shard_occurrences
                .saturating_sub(earlier.cross_shard_occurrences),
            space_capped: self.space_capped.saturating_sub(earlier.space_capped),
            solve_budget_exhausted: self
                .solve_budget_exhausted
                .saturating_sub(earlier.solve_budget_exhausted),
        }
    }
}

/// Counters describing a mining run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MiningStats {
    /// Candidates generated by extension (before deduplication).
    pub candidates_generated: usize,
    /// Candidates whose support was evaluated (after deduplication).  In a delta
    /// re-mine this counts cache-served candidates too, so budget cut-offs land
    /// on exactly the same candidate as in the equivalent cold run.
    pub candidates_evaluated: usize,
    /// Of the evaluated candidates, how many were answered from the prior
    /// epoch's [`EvalCache`](crate::EvalCache) without enumerating occurrences
    /// (always 0 outside `run_delta`).
    pub evaluations_reused: usize,
    /// Connected subgraphs meeting the dirty region that a delta run coded,
    /// over both epochs (0 outside `run_delta`).
    pub dirty_subgraphs: usize,
    /// Candidates pruned because their support fell below the threshold.
    pub candidates_pruned: usize,
    /// Pattern-growth levels fully processed.
    pub levels_completed: usize,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
    /// The observability counter block (always collected — see
    /// [`SessionCounters`]).
    pub counters: SessionCounters,
    /// Per-phase wall-time accounting.  The coarse phases (index build,
    /// support evaluation, extension) are always timed — one clock pair per
    /// level; the fine-grained nested spans (candidate-space build, search)
    /// advance only when the session enabled
    /// [`MiningSession::metrics`](crate::MiningSession::metrics).  The
    /// exclusive phases sum to the run's wall time (see
    /// [`PhaseTimes::exclusive_total`]).
    pub phase_timings: PhaseTimes,
    /// Why the run stopped.  Mid-run snapshots (e.g. in a
    /// [`crate::MiningEvent::LevelCompleted`] event) report
    /// [`Completion::Complete`] until the run actually stops.
    pub completion: Completion,
}

impl MiningStats {
    /// `true` when the run stopped before exhausting the search space, for any
    /// reason (budget, deadline or cancellation).
    pub fn truncated(&self) -> bool {
        !self.completion.is_complete()
    }

    /// Candidates routed through the bounds evaluator (bounds-first sessions
    /// only; see [`SessionCounters::evaluations_bounded`]).
    pub fn evaluations_bounded(&self) -> u64 {
        self.counters.evaluations_bounded
    }

    /// Of those, how many a certified interval decided without an exact
    /// support computation (see [`SessionCounters::bound_decided`]).
    pub fn bound_decided(&self) -> u64 {
        self.counters.bound_decided
    }
}

/// Result of a mining run: the frequent patterns plus statistics.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// The frequent patterns found.  Threshold runs list them in breadth-first
    /// (smallest first) order; top-k runs list them by descending support.
    pub patterns: Vec<FrequentPattern>,
    /// The support threshold in force when the run finished: the configured τ for
    /// threshold runs, or the risen k-th-best support for top-k runs.
    pub final_threshold: f64,
    /// Candidates a bounds-first session could not decide before an
    /// interruption, each with its certified interval (empty for complete runs
    /// and outside bounds-first mode) — the anytime contract's honest remainder.
    pub undecided: Vec<UndecidedPattern>,
    /// Run statistics.
    pub stats: MiningStats,
}

impl MiningResult {
    /// Why the run stopped (typed; never silently truncated).
    pub fn completion(&self) -> Completion {
        self.stats.completion
    }

    /// Number of frequent patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// `true` when nothing was frequent.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Largest frequent pattern size (in edges), 0 if none.
    pub fn max_edges(&self) -> usize {
        self.patterns.iter().map(|p| p.pattern.num_edges()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_names_and_display_are_distinct() {
        let all = [
            Completion::Complete,
            Completion::BudgetExhausted(BudgetKind::Evaluations),
            Completion::BudgetExhausted(BudgetKind::Patterns),
            Completion::DeadlineExceeded,
            Completion::Cancelled,
        ];
        let names: std::collections::BTreeSet<&str> = all.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), all.len());
        assert!(Completion::Complete.is_complete());
        assert!(!Completion::Cancelled.is_complete());
        assert_eq!(Completion::default(), Completion::Complete);
    }

    #[test]
    fn stats_truncated_derives_from_completion() {
        let mut stats = MiningStats::default();
        assert!(!stats.truncated());
        stats.completion = Completion::BudgetExhausted(BudgetKind::Patterns);
        assert!(stats.truncated());
    }
}
