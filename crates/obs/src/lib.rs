//! # ffsm-obs — the observability layer: metrics registry, histograms, phase tracing
//!
//! Dependency-free instrumentation primitives shared by every crate in the
//! workspace.  Three pieces:
//!
//! 1. [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s and log-bucketed
//!    [`Histogram`]s.  Counters and histograms are **sharded**: each metric holds
//!    one cache-line-aligned atomic cell per shard, a thread writes only its own
//!    shard (one relaxed `fetch_add`, no contention with other writers), and the
//!    shards are summed only on [`MetricsRegistry::snapshot`] — the scrape pays
//!    the aggregation cost, not the hot loop.
//! 2. [`Phase`] / [`PhaseTimes`] — per-phase wall-time accounting for the mining
//!    pipeline.  The *exclusive* phases ([`Phase::IndexBuild`],
//!    [`Phase::SupportEval`], [`Phase::Extension`], [`Phase::DeltaRepair`])
//!    partition a run's wall time and therefore sum to it; the remaining phases
//!    ([`Phase::CandidateSpace`], [`Phase::Search`], [`Phase::OverlapBuild`],
//!    [`Phase::ShardLoad`]) are *nested* inside [`Phase::SupportEval`] and
//!    decompose it without being double-counted by
//!    [`PhaseTimes::exclusive_total`].
//! 3. [`SearchCounters`] — the plain-`u64` counter block the matcher's search
//!    arena embeds.  The innermost loop increments locals, never atomics; totals
//!    are scraped from the per-worker arenas after each level, so merged shards
//!    equal a single-threaded run's totals exactly (each candidate's search is
//!    deterministic, the thread partition only redistributes candidates).
//!
//! The [`tls`] module carries the two measurements that have no struct to ride
//! on (overlap-graph builds happen deep inside a `SupportMeasure` with no arena
//! in scope): per-thread totals the mining engine samples around each worker's
//! slice of a level.
//!
//! ## Sampling rule and overhead contract
//!
//! Counters are **always on**: each is a single register-width add on memory the
//! owning thread already touches.  Wall-clock *spans* are sampled at two
//! granularities: coarse spans (one `Instant` pair per level or per request)
//! are always on, while fine-grained per-candidate spans (candidate-space build
//! and search time inside support evaluation) only run when a session opts in,
//! so an uninstrumented run never pays a clock read in the per-candidate path.
//! The contract — enforced by `obs_bench` in CI — is that a fully instrumented
//! run is bit-for-bit identical in output and at most 3% slower than an
//! uninstrumented one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Number of shards per counter/histogram.  Threads are assigned round-robin, so
/// up to this many writers proceed without sharing a cache line.
pub const SHARD_COUNT: usize = 8;

/// The round-robin source of per-thread shard ids.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD_ID: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's shard index, assigned round-robin on first use and cached.
fn shard_id() -> usize {
    SHARD_ID.with(|cell| {
        let id = cell.get();
        if id != usize::MAX {
            return id;
        }
        let id = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARD_COUNT;
        cell.set(id);
        id
    })
}

/// One cache-line-aligned atomic cell — the unit of sharding.  The alignment
/// keeps two shards from sharing a line, so concurrent writers never ping-pong.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

/// A monotonically increasing sharded counter.
///
/// [`Counter::add`] is one relaxed `fetch_add` on the calling thread's shard;
/// [`Counter::value`] sums the shards (scrape-time cost only).
#[derive(Debug, Default)]
pub struct Counter {
    shards: [PaddedU64; SHARD_COUNT],
}

impl Counter {
    /// Increment by `n` on the calling thread's shard.
    pub fn add(&self, n: u64) {
        self.shards[shard_id()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The aggregated value across all shards.
    pub fn value(&self) -> u64 {
        self.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// A signed point-in-time gauge (queue depth, active sessions).  Gauges move on
/// request boundaries, not in hot loops, so one atomic suffices.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Add `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Set the gauge to `v`.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `0` holds the value `0`, bucket `k ≥ 1`
/// holds values in `[2^(k-1), 2^k - 1]` — `floor(log2(v)) + 1`.
pub const BUCKETS: usize = 65;

/// One shard of a histogram: 65 log2 buckets plus the exact running sum.
#[repr(align(64))]
#[derive(Debug)]
struct HistogramShard {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for HistogramShard {
    fn default() -> Self {
        HistogramShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// The bucket index of `v`: `0` for zero, `floor(log2(v)) + 1` otherwise.
pub fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The largest value a bucket can hold — the conservative (upper-bound) value a
/// percentile read reports for it.
pub fn bucket_upper(bucket: usize) -> u64 {
    match bucket {
        0 => 0,
        64.. => u64::MAX,
        k => (1u64 << k) - 1,
    }
}

/// A sharded log2-bucketed histogram of `u64` samples (microseconds, counts…).
///
/// Recording is two relaxed adds on the calling thread's shard; p50/p90/p99 are
/// derived from the bucket CDF at scrape time, reporting each bucket's upper
/// bound (so a percentile is never under-reported by more than one octave).
#[derive(Debug, Default)]
pub struct Histogram {
    shards: [HistogramShard; SHARD_COUNT],
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        let shard = &self.shards[shard_id()];
        shard.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record a duration as whole microseconds.
    pub fn record_duration_us(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Aggregate the shards into an immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        let mut sum = 0u64;
        for shard in &self.shards {
            for (total, cell) in buckets.iter_mut().zip(&shard.buckets) {
                *total += cell.load(Ordering::Relaxed);
            }
            sum = sum.wrapping_add(shard.sum.load(Ordering::Relaxed));
        }
        let count = buckets.iter().sum();
        HistogramSnapshot { buckets, count, sum }
    }
}

/// An aggregated view of one [`Histogram`] at scrape time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_of`] for the bucket boundaries).
    pub buckets: [u64; BUCKETS],
    /// Total number of samples.
    pub count: u64,
    /// Exact sum of all samples (wrapping).
    pub sum: u64,
}

impl HistogramSnapshot {
    /// The value at quantile `p` in `[0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(p · count)`.  Zero when the
    /// histogram is empty.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper(k);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// The arithmetic mean of the samples (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Compact `bucket:count` encoding of the non-empty buckets, ascending —
    /// e.g. `"0:3,7:12"` — flat-frame friendly for the `metrics` protocol op.
    pub fn encode_buckets(&self) -> String {
        let mut out = String::new();
        for (k, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !out.is_empty() {
                out.push(',');
            }
            out.push_str(&format!("{k}:{c}"));
        }
        out
    }
}

/// A registry of named metrics.  Registration is get-or-create by name (handles
/// are `Arc`s, so hot paths register once and keep the handle); `snapshot`
/// aggregates every metric, sorted by name.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter registry poisoned");
        match map.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Arc::new(Counter::default());
                map.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("gauge registry poisoned");
        match map.get(name) {
            Some(g) => g.clone(),
            None => {
                let g = Arc::new(Gauge::default());
                map.insert(name.to_string(), g.clone());
                g
            }
        }
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram registry poisoned");
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Arc::new(Histogram::default());
                map.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    /// Aggregate every registered metric, sorted by name within each kind.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(name, c)| (name.clone(), c.value()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(name, g)| (name.clone(), g.value()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        MetricsSnapshot { counters, gauges, histograms }
    }
}

/// The aggregated state of a [`MetricsRegistry`] at one scrape.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, ascending by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` pairs, ascending by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// A phase of the mining pipeline, for wall-time attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Building (or patching) the shared `GraphIndex`-style matching index.
    IndexBuild,
    /// Building + refining a per-pattern candidate space (nested in
    /// [`Phase::SupportEval`]).
    CandidateSpace,
    /// The embedding search itself (nested in [`Phase::SupportEval`]).
    Search,
    /// Building an occurrence overlap graph inside a support measure (nested in
    /// [`Phase::SupportEval`]).
    OverlapBuild,
    /// Evaluating the support of one level's candidates, wall-to-wall.
    SupportEval,
    /// Generating and deduplicating the next level's extensions.
    Extension,
    /// Patching indices / applying graph deltas between epochs.
    DeltaRepair,
    /// Reloading spilled shards from a `ShardStore` during partitioned mining
    /// (nested in [`Phase::SupportEval`]).
    ShardLoad,
    /// Computing certified support bounds in a bounds-first session — index
    /// cardinality bounds, containment-chain bounds and LP relaxations (nested
    /// in [`Phase::SupportEval`]).
    BoundsEval,
}

impl Phase {
    /// Number of phases (the length of [`Phase::ALL`]).
    pub const COUNT: usize = 9;

    /// Every phase, in display order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::IndexBuild,
        Phase::CandidateSpace,
        Phase::Search,
        Phase::OverlapBuild,
        Phase::SupportEval,
        Phase::Extension,
        Phase::DeltaRepair,
        Phase::ShardLoad,
        Phase::BoundsEval,
    ];

    /// Stable snake_case name (protocol frames, JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            Phase::IndexBuild => "index_build",
            Phase::CandidateSpace => "candidate_space",
            Phase::Search => "search",
            Phase::OverlapBuild => "overlap_build",
            Phase::SupportEval => "support_eval",
            Phase::Extension => "extension",
            Phase::DeltaRepair => "delta_repair",
            Phase::ShardLoad => "shard_load",
            Phase::BoundsEval => "bounds_eval",
        }
    }

    /// `true` for the phases that partition wall time without overlap; the
    /// others are nested inside [`Phase::SupportEval`] and excluded from
    /// [`PhaseTimes::exclusive_total`].
    pub fn is_exclusive(self) -> bool {
        matches!(
            self,
            Phase::IndexBuild | Phase::SupportEval | Phase::Extension | Phase::DeltaRepair
        )
    }

    fn index(self) -> usize {
        match self {
            Phase::IndexBuild => 0,
            Phase::CandidateSpace => 1,
            Phase::Search => 2,
            Phase::OverlapBuild => 3,
            Phase::SupportEval => 4,
            Phase::Extension => 5,
            Phase::DeltaRepair => 6,
            Phase::ShardLoad => 7,
            Phase::BoundsEval => 8,
        }
    }
}

/// Accumulated per-phase wall time, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    nanos: [u64; Phase::COUNT],
}

impl PhaseTimes {
    /// All zeros.
    pub fn new() -> Self {
        PhaseTimes::default()
    }

    /// Add a measured duration to `phase`.
    pub fn record(&mut self, phase: Phase, d: Duration) {
        self.add_nanos(phase, d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Add raw nanoseconds to `phase`.
    pub fn add_nanos(&mut self, phase: Phase, nanos: u64) {
        self.nanos[phase.index()] = self.nanos[phase.index()].saturating_add(nanos);
    }

    /// Accumulated nanoseconds in `phase`.
    pub fn nanos(&self, phase: Phase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Accumulated time in `phase`.
    pub fn get(&self, phase: Phase) -> Duration {
        Duration::from_nanos(self.nanos(phase))
    }

    /// Fold another accounting into this one (phase-wise sum).
    pub fn merge(&mut self, other: &PhaseTimes) {
        for (a, b) in self.nanos.iter_mut().zip(&other.nanos) {
            *a = a.saturating_add(*b);
        }
    }

    /// Phase-wise `self − earlier` (for deriving per-level deltas from
    /// cumulative snapshots).
    pub fn saturating_sub(&self, earlier: &PhaseTimes) -> PhaseTimes {
        let mut out = PhaseTimes::default();
        for ((o, a), b) in out.nanos.iter_mut().zip(&self.nanos).zip(&earlier.nanos) {
            *o = a.saturating_sub(*b);
        }
        out
    }

    /// Total nanoseconds across the exclusive phases — the part of wall time
    /// the accounting explains without double counting.
    pub fn exclusive_total_nanos(&self) -> u64 {
        Phase::ALL
            .iter()
            .filter(|p| p.is_exclusive())
            .map(|p| self.nanos(*p))
            .fold(0u64, u64::saturating_add)
    }

    /// Total time across the exclusive phases.
    pub fn exclusive_total(&self) -> Duration {
        Duration::from_nanos(self.exclusive_total_nanos())
    }

    /// `(phase, nanos)` for every phase, in [`Phase::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, u64)> + '_ {
        Phase::ALL.iter().map(move |&p| (p, self.nanos(p)))
    }
}

/// The matcher's per-arena counter block: plain `u64` adds in the search loop
/// (no atomics — each arena is owned by exactly one worker), scraped and summed
/// across arenas after each level.  Totals are invariant under the worker
/// partition because each candidate's search is deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounters {
    /// Searches served (one per `prepare` — how often the arena was reused).
    pub searches: u64,
    /// Candidate scan steps taken in the search loop.
    pub steps: u64,
    /// Failing-set backjumps taken (whole sibling pools skipped).
    pub backjumps: u64,
    /// Pools materialised by the pool builder.
    pub pools_filled: u64,
    /// Pools that came out fully edge-verified via the all-hub word-parallel
    /// AND (the backward `has_edge` ladder was skipped entirely).
    pub hub_verified_pools: u64,
    /// Cooperative cancellation polls (one per [`CHECK_STRIDE`] steps).
    ///
    /// [`CHECK_STRIDE`]: https://docs.rs/ffsm-graph
    pub cancel_polls: u64,
    /// Candidate-space refinement sweeps run while building spaces.
    pub refine_rounds: u64,
}

impl SearchCounters {
    /// Field-wise sum.
    pub fn merge(&mut self, other: &SearchCounters) {
        self.searches += other.searches;
        self.steps += other.steps;
        self.backjumps += other.backjumps;
        self.pools_filled += other.pools_filled;
        self.hub_verified_pools += other.hub_verified_pools;
        self.cancel_polls += other.cancel_polls;
        self.refine_rounds += other.refine_rounds;
    }

    /// Field-wise `self − earlier` (per-level deltas from cumulative snapshots).
    pub fn saturating_sub(&self, earlier: &SearchCounters) -> SearchCounters {
        SearchCounters {
            searches: self.searches.saturating_sub(earlier.searches),
            steps: self.steps.saturating_sub(earlier.steps),
            backjumps: self.backjumps.saturating_sub(earlier.backjumps),
            pools_filled: self.pools_filled.saturating_sub(earlier.pools_filled),
            hub_verified_pools: self.hub_verified_pools.saturating_sub(earlier.hub_verified_pools),
            cancel_polls: self.cancel_polls.saturating_sub(earlier.cancel_polls),
            refine_rounds: self.refine_rounds.saturating_sub(earlier.refine_rounds),
        }
    }
}

/// Per-thread totals for measurements that have no struct to ride on: overlap
/// graph construction happens deep inside a `SupportMeasure` call with neither
/// an arena nor a registry in scope, so it adds to these thread-locals and the
/// mining engine samples the delta around each worker's slice of a level.
pub mod tls {
    use std::cell::Cell;

    /// A point-in-time copy of this thread's totals.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ThreadTotals {
        /// Candidate-pair probes made by the overlap builders.
        pub overlap_probes: u64,
        /// Nanoseconds spent building overlap graphs.
        pub overlap_build_nanos: u64,
    }

    impl ThreadTotals {
        /// Field-wise `self − earlier`.
        pub fn delta_since(&self, earlier: &ThreadTotals) -> ThreadTotals {
            ThreadTotals {
                overlap_probes: self.overlap_probes.wrapping_sub(earlier.overlap_probes),
                overlap_build_nanos: self
                    .overlap_build_nanos
                    .wrapping_sub(earlier.overlap_build_nanos),
            }
        }
    }

    thread_local! {
        static TOTALS: Cell<ThreadTotals> = const { Cell::new(ThreadTotals {
            overlap_probes: 0,
            overlap_build_nanos: 0,
        }) };
    }

    /// Add overlap candidate-pair probes to this thread's totals.
    pub fn add_overlap_probes(n: u64) {
        TOTALS.with(|t| {
            let mut v = t.get();
            v.overlap_probes = v.overlap_probes.wrapping_add(n);
            t.set(v);
        });
    }

    /// Add overlap-build nanoseconds to this thread's totals.
    pub fn add_overlap_build_nanos(n: u64) {
        TOTALS.with(|t| {
            let mut v = t.get();
            v.overlap_build_nanos = v.overlap_build_nanos.wrapping_add(n);
            t.set(v);
        });
    }

    /// This thread's current totals.
    pub fn snapshot() -> ThreadTotals {
        TOTALS.with(|t| t.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value lands in a bucket whose bounds contain it.
        for v in [0u64, 1, 2, 3, 5, 100, 1 << 20, u64::MAX] {
            let k = bucket_of(v);
            assert!(v <= bucket_upper(k));
            if k > 0 {
                assert!(v > bucket_upper(k - 1));
            }
        }
    }

    #[test]
    fn histogram_quantiles_are_upper_bounds() {
        let h = Histogram::default();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.sum, 5050);
        // p50 of 1..=100 is 50; its bucket [32, 63] reports 63.
        assert_eq!(snap.quantile(0.50), 63);
        assert_eq!(snap.quantile(1.0), 127);
        assert!(snap.quantile(0.99) >= 99);
        assert_eq!(snap.mean(), 50.5);
        // Empty histogram.
        assert_eq!(Histogram::default().snapshot().quantile(0.5), 0);
    }

    #[test]
    fn counters_aggregate_across_threads() {
        let registry = Arc::new(MetricsRegistry::new());
        let counter = registry.counter("steps");
        counter.add(5);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let registry = registry.clone();
                scope.spawn(move || {
                    // Re-registering by name hits the same metric.
                    registry.counter("steps").add(10);
                });
            }
        });
        assert_eq!(counter.value(), 45);
        let snap = registry.snapshot();
        assert_eq!(snap.counters, vec![("steps".to_string(), 45)]);
    }

    #[test]
    fn gauges_and_histograms_snapshot_sorted_by_name() {
        let registry = MetricsRegistry::new();
        registry.gauge("queue_depth").set(3);
        registry.gauge("active").add(2);
        registry.histogram("lat_b").record(10);
        registry.histogram("lat_a").record(7);
        let snap = registry.snapshot();
        assert_eq!(snap.gauges, vec![("active".to_string(), 2), ("queue_depth".to_string(), 3)]);
        let names: Vec<&str> = snap.histograms.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["lat_a", "lat_b"]);
        assert_eq!(snap.histograms[0].1.count, 1);
    }

    #[test]
    fn bucket_encoding_is_compact_and_ordered() {
        let h = Histogram::default();
        h.record(0);
        h.record(0);
        h.record(100);
        let snap = h.snapshot();
        assert_eq!(snap.encode_buckets(), "0:2,7:1");
    }

    #[test]
    fn phase_times_merge_delta_and_exclusive_total() {
        let mut a = PhaseTimes::new();
        a.record(Phase::IndexBuild, Duration::from_nanos(100));
        a.record(Phase::SupportEval, Duration::from_nanos(900));
        a.record(Phase::Search, Duration::from_nanos(700)); // nested — not double counted
        let mut b = PhaseTimes::new();
        b.record(Phase::Extension, Duration::from_nanos(50));
        b.merge(&a);
        assert_eq!(b.exclusive_total_nanos(), 100 + 900 + 50);
        assert_eq!(b.nanos(Phase::Search), 700);
        let delta = b.saturating_sub(&a);
        assert_eq!(delta.nanos(Phase::Extension), 50);
        assert_eq!(delta.nanos(Phase::SupportEval), 0);
        assert_eq!(Phase::ALL.len(), Phase::COUNT);
        for p in Phase::ALL {
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn search_counters_merge_and_sub() {
        let mut a = SearchCounters { steps: 10, backjumps: 2, ..SearchCounters::default() };
        let b = SearchCounters { steps: 5, searches: 1, ..SearchCounters::default() };
        a.merge(&b);
        assert_eq!(a.steps, 15);
        assert_eq!(a.searches, 1);
        let d = a.saturating_sub(&b);
        assert_eq!(d.steps, 10);
        assert_eq!(d.backjumps, 2);
    }

    #[test]
    fn tls_totals_accumulate_per_thread() {
        let before = tls::snapshot();
        tls::add_overlap_probes(7);
        tls::add_overlap_build_nanos(100);
        let delta = tls::snapshot().delta_since(&before);
        assert_eq!(delta.overlap_probes, 7);
        assert_eq!(delta.overlap_build_nanos, 100);
        // Another thread's totals are independent.
        let handle = std::thread::spawn(|| {
            let before = tls::snapshot();
            tls::add_overlap_probes(1);
            tls::snapshot().delta_since(&before).overlap_probes
        });
        assert_eq!(handle.join().unwrap(), 1);
        assert_eq!(tls::snapshot().delta_since(&before).overlap_probes, 7);
    }
}
