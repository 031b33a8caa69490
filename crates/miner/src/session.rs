//! [`MiningSession`] — the single entry point for frequent-subgraph mining.
//!
//! A session is a builder over one prepared data graph: pick a measure (built-in
//! [`MeasureKind`] or any user [`SupportMeasure`] impl), set the threshold and
//! limits, then either [`MiningSession::run`] (batch) or [`MiningSession::stream`]
//! (lazy, pull-based events).  Sequential, level-parallel and top-k mining are
//! modes of one engine, not separate APIs:
//!
//! ```
//! use ffsm_graph::{generators, LabeledGraph};
//! use ffsm_core::MeasureKind;
//! use ffsm_miner::MiningSession;
//!
//! let triangle = LabeledGraph::from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
//! let graph = generators::replicated(&triangle, 5, false);
//! let result = MiningSession::on(&graph)
//!     .measure(MeasureKind::Mni)
//!     .min_support(5.0)
//!     .max_edges(3)
//!     .run()
//!     .expect("valid session");
//! assert!(result.patterns.iter().any(|p| p.pattern.num_edges() == 3));
//! ```
//!
//! ## Prepare once, serve many
//!
//! [`MiningSession::on`] clones the graph into a private [`PreparedGraph`] —
//! convenient for one-shot calls, but every such session rebuilds the per-graph
//! artifacts.  Serving workloads prepare the graph once and open sessions over
//! the shared handle, from any number of threads; the matching index is then
//! built exactly once, ever:
//!
//! ```
//! use ffsm_graph::{generators, LabeledGraph};
//! use ffsm_miner::{MiningSession, PreparedGraph};
//!
//! let triangle = LabeledGraph::from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
//! let prepared = PreparedGraph::new(generators::replicated(&triangle, 5, false));
//! let a = MiningSession::over(&prepared).min_support(5.0).max_edges(3).run().unwrap();
//! let b = MiningSession::over(&prepared).min_support(5.0).max_edges(3).run().unwrap();
//! assert_eq!(a.len(), b.len());
//! assert_eq!(prepared.index_build_count(), 1); // shared, never rebuilt
//! ```
//!
//! ## Partitioned graphs
//!
//! A graph too large to hold whole is split into interior+halo shards once
//! ([`PartitionedGraph`]), optionally spilled to disk, and mined by the same
//! session over the shared `Arc` — streaming, bounds-first, deadlines and
//! tracing included, with results bit-for-bit identical to the whole graph's:
//!
//! ```
//! use ffsm_graph::{generators, LabeledGraph};
//! use ffsm_miner::MiningSession;
//! use ffsm_shard::{PartitionSpec, PartitionedGraph};
//! use std::sync::Arc;
//!
//! let triangle = LabeledGraph::from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
//! let graph = generators::replicated(&triangle, 5, false);
//! let parts = Arc::new(PartitionedGraph::build(&graph, PartitionSpec::vertex_range(3, 3)).unwrap());
//! let result = MiningSession::over(&parts).min_support(5.0).max_edges(3).run().unwrap();
//! assert!(result.patterns.iter().any(|p| p.pattern.num_edges() == 3));
//! ```
//!
//! Sessions are owned and `Send` — no borrows of the graph — so a server thread
//! can build one and spawn it elsewhere.  [`MiningSession::cancel_token`] and
//! [`MiningSession::deadline`] bound a run's wall-clock cost; the run then stops
//! at a deterministic prefix with a typed
//! [`Completion`](crate::Completion) status.

use crate::delta::{CacheMode, EvalCache};
use crate::engine::{EngineConfig, EngineState, GraphSource};
use crate::prepared::PreparedGraph;
use crate::sharded::ShardedRunStats;
use crate::stream::PatternStream;
use crate::types::MiningResult;
use ffsm_core::{
    CancelToken, EnumeratorBackend, FfsmError, GraphDelta, MeasureConfig, MeasureKind,
    SupportMeasure,
};
use ffsm_graph::canonical::MAX_VERTICES;
use ffsm_graph::LabeledGraph;
#[cfg(doc)]
use ffsm_shard::PartitionedGraph;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Safety caps bounding the cost of one mining run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiningBudget {
    /// Cap on the number of support evaluations (candidate patterns).
    pub max_evaluations: usize,
    /// Cap on the number of frequent patterns reported (threshold mode).
    pub max_patterns: usize,
}

impl Default for MiningBudget {
    fn default() -> Self {
        MiningBudget { max_evaluations: 100_000, max_patterns: 10_000 }
    }
}

/// The measure a session mines with: a built-in kind or a user-supplied impl.
#[derive(Clone)]
pub enum MeasureSelection {
    /// A built-in measure, instantiated with the session's [`MeasureConfig`] at
    /// [`MiningSession::run`] / [`MiningSession::stream`] time.
    Kind(MeasureKind),
    /// A user-defined pluggable measure.
    Custom(Arc<dyn SupportMeasure>),
}

impl std::fmt::Debug for MeasureSelection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureSelection::Kind(kind) => write!(f, "Kind({kind})"),
            MeasureSelection::Custom(m) => write!(f, "Custom({})", m.name()),
        }
    }
}

impl From<MeasureKind> for MeasureSelection {
    fn from(kind: MeasureKind) -> Self {
        MeasureSelection::Kind(kind)
    }
}

impl From<Arc<dyn SupportMeasure>> for MeasureSelection {
    fn from(measure: Arc<dyn SupportMeasure>) -> Self {
        MeasureSelection::Custom(measure)
    }
}

/// The canonical mining configuration a [`MiningSession`] builds up.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Support threshold τ: a pattern is frequent when `support ≥ min_support`.
    /// In top-k mode this is the floor below which patterns are never reported.
    pub min_support: f64,
    /// Which measure to mine with.
    pub measure: MeasureSelection,
    /// Measure configuration: occurrence-enumeration budget, MI strategy, MVC
    /// algorithm, hypergraph basis, search budget.  Built-in measures are
    /// instantiated with it; custom measures only use its `iso_config` (the engine
    /// enumerates occurrences with it).
    pub measure_config: MeasureConfig,
    /// Stop growing patterns beyond this many edges.
    pub max_edges: usize,
    /// Safety caps.
    pub budget: MiningBudget,
    /// Worker threads for candidate evaluation; `1` = sequential (the default),
    /// `0` = one per available core.
    pub threads: usize,
    /// `Some(k)` switches to top-k mining with a rising threshold.
    pub top_k: Option<usize>,
    /// Cooperative cancellation token; fire it (from any thread) to stop the run
    /// at a deterministic prefix.  Inert by default.
    pub cancel: CancelToken,
    /// Wall-clock deadline for the run, measured from `stream()` / `run()` time.
    pub deadline: Option<Duration>,
    /// Enable fine-grained span sampling (per-candidate candidate-space build
    /// and search times).  Counters and coarse per-level phase timings are
    /// always collected; this switch only adds the per-candidate clock reads.
    /// Guaranteed not to change results — the differential gate in
    /// `tests/obs_differential.rs` holds it to bit-for-bit identical output.
    pub metrics: bool,
    /// Bounds-first evaluation (see [`MiningSession::bounds_first`]): decide
    /// candidates from certified support intervals where a cheap argument
    /// suffices, and evaluate exactly only inside the uncertain band.
    pub bounds_first: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            min_support: 2.0,
            measure: MeasureSelection::Kind(MeasureKind::Mni),
            measure_config: MeasureConfig::default(),
            max_edges: 4,
            budget: MiningBudget::default(),
            threads: 1,
            top_k: None,
            cancel: CancelToken::default(),
            deadline: None,
            metrics: false,
            bounds_first: false,
        }
    }
}

/// Builder-style mining session over one data graph.  See the module docs for
/// examples; construct with [`MiningSession::on`] (one-shot, clones the graph)
/// or [`MiningSession::over`] (shares a [`PreparedGraph`] or a
/// [`PartitionedGraph`]).
///
/// The session is owned and `Send`: it holds an `Arc` handle to the graph,
/// never a borrow.
pub struct MiningSession {
    source: GraphSource,
    config: SessionConfig,
}

impl MiningSession {
    /// Start a session with default configuration (MNI, τ = 2, patterns up to
    /// 4 edges, sequential) over a shared `&PreparedGraph`, or over a shared
    /// `&Arc<PartitionedGraph>` — whose halo depth must then cover
    /// `max_edges`.  Cheap: clones the `Arc` handle, not the graph.
    pub fn over(source: impl Into<GraphSource>) -> Self {
        Self::with_config(source, SessionConfig::default())
    }

    /// Start a one-shot session over `graph` (clones it into a private
    /// [`PreparedGraph`]).  For repeated sessions over the same graph, prepare it
    /// once and use [`MiningSession::over`] so the per-graph artifacts are shared.
    pub fn on(graph: &LabeledGraph) -> Self {
        Self::over(&PreparedGraph::new(graph.clone()))
    }

    /// Start a session over either source of [`MiningSession::over`] with a
    /// fully built [`SessionConfig`] — the re-run entry point for callers that
    /// keep one configuration across many epochs (`ffsm-dynamic`'s incremental
    /// miner).
    pub fn with_config(source: impl Into<GraphSource>, config: SessionConfig) -> Self {
        MiningSession { source: source.into(), config }
    }

    /// The canonical configuration built so far.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Select the measure: a built-in [`MeasureKind`] or an
    /// `Arc<dyn SupportMeasure>` of a user-defined measure.
    pub fn measure(mut self, measure: impl Into<MeasureSelection>) -> Self {
        self.config.measure = measure.into();
        self
    }

    /// Set the support threshold τ (the floor threshold in top-k mode).
    pub fn min_support(mut self, tau: f64) -> Self {
        self.config.min_support = tau;
        self
    }

    /// Stop growing patterns beyond `edges` edges: at most 63, so every pattern
    /// has at most [`MAX_VERTICES`](ffsm_graph::canonical::MAX_VERTICES) vertices
    /// for its canonical code.  Over a partition, must not exceed its halo depth
    /// (both checked at `run()` / `stream()` time).
    pub fn max_edges(mut self, edges: usize) -> Self {
        self.config.max_edges = edges;
        self
    }

    /// Use `count` worker threads for candidate evaluation (`1` = sequential,
    /// `0` = one per available core).  The thread count never changes the result.
    pub fn threads(mut self, count: usize) -> Self {
        self.config.threads = count;
        self
    }

    /// Select the occurrence-enumeration backend (shorthand for setting
    /// `measure_config.iso_config.backend`).
    ///
    /// Under the default [`EnumeratorBackend::CandidateSpace`] the engine uses the
    /// prepared graph's shared matching index ([`ffsm_core::GraphIndex`]) — built
    /// lazily exactly once per [`PreparedGraph`], never per session or per
    /// pattern.  [`EnumeratorBackend::Naive`] selects the recursive oracle (no
    /// index).  The choice affects only speed: both backends yield identical
    /// patterns and support values.
    pub fn enumerator(mut self, backend: EnumeratorBackend) -> Self {
        self.config.measure_config.iso_config.backend = backend;
        self
    }

    /// Mine the `k` highest-support patterns instead of all patterns above τ.
    pub fn top_k(mut self, k: usize) -> Self {
        self.config.top_k = Some(k);
        self
    }

    /// Set the safety caps (evaluations, reported patterns).
    pub fn budget(mut self, budget: MiningBudget) -> Self {
        self.config.budget = budget;
        self
    }

    /// Override the measure configuration (occurrence-enumeration budget, MI
    /// strategy, MVC algorithm, basis, search budget).
    pub fn measure_config(mut self, measure_config: MeasureConfig) -> Self {
        self.config.measure_config = measure_config;
        self
    }

    /// Attach a cancellation token.  Firing it (from any thread, any clone) stops
    /// the run cooperatively — between levels and inside occurrence enumeration —
    /// at a deterministic prefix with [`Completion::Cancelled`](crate::Completion).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.config.cancel = token;
        self
    }

    /// Bound the run's wall-clock time, measured from the moment
    /// [`MiningSession::stream`] / [`MiningSession::run`] is called.  A run past
    /// its deadline stops at a deterministic prefix with
    /// [`Completion::DeadlineExceeded`](crate::Completion).
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.config.deadline = Some(deadline);
        self
    }

    /// Enable fine-grained metrics sampling: per-candidate candidate-space and
    /// search span times land in
    /// [`MiningStats::phase_timings`](crate::MiningStats).  Counters and coarse
    /// per-level phase timings are always on; this only adds the per-candidate
    /// clock reads.  Results are bit-for-bit identical either way.
    pub fn metrics(mut self, on: bool) -> Self {
        self.config.metrics = on;
        self
    }

    /// Enable bounds-first evaluation: each candidate first gets a certified
    /// support interval `[lo, hi]` from cheap arguments (the parent's bound,
    /// index cardinality, the paper's containment chain, a greedy packing, the
    /// covering LP with its dual), and the exact — potentially NP-hard —
    /// support computation runs only when the interval straddles the
    /// threshold.  The frequent-pattern *set* is identical to exact mining;
    /// accepted patterns additionally carry
    /// [`FrequentPattern::support_interval`](crate::FrequentPattern) and
    /// [`FrequentPattern::certificate`](crate::FrequentPattern), and a run
    /// interrupted by deadline or cancellation reports every still-pending
    /// candidate as [`MiningEvent::Undecided`](crate::MiningEvent) with a
    /// certified interval — the honest anytime answer.
    ///
    /// Bound-decided patterns report the deciding interval side as their
    /// `support` (the exact value was never computed).  The mode applies to
    /// built-in measure kinds with sound cheap bounds (the containment-chain
    /// measures; MVC under its exact algorithm); other kinds and custom
    /// measures silently take the plain exact path.  Incompatible with top-k
    /// (its rising threshold would invalidate earlier decisions) and with the
    /// caching runs (`run_recorded` / `run_delta` need exact supports) — those
    /// combinations are rejected at `run()` / `stream()` time.
    pub fn bounds_first(mut self, on: bool) -> Self {
        self.config.bounds_first = on;
        self
    }

    /// Validate the configuration and open the lazy event stream.  No support is
    /// evaluated until the stream is pulled.
    ///
    /// # Errors
    ///
    /// * [`FfsmError::InvalidConfig`] — non-finite or negative τ, `max_edges` of
    ///   0 or above 63 (a 64-edge pattern can have 65 vertices, past what a
    ///   canonical code encodes), `top_k(0)`, or an `MNI-0` measure;
    /// * [`FfsmError::NotAntiMonotone`] — the selected measure refuses threshold
    ///   pruning (e.g. the raw occurrence count), which would make mining unsound;
    /// * [`FfsmError::Partition`] — over a partition with more than one shard,
    ///   `max_edges` exceeds the halo depth, so per-shard enumeration could miss
    ///   embeddings that dangle past the halo.
    ///
    /// A shard the partition's store cannot fetch while mining ends the stream
    /// with an `Err` item instead (see [`PatternStream`]).
    pub fn stream(self) -> Result<PatternStream, FfsmError> {
        self.stream_with(false, CacheMode::Off)
    }

    /// The one validation site and engine construction behind
    /// [`MiningSession::stream`] (`quiet = false`) and [`MiningSession::run`]
    /// (`quiet = true`: no consumer reads per-pattern events, so the engine
    /// skips materialising them).  `mode` selects the cache interaction (off /
    /// record / delta reuse).
    fn stream_with(self, quiet: bool, mode: CacheMode) -> Result<PatternStream, FfsmError> {
        let MiningSession { source, config } = self;
        if !config.min_support.is_finite() || config.min_support < 0.0 {
            return Err(FfsmError::InvalidConfig(format!(
                "min_support must be finite and non-negative, got {}",
                config.min_support
            )));
        }
        if config.max_edges == 0 {
            return Err(FfsmError::InvalidConfig("max_edges must be at least 1".into()));
        }
        if config.max_edges >= MAX_VERTICES {
            return Err(FfsmError::InvalidConfig(format!(
                "max_edges must be at most {}: a canonical code covers {MAX_VERTICES} vertices",
                MAX_VERTICES - 1
            )));
        }
        if config.top_k == Some(0) {
            return Err(FfsmError::InvalidConfig("top_k must be at least 1".into()));
        }
        if let MeasureSelection::Kind(MeasureKind::MniK(0)) = config.measure {
            return Err(FfsmError::InvalidConfig("MNI-k needs k >= 1".into()));
        }
        if config.bounds_first && config.top_k.is_some() {
            return Err(FfsmError::InvalidConfig(
                "bounds_first is incompatible with top_k: the rising threshold would \
                 invalidate interval decisions made at the floor"
                    .into(),
            ));
        }
        if config.bounds_first && !matches!(mode, CacheMode::Off) {
            return Err(FfsmError::InvalidConfig(
                "bounds_first is incompatible with run_recorded/run_delta: the evaluation \
                 cache needs exact supports, which bound-decided candidates never compute"
                    .into(),
            ));
        }
        match (&source, &mode) {
            (GraphSource::Partitioned(_), CacheMode::Delta(..)) => {
                return Err(FfsmError::InvalidConfig(
                    "run_delta needs a whole graph: a partition has no update path".into(),
                ));
            }
            (GraphSource::Partitioned(parts), _) => {
                let spec = parts.spec();
                if spec.num_shards > 1 && config.max_edges > spec.halo_depth {
                    return Err(FfsmError::Partition(format!(
                        "patterns of up to {} edges need a halo of at least {} hops, but the \
                         partition was built with halo depth {} — rebuild it with a deeper halo",
                        config.max_edges, config.max_edges, spec.halo_depth
                    )));
                }
            }
            (GraphSource::Whole(_), _) => {}
        }
        // Combine the session token with the deadline into the token the
        // enumerators poll, so interruption reaches inside a running level.
        // `with_deadline` keeps the earlier bound, so a deadline the caller
        // already attached to the token survives; the engine checks the same
        // effective (tightest) deadline between levels.
        let run_token = match config.deadline.map(|d| Instant::now() + d) {
            Some(at) => config.cancel.with_deadline(at),
            None => config.cancel.clone(),
        };
        let deadline_at = run_token.deadline();
        let mut measure_config = config.measure_config.clone();
        measure_config.iso_config.cancel = run_token;
        // Bounds-first: built-in kinds with sound cheap bounds get an evaluator;
        // custom measures and unsupported kinds silently take the exact path.
        let bounds = match (&config.measure, config.bounds_first) {
            (MeasureSelection::Kind(kind), true) => {
                ffsm_approx::BoundsEvaluator::new(*kind, &measure_config, config.min_support)
                    .map(Arc::new)
            }
            _ => None,
        };
        let space_cap = match &config.measure {
            MeasureSelection::Kind(kind) => {
                ffsm_approx::BoundsEvaluator::supports(*kind, &measure_config)
            }
            MeasureSelection::Custom(_) => false,
        };
        let measure: Arc<dyn SupportMeasure> = match config.measure {
            MeasureSelection::Kind(kind) => kind.measure(measure_config.clone()),
            MeasureSelection::Custom(measure) => measure,
        };
        if !measure.is_anti_monotone() {
            return Err(FfsmError::NotAntiMonotone(measure.name().to_string()));
        }
        let threads = if config.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            config.threads
        };
        let engine_config = EngineConfig {
            min_support: config.min_support,
            iso_config: measure_config.iso_config,
            max_pattern_edges: config.max_edges,
            max_patterns: config.budget.max_patterns,
            max_evaluations: config.budget.max_evaluations,
            threads,
            top_k: config.top_k,
            cancel: config.cancel,
            deadline: deadline_at,
            metrics: config.metrics,
            bounds,
            space_cap,
        };
        Ok(PatternStream::new(EngineState::new(source, measure, engine_config, quiet, mode)?))
    }

    /// Validate the configuration and run the miner to completion — a thin
    /// adapter that collects [`MiningSession::stream`].  An interrupted run
    /// returns `Ok` with the deterministic prefix and a non-`Complete`
    /// [`Completion`](crate::Completion) in the result, never a silent truncation.
    ///
    /// # Errors
    ///
    /// Those of [`MiningSession::stream`], plus the error a failed shard fetch
    /// ends the stream with.
    pub fn run(self) -> Result<MiningResult, FfsmError> {
        self.stream_with(true, CacheMode::Off)?.into_result()
    }

    /// [`MiningSession::run`], also reporting the shard counters.  Kept only
    /// for the repository benchmark, which still names it; the same numbers
    /// are `stats.counters.cross_shard_occurrences` and
    /// `PartitionedGraph::store_stats` (all-zero store counters over a whole
    /// graph).
    pub fn run_detailed(self) -> Result<(MiningResult, ShardedRunStats), FfsmError> {
        let parts = match &self.source {
            GraphSource::Partitioned(parts) => Some(parts.clone()),
            GraphSource::Whole(_) => None,
        };
        let result = self.run()?;
        let cross_shard_occurrences = result.stats.counters.cross_shard_occurrences;
        let store = parts.map(|parts| parts.store_stats()).unwrap_or_default();
        Ok((result, ShardedRunStats { cross_shard_occurrences, store }))
    }

    /// Run to completion like [`MiningSession::run`], additionally recording
    /// every candidate evaluation into an [`EvalCache`] — the cold leg of the
    /// dynamic-graph protocol.  After the graph absorbs an update batch
    /// ([`PreparedGraph::apply_updates`]), feed the cache and the batch's
    /// [`GraphDelta`] to [`MiningSession::run_delta`] over the new epoch.
    pub fn run_recorded(self) -> Result<(MiningResult, EvalCache), FfsmError> {
        self.stream_with(true, CacheMode::Record)?.into_result_and_cache()
    }

    /// Re-mine a new graph epoch incrementally: candidates whose occurrences
    /// provably avoid the delta's dirty region are answered from `prior` (the
    /// immediately preceding epoch's cache) without enumerating anything; all
    /// others are re-evaluated.  The result is **bit-for-bit identical** to a
    /// cold [`MiningSession::run`] over the same epoch, and the returned cache
    /// feeds the next epoch.  The proof runs once per delta (see the `delta`
    /// module docs): the connected subgraphs of at most `max_edges` edges that
    /// meet the dirty region are coded in both epochs.  That walk may take a
    /// sixth of the time a cold run took (the cache remembers it); past that
    /// nothing is reused, so [`MiningStats::dirty_subgraphs`](crate::MiningStats)
    /// and `evaluations_reused` then depend on the machine's speed, the result
    /// never does.
    ///
    /// The session must be configured like the run that produced `prior` (same
    /// measure, measure config and enumeration backend); the threshold, top-k
    /// and budget settings are free to change between epochs.
    /// [`MiningStats::evaluations_reused`](crate::MiningStats) reports how many
    /// evaluations the cache absorbed.
    ///
    /// # Errors
    ///
    /// Those of [`MiningSession::run`], plus [`FfsmError::InvalidConfig`] when
    /// the session mines a partition, which has no update path, or the delta
    /// does not run from the cache's epoch to this graph (vertex and edge
    /// counts, dirty vertices sorted and in range).  A cache recorded on another
    /// graph of the same size as the delta's base is not detectable.
    pub fn run_delta(
        self,
        prior: EvalCache,
        delta: &GraphDelta,
    ) -> Result<(MiningResult, EvalCache), FfsmError> {
        self.stream_with(true, CacheMode::Delta(prior, Box::new(delta.clone())))?
            .into_result_and_cache()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::MiningEvent;
    use crate::types::Completion;
    use ffsm_core::OccurrenceSet;
    use ffsm_graph::generators;

    fn assert_send<T: Send>() {}

    #[test]
    fn sessions_are_owned_and_send() {
        assert_send::<MiningSession>();
        let graph = LabeledGraph::from_edges(&[0, 0], &[(0, 1)]);
        let session = MiningSession::on(&graph).min_support(1.0);
        // The session owns its graph handle: it outlives the borrow it was built
        // from and can run on another thread.
        drop(graph);
        let handle = std::thread::spawn(move || session.run().unwrap());
        let result = handle.join().unwrap();
        assert!(!result.is_empty());
        assert!(result.completion().is_complete());
    }

    fn triangle_forest(copies: usize) -> LabeledGraph {
        let triangle = LabeledGraph::from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
        generators::replicated(&triangle, copies, false)
    }

    #[test]
    fn builder_round_trips_every_setting() {
        let graph = LabeledGraph::new();
        let session = MiningSession::on(&graph)
            .measure(MeasureKind::Mis)
            .min_support(7.5)
            .max_edges(6)
            .threads(3)
            .top_k(9)
            .deadline(Duration::from_secs(4))
            .budget(MiningBudget { max_evaluations: 123, max_patterns: 45 });
        let config = session.config();
        assert!(matches!(config.measure, MeasureSelection::Kind(MeasureKind::Mis)));
        assert_eq!(config.min_support, 7.5);
        assert_eq!(config.max_edges, 6);
        assert_eq!(config.threads, 3);
        assert_eq!(config.top_k, Some(9));
        assert_eq!(config.deadline, Some(Duration::from_secs(4)));
        assert_eq!(config.budget, MiningBudget { max_evaluations: 123, max_patterns: 45 });
    }

    #[test]
    fn defaults_match_session_config_default() {
        let graph = LabeledGraph::new();
        let session = MiningSession::on(&graph);
        let d = SessionConfig::default();
        let config = session.config();
        assert_eq!(config.min_support, d.min_support);
        assert_eq!(config.max_edges, d.max_edges);
        assert_eq!(config.threads, d.threads);
        assert_eq!(config.top_k, d.top_k);
        assert_eq!(config.budget, d.budget);
        assert_eq!(config.deadline, None);
        // The default token has no deadline and no flag: cancelling it is a no-op.
        assert_eq!(config.cancel.deadline(), None);
        config.cancel.cancel();
        assert!(!config.cancel.cancel_requested());
        assert!(matches!(config.measure, MeasureSelection::Kind(MeasureKind::Mni)));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        let graph = triangle_forest(2);
        let prepared = PreparedGraph::new(graph);
        let nan = MiningSession::over(&prepared).min_support(f64::NAN).run();
        assert!(matches!(nan, Err(FfsmError::InvalidConfig(_))));
        let negative = MiningSession::over(&prepared).min_support(-1.0).run();
        assert!(matches!(negative, Err(FfsmError::InvalidConfig(_))));
        let zero_edges = MiningSession::over(&prepared).max_edges(0).run();
        assert!(matches!(zero_edges, Err(FfsmError::InvalidConfig(_))));
        let too_many_edges = MiningSession::over(&prepared).max_edges(64).run();
        assert!(matches!(too_many_edges, Err(FfsmError::InvalidConfig(_))));
        assert!(MiningSession::over(&prepared).max_edges(63).run().is_ok());
        let zero_k = MiningSession::over(&prepared).top_k(0).run();
        assert!(matches!(zero_k, Err(FfsmError::InvalidConfig(_))));
        let mni0 = MiningSession::over(&prepared).measure(MeasureKind::MniK(0)).run();
        assert!(matches!(mni0, Err(FfsmError::InvalidConfig(_))));
        let unsound = MiningSession::over(&prepared).measure(MeasureKind::OccurrenceCount).run();
        assert!(matches!(unsound, Err(FfsmError::NotAntiMonotone(_))));
        // stream() rejects identically (run() is a thin adapter over it).
        assert!(matches!(
            MiningSession::over(&prepared).max_edges(0).stream().map(|_| ()),
            Err(FfsmError::InvalidConfig(_))
        ));
    }

    #[test]
    fn threshold_run_finds_triangles() {
        let graph = triangle_forest(5);
        let result = MiningSession::on(&graph)
            .measure(MeasureKind::Mni)
            .min_support(5.0)
            .max_edges(3)
            .run()
            .unwrap();
        assert!(result.patterns.iter().any(|p| p.pattern.num_edges() == 3));
        assert_eq!(result.final_threshold, 5.0);
        assert!(result.completion().is_complete());
        for p in &result.patterns {
            assert!(p.support >= 5.0);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let graph = generators::community_graph(2, 10, 0.4, 0.05, 3, 9);
        let prepared = PreparedGraph::new(graph);
        let collect = |threads: usize| {
            MiningSession::over(&prepared)
                .min_support(3.0)
                .max_edges(2)
                .threads(threads)
                .run()
                .unwrap()
                .patterns
                .iter()
                .map(|p| ffsm_graph::canonical::canonical_code(&p.pattern))
                .collect::<std::collections::BTreeSet<_>>()
        };
        let base = collect(1);
        for threads in [2, 4, 0] {
            assert_eq!(base, collect(threads), "threads = {threads}");
        }
        assert_eq!(prepared.index_build_count(), 1, "index shared across all runs");
    }

    #[test]
    fn top_k_mode_returns_k_best_sorted() {
        let graph = triangle_forest(6);
        let result =
            MiningSession::on(&graph).min_support(1.0).max_edges(3).top_k(4).run().unwrap();
        assert!(result.patterns.len() <= 4);
        assert!(!result.patterns.is_empty());
        for w in result.patterns.windows(2) {
            assert!(w[0].support >= w[1].support);
        }
        assert!(result.final_threshold >= 1.0);
    }

    #[test]
    fn enumerator_backend_does_not_change_results() {
        let graph = generators::community_graph(2, 10, 0.4, 0.05, 3, 11);
        let collect = |backend: EnumeratorBackend| {
            MiningSession::on(&graph)
                .min_support(3.0)
                .max_edges(2)
                .enumerator(backend)
                .run()
                .unwrap()
                .patterns
                .iter()
                .map(|p| {
                    (
                        format!("{:?}", ffsm_graph::canonical::canonical_code(&p.pattern)),
                        p.support.to_bits(),
                        p.num_occurrences,
                    )
                })
                .collect::<std::collections::BTreeSet<_>>()
        };
        let candidate_space = collect(EnumeratorBackend::CandidateSpace);
        assert_eq!(candidate_space, collect(EnumeratorBackend::Naive));
    }

    #[test]
    fn stream_emits_patterns_then_finishes() {
        let graph = triangle_forest(4);
        let batch = MiningSession::on(&graph).min_support(4.0).max_edges(3).run().unwrap();
        let mut streamed = Vec::new();
        let mut finished = None;
        for event in MiningSession::on(&graph).min_support(4.0).max_edges(3).stream().unwrap() {
            match event.unwrap() {
                MiningEvent::Pattern(p) => streamed.push(p.pattern.num_edges()),
                MiningEvent::LevelCompleted(_) | MiningEvent::Undecided(_) => {}
                MiningEvent::Finished(summary) => finished = Some(summary),
            }
        }
        assert_eq!(streamed.len(), batch.len());
        let summary = finished.expect("stream ends with Finished");
        assert_eq!(summary.completion, Completion::Complete);
        assert_eq!(summary.num_patterns, batch.len());
    }

    #[test]
    fn pre_cancelled_session_yields_empty_prefix() {
        let token = CancelToken::new();
        token.cancel();
        let graph = triangle_forest(4);
        let result = MiningSession::on(&graph).min_support(1.0).cancel_token(token).run().unwrap();
        assert!(result.is_empty());
        assert_eq!(result.completion(), Completion::Cancelled);
    }

    #[test]
    fn deadline_carried_by_the_token_itself_is_honoured() {
        // A deadline attached to the token (not via .deadline()) must stop the run
        // and be attributed as DeadlineExceeded — never silently corrupt supports.
        let token = CancelToken::new().with_timeout(Duration::ZERO);
        let graph = triangle_forest(4);
        let result = MiningSession::on(&graph).min_support(1.0).cancel_token(token).run().unwrap();
        assert!(result.is_empty());
        assert_eq!(result.completion(), Completion::DeadlineExceeded);

        // And a looser session deadline must not override the token's tighter one.
        let token = CancelToken::new().with_timeout(Duration::ZERO);
        let result = MiningSession::on(&triangle_forest(4))
            .min_support(1.0)
            .cancel_token(token)
            .deadline(Duration::from_secs(3600))
            .run()
            .unwrap();
        assert!(result.is_empty());
        assert_eq!(result.completion(), Completion::DeadlineExceeded);
    }

    #[test]
    fn delta_rerun_matches_cold_run_and_reuses_evaluations() {
        use ffsm_graph::GraphUpdate;
        let prepared = PreparedGraph::new(generators::community_graph(3, 12, 0.35, 0.03, 4, 17));
        let configure = |p: &PreparedGraph| {
            MiningSession::over(p).measure(MeasureKind::Mni).min_support(2.0).max_edges(2)
        };
        let (_, cache) = configure(&prepared).run_recorded().unwrap();
        assert!(!cache.is_empty());
        // A small edge delta far from most of the graph.
        let (next, delta) = prepared
            .apply_updates(&[GraphUpdate::AddEdge(0, 1), GraphUpdate::RemoveEdge(2, 3)])
            .unwrap_or_else(|_| prepared.apply_updates(&[GraphUpdate::AddEdge(0, 2)]).unwrap());
        let cold = configure(&next).run().unwrap();
        let (incremental, next_cache) = configure(&next).run_delta(cache, &delta).unwrap();
        assert_eq!(incremental.len(), cold.len());
        for (a, b) in incremental.patterns.iter().zip(&cold.patterns) {
            assert_eq!(a.support.to_bits(), b.support.to_bits());
            assert_eq!(a.num_occurrences, b.num_occurrences);
            assert_eq!(
                ffsm_graph::canonical::canonical_code(&a.pattern),
                ffsm_graph::canonical::canonical_code(&b.pattern)
            );
        }
        assert_eq!(incremental.stats.candidates_evaluated, cold.stats.candidates_evaluated);
        assert_eq!(cold.stats.evaluations_reused, 0);
        assert_eq!(next_cache.len(), incremental.stats.candidates_evaluated);
    }

    #[test]
    fn run_delta_rejects_a_delta_from_another_lineage() {
        use ffsm_graph::GraphUpdate;
        let prepared = PreparedGraph::new(triangle_forest(3));
        let (_, cache) = MiningSession::over(&prepared).run_recorded().unwrap();
        // A delta whose post-batch vertex count does not match this graph.
        let other = PreparedGraph::new(triangle_forest(5));
        let (_, delta) =
            other.apply_updates(&[GraphUpdate::AddVertex(ffsm_graph::Label(0))]).unwrap();
        let err = MiningSession::over(&prepared).run_delta(cache, &delta).unwrap_err();
        assert!(matches!(err, FfsmError::InvalidConfig(_)), "{err:?}");
        // Same vertex count, different lineage: a pure-edge batch on a 9-vertex
        // path must still be rejected against the 9-vertex triangle forest.
        let path = PreparedGraph::new(ffsm_graph::patterns::uniform_path(9, ffsm_graph::Label(0)));
        let (_, cache) = MiningSession::over(&prepared).run_recorded().unwrap();
        let (_, delta) = path.apply_updates(&[GraphUpdate::RemoveEdge(0, 1)]).unwrap();
        let err = MiningSession::over(&prepared).run_delta(cache, &delta).unwrap_err();
        assert!(matches!(err, FfsmError::InvalidConfig(_)), "{err:?}");
    }

    /// A cache recorded one epoch before the delta's base is refused: reading
    /// the dirty region in the wrong epoch would reuse all 30 candidates and
    /// report MNI 4 for the (0, 1) edge, where the cold mine gives 3.
    #[test]
    fn run_delta_rejects_a_cache_from_an_earlier_epoch() {
        use ffsm_graph::GraphUpdate;
        let mut graph = triangle_forest(4);
        let (a, b) =
            (graph.add_vertex(ffsm_graph::Label(5)), graph.add_vertex(ffsm_graph::Label(6)));
        graph.add_edge(a, b).unwrap();
        let epoch_a = PreparedGraph::new(graph);
        let session = |p: &PreparedGraph| MiningSession::over(p).min_support(3.0).max_edges(3);
        let (_, cache_a) = session(&epoch_a).run_recorded().unwrap();
        let (epoch_b, _) = epoch_a.apply_updates(&[GraphUpdate::RemoveEdge(0, 1)]).unwrap();
        let (epoch_c, delta) = epoch_b.apply_updates(&["re 12 13".parse().unwrap()]).unwrap();
        let err = session(&epoch_c).run_delta(cache_a.clone(), &delta).unwrap_err();
        assert!(matches!(err, FfsmError::InvalidConfig(_)), "{err:?}");
        // A dirty vertex outside the epochs is a typed error, not a panic.
        let (_, cache_b) = session(&epoch_b).run_recorded().unwrap();
        let mut forged = delta.clone();
        forged.dirty_new.push(99);
        let err = session(&epoch_c).run_delta(cache_b.clone(), &forged).unwrap_err();
        assert!(matches!(err, FfsmError::InvalidConfig(_)), "{err:?}");
        // So is an unsorted dirty list, in range or not: the walk relies on the order.
        let mut forged = delta.clone();
        forged.dirty_new = vec![13, 12];
        let err = session(&epoch_c).run_delta(cache_b.clone(), &forged).unwrap_err();
        assert!(matches!(err, FfsmError::InvalidConfig(_)), "{err:?}");
        // The cache of the delta's own base is accepted and matches the cold mine;
        // the cache it returns carries the recording run's cost on.
        let recorded = cache_b.cold;
        let (incremental, out) = session(&epoch_c).run_delta(cache_b, &delta).unwrap();
        assert_eq!(out.cold, recorded);
        let cold = session(&epoch_c).run().unwrap();
        let supports = |r: &MiningResult| r.patterns.iter().map(|p| p.support).collect::<Vec<_>>();
        assert_eq!(supports(&incremental), supports(&cold));
        assert!(incremental.stats.evaluations_reused > 0);
    }

    #[test]
    fn custom_measure_plugs_in() {
        /// Half of MNI — still anti-monotone, so mining with it is sound.
        struct HalfMni;
        impl SupportMeasure for HalfMni {
            fn support(&self, occurrences: &OccurrenceSet) -> f64 {
                ffsm_core::measures::mni::mni(occurrences) as f64 / 2.0
            }
            fn is_anti_monotone(&self) -> bool {
                true
            }
            fn name(&self) -> &str {
                "MNI/2"
            }
        }
        let graph = triangle_forest(6);
        let custom: Arc<dyn SupportMeasure> = Arc::new(HalfMni);
        let halved =
            MiningSession::on(&graph).measure(custom).min_support(3.0).max_edges(3).run().unwrap();
        let full = MiningSession::on(&graph)
            .measure(MeasureKind::Mni)
            .min_support(6.0)
            .max_edges(3)
            .run()
            .unwrap();
        // τ = 3 under MNI/2 is exactly τ = 6 under MNI.
        assert_eq!(halved.len(), full.len());
        for (a, b) in halved.patterns.iter().zip(&full.patterns) {
            assert_eq!(a.support * 2.0, b.support);
        }
    }
}
