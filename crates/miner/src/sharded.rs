//! [`ShardedSession`] — partitioned out-of-core mining over a
//! [`PartitionedGraph`].
//!
//! The driver reproduces the unsharded engine's level loop *exactly* — same
//! seeds, same deduplication, same threshold/top-k application order, same
//! budget and interruption semantics — and replaces only the support
//! evaluation of a level, which runs **shard-major**:
//!
//! 1. each shard is fetched from the store once per level and its
//!    `GraphIndex` taken once;
//! 2. every candidate of the level is enumerated on that shard with the
//!    whole-graph matcher machinery unchanged, and the images the shard owns
//!    by the anchor-shard rule are remapped to global vertex ids and appended
//!    to the candidate's flat level buffer (one `Vec<VertexId>` of stride
//!    `pattern.num_vertices()`);
//! 3. after the last shard, each buffer is sorted into one global
//!    [`OccurrenceSet`], handed to the very same measure implementation, and
//!    freed.
//!
//! A level therefore costs at most K shard loads however many candidates it
//! holds.  The shard order alternates between ascending and descending per
//! level, so the LRU store begins each level with the shards the previous one
//! left resident.
//!
//! ## Why the merge is exact
//!
//! * **Coverage.** The halo invariant (see `ffsm-shard`) guarantees that every
//!   global embedding of a pattern with at most `halo_depth` edges appears in
//!   the shard owning its anchor (minimum global image vertex); the session
//!   therefore refuses to run when `max_edges > halo_depth`.
//! * **Uniqueness.** A kept embedding's anchor is interior to exactly one
//!   shard, so the anchor-shard filter keeps each global embedding exactly
//!   once; shards are *induced* subgraphs, so no spurious embedding can exist.
//! * **Measures.** The merged list is exactly the global occurrence list, so
//!   MNI's per-node image sets are the unions of the per-shard contributions,
//!   and MIS/MVC/MI see the same occurrence hypergraph the unsharded run
//!   builds — cut-straddling occurrences can only overlap in cut-boundary
//!   vertices (`PartitionedGraph::boundary`), and the overlap machinery probes
//!   exactly those shared vertices.  All four are integer-valued graph
//!   invariants of that hypergraph, so the values agree bit-for-bit — the
//!   contract `tests/shard_differential.rs` enforces at shard counts 1, 2, 3
//!   and 7.

use crate::extension::{dedupe_with_codes, extensions};
use crate::session::{MeasureSelection, MiningBudget, SessionConfig};
use crate::types::{BudgetKind, Completion, FrequentPattern, MiningResult, MiningStats};
use ffsm_core::{
    enumerate_with, CancelToken, EnumerationResult, EnumeratorBackend, FfsmError, MeasureConfig,
    MeasureKind, OccurrenceSet, SearchArena, SupportMeasure,
};
use ffsm_graph::canonical::CanonicalCode;
use ffsm_graph::isomorphism::{Embedding, IsoConfig};
use ffsm_graph::{patterns, Pattern, VertexId};
use ffsm_obs::{tls, Phase, PhaseTimes, SearchCounters};
use ffsm_shard::{PartitionedGraph, ShardStoreStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shard-specific counters a [`ShardedSession::run_detailed`] reports next to
/// the ordinary [`MiningStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardedRunStats {
    /// Kept occurrences whose image leaves the anchor's shard interior —
    /// the ones the halo exists for.
    pub cross_shard_occurrences: u64,
    /// Residency counters of the shard store at the end of the run.
    pub store: ShardStoreStats,
}

/// Builder-style mining session over a [`PartitionedGraph`] — the out-of-core
/// counterpart of [`MiningSession`](crate::MiningSession), sharing its
/// [`SessionConfig`] vocabulary and validation.
///
/// ```
/// use ffsm_graph::{generators, LabeledGraph};
/// use ffsm_shard::{PartitionSpec, PartitionedGraph};
/// use ffsm_miner::ShardedSession;
/// use std::sync::Arc;
///
/// let triangle = LabeledGraph::from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
/// let graph = generators::replicated(&triangle, 5, false);
/// let parts = Arc::new(PartitionedGraph::build(&graph, PartitionSpec::vertex_range(3, 3)).unwrap());
/// let result = ShardedSession::over(&parts).min_support(5.0).max_edges(3).run().unwrap();
/// assert!(result.patterns.iter().any(|p| p.pattern.num_edges() == 3));
/// ```
pub struct ShardedSession {
    partitioned: Arc<PartitionedGraph>,
    config: SessionConfig,
}

impl ShardedSession {
    /// Start a session over a shared partition with default configuration
    /// (MNI, τ = 2, patterns up to 4 edges, sequential).
    pub fn over(partitioned: &Arc<PartitionedGraph>) -> Self {
        ShardedSession { partitioned: partitioned.clone(), config: SessionConfig::default() }
    }

    /// The partition this session mines.
    pub fn partitioned(&self) -> &Arc<PartitionedGraph> {
        &self.partitioned
    }

    /// The canonical configuration built so far.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Select the measure (see [`MiningSession::measure`](crate::MiningSession::measure)).
    pub fn measure(mut self, measure: impl Into<MeasureSelection>) -> Self {
        self.config.measure = measure.into();
        self
    }

    /// Set the support threshold τ (the floor threshold in top-k mode).
    pub fn min_support(mut self, tau: f64) -> Self {
        self.config.min_support = tau;
        self
    }

    /// Stop growing patterns beyond `edges` edges.  Must not exceed the
    /// partition's halo depth — checked at [`ShardedSession::run`] time.
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

    /// Select the occurrence-enumeration backend.  Per-shard indices are built
    /// lazily once per resident shard under `CandidateSpace` / `Auto`.
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

    /// Override the measure configuration.
    pub fn measure_config(mut self, measure_config: MeasureConfig) -> Self {
        self.config.measure_config = measure_config;
        self
    }

    /// Attach a cancellation token (cooperative, polled inside enumeration).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.config.cancel = token;
        self
    }

    /// Bound the run's wall-clock time from the moment [`ShardedSession::run`]
    /// is called.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.config.deadline = Some(deadline);
        self
    }

    /// Enable fine-grained metrics sampling (never changes results).
    pub fn metrics(mut self, on: bool) -> Self {
        self.config.metrics = on;
        self
    }

    /// Validate the configuration and mine to completion.  Identical
    /// validation to [`MiningSession::run`](crate::MiningSession::run), plus:
    ///
    /// # Errors
    ///
    /// * [`FfsmError::Partition`] — `max_edges` exceeds the partition's halo
    ///   depth (with more than one shard), so per-shard enumeration could miss
    ///   embeddings that dangle past the halo; or the shard store cannot fetch
    ///   a shard (a missing or corrupt spill file, a poisoned store), which
    ///   fails the level it happens in.
    pub fn run(self) -> Result<MiningResult, FfsmError> {
        Ok(self.run_detailed()?.0)
    }

    /// [`ShardedSession::run`], also reporting the shard-specific counters.
    pub fn run_detailed(self) -> Result<(MiningResult, ShardedRunStats), FfsmError> {
        let ShardedSession { partitioned, config } = self;
        if !config.min_support.is_finite() || config.min_support < 0.0 {
            return Err(FfsmError::InvalidConfig(format!(
                "min_support must be finite and non-negative, got {}",
                config.min_support
            )));
        }
        if config.max_edges == 0 {
            return Err(FfsmError::InvalidConfig("max_edges must be at least 1".into()));
        }
        if config.top_k == Some(0) {
            return Err(FfsmError::InvalidConfig("top_k must be at least 1".into()));
        }
        if let MeasureSelection::Kind(MeasureKind::MniK(0)) = config.measure {
            return Err(FfsmError::InvalidConfig("MNI-k needs k >= 1".into()));
        }
        let spec = partitioned.spec();
        if spec.num_shards > 1 && config.max_edges > spec.halo_depth {
            return Err(FfsmError::Partition(format!(
                "patterns of up to {} edges need a halo of at least {} hops, but the \
                 partition was built with halo depth {} — rebuild it with a deeper halo",
                config.max_edges, config.max_edges, spec.halo_depth
            )));
        }
        let run_token = match config.deadline.map(|d| Instant::now() + d) {
            Some(at) => config.cancel.with_deadline(at),
            None => config.cancel.clone(),
        };
        let deadline_at = run_token.deadline();
        let mut measure_config = config.measure_config.clone();
        measure_config.iso_config.cancel = run_token;
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
        let engine = ShardedEngine {
            partitioned,
            measure,
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
        };
        engine.run()
    }
}

/// One evaluated candidate: the merged global support plus shard bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
struct ShardEval {
    support: f64,
    num_occurrences: usize,
    cross_shard: u64,
}

/// One candidate's kept occurrences from the shards visited so far in a level,
/// stored flat: image `k` is `images[k * stride..(k + 1) * stride]` with
/// `stride` the pattern's vertex count.  One allocation per candidate instead
/// of one per occurrence keeps a whole level's buffers close to the size of
/// the vertex ids themselves.
#[derive(Debug)]
struct LevelBuffer {
    candidate: usize,
    images: Vec<VertexId>,
    complete: bool,
    cross_shard: u64,
}

impl LevelBuffer {
    /// Append one shard's enumeration of the candidate: remap every image to
    /// global ids and keep it only when `shard` owns its anchor (minimum
    /// global image vertex).
    fn append(
        &mut self,
        result: EnumerationResult,
        to_global: &[VertexId],
        assignment: &[u32],
        shard: u32,
    ) {
        self.complete &= result.complete;
        for local in result.embeddings {
            let start = self.images.len();
            self.images.extend(local.iter().map(|&v| to_global[v as usize]));
            let image = &self.images[start..];
            let anchor = *image.iter().min().expect("patterns are non-empty");
            if assignment[anchor as usize] != shard {
                self.images.truncate(start);
            } else if image.iter().any(|&v| assignment[v as usize] != shard) {
                self.cross_shard += 1;
            }
        }
    }
}

/// Run `work` once per worker on that worker's bucket and arena — inline for a
/// single worker, on scoped threads otherwise — and return the results in
/// worker order.
fn on_workers<B: Send, R: Send>(
    buckets: &mut [B],
    arenas: &mut [SearchArena],
    work: impl Fn(&mut B, &mut SearchArena) -> R + Sync,
) -> Vec<R> {
    if let ([bucket], [arena, ..]) = (&mut *buckets, &mut *arenas) {
        return vec![work(bucket, arena)];
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = buckets
            .iter_mut()
            .zip(arenas.iter_mut())
            .map(|(bucket, arena)| scope.spawn(move || work(bucket, arena)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("sharded mining worker panicked"))
            .collect()
    })
}

/// The validated sharded mining loop — a mirror of the unsharded
/// `EngineState::step` sequence with the level evaluation swapped out.
struct ShardedEngine {
    partitioned: Arc<PartitionedGraph>,
    measure: Arc<dyn SupportMeasure>,
    min_support: f64,
    iso_config: IsoConfig,
    max_pattern_edges: usize,
    max_patterns: usize,
    max_evaluations: usize,
    threads: usize,
    top_k: Option<usize>,
    cancel: CancelToken,
    deadline: Option<Instant>,
    metrics: bool,
}

impl ShardedEngine {
    fn interrupted(&self) -> Option<Completion> {
        if self.cancel.cancel_requested() {
            return Some(Completion::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(Completion::DeadlineExceeded);
        }
        None
    }

    /// Evaluate one level shard-major: fetch each shard once, enumerate every
    /// candidate on it into that candidate's [`LevelBuffer`], and measure the
    /// merged sets only after the last shard.  Shards are visited in ascending
    /// order, or descending when `descending` — alternating per level lets the
    /// LRU store start each level with the shards the previous one left
    /// resident.  Worker `w` of `workers` owns candidates `w, w + workers, …` in
    /// both passes (the unsharded engine's round-robin split) and the merge
    /// sorts, so neither the thread count nor the shard order changes the
    /// result.
    ///
    /// # Errors
    ///
    /// A shard the store cannot fetch fails the whole level.
    fn evaluate_level(
        &self,
        candidates: &[(Pattern, CanonicalCode)],
        descending: bool,
        arenas: &mut [SearchArena],
    ) -> Result<(Vec<ShardEval>, tls::ThreadTotals), FfsmError> {
        let workers = self.threads.min(candidates.len()).max(1);
        let mut buckets: Vec<Vec<LevelBuffer>> = (0..workers)
            .map(|w| {
                (w..candidates.len())
                    .step_by(workers)
                    .map(|candidate| LevelBuffer {
                        candidate,
                        images: Vec::new(),
                        complete: true,
                        cross_shard: 0,
                    })
                    .collect()
            })
            .collect();
        let arenas = &mut arenas[..workers];
        let assignment: &[u32] = self.partitioned.assignment();
        let use_index = !matches!(self.iso_config.backend, EnumeratorBackend::Naive);
        let num_shards = self.partitioned.num_shards();
        for step in 0..num_shards {
            let s = if descending { num_shards - 1 - step } else { step };
            let shard = self.partitioned.shard(s)?;
            let index = use_index.then(|| shard.index());
            let (graph, to_global) = (shard.graph(), shard.to_global());
            on_workers(&mut buckets, arenas, |bucket, arena| {
                for buffer in bucket.iter_mut() {
                    let pattern = &candidates[buffer.candidate].0;
                    if graph.num_vertices() < pattern.num_vertices() {
                        continue;
                    }
                    let config = self.iso_config.clone();
                    let result = enumerate_with(pattern, graph, index.as_deref(), config, arena);
                    buffer.append(result, to_global, assignment, s as u32);
                }
            });
        }

        let mut results = vec![ShardEval::default(); candidates.len()];
        let mut measure_totals = tls::ThreadTotals::default();
        let measured = on_workers(&mut buckets, arenas, |bucket, _| {
            let before = tls::snapshot();
            let evals: Vec<(usize, ShardEval)> = bucket
                .drain(..)
                .map(|buffer| {
                    let candidate = buffer.candidate;
                    (candidate, self.measure_merged(&candidates[candidate].0, buffer))
                })
                .collect();
            (evals, tls::snapshot().delta_since(&before))
        });
        for (evals, delta) in measured {
            measure_totals.overlap_probes += delta.overlap_probes;
            measure_totals.overlap_build_nanos += delta.overlap_build_nanos;
            for (i, eval) in evals {
                results[i] = eval;
            }
        }
        Ok((results, measure_totals))
    }

    /// Rebuild a candidate's merged global occurrence set from its flat buffer
    /// and measure it.  The buffer is consumed, so its memory goes back as soon
    /// as its candidate is measured.
    fn measure_merged(&self, pattern: &Pattern, buffer: LevelBuffer) -> ShardEval {
        let mut merged: Vec<Embedding> =
            buffer.images.chunks_exact(pattern.num_vertices()).map(<[VertexId]>::to_vec).collect();
        drop(buffer.images);
        // Canonical global order: the measures are order-invariant (they are
        // graph invariants of the occurrence hypergraph), sorting just makes
        // the merged set independent of the shard iteration.
        merged.sort_unstable();
        let occ = OccurrenceSet::from_embeddings(pattern.clone(), merged, buffer.complete);
        ShardEval {
            support: self.measure.support(&occ),
            num_occurrences: occ.num_occurrences(),
            cross_shard: buffer.cross_shard,
        }
    }

    fn run(self) -> Result<(MiningResult, ShardedRunStats), FfsmError> {
        let start = Instant::now();
        let mut engine_phase = PhaseTimes::new();
        let mut arenas: Vec<SearchArena> =
            (0..self.threads.max(1)).map(|_| SearchArena::new()).collect();
        if self.metrics {
            for arena in &mut arenas {
                arena.set_timing(true);
            }
        }
        let mut stats = MiningStats::default();
        let mut sharded = ShardedRunStats::default();
        let mut seen = std::collections::HashSet::new();
        let seeds: Vec<Pattern> = self
            .partitioned
            .seed_pairs()
            .iter()
            .map(|&(a, b)| patterns::single_edge(a, b))
            .collect();
        stats.candidates_generated += seeds.len();
        let mut level = dedupe_with_codes(seeds, &mut seen);
        let mut frequent: Vec<FrequentPattern> = Vec::new();
        let floor = self.min_support;
        let mut threshold = floor;
        let mut load_nanos_seen = self.partitioned.store_stats().load_nanos;

        let refresh = |stats: &mut MiningStats, arenas: &[SearchArena], phase: &PhaseTimes| {
            let mut search = SearchCounters::default();
            let mut timings = *phase;
            let mut peak = 0u64;
            for arena in arenas {
                search.merge(&arena.counters());
                timings.merge(&arena.phase_times());
                // Gauge semantics: the footprint of the *largest* worker arena,
                // never a sum — comparable across thread counts and between
                // sharded and unsharded runs.
                peak = peak.max(arena.footprint_bytes() as u64);
            }
            stats.counters.search = search;
            stats.counters.arena_peak_bytes = peak;
            stats.phase_timings = timings;
        };
        let finish = |mut stats: MiningStats,
                      arenas: &[SearchArena],
                      phase: &PhaseTimes,
                      completion: Completion,
                      frequent: Vec<FrequentPattern>,
                      threshold: f64,
                      mut sharded: ShardedRunStats,
                      partitioned: &PartitionedGraph|
         -> (MiningResult, ShardedRunStats) {
            refresh(&mut stats, arenas, phase);
            stats.elapsed = start.elapsed();
            stats.completion = completion;
            sharded.store = partitioned.store_stats();
            (
                MiningResult {
                    patterns: frequent,
                    final_threshold: threshold,
                    undecided: Vec::new(),
                    stats,
                },
                sharded,
            )
        };

        loop {
            if level.is_empty() {
                return Ok(finish(
                    stats,
                    &arenas,
                    &engine_phase,
                    Completion::Complete,
                    frequent,
                    threshold,
                    sharded,
                    &self.partitioned,
                ));
            }
            if let Some(interrupt) = self.interrupted() {
                return Ok(finish(
                    stats,
                    &arenas,
                    &engine_phase,
                    interrupt,
                    frequent,
                    threshold,
                    sharded,
                    &self.partitioned,
                ));
            }

            let mut budget_hit: Option<BudgetKind> = None;
            let remaining = self.max_evaluations.saturating_sub(stats.candidates_evaluated);
            if level.len() > remaining {
                level.truncate(remaining);
                budget_hit = Some(BudgetKind::Evaluations);
            }
            if level.is_empty() {
                return Ok(finish(
                    stats,
                    &arenas,
                    &engine_phase,
                    Completion::BudgetExhausted(BudgetKind::Evaluations),
                    frequent,
                    threshold,
                    sharded,
                    &self.partitioned,
                ));
            }

            let eval_start = Instant::now();
            let descending = stats.levels_completed % 2 == 1;
            let (outcomes, measure_totals) =
                self.evaluate_level(&level, descending, &mut arenas)?;
            engine_phase.record(Phase::SupportEval, eval_start.elapsed());
            engine_phase.add_nanos(Phase::OverlapBuild, measure_totals.overlap_build_nanos);
            stats.counters.overlap_probes += measure_totals.overlap_probes;
            let load_nanos_now = self.partitioned.store_stats().load_nanos;
            engine_phase
                .add_nanos(Phase::ShardLoad, load_nanos_now.saturating_sub(load_nanos_seen));
            load_nanos_seen = load_nanos_now;
            // An interruption during the evaluation may have truncated
            // enumerations arbitrarily; discard the whole level, exactly like
            // the unsharded engine.
            if let Some(interrupt) = self.interrupted() {
                return Ok(finish(
                    stats,
                    &arenas,
                    &engine_phase,
                    interrupt,
                    frequent,
                    threshold,
                    sharded,
                    &self.partitioned,
                ));
            }
            stats.candidates_evaluated += level.len();

            let mut survivors: Vec<Pattern> = Vec::new();
            for ((pattern, _code), outcome) in std::mem::take(&mut level).into_iter().zip(outcomes)
            {
                let ShardEval { support, num_occurrences, cross_shard } = outcome;
                sharded.cross_shard_occurrences += cross_shard;
                match self.top_k {
                    None => {
                        if support >= threshold {
                            if frequent.len() >= self.max_patterns {
                                budget_hit.get_or_insert(BudgetKind::Patterns);
                                continue;
                            }
                            stats.counters.patterns_emitted += 1;
                            frequent.push(FrequentPattern {
                                pattern: pattern.clone(),
                                support,
                                num_occurrences,
                                support_interval: None,
                                certificate: None,
                            });
                            survivors.push(pattern);
                        } else {
                            stats.candidates_pruned += 1;
                        }
                    }
                    Some(k) => {
                        if support >= threshold {
                            stats.counters.patterns_emitted += 1;
                            threshold = crate::engine::insert_top_k(
                                &mut frequent,
                                FrequentPattern {
                                    pattern: pattern.clone(),
                                    support,
                                    num_occurrences,
                                    support_interval: None,
                                    certificate: None,
                                },
                                k,
                                floor,
                            );
                            survivors.push(pattern);
                        } else {
                            stats.candidates_pruned += 1;
                        }
                    }
                }
            }
            stats.levels_completed += 1;
            refresh(&mut stats, &arenas, &engine_phase);
            if let Some(kind) = budget_hit {
                return Ok(finish(
                    stats,
                    &arenas,
                    &engine_phase,
                    Completion::BudgetExhausted(kind),
                    frequent,
                    threshold,
                    sharded,
                    &self.partitioned,
                ));
            }

            let extension_start = Instant::now();
            let mut next: Vec<(Pattern, CanonicalCode)> = Vec::new();
            for pattern in &survivors {
                if pattern.num_edges() >= self.max_pattern_edges {
                    continue;
                }
                let candidates = extensions(pattern, self.partitioned.alphabet());
                stats.candidates_generated += candidates.len();
                next.extend(dedupe_with_codes(candidates, &mut seen));
            }
            engine_phase.record(Phase::Extension, extension_start.elapsed());
            level = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MiningSession, PreparedGraph};
    use ffsm_graph::generators;
    use ffsm_shard::PartitionSpec;

    fn fingerprints(result: &MiningResult) -> Vec<(String, u64, usize)> {
        let mut v: Vec<(String, u64, usize)> = result
            .patterns
            .iter()
            .map(|p| {
                (
                    format!("{:?}", ffsm_graph::canonical::canonical_code(&p.pattern)),
                    p.support.to_bits(),
                    p.num_occurrences,
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn sharded_matches_unsharded_on_a_community_graph() {
        let graph = generators::community_graph(3, 12, 0.35, 0.02, 4, 23);
        let unsharded = MiningSession::over(&PreparedGraph::new(graph.clone()))
            .min_support(3.0)
            .max_edges(2)
            .run()
            .unwrap();
        for k in [1usize, 2, 5] {
            let parts = Arc::new(
                PartitionedGraph::build(&graph, PartitionSpec::vertex_range(k, 2)).unwrap(),
            );
            let sharded = ShardedSession::over(&parts).min_support(3.0).max_edges(2).run().unwrap();
            assert_eq!(fingerprints(&sharded), fingerprints(&unsharded), "k = {k}");
            assert_eq!(sharded.final_threshold.to_bits(), unsharded.final_threshold.to_bits());
            assert_eq!(sharded.stats.candidates_evaluated, unsharded.stats.candidates_evaluated);
            assert_eq!(sharded.stats.completion, unsharded.stats.completion);
        }
    }

    #[test]
    fn thread_count_does_not_change_sharded_results() {
        let graph = generators::community_graph(2, 10, 0.4, 0.05, 3, 9);
        let parts =
            Arc::new(PartitionedGraph::build(&graph, PartitionSpec::vertex_range(3, 2)).unwrap());
        let run = |threads: usize| {
            ShardedSession::over(&parts)
                .min_support(3.0)
                .max_edges(2)
                .threads(threads)
                .run()
                .unwrap()
        };
        let base = run(1);
        for threads in [2, 4, 0] {
            assert_eq!(fingerprints(&run(threads)), fingerprints(&base), "threads = {threads}");
        }
    }

    #[test]
    fn halo_shallower_than_max_edges_is_a_typed_error() {
        let graph = generators::community_graph(2, 8, 0.4, 0.05, 3, 5);
        let parts =
            Arc::new(PartitionedGraph::build(&graph, PartitionSpec::vertex_range(2, 1)).unwrap());
        let err = ShardedSession::over(&parts).min_support(2.0).max_edges(3).run().unwrap_err();
        assert!(matches!(err, FfsmError::Partition(_)), "{err:?}");
        // A single-shard partition tolerates any max_edges.
        let one =
            Arc::new(PartitionedGraph::build(&graph, PartitionSpec::vertex_range(1, 0)).unwrap());
        assert!(ShardedSession::over(&one).min_support(2.0).max_edges(3).run().is_ok());
    }

    #[test]
    fn pre_cancelled_sharded_session_yields_empty_prefix() {
        let token = CancelToken::new();
        token.cancel();
        let graph = generators::community_graph(2, 8, 0.4, 0.05, 3, 7);
        let parts =
            Arc::new(PartitionedGraph::build(&graph, PartitionSpec::vertex_range(2, 2)).unwrap());
        let result = ShardedSession::over(&parts)
            .min_support(1.0)
            .max_edges(2)
            .cancel_token(token)
            .run()
            .unwrap();
        assert!(result.is_empty());
        assert_eq!(result.completion(), Completion::Cancelled);
    }

    #[test]
    fn missing_spill_file_is_a_typed_error() {
        let graph = generators::community_graph(3, 10, 0.35, 0.03, 3, 31);
        let parts =
            Arc::new(PartitionedGraph::build(&graph, PartitionSpec::vertex_range(4, 2)).unwrap());
        let dir = std::env::temp_dir().join(format!("ffsm-sharded-missing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        parts.spill_to_disk(&dir, 1).unwrap();
        // Only the last shard stays resident, so the first level must reload
        // shard 0 from its file.
        std::fs::remove_file(dir.join("shard_0.ffs")).unwrap();
        for threads in [1, 2] {
            let err = ShardedSession::over(&parts)
                .min_support(3.0)
                .max_edges(2)
                .threads(threads)
                .run()
                .unwrap_err();
            assert!(matches!(err, FfsmError::Partition(_)), "threads = {threads}: {err:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_partition_mines_identically_and_reports_loads() {
        let graph = generators::community_graph(3, 10, 0.35, 0.03, 3, 31);
        let resident =
            Arc::new(PartitionedGraph::build(&graph, PartitionSpec::vertex_range(4, 2)).unwrap());
        let warm = ShardedSession::over(&resident).min_support(3.0).max_edges(2).run().unwrap();

        let spilled =
            Arc::new(PartitionedGraph::build(&graph, PartitionSpec::vertex_range(4, 2)).unwrap());
        let dir = std::env::temp_dir().join(format!("ffsm-sharded-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        spilled.spill_to_disk(&dir, 1).unwrap();
        let (cold, details) =
            ShardedSession::over(&spilled).min_support(3.0).max_edges(2).run_detailed().unwrap();
        assert_eq!(fingerprints(&cold), fingerprints(&warm));
        assert!(details.store.loads > 0, "expected cold shard reloads");
        assert_eq!(details.store.resident_shards, 1);
        assert!(cold.stats.phase_timings.nanos(Phase::ShardLoad) > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
