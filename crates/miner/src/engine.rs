//! The unified mining engine behind [`crate::MiningSession`].
//!
//! One level-synchronous pattern-growth loop serves every mode — threshold,
//! level-parallel and top-k — and every source: a whole [`PreparedGraph`] or a
//! [`PartitionedGraph`].  The loop is a *resumable state machine*
//! ([`EngineState`]): each [`EngineState::step`] processes one level and pushes
//! the resulting [`MiningEvent`]s, so the [`PatternStream`](crate::PatternStream)
//! can pull lazily instead of blocking until the whole result materialises.
//! `run()` is a thin collect-the-stream adapter over the same machine.
//!
//! The source decides only where a candidate's occurrences come from: a whole
//! graph enumerates each candidate where it is evaluated; a partition fills
//! the level's undecided candidates shard-major first (see the `sharded`
//! module).  Delta reuse, bounds, the exact measure and the threshold logic
//! are shared.
//!
//! ## Seeded candidate spaces
//!
//! Over a whole graph on the candidate-space engine, each [`Candidate`] carries
//! a handle to its [`Parent`]: the parent's refined candidate lists, which seed
//! the child's [`CandidateSpace`] instead of the graph-wide label/degree
//! buckets (the refined space is the same — see [`CandidateSpace::initial`]).
//! The seeded lists also bound the support: every MNI image of pattern vertex
//! `u` lies in `u`'s list, so for a measure at or below MNI in the containment
//! chain (those [`BoundsEvaluator::supports`] admits) any list below the
//! level's threshold decides the candidate infrequent before any refinement,
//! search or solve.  The cap is an upper bound on the exact value, so it never
//! changes a verdict, in exact sessions as in bounds-first ones.  Only
//! candidates that may be frequent and will be extended keep their lists, and
//! the lists are dropped with the level that holds their children.
//!
//! A vertex extension `(a, l)` seeds its new vertex with the distinct
//! `l`-labelled data neighbours of the parent's list for `a`, and
//! [`CandidateSpace::initial`] builds that list first.  A parent therefore
//! counts, once per vertex `a` and for every alphabet label at once, the
//! distinct neighbours of its list by label (lazily, on the first child that
//! asks), and every run, recording or not, decides a vertex extension whose
//! count is below the threshold from that count alone, without building any
//! list (the `delta` module docs say how a delta run reuses a cap).  An edge
//! extension's cap is the first seeded list below the threshold.
//!
//! Candidates themselves come from [`new_children`]: each one-edge extension
//! is coded from the parent's adjacency bitmasks plus the added edge, and a
//! child whose class was not seen before is kept as a [`Growth`] of its
//! parent.  Its pattern is built where its evaluation needs it and dropped
//! after, so a candidate decided from the label counts never builds one, and
//! built patterns never pile up between the evaluation's large temporaries.
//!
//! ## Determinism and interruption
//!
//! The partition and merge order of the level evaluation are fixed, so results
//! are identical for every thread count.  Cancellation and deadlines are checked
//! between levels *and* cooperatively inside occurrence enumeration (via the
//! [`CancelToken`] embedded in the `IsoConfig`); an interrupted level is discarded
//! wholesale, so the emitted patterns are always a deterministic prefix of the
//! full run — whole levels, never a partially evaluated one.
//!
//! Support is computed through an `Arc<dyn SupportMeasure>`, so built-in and
//! user-defined measures take exactly the same path.

use crate::delta::{CacheMode, CachedEval, DeltaContext, EvalCache};
use crate::extension::{dedupe_with_codes, new_children, seed_patterns, Growth};
use crate::prepared::PreparedGraph;
use crate::sharded::{shard_pass, LevelBuffer};
use crate::stream::{LevelSummary, MiningEvent, RunSummary};
use crate::types::{
    BudgetKind, Completion, FrequentPattern, MiningResult, MiningStats, UndecidedPattern,
};
use ffsm_approx::{BoundsEvaluator, BoundsOutcome, Certificate, SupportInterval};
use ffsm_core::{
    stream_with, CancelToken, CandidateSpace, EnumeratorBackend, Evaluation, FfsmError, GraphIndex,
    Matcher, OccurrenceSet, RowCollector, SearchArena, SupportMeasure,
};
use ffsm_graph::canonical::CanonicalCode;
use ffsm_graph::isomorphism::IsoConfig;
use ffsm_graph::{patterns, Label, LabeledGraph, Pattern, VertexId};
use ffsm_obs::{tls, Phase, PhaseTimes, SearchCounters};
use ffsm_shard::PartitionedGraph;
use std::borrow::Cow;
use std::collections::{HashSet, VecDeque};
use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// What a session mines: a whole prepared graph or a partition of one.  Built
/// through `From` by [`MiningSession::over`](crate::MiningSession::over).
pub enum GraphSource {
    /// A whole graph; candidates are enumerated on it with its shared index.
    Whole(PreparedGraph),
    /// A graph split into interior+halo shards; candidates are enumerated
    /// shard-major and merged by the anchor-shard rule.
    Partitioned(Arc<PartitionedGraph>),
}

impl From<&PreparedGraph> for GraphSource {
    fn from(prepared: &PreparedGraph) -> Self {
        GraphSource::Whole(prepared.clone())
    }
}

impl From<&Arc<PartitionedGraph>> for GraphSource {
    fn from(partitioned: &Arc<PartitionedGraph>) -> Self {
        GraphSource::Partitioned(partitioned.clone())
    }
}

impl GraphSource {
    /// The single-edge seed patterns, one per label pair of the global edges.
    fn seeds(&self) -> Vec<Pattern> {
        match self {
            GraphSource::Whole(prepared) => seed_patterns(prepared.graph()),
            GraphSource::Partitioned(parts) => {
                parts.seed_pairs().iter().map(|&(a, b)| patterns::single_edge(a, b)).collect()
            }
        }
    }

    /// The distinct-label alphabet the candidate generator extends over.
    fn alphabet(&self) -> &[Label] {
        match self {
            GraphSource::Whole(prepared) => prepared.alphabet(),
            GraphSource::Partitioned(parts) => parts.alphabet(),
        }
    }

    /// Per-label vertex counts of the global graph, for the bounds
    /// evaluator's index-free cardinality cap.
    fn label_counts(&self) -> &[(Label, usize)] {
        match self {
            GraphSource::Whole(prepared) => prepared.label_counts(),
            GraphSource::Partitioned(parts) => parts.label_counts(),
        }
    }

    /// The whole graph's shared matching index, built on first use (`None`
    /// under the naive backend, and for a partition: its shards carry theirs).
    fn index(&self, backend: EnumeratorBackend) -> Option<Arc<GraphIndex>> {
        match self {
            GraphSource::Whole(prepared) if backend != EnumeratorBackend::Naive => {
                Some(prepared.index())
            }
            _ => None,
        }
    }

    /// Cumulative shard load time of the partition's store (0 for a whole
    /// graph).
    fn shard_load_nanos(&self) -> u64 {
        match self {
            GraphSource::Whole(_) => 0,
            GraphSource::Partitioned(parts) => parts.store_stats().load_nanos,
        }
    }
}

/// Canonical, validated configuration the engine runs from (the session builder's
/// output).
pub(crate) struct EngineConfig {
    /// Support threshold τ (the floor threshold in top-k mode).
    pub min_support: f64,
    /// Occurrence-enumeration settings.  `iso_config.cancel` is the *combined*
    /// token (session token + deadline) so enumeration aborts cooperatively.
    pub iso_config: IsoConfig,
    /// Stop growing patterns beyond this many edges.
    pub max_pattern_edges: usize,
    /// Safety cap on reported patterns (threshold mode).
    pub max_patterns: usize,
    /// Safety cap on support evaluations.
    pub max_evaluations: usize,
    /// Worker threads for level evaluation (already resolved to >= 1).
    pub threads: usize,
    /// `Some(k)` switches to top-k mode.
    pub top_k: Option<usize>,
    /// The session's cancellation token (flag only — its deadline, if any, is
    /// folded into `deadline` below), used to attribute an interruption to
    /// [`Completion::Cancelled`].
    pub cancel: CancelToken,
    /// The effective wall-clock deadline: the tighter of the session's
    /// `.deadline(..)` and any deadline the caller attached to the token itself.
    pub deadline: Option<Instant>,
    /// Fine-grained span sampling (per-candidate space/search times).  Never
    /// changes results; counters and coarse timings are on regardless.
    pub metrics: bool,
    /// Bounds-first evaluation ([`crate::MiningSession::bounds_first`]): present
    /// when the session enabled the mode *and* the measure kind admits sound
    /// cheap bounds.  Decides candidates from certified intervals where
    /// possible, enumerating occurrences and running the exact solver only
    /// inside the uncertain band.
    pub bounds: Option<Arc<BoundsEvaluator>>,
    /// The measure sits at or below MNI in the containment chain (a built-in
    /// kind [`BoundsEvaluator::supports`] admits), so a seeded candidate space
    /// whose shortest list falls below the threshold decides its candidate.
    pub space_cap: bool,
}

/// What a candidate inherits from the pattern it extends.
struct Parent {
    /// The pattern itself, which each child's [`Growth`] extends.
    pattern: Pattern,
    /// The parent's certified upper bound (its support outside bounds-first
    /// mode); by anti-monotonicity it caps the child.
    hi: f64,
    /// The parent's refined candidate lists, when they were built over the
    /// whole graph: they seed the child's candidate space.
    lists: Option<Vec<Vec<VertexId>>>,
    /// One slot per list, filled on first use: how many distinct data
    /// neighbours of `lists[a]` carry each alphabet label, by alphabet
    /// position — the seeded new-vertex list length of every vertex extension
    /// at `a`.
    neighbour_labels: Vec<OnceLock<Vec<u32>>>,
}

impl Parent {
    fn new(pattern: Pattern, hi: f64, lists: Option<Vec<Vec<VertexId>>>) -> Self {
        let slots = lists.as_ref().map_or(0, Vec::len);
        let neighbour_labels = (0..slots).map(|_| OnceLock::new()).collect();
        Parent { pattern, hi, lists, neighbour_labels }
    }

    /// The number of distinct data neighbours of `lists[at]` labelled
    /// `alphabet[position]` (the alphabet of `graph`, ascending).
    fn neighbour_label_count(
        &self,
        at: VertexId,
        position: usize,
        graph: &LabeledGraph,
        alphabet: &[Label],
    ) -> usize {
        let counts = self.neighbour_labels[at as usize].get_or_init(|| {
            let list = &self.lists.as_deref().expect("slots exist only beside lists")[at as usize];
            // One mark bit per data vertex: a neighbour is counted at first sight.
            let mut seen = vec![0u64; graph.num_vertices().div_ceil(64)];
            let mut counts = vec![0u32; alphabet.len()];
            for &x in list.iter().flat_map(|&w| graph.neighbors(w)) {
                let (word, bit) = (x as usize / 64, 1u64 << (x % 64));
                if seen[word] & bit == 0 {
                    seen[word] |= bit;
                    if let Ok(i) = alphabet.binary_search(&graph.label(x)) {
                        counts[i] += 1;
                    }
                }
            }
            counts
        });
        counts[position] as usize
    }
}

/// One candidate of a level: its pattern, or how it grows its parent's, and
/// its canonical code.
struct Candidate {
    shape: Shape,
    /// Kept only by caching runs, the code's one reader (the `seen` set holds
    /// every code for deduplication).
    code: Option<CanonicalCode>,
}

/// A candidate's pattern: a seed's is stored; an extension's is built from
/// its parent's wherever it is needed and dropped after, so a candidate
/// decided from its parent's label counts never builds one, and no built
/// pattern outlives the evaluation that needed it.
enum Shape {
    Seed(Pattern),
    Extension(Arc<Parent>, Growth),
}

impl Candidate {
    /// The candidate's pattern.
    fn pattern(&self) -> Cow<'_, Pattern> {
        match &self.shape {
            Shape::Seed(pattern) => Cow::Borrowed(pattern),
            Shape::Extension(parent, growth) => Cow::Owned(growth.apply(&parent.pattern)),
        }
    }

    /// The pattern this candidate extends (`None` for a seed).
    fn parent(&self) -> Option<&Parent> {
        match &self.shape {
            Shape::Seed(_) => None,
            Shape::Extension(parent, _) => Some(parent),
        }
    }

    /// The upper bound inherited from the parent (`+∞` for a seed).
    fn parent_hi(&self) -> f64 {
        self.parent().map_or(f64::INFINITY, |parent| parent.hi)
    }
}

/// One evaluated (or cache-reused, or bound-decided) candidate.
#[derive(Debug, Clone, Default)]
struct EvalOutcome {
    /// The value compared against the threshold.  Exact evaluations report the
    /// exact support; a bound-decided candidate reports the interval side that
    /// proves the decision (`lo` for frequent, `hi` for infrequent), so the
    /// engine's `support >= threshold` test agrees with the certified verdict
    /// by construction.
    support: f64,
    num_occurrences: usize,
    /// `false` when the enumeration hit its embedding budget.
    complete: bool,
    /// `true` when the value came out of the prior epoch's cache.
    reused: bool,
    /// The certified interval + certificate, in bounds-first mode only.
    interval: Option<ffsm_approx::SupportInterval>,
    certificate: Option<ffsm_approx::Certificate>,
    /// `true` when the bounds evaluator ran for this candidate.
    bounded: bool,
    /// `true` when a certified interval decided the candidate without an exact
    /// support computation.
    bound_decided: bool,
    /// Nanoseconds spent computing bounds (0 unless fine-grained metrics are on).
    bounds_nanos: u64,
    /// Kept occurrences that leave their anchor's shard interior (partition
    /// sources only).
    cross_shard: u64,
    /// `true` when `support` is the seeded candidate-space cap, below the
    /// threshold, rather than the exact support.
    capped: bool,
    /// `true` when this evaluation's measure could not prove its value optimal
    /// (a budgeted exact solve ran out of its search budget).
    budget_exhausted: bool,
    /// The refined candidate lists, kept when the candidate may be frequent
    /// and will be extended.
    lists: Option<Vec<Vec<VertexId>>>,
}

/// A candidate that delta reuse and pre-bounds left open: deciding it needs
/// its occurrences.
#[derive(Debug)]
struct Open<'c> {
    /// The pre-enumeration bounds, in bounds-first mode.
    pre: Option<BoundsOutcome>,
    bounds_nanos: u64,
    /// The candidate's pattern, when the bounds needed it built.
    pattern: Option<Cow<'c, Pattern>>,
}

/// Everything a candidate's evaluation reads besides its occurrences, shared
/// read-only by every worker of a level.
struct LevelContext<'a> {
    measure: &'a dyn SupportMeasure,
    config: &'a EngineConfig,
    /// The prior epoch's cache and dirty-region codes, in a delta run.
    delta: Option<&'a DeltaContext>,
    /// The threshold when the level starts (a top-k threshold only rises
    /// during the level, so a value below it stays below).
    threshold: f64,
    label_counts: &'a [(Label, usize)],
    /// The extension alphabet, ascending.
    alphabet: &'a [Label],
    /// The whole graph's matching index (`None` under the naive backend and
    /// for a partition).
    index: Option<&'a GraphIndex>,
}

impl LevelContext<'_> {
    /// The first half of a candidate's evaluation, before any occurrence is
    /// enumerated: delta reuse (two code lookups, see the `delta` module
    /// docs), then the certified pre-enumeration cap (parent bound, index or
    /// label cardinality).  `Break` carries the decided outcome.
    ///
    /// A cached cap is reused only while it stays below the threshold: it
    /// bounds the support, it is not the support.
    fn open<'c>(&self, candidate: &'c Candidate) -> ControlFlow<EvalOutcome, Open<'c>> {
        if let (Some(delta), Some(code)) = (self.delta, &candidate.code) {
            if let Some(cached) = delta.reusable(code, self.threshold) {
                return ControlFlow::Break(EvalOutcome {
                    support: cached.support,
                    num_occurrences: cached.num_occurrences,
                    complete: true,
                    reused: true,
                    capped: cached.capped,
                    ..EvalOutcome::default()
                });
            }
        }
        let Some(evaluator) = self.config.bounds.as_deref() else {
            return ControlFlow::Continue(Open { pre: None, bounds_nanos: 0, pattern: None });
        };
        let pattern = candidate.pattern();
        let clock = self.config.metrics.then(Instant::now);
        let pre =
            evaluator.pre_bounds(&pattern, self.label_counts, self.index, candidate.parent_hi());
        let bounds_nanos = clock.map_or(0, |clock| clock.elapsed().as_nanos() as u64);
        match pre.decision {
            Some(frequent) => ControlFlow::Break(EvalOutcome {
                support: if frequent { pre.interval.lo } else { pre.interval.hi },
                complete: true,
                interval: Some(pre.interval),
                certificate: Some(pre.certificate),
                bounded: true,
                bound_decided: true,
                bounds_nanos,
                ..EvalOutcome::default()
            }),
            None => {
                ControlFlow::Continue(Open { pre: Some(pre), bounds_nanos, pattern: Some(pattern) })
            }
        }
    }

    /// Enumerate an open candidate over the whole graph and close it.
    ///
    /// On the candidate-space engine the space is seeded from the parent's
    /// lists, and when the measure admits the cap and a seeded list falls below
    /// the threshold, the candidate is decided right there (see the module
    /// docs).  Seeds, and children of parents without lists, build cold and are
    /// never capped.  A candidate that may be frequent and will be extended
    /// keeps its refined lists for its children.
    fn evaluate_whole(
        &self,
        candidate: &Candidate,
        mut open: Open<'_>,
        graph: &LabeledGraph,
        arena: &mut SearchArena,
    ) -> EvalOutcome {
        let iso_config = &self.config.iso_config;
        let built = open.pattern.take();
        let Some(index) = self.index else {
            let pattern = built.unwrap_or_else(|| candidate.pattern());
            let mut rows =
                RowCollector::with_limit(pattern.num_vertices(), iso_config.max_embeddings);
            let complete = stream_with(&pattern, graph, None, iso_config.clone(), arena, &mut rows);
            return self.close(&open, &rows.into_occurrences(pattern.into_owned(), complete));
        };
        let parent = candidate.parent().and_then(|parent| parent.lists.as_deref());
        // A list shorter than `floor` proves the candidate infrequent.
        let floor = match parent {
            Some(_) if self.config.space_cap => self.threshold.ceil() as usize,
            _ => 0,
        };
        // `initial` builds a vertex extension's new-vertex list first, and that
        // list is exactly the distinct neighbours of the anchor's list with the
        // new label (the degree and fingerprint filter admits each of them), so
        // the parent's count decides what `initial` would stop on.
        if let Shape::Extension(parent, Growth::Vertex { at, position, .. }) = &candidate.shape {
            if floor > 0 {
                let short = arena.span(Phase::CandidateSpace, |_| {
                    parent.neighbour_label_count(*at, *position as usize, graph, self.alphabet)
                });
                if short < floor {
                    return self.capped(open, short);
                }
            }
        }
        let pattern = &*built.unwrap_or_else(|| candidate.pattern());
        let built = arena.span(Phase::CandidateSpace, |_| {
            CandidateSpace::initial(pattern, graph, index, parent, floor).map(|initial| {
                Matcher::with_space(pattern, graph, index, initial.refine(pattern, graph, index))
            })
        });
        let matcher = match built {
            Ok(matcher) => matcher,
            Err(short) => return self.capped(open, short),
        };
        arena.add_refine_rounds(matcher.space().refinement_rounds() as u64);
        let mut rows = RowCollector::with_limit(pattern.num_vertices(), iso_config.max_embeddings);
        let complete = arena
            .span(Phase::Search, |arena| matcher.stream_with(iso_config.clone(), arena, &mut rows));
        let occ = rows.into_occurrences(pattern.clone(), complete);
        let outcome = self.close(&open, &occ);
        let extended = outcome.support >= self.threshold
            && pattern.num_edges() < self.config.max_pattern_edges;
        EvalOutcome { lists: extended.then(|| matcher.into_space().into_lists()), ..outcome }
    }

    /// The outcome of a candidate with a seeded list of `short` < threshold
    /// vertices (see the `delta` module docs for how a delta run reuses it).
    fn capped(&self, open: Open<'_>, short: usize) -> EvalOutcome {
        let interval = open.pre.map(|_| SupportInterval::new(0.0, short as f64));
        EvalOutcome {
            support: short as f64,
            complete: true,
            interval,
            certificate: interval.map(|_| Certificate::CandidateSpace),
            bounded: open.pre.is_some(),
            bound_decided: open.pre.is_some(),
            bounds_nanos: open.bounds_nanos,
            capped: true,
            ..EvalOutcome::default()
        }
    }

    /// The second half, over the candidate's enumerated occurrences: the
    /// containment chain, greedy packing and LP envelope can still
    /// short-circuit the expensive exact solve; otherwise the measure runs.
    /// Every bound is a function of the occurrence set, so the verdict brackets
    /// exactly the value the exact path would compute on it.
    fn close(&self, open: &Open<'_>, occ: &OccurrenceSet) -> EvalOutcome {
        let Open { pre, mut bounds_nanos, .. } = *open;
        let bounds = self.config.bounds.as_deref();
        if let (Some(evaluator), Some(pre)) = (bounds, pre.as_ref()) {
            if evaluator.post_stage() {
                let clock = self.config.metrics.then(Instant::now);
                let post = evaluator.post_bounds(occ, pre);
                if let Some(clock) = clock {
                    bounds_nanos += clock.elapsed().as_nanos() as u64;
                }
                if let Some(frequent) = post.decision {
                    return EvalOutcome {
                        support: if frequent { post.interval.lo } else { post.interval.hi },
                        num_occurrences: occ.num_occurrences(),
                        complete: occ.is_complete(),
                        interval: Some(post.interval),
                        certificate: Some(post.certificate),
                        bounded: true,
                        bound_decided: true,
                        bounds_nanos,
                        ..EvalOutcome::default()
                    };
                }
            }
        }
        let Evaluation { value: support, optimal } = self.measure.evaluate(occ);
        let exact = bounds.map(|evaluator| evaluator.exact(support));
        EvalOutcome {
            support,
            budget_exhausted: !optimal,
            num_occurrences: occ.num_occurrences(),
            complete: occ.is_complete(),
            interval: exact.map(|e| e.interval),
            certificate: exact.map(|e| e.certificate),
            bounded: exact.is_some(),
            bounds_nanos,
            ..EvalOutcome::default()
        }
    }
}

/// Run `work` once per worker on that worker's bucket and arena — inline for a
/// single worker, on scoped threads otherwise — and return the results in
/// worker order.
pub(crate) fn on_workers<B: Send, R: Send>(
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
        handles.into_iter().map(|handle| handle.join().expect("mining worker panicked")).collect()
    })
}

/// Merge the per-worker results of a round-robin split back into item order:
/// item `i` is element `i / workers` of worker `i % workers`.  A single
/// worker's results are returned as they are.
fn interleave<T>(mut per_worker: Vec<Vec<T>>) -> Vec<T> {
    if per_worker.len() == 1 {
        return per_worker.pop().unwrap_or_default();
    }
    let total = per_worker.iter().map(Vec::len).sum();
    let workers = per_worker.len();
    let mut iters: Vec<_> = per_worker.into_iter().map(Vec::into_iter).collect();
    (0..total).map(|i| iters[i % workers].next().expect("round-robin split")).collect()
}

/// Evaluate every candidate of a level, in order, on `config.threads` workers.
///
/// Each candidate goes through [`LevelContext::open`] and, unless that decided
/// it, [`LevelContext::close`] over its occurrences.  Over a whole graph, a
/// worker enumerates each open candidate right where it evaluates it, against
/// the graph's shared index, so no level's occurrence sets are ever held at
/// once.  Over a partition, the open candidates are first filled shard-major by
/// [`shard_pass`] (shards ascending, or descending when `descending`), then
/// closed.
///
/// Candidates are split round-robin and merged back in candidate order, so the
/// result does not depend on the thread count.  Under [`CacheMode::Delta`] a
/// candidate whose occurrences provably avoid the dirty region (see the `delta`
/// module docs for the argument) is answered from the prior epoch's cache
/// without enumerating anything; the decision is per-candidate and
/// deterministic, so the thread partition still never changes the result.
///
/// `arenas` holds one reusable [`SearchArena`] per worker (at least
/// `config.threads` of them), owned by the engine state so the search buffers
/// survive across levels — thousands of pattern evaluations share
/// `config.threads` allocations instead of allocating each.
///
/// # Errors
///
/// A shard the store cannot fetch fails the level.
fn evaluate_level(
    source: &GraphSource,
    cx: &LevelContext<'_>,
    candidates: &[Candidate],
    descending: bool,
    arenas: &mut [SearchArena],
) -> Result<(Vec<EvalOutcome>, tls::ThreadTotals), FfsmError> {
    let n = candidates.len();
    let iso_config = &cx.config.iso_config;
    // Per-thread observability totals (overlap probes/build time) are sampled
    // around each worker's slice and summed — each candidate's contribution is
    // deterministic, so the sum never depends on the partition.
    let mut totals = tls::ThreadTotals::default();
    let mut merge = |per_worker: Vec<(Vec<EvalOutcome>, tls::ThreadTotals)>| {
        let mut outcomes = Vec::with_capacity(per_worker.len());
        for (evals, delta) in per_worker {
            totals.overlap_probes += delta.overlap_probes;
            totals.overlap_build_nanos += delta.overlap_build_nanos;
            outcomes.push(evals);
        }
        interleave(outcomes)
    };
    let outcomes = match source {
        GraphSource::Whole(prepared) => {
            let graph = prepared.graph();
            let workers = cx.config.threads.min(n).max(1);
            let mut firsts: Vec<usize> = (0..workers).collect();
            merge(on_workers(&mut firsts, arenas, |&mut first, arena| {
                let before = tls::snapshot();
                let evals = candidates[first..]
                    .iter()
                    .step_by(workers)
                    .map(|candidate| match cx.open(candidate) {
                        ControlFlow::Break(done) => done,
                        ControlFlow::Continue(open) => {
                            cx.evaluate_whole(candidate, open, graph, arena)
                        }
                    })
                    .collect();
                (evals, tls::snapshot().delta_since(&before))
            }))
        }
        GraphSource::Partitioned(parts) => {
            let mut outcomes: Vec<Option<EvalOutcome>> = vec![None; n];
            let mut open: Vec<Option<Open>> = (0..n).map(|_| None).collect();
            for (i, candidate) in candidates.iter().enumerate() {
                match cx.open(candidate) {
                    ControlFlow::Break(done) => outcomes[i] = Some(done),
                    ControlFlow::Continue(state) => open[i] = Some(state),
                }
            }
            let pending: Vec<usize> = (0..n).filter(|&i| open[i].is_some()).collect();
            // Every shard enumerates each pending pattern: build each once.
            let patterns: Vec<Cow<'_, Pattern>> = candidates
                .iter()
                .zip(&mut open)
                .map(|(candidate, state)| {
                    let built = state.as_mut().and_then(|state| state.pattern.take());
                    built.unwrap_or_else(|| candidate.pattern())
                })
                .collect();
            let workers = cx.config.threads.min(pending.len()).max(1);
            let mut buckets: Vec<Vec<LevelBuffer>> = (0..workers)
                .map(|w| {
                    let mine = pending.iter().skip(w).step_by(workers);
                    mine.map(|&i| LevelBuffer::new(i, patterns[i].num_vertices())).collect()
                })
                .collect();
            if !pending.is_empty() {
                shard_pass(parts, &patterns, &mut buckets, arenas, iso_config, descending)?;
            }
            let closed = merge(on_workers(&mut buckets, arenas, |bucket, _| {
                let before = tls::snapshot();
                let evals = bucket
                    .drain(..)
                    .map(|buffer| {
                        let i = buffer.candidate;
                        let (occ, cross_shard) = buffer.into_occurrences(&patterns[i]);
                        let state = open[i].as_ref().expect("only open candidates are buffered");
                        EvalOutcome { cross_shard, ..cx.close(state, &occ) }
                    })
                    .collect();
                (evals, tls::snapshot().delta_since(&before))
            }));
            for (i, outcome) in pending.into_iter().zip(closed) {
                outcomes[i] = Some(outcome);
            }
            outcomes.into_iter().map(|o| o.expect("every candidate is decided or closed")).collect()
        }
    };
    Ok((outcomes, totals))
}

/// Insert `found` into the running top-k list (sorted by descending support, ties by
/// fewer edges first) and return the updated rising threshold.
pub(crate) fn insert_top_k(
    best: &mut Vec<FrequentPattern>,
    found: FrequentPattern,
    k: usize,
    floor: f64,
) -> f64 {
    best.push(found);
    best.sort_by(|a, b| {
        b.support
            .partial_cmp(&a.support)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.pattern.num_edges().cmp(&b.pattern.num_edges()))
    });
    if best.len() > k {
        best.truncate(k);
    }
    if best.len() == k {
        best.last().map(|p| p.support).unwrap_or(floor).max(floor)
    } else {
        floor
    }
}

/// The resumable mining loop: owned state, one level per [`EngineState::step`].
pub(crate) struct EngineState {
    /// The graph mined: seeds, extension alphabet, label counts and each
    /// level's occurrences come from here.
    source: GraphSource,
    measure: Arc<dyn SupportMeasure>,
    config: EngineConfig,
    /// One reusable search arena per worker thread, surviving across levels.
    arenas: Vec<SearchArena>,
    seen: HashSet<CanonicalCode>,
    frequent: Vec<FrequentPattern>,
    threshold: f64,
    floor: f64,
    level: Vec<Candidate>,
    /// Candidates a bounds-first run left undecided at an interruption.
    undecided: Vec<UndecidedPattern>,
    stats: MiningStats,
    start: Instant,
    /// Set exactly once, when the run stops.
    completion: Option<Completion>,
    /// `true` when no consumer reads per-pattern/per-level events (the batch
    /// `run()` path): [`EngineState::step`] then skips materialising them, so a
    /// batch run pays no clone-per-pattern event tax.  The final `Finished` event
    /// is always pushed — the stream machinery keys off it.
    quiet: bool,
    /// The prior epoch's cache and dirty-region codes (`run_delta` only).
    delta: Option<DeltaContext>,
    /// The cache this run records (`run_recorded` and `run_delta` only).
    cache_out: Option<EvalCache>,
    /// Engine-level phase accounting (index build, per-level support eval,
    /// extension, overlap build) — merged with the arenas' fine-grained spans
    /// into `stats.phase_timings` on every refresh.
    engine_phase: PhaseTimes,
}

impl EngineState {
    /// Seed the state machine.  Cheap: no support is evaluated until the first
    /// [`EngineState::step`] (a whole graph's index is resolved here, which is
    /// a shared lazy build — amortised to zero across sessions; a delta run
    /// checks its pairing and codes its dirty region here, as `DeltaRepair`).
    pub(crate) fn new(
        source: GraphSource,
        measure: Arc<dyn SupportMeasure>,
        config: EngineConfig,
        quiet: bool,
        mode: CacheMode,
    ) -> Result<Self, FfsmError> {
        // Resolve the shared lazy index build up front, so its cost lands in
        // IndexBuild rather than in the first level's SupportEval.
        let index_start = Instant::now();
        source.index(config.iso_config.backend);
        let mut engine_phase = PhaseTimes::new();
        engine_phase.record(Phase::IndexBuild, index_start.elapsed());
        let mut arenas: Vec<SearchArena> =
            (0..config.threads.max(1)).map(|_| SearchArena::new()).collect();
        if config.metrics {
            for arena in &mut arenas {
                arena.set_timing(true);
            }
        }
        let mut stats = MiningStats { phase_timings: engine_phase, ..MiningStats::default() };
        // The run's clock covers seeding, which counts as extension.
        let start = Instant::now();
        let mut seen = HashSet::new();
        let seeds = source.seeds();
        stats.candidates_generated += seeds.len();
        let level = dedupe_with_codes(seeds, &mut seen)
            .into_iter()
            .map(|(pattern, code)| Candidate {
                shape: Shape::Seed(pattern),
                code: (!matches!(mode, CacheMode::Off)).then_some(code),
            })
            .collect();
        engine_phase.record(Phase::Extension, start.elapsed());
        let threshold = config.min_support;
        let recorded_on = match &source {
            GraphSource::Whole(prepared) => Some(prepared.clone()),
            GraphSource::Partitioned(_) => None,
        };
        let (delta, cache_out) = match mode {
            CacheMode::Off => (None, None),
            CacheMode::Record => (None, Some(EvalCache::over(recorded_on))),
            CacheMode::Delta(prior, delta) => {
                let repair_start = Instant::now();
                let graph = recorded_on.as_ref().expect("the session refuses a partition");
                let delta = DeltaContext::new(
                    prior,
                    &delta,
                    graph.graph(),
                    config.max_pattern_edges,
                    config.iso_config.induced,
                )?;
                engine_phase.record(Phase::DeltaRepair, repair_start.elapsed());
                stats.dirty_subgraphs = delta.subgraphs;
                (Some(delta), Some(EvalCache::over(recorded_on)))
            }
        };
        Ok(EngineState {
            source,
            measure,
            floor: threshold,
            threshold,
            config,
            arenas,
            seen,
            frequent: Vec::new(),
            level,
            undecided: Vec::new(),
            stats,
            start,
            completion: None,
            quiet,
            delta,
            cache_out,
            engine_phase,
        })
    }

    /// Recompute the stats' observability block from the cumulative per-arena
    /// counters/spans and the engine-level phase accounting.  Cheap (a few adds
    /// per arena), called once per level and at finish.
    fn refresh_observability(&mut self) {
        let mut search = SearchCounters::default();
        let mut timings = self.engine_phase;
        let mut peak = 0u64;
        for arena in &self.arenas {
            search.merge(&arena.counters());
            timings.merge(&arena.phase_times());
            peak = peak.max(arena.footprint_bytes() as u64);
        }
        self.stats.counters.search = search;
        self.stats.counters.arena_peak_bytes = peak;
        self.stats.phase_timings = timings;
    }

    /// `Some(c)` once the run has stopped (the `Finished` event has been pushed).
    pub(crate) fn completion(&self) -> Option<Completion> {
        self.completion
    }

    /// Which interruption, if any, has fired.  Explicit cancellation wins over the
    /// deadline when both have.
    fn interrupted(&self) -> Option<Completion> {
        if self.config.cancel.cancel_requested() {
            return Some(Completion::Cancelled);
        }
        if self.config.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(Completion::DeadlineExceeded);
        }
        None
    }

    /// Stop the run: stamp the stats and push the final `Finished` event.  A
    /// bounds-first run interrupted by deadline or cancellation first reports
    /// every still-pending candidate as [`MiningEvent::Undecided`], with a
    /// certified interval from pre-enumeration arguments only — never from a
    /// possibly truncated enumeration.
    fn finish(&mut self, completion: Completion, out: &mut VecDeque<MiningEvent>) {
        if matches!(completion, Completion::DeadlineExceeded | Completion::Cancelled) {
            if let Some(evaluator) = self.config.bounds.clone() {
                let index = self.source.index(self.config.iso_config.backend);
                for candidate in std::mem::take(&mut self.level) {
                    let pattern = candidate.pattern().into_owned();
                    let pre = evaluator.pre_bounds(
                        &pattern,
                        self.source.label_counts(),
                        index.as_deref(),
                        candidate.parent_hi(),
                    );
                    let undecided = UndecidedPattern {
                        pattern,
                        interval: pre.interval,
                        certificate: pre.certificate,
                    };
                    if !self.quiet {
                        out.push_back(MiningEvent::Undecided(undecided.clone()));
                    }
                    self.undecided.push(undecided);
                }
            }
        }
        self.refresh_observability();
        self.stats.elapsed = self.start.elapsed();
        self.stats.completion = completion;
        self.completion = Some(completion);
        out.push_back(MiningEvent::Finished(RunSummary {
            completion,
            final_threshold: self.threshold,
            num_patterns: self.frequent.len(),
            num_undecided: self.undecided.len(),
            stats: self.stats.clone(),
        }));
    }

    /// Process one pattern-growth level, pushing every resulting event (quiet
    /// mode pushes only the final `Finished`).  Must not be called after the run
    /// has finished or failed.
    ///
    /// # Errors
    ///
    /// A partition source whose store cannot fetch a shard fails the level;
    /// the run then has no `Finished` event.
    pub(crate) fn step(&mut self, out: &mut VecDeque<MiningEvent>) -> Result<(), FfsmError> {
        debug_assert!(self.completion.is_none(), "step() after Finished");
        if self.level.is_empty() {
            self.finish(Completion::Complete, out);
            return Ok(());
        }
        if let Some(interrupt) = self.interrupted() {
            self.finish(interrupt, out);
            return Ok(());
        }

        // Respect the evaluation cap by trimming the level.
        let mut budget_hit: Option<BudgetKind> = None;
        let remaining = self.config.max_evaluations.saturating_sub(self.stats.candidates_evaluated);
        if self.level.len() > remaining {
            self.level.truncate(remaining);
            budget_hit = Some(BudgetKind::Evaluations);
        }
        if self.level.is_empty() {
            self.finish(Completion::BudgetExhausted(BudgetKind::Evaluations), out);
            return Ok(());
        }

        let eval_start = Instant::now();
        let loads_before = self.source.shard_load_nanos();
        let index = self.source.index(self.config.iso_config.backend);
        let cx = LevelContext {
            measure: &*self.measure,
            config: &self.config,
            delta: self.delta.as_ref(),
            threshold: self.threshold,
            label_counts: self.source.label_counts(),
            alphabet: self.source.alphabet(),
            index: index.as_deref(),
        };
        // Alternate the shard order per level so a partition's LRU store
        // starts each level with the shards the previous one left resident.
        let descending = self.stats.levels_completed % 2 == 1;
        let (outcomes, measure_totals) =
            evaluate_level(&self.source, &cx, &self.level, descending, &mut self.arenas)?;
        self.engine_phase.record(Phase::SupportEval, eval_start.elapsed());
        self.engine_phase.add_nanos(Phase::OverlapBuild, measure_totals.overlap_build_nanos);
        self.engine_phase.add_nanos(
            Phase::ShardLoad,
            self.source.shard_load_nanos().saturating_sub(loads_before),
        );
        self.stats.counters.overlap_probes += measure_totals.overlap_probes;
        // An interruption during the evaluation may have truncated enumerations
        // arbitrarily; discard the whole level so the emitted patterns stay a
        // deterministic prefix of the full run (and never enter the cache).
        if let Some(interrupt) = self.interrupted() {
            self.finish(interrupt, out);
            return Ok(());
        }
        let evaluated = self.level.len();
        self.stats.candidates_evaluated += evaluated;

        // Fold the bounds-stage observability into the run stats (the span is
        // nested inside SupportEval, so it is additive, not exclusive).
        if self.config.bounds.is_some() {
            let mut bounds_nanos = 0u64;
            for outcome in &outcomes {
                self.stats.counters.evaluations_bounded += outcome.bounded as u64;
                self.stats.counters.bound_decided += outcome.bound_decided as u64;
                bounds_nanos += outcome.bounds_nanos;
            }
            self.engine_phase.add_nanos(Phase::BoundsEval, bounds_nanos);
        }

        // Every candidate of a level has its own code: one entry each.
        if let Some(cache) = &mut self.cache_out {
            cache.reserve(evaluated);
        }
        // Apply the (possibly rising) threshold in candidate order.  Each
        // survivor becomes its children's parent: its certified upper bound
        // caps every child by anti-monotonicity, and its refined lists (when
        // kept) seed their candidate spaces.
        let mut accepted = 0usize;
        let mut survivors: Vec<Parent> = Vec::new();
        for (mut candidate, outcome) in std::mem::take(&mut self.level).into_iter().zip(outcomes) {
            let EvalOutcome {
                support,
                num_occurrences,
                complete,
                reused,
                interval,
                certificate,
                cross_shard,
                capped,
                budget_exhausted,
                lists,
                ..
            } = outcome;
            if reused {
                self.stats.evaluations_reused += 1;
            } else if capped {
                self.stats.counters.space_capped += 1;
            }
            self.stats.counters.solve_budget_exhausted += budget_exhausted as u64;
            self.stats.counters.cross_shard_occurrences += cross_shard;
            if let Some(cache) = &mut self.cache_out {
                cache.insert(
                    candidate.code.take().expect("caching runs keep every code"),
                    CachedEval { support, num_occurrences, complete, capped },
                );
            }
            let frequent = support >= self.threshold;
            if !frequent {
                self.stats.candidates_pruned += 1;
                continue;
            }
            if self.config.top_k.is_none() && self.frequent.len() >= self.config.max_patterns {
                budget_hit.get_or_insert(BudgetKind::Patterns);
                continue;
            }
            let pattern = candidate.pattern().into_owned();
            let found = FrequentPattern {
                pattern: pattern.clone(),
                support,
                num_occurrences,
                support_interval: interval,
                certificate,
            };
            if !self.quiet {
                out.push_back(MiningEvent::Pattern(found.clone()));
            }
            self.stats.counters.patterns_emitted += 1;
            match self.config.top_k {
                None => self.frequent.push(found),
                Some(k) => self.threshold = insert_top_k(&mut self.frequent, found, k, self.floor),
            }
            accepted += 1;
            survivors.push(Parent::new(pattern, interval.map_or(support, |iv| iv.hi), lists));
        }
        self.stats.levels_completed += 1;
        self.refresh_observability();
        if !self.quiet {
            out.push_back(MiningEvent::LevelCompleted(LevelSummary {
                level: self.stats.levels_completed,
                evaluated,
                accepted,
                threshold: self.threshold,
                stats: self.stats.clone(),
            }));
        }
        if let Some(kind) = budget_hit {
            self.finish(Completion::BudgetExhausted(kind), out);
            return Ok(());
        }

        // Next level: one-edge extensions of every surviving pattern.  Pruned
        // candidates are never extended — sound because the measure is anti-monotone.
        let extension_start = Instant::now();
        let mut next: Vec<Candidate> = Vec::new();
        for parent in survivors {
            if parent.pattern.num_edges() >= self.config.max_pattern_edges {
                continue;
            }
            let (children, generated) =
                new_children(&parent.pattern, self.source.alphabet(), &mut self.seen);
            self.stats.candidates_generated += generated;
            let parent = Arc::new(parent);
            next.extend(children.into_iter().map(|(code, growth)| Candidate {
                shape: Shape::Extension(parent.clone(), growth),
                code: self.cache_out.is_some().then_some(code),
            }));
        }
        self.engine_phase.record(Phase::Extension, extension_start.elapsed());
        self.level = next;
        Ok(())
    }

    /// Tear the state down into the batch result.  Only meaningful once the run
    /// has finished (callers drain the stream first).
    pub(crate) fn into_result(mut self) -> MiningResult {
        if self.completion.is_none() {
            // Defensive: a result must always carry a stamped completion.
            self.stats.elapsed = self.start.elapsed();
        }
        MiningResult {
            patterns: self.frequent,
            final_threshold: self.threshold,
            undecided: self.undecided,
            stats: self.stats,
        }
    }

    /// Like [`EngineState::into_result`], also handing back the [`EvalCache`]
    /// this run recorded (empty under [`CacheMode::Off`]).  An interrupted run's
    /// cache covers the completed levels only — feeding it forward is sound, the
    /// next delta run simply re-evaluates the uncovered patterns.  The cache
    /// carries the prior's cold-run cost when this run's walk finished, and
    /// this run's own time when it reused nothing.
    pub(crate) fn into_result_and_cache(mut self) -> (MiningResult, EvalCache) {
        let mut cache = self.cache_out.take().unwrap_or_default();
        let carried = self.delta.as_ref().and_then(DeltaContext::cold);
        let result = self.into_result();
        cache.cold = carried.unwrap_or(result.stats.elapsed);
        (result, cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::generators;

    /// A sparse random graph plus `hubs` vertices joined to 40 others each, so
    /// the index stores hub adjacency bitsets (degree ≥ 32).
    fn graph_with_hubs(seed: u64, hubs: u64) -> LabeledGraph {
        let mut graph = generators::gnm_random(160, 260, 3, seed);
        let n = graph.num_vertices() as u64;
        for h in 0..hubs {
            let hub = ((seed + 17 * h) % n) as VertexId;
            for k in 0..40 {
                let other = ((seed * 31 + 7 * k + 3 * h + 1) % n) as VertexId;
                if other != hub {
                    let _ = graph.add_edge(hub, other);
                }
            }
        }
        graph
    }

    /// The label-count shortcut's oracle: for every vertex extension `(a, l)`
    /// of random parents, the parent's count of distinct `l`-labelled
    /// neighbours of its list for `a` is the length of the new vertex's seeded
    /// list, which `CandidateSpace::initial` builds first and stops on.  The
    /// alphabet includes a label the graph lacks.
    #[test]
    fn neighbour_label_count_is_the_new_vertex_list_length() {
        let alphabet = [Label(0), Label(1), Label(2), Label(3)];
        let mut extensions = 0;
        for seed in 0..16u64 {
            let graph = graph_with_hubs(seed, 3);
            let index = GraphIndex::build(&graph);
            assert!(
                (0..graph.num_vertices() as VertexId).any(|v| index.adjacency_words(v).is_some())
            );
            for edges in 1..4 {
                let Some((pattern, _)) = generators::sample_pattern(&graph, edges, seed ^ 0x5eed)
                else {
                    continue;
                };
                let lists = CandidateSpace::build(&pattern, &graph, &index).into_lists();
                let parent = Parent::new(pattern, f64::INFINITY, Some(lists));
                let lists = parent.lists.as_deref();
                for at in 0..parent.pattern.num_vertices() as VertexId {
                    for (position, &label) in alphabet.iter().enumerate() {
                        let growth = Growth::Vertex { at, label, position: position as u32 };
                        let child = growth.apply(&parent.pattern);
                        let built =
                            CandidateSpace::initial(&child, &graph, &index, lists, usize::MAX)
                                .expect_err("no list reaches usize::MAX");
                        let count = parent.neighbour_label_count(at, position, &graph, &alphabet);
                        assert_eq!(count, built, "seed {seed}, {edges} edges, {growth:?}");
                        extensions += 1;
                    }
                }
            }
        }
        assert!(extensions > 0);
    }
}
