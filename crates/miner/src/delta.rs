//! Delta re-mining: carry per-pattern results across graph epochs.
//!
//! When the graph changes by a small [`GraphDelta`], most evaluations are
//! provably unchanged (the incremental-view-maintenance insight of Berkholz et
//! al.).  An [`EvalCache`] holds one epoch's support and occurrence count per
//! canonical code, and the [`PreparedGraph`] they were recorded on.
//!
//! Once per delta run, every connected edge subset of at most `max_edges` edges
//! that contains a dirty vertex is enumerated and canonically coded, in the
//! cache's epoch (from `dirty_old`) and in the session's graph (from
//! `dirty_new`); under induced semantics only the subsets that are induced
//! subgraphs are coded.  A connected pattern has an occurrence meeting the
//! dirty vertices exactly when its code is in the set: an occurrence's image
//! is such a subset isomorphic to the pattern, and such a subset is an image.
//!
//! ## The reuse argument
//!
//! A cached evaluation is carried forward for a pattern `P` iff
//!
//! 1. the cached enumeration was **complete** (not truncated by the embedding
//!    budget),
//! 2. `P`'s code is not in the old epoch's set (no occurrence met `dirty_old`),
//! 3. `P`'s code is not in the new epoch's set (no occurrence meets `dirty_new`).
//!
//! (2) rules out destroyed or renamed occurrences: an occurrence invalidated by
//! an edge/vertex removal, a relabel — or, in induced semantics, by an edge
//! *insertion* between two of its image vertices — has both endpoints of the
//! change in its image, and those are dirty.  (3) rules out created occurrences:
//! a new occurrence must use an inserted edge, an added vertex or a relabelled
//! vertex, all of which are dirty in the new id space.  Together they prove the
//! occurrence sets of the two epochs identical, so the cached values are exact
//! and the delta run reproduces the cold run **bit for bit**, threshold
//! decisions, rising top-k thresholds and budget cut-offs included.
//!
//! A candidate the seeded candidate-space cap decided (see [`CachedEval::capped`])
//! never enumerated its occurrences.  Its entry records the cap, the length of
//! the seeded list of some pattern vertex `u` (a list holding every old image
//! of `u`), and needs only a proof that the support stays below the threshold;
//! (3) alone gives that.  By the dirtiness invariants of `ffsm_graph::update`, a
//! new occurrence avoiding `dirty_new` was an old one under the same vertex ids,
//! so `u`'s new images are a subset of its old ones and
//! `support ≤ MNI ≤ |images(u)| ≤ cap` (the cap applies only to measures at or
//! below MNI).  It is reused only while it stays below the current threshold,
//! and a reused cap carries the same bound on, so by induction it holds across
//! any chain of reuses.
//!
//! The walk is paid before anything is reused, and near a hub it grows with
//! the hub's degree to the power `max_edges`.  So it may take a sixth of the
//! time a cold run of the cache's lineage took (the cache carries that time;
//! the clock is read every 4,096 subsets).  Past that the run reuses nothing,
//! as a cold run, so a stopped walk adds at most about a sixth of one.  On the
//! delta workloads measured, complete walks costing up to 13% of the cold run
//! paid for themselves and none costing 35% or more did.  A stopped walk makes
//! `dirty_subgraphs` and `evaluations_reused` depend on the machine's speed;
//! the result never does.
//!
//! The cache is sound across thresholds but must come from a run with the same
//! measure, measure configuration and enumeration backend over the
//! **immediately preceding** epoch; chain epochs by feeding each `run_delta`'s
//! returned cache into the next.

use crate::prepared::PreparedGraph;
use ffsm_core::FfsmError;
use ffsm_graph::canonical::{CanonicalCode, PatternMasks};
use ffsm_graph::{GraphDelta, LabeledGraph, Pattern, VertexId};
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// The dirty-region walk may take at most `1 / WALK_SHARE` of a cold run's
/// time (see the module docs).
const WALK_SHARE: u32 = 6;

/// The walk reads the clock once per this many subsets.
const CLOCK_STRIDE: usize = 1 << 12;

/// One cached per-pattern evaluation (see the module docs in `delta.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedEval {
    /// The support computed by the session's measure.
    pub support: f64,
    /// Number of occurrences enumerated for the support.
    pub num_occurrences: usize,
    /// `false` if the enumeration hit its embedding budget; such entries are
    /// never reused.
    pub complete: bool,
    /// `true` when the seeded candidate-space cap decided the pattern: then
    /// `support` is that cap (the first seeded list below the recording run's
    /// threshold) and `num_occurrences` is 0.  Reused iff complete, below the
    /// current threshold and no occurrence meets the new epoch's dirty region.
    pub capped: bool,
}

/// Per-pattern evaluation results of one mining run, keyed by canonical code,
/// the graph epoch they were recorded on (a clone shares the graph), and what
/// a cold run over it cost.
/// Produced by `run_recorded` / `run_delta` and consumed by the next epoch's
/// `run_delta`.  Covers **every evaluated candidate** (frequent or not),
/// because the next epoch prunes infrequent candidates from the cache too.
#[derive(Debug, Clone, Default)]
pub struct EvalCache {
    /// The epoch the entries describe (`None` when recorded over a partition).
    graph: Option<PreparedGraph>,
    entries: HashMap<CanonicalCode, CachedEval>,
    /// The `stats.elapsed` of the last run of this lineage that reused nothing
    /// (the recording run, or a delta run whose walk was stopped): the cost a
    /// delta's walk is weighed against.
    pub(crate) cold: Duration,
}

impl EvalCache {
    /// An empty cache recording over `graph`.
    pub(crate) fn over(graph: Option<PreparedGraph>) -> Self {
        EvalCache { graph, entries: HashMap::new(), cold: Duration::ZERO }
    }

    /// Number of cached pattern evaluations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cached evaluation of the pattern with this canonical code, if any.
    pub fn get(&self, code: &CanonicalCode) -> Option<&CachedEval> {
        self.entries.get(code)
    }

    pub(crate) fn reserve(&mut self, additional: usize) {
        self.entries.reserve(additional);
    }

    pub(crate) fn insert(&mut self, code: CanonicalCode, eval: CachedEval) {
        self.entries.insert(code, eval);
    }
}

/// How the engine interacts with evaluation caches (none, record-only, or
/// record + reuse against a prior epoch).
pub(crate) enum CacheMode {
    /// Plain mining: no cache is consulted or produced.
    Off,
    /// Record every evaluation into a fresh [`EvalCache`] (cold epoch-0 run).
    Record,
    /// Reuse the prior epoch's cache across the delta, and record.
    Delta(EvalCache, Box<GraphDelta>),
}

/// The prior cache and the codes of the dirty region in both epochs.
pub(crate) struct DeltaContext {
    prior: EvalCache,
    /// The codes meeting `dirty_old` in the prior epoch and `dirty_new` in the
    /// current one; `None` when the walk ran out of time.
    codes: Option<(HashSet<CanonicalCode>, HashSet<CanonicalCode>)>,
    /// Subsets enumerated over both epochs.
    pub(crate) subgraphs: usize,
}

impl DeltaContext {
    /// Check that `delta` runs from `prior`'s epoch to `graph`, the session's
    /// (vertex and edge counts, and sorted dirty vertices inside both; another
    /// graph with the counts of `prior`'s epoch is not detected), then
    /// enumerate its dirty region in both for patterns of at most `max_edges`
    /// edges.
    pub(crate) fn new(
        prior: EvalCache,
        delta: &GraphDelta,
        graph: &LabeledGraph,
        max_edges: usize,
        induced: bool,
    ) -> Result<Self, FfsmError> {
        let size = |g: &LabeledGraph| (g.num_vertices(), g.num_edges());
        let end = (delta.base_vertices + delta.vertices_added)
            .checked_sub(delta.vertices_removed)
            .zip((delta.base_edges + delta.edges_added).checked_sub(delta.edges_removed));
        let inside = |dirty: &[VertexId], g: &LabeledGraph| {
            dirty.windows(2).all(|w| w[0] < w[1])
                && dirty.last().is_none_or(|&v| (v as usize) < g.num_vertices())
        };
        let base = prior.graph.as_ref().map(PreparedGraph::graph);
        let Some(old) = base.filter(|&old| {
            size(old) == (delta.base_vertices, delta.base_edges)
                && end == Some(size(graph))
                && inside(&delta.dirty_old, old)
                && inside(&delta.dirty_new, graph)
        }) else {
            let from = (delta.base_vertices, delta.base_edges);
            return Err(FfsmError::InvalidConfig(format!(
                "run_delta: a delta from {from:?} to {end:?} (vertices, edges) does not run from \
                 the cache's epoch {:?} to the session's graph {:?}",
                base.map(size),
                size(graph)
            )));
        };
        let mut walk = Walk::new(old, max_edges, induced, Instant::now() + prior.cold / WALK_SHARE);
        let codes = walk.codes(old, &delta.dirty_old).zip(walk.codes(graph, &delta.dirty_new));
        Ok(DeltaContext { subgraphs: walk.count, codes, prior })
    }

    /// The cold-run cost the next epoch's cache carries: the prior's, unless
    /// the walk was stopped and this run reused nothing.
    pub(crate) fn cold(&self) -> Option<Duration> {
        self.codes.as_ref().map(|_| self.prior.cold)
    }

    /// The cached evaluation of the candidate with this code, when the reuse
    /// argument carries it forward under `threshold`.
    pub(crate) fn reusable(&self, code: &CanonicalCode, threshold: f64) -> Option<&CachedEval> {
        let (old, new) = self.codes.as_ref()?;
        let cached = self.prior.get(code)?;
        let reuse = cached.complete
            && (!cached.capped || cached.support < threshold)
            && !new.contains(code)
            && (cached.capped || !old.contains(code));
        reuse.then_some(cached)
    }
}

/// The depth-first walk over connected edge subsets behind
/// [`DeltaContext::new`]: the current subset is held as the pattern it codes,
/// its data vertices in pattern order.
struct Walk<'a> {
    graph: &'a LabeledGraph,
    max_edges: usize,
    induced: bool,
    /// Subsets walked so far, over every graph.
    count: usize,
    /// When the walk gives up.
    deadline: Instant,
    /// The dirty vertices before the root: a subset is walked from its first
    /// dirty vertex only.
    earlier: &'a [VertexId],
    vertices: Vec<VertexId>,
    masks: PatternMasks,
    code: CanonicalCode,
    codes: HashSet<CanonicalCode>,
}

impl<'a> Walk<'a> {
    fn new(graph: &'a LabeledGraph, max_edges: usize, induced: bool, deadline: Instant) -> Self {
        Walk {
            graph,
            max_edges,
            induced,
            count: 0,
            deadline,
            earlier: &[],
            vertices: Vec::new(),
            masks: PatternMasks::new(&Pattern::new()),
            code: CanonicalCode::default(),
            codes: HashSet::new(),
        }
    }

    /// The codes of every connected subgraph of `graph` with at most
    /// `max_edges` edges that contains a vertex of `dirty` (under induced
    /// semantics, of those that are induced subgraphs), or `None` once the
    /// deadline has passed.
    fn codes(
        &mut self,
        graph: &'a LabeledGraph,
        dirty: &'a [VertexId],
    ) -> Option<HashSet<CanonicalCode>> {
        self.graph = graph;
        for (k, &root) in dirty.iter().enumerate() {
            self.earlier = &dirty[..k];
            self.vertices = vec![root];
            self.masks = PatternMasks::new(&Pattern::from_edges(&[graph.label(root).0], &[]));
            if !self.grow(self.frontier(), 1) {
                return None;
            }
        }
        Some(std::mem::take(&mut self.codes))
    }

    /// The edges from the subset's last vertex to the vertices outside it the
    /// root may reach, as (position, data vertex).
    fn frontier(&self) -> Vec<(VertexId, VertexId)> {
        let at = self.vertices.len() - 1;
        let open = |w: &&_| !self.vertices.contains(w) && self.earlier.binary_search(w).is_err();
        let reach = self.graph.neighbors(self.vertices[at]).iter().filter(open);
        reach.map(|&w| (at as VertexId, w)).collect()
    }

    /// Visit the subset grown to `edges` edges by each frontier edge in turn,
    /// each excluding the ones before it from its branch, so every connected
    /// subset holding the root is visited once.  `false` past the deadline.
    fn grow(&mut self, frontier: Vec<(VertexId, VertexId)>, edges: usize) -> bool {
        for (i, &(at, w)) in frontier.iter().enumerate() {
            let mut next = frontier[i + 1..].to_vec();
            let inside = self.vertices.iter().position(|&v| v == w).map(|p| p as VertexId);
            match inside {
                Some(p) => self.masks.flip_edge(at, p),
                None => {
                    self.masks.push_vertex(self.graph.label(w), at);
                    self.vertices.push(w);
                    next.extend(self.frontier());
                }
            }
            let more = self.visit() && (edges == self.max_edges || self.grow(next, edges + 1));
            match inside {
                Some(p) => self.masks.flip_edge(at, p),
                None => {
                    self.masks.pop_vertex();
                    self.vertices.pop();
                }
            }
            if !more {
                return false;
            }
        }
        true
    }

    /// Code the subset, unless under induced semantics an edge outside it
    /// joins two of its vertices.  `false` past the deadline.
    fn visit(&mut self) -> bool {
        if self.count > 0
            && self.count.is_multiple_of(CLOCK_STRIDE)
            && Instant::now() >= self.deadline
        {
            return false;
        }
        self.count += 1;
        let (masks, vertices) = (&self.masks, &self.vertices);
        let chord = |(i, &u): (usize, &VertexId)| {
            let absent = |j: usize| !masks.has_edge(i as VertexId, j as VertexId);
            (0..i).any(|j| absent(j) && self.graph.has_edge(u, vertices[j]))
        };
        if !(self.induced && vertices.iter().enumerate().any(chord)) {
            masks.code_into(&mut self.code);
            if !self.codes.contains(&self.code) {
                self.codes.insert(self.code.clone());
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::canonical::canonical_code;
    use ffsm_graph::isomorphism::{enumerate_embeddings, IsoConfig};
    use ffsm_graph::{generators, patterns, Label};

    /// The walk's codes and subset count, with no deadline to speak of.
    fn region_codes(
        graph: &LabeledGraph,
        dirty: &[VertexId],
        max_edges: usize,
        induced: bool,
    ) -> (HashSet<CanonicalCode>, usize) {
        let deadline = Instant::now() + Duration::from_secs(3600);
        let mut walk = Walk::new(graph, max_edges, induced, deadline);
        (walk.codes(graph, dirty).expect("within an hour"), walk.count)
    }

    /// Oracle: "enumerate everything and check".
    fn oracle(pattern: &Pattern, graph: &LabeledGraph, induced: bool, dirty: &[VertexId]) -> bool {
        let config = IsoConfig { induced, ..IsoConfig::default() };
        enumerate_embeddings(pattern, graph, config)
            .embeddings
            .iter()
            .any(|emb| emb.iter().any(|v| dirty.binary_search(v).is_ok()))
    }

    /// A sparse random graph plus `hubs` vertices joined to 40 others each.
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

    /// "Code in the set" equals "some occurrence meets the dirty vertices",
    /// under both semantics: for fixed shapes on a community graph, for a
    /// path in a triangle (non-induced occurrences only), and for patterns of
    /// ≤ 3 edges sampled from graphs with 40-degree hubs, dirty at the hubs
    /// and elsewhere.
    #[test]
    fn dirty_codes_match_full_enumeration_oracle() {
        let mut cases: Vec<(LabeledGraph, Vec<Pattern>, Vec<Vec<VertexId>>)> = Vec::new();
        cases.push((
            generators::community_graph(2, 10, 0.4, 0.05, 3, 13),
            vec![
                patterns::single_edge(Label(0), Label(1)),
                patterns::uniform_path(3, Label(0)),
                patterns::triangle(Label(0), Label(1), Label(2)),
                patterns::triangle(Label(0), Label(0), Label(0)),
            ],
            vec![vec![], vec![0], vec![3, 7], vec![0, 5, 11, 19]],
        ));
        // Path-of-3 in a triangle: non-induced occurrences exist, induced do not.
        cases.push((
            LabeledGraph::from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]),
            vec![patterns::uniform_path(3, Label(0))],
            vec![vec![0, 1, 2]],
        ));
        for seed in 0..4u64 {
            let graph = graph_with_hubs(seed, 3);
            let hubs: Vec<VertexId> = (0..3).map(|h| ((seed + 17 * h) % 160) as VertexId).collect();
            let mut sorted_hubs = hubs.clone();
            sorted_hubs.sort_unstable();
            let sampled = (1..=3)
                .flat_map(|edges| (0..6).map(move |s| (edges, s)))
                .filter_map(|(edges, s)| generators::sample_pattern(&graph, edges, seed * 97 + s))
                .map(|(pattern, _)| pattern)
                .collect();
            cases.push((graph, sampled, vec![sorted_hubs, vec![1, 50, 99], vec![hubs[0] + 1]]));
        }
        let (mut checked, mut inside) = (0, 0);
        for (graph, shapes, dirties) in &cases {
            for induced in [false, true] {
                for dirty in dirties {
                    let (codes, _) = region_codes(graph, dirty, 3, induced);
                    for pattern in shapes {
                        let found = codes.contains(&canonical_code(pattern));
                        assert_eq!(
                            found,
                            oracle(pattern, graph, induced, dirty),
                            "pattern {pattern:?}, dirty {dirty:?}, induced {induced}"
                        );
                        checked += 1;
                        inside += found as usize;
                    }
                }
            }
        }
        assert!(inside > 0 && inside < checked, "{inside} of {checked}: the oracle has no teeth");
    }

    /// Each connected edge subset meeting the dirty vertices is enumerated
    /// exactly once: the count equals a brute force over every edge subset.
    #[test]
    fn dirty_subsets_are_enumerated_once() {
        let graph = generators::gnm_random(9, 14, 2, 5);
        let edges: Vec<(VertexId, VertexId)> = graph.edges().collect();
        let dirty = [1, 4];
        for max_edges in 1..=4 {
            let brute = (1u32..1 << edges.len())
                .filter(|mask| mask.count_ones() as usize <= max_edges)
                .filter(|mask| {
                    let chosen: Vec<_> =
                        (0..edges.len()).filter(|i| mask & 1 << i != 0).map(|i| edges[i]).collect();
                    let sub = LabeledGraph::from_edges(&[0; 9], &chosen);
                    let touched: Vec<VertexId> = (0..9).filter(|&v| sub.degree(v) > 0).collect();
                    let (component, _) = sub.induced_subgraph(&touched);
                    component.is_connected() && dirty.iter().any(|d| touched.contains(d))
                })
                .count();
            assert_eq!(
                region_codes(&graph, &dirty, max_edges, false).1,
                brute,
                "≤ {max_edges} edges"
            );
        }
    }

    /// The walk reads the clock only every `CLOCK_STRIDE` subsets: with its
    /// deadline already past, a region smaller than that is still walked to
    /// the end, and a larger one stops at the first reading.
    #[test]
    fn a_past_deadline_stops_the_walk_at_the_first_clock_reading() {
        let graph = graph_with_hubs(3, 1);
        let hub = [3];
        let (small, walked) = region_codes(&graph, &[100], 2, false);
        let (_, full) = region_codes(&graph, &hub, 3, false);
        assert!(walked < CLOCK_STRIDE && full > CLOCK_STRIDE, "{walked} and {full} subsets");
        let mut walk = Walk::new(&graph, 2, false, Instant::now());
        assert_eq!(walk.codes(&graph, &[100]), Some(small));
        let mut walk = Walk::new(&graph, 3, false, Instant::now());
        assert_eq!(walk.codes(&graph, &hub), None);
        assert_eq!(walk.count, CLOCK_STRIDE);
    }

    /// A delta at a hub whose walk would cost several cold runs is stopped
    /// early and reuses nothing; the run equals the cold mine, and the cache it
    /// returns carries this run's time as the next cold-run cost.
    #[test]
    fn a_walk_past_its_share_of_the_cold_run_reuses_nothing() {
        use crate::{MiningResult, MiningSession, PreparedGraph};
        use ffsm_graph::GraphUpdate;
        let mut graph = generators::gnm_random(200, 300, 3, 9);
        for other in 1..=90 {
            let _ = graph.add_edge(0, other);
        }
        let prepared = PreparedGraph::new(graph);
        let session = |p: &PreparedGraph| MiningSession::over(p).min_support(4.0).max_edges(3);
        let (_, cache) = session(&prepared).run_recorded().unwrap();
        let (next, delta) = prepared.apply_updates(&[GraphUpdate::AddEdge(0, 150)]).unwrap();
        let full = region_codes(prepared.graph(), &delta.dirty_old, 3, false).1
            + region_codes(next.graph(), &delta.dirty_new, 3, false).1;
        let (incremental, out) = session(&next).run_delta(cache, &delta).unwrap();
        let cold = session(&next).run().unwrap();
        assert_eq!(incremental.stats.evaluations_reused, 0);
        let walked = incremental.stats.dirty_subgraphs;
        assert!(walked.is_multiple_of(CLOCK_STRIDE) && walked < full, "{walked} of {full}");
        assert_eq!(out.cold, incremental.stats.elapsed);
        let listing = |r: &MiningResult| -> Vec<(CanonicalCode, u64, usize)> {
            let code = |p: &crate::FrequentPattern| canonical_code(&p.pattern);
            r.patterns.iter().map(|p| (code(p), p.support.to_bits(), p.num_occurrences)).collect()
        };
        assert!(!cold.patterns.is_empty());
        assert_eq!(listing(&incremental), listing(&cold));
    }

    #[test]
    fn cache_stores_and_serves_entries() {
        let mut cache = EvalCache::default();
        assert!(cache.is_empty());
        let code = canonical_code(&patterns::single_edge(Label(0), Label(1)));
        cache.insert(
            code.clone(),
            CachedEval { support: 3.0, num_occurrences: 6, complete: true, capped: false },
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&code).unwrap().support, 3.0);
        let other = canonical_code(&patterns::single_edge(Label(5), Label(5)));
        assert!(cache.get(&other).is_none());
    }
}
