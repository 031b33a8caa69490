//! Delta re-mining: carry per-pattern results across graph epochs.
//!
//! A mining run evaluates the support of every candidate pattern against the
//! data graph.  When the graph changes by a small [`GraphDelta`], most of those
//! evaluations are provably unchanged — the incremental-view-maintenance insight
//! of Berkholz et al. applied to pattern mining.  This module provides the
//! machinery behind [`MiningSession::run_recorded`](crate::MiningSession) and
//! [`MiningSession::run_delta`](crate::MiningSession):
//!
//! * [`EvalCache`] — per-pattern evaluation results of one epoch, keyed by
//!   canonical code: support, occurrence count, and the sorted set of data
//!   vertices **touched** by any occurrence image;
//! * a **pinned existence query** ([`occurrences_touch`]) answering "does this
//!   pattern have an occurrence whose image meets the dirty region?" by rooting
//!   the search at each dirty vertex instead of enumerating everything.
//!
//! ## The reuse argument
//!
//! A cached evaluation is carried forward for a pattern `P` iff
//!
//! 1. the cached enumeration was **complete** (not truncated by the embedding
//!    budget),
//! 2. no cached occurrence touched the dirty region of the *old* graph
//!    (`touched ∩ dirty_old = ∅`), and
//! 3. the *new* graph has no occurrence of `P` touching `dirty_new`
//!    (the pinned existence query).
//!
//! (2) rules out destroyed or renamed occurrences: an occurrence invalidated by
//! an edge/vertex removal, a relabel — or, in induced semantics, by an edge
//! *insertion* between two of its image vertices — has both endpoints of the
//! change in its image, and those are dirty.  (3) rules out created occurrences:
//! a new occurrence must use an inserted edge, an added vertex or a relabelled
//! vertex, all of which are dirty in the new id space.  Together they prove the
//! occurrence sets of the two epochs identical, so the cached support and
//! occurrence count — and the touched set itself, whose vertices were not
//! renamed by (2) — are exact.  The delta run therefore reproduces the cold
//! run **bit for bit**: reused values equal what re-evaluation would compute, so
//! the level-by-level candidate tree (and every threshold decision, including
//! rising top-k thresholds and budget cut-offs) is identical.
//!
//! The cache is sound across thresholds (supports do not depend on τ) but must
//! come from a run with the same measure, measure configuration and enumeration
//! backend over the **immediately preceding** epoch; chain epochs by feeding
//! each `run_delta`'s returned cache into the next.

use ffsm_graph::cancel::CHECK_STRIDE;
use ffsm_graph::canonical::CanonicalCode;
use ffsm_graph::isomorphism::IsoConfig;
use ffsm_graph::{LabeledGraph, Pattern, VertexId};
use std::collections::HashMap;
use std::sync::Arc;

/// One cached per-pattern evaluation (see the module docs in `delta.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedEval {
    /// The support computed by the session's measure.
    pub support: f64,
    /// Number of occurrences enumerated for the support.
    pub num_occurrences: usize,
    /// Sorted distinct data vertices appearing in any occurrence image.
    /// `Arc`-shared so carrying an entry across epochs is a refcount bump, not
    /// a copy of a possibly graph-sized vertex list.
    pub touched: Arc<[VertexId]>,
    /// `false` if the enumeration hit its embedding budget; such entries are
    /// never reused (their touched set is partial).
    pub complete: bool,
}

/// Per-pattern evaluation results of one mining run, keyed by canonical code.
///
/// Produced by [`MiningSession::run_recorded`](crate::MiningSession) /
/// [`MiningSession::run_delta`](crate::MiningSession) and consumed by the next
/// epoch's `run_delta`.  Covers **every evaluated candidate** (frequent or not),
/// because the next epoch prunes infrequent candidates from the cache too.
#[derive(Debug, Clone, Default)]
pub struct EvalCache {
    entries: HashMap<CanonicalCode, CachedEval>,
}

impl EvalCache {
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
    /// Reuse a prior epoch's cache where the delta provably allows it, and
    /// record the current epoch's evaluations.
    Delta(DeltaContext),
}

impl CacheMode {
    /// `true` when the run produces an [`EvalCache`].
    pub(crate) fn caching(&self) -> bool {
        !matches!(self, CacheMode::Off)
    }
}

/// The prior cache plus the dirty region, in both id spaces.
pub(crate) struct DeltaContext {
    pub(crate) prior: EvalCache,
    /// Dirty vertices in the previous epoch's id space (sorted).
    pub(crate) dirty_old: Vec<VertexId>,
    /// Dirty vertices in the current epoch's id space (sorted).
    pub(crate) dirty_new: Vec<VertexId>,
    /// The graph's `(vertices, edges)` after the batch — the session's graph
    /// must match it.
    pub(crate) expected_size: (usize, usize),
}

/// `true` when two sorted vertex slices share an element.  Asymmetric sizes
/// (a handful of dirty vertices against a graph-sized touched set) take the
/// probe-the-longer-side binary-search path; similar sizes merge linearly.
pub(crate) fn sorted_intersects(a: &[VertexId], b: &[VertexId]) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return false;
    }
    if small.len() * 16 < large.len() {
        return small.iter().any(|v| large.binary_search(v).is_ok());
    }
    let (mut i, mut j) = (0, 0);
    while i < small.len() && j < large.len() {
        match small[i].cmp(&large[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Does `pattern` have any occurrence in `graph` whose image contains a vertex
/// of `dirty`?  Decided by a backtracking search **pinned** at each dirty
/// vertex in turn — cost proportional to the dirty neighbourhood, not to the
/// graph — with the exact occurrence semantics of the enumerators (injective,
/// label-preserving, edge-preserving; non-edge-reflecting unless
/// `config.induced`).
///
/// Conservative exits: disconnected patterns and a fired cancellation token
/// return `true` (the caller then falls back to full re-evaluation, which
/// handles both cases properly).
pub(crate) fn occurrences_touch(
    pattern: &Pattern,
    graph: &LabeledGraph,
    config: &IsoConfig,
    dirty: &[VertexId],
) -> bool {
    let n = pattern.num_vertices();
    if n == 0 || dirty.is_empty() {
        return false;
    }
    if n > graph.num_vertices() {
        return false;
    }
    if !pattern.is_connected() {
        return true;
    }
    let mut search = PinnedSearch {
        pattern,
        graph,
        config,
        order: Vec::with_capacity(n),
        earlier: Vec::with_capacity(n),
        assignment: vec![None; n],
        used: vec![false; graph.num_vertices()],
        steps: 0,
        cancelled: false,
    };
    // An occurrence touches `dirty` iff some pattern vertex maps onto some dirty
    // vertex: pin every (pattern vertex, dirty vertex) pair in turn.
    for root in pattern.vertices() {
        search.set_root(root);
        for &d in dirty {
            debug_assert!((d as usize) < graph.num_vertices(), "dirty ids are current");
            if graph.label(d) != pattern.label(root) || graph.degree(d) < pattern.degree(root) {
                continue;
            }
            search.assignment[root as usize] = Some(d);
            search.used[d as usize] = true;
            let found = search.extend(1);
            search.assignment[root as usize] = None;
            search.used[d as usize] = false;
            if found || search.cancelled {
                return true;
            }
        }
    }
    false
}

/// Backtracking search for one occurrence extending a pinned root assignment.
///
/// This deliberately mirrors the occurrence semantics of
/// `ffsm_graph::isomorphism::Search` (injective, label-preserving,
/// edge-preserving, optional induced mode) without reusing it: the naive
/// enumerator has no pinned-root entry point, and the reuse proof needs *this*
/// query to agree with whatever the enumerators produce.  The agreement is
/// enforced by the `pinned_query_matches_full_enumeration_oracle` proptest
/// below, which diffs it against `enumerate_embeddings` in both semantics —
/// any semantic drift in the enumerators breaks that test, not the proof.
struct PinnedSearch<'a> {
    pattern: &'a Pattern,
    graph: &'a LabeledGraph,
    config: &'a IsoConfig,
    /// BFS order over the (connected) pattern, rooted at the pinned vertex.
    order: Vec<VertexId>,
    /// For each order position, the pattern neighbours that appear earlier.
    earlier: Vec<Vec<VertexId>>,
    assignment: Vec<Option<VertexId>>,
    used: Vec<bool>,
    steps: u32,
    /// Set when the cancellation token fires mid-search; the caller treats the
    /// query as "touches" so the full (itself cancellable) path takes over.
    cancelled: bool,
}

impl PinnedSearch<'_> {
    /// Recompute the BFS order and earlier-neighbour lists for a new root.
    fn set_root(&mut self, root: VertexId) {
        let n = self.pattern.num_vertices();
        self.order.clear();
        self.order.push(root);
        let mut placed = vec![false; n];
        placed[root as usize] = true;
        let mut head = 0;
        while head < self.order.len() {
            let v = self.order[head];
            head += 1;
            for &w in self.pattern.neighbors(v) {
                if !placed[w as usize] {
                    placed[w as usize] = true;
                    self.order.push(w);
                }
            }
        }
        debug_assert_eq!(self.order.len(), n, "pattern is connected");
        let position: Vec<usize> = {
            let mut pos = vec![0usize; n];
            for (i, &v) in self.order.iter().enumerate() {
                pos[v as usize] = i;
            }
            pos
        };
        self.earlier.clear();
        for (i, &v) in self.order.iter().enumerate() {
            self.earlier.push(
                self.pattern
                    .neighbors(v)
                    .iter()
                    .copied()
                    .filter(|&w| position[w as usize] < i)
                    .collect(),
            );
        }
    }

    /// Exactly the naive enumerator's feasibility test.
    fn feasible(&self, pv: VertexId, gv: VertexId, depth: usize) -> bool {
        if self.used[gv as usize]
            || self.graph.label(gv) != self.pattern.label(pv)
            || self.graph.degree(gv) < self.pattern.degree(pv)
        {
            return false;
        }
        for &pn in &self.earlier[depth] {
            let gn = self.assignment[pn as usize].expect("earlier vertex assigned");
            if !self.graph.has_edge(gv, gn) {
                return false;
            }
        }
        if self.config.induced {
            for (p_other, assigned) in self.assignment.iter().enumerate() {
                if let Some(g_other) = assigned {
                    let p_other = p_other as VertexId;
                    if p_other != pv
                        && !self.pattern.has_edge(pv, p_other)
                        && self.graph.has_edge(gv, *g_other)
                    {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// `true` once any full occurrence extends the current partial assignment.
    fn extend(&mut self, depth: usize) -> bool {
        self.steps += 1;
        if self.steps >= CHECK_STRIDE {
            self.steps = 0;
            if self.config.cancel.is_cancelled() {
                self.cancelled = true;
                return false;
            }
        }
        if depth == self.order.len() {
            return true;
        }
        let pv = self.order[depth];
        // BFS order on a connected pattern guarantees an earlier neighbour; scan
        // the cheapest matched image's adjacency list.
        let pivot = self.earlier[depth]
            .iter()
            .copied()
            .min_by_key(|&pn| self.graph.degree(self.assignment[pn as usize].expect("assigned")))
            .expect("BFS order has an earlier neighbour");
        let gn = self.assignment[pivot as usize].expect("assigned");
        let graph = self.graph;
        for &gv in graph.neighbors(gn) {
            if self.feasible(pv, gv, depth) {
                self.assignment[pv as usize] = Some(gv);
                self.used[gv as usize] = true;
                let found = self.extend(depth + 1);
                self.assignment[pv as usize] = None;
                self.used[gv as usize] = false;
                if found || self.cancelled {
                    return found;
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::isomorphism::enumerate_embeddings;
    use ffsm_graph::{generators, patterns, Label};

    #[test]
    fn sorted_intersects_merges() {
        assert!(sorted_intersects(&[1, 4, 9], &[2, 4]));
        assert!(!sorted_intersects(&[1, 4, 9], &[2, 5]));
        assert!(!sorted_intersects(&[], &[1]));
    }

    /// Oracle: the pinned query must agree with "enumerate everything and check".
    fn oracle(
        pattern: &Pattern,
        graph: &LabeledGraph,
        config: &IsoConfig,
        dirty: &[VertexId],
    ) -> bool {
        enumerate_embeddings(pattern, graph, config.clone())
            .embeddings
            .iter()
            .any(|emb| emb.iter().any(|v| dirty.binary_search(v).is_ok()))
    }

    #[test]
    fn pinned_query_matches_full_enumeration_oracle() {
        let graph = generators::community_graph(2, 10, 0.4, 0.05, 3, 13);
        let config = IsoConfig::default();
        let shapes = [
            patterns::single_edge(Label(0), Label(1)),
            patterns::uniform_path(3, Label(0)),
            patterns::triangle(Label(0), Label(1), Label(2)),
            patterns::triangle(Label(0), Label(0), Label(0)),
        ];
        for pattern in &shapes {
            for dirty in [vec![], vec![0], vec![3, 7], vec![0, 5, 11, 19]] {
                assert_eq!(
                    occurrences_touch(pattern, &graph, &config, &dirty),
                    oracle(pattern, &graph, &config, &dirty),
                    "pattern {pattern:?}, dirty {dirty:?}"
                );
            }
        }
    }

    #[test]
    fn pinned_query_respects_induced_semantics() {
        // Path-of-3 in a triangle: non-induced occurrences exist, induced do not.
        let graph = LabeledGraph::from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let pattern = patterns::uniform_path(3, Label(0));
        let dirty = vec![0, 1, 2];
        assert!(occurrences_touch(&pattern, &graph, &IsoConfig::default(), &dirty));
        let induced = IsoConfig { induced: true, ..IsoConfig::default() };
        assert!(!occurrences_touch(&pattern, &graph, &induced, &dirty));
    }

    #[test]
    fn disconnected_patterns_are_conservative() {
        let mut pattern = Pattern::new();
        pattern.add_vertex(Label(0));
        pattern.add_vertex(Label(0));
        let graph = LabeledGraph::from_edges(&[0, 0], &[(0, 1)]);
        assert!(occurrences_touch(&pattern, &graph, &IsoConfig::default(), &[1]));
    }

    #[test]
    fn cache_stores_and_serves_entries() {
        use ffsm_graph::canonical::canonical_code;
        let mut cache = EvalCache::default();
        assert!(cache.is_empty());
        let code = canonical_code(&patterns::single_edge(Label(0), Label(1)));
        cache.insert(
            code.clone(),
            CachedEval {
                support: 3.0,
                num_occurrences: 6,
                touched: Arc::from(vec![1, 2]),
                complete: true,
            },
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&code).unwrap().support, 3.0);
        let other = canonical_code(&patterns::single_edge(Label(5), Label(5)));
        assert!(cache.get(&other).is_none());
    }
}
