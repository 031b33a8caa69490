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
//!   vertices **touched** by any occurrence image (empty for a capped entry);
//! * a **pinned existence query** ([`occurrences_touch`]) answering "does this
//!   pattern have an occurrence whose image meets the dirty region?".  It is
//!   the naive reference search of `ffsm_graph::isomorphism` (its `touches`
//!   entry point), rooted only at the dirty vertices instead of enumerating
//!   everything — so the query cannot drift from the occurrence semantics the
//!   enumerators are differential-tested against.
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
//!    (the pinned existence query — the reference search itself, so "no
//!    occurrence" means exactly what the enumerators would find, in either
//!    semantics; a disconnected pattern or a fired cancellation token answers
//!    "touches" and falls back to re-evaluation).
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
//! A candidate the seeded candidate-space cap decided (see [`CachedEval::capped`])
//! never enumerated its occurrences.  Its entry records the cap, the length of
//! the seeded list of some pattern vertex `u` (a list holding every old image
//! of `u`), and an **empty** touched set, so (2) holds trivially.  The entry
//! needs no exact value, only a proof that the support stays below the
//! threshold, and (3) alone gives that: by the dirtiness invariants of
//! `ffsm_graph::update`, a new occurrence avoiding `dirty_new` was an old one
//! under the same vertex ids, so `u`'s new images are a subset of its old ones
//! and `support ≤ MNI ≤ |images(u)| ≤ cap` (the cap applies only to measures at
//! or below MNI).  It is reused only while it stays below the current
//! threshold, and a reused cap carries the same bound on, so by induction it
//! holds across any chain of reuses.
//!
//! The cache is sound across thresholds (supports do not depend on τ) but must
//! come from a run with the same measure, measure configuration and enumeration
//! backend over the **immediately preceding** epoch; chain epochs by feeding
//! each `run_delta`'s returned cache into the next.

use ffsm_graph::canonical::CanonicalCode;
use ffsm_graph::VertexId;
use std::collections::HashMap;
use std::sync::Arc;

/// One cached per-pattern evaluation (see the module docs in `delta.rs`).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedEval {
    /// The support computed by the session's measure.
    pub support: f64,
    /// Number of occurrences enumerated for the support.
    pub num_occurrences: usize,
    /// Sorted distinct data vertices in any occurrence image (none for a
    /// capped entry).  `Arc`-shared so carrying an entry across epochs is a
    /// refcount bump, not a copy of a possibly graph-sized vertex list.
    pub touched: Arc<[VertexId]>,
    /// `false` if the enumeration hit its embedding budget; such entries are
    /// never reused (their touched set is partial).
    pub complete: bool,
    /// `true` when the seeded candidate-space cap decided the pattern: then
    /// `support` is that cap (the first seeded list below the recording run's
    /// threshold), `num_occurrences` is 0 and `touched` is empty.  Reused iff
    /// complete, below the current threshold and the pinned query is false.
    pub capped: bool,
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

/// The pinned existence query of the reuse argument's step (3): does `pattern`
/// have an occurrence in `graph` whose image meets the dirty region?  Answered
/// by the naive reference search itself, so the reuse proof and the enumerators
/// share one occurrence semantics.
pub(crate) use ffsm_graph::isomorphism::touches as occurrences_touch;

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::isomorphism::{enumerate_embeddings, IsoConfig};
    use ffsm_graph::{generators, patterns, Label, LabeledGraph, Pattern};

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
                capped: false,
            },
        );
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&code).unwrap().support, 3.0);
        let other = canonical_code(&patterns::single_edge(Label(5), Label(5)));
        assert!(cache.get(&other).is_none());
    }
}
