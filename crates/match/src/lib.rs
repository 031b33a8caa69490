//! # ffsm-match — the candidate-space subgraph-matching engine
//!
//! Filtering-based occurrence enumeration in the style of GraphQL / CFL-Match,
//! replacing the naive backtracker of `ffsm_graph::isomorphism` on the hot path
//! while keeping it as the differential-test oracle.  Three layers:
//!
//! 1. [`GraphIndex`] — built **once per data graph** (label inverted index, degree
//!    buckets, neighbour-label bitset fingerprints) and shared across all patterns
//!    of a mining session;
//! 2. [`CandidateSpace`] — per-pattern candidate sets, filtered by label / degree /
//!    fingerprint (or seeded from the refined sets of a pattern it extends) and
//!    refined to neighbourhood consistency (CFL-style) before any search happens;
//! 3. [`Matcher`] — an iterative, non-recursive enumerator that streams embeddings
//!    to an [`EmbeddingVisitor`]
//!    (early termination for existence checks and budgets, counting without
//!    materialisation) in both induced and non-induced semantics.
//!
//! Enumeration is sequential: a mining session parallelises across the candidate
//! patterns of a level, never inside one pattern's search.
//!
//! ## Determinism contract
//!
//! For a fixed `(pattern, graph, IsoConfig)` the embedding sequence is fully
//! deterministic: every candidate pool is ascending by vertex id, the matching
//! order depends only on the candidate space, and failing-set backjumping skips
//! only subtrees that provably contain no embedding.
//!
//! Across *backends* the contract is weaker, by design: the emission **multiset**
//! is identical everywhere, the emission *order* is fixed per backend but not
//! shared between them.  The naive oracle picks its matching order from label
//! frequencies, not candidate sets; differential tests therefore compare sorted
//! multisets (all four support measures are order-independent, so they are
//! bit-for-bit stable across backends).
//!
//! ## Backend dispatch
//!
//! [`enumerate`] dispatches on
//! [`IsoConfig::backend`](ffsm_graph::isomorphism::IsoConfig): `Naive` runs the
//! oracle and `CandidateSpace` runs this engine (building a throwaway
//! [`GraphIndex`] when the caller has none).  Underneath it is [`stream_with`],
//! which pushes each embedding to a visitor as the search finds it:
//! `ffsm-core`'s `OccurrenceSet::enumerate` and the mining engine stream through
//! it straight into an occurrence set's row buffer, so no embedding is ever a
//! vector of its own.  Sessions build the index once and pass it to every
//! per-pattern call, and hot call sites thread a reusable [`SearchArena`]
//! through [`stream_with`] / [`enumerate_with`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod candidates;
mod enumerate;
mod index;

pub use candidates::{CandidateSpace, InitialSets};
pub use enumerate::SearchArena;
pub use index::GraphIndex;

use enumerate::MatchingOrder;
use ffsm_graph::isomorphism::{
    CollectVisitor, CountVisitor, EmbeddingVisitor, EnumerationResult, EnumeratorBackend,
    ExistsVisitor, IsoConfig,
};
use ffsm_graph::{LabeledGraph, Pattern};

/// A pattern prepared for matching against one indexed data graph: the refined
/// [`CandidateSpace`] plus the cost-aware matching order derived from it.
///
/// Build once per `(pattern, graph)` pair and query repeatedly; the expensive
/// per-graph work lives in the [`GraphIndex`], the per-pattern work here.
pub struct Matcher<'a> {
    pattern: &'a Pattern,
    graph: &'a LabeledGraph,
    index: &'a GraphIndex,
    space: CandidateSpace,
    order: MatchingOrder,
}

impl<'a> Matcher<'a> {
    /// Prepare `pattern` against `graph` using `index` (built from the same graph).
    /// The index is retained: the search loop consults its hub adjacency bitsets.
    pub fn new(pattern: &'a Pattern, graph: &'a LabeledGraph, index: &'a GraphIndex) -> Self {
        Matcher::with_space(pattern, graph, index, CandidateSpace::build(pattern, graph, index))
    }

    /// Prepare `pattern` over an already built `space` (of the same pattern,
    /// graph and index) — e.g. one refined from seeded
    /// [`CandidateSpace::initial`] lists.
    pub fn with_space(
        pattern: &'a Pattern,
        graph: &'a LabeledGraph,
        index: &'a GraphIndex,
        space: CandidateSpace,
    ) -> Self {
        let order = MatchingOrder::build(pattern, &space);
        Matcher { pattern, graph, index, space, order }
    }

    /// Give the candidate space back (to seed the spaces of extensions).
    pub fn into_space(self) -> CandidateSpace {
        self.space
    }

    /// The refined candidate space (for diagnostics: sizes, refinement rounds).
    pub fn space(&self) -> &CandidateSpace {
        &self.space
    }

    /// The matching order as a pattern-vertex sequence.
    pub fn matching_order(&self) -> &[ffsm_graph::VertexId] {
        &self.order.order
    }

    /// `true` if the candidate space already proves there is no embedding.
    fn trivially_empty(&self) -> bool {
        self.pattern.num_vertices() > self.graph.num_vertices() || self.space.has_empty_set()
    }

    /// Stream every embedding to `visitor` in the deterministic order; returns
    /// `false` if the visitor stopped the search early or `config.cancel` fired.
    ///
    /// Streaming is the O(1)-memory path.  The budget `config.max_embeddings` is
    /// *not* applied — wrap the visitor if a budget is wanted (as
    /// [`Matcher::enumerate`] does).
    pub fn stream<V: EmbeddingVisitor>(&self, config: IsoConfig, visitor: &mut V) -> bool {
        self.stream_with(config, &mut SearchArena::new(), visitor)
    }

    /// [`Matcher::stream`] reusing the caller's [`SearchArena`] — the hot-loop
    /// variant for call sites that evaluate many patterns (one arena per worker).
    pub fn stream_with<V: EmbeddingVisitor>(
        &self,
        config: IsoConfig,
        arena: &mut SearchArena,
        visitor: &mut V,
    ) -> bool {
        if self.pattern.num_vertices() == 0 {
            return visitor.visit(&[]) == ffsm_graph::isomorphism::VisitFlow::Continue;
        }
        if self.trivially_empty() {
            return true;
        }
        enumerate::run_search(
            self.graph,
            self.index,
            &self.space,
            &self.order,
            config.induced,
            &config.cancel,
            arena,
            visitor,
        )
    }

    /// Materialise all embeddings (up to `config.max_embeddings`).
    pub fn enumerate(&self, config: IsoConfig) -> EnumerationResult {
        self.enumerate_with(config, &mut SearchArena::new())
    }

    /// [`Matcher::enumerate`] reusing the caller's [`SearchArena`].
    pub fn enumerate_with(&self, config: IsoConfig, arena: &mut SearchArena) -> EnumerationResult {
        if self.pattern.num_vertices() == 0 {
            return EnumerationResult { embeddings: vec![Vec::new()], complete: true };
        }
        if self.trivially_empty() {
            return EnumerationResult { embeddings: Vec::new(), complete: true };
        }
        let mut collect = CollectVisitor::with_limit(config.max_embeddings);
        let complete = self.stream_with(config, arena, &mut collect);
        EnumerationResult { embeddings: collect.embeddings, complete }
    }

    /// Count embeddings without materialising them (clamped to
    /// `config.max_embeddings`); `complete` is `false` when the budget was hit.
    pub fn count(&self, config: IsoConfig) -> (usize, bool) {
        if self.pattern.num_vertices() == 0 {
            return (1, true);
        }
        if self.trivially_empty() {
            return (0, true);
        }
        let mut counter = CountVisitor::with_limit(config.max_embeddings);
        let complete = self.stream(config, &mut counter);
        (counter.count, complete)
    }

    /// `true` if at least one embedding exists.  Stops at the first one.
    pub fn exists(&self, config: IsoConfig) -> bool {
        if self.pattern.num_vertices() == 0 {
            return true;
        }
        if self.trivially_empty() {
            return false;
        }
        let mut exists = ExistsVisitor::default();
        self.stream(config, &mut exists);
        exists.found
    }
}

/// Enumerate the occurrences of `pattern` in `graph`, dispatching on
/// `config.backend`.
///
/// * [`EnumeratorBackend::Naive`] — the recursive oracle of
///   `ffsm_graph::isomorphism` (always sequential);
/// * [`EnumeratorBackend::CandidateSpace`] — this crate's engine, reusing `index`
///   when given and building a throwaway [`GraphIndex`] otherwise.
///
/// This materialises every embedding as its own vector; `ffsm-core` and the
/// mining engine stream through [`stream_with`] instead.  A mining session
/// builds one index up front and passes it to every per-pattern call so the
/// per-graph work is never repeated.
pub fn enumerate(
    pattern: &Pattern,
    graph: &LabeledGraph,
    index: Option<&GraphIndex>,
    config: IsoConfig,
) -> EnumerationResult {
    enumerate_with(pattern, graph, index, config, &mut SearchArena::new())
}

/// [`enumerate`] reusing the caller's [`SearchArena`] — [`stream_with`] into a
/// [`CollectVisitor`] bounded by `config.max_embeddings`.  The empty pattern
/// has exactly one (empty) occurrence whatever the budget.
pub fn enumerate_with(
    pattern: &Pattern,
    graph: &LabeledGraph,
    index: Option<&GraphIndex>,
    config: IsoConfig,
    arena: &mut SearchArena,
) -> EnumerationResult {
    if pattern.num_vertices() == 0 {
        return EnumerationResult { embeddings: vec![Vec::new()], complete: true };
    }
    let mut collect = CollectVisitor::with_limit(config.max_embeddings);
    let complete = stream_with(pattern, graph, index, config, arena, &mut collect);
    EnumerationResult { embeddings: collect.embeddings, complete }
}

/// Stream the occurrences of `pattern` in `graph` to `visitor`, dispatching on
/// `config.backend`; returns `false` if the visitor stopped the search or
/// `config.cancel` fired.
///
/// * [`EnumeratorBackend::Naive`] — `ffsm_graph::isomorphism::enumerate_with_visitor`
///   (the arena is unused);
/// * [`EnumeratorBackend::CandidateSpace`] — [`Matcher::stream_with`], reusing
///   `index` when given and building a throwaway [`GraphIndex`] otherwise; the
///   space build is timed as `CandidateSpace` and the search, visits included,
///   as `Search` in the arena.
///
/// As with [`Matcher::stream`], `config.max_embeddings` is *not* applied: the
/// visitor owns the budget.
pub fn stream_with<V: EmbeddingVisitor>(
    pattern: &Pattern,
    graph: &LabeledGraph,
    index: Option<&GraphIndex>,
    config: IsoConfig,
    arena: &mut SearchArena,
    visitor: &mut V,
) -> bool {
    if config.backend == EnumeratorBackend::Naive {
        return ffsm_graph::isomorphism::enumerate_with_visitor(pattern, graph, config, visitor);
    }
    let built;
    let index = match index {
        Some(index) => index,
        None => {
            built = GraphIndex::build(graph);
            &built
        }
    };
    let matcher =
        arena.span(ffsm_obs::Phase::CandidateSpace, |_| Matcher::new(pattern, graph, index));
    arena.add_refine_rounds(matcher.space().refinement_rounds() as u64);
    arena.span(ffsm_obs::Phase::Search, |arena| matcher.stream_with(config, arena, visitor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::isomorphism::{enumerate_embeddings, Embedding, VisitFlow};
    use ffsm_graph::{generators, patterns, Label};

    fn sorted(mut embeddings: Vec<Embedding>) -> Vec<Embedding> {
        embeddings.sort();
        embeddings
    }

    /// The engine and the oracle agree (as multisets) on a mixed bag of patterns
    /// over a random labelled graph, in both semantics.
    #[test]
    fn engine_matches_oracle_on_standard_shapes() {
        let graph = generators::gnm_random(40, 90, 3, 7);
        let index = GraphIndex::build(&graph);
        let shapes = [
            patterns::single_edge(Label(0), Label(1)),
            patterns::uniform_path(3, Label(0)),
            patterns::path(&[Label(0), Label(1), Label(2)]),
            patterns::uniform_clique(3, Label(1)),
            patterns::uniform_star(3, Label(2), Label(0)),
        ];
        for pattern in &shapes {
            for induced in [false, true] {
                let config = IsoConfig { induced, ..IsoConfig::default() };
                let naive = enumerate_embeddings(pattern, &graph, config.clone());
                let matcher = Matcher::new(pattern, &graph, &index);
                let indexed = matcher.enumerate(config);
                assert!(naive.complete && indexed.complete);
                assert_eq!(
                    sorted(indexed.embeddings),
                    sorted(naive.embeddings),
                    "induced={induced}"
                );
            }
        }
    }

    #[test]
    fn zero_and_exact_budgets_bound_enumerate_and_count() {
        let graph = generators::star_overlap(4, 4);
        let pattern = patterns::single_edge(Label(0), Label(1));
        let index = GraphIndex::build(&graph);
        let matcher = Matcher::new(&pattern, &graph, &index);
        let total = matcher.enumerate(IsoConfig::default()).len();
        assert!(total > 1);
        // A zero budget yields nothing; a budget of exactly the embedding count is
        // a *complete* enumeration; one less truncates — for `enumerate` and
        // `count` alike.
        for (limit, expect_len, expect_complete) in
            [(0, 0, false), (total - 1, total - 1, false), (total, total, true)]
        {
            let config = IsoConfig::with_limit(limit);
            let result = matcher.enumerate(config.clone());
            assert_eq!(result.len(), expect_len, "limit={limit}");
            assert_eq!(result.complete, expect_complete, "limit={limit}");
            assert_eq!(
                matcher.count(config),
                (expect_len, expect_complete),
                "count at limit={limit}"
            );
        }
    }

    #[test]
    fn count_and_exists_take_the_streaming_path() {
        let graph = generators::replicated(
            &ffsm_graph::LabeledGraph::from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]),
            4,
            false,
        );
        let triangle = patterns::uniform_clique(3, Label(0));
        let index = GraphIndex::build(&graph);
        let matcher = Matcher::new(&triangle, &graph, &index);
        let (count, complete) = matcher.count(IsoConfig::default());
        assert_eq!(count, 4 * 6);
        assert!(complete);
        // Budgeted count clamps and reports incompleteness.
        assert_eq!(matcher.count(IsoConfig::with_limit(5)), (5, false));
        assert!(matcher.exists(IsoConfig::default()));
        let missing = patterns::uniform_clique(4, Label(0));
        let matcher = Matcher::new(&missing, &graph, &index);
        assert!(!matcher.exists(IsoConfig::default()));
    }

    #[test]
    fn streaming_early_termination() {
        let graph = generators::star_overlap(4, 4);
        let pattern = patterns::single_edge(Label(0), Label(1));
        let index = GraphIndex::build(&graph);
        let matcher = Matcher::new(&pattern, &graph, &index);
        let mut seen = 0usize;
        let complete = matcher.stream(IsoConfig::default(), &mut |_: &[u32]| {
            seen += 1;
            if seen == 3 {
                VisitFlow::Stop
            } else {
                VisitFlow::Continue
            }
        });
        assert!(!complete);
        assert_eq!(seen, 3);
    }

    #[test]
    fn dispatch_honours_the_backend_tag() {
        let graph = generators::gnm_random(20, 40, 2, 3);
        let pattern = patterns::single_edge(Label(0), Label(1));
        let naive = enumerate(
            &pattern,
            &graph,
            None,
            IsoConfig::default().with_backend(EnumeratorBackend::Naive),
        );
        let indexed = enumerate(&pattern, &graph, None, IsoConfig::default());
        let index = GraphIndex::build(&graph);
        let shared = enumerate(&pattern, &graph, Some(&index), IsoConfig::default());
        assert_eq!(sorted(indexed.embeddings.clone()), sorted(naive.embeddings));
        assert_eq!(indexed.embeddings, shared.embeddings);
    }

    #[test]
    fn arena_reuse_through_the_dispatch_entry_point() {
        let graph = generators::gnm_random(30, 70, 2, 5);
        let index = GraphIndex::build(&graph);
        let mut arena = SearchArena::new();
        let shapes = [
            patterns::single_edge(Label(0), Label(1)),
            patterns::uniform_clique(3, Label(1)),
            patterns::uniform_path(3, Label(0)),
        ];
        for backend in [EnumeratorBackend::CandidateSpace, EnumeratorBackend::Naive] {
            for pattern in &shapes {
                let config = IsoConfig::default().with_backend(backend);
                let reused =
                    enumerate_with(pattern, &graph, Some(&index), config.clone(), &mut arena);
                let fresh = enumerate(pattern, &graph, Some(&index), config);
                assert_eq!(reused.embeddings, fresh.embeddings, "backend={backend}");
                assert_eq!(reused.complete, fresh.complete);
            }
        }
    }

    #[test]
    fn empty_and_oversized_patterns() {
        let graph = ffsm_graph::LabeledGraph::from_edges(&[0, 0], &[(0, 1)]);
        let index = GraphIndex::build(&graph);
        let empty = ffsm_graph::LabeledGraph::new();
        let matcher = Matcher::new(&empty, &graph, &index);
        let result = matcher.enumerate(IsoConfig::default());
        assert_eq!(result.embeddings, vec![Vec::<u32>::new()]);
        assert!(matcher.exists(IsoConfig::default()));
        assert_eq!(matcher.count(IsoConfig::default()), (1, true));
        let big = patterns::uniform_path(3, Label(0));
        let matcher = Matcher::new(&big, &graph, &index);
        assert!(matcher.enumerate(IsoConfig::default()).is_empty());
        assert!(!matcher.exists(IsoConfig::default()));
    }
}
