//! Subgraph-isomorphism enumeration (the naive reference enumerator).
//!
//! An **occurrence** of a pattern `P` in a data graph `G` (Definition 2.1.8) is an
//! injective, label-preserving map `f : V_P → V_G` such that every pattern edge maps
//! to a data-graph edge.  (Occurrences are *not* required to be induced; an optional
//! induced mode is provided for completeness.)
//!
//! The enumerator is a VF2-flavoured backtracking search:
//!
//! * pattern vertices are visited in a connectivity-aware order that starts from the
//!   most selective vertex (rarest label, then highest degree);
//! * candidates for a vertex with already-matched neighbours are drawn from the
//!   adjacency list of the image with the fewest data-graph neighbours, instead of
//!   the whole graph;
//! * label, degree and adjacency feasibility checks prune each extension.
//!
//! Enumeration can explode combinatorially (that is precisely why MNI/MI matter), so
//! the search takes an explicit [`IsoConfig::max_embeddings`] budget and reports
//! whether it completed.  Embeddings are *streamed* to an [`EmbeddingVisitor`], which
//! may stop the search at any point; [`enumerate_embeddings`] materialises them,
//! while [`has_embedding`] and [`count_embeddings`] never allocate per embedding.
//!
//! This module is the **differential-test oracle** of the workspace: the indexed
//! candidate-space engine (`ffsm-match`) must reproduce its embedding multiset
//! exactly.  [`EnumeratorBackend`] selects between the two; the functions here always
//! run the naive search regardless of the configured backend (dispatch happens one
//! layer up, in `ffsm-core`).

use crate::cancel::{CancelToken, CHECK_STRIDE};
use crate::{LabeledGraph, Pattern, VertexId};

/// An occurrence: `assignment[p]` is the data-graph image of pattern vertex `p`.
pub type Embedding = Vec<VertexId>;

/// Which engine enumerates occurrences.
///
/// The naive backtracker of this module is retained as the correctness oracle; the
/// candidate-space engine (`ffsm-match`) precomputes a per-graph index and prunes
/// candidate sets before searching.  `ffsm-core` dispatches on this tag (the
/// functions in this module ignore it and always run the naive search).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EnumeratorBackend {
    /// The recursive backtracker of this module — the differential-test oracle.
    Naive,
    /// The indexed candidate-space engine of `ffsm-match`.  The default.
    #[default]
    CandidateSpace,
}

impl std::str::FromStr for EnumeratorBackend {
    type Err = String;

    /// Accepts `naive` and `candidate-space` (or `candidate_space`/`cs`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "naive" => Ok(EnumeratorBackend::Naive),
            "candidate-space" | "candidate_space" | "cs" => Ok(EnumeratorBackend::CandidateSpace),
            other => Err(format!(
                "unknown enumerator backend `{other}` (expected `naive` or `candidate-space`)"
            )),
        }
    }
}

impl std::fmt::Display for EnumeratorBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EnumeratorBackend::Naive => "naive",
            EnumeratorBackend::CandidateSpace => "candidate-space",
        })
    }
}

/// Configuration for the embedding enumerator.
///
/// Cloning is cheap (the only non-`Copy` field is the [`CancelToken`], an
/// `Option<Arc<..>>`); the struct stopped being `Copy` when cancellation support
/// was added, so per-call users clone it explicitly.
#[derive(Debug, Clone)]
pub struct IsoConfig {
    /// Stop after this many embeddings have been produced.
    pub max_embeddings: usize,
    /// Require induced embeddings (pattern *non*-edges must map to non-edges).
    /// The paper's occurrences are non-induced, so this defaults to `false`.
    pub induced: bool,
    /// Which enumeration engine `ffsm-core` dispatches to.
    pub backend: EnumeratorBackend,
    /// Cooperative cancellation / deadline token.  Both enumerators poll it once
    /// at search entry and then every [`CHECK_STRIDE`] search steps; a fired token
    /// makes the enumeration return early with `complete == false`.  The default
    /// token is inert (never fires, free to poll).
    pub cancel: CancelToken,
}

impl Default for IsoConfig {
    fn default() -> Self {
        IsoConfig {
            max_embeddings: 2_000_000,
            induced: false,
            backend: EnumeratorBackend::default(),
            cancel: CancelToken::default(),
        }
    }
}

impl IsoConfig {
    /// Config with a custom embedding budget.
    pub fn with_limit(max_embeddings: usize) -> Self {
        IsoConfig { max_embeddings, ..Default::default() }
    }

    /// This config with the given enumeration backend.
    pub fn with_backend(self, backend: EnumeratorBackend) -> Self {
        IsoConfig { backend, ..self }
    }
}

/// Whether a streaming enumeration should continue after a visited embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisitFlow {
    /// Keep searching.
    Continue,
    /// Stop the search immediately (existence checks, embedding budgets, …).
    Stop,
}

/// Streaming consumer of embeddings.
///
/// Both the naive enumerator and the candidate-space engine push each embedding to a
/// visitor the moment it is found, so counting and existence checks never
/// materialise embedding vectors, and any consumer can terminate the search early by
/// returning [`VisitFlow::Stop`].  The borrowed slice is only valid for the duration
/// of the call — clone it to keep it.
pub trait EmbeddingVisitor {
    /// Called once per embedding, in the enumerator's deterministic order.
    fn visit(&mut self, embedding: &[VertexId]) -> VisitFlow;
}

impl<F: FnMut(&[VertexId]) -> VisitFlow> EmbeddingVisitor for F {
    fn visit(&mut self, embedding: &[VertexId]) -> VisitFlow {
        self(embedding)
    }
}

/// Visitor that clones every embedding into a vector, up to a budget.
#[derive(Debug)]
pub struct CollectVisitor {
    /// The embeddings collected so far.
    pub embeddings: Vec<Embedding>,
    max: usize,
}

impl CollectVisitor {
    /// Collect at most `max` embeddings, then stop the search.
    pub fn with_limit(max: usize) -> Self {
        CollectVisitor { embeddings: Vec::new(), max }
    }
}

impl EmbeddingVisitor for CollectVisitor {
    fn visit(&mut self, embedding: &[VertexId]) -> VisitFlow {
        // Budget check *before* accepting: a visit at the budget is rejected, so a
        // zero budget collects nothing and an enumeration with exactly `max`
        // embeddings completes — the contract the parallel merge mirrors.
        if self.embeddings.len() >= self.max {
            return VisitFlow::Stop;
        }
        self.embeddings.push(embedding.to_vec());
        VisitFlow::Continue
    }
}

/// Visitor that counts embeddings without materialising them, up to a budget.
#[derive(Debug)]
pub struct CountVisitor {
    /// Number of embeddings seen so far.
    pub count: usize,
    max: usize,
}

impl CountVisitor {
    /// Count at most `max` embeddings, then stop the search.
    pub fn with_limit(max: usize) -> Self {
        CountVisitor { count: 0, max }
    }
}

impl EmbeddingVisitor for CountVisitor {
    fn visit(&mut self, _embedding: &[VertexId]) -> VisitFlow {
        // Same check-before-accept contract as [`CollectVisitor`].
        if self.count >= self.max {
            return VisitFlow::Stop;
        }
        self.count += 1;
        VisitFlow::Continue
    }
}

/// Visitor that stops at the first embedding (existence check).
#[derive(Debug, Default)]
pub struct ExistsVisitor {
    /// `true` once any embedding has been seen.
    pub found: bool,
}

impl EmbeddingVisitor for ExistsVisitor {
    fn visit(&mut self, _embedding: &[VertexId]) -> VisitFlow {
        self.found = true;
        VisitFlow::Stop
    }
}

/// Result of an enumeration run.
#[derive(Debug, Clone)]
pub struct EnumerationResult {
    /// All embeddings found (up to the configured limit).
    pub embeddings: Vec<Embedding>,
    /// `false` if the search stopped early because the limit was hit.
    pub complete: bool,
}

impl EnumerationResult {
    /// Number of embeddings found.
    pub fn len(&self) -> usize {
        self.embeddings.len()
    }

    /// `true` when no embedding was found.
    pub fn is_empty(&self) -> bool {
        self.embeddings.is_empty()
    }
}

/// Search order: a permutation of pattern vertices such that (for connected patterns)
/// every vertex after the first has at least one earlier neighbour.
fn search_order(pattern: &Pattern, graph: &LabeledGraph) -> Vec<VertexId> {
    let n = pattern.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    // Selectivity: fewer data vertices with this label first, then higher degree.
    let mut label_count = std::collections::HashMap::new();
    for v in graph.vertices() {
        *label_count.entry(graph.label(v)).or_insert(0usize) += 1;
    }
    let selectivity = |v: VertexId| -> (usize, std::cmp::Reverse<usize>) {
        (*label_count.get(&pattern.label(v)).unwrap_or(&0), std::cmp::Reverse(pattern.degree(v)))
    };
    let mut order: Vec<VertexId> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let start = pattern.vertices().min_by_key(|&v| selectivity(v)).expect("non-empty pattern");
    order.push(start);
    placed[start as usize] = true;
    while order.len() < n {
        // Prefer vertices adjacent to the already-ordered prefix.
        let next = pattern
            .vertices()
            .filter(|&v| !placed[v as usize])
            .filter(|&v| pattern.neighbors(v).iter().any(|&w| placed[w as usize]))
            .min_by_key(|&v| selectivity(v))
            .or_else(|| {
                // Disconnected pattern: fall back to any unplaced vertex.
                pattern.vertices().filter(|&v| !placed[v as usize]).min_by_key(|&v| selectivity(v))
            })
            .expect("some vertex unplaced");
        order.push(next);
        placed[next as usize] = true;
    }
    order
}

struct Search<'a> {
    pattern: &'a Pattern,
    graph: &'a LabeledGraph,
    order: Vec<VertexId>,
    /// For each position with *no* earlier neighbour (the root and any later
    /// component root), the label-matching data vertices it is searched from —
    /// computed once so the search never rescans the whole vertex set.
    root_candidates: Vec<Vec<VertexId>>,
    config: &'a IsoConfig,
    /// The image of each pattern vertex.  Injectivity is checked against these
    /// at most `|V(pattern)|` entries, so the search allocates nothing sized by
    /// the data graph beyond the root candidate lists.
    assignment: Vec<Option<VertexId>>,
    stopped: bool,
    /// Search steps since the last cancellation poll (see [`CHECK_STRIDE`]).
    steps: u32,
}

impl<'a> Search<'a> {
    /// The images of `pv`'s already-matched pattern neighbours.  Vertices are
    /// matched in `order`, so these are exactly its earlier neighbours.
    fn matched_neighbors(&self, pv: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.pattern.neighbors(pv).iter().filter_map(|&pn| self.assignment[pn as usize])
    }

    fn feasible(&self, pv: VertexId, gv: VertexId) -> bool {
        if self.graph.label(gv) != self.pattern.label(pv) {
            return false;
        }
        if self.graph.degree(gv) < self.pattern.degree(pv) {
            return false;
        }
        if self.assignment.contains(&Some(gv)) {
            return false;
        }
        // Every earlier-matched pattern neighbour must be adjacent in the data graph.
        if !self.matched_neighbors(pv).all(|gn| self.graph.has_edge(gv, gn)) {
            return false;
        }
        if self.config.induced {
            // Earlier-matched pattern NON-neighbours must not be adjacent.
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

    /// Of the images of `pv`'s already-matched neighbours, the one with the fewest
    /// data-graph neighbours — the cheapest adjacency list to scan.
    fn min_degree_pivot(&self, pv: VertexId) -> Option<VertexId> {
        self.matched_neighbors(pv).min_by_key(|&gn| self.graph.degree(gn))
    }

    fn run<V: EmbeddingVisitor>(&mut self, depth: usize, visitor: &mut V) {
        if self.stopped {
            return;
        }
        // Cooperative cancellation: poll the token at a bounded stride so a fired
        // token aborts the search within a few thousand node expansions.
        self.steps += 1;
        if self.steps >= CHECK_STRIDE {
            self.steps = 0;
            if self.config.cancel.is_cancelled() {
                self.stopped = true;
                return;
            }
        }
        if depth == self.order.len() {
            let emb: Embedding =
                self.assignment.iter().map(|a| a.expect("complete assignment")).collect();
            if visitor.visit(&emb) == VisitFlow::Stop {
                self.stopped = true;
            }
            return;
        }
        let pv = self.order[depth];
        // Candidates: the pivot's neighbours, or the precomputed list of the root
        // of a (new) pattern component.  The adjacency slice borrows the graph,
        // not the search state, and the list is moved out and back in, so the
        // recursive calls can borrow `self` mutably.
        let graph: &'a LabeledGraph = self.graph;
        let pivot = self.min_degree_pivot(pv);
        let roots = match pivot {
            Some(_) => Vec::new(),
            None => std::mem::take(&mut self.root_candidates[depth]),
        };
        for &gv in pivot.map_or(&roots[..], |gn| graph.neighbors(gn)) {
            if self.feasible(pv, gv) {
                self.assignment[pv as usize] = Some(gv);
                self.run(depth + 1, visitor);
                self.assignment[pv as usize] = None;
                if self.stopped {
                    break;
                }
            }
        }
        if pivot.is_none() {
            self.root_candidates[depth] = roots;
        }
    }
}

/// Stream every occurrence of `pattern` in `graph` to `visitor`, in the naive
/// enumerator's deterministic order.  Returns `false` if the visitor stopped the
/// search early, `true` if the search space was exhausted.
///
/// This is the primitive behind [`enumerate_embeddings`], [`count_embeddings`] and
/// [`has_embedding`]; use it directly to consume embeddings without materialising
/// them.  `config.max_embeddings` is *not* applied here — wrap the visitor (e.g.
/// [`CollectVisitor::with_limit`]) to bound the output.
pub fn enumerate_with_visitor<V: EmbeddingVisitor>(
    pattern: &Pattern,
    graph: &LabeledGraph,
    config: IsoConfig,
    visitor: &mut V,
) -> bool {
    if pattern.num_vertices() == 0 {
        // The empty pattern has exactly one (empty) occurrence by convention.
        return visitor.visit(&[]) == VisitFlow::Continue;
    }
    if pattern.num_vertices() > graph.num_vertices() {
        return true;
    }
    if config.cancel.is_cancelled() {
        return false;
    }
    let order = search_order(pattern, graph);
    let root_candidates = order
        .iter()
        .enumerate()
        .map(|(i, &v)| match pattern.neighbors(v).iter().any(|w| order[..i].contains(w)) {
            true => Vec::new(),
            false => graph.vertices_with_label(pattern.label(v)),
        })
        .collect();
    let mut search = Search {
        pattern,
        graph,
        order,
        root_candidates,
        config: &config,
        assignment: vec![None; pattern.num_vertices()],
        stopped: false,
        steps: 0,
    };
    search.run(0, visitor);
    !search.stopped
}

/// Enumerate all occurrences (subgraph isomorphisms) of `pattern` in `graph`.
pub fn enumerate_embeddings(
    pattern: &Pattern,
    graph: &LabeledGraph,
    config: IsoConfig,
) -> EnumerationResult {
    if pattern.num_vertices() == 0 {
        // The empty pattern has exactly one (empty) occurrence by convention.
        return EnumerationResult { embeddings: vec![Vec::new()], complete: true };
    }
    let mut collect = CollectVisitor::with_limit(config.max_embeddings);
    let complete = enumerate_with_visitor(pattern, graph, config, &mut collect);
    EnumerationResult { embeddings: collect.embeddings, complete }
}

/// `true` if `pattern` has at least one occurrence in `graph`.  Stops at the first
/// embedding found, without materialising it.
pub fn has_embedding(pattern: &Pattern, graph: &LabeledGraph) -> bool {
    let mut exists = ExistsVisitor::default();
    enumerate_with_visitor(pattern, graph, IsoConfig::default(), &mut exists);
    exists.found
}

/// `true` if the two graphs are isomorphic (Definition 2.1.5): same vertex count, same
/// edge count, and an induced embedding exists in both directions (one direction plus
/// the count equalities suffices).
pub fn are_isomorphic(a: &LabeledGraph, b: &LabeledGraph) -> bool {
    if a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges() {
        return false;
    }
    if a.label_histogram() != b.label_histogram() {
        return false;
    }
    // With equal vertex and edge counts, a (non-induced) edge-preserving bijection is
    // automatically edge-reflecting, hence an isomorphism.
    has_embedding(a, b)
}

/// Count occurrences without materialising them (still bounded by
/// `config.max_embeddings`, and early-exiting the moment the budget is reached).
pub fn count_embeddings(pattern: &Pattern, graph: &LabeledGraph, config: IsoConfig) -> usize {
    if pattern.num_vertices() == 0 {
        return 1;
    }
    let mut counter = CountVisitor::with_limit(config.max_embeddings);
    enumerate_with_visitor(pattern, graph, config, &mut counter);
    counter.count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
    use crate::Label;

    /// The Figure 2 data graph: a labeled triangle {1,2,3} plus pendant vertices.
    fn figure2_graph() -> LabeledGraph {
        // vertices 1..6 in the paper are 0..5 here; all share one label.
        LabeledGraph::from_edges(
            &[0, 0, 0, 0, 0, 0],
            &[(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 4), (2, 5), (1, 5)],
        )
    }

    #[test]
    fn triangle_has_six_occurrences_one_instance() {
        // Figure 2: the triangle pattern has 6 occurrences in the data graph (3! maps
        // onto the single triangle instance).
        let g = LabeledGraph::from_edges(
            &[0, 0, 0, 0, 0, 0],
            &[(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)],
        );
        let p = patterns::triangle(Label(0), Label(0), Label(0));
        let res = enumerate_embeddings(&p, &g, IsoConfig::default());
        assert_eq!(res.len(), 6);
        assert!(res.complete);
    }

    #[test]
    fn single_edge_pattern_counts_directed_embeddings() {
        // An edge with two same-label endpoints has 2 occurrences per data edge.
        let g = LabeledGraph::from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let p = patterns::single_edge(Label(0), Label(0));
        let res = enumerate_embeddings(&p, &g, IsoConfig::default());
        assert_eq!(res.len(), 4);
    }

    #[test]
    fn labels_filter_candidates() {
        let g = LabeledGraph::from_edges(&[1, 2, 1], &[(0, 1), (1, 2)]);
        let p = patterns::single_edge(Label(1), Label(2));
        let res = enumerate_embeddings(&p, &g, IsoConfig::default());
        assert_eq!(res.len(), 2); // (0,1) and (2,1)
        for emb in &res.embeddings {
            assert_eq!(g.label(emb[0]), Label(1));
            assert_eq!(g.label(emb[1]), Label(2));
        }
    }

    #[test]
    fn embedding_maps_edges_to_edges() {
        let g = figure2_graph();
        let p = patterns::path(&[Label(0), Label(0), Label(0)]);
        let res = enumerate_embeddings(&p, &g, IsoConfig::default());
        assert!(!res.is_empty());
        for emb in &res.embeddings {
            for (u, v) in p.edges() {
                assert!(g.has_edge(emb[u as usize], emb[v as usize]));
            }
            // injectivity
            let mut sorted = emb.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), emb.len());
        }
    }

    #[test]
    fn limit_truncates_search() {
        let g = figure2_graph();
        let p = patterns::path(&[Label(0), Label(0)]);
        let res = enumerate_embeddings(&p, &g, IsoConfig::with_limit(3));
        assert_eq!(res.len(), 3);
        assert!(!res.complete);
    }

    #[test]
    fn induced_mode_excludes_chords() {
        // Path pattern a-b-c in a triangle: non-induced finds 6, induced finds 0
        // (because the chord a-c always exists).
        let g = LabeledGraph::from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let p = patterns::path(&[Label(0), Label(0), Label(0)]);
        let open = enumerate_embeddings(&p, &g, IsoConfig::default());
        assert_eq!(open.len(), 6);
        let induced =
            enumerate_embeddings(&p, &g, IsoConfig { induced: true, ..Default::default() });
        assert_eq!(induced.len(), 0);
    }

    #[test]
    fn pattern_larger_than_graph_has_no_embeddings() {
        let g = LabeledGraph::from_edges(&[0, 0], &[(0, 1)]);
        let p = patterns::path(&[Label(0), Label(0), Label(0)]);
        assert!(enumerate_embeddings(&p, &g, IsoConfig::default()).is_empty());
        assert!(!has_embedding(&p, &g));
    }

    #[test]
    fn empty_pattern_has_one_occurrence() {
        let g = LabeledGraph::from_edges(&[0], &[]);
        let p = LabeledGraph::new();
        let res = enumerate_embeddings(&p, &g, IsoConfig::default());
        assert_eq!(res.len(), 1);
    }

    #[test]
    fn isomorphism_check() {
        let a = patterns::cycle(&[Label(0), Label(1), Label(0), Label(1)]);
        // same cycle, listed starting elsewhere
        let b = patterns::cycle(&[Label(1), Label(0), Label(1), Label(0)]);
        assert!(are_isomorphic(&a, &b));
        let c = patterns::path(&[Label(0), Label(1), Label(0), Label(1)]);
        assert!(!are_isomorphic(&a, &c));
        let d = patterns::cycle(&[Label(0), Label(0), Label(1), Label(1)]);
        assert!(!are_isomorphic(&a, &d));
    }

    #[test]
    fn disconnected_pattern_is_supported() {
        // Two disjoint edges as pattern; data graph a path of 4 distinct-labelled vertices.
        let mut p = LabeledGraph::new();
        let a = p.add_vertex(Label(1));
        let b = p.add_vertex(Label(2));
        let c = p.add_vertex(Label(3));
        let d = p.add_vertex(Label(4));
        p.add_edge(a, b).unwrap();
        p.add_edge(c, d).unwrap();
        let g = LabeledGraph::from_edges(&[1, 2, 3, 4], &[(0, 1), (1, 2), (2, 3)]);
        let res = enumerate_embeddings(&p, &g, IsoConfig::default());
        assert_eq!(res.len(), 1);
    }

    #[test]
    fn count_matches_enumerate() {
        let g = figure2_graph();
        let p = patterns::triangle(Label(0), Label(0), Label(0));
        let n = count_embeddings(&p, &g, IsoConfig::default());
        assert_eq!(n, enumerate_embeddings(&p, &g, IsoConfig::default()).len());
    }

    #[test]
    fn visitor_streams_and_stops_early() {
        let g = figure2_graph();
        let p = patterns::path(&[Label(0), Label(0)]);
        // A closure is a visitor: stop after the second embedding.
        let mut seen = 0usize;
        let complete =
            enumerate_with_visitor(&p, &g, IsoConfig::default(), &mut |emb: &[u32]| {
                assert_eq!(emb.len(), 2);
                seen += 1;
                if seen == 2 {
                    VisitFlow::Stop
                } else {
                    VisitFlow::Continue
                }
            });
        assert_eq!(seen, 2);
        assert!(!complete);
        // Exhausting the space reports completion.
        let mut all = 0usize;
        let complete = enumerate_with_visitor(&p, &g, IsoConfig::default(), &mut |_: &[u32]| {
            all += 1;
            VisitFlow::Continue
        });
        assert!(complete);
        assert_eq!(all, 2 * g.num_edges());
    }

    #[test]
    fn count_respects_budget_without_materialising() {
        let g = figure2_graph();
        let p = patterns::path(&[Label(0), Label(0)]);
        assert_eq!(count_embeddings(&p, &g, IsoConfig::with_limit(3)), 3);
        assert_eq!(count_embeddings(&p, &g, IsoConfig::default()), 2 * g.num_edges());
    }

    #[test]
    fn backend_tag_defaults_to_candidate_space() {
        let config = IsoConfig::default();
        assert_eq!(config.backend, EnumeratorBackend::CandidateSpace);
        let naive = config.clone().with_backend(EnumeratorBackend::Naive);
        assert_eq!(naive.backend, EnumeratorBackend::Naive);
        assert_eq!(naive.max_embeddings, config.max_embeddings);
    }
}
