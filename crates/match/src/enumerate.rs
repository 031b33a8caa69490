//! The iterative, streaming embedding enumerator over a [`CandidateSpace`].
//!
//! Unlike the naive recursive oracle (`ffsm_graph::isomorphism`), the search here is
//! an explicit-stack loop — no recursion depth limits, no per-step candidate-list
//! clones.  Three mechanisms keep the dense-graph hot path tight:
//!
//! * **Intersected pools.**  The pool at each depth is the exact intersection of
//!   the depth's refined candidate set with the adjacency of the cheapest
//!   already-matched pivot image, materialised into a reusable arena buffer.  The
//!   builder walks whichever side is smaller (`min(|adj(pivot)|, |C(u)|)`), and
//!   when the pivot image has a hub adjacency bitset in the [`GraphIndex`] the
//!   intersection is computed **word-parallel** — the pivot's adjacency words are
//!   ANDed with the candidate membership words 64 vertices at a time.  When
//!   *every* earlier-matched neighbour's image is a hub, the pool is instead the
//!   word-parallel AND across **all** of them: the pool is then fully
//!   edge-verified, and the per-candidate backward `has_edge` ladder disappears
//!   entirely — the dense-graph hot path runs on `used` probes alone.
//! * **Reusable [`SearchArena`].**  All per-search buffers (assignment, used
//!   flags, per-depth pools, scan positions, failing sets) live in an arena owned
//!   by the call site, so a mining worker evaluating thousands of patterns
//!   allocates them once instead of once per pattern.
//! * **Failing-set backjumping** (CFL-Match / Sun & Luo lineage).  Every depth
//!   tracks a *failing set*: the set of pattern vertices whose assignments the
//!   failure of the subtree below could depend on.  When a subtree is exhausted
//!   without finding any embedding and the parent's own pattern vertex is *not*
//!   in the failing set, re-assigning the parent cannot repair the failure, so
//!   the parent's remaining candidates are skipped wholesale (the failing set
//!   propagates upward unchanged).  Any found embedding poisons the failing set
//!   to "all vertices", so **only provably embedding-free subtrees are ever
//!   jumped over** — the emitted embedding sequence is identical to plain
//!   backtracking, order included.  Patterns with more than 64 vertices disable
//!   the machinery (the sets are `u64` masks) and fall back to plain
//!   backtracking.
//!
//! ## Matching order
//!
//! Pattern vertices are matched in a cost-aware, connectivity-aware order: start at
//! the vertex with the fewest candidates (ties: higher pattern degree, then lower
//! id), then repeatedly pick the unmatched vertex adjacent to the matched prefix
//! with the fewest candidates (ties: more matched neighbours, then lower id).
//! The matched-neighbour counts are maintained incrementally as vertices are
//! placed, so order construction is `O(n·deg + n²)` instead of `O(n²·deg)`.
//! Disconnected patterns fall back to the globally best unmatched vertex when no
//! adjacent one exists.
//!
//! ## Determinism contract
//!
//! For a fixed pattern, graph and config, embeddings are emitted in one fixed
//! order: every pool is ascending by data vertex id (candidate sets are sorted and
//! all three intersection strategies preserve ascending order), the matching order
//! depends only on the candidate space, and backjumping only skips subtrees that
//! contain no embedding.

use crate::candidates::CandidateSpace;
use crate::index::GraphIndex;
use ffsm_graph::cancel::{CancelToken, CHECK_STRIDE};
use ffsm_graph::isomorphism::{EmbeddingVisitor, VisitFlow};
use ffsm_graph::{LabeledGraph, Pattern, VertexId};
use ffsm_obs::{Phase, PhaseTimes, SearchCounters};

/// The fixed matching order plus the per-depth backward adjacency it induces.
#[derive(Debug, Clone)]
pub(crate) struct MatchingOrder {
    /// `order[d]` is the pattern vertex matched at depth `d`.
    pub order: Vec<VertexId>,
    /// Per depth, the pattern neighbours matched at earlier depths.
    pub earlier_neighbors: Vec<Vec<VertexId>>,
    /// Per depth, the pattern *non*-neighbours matched at earlier depths (the
    /// induced-semantics check set).
    pub earlier_non_neighbors: Vec<Vec<VertexId>>,
    /// Per depth, the `u64` failing-set mask of `earlier_neighbors` (valid for
    /// patterns of at most 64 vertices — exactly when backjumping is armed).
    pub earlier_mask: Vec<u64>,
}

impl MatchingOrder {
    pub(crate) fn build(pattern: &Pattern, space: &CandidateSpace) -> Self {
        let n = pattern.num_vertices();
        let mut order: Vec<VertexId> = Vec::with_capacity(n);
        let mut placed = vec![false; n];
        // Matched-neighbour count per vertex, updated when a vertex is placed —
        // the O(deg) recount per candidate per iteration is gone.
        let mut placed_count = vec![0usize; n];
        // (candidate count, fewer pattern neighbours is worse, id) — smaller is better.
        let global_cost =
            |v: VertexId| (space.candidates(v).len(), std::cmp::Reverse(pattern.degree(v)), v);
        if n == 0 {
            return MatchingOrder {
                order,
                earlier_neighbors: Vec::new(),
                earlier_non_neighbors: Vec::new(),
                earlier_mask: Vec::new(),
            };
        }
        let start = pattern.vertices().min_by_key(|&v| global_cost(v)).expect("non-empty");
        order.push(start);
        placed[start as usize] = true;
        for &w in pattern.neighbors(start) {
            placed_count[w as usize] += 1;
        }
        while order.len() < n {
            let next = pattern
                .vertices()
                .filter(|&v| !placed[v as usize] && placed_count[v as usize] > 0)
                .min_by_key(|&v| {
                    (space.candidates(v).len(), std::cmp::Reverse(placed_count[v as usize]), v)
                })
                .or_else(|| {
                    // Disconnected pattern: open the next component at its best root.
                    pattern
                        .vertices()
                        .filter(|&v| !placed[v as usize])
                        .min_by_key(|&v| global_cost(v))
                })
                .expect("some vertex unplaced");
            order.push(next);
            placed[next as usize] = true;
            for &w in pattern.neighbors(next) {
                placed_count[w as usize] += 1;
            }
        }
        let mut position = vec![usize::MAX; n];
        for (d, &v) in order.iter().enumerate() {
            position[v as usize] = d;
        }
        let earlier_neighbors: Vec<Vec<VertexId>> = order
            .iter()
            .enumerate()
            .map(|(d, &v)| {
                pattern.neighbors(v).iter().copied().filter(|&w| position[w as usize] < d).collect()
            })
            .collect();
        let earlier_non_neighbors = order
            .iter()
            .enumerate()
            .map(|(d, &v)| {
                order[..d].iter().copied().filter(|&w| !pattern.has_edge(v, w)).collect()
            })
            .collect();
        let earlier_mask = earlier_neighbors
            .iter()
            .map(|ns| ns.iter().fold(0u64, |m, &pn| m | 1u64 << (pn & 63)))
            .collect();
        MatchingOrder { order, earlier_neighbors, earlier_non_neighbors, earlier_mask }
    }
}

/// Sentinel for "pattern vertex not yet assigned".
const UNSET: VertexId = VertexId::MAX;

/// Reusable buffers for one embedding search.
///
/// Owned by the enumeration call site and handed to every search, so the
/// per-search allocations (assignment, used flags, per-depth pools, positions,
/// failing sets) happen once per *worker*, not once per *pattern*: a mining level
/// worker keeps one arena across thousands of candidate-pattern evaluations.
///
/// The arena carries no results and imposes no invariants on callers — any arena
/// (fresh or previously used, regardless of which pattern or graph it last served)
/// yields identical output, because every search re-prepares the buffers it needs.
/// The only interior state that survives a search is capacity.  Not shareable
/// across concurrent searches (each thread needs its own).
#[derive(Debug, Default)]
pub struct SearchArena {
    /// `assignment[pv]` = data image of pattern vertex `pv`, or [`UNSET`].
    assignment: Vec<VertexId>,
    /// Per data vertex: currently used by some assigned pattern vertex.
    used: Vec<bool>,
    /// Per data vertex: which pattern vertex uses it (valid only where `used`).
    owner: Vec<VertexId>,
    /// Per depth: the materialised candidate pool.
    pools: Vec<Vec<VertexId>>,
    /// Per depth: the pattern vertex whose image's adjacency seeded the pool
    /// ([`UNSET`] for full-candidate-set pools).
    pool_pivot: Vec<VertexId>,
    /// Per depth: the pool was intersected with *every* earlier neighbour's
    /// adjacency, so backward edges need no re-checking.
    pool_verified: Vec<bool>,
    /// Word scratch for the all-neighbour bitset intersection.
    scratch: Vec<u64>,
    /// Per depth: scan position within the pool.
    pos: Vec<usize>,
    /// Per depth: the failing set (`u64` mask over pattern vertices).
    fs: Vec<u64>,
    /// Cumulative search counters — plain `u64` adds (the arena is owned by one
    /// worker), scraped by the mining engine after each level.
    counters: SearchCounters,
    /// Cumulative fine-grained span times (candidate-space build, search),
    /// recorded only while [`SearchArena::set_timing`] is on.
    phase: PhaseTimes,
    /// Fine-grained span sampling switch (off by default: an uninstrumented
    /// run pays no clock read in the per-candidate path).
    timing: bool,
}

impl SearchArena {
    /// An empty arena; buffers grow on first use and are reused afterwards.
    pub fn new() -> Self {
        SearchArena::default()
    }

    /// The cumulative [`SearchCounters`] of every search this arena has served.
    pub fn counters(&self) -> SearchCounters {
        self.counters
    }

    /// Cumulative fine-grained phase times (only advancing while timing is on).
    pub fn phase_times(&self) -> PhaseTimes {
        self.phase
    }

    /// Enable/disable fine-grained span timing ([`Phase::CandidateSpace`] /
    /// [`Phase::Search`]).  Counters are unaffected — they are always on.
    pub fn set_timing(&mut self, on: bool) {
        self.timing = on;
    }

    /// `true` when fine-grained span timing is on.
    pub fn timing_enabled(&self) -> bool {
        self.timing
    }

    /// Run `f` on this arena, recording its wall time under `phase` when
    /// fine-grained timing is on (refinement-round counting stays always on,
    /// through [`SearchArena::add_refine_rounds`]).
    pub fn span<R>(&mut self, phase: Phase, f: impl FnOnce(&mut Self) -> R) -> R {
        let start = self.timing.then(std::time::Instant::now);
        let result = f(self);
        if let Some(start) = start {
            self.phase.record(phase, start.elapsed());
        }
        result
    }

    /// Note `n` candidate-space refinement sweeps (always counted).
    pub fn add_refine_rounds(&mut self, n: u64) {
        self.counters.refine_rounds += n;
    }

    /// Current heap footprint of the arena's buffers in bytes — capacities only
    /// ever grow, so this doubles as the arena's high-water mark.
    pub fn footprint_bytes(&self) -> usize {
        use std::mem::size_of;
        self.assignment.capacity() * size_of::<VertexId>()
            + self.used.capacity() * size_of::<bool>()
            + self.owner.capacity() * size_of::<VertexId>()
            + self.pools.iter().map(|p| p.capacity() * size_of::<VertexId>()).sum::<usize>()
            + self.pool_pivot.capacity() * size_of::<VertexId>()
            + self.pool_verified.capacity() * size_of::<bool>()
            + self.scratch.capacity() * size_of::<u64>()
            + self.pos.capacity() * size_of::<usize>()
            + self.fs.capacity() * size_of::<u64>()
    }

    /// Size the buffers for a pattern of `n` vertices against a graph of
    /// `num_data_vertices`.  `used` must be (and stays) all-false between
    /// searches — searches clear exactly the flags they set on every exit path.
    fn prepare(&mut self, n: usize, num_data_vertices: usize) {
        self.counters.searches += 1;
        self.assignment.clear();
        self.assignment.resize(n, UNSET);
        if self.used.len() < num_data_vertices {
            self.used.resize(num_data_vertices, false);
            self.owner.resize(num_data_vertices, UNSET);
        }
        if self.pools.len() < n {
            self.pools.resize_with(n, Vec::new);
        }
        self.pos.clear();
        self.pos.resize(n, 0);
        self.fs.clear();
        self.fs.resize(n, 0);
        self.pool_pivot.clear();
        self.pool_pivot.resize(n, UNSET);
        self.pool_verified.clear();
        self.pool_verified.resize(n, false);
        debug_assert!(self.used.iter().all(|&u| !u), "arena left dirty by a previous search");
    }
}

/// Fill `pool` with the depth's candidates: `C(u) ∩ adj(pivot image)` where a
/// matched pivot exists, the full candidate set otherwise.  Walks whichever side
/// of the intersection is smaller; uses the pivot's hub adjacency bitset for
/// O(1) membership or a word-parallel AND when available.  When every earlier
/// neighbour's image is a hub, the pool is the word-parallel AND of the
/// candidate membership words with **all** their adjacency words — then the pool
/// is fully edge-verified and the second tuple element is `true`.  Returns the
/// pivot pattern vertex ([`UNSET`] for full-set and fully-verified pools).
/// Every strategy emits the pool ascending by data vertex id.
#[allow(clippy::too_many_arguments)]
fn fill_pool(
    graph: &LabeledGraph,
    index: &GraphIndex,
    space: &CandidateSpace,
    order: &MatchingOrder,
    assignment: &[VertexId],
    depth: usize,
    pool: &mut Vec<VertexId>,
    scratch: &mut Vec<u64>,
) -> (VertexId, bool) {
    pool.clear();
    let u = order.order[depth];
    let earlier = &order.earlier_neighbors[depth];
    let pivot = earlier.iter().copied().min_by_key(|&pn| graph.degree(assignment[pn as usize]));
    let Some(pn) = pivot else {
        // Depth 0 is handled by the caller; this is a new pattern component.
        pool.extend_from_slice(space.candidates(u));
        return (UNSET, false);
    };
    let pi = assignment[pn as usize];
    let cands = space.candidates(u);
    if earlier.len() >= 2 {
        let member = space.member_words(u);
        let all_hubs = member.len() <= cands.len()
            && earlier.iter().all(|&pn| index.adjacency_words(assignment[pn as usize]).is_some());
        if all_hubs {
            scratch.clear();
            scratch.extend_from_slice(member);
            for &pn in earlier {
                let bits = index.adjacency_words(assignment[pn as usize]).expect("checked hub");
                for (s, &b) in scratch.iter_mut().zip(bits) {
                    *s &= b;
                }
            }
            for (wi, &word) in scratch.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let bit = word.trailing_zeros() as usize;
                    pool.push((wi * 64 + bit) as VertexId);
                    word &= word - 1;
                }
            }
            return (UNSET, true);
        }
    }
    if cands.len() <= graph.degree(pi) {
        // Candidate side is smaller: test adjacency per candidate.
        if let Some(bits) = index.adjacency_words(pi) {
            pool.extend(
                cands.iter().copied().filter(|&v| bits[v as usize / 64] >> (v % 64) & 1 != 0),
            );
        } else {
            pool.extend(cands.iter().copied().filter(|&v| graph.has_edge(v, pi)));
        }
    } else if let Some(bits) = index.adjacency_words(pi) {
        // Adjacency side is smaller and the pivot is a hub: AND its adjacency
        // words with the candidate membership words, 64 vertices at a time.
        for (wi, (&a, &c)) in bits.iter().zip(space.member_words(u)).enumerate() {
            let mut word = a & c;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                pool.push((wi * 64 + bit) as VertexId);
                word &= word - 1;
            }
        }
    } else {
        // Adjacency side is smaller, no hub bitset: scan the sorted adjacency
        // list with O(1) membership tests.
        pool.extend(graph.neighbors(pi).iter().copied().filter(|&w| space.contains(u, w)));
    }
    (pn, false)
}

/// Clear the assignment and used flags of the first `depth` matched depths (the
/// early-exit path of a search — the exhausted path unwinds them one by one).
fn release_prefix(
    order: &MatchingOrder,
    depth: usize,
    assignment: &mut [VertexId],
    used: &mut [bool],
) {
    for &pv in &order.order[..depth] {
        let gv = assignment[pv as usize];
        assignment[pv as usize] = UNSET;
        used[gv as usize] = false;
    }
}

/// One sequential enumeration run over a candidate space.
///
/// Returns `true` if the search space was exhausted, `false` if the visitor stopped
/// or `cancel` fired (cooperative cancellation, polled every [`CHECK_STRIDE`]
/// scan steps).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_search<V: EmbeddingVisitor>(
    graph: &LabeledGraph,
    index: &GraphIndex,
    space: &CandidateSpace,
    order: &MatchingOrder,
    induced: bool,
    cancel: &CancelToken,
    arena: &mut SearchArena,
    visitor: &mut V,
) -> bool {
    let n = order.order.len();
    debug_assert!(n > 0, "empty patterns are handled by the caller");
    if space.has_empty_set() {
        return true;
    }
    if cancel.is_cancelled() {
        return false;
    }
    arena.prepare(n, graph.num_vertices());
    let SearchArena {
        assignment,
        used,
        owner,
        pools,
        pool_pivot,
        pool_verified,
        scratch,
        pos,
        fs,
        counters,
        ..
    } = arena;

    // Failing-set machinery is a u64 mask over pattern vertices; wider patterns
    // run plain backtracking (the miner never produces them).
    let bj = n <= 64;
    let bit = |pv: VertexId| 1u64 << (pv & 63);
    const FULL: u64 = !0u64;

    pools[0].clear();
    pools[0].extend_from_slice(space.candidates(order.order[0]));
    pool_pivot[0] = UNSET;
    pool_verified[0] = false;

    let mut depth = 0usize;
    let mut steps: u32 = 0;
    loop {
        let mut extended = false;
        while pos[depth] < pools[depth].len() {
            steps += 1;
            counters.steps += 1;
            if steps >= CHECK_STRIDE {
                steps = 0;
                counters.cancel_polls += 1;
                if cancel.is_cancelled() {
                    release_prefix(order, depth, assignment, used);
                    return false;
                }
            }
            let gv = pools[depth][pos[depth]];
            pos[depth] += 1;
            let u = order.order[depth];
            // Membership in C(u) and adjacency to the pool pivot are pool
            // invariants; only injectivity and the remaining backward edges are
            // checked here.  Each failure records its conflict pair in the
            // depth's failing set.
            if used[gv as usize] {
                if bj {
                    fs[depth] |= bit(u) | bit(owner[gv as usize]);
                }
                continue;
            }
            let mut ok = true;
            if !pool_verified[depth] {
                for &pn in &order.earlier_neighbors[depth] {
                    if pn == pool_pivot[depth] {
                        continue;
                    }
                    if !graph.has_edge(gv, assignment[pn as usize]) {
                        if bj {
                            fs[depth] |= bit(u) | bit(pn);
                        }
                        ok = false;
                        break;
                    }
                }
            }
            if ok && induced {
                for &pw in &order.earlier_non_neighbors[depth] {
                    if graph.has_edge(gv, assignment[pw as usize]) {
                        if bj {
                            fs[depth] |= bit(u) | bit(pw);
                        }
                        ok = false;
                        break;
                    }
                }
            }
            if !ok {
                continue;
            }
            if depth + 1 == n {
                // Complete embedding: report it and keep scanning this depth.
                // An embedding below any ancestor makes its subtree non-barren,
                // so poison the failing set — no ancestor may backjump over it.
                assignment[u as usize] = gv;
                let flow = visitor.visit(assignment);
                assignment[u as usize] = UNSET;
                fs[depth] = FULL;
                if flow == VisitFlow::Stop {
                    release_prefix(order, depth, assignment, used);
                    return false;
                }
            } else {
                assignment[u as usize] = gv;
                used[gv as usize] = true;
                owner[gv as usize] = u;
                depth += 1;
                let (piv, verified) = fill_pool(
                    graph,
                    index,
                    space,
                    order,
                    assignment,
                    depth,
                    &mut pools[depth],
                    scratch,
                );
                pool_pivot[depth] = piv;
                pool_verified[depth] = verified;
                counters.pools_filled += 1;
                if verified {
                    counters.hub_verified_pools += 1;
                }
                pos[depth] = 0;
                // A pool implicitly filtered out candidates not adjacent to the
                // images it was intersected with — the subtree's failure may
                // depend on those choices, so they seed the failing set (the
                // pivot alone, or every earlier neighbour for verified pools).
                fs[depth] = if !bj {
                    0
                } else if verified {
                    bit(order.order[depth]) | order.earlier_mask[depth]
                } else if piv != UNSET {
                    bit(order.order[depth]) | bit(piv)
                } else {
                    0
                };
                extended = true;
                break;
            }
        }
        if extended {
            continue;
        }
        // Pool exhausted: backtrack, propagating the failing set.
        if depth == 0 {
            return true;
        }
        let fail = fs[depth];
        depth -= 1;
        let pv = order.order[depth];
        let gv = assignment[pv as usize];
        assignment[pv as usize] = UNSET;
        used[gv as usize] = false;
        if bj {
            if fail & bit(pv) == 0 {
                // The dead subtree's failure does not involve this depth's
                // assignment: no sibling candidate can repair it.  Skip the
                // remaining pool and hand the failing set to the next ancestor.
                counters.backjumps += 1;
                fs[depth] = fail;
                pos[depth] = pools[depth].len();
            } else {
                fs[depth] |= fail;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::GraphIndex;
    use ffsm_graph::isomorphism::CollectVisitor;
    use ffsm_graph::{patterns, Label};

    fn enumerate_all(pattern: &Pattern, graph: &LabeledGraph) -> Vec<Vec<VertexId>> {
        let index = GraphIndex::build(graph);
        let space = CandidateSpace::build(pattern, graph, &index);
        let order = MatchingOrder::build(pattern, &space);
        let mut arena = SearchArena::new();
        let mut collect = CollectVisitor::with_limit(usize::MAX);
        if pattern.num_vertices() > 0 {
            let complete = run_search(
                graph,
                &index,
                &space,
                &order,
                false,
                &CancelToken::default(),
                &mut arena,
                &mut collect,
            );
            assert!(complete);
        }
        collect.embeddings
    }

    #[test]
    fn matching_order_visits_every_vertex_once() {
        let g = LabeledGraph::from_edges(&[0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let p = patterns::uniform_path(3, Label(0));
        let ix = GraphIndex::build(&g);
        let cs = CandidateSpace::build(&p, &g, &ix);
        let order = MatchingOrder::build(&p, &cs);
        let mut seen = order.order.clone();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
        // Every vertex after the first has an earlier neighbour (connected pattern).
        for d in 1..order.order.len() {
            assert!(!order.earlier_neighbors[d].is_empty());
        }
    }

    #[test]
    fn triangle_occurrences_match_naive_count() {
        let g = LabeledGraph::from_edges(
            &[0, 0, 0, 0, 0, 0],
            &[(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)],
        );
        let p = patterns::triangle(Label(0), Label(0), Label(0));
        assert_eq!(enumerate_all(&p, &g).len(), 6);
    }

    #[test]
    fn embeddings_are_indexed_by_pattern_vertex() {
        let g = LabeledGraph::from_edges(&[1, 2, 1], &[(0, 1), (1, 2)]);
        let p = patterns::single_edge(Label(1), Label(2));
        let embeddings = enumerate_all(&p, &g);
        assert_eq!(embeddings.len(), 2);
        for emb in &embeddings {
            assert_eq!(g.label(emb[0]), Label(1), "slot 0 holds pattern vertex 0's image");
            assert_eq!(g.label(emb[1]), Label(2));
        }
    }

    #[test]
    fn disconnected_pattern_is_enumerated() {
        let mut p = LabeledGraph::new();
        let a = p.add_vertex(Label(1));
        let b = p.add_vertex(Label(2));
        let c = p.add_vertex(Label(3));
        let d = p.add_vertex(Label(4));
        p.add_edge(a, b).unwrap();
        p.add_edge(c, d).unwrap();
        let g = LabeledGraph::from_edges(&[1, 2, 3, 4], &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(enumerate_all(&p, &g).len(), 1);
    }

    #[test]
    fn induced_semantics_reject_chords() {
        let g = LabeledGraph::from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let p = patterns::path(&[Label(0), Label(0), Label(0)]);
        let index = GraphIndex::build(&g);
        let space = CandidateSpace::build(&p, &g, &index);
        let order = MatchingOrder::build(&p, &space);
        let mut arena = SearchArena::new();
        let mut open = CollectVisitor::with_limit(usize::MAX);
        run_search(
            &g,
            &index,
            &space,
            &order,
            false,
            &CancelToken::default(),
            &mut arena,
            &mut open,
        );
        assert_eq!(open.embeddings.len(), 6);
        let mut induced = CollectVisitor::with_limit(usize::MAX);
        run_search(
            &g,
            &index,
            &space,
            &order,
            true,
            &CancelToken::default(),
            &mut arena,
            &mut induced,
        );
        assert!(induced.embeddings.is_empty());
    }

    #[test]
    fn visitor_stop_aborts_the_search_and_leaves_the_arena_clean() {
        let g = LabeledGraph::from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let p = patterns::single_edge(Label(0), Label(0));
        let index = GraphIndex::build(&g);
        let space = CandidateSpace::build(&p, &g, &index);
        let order = MatchingOrder::build(&p, &space);
        let mut arena = SearchArena::new();
        let mut collect = CollectVisitor::with_limit(2);
        let complete = run_search(
            &g,
            &index,
            &space,
            &order,
            false,
            &CancelToken::default(),
            &mut arena,
            &mut collect,
        );
        assert!(!complete);
        assert_eq!(collect.embeddings.len(), 2);
        assert!(arena.used.iter().all(|&u| !u), "early exit must release used flags");
        // The same arena serves the next (different) search unchanged.
        let mut all = CollectVisitor::with_limit(usize::MAX);
        let complete = run_search(
            &g,
            &index,
            &space,
            &order,
            false,
            &CancelToken::default(),
            &mut arena,
            &mut all,
        );
        assert!(complete);
        assert_eq!(all.embeddings.len(), 6);
    }

    #[test]
    fn counters_track_searches_and_steps() {
        let g = LabeledGraph::from_edges(
            &[0, 0, 0, 0, 0, 0],
            &[(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)],
        );
        let p = patterns::triangle(Label(0), Label(0), Label(0));
        let index = GraphIndex::build(&g);
        let space = CandidateSpace::build(&p, &g, &index);
        let order = MatchingOrder::build(&p, &space);
        let mut arena = SearchArena::new();
        assert_eq!(arena.counters(), SearchCounters::default());
        for expected_searches in 1..=2u64 {
            let mut collect = CollectVisitor::with_limit(usize::MAX);
            run_search(
                &g,
                &index,
                &space,
                &order,
                false,
                &CancelToken::default(),
                &mut arena,
                &mut collect,
            );
            let counters = arena.counters();
            assert_eq!(counters.searches, expected_searches);
            assert!(counters.steps >= 6 * expected_searches, "every embedding takes steps");
            assert!(counters.pools_filled > 0);
        }
        assert!(arena.footprint_bytes() > 0);
        // Counters never change search results — verified structurally by the
        // arena-reuse tests; timing stays off unless explicitly enabled.
        assert!(!arena.timing_enabled());
        assert_eq!(arena.phase_times(), PhaseTimes::default());
    }

    #[test]
    fn arena_reuse_across_patterns_changes_nothing() {
        let g = LabeledGraph::from_edges(
            &[0, 0, 0, 1, 1, 1],
            &[(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5), (3, 4)],
        );
        let index = GraphIndex::build(&g);
        let shapes = [
            patterns::triangle(Label(0), Label(0), Label(0)),
            patterns::single_edge(Label(0), Label(1)),
            patterns::path(&[Label(1), Label(0), Label(0)]),
            patterns::uniform_path(3, Label(0)),
        ];
        let mut shared = SearchArena::new();
        for pattern in &shapes {
            let space = CandidateSpace::build(pattern, &g, &index);
            let order = MatchingOrder::build(pattern, &space);
            let mut with_shared = CollectVisitor::with_limit(usize::MAX);
            run_search(
                &g,
                &index,
                &space,
                &order,
                false,
                &CancelToken::default(),
                &mut shared,
                &mut with_shared,
            );
            let mut fresh = SearchArena::new();
            let mut with_fresh = CollectVisitor::with_limit(usize::MAX);
            run_search(
                &g,
                &index,
                &space,
                &order,
                false,
                &CancelToken::default(),
                &mut fresh,
                &mut with_fresh,
            );
            assert_eq!(with_shared.embeddings, with_fresh.embeddings);
        }
    }
}
