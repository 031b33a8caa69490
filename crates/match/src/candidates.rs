//! [`CandidateSpace`] — per-pattern-vertex candidate sets, pruned before search.
//!
//! The builder runs two phases against a [`GraphIndex`]:
//!
//! 1. **Initial filtering** ([`CandidateSpace::initial`]): the candidates of
//!    pattern vertex `u` are the data vertices with `u`'s label, degree ≥
//!    `deg(u)` (via the index's degree buckets) and a neighbour-label
//!    fingerprint that covers `u`'s.  When the pattern extends one whose space
//!    was already refined, the lists start from that parent's lists instead of
//!    the graph-wide buckets — same fixpoint, far smaller start.
//! 2. **Neighbourhood-consistency refinement** (CFL-style, AC-3 flavoured): a
//!    candidate `v ∈ C(u)` survives only if, for *every* pattern neighbour `u'` of
//!    `u`, some data neighbour of `v` is in `C(u')`.  Deletions propagate until a
//!    fixpoint is reached.
//!
//! The refinement is executed **word-parallel**: for each pattern vertex `u'` the
//! builder materialises the neighbourhood bitset `N(C(u')) = ⋃_{w ∈ C(u')} adj(w)`
//! once (OR-ing hub adjacency bitsets from the [`GraphIndex`] 64 vertices at a
//! time where available) and then ANDs it word-wise into the member bitset of
//! every pattern neighbour of `u'` — the per-candidate "does `v` have a neighbour
//! in `C(u')`" scan of the naive formulation disappears, as do the one-bit-at-a-
//! time deletions.  A **dirty worklist** keeps later sweeps from rescanning the
//! whole pattern: only vertices whose candidate set shrank during the previous
//! sweep re-propagate their constraint.  The fixpoint is unique regardless of
//! sweep order, so the surviving sets are identical to the naive formulation's.
//!
//! Both phases only ever delete vertices that cannot participate in any embedding
//! (for the non-induced semantics; the induced semantics matches a subset of those
//! embeddings, so the space is sound for both).  The search then enumerates inside
//! this space instead of the whole graph.
//!
//! Candidate lists are kept **sorted ascending by vertex id** — the determinism
//! contract of the enumerator is anchored here.

use crate::index::GraphIndex;
use ffsm_graph::{LabeledGraph, Pattern, VertexId};

/// Dense bitset over data-graph vertices: O(1) membership for the search's
/// feasibility checks and word-parallel AND/OR for refinement and pool filtering.
#[derive(Debug, Clone)]
pub(crate) struct Bitset {
    words: Vec<u64>,
}

impl Bitset {
    pub(crate) fn with_len(n: usize) -> Self {
        Bitset { words: vec![0u64; n.div_ceil(64)] }
    }

    pub(crate) fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    #[cfg(test)]
    pub(crate) fn clear(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    pub(crate) fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// The backing words (bit `i` of the set is bit `i % 64` of word `i / 64`).
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// `self &= other`, word-parallel.  Returns `true` if any bit was cleared.
    pub(crate) fn and_assign(&mut self, other: &[u64]) -> bool {
        let mut changed = false;
        for (a, &b) in self.words.iter_mut().zip(other) {
            let masked = *a & b;
            if masked != *a {
                *a = masked;
                changed = true;
            }
        }
        changed
    }

    /// Overwrite `out` with the set bits in ascending order.
    pub(crate) fn collect_into(&self, out: &mut Vec<VertexId>) {
        out.clear();
        for (wi, &word) in self.words.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                let bit = word.trailing_zeros() as usize;
                out.push((wi * 64 + bit) as VertexId);
                word &= word - 1;
            }
        }
    }
}

/// OR the adjacency of data vertex `w` into `scratch` — word-parallel via the
/// index's hub bitset when `w` has one, per-neighbour otherwise.
fn or_adjacency(scratch: &mut [u64], graph: &LabeledGraph, index: &GraphIndex, w: VertexId) {
    if let Some(bits) = index.adjacency_words(w) {
        for (s, &b) in scratch.iter_mut().zip(bits) {
            *s |= b;
        }
    } else {
        for &x in graph.neighbors(w) {
            scratch[x as usize / 64] |= 1u64 << (x % 64);
        }
    }
}

/// The pruned candidate sets of one pattern against one indexed data graph.
#[derive(Debug, Clone)]
pub struct CandidateSpace {
    /// Per pattern vertex: surviving candidates, ascending by data vertex id.
    candidates: Vec<Vec<VertexId>>,
    /// Per pattern vertex: membership bitset over data vertices (mirrors
    /// `candidates`).
    member: Vec<Bitset>,
    /// Per pattern vertex: candidate count after phase 1, before refinement.
    initial_sizes: Vec<usize>,
    /// Number of refinement sweeps until the fixpoint (≥ 1; the last sweep deletes
    /// nothing).
    refinement_rounds: usize,
}

/// Phase 1 of a [`CandidateSpace`] build: each pattern vertex's initial
/// candidate list, ascending by data vertex id, before any bitset is allocated
/// or any refinement sweep runs.
///
/// Every image of pattern vertex `u` in any embedding lies in `u`'s list, so
/// [`InitialSets::min_len`] already caps the pattern's MNI support (and every
/// measure below MNI in the paper's containment chain).
#[derive(Debug)]
pub struct InitialSets {
    lists: Vec<Vec<VertexId>>,
}

impl InitialSets {
    /// The length of the shortest list (0 for an empty pattern).
    pub fn min_len(&self) -> usize {
        self.lists.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Phase 2: refine the lists to neighbourhood consistency (see the module
    /// docs).  `pattern`, `graph` and `index` must be the ones the lists were
    /// built for.
    pub fn refine(
        self,
        pattern: &Pattern,
        graph: &LabeledGraph,
        index: &GraphIndex,
    ) -> CandidateSpace {
        let n = pattern.num_vertices();
        let mut candidates = self.lists;
        let initial_sizes: Vec<usize> = candidates.iter().map(Vec::len).collect();
        let mut member: Vec<Bitset> = candidates
            .iter()
            .map(|set| {
                let mut bits = Bitset::with_len(graph.num_vertices());
                for &v in set {
                    bits.set(v as usize);
                }
                bits
            })
            .collect();

        // Refinement to fixpoint, word-parallel.  For each (still-dirty) pattern
        // vertex u', materialise N(C(u')) = ⋃_{w ∈ C(u')} adj(w) in one scratch
        // bitset, then AND it into the member bitset of every pattern neighbour of
        // u' — a candidate v of a neighbour survives iff bit v is set, i.e. iff
        // some data neighbour of v lies in C(u').  Deletions take effect
        // immediately (the bitsets are updated in place), so later constraints in
        // the same sweep see them; the fixpoint is unique regardless of sweep
        // order.  The dirty worklist re-propagates only constraints whose source
        // set shrank in the previous sweep; the scratch buffer is hoisted out of
        // the loop and batch-cleared once per source vertex.
        let words = graph.num_vertices().div_ceil(64);
        let mut scratch = vec![0u64; words];
        let mut dirty = vec![true; n];
        let mut rounds = 0usize;
        loop {
            rounds += 1;
            let mut changed_any = false;
            let sweep: Vec<usize> = (0..n).filter(|&u| dirty[u]).collect();
            dirty.iter_mut().for_each(|d| *d = false);
            for &u_prime in &sweep {
                let pattern_neighbors = pattern.neighbors(u_prime as VertexId);
                if pattern_neighbors.is_empty() {
                    continue;
                }
                scratch.iter_mut().for_each(|w| *w = 0);
                for &w in &candidates[u_prime] {
                    or_adjacency(&mut scratch, graph, index, w);
                }
                for &u in pattern_neighbors {
                    let u = u as usize;
                    if member[u].and_assign(&scratch) {
                        member[u].collect_into(&mut candidates[u]);
                        dirty[u] = true;
                        changed_any = true;
                    }
                }
            }
            if !changed_any {
                break;
            }
        }
        CandidateSpace { candidates, member, initial_sizes, refinement_rounds: rounds }
    }
}

impl CandidateSpace {
    /// Build and refine the candidate space of `pattern` in `graph` using `index`
    /// (which must have been built from the same `graph`).
    pub fn build(pattern: &Pattern, graph: &LabeledGraph, index: &GraphIndex) -> Self {
        let Ok(initial) = Self::initial(pattern, graph, index, None, 0) else {
            unreachable!("no list is shorter than 0");
        };
        initial.refine(pattern, graph, index)
    }

    /// Phase 1 of the build: the initial candidate lists of `pattern`, or —
    /// as soon as one list is shorter than `floor` — that list's length as
    /// `Err` (pass `floor = 0` for every list).  A pattern whose support must
    /// reach `floor` under MNI, or any measure below it, is then infrequent.
    ///
    /// Without `parent`, the list of pattern vertex `u` holds the data vertices
    /// with `u`'s label, degree ≥ `deg(u)` and a neighbour-label fingerprint
    /// covering `u`'s.  With `parent` — the refined lists
    /// ([`CandidateSpace::into_lists`]) of a pattern that `pattern` extends,
    /// i.e. one whose vertices keep their ids and labels in `pattern` and whose
    /// edges all remain — the lists start from the parent's instead:
    ///
    /// * a vertex `u` the parent has keeps the parent's `C(u)`, filtered by
    ///   `u`'s degree and fingerprint in `pattern`;
    /// * a new vertex takes the data neighbours, with its label, degree and
    ///   fingerprint, of the parent's list of its first pattern neighbour the
    ///   parent has (the cold filter when it has none).
    ///
    /// New vertices are listed first: their lists are usually the shortest.
    ///
    /// Refining the seeded lists yields exactly the cold space.  Projected onto
    /// the parent's vertices, the child's refined sets pass the parent's
    /// (weaker) initial filter and satisfy the parent's (fewer) neighbourhood
    /// constraints, so they lie inside the parent's greatest consistent sets;
    /// and a new vertex's refined set lies in the neighbourhood of its anchor's.
    /// The seeded lists therefore contain the cold fixpoint and are contained
    /// in the cold initial lists, so refinement reaches the same greatest
    /// fixpoint from both.
    pub fn initial(
        pattern: &Pattern,
        graph: &LabeledGraph,
        index: &GraphIndex,
        parent: Option<&[Vec<VertexId>]>,
        floor: usize,
    ) -> Result<InitialSets, usize> {
        let parent = parent.unwrap_or(&[]);
        debug_assert!(parent.len() <= pattern.num_vertices(), "parent lists outnumber the pattern");
        let mut lists = vec![Vec::new(); pattern.num_vertices()];
        for u in (0..pattern.num_vertices() as VertexId).rev() {
            let label = pattern.label(u);
            let degree = pattern.degree(u);
            let need = GraphIndex::neighbor_fingerprint(pattern, u);
            let admits =
                |v: VertexId| index.degree(v) >= degree && need & !index.fingerprint(v) == 0;
            let list: Vec<VertexId> = match parent.get(u as usize) {
                Some(list) => list.iter().copied().filter(|&v| admits(v)).collect(),
                None => {
                    let anchor =
                        pattern.neighbors(u).iter().find(|&&a| (a as usize) < parent.len());
                    let mut set: Vec<VertexId> = match anchor {
                        Some(&a) => parent[a as usize]
                            .iter()
                            .flat_map(|&w| graph.neighbors(w))
                            .copied()
                            .filter(|&x| graph.label(x) == label && admits(x))
                            .collect(),
                        None => index
                            .vertices_with_min_degree(label, degree)
                            .iter()
                            .copied()
                            .filter(|&v| need & !index.fingerprint(v) == 0)
                            .collect(),
                    };
                    set.sort_unstable();
                    set.dedup();
                    set
                }
            };
            if list.len() < floor {
                return Err(list.len());
            }
            lists[u as usize] = list;
        }
        Ok(InitialSets { lists })
    }

    /// The surviving candidate lists, one per pattern vertex (ascending) — what
    /// a seeded [`CandidateSpace::initial`] of an extension starts from.  Each
    /// list is shrunk to its length: refinement leaves the initial capacity.
    pub fn into_lists(self) -> Vec<Vec<VertexId>> {
        let mut lists = self.candidates;
        lists.iter_mut().for_each(Vec::shrink_to_fit);
        lists
    }

    /// The member bitset words of pattern vertex `u` (for word-parallel pool
    /// intersection in the search loop).
    pub(crate) fn member_words(&self, u: VertexId) -> &[u64] {
        self.member[u as usize].words()
    }

    /// Number of pattern vertices.
    pub fn num_pattern_vertices(&self) -> usize {
        self.candidates.len()
    }

    /// The surviving candidates of pattern vertex `u`, ascending by data vertex id.
    pub fn candidates(&self, u: VertexId) -> &[VertexId] {
        &self.candidates[u as usize]
    }

    /// `true` if data vertex `v` is a surviving candidate of pattern vertex `u`.
    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        self.member[u as usize].get(v as usize)
    }

    /// Candidate count per pattern vertex after refinement.
    pub fn sizes(&self) -> Vec<usize> {
        self.candidates.iter().map(Vec::len).collect()
    }

    /// Candidate count per pattern vertex after the initial label / degree /
    /// fingerprint filter, before refinement.
    pub fn initial_sizes(&self) -> &[usize] {
        &self.initial_sizes
    }

    /// Total surviving candidates across all pattern vertices.
    pub fn total_size(&self) -> usize {
        self.candidates.iter().map(Vec::len).sum()
    }

    /// `true` if some pattern vertex has no candidate left — no embedding exists.
    pub fn has_empty_set(&self) -> bool {
        self.candidates.iter().any(Vec::is_empty)
    }

    /// Number of refinement sweeps run to reach the fixpoint.
    pub fn refinement_rounds(&self) -> usize {
        self.refinement_rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::{patterns, Label};

    #[test]
    fn bitset_set_clear_get() {
        let mut b = Bitset::with_len(130);
        assert!(!b.get(0) && !b.get(129));
        b.set(0);
        b.set(129);
        b.set(64);
        assert!(b.get(0) && b.get(64) && b.get(129));
        b.clear(64);
        assert!(!b.get(64) && b.get(129));
    }

    #[test]
    fn bitset_word_ops_and_extraction() {
        let mut a = Bitset::with_len(130);
        for i in [0usize, 3, 64, 129] {
            a.set(i);
        }
        let mut mask = Bitset::with_len(130);
        for i in [3usize, 64, 100] {
            mask.set(i);
        }
        assert!(a.and_assign(mask.words()));
        assert!(!a.and_assign(mask.words()), "AND is idempotent at the fixpoint");
        let mut out = Vec::new();
        a.collect_into(&mut out);
        assert_eq!(out, vec![3, 64]);
    }

    #[test]
    fn initial_filter_uses_label_degree_and_fingerprint() {
        // Data: A-B edge, an isolated A, and an A whose only neighbour is another A.
        let g = LabeledGraph::from_edges(&[0, 1, 0, 0, 0], &[(0, 1), (3, 4)]);
        let p = patterns::single_edge(Label(0), Label(1));
        let ix = GraphIndex::build(&g);
        let cs = CandidateSpace::build(&p, &g, &ix);
        // Pattern vertex 0 (label A, needs a B neighbour): only data vertex 0.
        // Vertex 2 fails the degree filter, 3 and 4 fail the fingerprint.
        assert_eq!(cs.candidates(0), &[0]);
        assert_eq!(cs.candidates(1), &[1]);
        assert!(cs.contains(0, 0) && !cs.contains(0, 3));
    }

    #[test]
    fn refinement_peels_decoy_chains() {
        // Pattern: path A-B-C.  Data: a real A-B-C chain plus a decoy A-B pair whose
        // B has a *second* A neighbour instead of a C — the decoy B passes the
        // fingerprint filter only if labels collide, but its C-side support is
        // missing, so refinement must delete it and then the decoy A's.
        let g = LabeledGraph::from_edges(
            &[0, 1, 2, 0, 1, 0], // real: 0-1-2; decoy: 3-4, 5-4
            &[(0, 1), (1, 2), (3, 4), (5, 4)],
        );
        let p = patterns::path(&[Label(0), Label(1), Label(2)]);
        let ix = GraphIndex::build(&g);
        let cs = CandidateSpace::build(&p, &g, &ix);
        assert_eq!(cs.candidates(0), &[0]);
        assert_eq!(cs.candidates(1), &[1]);
        assert_eq!(cs.candidates(2), &[2]);
        // The decoy B was present before refinement (it has label B and degree 2 but
        // the wrong neighbour labels are only visible through the fingerprint, which
        // distinguishes A from C here — so it is already gone after phase 1).
        assert!(!cs.contains(1, 4));
        assert!(cs.refinement_rounds() >= 1);
    }

    #[test]
    fn refinement_reaches_fixpoint_on_longer_chains() {
        // Pattern: path A-B-A-B (4 vertices).  Data: an A-B-A-B path (real) plus an
        // A-B tail (decoy) — every decoy vertex passes label/degree/fingerprint
        // filters but the chain is too short, so refinement peels it end-first over
        // multiple sweeps.
        let g = LabeledGraph::from_edges(
            &[0, 1, 0, 1, 0, 1], // real path 0-1-2-3, decoy path 4-5
            &[(0, 1), (1, 2), (2, 3), (4, 5)],
        );
        let p = patterns::path(&[Label(0), Label(1), Label(0), Label(1)]);
        let ix = GraphIndex::build(&g);
        let cs = CandidateSpace::build(&p, &g, &ix);
        // The decoy tail cannot host the 4-path in either direction.
        assert!(!cs.candidates(0).contains(&4));
        assert!(!cs.candidates(3).contains(&5));
        assert!(!cs.has_empty_set());
        // The inner pattern vertices need degree ≥ 2, which only the real mid-path
        // vertices have.
        assert_eq!(cs.candidates(1), &[1]);
        assert_eq!(cs.candidates(2), &[2]);
    }

    #[test]
    fn empty_set_detected_when_label_missing() {
        let g = LabeledGraph::from_edges(&[0, 0], &[(0, 1)]);
        let p = patterns::single_edge(Label(0), Label(7));
        let ix = GraphIndex::build(&g);
        let cs = CandidateSpace::build(&p, &g, &ix);
        assert!(cs.has_empty_set());
        assert_eq!(cs.total_size(), 0, "refinement empties the supported side too");
    }

    #[test]
    fn sizes_report_both_phases() {
        let g = LabeledGraph::from_edges(&[0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]);
        let p = patterns::single_edge(Label(0), Label(1));
        let ix = GraphIndex::build(&g);
        let cs = CandidateSpace::build(&p, &g, &ix);
        assert_eq!(cs.initial_sizes(), &[1, 3]);
        assert_eq!(cs.sizes(), vec![1, 3]);
        assert_eq!(cs.total_size(), 4);
        assert_eq!(cs.num_pattern_vertices(), 2);
    }
}
