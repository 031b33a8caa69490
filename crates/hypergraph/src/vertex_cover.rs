//! Minimum vertex covers of hypergraphs.
//!
//! The MVC support measure (Definition 3.3.2) is the size of a minimum vertex cover
//! of the occurrence/instance hypergraph.  Computing it is NP-hard (it contains the
//! graph vertex-cover problem), so three algorithms are provided:
//!
//! * [`exact_vertex_cover`] — branch-and-bound, exact for the moderate instance sizes
//!   produced by the experiments; reports whether optimality was proven.
//! * [`greedy_matching_cover`] — the classic *k*-approximation for *k*-uniform
//!   hypergraphs (take all vertices of a maximal set of pairwise-disjoint edges),
//!   mirroring the k-competitive algorithm the paper cites (Halperin \[7\]).
//! * [`greedy_degree_cover`] — pick the highest-degree vertex repeatedly
//!   (H_d-approximation); often much tighter in practice.

use crate::hypergraph::intersection_empty;
use crate::{ExactResult, Hypergraph, SearchBudget};

/// A lower bound on the cover size: the size of a greedily built set of pairwise
/// disjoint edges (any cover needs one distinct vertex per disjoint edge).
fn disjoint_edge_lower_bound(h: &Hypergraph, covered: &[bool]) -> usize {
    let mut chosen: Vec<&[usize]> = Vec::new();
    for (e, verts) in h.edges() {
        if covered[e] {
            continue;
        }
        if chosen.iter().all(|c| intersection_empty(c, verts)) {
            chosen.push(verts);
        }
    }
    chosen.len()
}

struct CoverSearch<'a> {
    h: &'a Hypergraph,
    incidence: Vec<Vec<usize>>,
    best: Vec<usize>,
    best_size: usize,
    nodes: usize,
    budget: usize,
    optimal: bool,
}

impl<'a> CoverSearch<'a> {
    fn search(&mut self, chosen: &mut Vec<usize>, covered: &mut Vec<bool>, num_covered: usize) {
        self.nodes += 1;
        if self.nodes > self.budget {
            self.optimal = false;
            return;
        }
        if chosen.len() >= self.best_size {
            return;
        }
        if num_covered == self.h.num_edges() {
            self.best_size = chosen.len();
            self.best = chosen.clone();
            return;
        }
        // Lower bound pruning.
        let lb = disjoint_edge_lower_bound(self.h, covered);
        if chosen.len() + lb >= self.best_size {
            return;
        }
        // Pick the uncovered edge with the fewest vertices (strongest branching).
        let (branch_edge, _) = self
            .h
            .edges()
            .filter(|(e, _)| !covered[*e])
            .min_by_key(|(_, verts)| verts.len())
            .expect("some edge uncovered");
        let branch_vertices: Vec<usize> = self.h.edge(branch_edge).to_vec();
        for v in branch_vertices {
            // Choose v: cover all its incident edges.
            let newly: Vec<usize> =
                self.incidence[v].iter().copied().filter(|&e| !covered[e]).collect();
            for &e in &newly {
                covered[e] = true;
            }
            chosen.push(v);
            self.search(chosen, covered, num_covered + newly.len());
            chosen.pop();
            for &e in &newly {
                covered[e] = false;
            }
            if !self.optimal && self.nodes > self.budget {
                return;
            }
        }
    }
}

/// Exact minimum vertex cover via branch and bound.
///
/// The search first drops non-minimal edges (covering a subset covers every superset)
/// and seeds the incumbent with the greedy degree cover, so the bound is tight from
/// the start.  If the node `budget` is exhausted the best cover found so far is
/// returned with `optimal = false`.
pub fn exact_vertex_cover(h: &Hypergraph, budget: SearchBudget) -> ExactResult {
    if h.is_empty() {
        return ExactResult { value: 0, witness: Vec::new(), optimal: true };
    }
    let reduced = h.restrict_to_edges(&h.minimal_edge_indices());
    let seed = greedy_degree_cover(&reduced);
    let mut search = CoverSearch {
        h: &reduced,
        incidence: reduced.incidence(),
        best_size: seed.len(),
        best: seed,
        nodes: 0,
        budget: budget.0,
        optimal: true,
    };
    let mut covered = vec![false; reduced.num_edges()];
    search.search(&mut Vec::new(), &mut covered, 0);
    ExactResult { value: search.best_size, witness: search.best, optimal: search.optimal }
}

/// Greedy maximal-matching cover: repeatedly take an uncovered edge and add *all* its
/// vertices.  For a k-uniform hypergraph this is a k-approximation of the minimum
/// vertex cover (and the produced set of edges is a maximal matching, giving a lower
/// bound as well).  Returns the cover.
pub fn greedy_matching_cover(h: &Hypergraph) -> Vec<usize> {
    let mut cover: Vec<usize> = Vec::new();
    let mut in_cover = vec![false; h.num_vertices()];
    for (_, verts) in h.edges() {
        if verts.iter().any(|&v| in_cover[v]) {
            continue;
        }
        for &v in verts {
            if !in_cover[v] {
                in_cover[v] = true;
                cover.push(v);
            }
        }
    }
    cover.sort_unstable();
    cover
}

/// Greedy highest-degree cover: repeatedly add the vertex contained in the most
/// still-uncovered edges.
pub fn greedy_degree_cover(h: &Hypergraph) -> Vec<usize> {
    let incidence = h.incidence();
    let mut covered = vec![false; h.num_edges()];
    let mut remaining = h.num_edges();
    let mut cover = Vec::new();
    while remaining > 0 {
        let (best_v, _) = incidence
            .iter()
            .enumerate()
            .map(|(v, inc)| (v, inc.iter().filter(|&&e| !covered[e]).count()))
            .max_by_key(|&(_, cnt)| cnt)
            .expect("non-empty hypergraph");
        let newly: Vec<usize> =
            incidence[best_v].iter().copied().filter(|&e| !covered[e]).collect();
        debug_assert!(!newly.is_empty());
        for e in newly {
            covered[e] = true;
            remaining -= 1;
        }
        cover.push(best_v);
    }
    cover.sort_unstable();
    cover
}

/// `true` if `cover` intersects every edge of `h`.
pub fn is_vertex_cover(h: &Hypergraph, cover: &[usize]) -> bool {
    let in_cover: std::collections::HashSet<usize> = cover.iter().copied().collect();
    h.edges().all(|(_, verts)| verts.iter().any(|v| in_cover.contains(v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure6_hypergraph() -> Hypergraph {
        // Occurrence hypergraph of Figure 6: edges {1,5},{1,6},{1,7},{1,8},{2,8},{3,8},{4,8}
        // (paper numbering); vertices 0..8 here with vertex 0 unused.
        let mut h = Hypergraph::new(9);
        for e in [[1, 5], [1, 6], [1, 7], [1, 8], [2, 8], [3, 8], [4, 8]] {
            h.add_edge(e.to_vec()).unwrap();
        }
        h
    }

    #[test]
    fn figure6_cover_is_two() {
        let h = figure6_hypergraph();
        let res = exact_vertex_cover(&h, SearchBudget::default());
        assert!(res.optimal);
        assert_eq!(res.value, 2);
        assert!(is_vertex_cover(&h, &res.witness));
        assert_eq!(res.witness, vec![1, 8]);
    }

    #[test]
    fn greedy_covers_are_valid_and_bounded() {
        let h = figure6_hypergraph();
        let matching = greedy_matching_cover(&h);
        assert!(is_vertex_cover(&h, &matching));
        assert!(matching.len() <= 2 * 2); // k-approximation, k = 2
        let degree = greedy_degree_cover(&h);
        assert!(is_vertex_cover(&h, &degree));
        assert_eq!(degree.len(), 2);
    }

    #[test]
    fn empty_hypergraph_has_empty_cover() {
        let h = Hypergraph::new(5);
        let res = exact_vertex_cover(&h, SearchBudget::default());
        assert_eq!(res.value, 0);
        assert!(res.optimal);
        assert!(greedy_matching_cover(&h).is_empty());
        assert!(is_vertex_cover(&h, &[]));
    }

    #[test]
    fn single_edge_needs_one_vertex() {
        let mut h = Hypergraph::new(4);
        h.add_edge(vec![1, 2, 3]).unwrap();
        let res = exact_vertex_cover(&h, SearchBudget::default());
        assert_eq!(res.value, 1);
    }

    #[test]
    fn disjoint_edges_need_one_each() {
        let mut h = Hypergraph::new(9);
        h.add_edge(vec![0, 1, 2]).unwrap();
        h.add_edge(vec![3, 4, 5]).unwrap();
        h.add_edge(vec![6, 7, 8]).unwrap();
        let res = exact_vertex_cover(&h, SearchBudget::default());
        assert_eq!(res.value, 3);
        assert!(res.optimal);
    }

    #[test]
    fn triangle_of_pairs_needs_two() {
        // Edges {0,1},{1,2},{0,2}: minimum cover has 2 vertices.
        let mut h = Hypergraph::new(3);
        h.add_edge(vec![0, 1]).unwrap();
        h.add_edge(vec![1, 2]).unwrap();
        h.add_edge(vec![0, 2]).unwrap();
        let res = exact_vertex_cover(&h, SearchBudget::default());
        assert_eq!(res.value, 2);
    }

    #[test]
    fn duplicated_edges_do_not_inflate_cover() {
        let mut h = Hypergraph::new(3);
        for _ in 0..6 {
            h.add_edge(vec![0, 1, 2]).unwrap();
        }
        let res = exact_vertex_cover(&h, SearchBudget::default());
        assert_eq!(res.value, 1);
    }

    #[test]
    fn tiny_budget_still_returns_valid_cover() {
        let h = figure6_hypergraph();
        let res = exact_vertex_cover(&h, SearchBudget(1));
        assert!(is_vertex_cover(&h, &res.witness));
        assert!(res.value >= 2);
    }

    #[test]
    fn random_instances_exact_leq_greedy() {
        // Pseudo-random 3-uniform hypergraphs: exact <= both greedy covers, and the
        // matching lower bound <= exact.
        let mut seed = 7u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as usize
        };
        for trial in 0..10 {
            let n = 12 + trial;
            let mut h = Hypergraph::new(n);
            for _ in 0..(2 * n) {
                let a = next() % n;
                let b = next() % n;
                let c = next() % n;
                let mut e = vec![a, b, c];
                e.sort_unstable();
                e.dedup();
                h.add_edge(e).unwrap();
            }
            let exact = exact_vertex_cover(&h, SearchBudget::default());
            assert!(exact.optimal);
            assert!(is_vertex_cover(&h, &exact.witness));
            let gm = greedy_matching_cover(&h);
            let gd = greedy_degree_cover(&h);
            assert!(is_vertex_cover(&h, &gm));
            assert!(is_vertex_cover(&h, &gd));
            assert!(exact.value <= gm.len());
            assert!(exact.value <= gd.len());
        }
    }
}
