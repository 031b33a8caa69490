//! Graph transformations.
//!
//! These are the building blocks behind several experiments:
//!
//! * [`shuffle_vertices`] — randomly permutes vertex identifiers; every support
//!   measure must be invariant under this (isomorphism-invariance property tests);
//! * [`forget_labels`] / [`map_labels`] — collapse or rename the label alphabet,
//!   moving a dataset along the "label selectivity" axis of the evaluation (fewer
//!   labels → more occurrences → more overlap);
//! * [`disjoint_union`] — composes data graphs; MVC/MIS/MIES are additive under it
//!   (the "additiveness" extension of the paper's Section 6), MNI/MI are not.

use crate::{GraphError, Label, LabeledGraph, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Apply a relabeling function to every vertex label.
pub fn map_labels(graph: &LabeledGraph, f: impl Fn(Label) -> Label) -> LabeledGraph {
    let mut g = LabeledGraph::with_capacity(graph.num_vertices());
    for v in graph.vertices() {
        g.add_vertex(f(graph.label(v)));
    }
    for (u, v) in graph.edges() {
        g.add_edge(u, v).expect("copied edge is valid");
    }
    g
}

/// Replace every label with `Label(0)`, erasing all label information.  The number of
/// occurrences of any pattern can only grow under this transform.
pub fn forget_labels(graph: &LabeledGraph) -> LabeledGraph {
    map_labels(graph, |_| Label(0))
}

/// Rename vertices by the permutation `perm` (`perm[old] = new`); labels and edges
/// follow their vertex.  Returns an error if `perm` is not a permutation of
/// `0..num_vertices`.
pub fn permute_vertices(
    graph: &LabeledGraph,
    perm: &[VertexId],
) -> Result<LabeledGraph, GraphError> {
    let n = graph.num_vertices();
    if perm.len() != n {
        return Err(GraphError::Io(format!(
            "permutation has length {} but the graph has {} vertices",
            perm.len(),
            n
        )));
    }
    let mut seen = vec![false; n];
    for &p in perm {
        if (p as usize) >= n || seen[p as usize] {
            return Err(GraphError::Io(format!("invalid permutation entry {p}")));
        }
        seen[p as usize] = true;
    }
    let mut labels = vec![Label(0); n];
    for v in graph.vertices() {
        labels[perm[v as usize] as usize] = graph.label(v);
    }
    let mut g = LabeledGraph::with_capacity(n);
    for &l in &labels {
        g.add_vertex(l);
    }
    for (u, v) in graph.edges() {
        g.add_edge(perm[u as usize], perm[v as usize]).expect("permuted edge valid");
    }
    Ok(g)
}

/// Randomly permute the vertex identifiers (seeded, deterministic).  The result is
/// isomorphic to the input; support measures must return identical values on both.
pub fn shuffle_vertices(graph: &LabeledGraph, seed: u64) -> LabeledGraph {
    let n = graph.num_vertices();
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    perm.shuffle(&mut rng);
    permute_vertices(graph, &perm).expect("shuffled permutation is valid")
}

/// Disjoint union of two graphs; vertices of `b` are shifted by `a.num_vertices()`.
pub fn disjoint_union(a: &LabeledGraph, b: &LabeledGraph) -> LabeledGraph {
    let mut g = LabeledGraph::with_capacity(a.num_vertices() + b.num_vertices());
    for v in a.vertices() {
        g.add_vertex(a.label(v));
    }
    let offset = a.num_vertices() as VertexId;
    for v in b.vertices() {
        g.add_vertex(b.label(v));
    }
    for (u, v) in a.edges() {
        g.add_edge(u, v).expect("edge");
    }
    for (u, v) in b.edges() {
        g.add_edge(offset + u, offset + v).expect("edge");
    }
    g
}

/// Disjoint union of many graphs.
pub fn disjoint_union_all(graphs: &[LabeledGraph]) -> LabeledGraph {
    graphs.iter().fold(LabeledGraph::new(), |acc, g| disjoint_union(&acc, g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isomorphism::are_isomorphic;
    use crate::{generators, patterns};

    fn labelled_path() -> LabeledGraph {
        LabeledGraph::from_edges(&[0, 1, 2, 1], &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn map_and_forget_labels() {
        let g = labelled_path();
        let f = forget_labels(&g);
        assert_eq!(f.num_edges(), g.num_edges());
        assert!(f.vertices().all(|v| f.label(v) == Label(0)));
        let mapped = map_labels(&g, |l| Label(l.0 + 10));
        assert_eq!(mapped.label(2), Label(12));
    }

    #[test]
    fn permutation_preserves_structure() {
        let g = labelled_path();
        let p = permute_vertices(&g, &[3, 2, 1, 0]).unwrap();
        assert_eq!(p.num_edges(), 3);
        assert!(p.has_edge(3, 2));
        assert_eq!(p.label(3), Label(0));
        assert!(are_isomorphic(&g, &p));
    }

    #[test]
    fn invalid_permutations_rejected() {
        let g = labelled_path();
        assert!(permute_vertices(&g, &[0, 1]).is_err());
        assert!(permute_vertices(&g, &[0, 0, 1, 2]).is_err());
        assert!(permute_vertices(&g, &[0, 1, 2, 9]).is_err());
    }

    #[test]
    fn shuffle_is_isomorphic_and_deterministic() {
        let g = generators::gnm_random(40, 80, 3, 7);
        let s1 = shuffle_vertices(&g, 11);
        let s2 = shuffle_vertices(&g, 11);
        assert_eq!(s1, s2);
        assert_eq!(s1.num_edges(), g.num_edges());
        assert_eq!(s1.label_histogram(), g.label_histogram());
        let small = labelled_path();
        assert!(are_isomorphic(&small, &shuffle_vertices(&small, 3)));
    }

    #[test]
    fn union_counts_add_up() {
        let a = patterns::uniform_clique(3, Label(0));
        let b = labelled_path();
        let u = disjoint_union(&a, &b);
        assert_eq!(u.num_vertices(), 7);
        assert_eq!(u.num_edges(), 6);
        assert_eq!(u.num_components(), 2);
        assert!(u.has_edge(3, 4)); // b's (0,1) shifted by 3
        let all = disjoint_union_all(&[a.clone(), a.clone(), a]);
        assert_eq!(all.num_components(), 3);
        assert_eq!(disjoint_union_all(&[]).num_vertices(), 0);
    }
}
