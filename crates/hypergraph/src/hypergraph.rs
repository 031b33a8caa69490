//! The [`Hypergraph`] data structure and its dual.

use serde::{Deserialize, Serialize};

/// Identifier of a hyperedge (dense, `0..num_edges`).
pub type EdgeId = usize;

/// Errors raised while building hypergraphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HypergraphError {
    /// An edge referenced a vertex outside `0..num_vertices`.
    UnknownVertex {
        /// The offending vertex.
        vertex: usize,
        /// Number of vertices in the hypergraph.
        num_vertices: usize,
    },
    /// Hyperedges must be non-empty (Definition 3.1.1).
    EmptyEdge,
}

impl std::fmt::Display for HypergraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HypergraphError::UnknownVertex { vertex, num_vertices } => {
                write!(f, "vertex {vertex} out of range (hypergraph has {num_vertices} vertices)")
            }
            HypergraphError::EmptyEdge => write!(f, "hyperedges must be non-empty"),
        }
    }
}

impl std::error::Error for HypergraphError {}

/// A hypergraph `H = (V, E)` (Definition 3.1.1): vertices `0..num_vertices` and edges
/// that are non-empty vertex subsets.
///
/// Edges are stored sorted and de-duplicated but *repeated edges are allowed* —
/// occurrence hypergraphs genuinely contain multiple edges with the same vertex set
/// when the pattern has non-trivial automorphisms (Figure 2), distinguished by their
/// occurrence label.  The edge identifier plays the role of that label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hypergraph {
    num_vertices: usize,
    edges: Vec<Vec<usize>>,
}

impl Hypergraph {
    /// Create a hypergraph with `num_vertices` isolated vertices and no edges.
    pub fn new(num_vertices: usize) -> Self {
        Hypergraph { num_vertices, edges: Vec::new() }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// `true` if the hypergraph has no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Add an edge (a non-empty set of vertices); duplicates within the set are
    /// collapsed.  Returns the new edge's identifier.
    pub fn add_edge(&mut self, mut vertices: Vec<usize>) -> Result<EdgeId, HypergraphError> {
        if vertices.is_empty() {
            return Err(HypergraphError::EmptyEdge);
        }
        for &v in &vertices {
            if v >= self.num_vertices {
                return Err(HypergraphError::UnknownVertex {
                    vertex: v,
                    num_vertices: self.num_vertices,
                });
            }
        }
        vertices.sort_unstable();
        vertices.dedup();
        self.edges.push(vertices);
        Ok(self.edges.len() - 1)
    }

    /// The sorted vertex set of edge `e`.
    ///
    /// # Panics
    /// Panics if `e` is out of range.
    pub fn edge(&self, e: EdgeId) -> &[usize] {
        &self.edges[e]
    }

    /// Iterator over `(edge id, vertex set)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &[usize])> + '_ {
        self.edges.iter().enumerate().map(|(i, e)| (i, e.as_slice()))
    }

    /// Number of edges containing vertex `v`.
    pub fn vertex_degree(&self, v: usize) -> usize {
        self.edges.iter().filter(|e| e.binary_search(&v).is_ok()).count()
    }

    /// For every vertex, the list of edges containing it (the `X_j` sets of the dual,
    /// Definition 3.1.2).
    pub fn incidence(&self) -> Vec<Vec<EdgeId>> {
        let mut inc = vec![Vec::new(); self.num_vertices];
        for (i, e) in self.edges.iter().enumerate() {
            for &v in e {
                inc[v].push(i);
            }
        }
        inc
    }

    /// `Some(k)` if every edge has exactly `k` vertices (a *k-uniform* hypergraph);
    /// `None` for non-uniform or empty hypergraphs.  Occurrence/instance hypergraphs
    /// are always uniform because every edge is the image of the same pattern
    /// (Section 4.4).
    pub fn uniform_rank(&self) -> Option<usize> {
        let first = self.edges.first()?.len();
        self.edges.iter().all(|e| e.len() == first).then_some(first)
    }

    /// Size of the largest edge (0 when empty).
    pub fn max_edge_size(&self) -> usize {
        self.edges.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// `true` if no edge is a subset of another edge (a *simple* hypergraph,
    /// Definition 3.1.1).  Repeated identical edges count as subsets of each other.
    pub fn is_simple(&self) -> bool {
        for (i, a) in self.edges.iter().enumerate() {
            for (j, b) in self.edges.iter().enumerate() {
                if i != j && is_subset(a, b) {
                    return false;
                }
            }
        }
        true
    }

    /// Indices of *minimal* edges: edges that do not strictly contain another edge,
    /// keeping only the first of any group of identical edges.  Vertex covers are
    /// unaffected by dropping the non-minimal edges, which is the standard reduction
    /// applied before solving MVC.
    pub fn minimal_edge_indices(&self) -> Vec<EdgeId> {
        let mut keep = Vec::new();
        'outer: for (i, a) in self.edges.iter().enumerate() {
            for (j, b) in self.edges.iter().enumerate() {
                if i == j {
                    continue;
                }
                let strict_subset = b.len() < a.len() && is_subset(b, a);
                let earlier_duplicate = j < i && b == a;
                if strict_subset || earlier_duplicate {
                    continue 'outer;
                }
            }
            keep.push(i);
        }
        keep
    }

    /// The sub-hypergraph containing only the given edges (vertex set unchanged).
    pub fn restrict_to_edges(&self, edges: &[EdgeId]) -> Hypergraph {
        Hypergraph {
            num_vertices: self.num_vertices,
            edges: edges.iter().map(|&e| self.edges[e].clone()).collect(),
        }
    }

    /// The dual hypergraph `H* = (E, X)` (Definition 3.1.2): its vertices are this
    /// hypergraph's edges and its edges are the sets `X_j = { e : v_j ∈ e }` for every
    /// vertex `v_j` that has at least one incident edge.
    pub fn dual(&self) -> Hypergraph {
        let mut dual = Hypergraph::new(self.num_edges());
        for x in self.incidence() {
            if !x.is_empty() {
                dual.add_edge(x).expect("dual edge is valid");
            }
        }
        dual
    }

    /// The *overlap graph* induced by this hypergraph when its edges are interpreted
    /// as occurrences/instances (Definition 2.2.5): one vertex per hyperedge, an edge
    /// whenever two hyperedges share a vertex.
    ///
    /// Built through the inverted incidence index: only hyperedge pairs that actually
    /// meet in some vertex's incidence list are emitted, so the cost is proportional
    /// to the candidate pairs instead of all `m²/2` pairs tested by the
    /// [`Hypergraph::overlap_adjacency`] oracle.  The two are proven equal by the
    /// tests here and by the `overlap_differential` property harness.
    pub fn overlap_graph(&self) -> crate::independent_set::SimpleGraph {
        self.overlap_graph_parallel(1)
    }

    /// [`Hypergraph::overlap_graph`] with the candidate rows partitioned over
    /// `threads` workers (`1` = sequential, `0` = one per available core).  The
    /// partition and merge order are fixed, so the result is identical to the
    /// sequential build.
    ///
    /// No mining path sets a thread count here; the repository benchmark's
    /// replay still calls `overlap_graph_parallel(1)`.  Once it calls
    /// [`Hypergraph::overlap_graph`] instead, this method and
    /// [`crate::parallel`] can go.
    pub fn overlap_graph_parallel(&self, threads: usize) -> crate::independent_set::SimpleGraph {
        let m = self.num_edges();
        let incidence = self.incidence();
        let pairs = crate::parallel::emit_pairs_parallel(m, threads, |rows, out| {
            // stamp[j] == i marks hyperedge j as already paired with i this round.
            let mut stamp = vec![usize::MAX; m];
            for i in rows {
                for &v in &self.edges[i] {
                    for &j in &incidence[v] {
                        if j > i && stamp[j] != i {
                            stamp[j] = i;
                            out.push((i, j));
                        }
                    }
                }
            }
        });
        crate::independent_set::SimpleGraph::from_edge_list(m, &pairs)
    }

    /// All-pairs overlap adjacency (the naive oracle behind
    /// [`Hypergraph::overlap_graph`]): every hyperedge pair is tested for a shared
    /// vertex.  Quadratic in the number of hyperedges; kept as the reference
    /// implementation for the differential tests.
    pub fn overlap_adjacency(&self) -> Vec<Vec<usize>> {
        let m = self.num_edges();
        let mut adj = vec![Vec::new(); m];
        for i in 0..m {
            for j in (i + 1)..m {
                if !intersection_empty(&self.edges[i], &self.edges[j]) {
                    adj[i].push(j);
                    adj[j].push(i);
                }
            }
        }
        adj
    }
}

/// `true` if sorted slice `a` is a subset of sorted slice `b`.
pub(crate) fn is_subset(a: &[usize], b: &[usize]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut bi = 0;
    for &x in a {
        while bi < b.len() && b[bi] < x {
            bi += 1;
        }
        if bi >= b.len() || b[bi] != x {
            return false;
        }
        bi += 1;
    }
    true
}

/// `true` if two sorted slices have an empty intersection.
pub(crate) fn intersection_empty(a: &[usize], b: &[usize]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Hypergraph {
        let mut h = Hypergraph::new(6);
        h.add_edge(vec![0, 1, 2]).unwrap();
        h.add_edge(vec![2, 3]).unwrap();
        h.add_edge(vec![3, 4, 5]).unwrap();
        h
    }

    #[test]
    fn build_and_query() {
        let h = sample();
        assert_eq!(h.num_vertices(), 6);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.edge(1), &[2, 3]);
        assert_eq!(h.vertex_degree(2), 2);
        assert_eq!(h.vertex_degree(5), 1);
        assert_eq!(h.max_edge_size(), 3);
        assert_eq!(h.uniform_rank(), None);
        assert!(!h.is_empty());
    }

    #[test]
    fn edge_validation() {
        let mut h = Hypergraph::new(3);
        assert_eq!(h.add_edge(vec![]), Err(HypergraphError::EmptyEdge));
        assert!(matches!(
            h.add_edge(vec![0, 7]),
            Err(HypergraphError::UnknownVertex { vertex: 7, .. })
        ));
        // duplicates inside an edge collapse
        let e = h.add_edge(vec![1, 1, 0]).unwrap();
        assert_eq!(h.edge(e), &[0, 1]);
    }

    #[test]
    fn uniformity() {
        let mut h = Hypergraph::new(5);
        h.add_edge(vec![0, 1]).unwrap();
        h.add_edge(vec![2, 3]).unwrap();
        assert_eq!(h.uniform_rank(), Some(2));
        h.add_edge(vec![0, 2, 4]).unwrap();
        assert_eq!(h.uniform_rank(), None);
        assert_eq!(Hypergraph::new(3).uniform_rank(), None);
    }

    #[test]
    fn simplicity_and_minimal_edges() {
        let mut h = Hypergraph::new(4);
        h.add_edge(vec![0, 1, 2]).unwrap();
        h.add_edge(vec![0, 1]).unwrap();
        h.add_edge(vec![2, 3]).unwrap();
        assert!(!h.is_simple());
        let minimal = h.minimal_edge_indices();
        assert_eq!(minimal, vec![1, 2]);
        let reduced = h.restrict_to_edges(&minimal);
        assert_eq!(reduced.num_edges(), 2);
        assert!(reduced.is_simple());
    }

    #[test]
    fn identical_edges_keep_one_minimal_representative() {
        let mut h = Hypergraph::new(3);
        h.add_edge(vec![0, 1]).unwrap();
        h.add_edge(vec![0, 1]).unwrap();
        h.add_edge(vec![1, 2]).unwrap();
        let minimal = h.minimal_edge_indices();
        assert_eq!(minimal, vec![0, 2]);
    }

    #[test]
    fn dual_construction() {
        // Figure 1-style: dual vertices are the edges; its edges are the X_j sets.
        let h = sample();
        let d = h.dual();
        assert_eq!(d.num_vertices(), 3);
        // X_2 = {e0, e1}, X_3 = {e1, e2}; singleton X sets for the other vertices.
        let mut edge_sets: Vec<Vec<usize>> = d.edges().map(|(_, e)| e.to_vec()).collect();
        edge_sets.sort();
        assert!(edge_sets.contains(&vec![0, 1]));
        assert!(edge_sets.contains(&vec![1, 2]));
        assert_eq!(d.num_edges(), 6);
    }

    #[test]
    fn dual_of_dual_relates_back() {
        let h = sample();
        let dd = h.dual().dual();
        // For hypergraphs without isolated vertices or repeated incidence structure,
        // the double dual has one vertex per original edge-slot and the same number of
        // edges as the original has (non-isolated) vertices... here we simply check
        // the counts are consistent.
        assert_eq!(dd.num_vertices(), h.dual().num_edges());
        assert_eq!(h.dual().num_vertices(), h.num_edges());
    }

    #[test]
    fn overlap_adjacency_matches_shared_vertices() {
        let h = sample();
        let adj = h.overlap_adjacency();
        assert_eq!(adj[0], vec![1]);
        assert_eq!(adj[1], vec![0, 2]);
        assert_eq!(adj[2], vec![1]);
    }

    #[test]
    fn indexed_overlap_graph_equals_all_pairs_oracle() {
        let mut rng = 0x5eedu64;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        };
        for trial in 0..12 {
            let n = 4 + trial;
            let mut h = Hypergraph::new(n);
            for _ in 0..(2 * n) {
                let len = 2 + next() % 3;
                let mut edge: Vec<usize> = (0..len).map(|_| next() % n).collect();
                edge.sort_unstable();
                edge.dedup();
                if edge.len() >= 2 {
                    h.add_edge(edge).unwrap();
                }
            }
            let oracle = crate::independent_set::SimpleGraph::from_adjacency(h.overlap_adjacency());
            for (label, built) in [
                ("indexed", h.overlap_graph()),
                ("parallel", h.overlap_graph_parallel(3)),
                ("all-cores", h.overlap_graph_parallel(0)),
            ] {
                assert_eq!(built.num_vertices(), oracle.num_vertices());
                assert_eq!(built.num_edges(), oracle.num_edges(), "{label}, trial {trial}");
                for v in 0..built.num_vertices() {
                    assert_eq!(
                        built.neighbors(v),
                        oracle.neighbors(v),
                        "{label}, trial {trial} row {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn subset_and_intersection_helpers() {
        assert!(is_subset(&[1, 3], &[0, 1, 2, 3]));
        assert!(!is_subset(&[1, 4], &[0, 1, 2, 3]));
        assert!(is_subset(&[], &[1]));
        assert!(intersection_empty(&[0, 2], &[1, 3]));
        assert!(!intersection_empty(&[0, 2], &[2, 3]));
    }
}
