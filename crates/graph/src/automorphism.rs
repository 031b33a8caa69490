//! Automorphisms, vertex orbits and transitive node subsets.
//!
//! The MI support measure (Section 3.2 of the paper) relies on *transitive node
//! subsets*: sets of pattern vertices every pair of which is mapped onto each other by
//! an automorphism of some subgraph of the pattern (Definitions 3.2.2 / 3.2.3).  The
//! same machinery underlies the *structural overlap* notion of Section 4.5.
//!
//! The functions here enumerate:
//!
//! * all automorphisms of a pattern ([`automorphisms`]),
//! * the orbit partition of its vertex set ([`orbits`]),
//! * orbits of all connected subgraphs ([`connected_subgraph_orbits`]), which
//!   is the default source of transitive node subsets for MI, and
//! * the symmetric "transitive pair" relation over subgraphs
//!   ([`transitive_pair_matrix`]), used by structural overlap.
//!
//! Patterns are small (a handful of vertices), so exhaustive enumeration over vertex
//! subsets is perfectly affordable; a size guard keeps the worst case bounded.

use crate::isomorphism::{enumerate_embeddings, Embedding, IsoConfig};
use crate::{Pattern, VertexId};

/// Enumerate all automorphisms of `pattern` (Definition 2.1.6).
///
/// Each automorphism is returned as a permutation vector `perm` with
/// `perm[v] = image of v`.  The identity is always included (for non-empty patterns).
pub fn automorphisms(pattern: &Pattern) -> Vec<Embedding> {
    // A label- and edge-preserving injection of P into itself over the full vertex set
    // is automatically edge-reflecting (both graphs have the same finite edge count),
    // hence an automorphism.
    enumerate_embeddings(pattern, pattern, IsoConfig::default()).embeddings
}

/// Number of automorphisms of `pattern`.
pub fn automorphism_count(pattern: &Pattern) -> usize {
    automorphisms(pattern).len()
}

/// Union-find over vertex ids.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect() }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// The orbit partition of the pattern's vertices under its automorphism group.
///
/// Two vertices are in the same orbit iff some automorphism of the *whole* pattern
/// maps one to the other (this is the transitive relation of Definition 3.2.2 applied
/// to the pattern itself; Theorem 3.1 shows it is indeed transitive).
pub fn orbits(pattern: &Pattern) -> Vec<Vec<VertexId>> {
    let n = pattern.num_vertices();
    let mut uf = UnionFind::new(n);
    for auto in automorphisms(pattern) {
        for (v, &img) in auto.iter().enumerate() {
            uf.union(v, img as usize);
        }
    }
    group_by_root(&mut uf, n)
}

fn group_by_root(uf: &mut UnionFind, n: usize) -> Vec<Vec<VertexId>> {
    let mut groups: std::collections::BTreeMap<usize, Vec<VertexId>> =
        std::collections::BTreeMap::new();
    for v in 0..n {
        let root = uf.find(v);
        groups.entry(root).or_default().push(v as VertexId);
    }
    groups.into_values().collect()
}

/// Maximum number of pattern edges for which exhaustive enumeration of connected
/// edge-subset subgraphs is attempted.  Above this, only the full pattern and single
/// edges are considered (patterns this large never appear in practice).
pub const MAX_EXHAUSTIVE_SUBGRAPH_EDGES: usize = 14;

/// Enumerate the connected subgraphs of `pattern` (every non-empty subset of its
/// edges whose spanned subgraph is connected) and return, for each, the orbit classes
/// of its automorphism group *translated back to original pattern vertex ids*.  Orbit
/// classes of size 1 are dropped and the result is de-duplicated.
///
/// These sets (together with all their subsets and the singletons) are the
/// *transitive node subsets* that the default MI strategy draws from: any pair inside
/// a returned set is transitive in a subgraph of the pattern (Definition 3.2.3).
/// Because every subgraph of a pattern `p` is also a subgraph of any superpattern of
/// `p`, this family is preserved under pattern extension, which is what the
/// anti-monotonicity proof of Theorem 3.2 needs.
pub fn connected_subgraph_orbits(pattern: &Pattern) -> Vec<Vec<VertexId>> {
    let edges: Vec<(VertexId, VertexId)> = pattern.edges().collect();
    let m = edges.len();
    let mut result: std::collections::BTreeSet<Vec<VertexId>> = std::collections::BTreeSet::new();

    let consider = |edge_subset: &[(VertexId, VertexId)],
                    result: &mut std::collections::BTreeSet<Vec<VertexId>>| {
        let mut vertex_set: Vec<VertexId> = edge_subset.iter().flat_map(|&(u, v)| [u, v]).collect();
        vertex_set.sort_unstable();
        vertex_set.dedup();
        let (sub, back) =
            pattern.subgraph_with_edges(&vertex_set, edge_subset).expect("pattern edges are valid");
        if !sub.is_connected() {
            return;
        }
        for orbit in orbits(&sub) {
            if orbit.len() >= 2 {
                let mut orig: Vec<VertexId> = orbit.iter().map(|&v| back[v as usize]).collect();
                orig.sort_unstable();
                result.insert(orig);
            }
        }
    };

    if m <= MAX_EXHAUSTIVE_SUBGRAPH_EDGES {
        // Enumerate all non-empty edge subsets.
        for mask in 1u32..(1u32 << m) {
            let subset: Vec<(VertexId, VertexId)> =
                (0..m).filter(|&e| mask & (1 << e) != 0).map(|e| edges[e]).collect();
            consider(&subset, &mut result);
        }
    } else {
        // Fallback for very large patterns: full pattern + every edge.
        consider(&edges, &mut result);
        for &e in &edges {
            consider(&[e], &mut result);
        }
    }
    result.into_iter().collect()
}

/// A symmetric boolean matrix over pattern vertices, packed into 64-bit words (one
/// row of `ceil(n / 64)` words per vertex).  This replaces the old `Vec<Vec<bool>>`
/// output of [`transitive_pair_matrix`]: the structural-overlap hot loop probes it
/// once per (pattern node, pattern node) pair for every candidate occurrence pair, so
/// the packed layout keeps the whole relation of any realistic pattern in one or two
/// cache lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairMatrix {
    n: usize,
    words_per_row: usize,
    words: Vec<u64>,
}

impl PairMatrix {
    /// An all-false matrix over `n` vertices.
    pub fn new(n: usize) -> Self {
        let words_per_row = n.div_ceil(64);
        PairMatrix { n, words_per_row, words: vec![0; n * words_per_row] }
    }

    /// Matrix dimension (number of pattern vertices).
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the matrix has zero vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The bit at `(u, v)`.
    pub fn get(&self, u: usize, v: usize) -> bool {
        self.words[u * self.words_per_row + v / 64] & (1u64 << (v % 64)) != 0
    }

    /// Set `(u, v)` and `(v, u)` (the relation is symmetric).
    pub fn set_symmetric(&mut self, u: usize, v: usize) {
        self.words[u * self.words_per_row + v / 64] |= 1u64 << (v % 64);
        self.words[v * self.words_per_row + u / 64] |= 1u64 << (u % 64);
    }

    /// Number of `true` entries (counting both orientations of each pair).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// `matrix.get(u, v) == true` iff `u` and `v` are a transitive pair in *some*
/// connected subgraph of the pattern (the relation used by structural overlap,
/// Definition 4.5.2).  The diagonal is always `true`.
pub fn transitive_pair_matrix(pattern: &Pattern) -> PairMatrix {
    let n = pattern.num_vertices();
    let mut m = PairMatrix::new(n);
    for v in 0..n {
        m.set_symmetric(v, v);
    }
    for orbit in connected_subgraph_orbits(pattern) {
        for &u in &orbit {
            for &v in &orbit {
                m.set_symmetric(u as usize, v as usize);
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
    use crate::Label;

    #[test]
    fn triangle_has_six_automorphisms() {
        let t = patterns::uniform_clique(3, Label(0));
        assert_eq!(automorphism_count(&t), 6);
        assert_eq!(orbits(&t), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn labeled_triangle_has_fewer_automorphisms() {
        let t = patterns::triangle(Label(1), Label(0), Label(0));
        // Only the identity and the swap of the two Label(0) vertices.
        assert_eq!(automorphism_count(&t), 2);
        let o = orbits(&t);
        assert!(o.contains(&vec![0]));
        assert!(o.contains(&vec![1, 2]));
    }

    #[test]
    fn path_orbits() {
        // Uniform path of 3 vertices: end vertices form an orbit, middle is fixed.
        let p = patterns::uniform_path(3, Label(0));
        assert_eq!(automorphism_count(&p), 2);
        let o = orbits(&p);
        assert!(o.contains(&vec![0, 2]));
        assert!(o.contains(&vec![1]));
    }

    #[test]
    fn star_orbits() {
        let s = patterns::uniform_star(4, Label(1), Label(0));
        assert_eq!(automorphism_count(&s), 24); // 4! leaf permutations
        let o = orbits(&s);
        assert!(o.contains(&vec![0]));
        assert!(o.contains(&vec![1, 2, 3, 4]));
    }

    #[test]
    fn subgraph_orbits_capture_figure4_symmetry() {
        // Figure 4 pattern: path v1 - v2 - v3, all labels equal.  The connected induced
        // subgraph {v2, v3} (a single edge) makes them transitive even though the full
        // path does not map v2 to v3.
        let p = patterns::uniform_path(3, Label(0));
        let sets = connected_subgraph_orbits(&p);
        assert!(sets.contains(&vec![0, 1])); // edge v1-v2
        assert!(sets.contains(&vec![1, 2])); // edge v2-v3
        assert!(sets.contains(&vec![0, 2])); // ends of the full path
        let m = transitive_pair_matrix(&p);
        assert!(m.get(1, 2) && m.get(2, 1));
        assert!(m.get(0, 1)); // via the induced edge subgraph {v1, v2}
    }

    #[test]
    fn different_labels_are_never_transitive() {
        let p = patterns::path(&[Label(0), Label(1), Label(2)]);
        let sets = connected_subgraph_orbits(&p);
        assert!(sets.is_empty());
        let m = transitive_pair_matrix(&p);
        assert_eq!(m.len(), 3);
        for u in 0..3 {
            for v in 0..3 {
                assert_eq!(m.get(u, v), u == v);
            }
        }
        assert_eq!(m.count_ones(), 3);
    }

    #[test]
    fn pair_matrix_packing_is_symmetric_across_word_boundaries() {
        let mut m = PairMatrix::new(70);
        assert!(!m.get(3, 67));
        m.set_symmetric(3, 67);
        assert!(m.get(3, 67) && m.get(67, 3));
        assert!(!m.get(3, 66) && !m.get(66, 3));
        assert_eq!(m.count_ones(), 2);
        assert!(!m.is_empty());
        assert!(PairMatrix::new(0).is_empty());
    }

    #[test]
    fn clique_orbit_is_everything() {
        let k4 = patterns::uniform_clique(4, Label(0));
        let sets = connected_subgraph_orbits(&k4);
        assert!(sets.contains(&vec![0, 1, 2, 3]));
        assert_eq!(automorphism_count(&k4), 24);
    }

    #[test]
    fn single_vertex_and_empty() {
        let v = patterns::single_vertex(Label(0));
        assert_eq!(automorphism_count(&v), 1);
        assert_eq!(orbits(&v), vec![vec![0]]);
        assert!(connected_subgraph_orbits(&v).is_empty());
        let e = Pattern::new();
        assert_eq!(orbits(&e), Vec::<Vec<VertexId>>::new());
    }
}
