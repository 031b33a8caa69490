//! Hypergraph connectivity and component decomposition.
//!
//! Occurrence/instance hypergraphs of a pattern in a large data graph usually split
//! into many connected components (distant occurrences never share an image vertex).
//! The NP-hard measures (MVC, MIES/MIS) and the LP relaxations are *additive* over
//! these components (Section 6, item 4); [`HypergraphStatistics`](crate::HypergraphStatistics)
//! reports the component structure.

use crate::{EdgeId, Hypergraph};

/// One connected component of a hypergraph, re-indexed densely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// The component as a standalone hypergraph with vertices `0..vertices.len()`.
    pub hypergraph: Hypergraph,
    /// Map from component vertex index to the original vertex id.
    pub vertices: Vec<usize>,
    /// Original edge ids, in the order they appear in `hypergraph`.
    pub edges: Vec<EdgeId>,
}

/// Union-find over hypergraph vertices: two vertices are connected when some edge
/// contains both.  Returns the root of every vertex.
fn vertex_partition(h: &Hypergraph) -> Vec<usize> {
    let n = h.num_vertices();
    let mut parent: Vec<usize> = (0..n).collect();

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    for (_, edge) in h.edges() {
        let mut it = edge.iter();
        if let Some(&first) = it.next() {
            let mut root = find(&mut parent, first);
            for &v in it {
                let rv = find(&mut parent, v);
                if rv != root {
                    // Union by simply re-rooting; path compression keeps this fast.
                    parent[rv] = root;
                    root = find(&mut parent, root);
                }
            }
        }
    }
    (0..n).map(|v| find(&mut parent, v)).collect()
}

/// Split the hypergraph into its connected components.  Isolated vertices (contained
/// in no edge) are *not* reported as components — they are irrelevant to every cover /
/// matching / LP problem this crate solves.
///
/// Components are ordered by their smallest original vertex.
pub fn connected_components(h: &Hypergraph) -> Vec<Component> {
    if h.num_edges() == 0 {
        return Vec::new();
    }
    let roots = vertex_partition(h);
    // Group non-isolated vertices by root.
    let mut non_isolated = vec![false; h.num_vertices()];
    for (_, edge) in h.edges() {
        for &v in edge {
            non_isolated[v] = true;
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for v in 0..h.num_vertices() {
        if non_isolated[v] {
            groups.entry(roots[v]).or_default().push(v);
        }
    }
    // Index: root -> component position.
    let mut component_of_root = std::collections::HashMap::new();
    let mut components: Vec<Component> = Vec::with_capacity(groups.len());
    for (root, vertices) in groups {
        component_of_root.insert(root, components.len());
        let mut local_index = std::collections::HashMap::with_capacity(vertices.len());
        for (i, &v) in vertices.iter().enumerate() {
            local_index.insert(v, i);
        }
        components.push(Component {
            hypergraph: Hypergraph::new(vertices.len()),
            vertices,
            edges: Vec::new(),
        });
    }
    // Distribute edges.
    for (eid, edge) in h.edges() {
        let root = roots[edge[0]];
        let ci = component_of_root[&root];
        let comp = &mut components[ci];
        let local: Vec<usize> = edge
            .iter()
            .map(|&v| comp.vertices.binary_search(&v).expect("vertex is in its component"))
            .collect();
        comp.hypergraph.add_edge(local).expect("component edge is valid");
        comp.edges.push(eid);
    }
    components
}

/// Number of connected components (by edges; isolated vertices ignored).
pub fn num_components(h: &Hypergraph) -> usize {
    connected_components(h).len()
}

/// `true` if all edges lie in a single connected component (trivially true for a
/// hypergraph with no edges).
pub fn is_connected(h: &Hypergraph) -> bool {
    num_components(h) <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex_cover::exact_vertex_cover;
    use crate::SearchBudget;

    fn two_component_hypergraph() -> Hypergraph {
        let mut h = Hypergraph::new(8);
        h.add_edge(vec![0, 1, 2]).unwrap();
        h.add_edge(vec![2, 3]).unwrap();
        h.add_edge(vec![5, 6]).unwrap();
        h.add_edge(vec![6, 7]).unwrap();
        h
    }

    #[test]
    fn empty_hypergraph_has_no_components() {
        let h = Hypergraph::new(5);
        assert!(connected_components(&h).is_empty());
        assert!(is_connected(&h));
        assert_eq!(num_components(&h), 0);
    }

    #[test]
    fn components_are_split_correctly() {
        let h = two_component_hypergraph();
        let comps = connected_components(&h);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].vertices, vec![0, 1, 2, 3]);
        assert_eq!(comps[1].vertices, vec![5, 6, 7]);
        assert_eq!(comps[0].edges, vec![0, 1]);
        assert_eq!(comps[1].edges, vec![2, 3]);
        assert_eq!(comps[0].hypergraph.num_edges(), 2);
        assert_eq!(comps[1].hypergraph.num_vertices(), 3);
        assert!(!is_connected(&h));
        // Vertex 4 is isolated and belongs to no component.
        assert!(comps.iter().all(|c| !c.vertices.contains(&4)));
    }

    #[test]
    fn component_edges_reference_local_vertices() {
        let h = two_component_hypergraph();
        for comp in connected_components(&h) {
            for (_, edge) in comp.hypergraph.edges() {
                for &v in edge {
                    assert!(v < comp.vertices.len());
                }
            }
        }
    }

    #[test]
    fn single_component_when_edges_chain() {
        let mut h = Hypergraph::new(6);
        h.add_edge(vec![0, 1]).unwrap();
        h.add_edge(vec![1, 2]).unwrap();
        h.add_edge(vec![2, 3, 4, 5]).unwrap();
        assert!(is_connected(&h));
        let comps = connected_components(&h);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].vertices.len(), 6);
    }

    #[test]
    fn vertex_cover_is_additive_over_components() {
        let h = two_component_hypergraph();
        let whole = exact_vertex_cover(&h, SearchBudget::default()).value;
        let per_component: usize = connected_components(&h)
            .iter()
            .map(|c| exact_vertex_cover(&c.hypergraph, SearchBudget::default()).value)
            .sum();
        assert_eq!(whole, per_component);
    }

    #[test]
    fn large_union_decomposes_into_many_parts() {
        // 20 disjoint 3-vertex edges.
        let mut h = Hypergraph::new(60);
        for i in 0..20 {
            h.add_edge(vec![3 * i, 3 * i + 1, 3 * i + 2]).unwrap();
        }
        let comps = connected_components(&h);
        assert_eq!(comps.len(), 20);
        assert!(comps.iter().all(|c| c.hypergraph.num_edges() == 1));
    }
}
