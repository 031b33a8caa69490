//! Classic graph algorithms over [`LabeledGraph`].
//!
//! These are used throughout the workspace:
//!
//! * the dataset generators and the experiment harness report structural statistics
//!   (diameter, clustering, k-cores) to characterise each workload;
//! * the triangle / clustering routines power the "overlap-heavy vs overlap-light"
//!   classification of data graphs in the evaluation (overlap-heavy graphs are where
//!   MNI over-estimates most).
//!
//! All algorithms are deterministic and allocation-conscious: breadth-first searches
//! reuse a single `Vec` frontier, and neighbourhood intersections exploit the sorted
//! adjacency lists of [`LabeledGraph`].

use crate::{LabeledGraph, VertexId};

/// Breadth-first distances from `source`; unreachable vertices get `usize::MAX`.
pub fn bfs_distances(graph: &LabeledGraph, source: VertexId) -> Vec<usize> {
    let n = graph.num_vertices();
    let mut dist = vec![usize::MAX; n];
    if (source as usize) >= n {
        return dist;
    }
    dist[source as usize] = 0;
    let mut frontier = vec![source];
    let mut next = Vec::new();
    let mut level = 0usize;
    while !frontier.is_empty() {
        level += 1;
        next.clear();
        for &v in &frontier {
            for &w in graph.neighbors(v) {
                if dist[w as usize] == usize::MAX {
                    dist[w as usize] = level;
                    next.push(w);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }
    dist
}

/// Eccentricity of `source`: the largest finite BFS distance from it.
/// Returns 0 for an isolated vertex.
pub fn eccentricity(graph: &LabeledGraph, source: VertexId) -> usize {
    bfs_distances(graph, source).into_iter().filter(|&d| d != usize::MAX).max().unwrap_or(0)
}

/// Exact diameter (largest eccentricity over all vertices) of the graph, ignoring
/// unreachable pairs.  Quadratic in the number of vertices — use
/// [`estimate_diameter`] for large graphs.
pub fn diameter(graph: &LabeledGraph) -> usize {
    graph.vertices().map(|v| eccentricity(graph, v)).max().unwrap_or(0)
}

/// Lower-bound estimate of the diameter by a fixed number of double-sweep BFS passes
/// (each pass runs BFS from the farthest vertex found by the previous pass).
pub fn estimate_diameter(graph: &LabeledGraph, sweeps: usize) -> usize {
    let n = graph.num_vertices();
    if n == 0 {
        return 0;
    }
    let mut best = 0usize;
    let mut start: VertexId = 0;
    for _ in 0..sweeps.max(1) {
        let dist = bfs_distances(graph, start);
        let (far, d) = dist
            .iter()
            .enumerate()
            .filter(|(_, &d)| d != usize::MAX)
            .max_by_key(|(_, &d)| d)
            .map(|(i, &d)| (i as VertexId, d))
            .unwrap_or((start, 0));
        best = best.max(d);
        if far == start {
            break;
        }
        start = far;
    }
    best
}

/// Vertex sets of the connected components, each sorted, ordered by their smallest
/// vertex.
pub fn connected_components(graph: &LabeledGraph) -> Vec<Vec<VertexId>> {
    let n = graph.num_vertices();
    let mut seen = vec![false; n];
    let mut components = Vec::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut comp = Vec::new();
        let mut stack = vec![start as VertexId];
        seen[start] = true;
        while let Some(v) = stack.pop() {
            comp.push(v);
            for &w in graph.neighbors(v) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        comp.sort_unstable();
        components.push(comp);
    }
    components
}

/// The largest connected component as an induced subgraph, together with the map from
/// new vertex ids back to the original ids.  Returns an empty graph for an empty input.
pub fn largest_component(graph: &LabeledGraph) -> (LabeledGraph, Vec<VertexId>) {
    let comps = connected_components(graph);
    match comps.into_iter().max_by_key(|c| c.len()) {
        Some(c) => graph.induced_subgraph(&c),
        None => (LabeledGraph::new(), Vec::new()),
    }
}

/// Number of triangles in the graph (each triangle counted once).
///
/// Uses the standard degree-ordered neighbour-intersection method: every edge is
/// charged to its lower-degree endpoint, so the running time is `O(m · α)` where `α`
/// is the graph arboricity.
pub fn triangle_count(graph: &LabeledGraph) -> usize {
    let n = graph.num_vertices();
    // rank[v] orders vertices by (degree, id) — intersections only look "forward".
    let mut order: Vec<VertexId> = graph.vertices().collect();
    order.sort_by_key(|&v| (graph.degree(v), v));
    let mut rank = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        rank[v as usize] = i;
    }
    let mut count = 0usize;
    for v in graph.vertices() {
        // forward neighbours of v
        let fwd_v: Vec<VertexId> = graph
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&w| rank[w as usize] > rank[v as usize])
            .collect();
        for (i, &a) in fwd_v.iter().enumerate() {
            for &b in &fwd_v[i + 1..] {
                if graph.has_edge(a, b) {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Number of triangles through vertex `v`.
pub fn triangles_at(graph: &LabeledGraph, v: VertexId) -> usize {
    let ns = graph.neighbors(v);
    let mut count = 0usize;
    for (i, &a) in ns.iter().enumerate() {
        for &b in &ns[i + 1..] {
            if graph.has_edge(a, b) {
                count += 1;
            }
        }
    }
    count
}

/// Local clustering coefficient of `v`: triangles through `v` divided by the number of
/// neighbour pairs.  Vertices of degree < 2 have coefficient 0.
pub fn local_clustering(graph: &LabeledGraph, v: VertexId) -> f64 {
    let d = graph.degree(v);
    if d < 2 {
        return 0.0;
    }
    let possible = d * (d - 1) / 2;
    triangles_at(graph, v) as f64 / possible as f64
}

/// Average local clustering coefficient over all vertices (0 for an empty graph).
pub fn average_clustering(graph: &LabeledGraph) -> f64 {
    let n = graph.num_vertices();
    if n == 0 {
        return 0.0;
    }
    graph.vertices().map(|v| local_clustering(graph, v)).sum::<f64>() / n as f64
}

/// Global clustering coefficient (transitivity): `3 * triangles / open-or-closed
/// wedges`.  0 when the graph has no wedge.
pub fn global_clustering(graph: &LabeledGraph) -> f64 {
    let wedges: usize = graph
        .vertices()
        .map(|v| {
            let d = graph.degree(v);
            d * d.saturating_sub(1) / 2
        })
        .sum();
    if wedges == 0 {
        0.0
    } else {
        3.0 * triangle_count(graph) as f64 / wedges as f64
    }
}

/// Core number of every vertex (the largest `k` such that the vertex belongs to the
/// `k`-core), computed by the standard peeling algorithm in `O(n + m)`.
pub fn core_numbers(graph: &LabeledGraph) -> Vec<usize> {
    // Batagelj–Zaversnik peeling: process vertices in increasing current-degree order,
    // fixing each vertex's core number to its degree at removal time and lowering the
    // degrees of its unprocessed neighbours.
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut degree: Vec<usize> = graph.vertices().map(|v| graph.degree(v)).collect();
    let max_deg = *degree.iter().max().unwrap_or(&0);
    // bins[d] = index of the first vertex of degree d in `order`.
    let mut bins = vec![0usize; max_deg + 2];
    for &d in &degree {
        bins[d + 1] += 1;
    }
    for d in 1..bins.len() {
        bins[d] += bins[d - 1];
    }
    let mut next_slot = bins.clone();
    let mut pos = vec![0usize; n];
    let mut order = vec![0 as VertexId; n];
    for v in 0..n {
        pos[v] = next_slot[degree[v]];
        order[pos[v]] = v as VertexId;
        next_slot[degree[v]] += 1;
    }
    let mut core = vec![0usize; n];
    let mut processed = vec![false; n];
    for i in 0..n {
        let v = order[i] as usize;
        processed[v] = true;
        core[v] = degree[v];
        for &w in graph.neighbors(v as VertexId) {
            let w = w as usize;
            if !processed[w] && degree[w] > degree[v] {
                // Swap w with the first vertex of its degree bucket, then shrink it
                // into the next lower bucket.
                let dw = degree[w];
                let pw = pos[w];
                let first = bins[dw];
                let u = order[first] as usize;
                if u != w {
                    order.swap(pw, first);
                    pos[w] = first;
                    pos[u] = pw;
                }
                bins[dw] += 1;
                degree[w] -= 1;
            }
        }
    }
    core
}

/// Degeneracy of the graph: the maximum core number (0 for an empty graph).
pub fn degeneracy(graph: &LabeledGraph) -> usize {
    core_numbers(graph).into_iter().max().unwrap_or(0)
}

/// `true` if the graph is bipartite (2-colourable); the empty graph is bipartite.
pub fn is_bipartite(graph: &LabeledGraph) -> bool {
    bipartition(graph).is_some()
}

/// A 2-colouring of the graph (`colors[v] ∈ {0, 1}`), or `None` if the graph contains
/// an odd cycle.
pub fn bipartition(graph: &LabeledGraph) -> Option<Vec<u8>> {
    let n = graph.num_vertices();
    let mut color = vec![u8::MAX; n];
    for start in 0..n {
        if color[start] != u8::MAX {
            continue;
        }
        color[start] = 0;
        let mut stack = vec![start as VertexId];
        while let Some(v) = stack.pop() {
            for &w in graph.neighbors(v) {
                if color[w as usize] == u8::MAX {
                    color[w as usize] = 1 - color[v as usize];
                    stack.push(w);
                } else if color[w as usize] == color[v as usize] {
                    return None;
                }
            }
        }
    }
    Some(color)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::Label;

    fn path5() -> LabeledGraph {
        LabeledGraph::from_edges(&[0, 0, 0, 0, 0], &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    fn two_triangles() -> LabeledGraph {
        LabeledGraph::from_edges(
            &[0, 0, 0, 0, 0, 0],
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        )
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path5();
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable_is_max() {
        let g = two_triangles();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[4], usize::MAX);
    }

    #[test]
    fn bfs_out_of_range_source() {
        let g = path5();
        assert!(bfs_distances(&g, 99).iter().all(|&d| d == usize::MAX));
    }

    #[test]
    fn eccentricity_and_diameter() {
        let g = path5();
        assert_eq!(eccentricity(&g, 0), 4);
        assert_eq!(eccentricity(&g, 2), 2);
        assert_eq!(diameter(&g), 4);
        assert_eq!(diameter(&two_triangles()), 1);
        assert_eq!(diameter(&LabeledGraph::new()), 0);
    }

    #[test]
    fn diameter_estimate_is_lower_bound_and_tight_on_paths() {
        let g = path5();
        let est = estimate_diameter(&g, 4);
        assert!(est <= diameter(&g));
        assert_eq!(est, 4); // double sweep is exact on trees
        let grid = generators::grid(6, 6, 2);
        assert!(estimate_diameter(&grid, 4) <= diameter(&grid));
    }

    #[test]
    fn component_extraction() {
        let g = two_triangles();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![0, 1, 2]);
        assert_eq!(comps[1], vec![3, 4, 5]);
        let (largest, back) = largest_component(&g);
        assert_eq!(largest.num_vertices(), 3);
        assert_eq!(back.len(), 3);
        let (empty, _) = largest_component(&LabeledGraph::new());
        assert!(empty.is_empty());
    }

    #[test]
    fn triangle_counts() {
        assert_eq!(triangle_count(&two_triangles()), 2);
        assert_eq!(triangle_count(&path5()), 0);
        let k4 = crate::patterns::uniform_clique(4, Label(0));
        assert_eq!(triangle_count(&k4), 4);
        assert_eq!(triangles_at(&k4, 0), 3);
    }

    #[test]
    fn clustering_coefficients() {
        let k4 = crate::patterns::uniform_clique(4, Label(0));
        assert!((average_clustering(&k4) - 1.0).abs() < 1e-12);
        assert!((global_clustering(&k4) - 1.0).abs() < 1e-12);
        assert_eq!(average_clustering(&path5()), 0.0);
        assert_eq!(global_clustering(&path5()), 0.0);
        assert_eq!(average_clustering(&LabeledGraph::new()), 0.0);
        // A wedge closed into a triangle plus a pendant edge.
        let g = LabeledGraph::from_edges(&[0, 0, 0, 0], &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        assert!(local_clustering(&g, 2) > 0.0 && local_clustering(&g, 2) < 1.0);
        assert_eq!(local_clustering(&g, 3), 0.0);
    }

    #[test]
    fn core_numbers_on_known_graphs() {
        let k4 = crate::patterns::uniform_clique(4, Label(0));
        assert_eq!(core_numbers(&k4), vec![3, 3, 3, 3]);
        assert_eq!(degeneracy(&k4), 3);
        assert_eq!(degeneracy(&path5()), 1);
        // Triangle with a pendant: pendant has core 1, triangle vertices core 2.
        let g = LabeledGraph::from_edges(&[0, 0, 0, 0], &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let cores = core_numbers(&g);
        assert_eq!(cores[3], 1);
        assert_eq!(cores[0], 2);
        assert_eq!(cores[1], 2);
        assert_eq!(cores[2], 2);
        assert!(core_numbers(&LabeledGraph::new()).is_empty());
    }

    #[test]
    fn bipartite_detection() {
        assert!(is_bipartite(&path5()));
        assert!(!is_bipartite(&two_triangles()));
        assert!(is_bipartite(&LabeledGraph::new()));
        let even_cycle = crate::patterns::cycle(&[Label(0); 4]);
        assert!(is_bipartite(&even_cycle));
        let colors = bipartition(&even_cycle).unwrap();
        for (u, v) in even_cycle.edges() {
            assert_ne!(colors[u as usize], colors[v as usize]);
        }
        let odd_cycle = crate::patterns::cycle(&[Label(0); 5]);
        assert!(bipartition(&odd_cycle).is_none());
    }
}
