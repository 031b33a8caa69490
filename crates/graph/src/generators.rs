//! Random labeled-graph generators.
//!
//! These generators stand in for the real-world datasets used in the paper's
//! evaluation.  All of them are deterministic given a seed, so every experiment is
//! reproducible bit for bit.

use crate::{Label, LabeledGraph, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Assign labels uniformly at random from `0..num_labels`.
fn random_labels(n: usize, num_labels: u32, rng: &mut StdRng) -> Vec<u32> {
    (0..n).map(|_| rng.gen_range(0..num_labels.max(1))).collect()
}

/// G(n, m) Erdős–Rényi-style graph: `n` vertices, `m` distinct random edges, labels
/// drawn uniformly from an alphabet of `num_labels` symbols.
pub fn gnm_random(n: usize, m: usize, num_labels: u32, seed: u64) -> LabeledGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels = random_labels(n, num_labels, &mut rng);
    let mut g = LabeledGraph::with_capacity(n);
    for &l in &labels {
        g.add_vertex(Label(l));
    }
    if n < 2 {
        return g;
    }
    let max_edges = n * (n - 1) / 2;
    let target = m.min(max_edges);
    let mut added = 0usize;
    // Rejection sampling is fine for the sparse graphs used here.
    let mut guard = 0usize;
    while added < target && guard < 50 * target + 1000 {
        guard += 1;
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        if u == v {
            continue;
        }
        if g.add_edge(u, v).unwrap_or(false) {
            added += 1;
        }
    }
    g
}

/// Barabási–Albert preferential-attachment graph: power-law degree distribution,
/// `edges_per_node` new edges per arriving vertex.  Models social / citation graphs.
pub fn barabasi_albert(
    n: usize,
    edges_per_node: usize,
    num_labels: u32,
    seed: u64,
) -> LabeledGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = edges_per_node.max(1);
    let labels = random_labels(n, num_labels, &mut rng);
    let mut g = LabeledGraph::with_capacity(n);
    for &l in &labels {
        g.add_vertex(Label(l));
    }
    if n == 0 {
        return g;
    }
    // Seed clique of size m+1 (or the whole graph if tiny).
    let seed_size = (m + 1).min(n);
    for u in 0..seed_size {
        for v in (u + 1)..seed_size {
            g.add_edge(u as VertexId, v as VertexId).expect("edge");
        }
    }
    // Repeated-endpoint list for preferential attachment.
    let mut endpoints: Vec<VertexId> = Vec::new();
    for (u, v) in g.edges() {
        endpoints.push(u);
        endpoints.push(v);
    }
    for v in seed_size..n {
        // BTreeSet keeps the iteration order deterministic (a HashSet would make the
        // generator output depend on the process hash seed).
        let mut targets = std::collections::BTreeSet::new();
        let mut guard = 0;
        while targets.len() < m.min(v) && guard < 100 * m + 100 {
            guard += 1;
            let t = if endpoints.is_empty() {
                rng.gen_range(0..v) as VertexId
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if (t as usize) < v {
                targets.insert(t);
            }
        }
        for &t in &targets {
            if g.add_edge(v as VertexId, t).unwrap_or(false) {
                endpoints.push(v as VertexId);
                endpoints.push(t);
            }
        }
    }
    g
}

/// Two-dimensional grid graph of `rows × cols` vertices; labels cycle through the
/// alphabet row-major, giving a highly regular structure with many overlapping
/// pattern occurrences.
pub fn grid(rows: usize, cols: usize, num_labels: u32) -> LabeledGraph {
    let mut g = LabeledGraph::with_capacity(rows * cols);
    for i in 0..rows * cols {
        g.add_vertex(Label((i as u32) % num_labels.max(1)));
    }
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1)).expect("edge");
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c)).expect("edge");
            }
        }
    }
    g
}

/// Planted-partition / community graph: `communities` groups of `community_size`
/// vertices; intra-community edges with probability `p_in`, inter-community edges
/// with probability `p_out`.  Each community draws labels from a community-specific
/// slice of the alphabet, which creates label-correlated structure (as in social or
/// protein-interaction graphs).
pub fn community_graph(
    communities: usize,
    community_size: usize,
    p_in: f64,
    p_out: f64,
    num_labels: u32,
    seed: u64,
) -> LabeledGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = communities * community_size;
    let mut g = LabeledGraph::with_capacity(n);
    let num_labels = num_labels.max(1);
    for i in 0..n {
        let comm = (i / community_size.max(1)) as u32;
        // Community biases which labels are common.
        let l = if rng.gen_bool(0.7) {
            (comm * 2 + rng.gen_range(0..2)) % num_labels
        } else {
            rng.gen_range(0..num_labels)
        };
        g.add_vertex(Label(l));
    }
    for u in 0..n {
        for v in (u + 1)..n {
            let same = u / community_size.max(1) == v / community_size.max(1);
            let p = if same { p_in } else { p_out };
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(u as VertexId, v as VertexId).expect("edge");
            }
        }
    }
    g
}

/// Overlap-heavy "double star" family generalising the paper's Figure 6: `hubs` hub
/// vertices of label 0 that all connect to `leaves` shared leaf vertices of label 1.
/// The single-edge pattern `L0 — L1` then has `hubs × leaves` occurrences but only
/// `min(hubs, leaves)`-ish independent ones, which is the regime where MNI
/// over-estimates most dramatically.
pub fn star_overlap(hubs: usize, leaves: usize) -> LabeledGraph {
    let mut g = LabeledGraph::with_capacity(hubs + leaves);
    let hub_ids: Vec<VertexId> = (0..hubs).map(|_| g.add_vertex(Label(0))).collect();
    let leaf_ids: Vec<VertexId> = (0..leaves).map(|_| g.add_vertex(Label(1))).collect();
    for &h in &hub_ids {
        for &l in &leaf_ids {
            g.add_edge(h, l).expect("edge");
        }
    }
    g
}

/// A disjoint union of `count` copies of `component`, optionally linked into a chain
/// by single bridge edges (so that the result is connected when `connect` is true).
pub fn replicated(component: &LabeledGraph, count: usize, connect: bool) -> LabeledGraph {
    let n = component.num_vertices();
    let mut g = LabeledGraph::with_capacity(n * count);
    for _ in 0..count {
        let offset = g.num_vertices() as VertexId;
        for v in component.vertices() {
            g.add_vertex(component.label(v));
        }
        for (u, v) in component.edges() {
            g.add_edge(offset + u, offset + v).expect("edge");
        }
    }
    if connect && n > 0 {
        for i in 1..count {
            let prev_last = (i * n - 1) as VertexId;
            let this_first = (i * n) as VertexId;
            g.add_edge(prev_last, this_first).expect("bridge edge");
        }
    }
    g
}

/// Sample a connected pattern of `num_edges` edges from `graph` by a random edge walk.
/// Returns the pattern together with the data-graph vertices it was sampled from, or
/// `None` if the graph has no edges.  Sampled patterns are guaranteed to have at least
/// one occurrence in `graph`, which keeps experiment workloads non-trivial.
pub fn sample_pattern(
    graph: &LabeledGraph,
    num_edges: usize,
    seed: u64,
) -> Option<(LabeledGraph, Vec<VertexId>)> {
    if graph.num_edges() == 0 || num_edges == 0 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let all_edges: Vec<(VertexId, VertexId)> = graph.edges().collect();
    let &(su, sv) = all_edges.choose(&mut rng)?;
    let mut vertices: Vec<VertexId> = vec![su, sv];
    let mut edges: Vec<(VertexId, VertexId)> = vec![(su, sv)];
    let mut guard = 0;
    while edges.len() < num_edges && guard < 100 * num_edges + 100 {
        guard += 1;
        // Pick a random frontier edge incident to the current vertex set.
        let &v = vertices.choose(&mut rng)?;
        let neighbors = graph.neighbors(v);
        if neighbors.is_empty() {
            continue;
        }
        let &w = neighbors.choose(&mut rng)?;
        let e = if v < w { (v, w) } else { (w, v) };
        if edges.contains(&e) {
            continue;
        }
        edges.push(e);
        if !vertices.contains(&w) {
            vertices.push(w);
        }
    }
    vertices.sort_unstable();
    vertices.dedup();
    let mut pattern = LabeledGraph::with_capacity(vertices.len());
    let mut map = std::collections::HashMap::new();
    for &v in &vertices {
        let id = pattern.add_vertex(graph.label(v));
        map.insert(v, id);
    }
    for &(u, v) in &edges {
        pattern.add_edge(map[&u], map[&v]).expect("edge");
    }
    Some((pattern, vertices))
}

/// Holme–Kim-style power-law cluster graph: preferential attachment where each new
/// edge is followed, with probability `triad_p`, by a "triad formation" edge closing a
/// triangle.  Produces the high-clustering, heavy-tailed structure of social graphs —
/// the regime where occurrence overlap (and hence MNI over-estimation) is strongest.
pub fn power_law_cluster(
    n: usize,
    edges_per_node: usize,
    triad_p: f64,
    num_labels: u32,
    seed: u64,
) -> LabeledGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = edges_per_node.max(1);
    let labels = random_labels(n, num_labels, &mut rng);
    let mut g = LabeledGraph::with_capacity(n);
    for &l in &labels {
        g.add_vertex(Label(l));
    }
    if n == 0 {
        return g;
    }
    let seed_size = (m + 1).min(n);
    for u in 0..seed_size {
        for v in (u + 1)..seed_size {
            g.add_edge(u as VertexId, v as VertexId).expect("edge");
        }
    }
    let mut endpoints: Vec<VertexId> = Vec::new();
    for (u, v) in g.edges() {
        endpoints.push(u);
        endpoints.push(v);
    }
    for v in seed_size..n {
        let mut added_targets: Vec<VertexId> = Vec::new();
        let mut guard = 0;
        while added_targets.len() < m.min(v) && guard < 100 * m + 100 {
            guard += 1;
            // Triad step: close a triangle through a neighbour of the last target.
            if !added_targets.is_empty() && rng.gen_bool(triad_p.clamp(0.0, 1.0)) {
                let &last = added_targets.last().expect("non-empty");
                let ns = g.neighbors(last);
                if !ns.is_empty() {
                    let w = ns[rng.gen_range(0..ns.len())];
                    if (w as usize) < v
                        && w != v as VertexId
                        && g.add_edge(v as VertexId, w).unwrap_or(false)
                    {
                        endpoints.push(v as VertexId);
                        endpoints.push(w);
                        added_targets.push(w);
                        continue;
                    }
                }
            }
            // Preferential-attachment step.
            let t = if endpoints.is_empty() {
                rng.gen_range(0..v) as VertexId
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if (t as usize) < v && g.add_edge(v as VertexId, t).unwrap_or(false) {
                endpoints.push(v as VertexId);
                endpoints.push(t);
                added_targets.push(t);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnm_respects_parameters() {
        let g = gnm_random(100, 300, 5, 42);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 300);
        assert!(g.distinct_labels().len() <= 5);
        // determinism
        let g2 = gnm_random(100, 300, 5, 42);
        assert_eq!(g, g2);
        let g3 = gnm_random(100, 300, 5, 43);
        assert_ne!(g, g3);
    }

    #[test]
    fn gnm_caps_at_complete_graph() {
        let g = gnm_random(5, 100, 2, 1);
        assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn barabasi_albert_is_connected_and_skewed() {
        let g = barabasi_albert(200, 2, 4, 9);
        assert_eq!(g.num_vertices(), 200);
        assert!(g.is_connected());
        // Power-law-ish: the max degree should be well above the average.
        assert!(g.max_degree() as f64 > 2.0 * g.average_degree());
    }

    #[test]
    fn grid_shape() {
        let g = grid(4, 5, 3);
        assert_eq!(g.num_vertices(), 20);
        assert_eq!(g.num_edges(), 4 * 4 + 5 * 3); // rows*(cols-1) + cols*(rows-1)
        assert!(g.is_connected());
    }

    #[test]
    fn community_graph_denser_inside() {
        let g = community_graph(4, 20, 0.3, 0.01, 8, 3);
        assert_eq!(g.num_vertices(), 80);
        let mut intra = 0usize;
        let mut inter = 0usize;
        for (u, v) in g.edges() {
            if u / 20 == v / 20 {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        assert!(intra > inter);
    }

    #[test]
    fn star_overlap_structure() {
        let g = star_overlap(2, 4);
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 8);
        assert_eq!(g.vertices_with_label(Label(0)).len(), 2);
        assert_eq!(g.vertices_with_label(Label(1)).len(), 4);
    }

    #[test]
    fn replicated_components() {
        let tri = LabeledGraph::from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
        let g = replicated(&tri, 5, false);
        assert_eq!(g.num_vertices(), 15);
        assert_eq!(g.num_edges(), 15);
        assert_eq!(g.num_components(), 5);
        let linked = replicated(&tri, 5, true);
        assert_eq!(linked.num_components(), 1);
        assert_eq!(linked.num_edges(), 15 + 4);
    }

    #[test]
    fn sampled_pattern_occurs_in_source() {
        let g = barabasi_albert(100, 3, 4, 11);
        let (p, verts) = sample_pattern(&g, 4, 5).expect("pattern");
        assert!(p.is_connected());
        assert!(p.num_edges() >= 1 && p.num_edges() <= 4);
        assert_eq!(p.num_vertices(), verts.len());
        assert!(crate::isomorphism::has_embedding(&p, &g));
    }

    #[test]
    fn power_law_cluster_is_clustered() {
        let plc = power_law_cluster(200, 2, 0.8, 4, 13);
        let ba = barabasi_albert(200, 2, 4, 13);
        assert_eq!(plc.num_vertices(), 200);
        assert!(plc.is_connected());
        // Triad formation should produce noticeably more triangles than plain BA.
        assert!(crate::algorithms::triangle_count(&plc) > crate::algorithms::triangle_count(&ba));
        assert_eq!(power_law_cluster(200, 2, 0.8, 4, 13), plc); // deterministic
    }

    #[test]
    fn sample_pattern_edge_cases() {
        let empty = LabeledGraph::new();
        assert!(sample_pattern(&empty, 3, 1).is_none());
        let one_edge = LabeledGraph::from_edges(&[0, 1], &[(0, 1)]);
        assert!(sample_pattern(&one_edge, 0, 1).is_none());
        let (p, _) = sample_pattern(&one_edge, 3, 1).unwrap();
        assert_eq!(p.num_edges(), 1);
    }
}
