//! Domain-flavoured synthetic datasets.
//!
//! The SIGMOD'17 evaluation of this paper runs on large real graphs (biological,
//! citation and social networks).  Those datasets are not redistributable here, so we
//! provide generators that mimic their *relevant* characteristics — label-alphabet
//! size, degree distribution and the amount of occurrence overlap — which are the
//! properties the support measures are sensitive to.
//!
//! Every dataset is deterministic in its seed.

use crate::generators;
use crate::{Label, LabeledGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A named dataset: the graph plus a human-readable description used by the
/// experiment harness when printing tables.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Short identifier (e.g. `"chemical"`).
    pub name: String,
    /// The data graph.
    pub graph: LabeledGraph,
    /// One-line description (size, flavour).
    pub description: String,
}

impl Dataset {
    fn new(name: &str, graph: LabeledGraph, description: String) -> Self {
        Dataset { name: name.to_string(), graph, description }
    }
}

/// Chemical-compound-like graph: a "molecule soup" of many small ring-and-chain
/// fragments over a small atom alphabet (C, N, O, S, …).  Low degrees, few labels,
/// many repeated substructures — the regime where instance counts are meaningful and
/// automorphism-induced overlap (Figure 2) is common.
pub fn chemical_like(num_molecules: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    // Atom alphabet: 0 = C (frequent), 1 = N, 2 = O, 3 = S (rare).
    let mut g = LabeledGraph::with_capacity(num_molecules * 8);
    for _ in 0..num_molecules {
        let ring_size = rng.gen_range(3..=6);
        let ring_start = g.num_vertices() as VertexId;
        for _ in 0..ring_size {
            let l = match rng.gen_range(0..10) {
                0..=5 => 0, // carbon-like
                6..=7 => 1,
                8 => 2,
                _ => 3,
            };
            g.add_vertex(Label(l));
        }
        for i in 0..ring_size {
            let u = ring_start + i as VertexId;
            let v = ring_start + ((i + 1) % ring_size) as VertexId;
            g.add_edge(u, v).expect("ring edge");
        }
        // Attach a short side chain.
        let chain_len = rng.gen_range(0..=3);
        let mut attach = ring_start + rng.gen_range(0..ring_size) as VertexId;
        for _ in 0..chain_len {
            let l = if rng.gen_bool(0.7) { 0 } else { rng.gen_range(1..4) };
            let nv = g.add_vertex(Label(l));
            g.add_edge(attach, nv).expect("chain edge");
            attach = nv;
        }
    }
    let desc = format!(
        "chemical-like molecule soup: {} vertices, {} edges, {} labels",
        g.num_vertices(),
        g.num_edges(),
        g.distinct_labels().len()
    );
    Dataset::new("chemical", g, desc)
}

/// Social-network-like graph: Barabási–Albert preferential attachment with labels
/// assigned by degree bucket (hubs get rare labels), mirroring how node roles
/// correlate with connectivity in social graphs.  High-degree hubs create exactly the
/// partial-overlap situation of Figure 6 where MNI and MI over-estimate.
pub fn social_like(num_vertices: usize, seed: u64) -> Dataset {
    let base = generators::barabasi_albert(num_vertices, 3, 1, seed);
    // Relabel by degree bucket.
    let mut g = LabeledGraph::with_capacity(num_vertices);
    for v in base.vertices() {
        let d = base.degree(v);
        let label = match d {
            0..=3 => 0,
            4..=8 => 1,
            9..=20 => 2,
            _ => 3,
        };
        g.add_vertex(Label(label));
    }
    for (u, v) in base.edges() {
        g.add_edge(u, v).expect("edge");
    }
    let desc = format!(
        "social-like BA graph: {} vertices, {} edges, labels by degree bucket",
        g.num_vertices(),
        g.num_edges()
    );
    Dataset::new("social", g, desc)
}

/// Citation-like graph: layered structure (papers by "year"), edges predominantly go
/// to earlier layers, labels encode venue-like classes.
pub fn citation_like(num_vertices: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers = 10usize;
    let per_layer = (num_vertices / layers).max(1);
    let mut g = LabeledGraph::with_capacity(num_vertices);
    for i in 0..num_vertices {
        let venue = (i % 5) as u32;
        let _ = i / per_layer; // layer index, implicit in the id ordering
        g.add_vertex(Label(venue));
    }
    for v in 0..num_vertices {
        let layer = v / per_layer;
        if layer == 0 {
            continue;
        }
        let refs = rng.gen_range(1..=4);
        for _ in 0..refs {
            let target_layer = rng.gen_range(0..layer);
            let t = target_layer * per_layer + rng.gen_range(0..per_layer);
            if t < num_vertices && t != v {
                let _ = g.add_edge(v as VertexId, t as VertexId);
            }
        }
    }
    let desc = format!(
        "citation-like layered graph: {} vertices, {} edges, 5 venue labels",
        g.num_vertices(),
        g.num_edges()
    );
    Dataset::new("citation", g, desc)
}

/// Protein-interaction-like graph: dense communities (complexes) with sparse
/// inter-community links; labels encode protein families.
pub fn protein_like(num_complexes: usize, complex_size: usize, seed: u64) -> Dataset {
    let g = generators::community_graph(num_complexes, complex_size, 0.35, 0.01, 6, seed);
    let desc = format!(
        "protein-like community graph: {} complexes of {} proteins, {} edges",
        num_complexes,
        complex_size,
        g.num_edges()
    );
    Dataset::new("protein", g, desc)
}

/// The standard benchmark suite used by the experiment harness: one dataset per
/// domain flavour at roughly comparable sizes.
pub fn standard_suite(seed: u64) -> Vec<Dataset> {
    vec![
        chemical_like(150, seed),
        social_like(800, seed.wrapping_add(1)),
        citation_like(600, seed.wrapping_add(2)),
        protein_like(12, 25, seed.wrapping_add(3)),
    ]
}

/// A small suite (used by unit tests and quick example runs).
pub fn small_suite(seed: u64) -> Vec<Dataset> {
    vec![
        chemical_like(25, seed),
        social_like(150, seed.wrapping_add(1)),
        citation_like(120, seed.wrapping_add(2)),
        protein_like(5, 12, seed.wrapping_add(3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chemical_has_small_alphabet_and_low_degree() {
        let d = chemical_like(50, 7);
        assert!(d.graph.distinct_labels().len() <= 4);
        assert!(d.graph.max_degree() <= 8);
        assert!(d.graph.num_vertices() >= 150);
        assert_eq!(d.name, "chemical");
    }

    #[test]
    fn social_has_hubs() {
        let d = social_like(400, 3);
        assert!(d.graph.max_degree() > 15);
        assert!(d.graph.is_connected());
    }

    #[test]
    fn citation_is_layered_and_sparse() {
        let d = citation_like(300, 5);
        assert_eq!(d.graph.num_vertices(), 300);
        assert!(d.graph.average_degree() < 10.0);
    }

    #[test]
    fn protein_is_community_structured() {
        let d = protein_like(6, 15, 1);
        assert_eq!(d.graph.num_vertices(), 90);
        assert!(d.graph.num_edges() > 100);
    }

    #[test]
    fn suites_are_deterministic() {
        let a = standard_suite(99);
        let b = standard_suite(99);
        assert_eq!(a.len(), 4);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.graph, y.graph);
        }
        let s = small_suite(99);
        assert_eq!(s.len(), 4);
        assert!(s[1].graph.num_vertices() < a[1].graph.num_vertices());
    }
}
