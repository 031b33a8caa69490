//! Workload definitions shared by the `experiments` tables and the `bench` suites.
//!
//! Each workload is deterministic (seeded) so that every run measures the same
//! inputs.

use ffsm_core::occurrences::OccurrenceSet;
use ffsm_graph::isomorphism::IsoConfig;
use ffsm_graph::{datasets, generators, patterns, Label, LabeledGraph, Pattern};

/// A named query pattern.
#[derive(Debug, Clone)]
pub struct NamedPattern {
    /// Short name used in tables (e.g. `"triangle"`).
    pub name: String,
    /// The pattern.
    pub pattern: Pattern,
}

impl NamedPattern {
    fn new(name: &str, pattern: Pattern) -> Self {
        NamedPattern { name: name.to_string(), pattern }
    }
}

/// The standard query-pattern suite used by the value-spectrum experiments (E3):
/// shapes of growing size over a small label alphabet, chosen so that each shape
/// actually occurs in the standard datasets.
pub fn pattern_suite() -> Vec<NamedPattern> {
    vec![
        NamedPattern::new("edge(0-0)", patterns::single_edge(Label(0), Label(0))),
        NamedPattern::new("edge(0-1)", patterns::single_edge(Label(0), Label(1))),
        NamedPattern::new("path3(0-0-0)", patterns::uniform_path(3, Label(0))),
        NamedPattern::new("path3(0-1-0)", patterns::path(&[Label(0), Label(1), Label(0)])),
        NamedPattern::new("star3(0;1)", patterns::uniform_star(3, Label(0), Label(1))),
        NamedPattern::new("triangle(0,0,0)", patterns::uniform_clique(3, Label(0))),
        NamedPattern::new("path4(0-0-0-0)", patterns::uniform_path(4, Label(0))),
        NamedPattern::new(
            "cycle4(0,1,0,1)",
            patterns::cycle(&[Label(0), Label(1), Label(0), Label(1)]),
        ),
    ]
}

/// The standard data-graph suite (domain-flavoured synthetic graphs).
pub fn dataset_suite(seed: u64) -> Vec<datasets::Dataset> {
    datasets::standard_suite(seed)
}

/// A reduced data-graph suite for quick runs and benches.
pub fn small_dataset_suite(seed: u64) -> Vec<datasets::Dataset> {
    datasets::small_suite(seed)
}

/// The overlap-heavy workload of experiment E4: a `hubs × leaves` double star whose
/// single-edge pattern has `hubs · leaves` occurrences; the number of occurrences is
/// the independent variable of the runtime experiment.
pub fn star_overlap_workload(occurrences: usize) -> (LabeledGraph, Pattern) {
    // hubs * leaves = occurrences, keep the shape roughly square.
    let hubs = (occurrences as f64).sqrt().ceil() as usize;
    let leaves = occurrences.div_ceil(hubs.max(1));
    (
        generators::star_overlap(hubs.max(1), leaves.max(1)),
        patterns::single_edge(Label(0), Label(1)),
    )
}

/// The occurrence-count grid of the `overlap_scaling` bench (`BENCH_overlap.json`):
/// powers of two from 64 up to `max`, so successive points double the naive builder's
/// pair count and the log-log trajectory of naive vs. indexed is easy to read.
pub fn overlap_scaling_sizes(max: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut m = 64usize;
    while m <= max {
        sizes.push(m);
        m *= 2;
    }
    sizes
}

/// The candidate-pruning workload of the `match_scaling` bench: a 4-cycle pattern
/// `A-B-C-D-A` against a graph holding a few *real* cycles plus a large layered
/// **decoy block** — four layers of `layer_size` vertices labelled `A,B,C,D` with
/// complete bipartite edges `A–B`, `B–C`, `C–D` but **no** closing `D–A` edges.
///
/// The naive enumerator walks `Θ(layer_size⁴)` partial paths through the block
/// before each one fails to close; the candidate-space engine deletes the entire
/// block before searching (the decoy `A`/`D` layers fail the neighbour-label
/// fingerprint, and the refinement sweep then peels `B` and `C`).  The true
/// embedding count is exactly `real_cycles`: a 4-cycle over four distinct labels
/// has a unique occurrence per disjoint copy.
pub fn decoy_cycle_workload(layer_size: usize, real_cycles: usize) -> (LabeledGraph, Pattern) {
    let mut graph = LabeledGraph::with_capacity(4 * layer_size + 4 * real_cycles);
    // Decoy layers: vertex `layer * layer_size + i` has label `layer`.
    for layer in 0..4u32 {
        for _ in 0..layer_size {
            graph.add_vertex(Label(layer));
        }
    }
    let vertex = |layer: usize, i: usize| (layer * layer_size + i) as u32;
    for layer in 0..3 {
        for i in 0..layer_size {
            for j in 0..layer_size {
                graph.add_edge(vertex(layer, i), vertex(layer + 1, j)).expect("decoy edge");
            }
        }
    }
    // Real cycles, disjoint from the block and from each other.
    for _ in 0..real_cycles {
        let a = graph.add_vertex(Label(0));
        let b = graph.add_vertex(Label(1));
        let c = graph.add_vertex(Label(2));
        let d = graph.add_vertex(Label(3));
        for (u, v) in [(a, b), (b, c), (c, d), (d, a)] {
            graph.add_edge(u, v).expect("real cycle edge");
        }
    }
    (graph, patterns::cycle(&[Label(0), Label(1), Label(2), Label(3)]))
}

/// The embedding-heavy workload of the `match` suite: `copies` disjoint
/// 4-cliques of one label, queried with the one-label triangle — every copy
/// contributes `4·3·2 = 24` embeddings, so enumeration cost is dominated by
/// emitting embeddings rather than pruning.
pub fn dense_triangle_workload(copies: usize) -> (LabeledGraph, Pattern) {
    let clique = patterns::uniform_clique(4, Label(0));
    (generators::replicated(&clique, copies, false), patterns::uniform_clique(3, Label(0)))
}

/// The dense-community workload of the `match_scaling` bench: two equal random
/// communities of `community_size` vertices over only **two** labels, dense inside
/// (`p = 0.85`) and well-connected across (`p = 0.4`), queried with the
/// alternating-label 4-cycle `0-1-0-1`.
///
/// This is the matcher pathology the dense-graph fix targets: with two labels the
/// label filter prunes almost nothing, candidate sets stay at ~half the graph, and
/// at `community_size = 32` the average degree clears the hub-bitset gate
/// (`ffsm_match` builds adjacency bitsets for vertices of degree ≥ 32 in graphs of
/// ≤ 8192 vertices), so the word-parallel pool intersection — not the label
/// pruning — carries the search.  The seed fixed at `0xd5` keeps every run on the
/// same graph.
pub fn dense_community_workload(community_size: usize) -> (LabeledGraph, Pattern) {
    (
        generators::community_graph(2, community_size, 0.85, 0.4, 2, 0xd5),
        patterns::cycle(&[Label(0), Label(1), Label(0), Label(1)]),
    )
}

/// The layer-size grid of the `match_scaling` bench: doubling from 8 up to `max`.
pub fn match_scaling_sizes(max: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut m = 8usize;
    while m <= max {
        sizes.push(m);
        m *= 2;
    }
    sizes
}

/// Enumerate the occurrences of `pattern` in `graph` with a bounded budget (shared by
/// all experiments so values are comparable).
pub fn enumerate(pattern: &Pattern, graph: &LabeledGraph, max_embeddings: usize) -> OccurrenceSet {
    OccurrenceSet::enumerate(pattern, graph, IsoConfig::with_limit(max_embeddings))
}

/// An anti-monotonicity chain workload (E6): starting from a sampled edge of `graph`,
/// grow the pattern one edge at a time and return the chain of patterns (each a
/// subpattern of the next).
pub fn extension_chain(graph: &LabeledGraph, max_edges: usize, seed: u64) -> Vec<Pattern> {
    let mut chain = Vec::new();
    for edges in 1..=max_edges {
        if let Some((p, _)) = generators::sample_pattern(graph, edges, seed) {
            // `sample_pattern` with the same seed explores the same random walk, so
            // successive patterns are (weakly) nested; only keep strictly growing ones.
            if chain.last().map(|prev: &Pattern| p.num_edges() > prev.num_edges()).unwrap_or(true) {
                chain.push(p);
            }
        }
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_suite_is_well_formed() {
        let suite = pattern_suite();
        assert!(suite.len() >= 8);
        for p in &suite {
            assert!(p.pattern.num_edges() >= 1, "{} has no edges", p.name);
            assert!(p.pattern.is_connected(), "{} is disconnected", p.name);
        }
    }

    #[test]
    fn star_overlap_workload_has_requested_occurrences() {
        for target in [16usize, 100, 400] {
            let (g, p) = star_overlap_workload(target);
            let occ = enumerate(&p, &g, 1_000_000);
            assert!(occ.num_occurrences() >= target);
            assert!(occ.num_occurrences() <= target + 2 * (target as f64).sqrt() as usize + 2);
        }
    }

    #[test]
    fn overlap_scaling_sizes_double_up_to_the_cap() {
        assert_eq!(overlap_scaling_sizes(512), vec![64, 128, 256, 512]);
        assert_eq!(overlap_scaling_sizes(700), vec![64, 128, 256, 512]);
        assert!(overlap_scaling_sizes(32).is_empty());
    }

    #[test]
    fn decoy_cycle_workload_has_exactly_the_real_embeddings() {
        let (g, p) = decoy_cycle_workload(6, 5);
        assert_eq!(g.num_vertices(), 4 * 6 + 4 * 5);
        assert_eq!(g.num_edges(), 3 * 36 + 4 * 5);
        let occ = enumerate(&p, &g, 1_000_000);
        assert!(occ.is_complete());
        assert_eq!(occ.num_occurrences(), 5);
    }

    #[test]
    fn dense_triangle_workload_scales_linearly() {
        let (g, p) = dense_triangle_workload(7);
        let occ = enumerate(&p, &g, 1_000_000);
        assert_eq!(occ.num_occurrences(), 7 * 24);
    }

    #[test]
    fn dense_community_workload_is_dense_and_two_labeled() {
        let (g, p) = dense_community_workload(32);
        assert_eq!(g.num_vertices(), 64);
        // Average degree clears the hub-bitset gate of `ffsm_match` (>= 32).
        assert!(2 * g.num_edges() >= 32 * g.num_vertices(), "{} edges", g.num_edges());
        assert!((0..g.num_vertices() as u32).all(|v| g.label(v).0 < 2));
        assert_eq!(p.num_vertices(), 4);
        assert_eq!(p.num_edges(), 4);
        let occ = enumerate(&p, &g, 2_000_000);
        assert!(occ.is_complete());
        assert!(occ.num_occurrences() > 0);
    }

    #[test]
    fn match_scaling_sizes_double_up_to_the_cap() {
        assert_eq!(match_scaling_sizes(32), vec![8, 16, 32]);
        assert_eq!(match_scaling_sizes(40), vec![8, 16, 32]);
        assert!(match_scaling_sizes(4).is_empty());
    }

    #[test]
    fn extension_chain_is_growing() {
        let g = generators::barabasi_albert(120, 3, 3, 5);
        let chain = extension_chain(&g, 4, 9);
        assert!(!chain.is_empty());
        for w in chain.windows(2) {
            assert!(w[1].num_edges() > w[0].num_edges());
        }
    }

    #[test]
    fn dataset_suites_available() {
        assert_eq!(dataset_suite(1).len(), 4);
        assert_eq!(small_dataset_suite(1).len(), 4);
    }
}
