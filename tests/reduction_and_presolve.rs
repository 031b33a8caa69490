//! End-to-end checks that the vertex-cover kernelization (ffsm-hypergraph) and the
//! covering-LP presolve (ffsm-lp) never change the MVC / νMVC values of real
//! occurrence hypergraphs built through the public API.

use ffsm::core::{HypergraphBasis, OccurrenceSet};
use ffsm::graph::isomorphism::IsoConfig;
use ffsm::graph::{figures, generators, patterns, Label};
use ffsm::hypergraph::reduction::{reduce_for_vertex_cover, reduced_exact_vertex_cover};
use ffsm::hypergraph::vertex_cover::{exact_vertex_cover, is_vertex_cover};
use ffsm::hypergraph::{Hypergraph, SearchBudget};
use ffsm::lp::{covering_lp, presolve_covering};
use proptest::prelude::*;

fn occurrence_hypergraph(
    pattern: &ffsm::graph::Pattern,
    graph: &ffsm::graph::LabeledGraph,
) -> Hypergraph {
    OccurrenceSet::enumerate(pattern, graph, IsoConfig::with_limit(1_500))
        .hypergraph(HypergraphBasis::Occurrence)
}

#[test]
fn reduction_preserves_mvc_on_paper_figures() {
    for example in figures::all_figures() {
        let h = occurrence_hypergraph(&example.pattern, &example.graph);
        if h.is_empty() {
            continue;
        }
        let direct = exact_vertex_cover(&h, SearchBudget::default());
        let reduced = reduced_exact_vertex_cover(&h, SearchBudget::default());
        assert_eq!(direct.value, reduced.value, "figure {}", example.name);
        assert!(is_vertex_cover(&h, &reduced.witness), "figure {}", example.name);
    }
}

#[test]
fn reduction_shrinks_overlap_heavy_instances() {
    // star_overlap(4, 6) queried with the leaf-hub-leaf wedge: every occurrence image
    // {hub, leaf, leaf} is hit by two embeddings (the wedge's automorphism swaps the
    // leaves), so half the hyperedges are duplicates and the duplicate-edge rule
    // halves the instance.
    let graph = generators::star_overlap(4, 6);
    let pattern = patterns::path(&[Label(1), Label(0), Label(1)]);
    let h = occurrence_hypergraph(&pattern, &graph);
    assert_eq!(h.num_edges(), 4 * 6 * 5); // ordered leaf pairs per hub
    let reduced = reduce_for_vertex_cover(&h);
    assert!(reduced.hypergraph.num_edges() < h.num_edges());
    assert_eq!(reduced.hypergraph.num_edges(), 4 * 6 * 5 / 2);
    let direct = exact_vertex_cover(&h, SearchBudget::default());
    assert_eq!(reduced_exact_vertex_cover(&h, SearchBudget::default()).value, direct.value);
    assert_eq!(direct.value, 4); // the four hubs form a minimum cover
}

#[test]
fn lp_presolve_preserves_relaxed_mvc_on_figures() {
    for example in figures::all_figures() {
        let h = occurrence_hypergraph(&example.pattern, &example.graph);
        if h.is_empty() {
            continue;
        }
        let sets: Vec<Vec<usize>> = h.edges().map(|(_, e)| e.to_vec()).collect();
        let direct = covering_lp(h.num_vertices(), &sets).solve().unwrap().objective;
        let presolved =
            presolve_covering(h.num_vertices(), &sets).solve(h.num_vertices()).unwrap().objective;
        assert!(
            (direct - presolved).abs() < 1e-6,
            "figure {}: direct {direct} presolved {presolved}",
            example.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random occurrence hypergraphs from random graphs/patterns: reduction and
    /// presolve never change the exact or relaxed optimum.
    #[test]
    fn reduction_and_presolve_preserve_values_on_random_workloads(
        n in 10usize..40,
        m in 10usize..80,
        labels in 1u32..3,
        pattern_edges in 1usize..3,
        seed in 0u64..500,
    ) {
        let graph = generators::gnm_random(n, m, labels, seed);
        let Some((pattern, _)) = generators::sample_pattern(&graph, pattern_edges, seed + 1) else {
            return Ok(());
        };
        let h = occurrence_hypergraph(&pattern, &graph);
        if h.is_empty() {
            return Ok(());
        }
        let budget = SearchBudget::default();
        let direct = exact_vertex_cover(&h, budget);
        let reduced = reduced_exact_vertex_cover(&h, budget);
        if direct.optimal && reduced.optimal {
            prop_assert_eq!(direct.value, reduced.value);
        }
        prop_assert!(is_vertex_cover(&h, &reduced.witness));

        let sets: Vec<Vec<usize>> = h.edges().map(|(_, e)| e.to_vec()).collect();
        let direct_lp = covering_lp(h.num_vertices(), &sets).solve().unwrap().objective;
        let presolved_lp = presolve_covering(h.num_vertices(), &sets)
            .solve(h.num_vertices())
            .unwrap()
            .objective;
        prop_assert!((direct_lp - presolved_lp).abs() < 1e-6);
        // Sanity: the LP relaxation never exceeds the integral optimum.
        prop_assert!(direct_lp <= direct.value as f64 + 1e-6);
    }
}
