//! End-to-end checks that the covering-LP presolve reduction rules (ffsm-lp) never
//! change the νMVC values of real occurrence hypergraphs built through the public
//! API.

use ffsm::core::{HypergraphBasis, OccurrenceSet};
use ffsm::graph::isomorphism::IsoConfig;
use ffsm::graph::{figures, generators};
use ffsm::hypergraph::vertex_cover::exact_vertex_cover;
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

    /// Random occurrence hypergraphs from random graphs/patterns: presolve never
    /// changes the relaxed optimum, which never exceeds the exact one.
    #[test]
    fn presolve_preserves_values_on_random_workloads(
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
        let direct = exact_vertex_cover(&h, SearchBudget::default());

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
