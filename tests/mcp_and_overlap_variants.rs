//! Cross-crate checks for the MCP measure and the overlap-notion variants:
//! ordering against MIS/MVC, behaviour under the MeasureKind API, and consistency of
//! the overlap census across the dataset suite.

use ffsm::core::measures::{MeasureConfig, MeasureKind, SupportMeasures};
use ffsm::core::{OccurrenceSet, OverlapAnalysis, OverlapKind};
use ffsm::graph::isomorphism::IsoConfig;
use ffsm::graph::{datasets, figures, generators, patterns, Label};
use ffsm::hypergraph::SearchBudget;
use proptest::prelude::*;

fn calculator(
    pattern: &ffsm::graph::Pattern,
    graph: &ffsm::graph::LabeledGraph,
    limit: usize,
) -> SupportMeasures<'static> {
    let occ = OccurrenceSet::enumerate(pattern, graph, IsoConfig::with_limit(limit));
    SupportMeasures::new(occ, MeasureConfig::default())
}

#[test]
fn mcp_sits_above_mis_on_figures_and_datasets() {
    for example in figures::all_figures() {
        let m = calculator(&example.pattern, &example.graph, 100_000);
        let mis = m.mis();
        let mcp = m.mcp();
        assert!(mis.optimal && mcp.optimal, "truncated on {}", example.name);
        assert!(mis.value <= mcp.value, "figure {}", example.name);
    }
    for dataset in datasets::small_suite(9) {
        let pattern = patterns::single_edge(Label(0), Label(1));
        // A few hundred occurrences are plenty to exercise MCP vs MIS; the exact
        // clique-partition search is exponential in the overlap-graph size.
        let m = calculator(&pattern, &dataset.graph, 250);
        if m.occurrence_count() == 0 {
            continue;
        }
        let mis = m.mis();
        let mcp = m.mcp();
        if mis.optimal && mcp.optimal {
            assert!(mis.value <= mcp.value, "dataset {}", dataset.name);
        }
    }
}

#[test]
fn measure_kind_mcp_matches_direct_call() {
    let fig = figures::figure6();
    let m = calculator(&fig.pattern, &fig.graph, 10_000);
    assert_eq!(m.compute(MeasureKind::Mcp), m.mcp().value as f64);
    assert_eq!(MeasureKind::Mcp.name(), "MCP");
    // Figure 6: the two hubs' occurrence stars form two cliques in the overlap graph.
    assert_eq!(m.mcp().value, 2);
}

#[test]
fn mining_with_mcp_is_anti_monotonic_in_threshold() {
    use ffsm::miner::{MiningSession, PreparedGraph};
    let triangle = ffsm::graph::LabeledGraph::from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
    let prepared = PreparedGraph::new(generators::replicated(&triangle, 5, false));
    let low = MiningSession::over(&prepared)
        .measure(MeasureKind::Mcp)
        .min_support(2.0)
        .max_edges(3)
        .run()
        .unwrap();
    let high = MiningSession::over(&prepared)
        .measure(MeasureKind::Mcp)
        .min_support(5.0)
        .max_edges(3)
        .run()
        .unwrap();
    assert!(high.len() <= low.len());
    // Every disjoint triangle counts once under MCP, so the triangle is frequent at 5.
    assert!(high.patterns.iter().any(|p| p.pattern.num_edges() == 3));
}

#[test]
fn overlap_census_orderings_hold_across_datasets() {
    for dataset in datasets::small_suite(31) {
        for pattern in
            [patterns::single_edge(Label(0), Label(1)), patterns::uniform_path(3, Label(0))]
        {
            let occ =
                OccurrenceSet::enumerate(&pattern, &dataset.graph, IsoConfig::with_limit(800));
            if occ.num_occurrences() < 2 {
                continue;
            }
            let analysis = OverlapAnalysis::new(&occ);
            let census = analysis.overlap_census();
            assert!(census.harmful <= census.simple, "dataset {}", dataset.name);
            assert!(census.structural <= census.simple, "dataset {}", dataset.name);
            assert!(census.edge <= census.simple, "dataset {}", dataset.name);
            assert!(census.num_pairs() >= census.simple, "dataset {}", dataset.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Weaker overlap notions always produce MIS values at least as large as the
    /// simple-overlap MIS, and MCP always dominates MIS, on random workloads.
    #[test]
    fn variant_orderings_on_random_graphs(
        n in 10usize..35,
        m in 10usize..60,
        seed in 0u64..400,
    ) {
        let graph = generators::gnm_random(n, m, 2, seed);
        let Some((pattern, _)) = generators::sample_pattern(&graph, 2, seed + 3) else {
            return Ok(());
        };
        let occ = OccurrenceSet::enumerate(&pattern, &graph, IsoConfig::with_limit(400));
        if occ.num_occurrences() < 2 || !occ.is_complete() {
            return Ok(());
        }
        let analysis = OverlapAnalysis::new(&occ);
        let budget = SearchBudget::default();
        let simple = analysis.mis_under(OverlapKind::Simple, budget);
        prop_assert!(analysis.mis_under(OverlapKind::Harmful, budget) >= simple);
        prop_assert!(analysis.mis_under(OverlapKind::Structural, budget) >= simple);
        prop_assert!(analysis.mis_under(OverlapKind::Edge, budget) >= simple);
        prop_assert!(analysis.mcp_under(OverlapKind::Simple, budget) >= simple);
    }
}
