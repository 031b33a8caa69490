//! Integration checks for the profiling / characterisation layer: measure profiles
//! must be invariant under vertex shuffling and label-preserving transforms, and the
//! graph statistics must describe the workloads consistently with what the measures
//! see.

use ffsm::core::measures::{MeasureConfig, SupportMeasures};
use ffsm::core::{MeasureKind, MeasureProfile, OccurrenceSet};
use ffsm::graph::statistics::DegreeSummary;
use ffsm::graph::{datasets, figures, generators, patterns, transform, GraphStatistics, Label};
use ffsm::hypergraph::SearchBudget;
use proptest::prelude::*;

#[test]
fn profiles_are_invariant_under_vertex_shuffling() {
    let config = MeasureConfig::default();
    for fig in figures::all_figures() {
        let original = MeasureProfile::compute(&fig.pattern, &fig.graph, &config);
        let shuffled_graph = transform::shuffle_vertices(&fig.graph, 1234);
        let shuffled = MeasureProfile::compute(&fig.pattern, &shuffled_graph, &config);
        for entry in &original.entries {
            let other = shuffled.value_of(entry.kind).expect("same measures profiled");
            assert!(
                (entry.value - other).abs() < 1e-6,
                "{} changed under shuffling on {}: {} vs {}",
                entry.kind.name(),
                fig.name,
                entry.value,
                other
            );
        }
    }
}

#[test]
fn forgetting_labels_never_decreases_supports() {
    // Erasing labels can only create more occurrences, so every measure value is at
    // least its labelled counterpart.
    let graph = generators::community_graph(3, 10, 0.3, 0.03, 4, 8);
    let pattern = patterns::single_edge(Label(0), Label(1));
    let config = MeasureConfig::default();
    let labelled = MeasureProfile::compute(&pattern, &graph, &config);
    let unlabelled_graph = transform::forget_labels(&graph);
    let unlabelled_pattern = patterns::single_edge(Label(0), Label(0));
    let unlabelled = MeasureProfile::compute(&unlabelled_pattern, &unlabelled_graph, &config);
    // MI is excluded: erasing labels also enlarges the pattern's automorphism group,
    // which can add coarse-grained subsets and legitimately lower the minimum.
    for kind in [MeasureKind::Mni, MeasureKind::Mis, MeasureKind::Mvc] {
        let a = labelled.value_of(kind).unwrap();
        let b = unlabelled.value_of(kind).unwrap();
        assert!(b >= a - 1e-9, "{}: unlabelled {} < labelled {}", kind.name(), b, a);
    }
}

#[test]
fn graph_statistics_describe_the_dataset_suite() {
    for dataset in datasets::small_suite(3) {
        let stats = GraphStatistics::compute(&dataset.graph);
        assert_eq!(stats.num_vertices, dataset.graph.num_vertices());
        assert_eq!(stats.num_edges, dataset.graph.num_edges());
        assert!(stats.num_labels >= 1);
        assert!(stats.largest_component <= stats.num_vertices);
        assert!(stats.dominant_label_fraction > 0.0 && stats.dominant_label_fraction <= 1.0);
        let degrees = DegreeSummary::compute(&dataset.graph);
        assert_eq!(degrees.max, stats.max_degree);
        assert!(degrees.mean <= stats.max_degree as f64 + 1e-9);
    }
}

#[test]
fn profile_with_exhausted_budgets_flags_them_and_keeps_the_chain() {
    // A one-node budget leaves MIS, MIES and MVC unproven on the protein-like graph;
    // the chain check must skip the links that rest on those values instead of
    // reporting violations.
    let graph = datasets::protein_like(4, 20, 7).graph;
    let config = MeasureConfig { search_budget: SearchBudget(1), ..MeasureConfig::default() };
    for pattern in
        [patterns::single_edge(Label(0), Label(1)), patterns::single_edge(Label(0), Label(0))]
    {
        let profile = MeasureProfile::compute(&pattern, &graph, &config);
        for kind in [MeasureKind::Mis, MeasureKind::Mies, MeasureKind::Mvc] {
            let entry = profile.entries.iter().find(|e| e.kind == kind).expect("profiled");
            assert!(!entry.optimal, "{kind} proven within a one-node budget");
        }
        assert!(profile.chain_holds(), "{:?}", profile.bounding_chain_violations());
        let occ = OccurrenceSet::enumerate(&pattern, &graph, config.iso_config.clone());
        let measures = SupportMeasures::new(occ, config.clone());
        for entry in &profile.entries {
            assert_eq!(entry.value, measures.compute(entry.kind), "{}", entry.kind);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Measure profiles are isomorphism invariant: a shuffled copy has the same
    /// MNI/MI/MVC values.
    #[test]
    fn shuffle_invariance_on_random_graphs(n in 6usize..20, m in 5usize..30, seed in 0u64..300) {
        let graph = generators::gnm_random(n, m, 2, seed);
        let shuffled = transform::shuffle_vertices(&graph, seed + 7);
        let pattern = patterns::single_edge(Label(0), Label(1));
        let config = MeasureConfig::default();
        let a = MeasureProfile::compute(&pattern, &graph, &config);
        let b = MeasureProfile::compute(&pattern, &shuffled, &config);
        prop_assert_eq!(a.value_of(MeasureKind::Mni), b.value_of(MeasureKind::Mni));
        prop_assert_eq!(a.value_of(MeasureKind::Mi), b.value_of(MeasureKind::Mi));
        prop_assert_eq!(a.value_of(MeasureKind::Mvc), b.value_of(MeasureKind::Mvc));
    }
}
