//! Cross-crate invariance tests:
//!
//! * support measures are isomorphism-invariant (relabeling data-graph vertex ids or
//!   permuting pattern vertex ids must not change any value);
//! * graphs survive a `.lg` round-trip with identical measure values;
//! * dataset generators are deterministic in their seeds.

use ffsm::core::evaluate;
use ffsm::core::measures::{MeasureConfig, MeasureKind};
use ffsm::graph::io::{from_lg_string, to_lg_string};
use ffsm::graph::isomorphism::are_isomorphic;
use ffsm::graph::{datasets, generators, Label, LabeledGraph, Pattern, VertexId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Rebuild `graph` with its vertex ids permuted by a random permutation.
fn permute_graph(graph: &LabeledGraph, seed: u64) -> LabeledGraph {
    let n = graph.num_vertices();
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    // perm[old] = new
    let mut labels = vec![0u32; n];
    for old in 0..n {
        labels[perm[old]] = graph.label(old as VertexId).0;
    }
    let edges: Vec<(VertexId, VertexId)> = graph
        .edges()
        .map(|(u, v)| (perm[u as usize] as VertexId, perm[v as usize] as VertexId))
        .collect();
    LabeledGraph::from_edges(&labels, &edges)
}

/// Build a measure calculator for `pattern` in `graph` under `config`.
fn measures_of(
    pattern: &Pattern,
    graph: &LabeledGraph,
    config: &MeasureConfig,
) -> ffsm::core::SupportMeasures<'static> {
    let occ = ffsm::core::OccurrenceSet::enumerate(pattern, graph, config.iso_config.clone());
    ffsm::core::SupportMeasures::new(occ, config.clone())
}

/// Measures whose computation is exact (no search budget), so invariance must hold
/// as strict equality.
fn exact_kinds() -> Vec<MeasureKind> {
    vec![
        MeasureKind::OccurrenceCount,
        MeasureKind::InstanceCount,
        MeasureKind::Mni,
        MeasureKind::Mi,
        MeasureKind::RelaxedMvc,
    ]
}

/// Compare the budgeted branch-and-bound measures (MVC, MIS, MIES) on two graphs.
/// Their values are only well-defined when the search completed: an exhausted budget
/// yields the best bound found, which legitimately depends on vertex order, so those
/// outcomes are skipped rather than compared.
fn assert_budgeted_invariant(
    a: &ffsm::core::SupportMeasures,
    b: &ffsm::core::SupportMeasures,
) -> Result<(), String> {
    let pairs =
        [("MVC", a.mvc(), b.mvc()), ("MIS", a.mis(), b.mis()), ("MIES", a.mies(), b.mies())];
    for (name, x, y) in pairs {
        if x.optimal && y.optimal && x.value != y.value {
            return Err(format!("{name} changed: {} vs {}", x.value, y.value));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    #[test]
    fn measures_are_invariant_under_data_graph_relabeling(
        n in 15usize..50,
        labels in 1u32..4,
        seed in 0u64..10_000,
    ) {
        let graph = generators::gnm_random(n, 2 * n, labels, seed);
        prop_assume!(graph.num_edges() > 0);
        let Some((pattern, _)) = generators::sample_pattern(&graph, 2, seed ^ 0xaa) else { return Ok(()); };
        let permuted = permute_graph(&graph, seed ^ 0x5555);
        prop_assert!(are_isomorphic(&graph, &permuted));
        let config = MeasureConfig::default();
        for kind in exact_kinds() {
            let a = evaluate(&pattern, &graph, kind, &config);
            let b = evaluate(&pattern, &permuted, kind, &config);
            prop_assert!((a - b).abs() < 1e-6, "{} changed under relabeling: {a} vs {b}", kind.name());
        }
        let ma = measures_of(&pattern, &graph, &config);
        let mb = measures_of(&pattern, &permuted, &config);
        if let Err(message) = assert_budgeted_invariant(&ma, &mb) {
            prop_assert!(false, "under relabeling: {message}");
        }
    }

    #[test]
    fn measures_are_invariant_under_pattern_vertex_permutation(
        n in 15usize..50,
        seed in 0u64..10_000,
    ) {
        let graph = generators::community_graph(2, n / 2 + 1, 0.3, 0.05, 3, seed);
        prop_assume!(graph.num_edges() > 0);
        let Some((pattern, _)) = generators::sample_pattern(&graph, 3, seed ^ 0xbb) else { return Ok(()); };
        let permuted_pattern: Pattern = permute_graph(&pattern, seed ^ 0x1234);
        let config = MeasureConfig::default();
        for kind in exact_kinds() {
            let a = evaluate(&pattern, &graph, kind, &config);
            let b = evaluate(&permuted_pattern, &graph, kind, &config);
            prop_assert!((a - b).abs() < 1e-6, "{} changed under pattern permutation", kind.name());
        }
        let ma = measures_of(&pattern, &graph, &config);
        let mb = measures_of(&permuted_pattern, &graph, &config);
        if let Err(message) = assert_budgeted_invariant(&ma, &mb) {
            prop_assert!(false, "under pattern permutation: {message}");
        }
    }

    #[test]
    fn lg_roundtrip_preserves_measures(
        n in 10usize..40,
        labels in 1u32..4,
        seed in 0u64..10_000,
    ) {
        let graph = generators::gnm_random(n, 2 * n, labels, seed);
        let back = from_lg_string(&to_lg_string(&graph)).expect("roundtrip parses");
        prop_assert_eq!(&graph, &back);
        if let Some((pattern, _)) = generators::sample_pattern(&graph, 2, seed) {
            let config = MeasureConfig::default();
            for kind in [MeasureKind::Mni, MeasureKind::Mi, MeasureKind::Mvc] {
                prop_assert_eq!(
                    evaluate(&pattern, &graph, kind, &config),
                    evaluate(&pattern, &back, kind, &config)
                );
            }
        }
    }
}

#[test]
fn dataset_generators_are_deterministic_and_distinct() {
    let a = datasets::standard_suite(7);
    let b = datasets::standard_suite(7);
    let c = datasets::standard_suite(8);
    for ((x, y), z) in a.iter().zip(b.iter()).zip(c.iter()) {
        assert_eq!(x.graph, y.graph, "dataset {} not deterministic", x.name);
        assert_ne!(x.graph, z.graph, "dataset {} ignores its seed", x.name);
    }
    let names: Vec<&str> = a.iter().map(|d| d.name.as_str()).collect();
    assert_eq!(names, vec!["chemical", "social", "citation", "protein"]);
}

#[test]
fn figure_graphs_roundtrip_through_lg() {
    for example in ffsm::graph::figures::all_figures() {
        let text = to_lg_string(&example.graph);
        let back = from_lg_string(&text).unwrap();
        assert_eq!(example.graph, back, "lg roundtrip changed {}", example.name);
    }
}

#[test]
fn single_label_graph_edge_pattern_support_equals_known_value() {
    // Sanity check with closed-form values: in a star with k >= 2 same-labelled
    // leaves, every instance of the one-edge pattern shares the hub, so MIS = MVC = 1,
    // there are k instances, and 2k occurrences (both orientations of each edge).
    for k in 2usize..6 {
        let graph = {
            let mut g = LabeledGraph::new();
            let hub = g.add_vertex(Label(0));
            for _ in 0..k {
                let leaf = g.add_vertex(Label(0));
                g.add_edge(hub, leaf).unwrap();
            }
            g
        };
        let pattern = ffsm::graph::patterns::single_edge(Label(0), Label(0));
        let config = MeasureConfig::default();
        assert_eq!(evaluate(&pattern, &graph, MeasureKind::Mis, &config), 1.0);
        assert_eq!(evaluate(&pattern, &graph, MeasureKind::Mvc, &config), 1.0);
        assert_eq!(evaluate(&pattern, &graph, MeasureKind::InstanceCount, &config), k as f64);
        assert_eq!(
            evaluate(&pattern, &graph, MeasureKind::OccurrenceCount, &config),
            2.0 * k as f64
        );
    }
}
