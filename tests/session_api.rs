//! Integration tests for the `MiningSession` builder API through the public `ffsm`
//! facade: builder defaults, the paper's containment ordering across built-in
//! measures, typed error paths, and a user-defined `SupportMeasure` plugged into the
//! session.

use ffsm::core::measures::MeasureKind;
use ffsm::graph::canonical::canonical_code;
use ffsm::graph::{generators, LabeledGraph};
use ffsm::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// `copies` labelled triangles, chained so neighbouring copies share a bridge edge
/// (the bridges create overlap, which separates the conservative measures from MNI).
fn replicated_triangles(copies: usize, connected: bool) -> LabeledGraph {
    let triangle = LabeledGraph::from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
    generators::replicated(&triangle, copies, connected)
}

#[test]
fn builder_defaults_round_trip() {
    let graph = LabeledGraph::new();
    let defaults = SessionConfig::default();
    let session = MiningSession::on(&graph);
    assert_eq!(session.config().min_support, defaults.min_support);
    assert_eq!(session.config().max_edges, defaults.max_edges);
    assert_eq!(session.config().threads, defaults.threads);
    assert_eq!(session.config().top_k, defaults.top_k);
    assert_eq!(session.config().budget, defaults.budget);

    let configured = MiningSession::on(&graph)
        .measure(MeasureKind::Mvc)
        .min_support(9.0)
        .max_edges(5)
        .threads(2)
        .top_k(7)
        .budget(MiningBudget { max_evaluations: 11, max_patterns: 3 });
    let config = configured.config();
    assert_eq!(config.min_support, 9.0);
    assert_eq!(config.max_edges, 5);
    assert_eq!(config.threads, 2);
    assert_eq!(config.top_k, Some(7));
    assert_eq!(config.budget, MiningBudget { max_evaluations: 11, max_patterns: 3 });
}

#[test]
fn every_builtin_measure_respects_the_containment_ordering() {
    // The paper's bounding chain σMIS ≤ σMVC ≤ σMI ≤ σMNI means that at a fixed
    // threshold the frequent-pattern sets are nested: anything frequent under a
    // conservative measure is frequent under a permissive one.
    let graph = replicated_triangles(5, true);
    let tau = 4.0;
    let mut results: Vec<HashSet<_>> = Vec::new();
    for measure in [MeasureKind::Mis, MeasureKind::Mvc, MeasureKind::Mi, MeasureKind::Mni] {
        let result = MiningSession::on(&graph)
            .measure(measure)
            .min_support(tau)
            .max_edges(3)
            .run()
            .expect("valid session");
        results.push(result.patterns.iter().map(|p| canonical_code(&p.pattern)).collect());
    }
    for (i, w) in results.windows(2).enumerate() {
        assert!(
            w[0].is_subset(&w[1]),
            "containment MIS <= MVC <= MI <= MNI violated at position {i}"
        );
    }
    // Counts follow the same ordering.
    for w in results.windows(2) {
        assert!(w[0].len() <= w[1].len());
    }
}

#[test]
fn all_anti_monotone_builtins_mine_the_disjoint_triangle_forest() {
    // On disjoint copies there is no overlap, so every measure in the chain reports
    // the triangle with support = number of copies.
    let copies = 4;
    let graph = replicated_triangles(copies, false);
    for measure in [
        MeasureKind::Mni,
        MeasureKind::MniK(2),
        MeasureKind::Mi,
        MeasureKind::Mvc,
        MeasureKind::Mis,
        MeasureKind::Mies,
        MeasureKind::RelaxedMvc,
        MeasureKind::RelaxedMies,
        MeasureKind::Mcp,
    ] {
        let result = MiningSession::on(&graph)
            .measure(measure)
            .min_support(copies as f64)
            .max_edges(3)
            .run()
            .unwrap_or_else(|e| panic!("session failed under {measure}: {e}"));
        assert!(
            result.patterns.iter().any(|p| p.pattern.num_edges() == 3),
            "triangle not frequent under {measure}"
        );
    }
}

#[test]
fn typed_errors_surface_through_the_facade() {
    let graph = replicated_triangles(2, false);
    let err = MiningSession::on(&graph)
        .measure(MeasureKind::InstanceCount)
        .run()
        .expect_err("instance count must be rejected for pruning");
    assert!(matches!(err, FfsmError::NotAntiMonotone(_)));
    assert!(err.to_string().contains("anti-monotone"));

    let err = MiningSession::on(&graph).top_k(0).run().expect_err("top_k(0) is invalid");
    assert!(matches!(err, FfsmError::InvalidConfig(_)));

    let err = "no-such-measure".parse::<MeasureKind>().expect_err("unknown name");
    assert!(matches!(err, FfsmError::UnknownMeasure(_)));
}

#[test]
fn custom_support_measure_mines_end_to_end() {
    /// A user-defined measure: the number of *disjoint-by-construction* graph
    /// components an occurrence lands in, approximated here as the minimum per-node
    /// image count (i.e. MNI computed by hand through the public OccurrenceSet API).
    struct HandRolledMni;
    impl SupportMeasure for HandRolledMni {
        fn support(&self, occurrences: &OccurrenceSet) -> f64 {
            let pattern = occurrences.pattern().clone();
            pattern.vertices().map(|v| occurrences.node_images(v).len()).min().unwrap_or(0) as f64
        }
        fn is_anti_monotone(&self) -> bool {
            true
        }
        fn name(&self) -> &str {
            "hand-rolled-MNI"
        }
    }

    let graph = replicated_triangles(5, false);
    let custom: Arc<dyn SupportMeasure> = Arc::new(HandRolledMni);
    let custom_result = MiningSession::on(&graph)
        .measure(custom)
        .min_support(5.0)
        .max_edges(3)
        .run()
        .expect("valid session");
    let builtin_result = MiningSession::on(&graph)
        .measure(MeasureKind::Mni)
        .min_support(5.0)
        .max_edges(3)
        .run()
        .expect("valid session");
    // The hand-rolled MNI is the real MNI, so the runs agree exactly.
    assert_eq!(custom_result.len(), builtin_result.len());
    for (a, b) in custom_result.patterns.iter().zip(&builtin_result.patterns) {
        assert_eq!(a.support, b.support);
        assert_eq!(canonical_code(&a.pattern), canonical_code(&b.pattern));
    }
}

#[test]
fn parallel_and_top_k_modes_agree_with_sequential() {
    let graph = replicated_triangles(5, true);
    let sequential =
        MiningSession::on(&graph).min_support(4.0).max_edges(3).run().expect("valid session");
    let parallel = MiningSession::on(&graph)
        .min_support(4.0)
        .max_edges(3)
        .threads(4)
        .run()
        .expect("valid session");
    let codes = |r: &MiningResult| {
        r.patterns.iter().map(|p| canonical_code(&p.pattern)).collect::<HashSet<_>>()
    };
    assert_eq!(codes(&sequential), codes(&parallel));

    let k = 3;
    let topk = MiningSession::on(&graph)
        .min_support(1.0)
        .max_edges(3)
        .top_k(k)
        .run()
        .expect("valid session");
    let exhaustive =
        MiningSession::on(&graph).min_support(1.0).max_edges(3).run().expect("valid session");
    let mut best: Vec<f64> = exhaustive.patterns.iter().map(|p| p.support).collect();
    best.sort_by(|a, b| b.partial_cmp(a).unwrap());
    best.truncate(k);
    let topk_supports: Vec<f64> = topk.patterns.iter().map(|p| p.support).collect();
    assert_eq!(topk_supports, best);
}

#[test]
fn solve_budget_exhaustions_are_counted() {
    // A one-node search budget cannot prove the MIS of the protein-like graph's
    // overlap graphs, and the engine counts every such solve.
    let graph = ffsm::graph::datasets::protein_like(4, 20, 7).graph;
    let starved = MeasureConfig {
        search_budget: ffsm::hypergraph::SearchBudget(1),
        ..MeasureConfig::default()
    };
    let result = MiningSession::on(&graph)
        .measure(MeasureKind::Mis)
        .measure_config(starved)
        .min_support(5.0)
        .max_edges(1)
        .run()
        .expect("valid session");
    assert!(result.stats.counters.solve_budget_exhausted > 0);

    // The disjoint triangle forest's overlap graphs are proven within the default
    // budget.
    let forest = MiningSession::on(&replicated_triangles(4, false))
        .measure(MeasureKind::Mis)
        .min_support(2.0)
        .run()
        .expect("valid session");
    assert!(!forest.patterns.is_empty());
    assert_eq!(forest.stats.counters.solve_budget_exhausted, 0);
}
