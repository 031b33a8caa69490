//! Differential test harness for the candidate-space matching engine.
//!
//! Two oracles anchor this file:
//!
//! * the retained naive backtracker (`ffsm_graph::isomorphism`) — the
//!   candidate-space engine must produce an *identical embedding multiset* (the
//!   engines order embeddings differently, so sets are compared sorted) for
//!   proptest-generated pattern / data-graph pairs, under both the induced and
//!   non-induced semantics;
//! * the naive-backend mining engine — MIS, MVC, MNI and MI session supports must
//!   agree bit-for-bit across the enumerator backends, in every session mode
//!   (sequential, level-parallel, top-k).
//!
//! The proptest shim seeds each generator deterministically from the test name, so
//! every run (locally and in CI) replays the same fixed case sequence.

use ffsm::core::occurrences::OccurrenceSet;
use ffsm::core::MeasureKind;
use ffsm::graph::canonical::canonical_code;
use ffsm::graph::isomorphism::{
    enumerate_embeddings, Embedding, EnumeratorBackend, IsoConfig, VisitFlow,
};
use ffsm::graph::{generators, LabeledGraph};
use ffsm::matching::{GraphIndex, Matcher};
use ffsm::miner::MiningSession;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn sorted(mut embeddings: Vec<Embedding>) -> Vec<Embedding> {
    embeddings.sort();
    embeddings
}

/// The frequent-pattern multiset of a mining run, keyed by canonical code, with the
/// exact support bits (`f64::to_bits`) as values — "bit-for-bit" agreement.
fn pattern_supports(
    graph: &LabeledGraph,
    kind: MeasureKind,
    backend: EnumeratorBackend,
    threads: usize,
    top_k: Option<usize>,
) -> BTreeMap<String, (u64, usize)> {
    let mut session = MiningSession::on(graph)
        .measure(kind)
        .min_support(2.0)
        .max_edges(2)
        .threads(threads)
        .enumerator(backend);
    if let Some(k) = top_k {
        session = session.top_k(k);
    }
    let result = session.run().expect("valid session");
    result
        .patterns
        .iter()
        .map(|p| {
            (format!("{:?}", canonical_code(&p.pattern)), (p.support.to_bits(), p.num_occurrences))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Tentpole equivalence: on random graphs and sampled patterns, the
    /// candidate-space engine reproduces the naive oracle's embedding multiset in
    /// both semantics.
    #[test]
    fn candidate_space_matches_naive_oracle(seed in 0u64..10_000, edges in 1usize..4) {
        let graph = generators::gnm_random(24, 60, 2, seed);
        let Some((pattern, _)) = generators::sample_pattern(&graph, edges, seed ^ 0xbeef) else {
            return Ok(());
        };
        let index = GraphIndex::build(&graph);
        let matcher = Matcher::new(&pattern, &graph, &index);
        for induced in [false, true] {
            let config = IsoConfig { induced, ..IsoConfig::default() };
            let naive = enumerate_embeddings(&pattern, &graph, config.clone());
            prop_assert!(naive.complete);
            let oracle = sorted(naive.embeddings);
            let context = format!("seed {seed}, {edges}-edge pattern, induced {induced}");
            let indexed = matcher.enumerate(config.clone());
            prop_assert!(indexed.complete, "indexed incomplete, {}", context);
            prop_assert_eq!(sorted(indexed.embeddings), oracle.clone(),
                "indexed vs oracle, {}", context);
            // Counting and existence agree with the materialising path.
            let (count, complete) = matcher.count(config.clone());
            prop_assert_eq!((count, complete), (oracle.len(), true), "count, {}", context);
            prop_assert_eq!(matcher.exists(config), !oracle.is_empty(), "exists, {}", context);
        }
    }

    /// The dispatching `OccurrenceSet::enumerate` produces the same occurrence sets
    /// under both backends, and a shared prebuilt index changes nothing.
    #[test]
    fn occurrence_sets_agree_across_backends(seed in 0u64..10_000) {
        let graph = generators::community_graph(2, 8, 0.5, 0.1, 2, seed);
        let Some((pattern, _)) = generators::sample_pattern(&graph, 2, seed ^ 0x51) else {
            return Ok(());
        };
        let config = IsoConfig::default();
        let indexed = OccurrenceSet::enumerate(&pattern, &graph, config.clone());
        let naive = OccurrenceSet::enumerate(
            &pattern,
            &graph,
            config.clone().with_backend(EnumeratorBackend::Naive),
        );
        prop_assert!(indexed.is_complete() && naive.is_complete());
        prop_assert_eq!(
            sorted(indexed.embeddings().to_vec()),
            sorted(naive.embeddings().to_vec()),
            "backends disagree, seed {}", seed
        );
        let index = GraphIndex::build(&graph);
        let shared = OccurrenceSet::enumerate_with_index(&pattern, &graph, &index, config);
        prop_assert_eq!(shared.embeddings(), indexed.embeddings(),
            "throwaway vs shared index, seed {}", seed);
        // Derived set-level views coincide too (they are order-invariant).
        prop_assert_eq!(indexed.num_instances(), naive.num_instances());
        prop_assert_eq!(indexed.num_images(), naive.num_images());
    }

    /// Dense-community regression (the matcher pathology this harness guards): high
    /// average degree and only two labels, so the label filter prunes almost
    /// nothing and the search lives or dies on intersected pools and backjumping.
    /// The candidate-space engine must reproduce the oracle's embedding multiset
    /// in both semantics.
    #[test]
    fn dense_graphs_agree_across_all_backends(seed in 0u64..10_000, edges in 1usize..4) {
        let graph = generators::community_graph(2, 12, 0.8, 0.25, 2, seed);
        prop_assume!(graph.num_edges() * 4 >= graph.num_vertices() * 10); // avg degree >= 5
        let Some((pattern, _)) = generators::sample_pattern(&graph, edges, seed ^ 0xdead) else {
            return Ok(());
        };
        let index = GraphIndex::build(&graph);
        let matcher = Matcher::new(&pattern, &graph, &index);
        for induced in [false, true] {
            let config = IsoConfig { induced, ..IsoConfig::default() };
            let naive = enumerate_embeddings(&pattern, &graph, config.clone());
            prop_assert!(naive.complete);
            let oracle = sorted(naive.embeddings);
            let context = format!("seed {seed}, {edges}-edge pattern, induced {induced}");
            let indexed = matcher.enumerate(config);
            prop_assert!(indexed.complete, "dense indexed incomplete, {}", context);
            prop_assert_eq!(sorted(indexed.embeddings), oracle,
                "dense indexed vs oracle, {}", context);
        }
    }

    /// MIS / MVC / MNI / MI session supports agree bit-for-bit across the
    /// enumerator backends, in the sequential, level-parallel and top-k modes.
    #[test]
    fn session_supports_bit_for_bit_across_backends(seed in 0u64..10_000) {
        let graph = generators::community_graph(2, 9, 0.45, 0.08, 3, seed);
        prop_assume!(graph.num_edges() >= 4);
        for kind in [MeasureKind::Mis, MeasureKind::Mvc, MeasureKind::Mni, MeasureKind::Mi] {
            let naive = pattern_supports(&graph, kind, EnumeratorBackend::Naive, 1, None);
            let indexed =
                pattern_supports(&graph, kind, EnumeratorBackend::CandidateSpace, 1, None);
            prop_assert_eq!(&naive, &indexed, "backends change {} results, seed {}", kind, seed);
            let parallel =
                pattern_supports(&graph, kind, EnumeratorBackend::CandidateSpace, 4, None);
            prop_assert_eq!(&naive, &parallel,
                "parallel indexed session changes {} results, seed {}", kind, seed);
            let k = naive.len().max(1);
            let top_k =
                pattern_supports(&graph, kind, EnumeratorBackend::CandidateSpace, 2, Some(k));
            prop_assert_eq!(&naive, &top_k,
                "top-k indexed session diverges from naive {} run, seed {}", kind, seed);
        }
    }

}

proptest! {
    // The mining runs below are the expensive kind (exact MIS on dense occurrence
    // hypergraphs, five full sessions per measure), so this block runs fewer cases
    // than the enumeration-level tests above.
    #![proptest_config(ProptestConfig { cases: 4, .. ProptestConfig::default() })]

    /// The four measures on the dense workload: per measure, the candidate-space
    /// backend at 1 and 4 threads must match the naive sequential run bit-for-bit.
    #[test]
    fn dense_session_supports_bit_for_bit_across_backends(seed in 0u64..10_000) {
        let graph = generators::community_graph(2, 8, 0.65, 0.12, 2, seed);
        prop_assume!(graph.num_edges() * 2 >= graph.num_vertices() * 4); // avg degree >= 4
        for kind in [MeasureKind::Mis, MeasureKind::Mvc, MeasureKind::Mni, MeasureKind::Mi] {
            let naive = pattern_supports(&graph, kind, EnumeratorBackend::Naive, 1, None);
            for threads in [1usize, 4] {
                let run =
                    pattern_supports(&graph, kind, EnumeratorBackend::CandidateSpace, threads, None);
                prop_assert_eq!(&naive, &run,
                    "dense {} run diverges ({} threads), seed {}", kind, threads, seed);
            }
        }
    }
}

#[test]
fn streaming_visitor_counts_without_materialising() {
    let graph = generators::star_overlap(6, 8);
    let pattern = ffsm::graph::patterns::single_edge(ffsm::graph::Label(0), ffsm::graph::Label(1));
    let index = GraphIndex::build(&graph);
    let matcher = Matcher::new(&pattern, &graph, &index);

    // Stream with early termination after 5 embeddings.
    let mut seen = 0usize;
    let complete = matcher.stream(IsoConfig::default(), &mut |emb: &[u32]| {
        assert_eq!(emb.len(), 2);
        seen += 1;
        if seen == 5 {
            VisitFlow::Stop
        } else {
            VisitFlow::Continue
        }
    });
    assert!(!complete);
    assert_eq!(seen, 5);

    // Budgeted counting clamps, and the naive oracle's budgeted count agrees.
    let limit = IsoConfig::with_limit(11);
    assert_eq!(matcher.count(limit.clone()), (11, false));
    assert_eq!(ffsm::graph::isomorphism::count_embeddings(&pattern, &graph, limit), 11);
}

#[test]
fn one_index_serves_many_patterns() {
    // Session-style reuse: one GraphIndex, many patterns — each OccurrenceSet must
    // match its own from-scratch enumeration.
    let graph = generators::community_graph(3, 8, 0.5, 0.1, 3, 99);
    let index = GraphIndex::build(&graph);
    let mut checked = 0usize;
    for edges in 1..=3 {
        for seed in [1u64, 7, 23] {
            let Some((pattern, _)) = generators::sample_pattern(&graph, edges, seed) else {
                continue;
            };
            let shared =
                OccurrenceSet::enumerate_with_index(&pattern, &graph, &index, IsoConfig::default());
            let fresh = OccurrenceSet::enumerate(&pattern, &graph, IsoConfig::default());
            assert_eq!(shared.embeddings(), fresh.embeddings());
            checked += 1;
        }
    }
    assert!(checked >= 6, "pattern sampling failed too often ({checked} checks)");
}

#[test]
fn candidate_space_diagnostics_are_consistent() {
    let (graph, pattern) = {
        // Small decoy workload: the pruning statistics must show actual deletions.
        let mut g = LabeledGraph::new();
        let mut layer = Vec::new();
        for label in 0..4u32 {
            layer.push((0..5).map(|_| g.add_vertex(ffsm::graph::Label(label))).collect::<Vec<_>>());
        }
        for l in 0..3 {
            for &u in &layer[l] {
                for &v in &layer[l + 1] {
                    g.add_edge(u, v).unwrap();
                }
            }
        }
        // One real cycle.
        let a = g.add_vertex(ffsm::graph::Label(0));
        let b = g.add_vertex(ffsm::graph::Label(1));
        let c = g.add_vertex(ffsm::graph::Label(2));
        let d = g.add_vertex(ffsm::graph::Label(3));
        for (u, v) in [(a, b), (b, c), (c, d), (d, a)] {
            g.add_edge(u, v).unwrap();
        }
        let p = ffsm::graph::patterns::cycle(&[
            ffsm::graph::Label(0),
            ffsm::graph::Label(1),
            ffsm::graph::Label(2),
            ffsm::graph::Label(3),
        ]);
        (g, p)
    };
    let index = GraphIndex::build(&graph);
    let matcher = Matcher::new(&pattern, &graph, &index);
    let space = matcher.space();
    // Only the real cycle survives pruning: one candidate per pattern vertex.
    assert_eq!(space.sizes(), vec![1, 1, 1, 1]);
    // The middle layers passed the initial filter and were peeled by refinement.
    let initial: usize = space.initial_sizes().iter().sum();
    assert!(initial > space.total_size());
    assert!(space.refinement_rounds() >= 2);
    let result = matcher.enumerate(IsoConfig::default());
    assert_eq!(result.len(), 1);
}
