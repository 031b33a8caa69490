//! Differential test harness for the indexed overlap-graph pipeline.
//!
//! Two oracles anchor this file:
//!
//! * the retained naive all-pairs builder (`OverlapAnalysis::overlap_graph_naive`) —
//!   the indexed builder must produce an *identical*
//!   overlap graph for every [`OverlapKind`] on proptest-generated pattern /
//!   data-graph pairs;
//! * the sequential mining engine — MIS, MVC, MNI and MI supports must agree
//!   bit-for-bit across the sequential, level-parallel and top-k
//!   [`MiningSession`] modes.
//!
//! The proptest shim seeds each generator deterministically from the test name, so
//! every run (locally and in CI) replays the same fixed case sequence.

use ffsm::core::measures::{MeasureConfig, MeasureKind, SupportMeasures};
use ffsm::core::occurrences::OccurrenceSet;
use ffsm::core::overlap::{OverlapAnalysis, OverlapKind};
use ffsm::graph::canonical::canonical_code;
use ffsm::graph::isomorphism::IsoConfig;
use ffsm::graph::{generators, LabeledGraph};
use ffsm::hypergraph::independent_set::SimpleGraph;
use ffsm::miner::MiningSession;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Assert two overlap graphs are identical: same vertex count, same sorted
/// neighbour row for every vertex.
fn assert_same_graph(built: &SimpleGraph, oracle: &SimpleGraph, context: &str) -> TestCaseResult {
    prop_assert_eq!(built.num_vertices(), oracle.num_vertices(), "vertex count, {}", context);
    prop_assert_eq!(built.num_edges(), oracle.num_edges(), "edge count, {}", context);
    for v in 0..oracle.num_vertices() {
        prop_assert_eq!(built.neighbors(v), oracle.neighbors(v), "row {} of {}", v, context);
    }
    Ok(())
}

/// The frequent-pattern multiset of a mining run, keyed by canonical code, with the
/// exact support bits (`f64::to_bits`) as values — "bit-for-bit" agreement.
fn pattern_supports(
    graph: &LabeledGraph,
    kind: MeasureKind,
    tau: f64,
    threads: usize,
    top_k: Option<usize>,
) -> BTreeMap<String, u64> {
    let mut session =
        MiningSession::on(graph).measure(kind).min_support(tau).max_edges(2).threads(threads);
    if let Some(k) = top_k {
        session = session.top_k(k);
    }
    let result = session.run().expect("valid session");
    result
        .patterns
        .iter()
        .map(|p| (format!("{:?}", canonical_code(&p.pattern)), p.support.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Tentpole equivalence: for every overlap notion, the indexed builder
    /// produces exactly the graph the naive all-pairs oracle produces.
    #[test]
    fn indexed_builder_matches_naive_oracle(seed in 0u64..10_000, edges in 1usize..4) {
        let graph = generators::gnm_random(24, 60, 2, seed);
        let Some((pattern, _)) = generators::sample_pattern(&graph, edges, seed ^ 0xbeef) else {
            return Ok(());
        };
        let occ = OccurrenceSet::enumerate(&pattern, &graph, IsoConfig::with_limit(200));
        prop_assume!(occ.num_occurrences() >= 2);
        let analysis = OverlapAnalysis::new(&occ);
        for kind in OverlapKind::all() {
            let oracle = analysis.overlap_graph_naive(kind);
            let context = format!("kind {kind}, seed {seed}, {edges}-edge pattern");
            assert_same_graph(&analysis.overlap_graph_indexed(kind), &oracle, &context)?;
            // The default (cached) path is the indexed one.
            assert_same_graph(&analysis.overlap_graph(kind), &oracle, &context)?;
        }
    }

    /// MIS / MVC / MNI / MI supports agree bit-for-bit across the sequential,
    /// level-parallel and top-k mining modes.
    #[test]
    fn supports_agree_across_mining_modes(seed in 0u64..10_000) {
        let graph = generators::community_graph(2, 9, 0.45, 0.08, 3, seed);
        prop_assume!(graph.num_edges() >= 4);
        for kind in [MeasureKind::Mis, MeasureKind::Mvc, MeasureKind::Mni, MeasureKind::Mi] {
            let sequential = pattern_supports(&graph, kind, 2.0, 1, None);
            let parallel = pattern_supports(&graph, kind, 2.0, 4, None);
            prop_assert_eq!(&sequential, &parallel, "threads change {} results, seed {}",
                kind, seed);
            let all_cores = pattern_supports(&graph, kind, 2.0, 0, None);
            prop_assert_eq!(&sequential, &all_cores, "all-core run changes {} results, seed {}",
                kind, seed);
            // Top-k with k at least the number of frequent patterns and the same
            // floor must return exactly the threshold-mode pattern set.
            let k = sequential.len().max(1);
            let top_k = pattern_supports(&graph, kind, 2.0, 2, Some(k));
            prop_assert_eq!(&sequential, &top_k, "top-k diverges from threshold {} run, seed {}",
                kind, seed);
        }
    }
}

#[test]
fn overlap_cache_shares_builds_within_one_pattern() {
    let graph = generators::star_overlap(4, 6);
    let pattern = ffsm::graph::patterns::single_edge(ffsm::graph::Label(0), ffsm::graph::Label(1));
    let occ = OccurrenceSet::enumerate(&pattern, &graph, IsoConfig::default());
    assert!(occ.num_occurrences() >= 2);

    // MIS then MVC then MCP on one pattern: exactly one overlap-graph build.
    let measures = SupportMeasures::new(occ.clone(), MeasureConfig::default());
    assert_eq!(measures.overlap_builds(), 0);
    let mis = measures.mis();
    assert_eq!(measures.overlap_builds(), 1, "MIS builds the overlap graph once");
    let mvc = measures.mvc();
    assert_eq!(measures.overlap_builds(), 1, "MVC reuses the hypergraph, not a new overlap graph");
    let mcp = measures.mcp();
    assert_eq!(measures.overlap_builds(), 1, "MCP shares MIS's cached overlap graph");
    assert!(mis.value <= mvc.value && mis.value <= mcp.value);

    // Repeated queries stay cached; the relaxations add no overlap builds either.
    measures.mis();
    measures.relaxed_mvc();
    measures.relaxed_mies();
    assert_eq!(measures.overlap_builds(), 1);

    // A different pattern means a fresh calculator with an empty cache (per-level
    // invalidation is structural: the miner constructs a new evaluation per pattern).
    let path = ffsm::graph::patterns::uniform_path(3, ffsm::graph::Label(0));
    let occ2 = OccurrenceSet::enumerate(&path, &graph, IsoConfig::default());
    let fresh = SupportMeasures::new(occ2, MeasureConfig::default());
    assert_eq!(fresh.overlap_builds(), 0);
    fresh.mis();
    assert!(fresh.overlap_builds() <= 1);

    // The per-kind analysis cache behaves the same way.
    let analysis = OverlapAnalysis::new(&occ);
    assert_eq!(analysis.overlap_builds(), 0);
    analysis.mis_under(OverlapKind::Simple, ffsm::hypergraph::SearchBudget::default());
    analysis.mcp_under(OverlapKind::Simple, ffsm::hypergraph::SearchBudget::default());
    assert_eq!(analysis.overlap_builds(), 1, "MIS-under and MCP-under share one build");
    analysis.overlap_census();
    assert_eq!(analysis.overlap_builds(), 4, "census tops the cache up to all four notions");
}

#[test]
fn overlap_kind_cli_surface_round_trips() {
    // The bench/CLI select notions by name: Display output must parse back, unknown
    // names must produce the typed error.
    for kind in OverlapKind::all() {
        assert_eq!(kind.to_string().parse::<OverlapKind>().unwrap(), kind);
    }
    assert_eq!("Vertex".parse::<OverlapKind>().unwrap(), OverlapKind::Simple);
    assert!(matches!(
        "mystery".parse::<OverlapKind>(),
        Err(ffsm::core::FfsmError::UnknownOverlap(name)) if name == "mystery"
    ));
}
