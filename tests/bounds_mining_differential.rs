//! Differential harness for bounds-first mining ([`MiningSession::bounds_first`]),
//! alongside `obs_differential.rs` / `prepared_stream.rs` / `shard_differential.rs`:
//!
//! * **bounds-first == exact, as a set** — turning on certified interval
//!   evaluation changes *how* patterns are decided (short-circuiting on bound
//!   arguments where possible), never *which* patterns are frequent: across
//!   MNI / MI / MVC / MIS / nuMVC / nuMIES and both enumerator backends,
//!   the bounds-first run reproduces the exact run's canonical-code set
//!   (proptest);
//! * **intervals contain the truth** — every `support_interval` a bounds-first
//!   session attaches to a pattern brackets the exact support the plain run
//!   computed for the same pattern, and the reported support respects the
//!   certified verdict (`lo >= tau` for every accepted pattern);
//! * **interrupted sessions stay sound** — a cancelled bounds-first stream
//!   emits `Undecided` events whose intervals are finite and contain the
//!   pattern's independently recomputed exact support (pre-enumeration
//!   arguments only, never truncated-enumeration data);
//! * **invalid combinations are typed errors** — `bounds_first` with `top_k`,
//!   `run_recorded` or `run_delta` is an [`FfsmError::InvalidConfig`], not a
//!   silent wrong answer.
//!
//! The proptest shim seeds each generator deterministically from the test name,
//! so every run replays the same fixed case sequence.

use ffsm::core::measures::{MeasureConfig, MeasureKind, SupportMeasures};
use ffsm::core::occurrences::OccurrenceSet;
use ffsm::core::{CancelToken, EnumeratorBackend, FfsmError};
use ffsm::graph::canonical::canonical_code;
use ffsm::graph::generators;
use ffsm::graph::isomorphism::IsoConfig;
use ffsm::miner::{MiningEvent, MiningResult, MiningSession, PreparedGraph};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Every measure the evaluator certifies under the default measure config —
/// the four paper columns plus both LP relaxations (satellite coverage for the
/// `nuMVC` / `nuMIES` wire names, end to end through the mining engine).
const MEASURES: [MeasureKind; 6] = [
    MeasureKind::Mni,
    MeasureKind::Mi,
    MeasureKind::Mvc,
    MeasureKind::Mis,
    MeasureKind::RelaxedMvc,
    MeasureKind::RelaxedMies,
];
const BACKENDS: [EnumeratorBackend; 2] =
    [EnumeratorBackend::CandidateSpace, EnumeratorBackend::Naive];

/// Exact support of one pattern, recomputed independently of the miner.
fn exact_support(
    pattern: &ffsm::graph::Pattern,
    graph: &ffsm::graph::LabeledGraph,
    measure: MeasureKind,
) -> f64 {
    let occ = OccurrenceSet::enumerate(pattern, graph, IsoConfig::default());
    SupportMeasures::new(occ, MeasureConfig::default()).compute(measure)
}

fn code_set(result: &MiningResult) -> Vec<Vec<u64>> {
    let mut codes: Vec<Vec<u64>> =
        result.patterns.iter().map(|p| canonical_code(&p.pattern).as_slice().to_vec()).collect();
    codes.sort();
    codes
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, .. ProptestConfig::default() })]

    /// Tentpole differential: the bounds-first frequent set equals the exact
    /// frequent set across every certified measure and every backend, and every
    /// attached interval contains the support the exact run computed.
    #[test]
    fn bounds_first_equals_exact_across_measures_and_backends(
        seed in 0u64..10_000,
        tau in 2usize..5,
    ) {
        let graph = generators::community_graph(2, 9, 0.45, 0.08, 3, seed);
        prop_assume!(graph.num_edges() >= 4);
        let prepared = PreparedGraph::new(graph);
        for measure in MEASURES {
            for backend in BACKENDS {
                let context = format!("seed {seed}, tau {tau}, {measure} under {backend:?}");
                let run = |bounds: bool| {
                    MiningSession::over(&prepared)
                        .measure(measure)
                        .min_support(tau as f64)
                        .max_edges(2)
                        .enumerator(backend)
                        .bounds_first(bounds)
                        .run()
                        .expect("valid session")
                };
                let exact = run(false);
                let bounded = run(true);
                prop_assert_eq!(code_set(&bounded), code_set(&exact),
                    "frequent sets diverged, {}", &context);
                prop_assert_eq!(bounded.completion(), exact.completion(), "{}", &context);
                // The exact run's support is the ground truth each interval
                // must bracket; the bounds run's reported support must itself
                // clear the threshold (decided-frequent reports `lo`).
                let truth: BTreeMap<Vec<u64>, f64> = exact
                    .patterns
                    .iter()
                    .map(|p| (canonical_code(&p.pattern).as_slice().to_vec(), p.support))
                    .collect();
                for p in &bounded.patterns {
                    prop_assert!(p.support >= tau as f64 - 1e-9,
                        "accepted support {} below tau, {}", p.support, &context);
                    let code = canonical_code(&p.pattern).as_slice().to_vec();
                    let exact_value = truth[&code];
                    if let Some(interval) = p.support_interval {
                        prop_assert!(
                            interval.lo <= exact_value + 1e-9
                                && exact_value <= interval.hi + 1e-9,
                            "interval [{}, {}] misses exact support {}, {}",
                            interval.lo, interval.hi, exact_value, &context
                        );
                        prop_assert!(p.certificate.is_some(),
                            "interval without a certificate, {}", &context);
                    }
                }
                // A complete bounds-first run decides everything.
                prop_assert!(bounded.undecided.is_empty(), "{}", &context);
            }
        }
    }

    /// A cancelled bounds-first stream reports every still-open candidate as an
    /// `Undecided` event whose certified interval is finite and contains the
    /// pattern's independently recomputed exact support.
    #[test]
    fn interrupted_sessions_emit_only_sound_intervals(
        seed in 0u64..10_000,
        consume in 0usize..8,
    ) {
        let graph = generators::community_graph(2, 8, 0.5, 0.1, 3, seed);
        prop_assume!(graph.num_edges() >= 4);
        let prepared = PreparedGraph::new(graph);
        let token = CancelToken::new();
        let mut stream = MiningSession::over(&prepared)
            .measure(MeasureKind::Mis)
            .min_support(2.0)
            .max_edges(3)
            .bounds_first(true)
            .cancel_token(token.clone())
            .stream()
            .expect("valid session");
        for _ in 0..consume {
            if stream.next().is_none() {
                break;
            }
        }
        token.cancel();
        let mut undecided = Vec::new();
        let mut summary = None;
        for event in &mut stream {
            match event.expect("in-process streams never error") {
                MiningEvent::Undecided(u) => undecided.push(u),
                MiningEvent::Finished(s) => summary = Some(s),
                MiningEvent::Pattern(_) | MiningEvent::LevelCompleted(_) => {}
            }
        }
        let summary = summary.expect("stream ends with Finished");
        prop_assert_eq!(summary.num_undecided, undecided.len(),
            "summary disagrees with the event stream, seed {}", seed);
        for u in &undecided {
            prop_assert!(u.interval.hi.is_finite(),
                "unbounded undecided interval, seed {}", seed);
            prop_assert!(u.interval.lo <= u.interval.hi, "inverted interval, seed {}", seed);
            let exact = exact_support(&u.pattern, prepared.graph(), MeasureKind::Mis);
            prop_assert!(
                u.interval.lo <= exact + 1e-9 && exact <= u.interval.hi + 1e-9,
                "undecided interval [{}, {}] misses exact support {}, seed {}, consumed {}",
                u.interval.lo, u.interval.hi, exact, seed, consume
            );
        }
        // The batch view carries the same undecided set.
        let result = stream.into_result().expect("in-memory mining cannot fail");
        prop_assert_eq!(result.undecided.len(), undecided.len(), "seed {}", seed);
    }
}

/// `nuMVC` / `nuMIES` are first-class wire names: they parse, they mine, and
/// their frequent sets sandwich correctly against the measures they relax
/// (`nuMVC <= MVC` pointwise, so its frequent set can only shrink; `nuMIES >=
/// MIES = MIS` pointwise, so its frequent set can only grow).
#[test]
fn relaxed_measures_parse_and_mine_end_to_end() {
    assert_eq!("nuMVC".parse::<MeasureKind>().unwrap(), MeasureKind::RelaxedMvc);
    assert_eq!("nuMIES".parse::<MeasureKind>().unwrap(), MeasureKind::RelaxedMies);

    let graph = generators::community_graph(2, 10, 0.4, 0.06, 3, 19);
    let prepared = PreparedGraph::new(graph);
    let mine = |measure: MeasureKind| {
        MiningSession::over(&prepared)
            .measure(measure)
            .min_support(3.0)
            .max_edges(2)
            .run()
            .expect("valid session")
    };
    let nu_mvc = code_set(&mine(MeasureKind::RelaxedMvc));
    let mvc = code_set(&mine(MeasureKind::Mvc));
    assert!(
        nu_mvc.iter().all(|code| mvc.contains(code)),
        "nuMVC accepted a pattern MVC rejected (nuMVC <= MVC violated)"
    );
    let nu_mies = code_set(&mine(MeasureKind::RelaxedMies));
    let mis = code_set(&mine(MeasureKind::Mis));
    assert!(
        mis.iter().all(|code| nu_mies.contains(code)),
        "MIS accepted a pattern nuMIES rejected (nuMIES >= MIS violated)"
    );
}

/// The combinations the interval semantics cannot honour are rejected up front
/// with a typed configuration error, on every entry point that reaches them.
#[test]
fn incompatible_configurations_are_typed_errors() {
    let graph = generators::gnm_random(20, 40, 2, 7);
    let prepared = PreparedGraph::new(graph);

    // Top-k's rising threshold would invalidate already-certified floors.
    let err = MiningSession::over(&prepared)
        .min_support(2.0)
        .top_k(3)
        .bounds_first(true)
        .run()
        .expect_err("bounds_first + top_k must be rejected");
    assert!(matches!(err, FfsmError::InvalidConfig(_)), "unexpected error: {err}");

    // The eval cache records exact supports; certified intervals are not that.
    let err = MiningSession::over(&prepared)
        .min_support(2.0)
        .bounds_first(true)
        .run_recorded()
        .expect_err("bounds_first + run_recorded must be rejected");
    assert!(matches!(err, FfsmError::InvalidConfig(_)), "unexpected error: {err}");

    // And the delta leg is rejected for the same reason, before any delta
    // plumbing runs.
    let (_, cache) =
        MiningSession::over(&prepared).min_support(2.0).run_recorded().expect("plain recorded run");
    let delta = ffsm::graph::GraphDelta {
        base_vertices: prepared.graph().num_vertices(),
        base_edges: prepared.graph().num_edges(),
        ..ffsm::graph::GraphDelta::default()
    };
    let err = MiningSession::over(&prepared)
        .min_support(2.0)
        .bounds_first(true)
        .run_delta(cache, &delta)
        .expect_err("bounds_first + run_delta must be rejected");
    assert!(matches!(err, FfsmError::InvalidConfig(_)), "unexpected error: {err}");

    // The valid form still mines: the guards reject combinations, not the flag.
    let result = MiningSession::over(&prepared)
        .min_support(2.0)
        .bounds_first(true)
        .run()
        .expect("bounds_first alone is valid");
    assert_eq!(result.completion(), ffsm::miner::Completion::Complete);
}
