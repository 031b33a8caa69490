//! Contract tests for the prepare-once/serve-many split ([`PreparedGraph`]) and
//! the streaming API ([`MiningSession::stream`]):
//!
//! * **stream == batch** — the `Pattern` events of a stream and the patterns of
//!   the equivalent batch `run()` agree bit-for-bit (canonical code, support
//!   bits, occurrence counts), across sequential / level-parallel / top-k modes
//!   and both enumerator backends (proptest, alongside the other differential
//!   harnesses in this directory);
//! * **interruption yields a prefix** — a cancelled or deadline-hit stream
//!   produces a deterministic prefix of the full run's pattern sequence, with
//!   the matching typed [`Completion`];
//! * **index exactly once** — a [`PreparedGraph`] shared across concurrent
//!   sessions builds its `GraphIndex` exactly once (build-counter assert).
//!
//! The proptest shim seeds each generator deterministically from the test name,
//! so every run (locally and in CI) replays the same fixed case sequence.

use ffsm::core::{CancelToken, EnumeratorBackend, MeasureKind};
use ffsm::graph::canonical::canonical_code;
use ffsm::graph::generators;
use ffsm::miner::{Completion, MiningEvent, MiningResult, MiningSession, PreparedGraph};
use proptest::prelude::*;
use std::time::Duration;

/// One pattern, bit-for-bit: canonical code, exact support bits, occurrences.
type PatternFingerprint = (Vec<u64>, u64, usize);

fn fingerprint(pattern: &ffsm::miner::FrequentPattern) -> PatternFingerprint {
    (
        canonical_code(&pattern.pattern).as_slice().to_vec(),
        pattern.support.to_bits(),
        pattern.num_occurrences,
    )
}

fn session(
    prepared: &PreparedGraph,
    measure: MeasureKind,
    backend: EnumeratorBackend,
    threads: usize,
    top_k: Option<usize>,
) -> MiningSession {
    let mut session = MiningSession::over(prepared)
        .measure(measure)
        .min_support(2.0)
        .max_edges(2)
        .enumerator(backend)
        .threads(threads);
    if let Some(k) = top_k {
        session = session.top_k(k);
    }
    session
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Tentpole differential: streamed patterns == batch `run()` patterns
    /// bit-for-bit across sequential / parallel / top-k and both backends.
    #[test]
    fn stream_equals_batch_across_modes_and_backends(seed in 0u64..10_000) {
        let graph = generators::community_graph(2, 9, 0.45, 0.08, 3, seed);
        prop_assume!(graph.num_edges() >= 4);
        let prepared = PreparedGraph::new(graph);
        for backend in [EnumeratorBackend::CandidateSpace, EnumeratorBackend::Naive] {
            for (threads, top_k) in [(1, None), (3, None), (2, Some(5))] {
                let context = format!("seed {seed}, {backend:?}, {threads} threads, top_k {top_k:?}");
                let batch: MiningResult =
                    session(&prepared, MeasureKind::Mni, backend, threads, top_k)
                        .run()
                        .expect("valid session");
                let mut streamed: Vec<PatternFingerprint> = Vec::new();
                let mut finished = None;
                let stream = session(&prepared, MeasureKind::Mni, backend, threads, top_k)
                    .stream()
                    .expect("valid session");
                for event in stream {
                    match event.expect("in-process streams never error") {
                        MiningEvent::Pattern(p) => streamed.push(fingerprint(&p)),
                        MiningEvent::LevelCompleted(_) | MiningEvent::Undecided(_) => {}
                        MiningEvent::Finished(summary) => finished = Some(summary),
                    }
                }
                let summary = finished.expect("stream ends with Finished");
                prop_assert_eq!(summary.completion, Completion::Complete, "{}", &context);
                prop_assert_eq!(summary.num_patterns, batch.len(), "{}", &context);
                let batch_fp: Vec<PatternFingerprint> =
                    batch.patterns.iter().map(fingerprint).collect();
                match top_k {
                    None => {
                        // Threshold mode: the event sequence IS the result sequence.
                        prop_assert_eq!(&streamed, &batch_fp, "stream != batch, {}", &context);
                    }
                    Some(_) => {
                        // Top-k mode: events are entries into the running top-k (a
                        // superset); the final result must match the batch exactly.
                        for fp in &batch_fp {
                            prop_assert!(streamed.contains(fp),
                                "batch pattern missing from stream, {}", &context);
                        }
                    }
                }
                // And the stream's own batch view agrees too.
                let via_stream = session(&prepared, MeasureKind::Mni, backend, threads, top_k)
                    .stream()
                    .expect("valid session")
                    .into_result()
                    .expect("in-memory mining cannot fail");
                let via_stream_fp: Vec<PatternFingerprint> =
                    via_stream.patterns.iter().map(fingerprint).collect();
                prop_assert_eq!(&via_stream_fp, &batch_fp, "into_result != run, {}", &context);
                prop_assert_eq!(via_stream.final_threshold.to_bits(),
                    batch.final_threshold.to_bits(), "threshold, {}", &context);
            }
        }
        // Every session above shared one prepared graph: its index was built
        // exactly once (the naive-backend sessions never need it, the
        // candidate-space ones share it).
        prop_assert_eq!(prepared.index_build_count(), 1);
    }

    /// A stream cancelled after consuming part of its events yields a prefix of
    /// the full run's pattern sequence — whole levels, deterministic.
    #[test]
    fn cancelled_stream_yields_deterministic_prefix(
        seed in 0u64..10_000,
        consume in 0usize..12,
    ) {
        let graph = generators::community_graph(2, 8, 0.5, 0.1, 3, seed);
        prop_assume!(graph.num_edges() >= 4);
        let prepared = PreparedGraph::new(graph);
        let full = MiningSession::over(&prepared)
            .min_support(2.0)
            .max_edges(3)
            .run()
            .expect("valid session");
        let full_fp: Vec<PatternFingerprint> = full.patterns.iter().map(fingerprint).collect();

        let token = CancelToken::new();
        let mut stream = MiningSession::over(&prepared)
            .min_support(2.0)
            .max_edges(3)
            .cancel_token(token.clone())
            .stream()
            .expect("valid session");
        for _ in 0..consume {
            if stream.next().is_none() {
                break;
            }
        }
        token.cancel();
        let partial = stream.into_result().expect("in-memory mining cannot fail");
        let partial_fp: Vec<PatternFingerprint> =
            partial.patterns.iter().map(fingerprint).collect();
        prop_assert!(partial_fp.len() <= full_fp.len());
        prop_assert_eq!(&partial_fp[..], &full_fp[..partial_fp.len()],
            "cancelled result is not a prefix, seed {}, consumed {}", seed, consume);
        // Either the run finished before the token was honoured, or it reports
        // the cancellation; a short prefix must never masquerade as complete.
        match partial.completion() {
            Completion::Complete => prop_assert_eq!(partial_fp.len(), full_fp.len()),
            Completion::Cancelled => {}
            other => prop_assert!(false, "unexpected completion {:?}", other),
        }
    }
}

#[test]
fn zero_deadline_stops_before_any_level() {
    let triangle = ffsm::graph::LabeledGraph::from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
    let graph = generators::replicated(&triangle, 5, false);
    let result = MiningSession::on(&graph)
        .min_support(1.0)
        .deadline(Duration::ZERO)
        .run()
        .expect("valid session");
    assert!(result.is_empty());
    assert_eq!(result.completion(), Completion::DeadlineExceeded);
    assert!(result.stats.truncated());

    // The stream form emits exactly one event: the typed Finished.
    let events: Vec<MiningEvent> = MiningSession::on(&graph)
        .min_support(1.0)
        .deadline(Duration::ZERO)
        .stream()
        .expect("valid session")
        .map(|e| e.unwrap())
        .collect();
    assert_eq!(events.len(), 1);
    assert!(matches!(
        &events[0],
        MiningEvent::Finished(s) if s.completion == Completion::DeadlineExceeded
    ));
}

#[test]
fn generous_deadline_changes_nothing() {
    let graph = generators::community_graph(2, 8, 0.5, 0.1, 3, 41);
    let prepared = PreparedGraph::new(graph);
    let plain = MiningSession::over(&prepared).min_support(2.0).run().unwrap();
    let deadlined = MiningSession::over(&prepared)
        .min_support(2.0)
        .deadline(Duration::from_secs(3600))
        .run()
        .unwrap();
    assert_eq!(plain.len(), deadlined.len());
    assert_eq!(deadlined.completion(), Completion::Complete);
}

#[test]
fn budget_caps_report_which_budget() {
    let graph = generators::gnm_random(60, 180, 2, 8);
    let prepared = PreparedGraph::new(graph);
    let evals = MiningSession::over(&prepared)
        .min_support(1.0)
        .budget(ffsm::miner::MiningBudget { max_evaluations: 4, max_patterns: 10_000 })
        .run()
        .unwrap();
    assert_eq!(
        evals.completion(),
        Completion::BudgetExhausted(ffsm::miner::BudgetKind::Evaluations)
    );
    assert!(evals.stats.candidates_evaluated <= 4);

    let patterns = MiningSession::over(&prepared)
        .min_support(1.0)
        .budget(ffsm::miner::MiningBudget { max_evaluations: 100_000, max_patterns: 2 })
        .run()
        .unwrap();
    assert_eq!(
        patterns.completion(),
        Completion::BudgetExhausted(ffsm::miner::BudgetKind::Patterns)
    );
    assert_eq!(patterns.len(), 2);
}

/// The headline serving contract: one `PreparedGraph`, many concurrent sessions,
/// exactly one index build — and every session agrees with the others.
#[test]
fn shared_prepared_graph_builds_index_exactly_once_across_threads() {
    let graph = generators::community_graph(3, 10, 0.4, 0.05, 3, 77);
    let prepared = PreparedGraph::new(graph);
    assert_eq!(prepared.index_build_count(), 0, "index must stay lazy until a session runs");
    let results: Vec<Vec<PatternFingerprint>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let prepared = prepared.clone();
                scope.spawn(move || {
                    // Mix of modes, all over the same shared handle.
                    let mut session = MiningSession::over(&prepared).min_support(2.0).max_edges(2);
                    if i % 2 == 1 {
                        session = session.threads(2);
                    }
                    session
                        .run()
                        .expect("valid session")
                        .patterns
                        .iter()
                        .map(fingerprint)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("mining thread panicked")).collect()
    });
    assert_eq!(
        prepared.index_build_count(),
        1,
        "concurrent sessions must share exactly one index build"
    );
    for w in results.windows(2) {
        assert_eq!(w[0], w[1], "concurrent sessions disagreed");
    }
}
