//! Differential harness for the observability layer, alongside
//! `overlap_differential.rs` / `match_differential.rs` / `dynamic_differential.rs`:
//!
//! * **metrics-on == metrics-off, bit for bit** — enabling fine-grained phase
//!   timing ([`MiningSession::metrics`]) changes *what is recorded*, never
//!   *what is mined*: across all four paper measures (MNI / MI / MVC / MIS)
//!   and both enumerator backends, the timed run reproduces the untimed
//!   run's patterns (canonical codes, support bits, occurrence counts), final
//!   threshold, completion, evaluation counts — and the always-on counter
//!   block itself; the MIS runs also report overlap probes and overlap-build
//!   time;
//! * **`patterns_emitted` is the stream** — the counter equals the number of
//!   `Pattern` events a streaming consumer sees, in both threshold and top-k
//!   modes, under every backend (proptest);
//! * **counters are thread-count invariant** — per-worker tallies merged from
//!   a parallel run equal the single-threaded totals, with `arena_peak_bytes`
//!   as the one documented exception (a single arena serving every candidate
//!   grows larger than each of several), under every backend and measure
//!   (proptest).
//!
//! The proptest shim seeds each generator deterministically from the test
//! name, so every run replays the same fixed case sequence.

use ffsm::core::{EnumeratorBackend, MeasureKind};
use ffsm::graph::canonical::canonical_code;
use ffsm::graph::generators;
use ffsm::miner::{
    MiningEvent, MiningResult, MiningSession, Phase, PreparedGraph, SessionCounters,
};
use proptest::prelude::*;

const MEASURES: [MeasureKind; 4] =
    [MeasureKind::Mni, MeasureKind::Mi, MeasureKind::Mvc, MeasureKind::Mis];
const BACKENDS: [EnumeratorBackend; 2] =
    [EnumeratorBackend::CandidateSpace, EnumeratorBackend::Naive];

/// Everything observable about a mined pattern, with supports compared by bit
/// pattern (not epsilon) — the contract is identity, not closeness.
type PatternFingerprint = (Vec<u64>, u64, usize);

fn fingerprints(result: &MiningResult) -> Vec<PatternFingerprint> {
    result
        .patterns
        .iter()
        .map(|p| {
            (canonical_code(&p.pattern).as_slice().to_vec(), p.support.to_bits(), p.num_occurrences)
        })
        .collect()
}

/// `SessionCounters` minus the one field documented to vary with threading.
fn thread_invariant(counters: &SessionCounters) -> SessionCounters {
    SessionCounters { arena_peak_bytes: 0, ..*counters }
}

#[test]
fn metrics_on_is_bit_for_bit_identical_across_measures_and_backends() {
    let graph = generators::gnm_random(40, 90, 3, 29);
    let prepared = PreparedGraph::new(graph);
    for measure in MEASURES {
        for backend in BACKENDS {
            let run = |metrics: bool| {
                MiningSession::over(&prepared)
                    .measure(measure)
                    .min_support(3.0)
                    .max_edges(2)
                    .enumerator(backend)
                    .metrics(metrics)
                    .run()
                    .expect("mine")
            };
            let off = run(false);
            let on = run(true);
            let context = format!("{measure} under {backend:?}");
            assert!(!off.patterns.is_empty(), "{context}: workload must produce patterns");
            assert_eq!(fingerprints(&on), fingerprints(&off), "{context}: patterns");
            assert_eq!(
                on.final_threshold.to_bits(),
                off.final_threshold.to_bits(),
                "{context}: threshold"
            );
            assert_eq!(on.completion(), off.completion(), "{context}: completion");
            assert_eq!(
                on.stats.candidates_evaluated, off.stats.candidates_evaluated,
                "{context}: evaluations"
            );
            assert_eq!(
                on.stats.candidates_pruned, off.stats.candidates_pruned,
                "{context}: prunes"
            );
            // The counter block is always-on and identically fed in both arms —
            // including the search-step totals the timing spans wrap around.
            assert_eq!(on.stats.counters, off.stats.counters, "{context}: counters");
            // And the timed arm actually timed something beyond the coarse
            // always-on phases (otherwise `metrics(true)` silently did nothing).
            assert!(
                on.stats.phase_timings.exclusive_total_nanos() > 0,
                "{context}: timed run recorded no phase time"
            );
            // MIS solves on the overlap graph: its build is counted and timed.
            if measure == MeasureKind::Mis {
                assert!(on.stats.counters.overlap_probes > 0, "{context}: no overlap probes");
                assert!(
                    on.stats.phase_timings.nanos(Phase::OverlapBuild) > 0,
                    "{context}: no overlap-build time"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// `patterns_emitted` == the number of `Pattern` events streamed, in both
    /// threshold and top-k sessions, across all backends.  Top-k runs count
    /// emissions (including patterns later evicted from the final k), so the
    /// stream — not the final result set — is the ground truth compared here.
    #[test]
    fn patterns_emitted_counts_streamed_pattern_events(
        seed in 0u64..10_000,
        tau in 2usize..5,
        top_k in 0usize..6, // 0 = threshold mode, otherwise top-k
    ) {
        let top_k = (top_k > 0).then_some(top_k);
        let graph = generators::gnm_random(26, 56, 2, seed);
        let prepared = PreparedGraph::new(graph);
        let backend = BACKENDS[seed as usize % BACKENDS.len()];
        let mut session = MiningSession::over(&prepared)
            .min_support(tau as f64)
            .max_edges(2)
            .enumerator(backend);
        if let Some(k) = top_k {
            session = session.top_k(k);
        }
        let mut streamed = 0u64;
        let mut summary = None;
        for event in session.stream().expect("stream") {
            match event.expect("event") {
                MiningEvent::Pattern(_) => streamed += 1,
                MiningEvent::LevelCompleted(level) => {
                    // Mid-run snapshots never run ahead of the stream.
                    prop_assert_eq!(level.stats.counters.patterns_emitted, streamed,
                        "level snapshot, seed {}, {:?}", seed, backend);
                }
                MiningEvent::Finished(s) => summary = Some(s),
                MiningEvent::Undecided(_) => {}
            }
        }
        let summary = summary.expect("finished frame");
        prop_assert_eq!(summary.stats.counters.patterns_emitted, streamed,
            "final counter, seed {}, {:?}, top_k {:?}", seed, backend, top_k);
        if top_k.is_none() {
            // Threshold mode keeps everything it emits.
            prop_assert_eq!(summary.num_patterns as u64, streamed,
                "threshold-mode result set, seed {}", seed);
        }
    }

    /// Merged per-worker counter shards == the single-threaded totals: the
    /// candidate partition changes which arena does the work, never how much
    /// work is done.  `arena_peak_bytes` is the documented exception and is
    /// excluded from the equality; everything else — and the mined patterns —
    /// must be identical.
    ///
    /// `arena_peak_bytes` itself is pinned to its *gauge* contract: the
    /// reported value is the per-worker **maximum** arena footprint, never a
    /// sum across workers.  A max over per-worker arenas (each serving a
    /// subset of the candidates) cannot exceed the single arena that served
    /// them all; a sum over W busy workers would.  The 2x slack keeps the
    /// assertion from tipping over on allocator rounding while still failing
    /// loudly if the merge ever turns additive.
    #[test]
    fn merged_worker_counters_equal_single_threaded_totals(seed in 0u64..10_000) {
        let graph = generators::gnm_random(28, 60, 2, seed);
        let prepared = PreparedGraph::new(graph);
        let measure = MEASURES[(seed % 4) as usize];
        let backend = BACKENDS[(seed / 4) as usize % BACKENDS.len()];
        let run = |threads: usize| {
            MiningSession::over(&prepared)
                .measure(measure)
                .min_support(2.0)
                .max_edges(2)
                .enumerator(backend)
                .threads(threads)
                .run()
                .expect("mine")
        };
        let sequential = run(1);
        // The naive backend never grows an arena, so a zero peak is legitimate
        // — but then the parallel runs must report zero too (a max of zeros).
        let sequential_peak = sequential.stats.counters.arena_peak_bytes;
        for threads in [3usize, 0] {
            let parallel = run(threads);
            let context = format!("seed {seed}, {measure} under {backend:?}, {threads} threads");
            prop_assert_eq!(fingerprints(&parallel), fingerprints(&sequential),
                "patterns, {}", &context);
            prop_assert_eq!(
                thread_invariant(&parallel.stats.counters),
                thread_invariant(&sequential.stats.counters),
                "merged shards diverged from sequential totals, {}", &context
            );
            let parallel_peak = parallel.stats.counters.arena_peak_bytes;
            prop_assert_eq!(parallel_peak > 0, sequential_peak > 0,
                "arena peak appeared or vanished in the merge, {}", &context);
            prop_assert!(parallel_peak <= 2 * sequential_peak,
                "arena_peak_bytes looks summed, not maxed: parallel {} vs sequential {}, {}",
                parallel_peak, sequential_peak, &context);
        }
    }
}
