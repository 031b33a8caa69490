//! Differential harness for partitioned mining, alongside
//! `overlap_differential.rs` / `match_differential.rs` / `dynamic_differential.rs`
//! / `obs_differential.rs`:
//!
//! * **sharded == unsharded, bit for bit** — splitting the data graph into K
//!   interior+halo shards and merging the per-shard occurrences (anchor-shard
//!   dedup + exact support merge) reproduces the whole-graph engine's results
//!   exactly: canonical codes, support *bits* (not epsilon), occurrence counts,
//!   final threshold, completion and evaluation counts — across all four paper
//!   measures (MNI / MI / MVC / MIS), both enumerator backends, both
//!   partition strategies, and shard counts {1, 2, 3, 7} (proptest);
//! * **spill-and-reload changes nothing** — evicting shards to disk and
//!   reloading them through the LRU store is invisible to the mined results,
//!   and the store actually worked (loads observed, residency capped).
//!
//! The proptest shim seeds each generator deterministically from the test
//! name, so every run replays the same fixed case sequence.

use ffsm::core::{EnumeratorBackend, MeasureKind};
use ffsm::graph::canonical::canonical_code;
use ffsm::graph::generators;
use ffsm::miner::{MiningResult, MiningSession, PreparedGraph, ShardedSession};
use ffsm::shard::{PartitionSpec, PartitionStrategy, PartitionedGraph};
use proptest::prelude::*;
use std::sync::Arc;

const MEASURES: [MeasureKind; 4] =
    [MeasureKind::Mni, MeasureKind::Mi, MeasureKind::Mvc, MeasureKind::Mis];
const BACKENDS: [EnumeratorBackend; 2] =
    [EnumeratorBackend::CandidateSpace, EnumeratorBackend::Naive];
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

/// Everything observable about a mined pattern, with supports compared by bit
/// pattern — the contract is identity, not closeness.
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

/// Mine `graph` whole (the oracle) and through a K-shard partition, and demand
/// bit-for-bit identity on everything a caller can observe.
fn assert_sharded_matches(
    graph: &ffsm::graph::LabeledGraph,
    measure: MeasureKind,
    backend: EnumeratorBackend,
    tau: f64,
    max_edges: usize,
    spec: PartitionSpec,
    context: &str,
) {
    let prepared = PreparedGraph::new(graph.clone());
    let whole = MiningSession::over(&prepared)
        .measure(measure)
        .min_support(tau)
        .max_edges(max_edges)
        .enumerator(backend)
        .run()
        .expect("unsharded mine");
    let partitioned = Arc::new(PartitionedGraph::build(graph, spec).expect("partition"));
    let sharded = ShardedSession::over(&partitioned)
        .measure(measure)
        .min_support(tau)
        .max_edges(max_edges)
        .enumerator(backend)
        .run()
        .expect("sharded mine");
    assert_eq!(fingerprints(&sharded), fingerprints(&whole), "{context}: patterns");
    assert_eq!(
        sharded.final_threshold.to_bits(),
        whole.final_threshold.to_bits(),
        "{context}: threshold"
    );
    assert_eq!(sharded.completion(), whole.completion(), "{context}: completion");
    assert_eq!(
        sharded.stats.candidates_evaluated, whole.stats.candidates_evaluated,
        "{context}: evaluations"
    );
    assert_eq!(
        sharded.stats.candidates_generated, whole.stats.candidates_generated,
        "{context}: generations"
    );
}

#[test]
fn sharded_matches_unsharded_across_measures_backends_and_strategies() {
    // Two communities, so vertex-range cuts straddle real structure; label
    // skew, so label-aware packing differs from vertex ranges.
    let graph = generators::community_graph(4, 12, 0.25, 0.02, 3, 41);
    for (i, measure) in MEASURES.into_iter().enumerate() {
        let backend = BACKENDS[i % BACKENDS.len()];
        for shards in SHARD_COUNTS {
            for strategy in [PartitionStrategy::VertexRange, PartitionStrategy::LabelAware] {
                let spec = PartitionSpec { num_shards: shards, halo_depth: 2, strategy };
                assert_sharded_matches(
                    &graph,
                    measure,
                    backend,
                    3.0,
                    2,
                    spec,
                    &format!("{measure} under {backend:?}, {shards} {strategy} shards"),
                );
            }
        }
    }
}

#[test]
fn spilled_partition_mines_identically_and_exercises_the_store() {
    let graph = generators::gnm_random(60, 140, 3, 77);
    let prepared = PreparedGraph::new(graph.clone());
    let whole =
        MiningSession::over(&prepared).min_support(3.0).max_edges(2).run().expect("unsharded mine");
    for shards in [2usize, 3, 7] {
        let partitioned = Arc::new(
            PartitionedGraph::build(&graph, PartitionSpec::vertex_range(shards, 2))
                .expect("partition"),
        );
        let dir = std::env::temp_dir()
            .join(format!("ffsm-shard-differential-{}-{shards}", std::process::id()));
        partitioned.spill_to_disk(&dir, 1).expect("spill");
        let (sharded, run) = ShardedSession::over(&partitioned)
            .min_support(3.0)
            .max_edges(2)
            .run_detailed()
            .expect("sharded mine");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        assert_eq!(fingerprints(&sharded), fingerprints(&whole), "{shards} shards, spilled");
        assert!(run.store.loads > 0, "{shards} shards: the store never reloaded a shard");
        assert_eq!(run.store.resident_shards, 1, "{shards} shards: residency cap ignored");
    }
}

#[test]
fn spilled_levels_load_each_shard_at_most_once() {
    // Far more candidates per level than shards: a candidate-major loop would
    // reload every evicted shard once per candidate.
    const K: usize = 4;
    let graph = generators::community_graph(4, 30, 0.2, 0.01, 4, 13);
    let prepared = PreparedGraph::new(graph.clone());
    let whole =
        MiningSession::over(&prepared).min_support(3.0).max_edges(2).run().expect("unsharded mine");
    for max_resident in [1usize, 2] {
        for threads in [1usize, 2, 4, 0] {
            let context = format!("max_resident {max_resident}, threads {threads}");
            let partitioned = Arc::new(
                PartitionedGraph::build(&graph, PartitionSpec::vertex_range(K, 2))
                    .expect("partition"),
            );
            let dir = std::env::temp_dir().join(format!(
                "ffsm-shard-load-bound-{}-{max_resident}-{threads}",
                std::process::id()
            ));
            partitioned.spill_to_disk(&dir, max_resident).expect("spill");
            let (sharded, run) = ShardedSession::over(&partitioned)
                .min_support(3.0)
                .max_edges(2)
                .threads(threads)
                .run_detailed()
                .expect("sharded mine");
            std::fs::remove_dir_all(&dir).expect("cleanup");
            assert_eq!(fingerprints(&sharded), fingerprints(&whole), "{context}: patterns");
            let levels = sharded.stats.levels_completed;
            assert!(
                sharded.stats.candidates_evaluated > K * levels,
                "{context}: too few candidates to tell shard-major from candidate-major"
            );
            assert!(
                run.store.loads <= (K * levels) as u64,
                "{context}: {} loads over {levels} levels exceeds {K} per level",
                run.store.loads
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, .. ProptestConfig::default() })]

    /// Random graphs, every measure/backend pairing (seed-driven), every shard
    /// count: the partitioned engine is indistinguishable from the oracle.
    #[test]
    fn sharded_equals_unsharded_on_random_graphs(
        seed in 0u64..10_000,
        tau in 2usize..5,
    ) {
        let graph = generators::gnm_random(30, 64, 2, seed);
        let measure = MEASURES[(seed % 4) as usize];
        let backend = BACKENDS[(seed / 4) as usize % BACKENDS.len()];
        let strategy = if seed % 2 == 0 {
            PartitionStrategy::VertexRange
        } else {
            PartitionStrategy::LabelAware
        };
        for shards in SHARD_COUNTS {
            let spec = PartitionSpec { num_shards: shards, halo_depth: 2, strategy };
            assert_sharded_matches(
                &graph,
                measure,
                backend,
                tau as f64,
                2,
                spec,
                &format!("seed {seed}, {measure} under {backend:?}, {shards} {strategy} shards"),
            );
        }
    }
}
