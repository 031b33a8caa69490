//! `shard` — partitioned out-of-core mining on a community graph larger than
//! any other suite's workload, sweeping the shard count K.  Per K it records:
//!
//! * the wall time of the fully resident sharded session against the
//!   unsharded one (interleaved min-of-K arms), both cross-checked against an
//!   unsharded oracle run (pattern count and threshold bits);
//! * under a spilled `max_resident = 2` configuration, the shard store's
//!   **peak resident bytes** against the whole graph's bytes under the same
//!   proxy (16 B/vertex + 16 B/edge, global-id maps counted on the shard side,
//!   derived indexes excluded on both), and the number of shard loads.
//!
//! Gates: at the largest K the spilled peak is ≤ 50% of the whole-graph bytes;
//! every spilled run loads at most `K × levels` shards (the shard-major bound
//! a per-candidate reload loop breaks); every resident run stays within 2x of
//! the unsharded wall time + 250 ms.

use ffsm_bench::harness::{min_of_k, Run};
use ffsm_bench::timed;
use ffsm_core::MeasureKind;
use ffsm_graph::generators;
use ffsm_miner::{MiningResult, MiningSession, PreparedGraph};
use ffsm_shard::{PartitionSpec, PartitionedGraph};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const COMMUNITIES: usize = 32;
const COMMUNITY_SIZE: usize = 200;
const TAU: f64 = 40.0;
const MAX_EDGES: usize = 2;
const ROUNDS: usize = 3;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const MAX_RESIDENT: usize = 2;

fn mine(session: MiningSession) -> MiningResult {
    session.measure(MeasureKind::Mni).min_support(TAU).max_edges(MAX_EDGES).run().expect("mine")
}

/// A spill directory, removed on every exit path (a panicking mine included).
struct SpillDir(PathBuf);

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0); // best-effort temp cleanup
    }
}

pub fn run(run: &mut Run) {
    // 32 communities of 200 = 6,400 vertices; sparse cross-community edges, so
    // vertex-range shards cut little real structure.
    let graph = generators::community_graph(COMMUNITIES, COMMUNITY_SIZE, 0.02, 0.00002, 6, 23);
    let prepared = PreparedGraph::new(graph.clone());
    let oracle = mine(MiningSession::over(&prepared));
    let check = |result: MiningResult, what: &str| {
        assert_eq!(result.len(), oracle.len(), "{what}: pattern count diverged");
        assert_eq!(
            result.final_threshold.to_bits(),
            oracle.final_threshold.to_bits(),
            "{what}: threshold diverged"
        );
    };
    let partition = |k: usize| {
        Arc::new(
            PartitionedGraph::build(&graph, PartitionSpec::vertex_range(k, MAX_EDGES))
                .expect("partition"),
        )
    };

    // Wall time: unsharded and every fully resident K as interleaved arms.
    let resident: Vec<_> = SHARD_COUNTS.iter().map(|&k| (k, partition(k))).collect();
    let mut unsharded = || check(mine(MiningSession::over(&prepared)), "unsharded");
    let mut sharded: Vec<_> = resident
        .iter()
        .map(|(k, parts)| move || check(mine(MiningSession::over(parts)), &format!("K={k}")))
        .collect();
    let mut arms: Vec<&mut dyn FnMut()> = vec![&mut unsharded];
    arms.extend(sharded.iter_mut().map(|arm| arm as &mut dyn FnMut()));
    let timings = min_of_k(ROUNDS, &mut arms);
    let base = timings[0].0;
    let budget = base * 2 + Duration::from_millis(250);

    for (&k, (resident, _)) in SHARD_COUNTS.iter().zip(&timings[1..]) {
        // Memory: one spilled run — peak residency is deterministic.
        let parts = partition(k);
        let whole_bytes = parts.whole_graph_bytes();
        let dir = SpillDir(
            std::env::temp_dir().join(format!("ffsm-shard-bench-{}-{k}", std::process::id())),
        );
        parts.spill_to_disk(&dir.0, MAX_RESIDENT).expect("spill");
        let (result, spilled) = timed(|| mine(MiningSession::over(&parts)));
        drop(dir);
        let levels = result.stats.levels_completed;
        check(result, &format!("K={k} spilled"));
        let store = parts.store_stats();
        let (peak, loads) = (store.peak_resident_bytes, store.loads);

        let wall_ratio = resident.as_secs_f64() / base.as_secs_f64().max(1e-9);
        run.record(
            run.entry()
                .raw("shards", k)
                .raw("max_resident", MAX_RESIDENT)
                .raw("vertices", graph.num_vertices())
                .raw("edges", graph.num_edges())
                .raw("patterns", oracle.len())
                .raw("resident_us", resident.as_micros())
                .raw("spilled_us", spilled.as_micros())
                .raw("unsharded_us", base.as_micros())
                .raw("wall_ratio", format!("{wall_ratio:.4}"))
                .raw("loads", loads)
                .raw("levels", levels)
                .raw("peak_resident_bytes", peak)
                .raw("whole_graph_bytes", whole_bytes)
                .raw("memory_ratio", format!("{:.4}", peak as f64 / whole_bytes.max(1) as f64)),
        );
        if k == SHARD_COUNTS[SHARD_COUNTS.len() - 1] {
            run.gate(
                "peak_residency",
                2 * peak <= whole_bytes,
                format!(
                    "K={k} with max_resident {MAX_RESIDENT}: peak residency {peak} bytes exceeds \
                     50% of the whole graph ({whole_bytes} bytes)"
                ),
            );
        }
        run.gate(
            &format!("shard_major_loads_k{k}"),
            loads <= (k * levels) as u64,
            format!("K={k} spilled: {loads} shard loads over {levels} levels exceeds K x levels"),
        );
        run.gate(
            &format!("resident_wall_k{k}"),
            *resident <= budget,
            format!("K={k}: sharded wall time {resident:?} exceeds 2x unsharded {base:?} + 250ms"),
        );
    }
}
