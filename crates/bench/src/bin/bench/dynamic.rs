//! `dynamic` — after a small update batch, **incremental** apply + re-mine
//! (`PreparedGraph::apply_updates` patching the matching index over the dirty
//! region, then `MiningSession::run_delta` reusing the prior epoch's evaluation
//! cache) versus the **cold** path (rebuild the `PreparedGraph` and mine from
//! scratch), at deltas of 1, 8 and 64 edge updates, timed min-of-K like the other
//! suites.  The incremental arm clones the recorded cache on every round (a
//! serving loop would move it), so its time can only be overstated.  The
//! incremental result is cross-checked against the cold one pattern for pattern.
//!
//! Gates: ≥ 5x speedup at every delta of ≤ 8 edges, where incremental
//! maintenance must win decisively; and at every delta size, exactly the
//! number of reused evaluations the reuse argument allows on this workload
//! (deterministic: the workload and its deltas are seeded).  Each row also
//! records `dirty_subgraphs`, the dirty-region subgraphs the delta run coded.

use ffsm_bench::harness::{min_of_k, Run};
use ffsm_core::{GraphUpdate, MeasureKind};
use ffsm_graph::{generators, LabeledGraph};
use ffsm_miner::{MiningResult, MiningSession, PreparedGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VERTICES: usize = 30_000;
const EDGES: usize = 45_000;
const LABELS: u32 = 24;
const ROUNDS: usize = 3;
/// Evaluations reused at 1, 8 and 64 delta edges.
const REUSED: [(usize, usize); 3] = [(1, 7_469), (8, 7_224), (64, 5_655)];

/// The per-epoch query: a level-2 threshold mine — enumeration-heavy enough
/// that per-epoch setup and re-evaluation both matter.
fn query(session: MiningSession) -> MiningSession {
    session.measure(MeasureKind::Mni).min_support(20.0).max_edges(2)
}

/// A batch of `k` edge updates, half removals of existing edges and half fresh
/// insertions, all valid against `graph`.
fn edge_delta(graph: &LabeledGraph, k: usize, rng: &mut StdRng) -> Vec<GraphUpdate> {
    let n = graph.num_vertices() as u32;
    let edges: Vec<_> = graph.edges().collect();
    let mut batch = Vec::with_capacity(k);
    for i in 0..k {
        if i % 2 == 0 && !edges.is_empty() {
            let (u, v) = edges[rng.gen_range(0..edges.len())];
            // Duplicate removals are no-ops; acceptable noise at delta size 64.
            batch.push(GraphUpdate::RemoveEdge(u, v));
        } else {
            loop {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u != v && !graph.has_edge(u, v) {
                    batch.push(GraphUpdate::AddEdge(u, v));
                    break;
                }
            }
        }
    }
    batch
}

fn fingerprints(result: &MiningResult) -> Vec<(u64, usize)> {
    result.patterns.iter().map(|p| (p.support.to_bits(), p.num_occurrences)).collect()
}

pub fn run(run: &mut Run) {
    let prepared = PreparedGraph::new(generators::gnm_random(VERTICES, EDGES, LABELS, 7));
    let mut rng = StdRng::seed_from_u64(42);
    for (delta_edges, reused) in REUSED {
        // Prior epoch: the recorded base mine, paid once by a serving loop, untimed.
        let (_, cache) = query(MiningSession::over(&prepared)).run_recorded().expect("base mine");
        let batch = edge_delta(prepared.graph(), delta_edges, &mut rng);
        let (next, _) = prepared.apply_updates(&batch).expect("valid batch");
        let mut incremental = || {
            let (next, delta) = prepared.apply_updates(&batch).expect("valid batch");
            let (result, _) = query(MiningSession::over(&next))
                .run_delta(cache.clone(), &delta)
                .expect("delta mine");
            result
        };
        // Cold path: rebuild the per-graph artifacts and mine the same new graph.
        let mut cold = || {
            let cold = PreparedGraph::new(next.graph().clone());
            query(MiningSession::over(&cold)).run().expect("cold mine")
        };
        let mut timings = min_of_k(ROUNDS, &mut [&mut incremental, &mut cold]).into_iter();
        let (incremental, result) = timings.next().expect("incremental arm");
        let (cold, cold_result) = timings.next().expect("cold arm");
        assert_eq!(
            fingerprints(&result),
            fingerprints(&cold_result),
            "incremental re-mine diverged from the cold oracle ({delta_edges} edges)"
        );
        let speedup = cold.as_secs_f64() / incremental.as_secs_f64().max(1e-9);
        run.record(
            run.entry()
                .str("workload", "sparse_random")
                .raw("delta_edges", delta_edges)
                .raw("patterns", result.len())
                .raw("evaluated", result.stats.candidates_evaluated)
                .raw("reused", result.stats.evaluations_reused)
                .raw("dirty_subgraphs", result.stats.dirty_subgraphs)
                .raw("capped", result.stats.counters.space_capped)
                .raw("cold_us", cold.as_micros())
                .raw("incremental_us", incremental.as_micros())
                .raw("speedup", format!("{speedup:.2}")),
        );
        run.gate(
            &format!("reused_{delta_edges}_edges"),
            result.stats.evaluations_reused == reused,
            format!(
                "{} evaluations reused at {delta_edges} delta edges, expected exactly {reused}",
                result.stats.evaluations_reused
            ),
        );
        if delta_edges <= 8 {
            run.gate(
                &format!("speedup_{delta_edges}_edges"),
                speedup >= 5.0,
                format!(
                    "incremental apply+re-mine only {speedup:.2}x over cold rebuild+mine at \
                     {delta_edges} delta edges ({incremental:?} vs {cold:?}); floor 5x"
                ),
            );
        }
    }
}
