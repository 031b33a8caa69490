//! `dynamic_bench` — the `dynamic_updates` workload behind `BENCH_dynamic.json`.
//!
//! Measures the dynamic-graph subsystem's reason to exist: after a small update
//! batch, **incremental** apply + re-mine (`PreparedGraph::apply_updates`
//! patching the matching index over the dirty region, then
//! `MiningSession::run_delta` reusing the prior epoch's evaluation cache)
//! versus the **cold** path every pre-dynamic caller paid (rebuild the
//! `PreparedGraph` — label stats + full `GraphIndex` — and run a full mine from
//! scratch).  Both paths answer the identical query and the incremental result
//! is cross-checked against the cold one pattern-for-pattern, so the bench
//! doubles as an integration test.
//!
//! Deltas of 1, 8 and 64 edge updates are benched; the acceptance gate asserts
//! a ≥ 5x speedup on the small-delta (≤ 8 edges) workloads, which is where
//! incremental maintenance must win decisively.
//!
//! Usage: `dynamic_bench [--vertices N] [--edges M] [--labels L] [--out PATH]`
//! (defaults: 30000 vertices, 45000 edges, 24 labels, `BENCH_dynamic.json`).

use ffsm_bench::report::Table;
use ffsm_bench::{flag_value, format_duration, timed};
use ffsm_core::{GraphUpdate, MeasureKind};
use ffsm_graph::{generators, LabeledGraph};
use ffsm_miner::{MiningResult, MiningSession, PreparedGraph};
use ffsm_serve::events::json_string;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

struct Entry {
    workload: &'static str,
    delta_edges: usize,
    patterns: usize,
    evaluated: usize,
    reused: usize,
    cold: Duration,
    incremental: Duration,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.incremental.as_secs_f64().max(1e-9)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"workload\": {}, \"delta_edges\": {}, \"patterns\": {}, \"evaluated\": {}, \
             \"reused\": {}, \"cold_us\": {}, \"incremental_us\": {}, \"speedup\": {:.2}}}",
            json_string(self.workload),
            self.delta_edges,
            self.patterns,
            self.evaluated,
            self.reused,
            self.cold.as_micros(),
            self.incremental.as_micros(),
            self.speedup()
        )
    }
}

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

fn measure(
    workload: &'static str,
    prepared: &PreparedGraph,
    delta_edges: usize,
    rng: &mut StdRng,
) -> Entry {
    // Prior epoch: recorded base mine (amortised across every later epoch, so
    // untimed — the serving loop pays it once).
    let (_, cache) = query(MiningSession::over(prepared)).run_recorded().expect("base mine");
    let batch = edge_delta(prepared.graph(), delta_edges, rng);

    // Incremental path: patch the prepared artifacts, delta re-mine.
    let (outcome, incremental_time) = timed(|| {
        let (next, delta) = prepared.apply_updates(&batch).expect("valid batch");
        let (result, _next_cache) =
            query(MiningSession::over(&next)).run_delta(cache, &delta).expect("delta mine");
        (next, result)
    });
    let (next, incremental_result) = outcome;

    // Cold path: what every epoch cost before the subsystem existed — rebuild
    // the per-graph artifacts and mine from scratch over the same new graph.
    let new_graph = next.graph().clone();
    let (cold_result, cold_time) = timed(|| {
        let cold = PreparedGraph::new(new_graph.clone());
        query(MiningSession::over(&cold)).run().expect("cold mine")
    });

    assert_eq!(
        fingerprints(&incremental_result),
        fingerprints(&cold_result),
        "incremental re-mine diverged from the cold oracle ({workload}, {delta_edges} edges)"
    );
    Entry {
        workload,
        delta_edges,
        patterns: incremental_result.len(),
        evaluated: incremental_result.stats.candidates_evaluated,
        reused: incremental_result.stats.evaluations_reused,
        cold: cold_time,
        incremental: incremental_time,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let vertices: usize = flag_value(&args, "--vertices")
        .map(|v| v.parse().expect("--vertices expects a number"))
        .unwrap_or(30_000);
    let edges: usize = flag_value(&args, "--edges")
        .map(|v| v.parse().expect("--edges expects a number"))
        .unwrap_or(45_000);
    let labels: u32 = flag_value(&args, "--labels")
        .map(|v| v.parse().expect("--labels expects a number"))
        .unwrap_or(24);
    let out_path = flag_value(&args, "--out").unwrap_or("BENCH_dynamic.json").to_string();

    let prepared = PreparedGraph::new(generators::gnm_random(vertices, edges, labels, 7));
    let mut rng = StdRng::seed_from_u64(42);
    let mut entries: Vec<Entry> = Vec::new();
    let mut table = Table::new(
        "dynamic_updates: incremental apply + delta re-mine vs cold rebuild + full mine",
        &[
            "workload",
            "Δ edges",
            "patterns",
            "evaluated",
            "reused",
            "cold",
            "incremental",
            "speedup",
        ],
    );
    for delta_edges in [1usize, 8, 64] {
        entries.push(measure("sparse_random", &prepared, delta_edges, &mut rng));
    }
    for e in &entries {
        table.add_row(vec![
            e.workload.to_string(),
            e.delta_edges.to_string(),
            e.patterns.to_string(),
            e.evaluated.to_string(),
            e.reused.to_string(),
            format_duration(e.cold),
            format_duration(e.incremental),
            format!("{:.2}x", e.speedup()),
        ]);
    }
    table.print();

    let body: Vec<String> = entries.iter().map(|e| format!("    {}", e.to_json())).collect();
    let json = format!(
        "{{\n  \"bench\": \"dynamic_updates\",\n  \"workloads\": [\"sparse_random\"],\n  \
         \"entries\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write perf report");
    println!("wrote {out_path} ({} entries)", entries.len());

    // Acceptance gate: small deltas must beat the cold path decisively — this
    // is the subsystem's entire reason to exist.
    for e in entries.iter().filter(|e| e.delta_edges <= 8) {
        assert!(
            e.speedup() >= 5.0,
            "incremental apply+re-mine only {:.2}x over cold rebuild+mine at {} delta edges \
             ({:?} vs {:?}) — incremental maintenance regressed",
            e.speedup(),
            e.delta_edges,
            e.incremental,
            e.cold
        );
    }
}
