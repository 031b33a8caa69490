//! `prepared_bench` — the `prepared_serving` workload behind `BENCH_prepared.json`.
//!
//! Measures the prepare-once/serve-many split of [`PreparedGraph`]: `N` mining
//! sessions answered over **one** shared `PreparedGraph` (the index and label
//! statistics built once, amortised across the batch) versus `N` **cold**
//! `MiningSession::on(&graph)` calls (each clones the graph and rebuilds every
//! per-graph artifact — exactly what a naive serving loop would pay per request).
//! Both paths run the identical query mix, and every prepared result is
//! cross-checked against its cold twin, so the bench doubles as an integration
//! test of the sharing.
//!
//! Usage: `prepared_bench [--sessions N] [--vertices N] [--out PATH]`
//! (defaults: 12 sessions, 20000 vertices, `BENCH_prepared.json` in the working
//! directory).
//!
//! The JSON report is a flat list of entries (`workload`, `sessions`, `patterns`,
//! `cold_us`, `prepared_us`, `index_builds`, `speedup`) consumed by the CI
//! artifact upload; future PRs extend the trajectory rather than reformatting it.

use ffsm_bench::report::Table;
use ffsm_bench::{flag_value, format_duration, timed};
use ffsm_core::MeasureKind;
use ffsm_graph::{generators, LabeledGraph};
use ffsm_miner::{MiningResult, MiningSession, PreparedGraph};
use ffsm_serve::events::json_string;
use std::time::Duration;

struct Entry {
    workload: &'static str,
    sessions: usize,
    patterns: usize,
    cold: Duration,
    prepared: Duration,
    index_builds: usize,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.prepared.as_secs_f64().max(1e-9)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"workload\": {}, \"sessions\": {}, \"patterns\": {}, \"cold_us\": {}, \
             \"prepared_us\": {}, \"index_builds\": {}, \"speedup\": {:.2}}}",
            json_string(self.workload),
            self.sessions,
            self.patterns,
            self.cold.as_micros(),
            self.prepared.as_micros(),
            self.index_builds,
            self.speedup()
        )
    }
}

/// The per-session query: a cheap threshold run (seeds only) — the shape of an
/// interactive "what is frequent here?" request, where per-graph setup dominates.
fn query(session: MiningSession) -> MiningResult {
    session.measure(MeasureKind::Mni).min_support(8.0).max_edges(1).run().expect("valid session")
}

fn measure(workload: &'static str, graph: LabeledGraph, sessions: usize) -> Entry {
    // Cold path: every request prepares its own graph from scratch.
    let (cold_results, cold) =
        timed(|| (0..sessions).map(|_| query(MiningSession::on(&graph))).collect::<Vec<_>>());
    // Serving path: prepare once, answer N times over the shared handle.
    let (outcome, prepared_time) = timed(|| {
        let prepared = PreparedGraph::new(graph);
        let results =
            (0..sessions).map(|_| query(MiningSession::over(&prepared))).collect::<Vec<_>>();
        (results, prepared.index_build_count())
    });
    let (prepared_results, index_builds) = outcome;
    assert_eq!(index_builds, 1, "shared PreparedGraph must build its index exactly once");
    // Cross-check: both paths answer every request identically.
    for (c, p) in cold_results.iter().zip(&prepared_results) {
        assert_eq!(c.len(), p.len(), "prepared result diverged from cold ({workload})");
        for (a, b) in c.patterns.iter().zip(&p.patterns) {
            assert_eq!(a.support.to_bits(), b.support.to_bits(), "support bits ({workload})");
        }
    }
    Entry {
        workload,
        sessions,
        patterns: prepared_results.first().map(|r| r.len()).unwrap_or(0),
        cold,
        prepared: prepared_time,
        index_builds,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sessions: usize = flag_value(&args, "--sessions")
        .map(|v| v.parse().expect("--sessions expects a number"))
        .unwrap_or(12);
    let vertices: usize = flag_value(&args, "--vertices")
        .map(|v| v.parse().expect("--vertices expects a number"))
        .unwrap_or(20_000);
    let out_path = flag_value(&args, "--out").unwrap_or("BENCH_prepared.json").to_string();

    let mut entries: Vec<Entry> = Vec::new();
    let mut table = Table::new(
        "prepared_serving: N cold sessions vs N sessions over one PreparedGraph",
        &["workload", "sessions", "patterns", "cold", "prepared", "idx builds", "speedup"],
    );
    for (workload, graph) in [
        // Very sparse, label-rich: per-session artifact cost (graph clone + index
        // over every vertex) dwarfs the query, which only touches the few edges.
        ("sparse_random", generators::gnm_random(vertices, vertices / 8, 16, 7)),
        // Denser community structure: heavier queries, setup still significant.
        (
            "community",
            generators::community_graph(20, vertices.min(8_000) / 20, 0.02, 0.0005, 8, 11),
        ),
    ] {
        entries.push(measure(workload, graph, sessions));
    }
    for e in &entries {
        table.add_row(vec![
            e.workload.to_string(),
            e.sessions.to_string(),
            e.patterns.to_string(),
            format_duration(e.cold),
            format_duration(e.prepared),
            e.index_builds.to_string(),
            format!("{:.2}x", e.speedup()),
        ]);
    }
    table.print();

    let body: Vec<String> = entries.iter().map(|e| format!("    {}", e.to_json())).collect();
    let json = format!(
        "{{\n  \"bench\": \"prepared_serving\",\n  \"workloads\": [\"sparse_random\", \
         \"community\"],\n  \"entries\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write perf report");
    println!("wrote {out_path} ({} entries)", entries.len());

    // Acceptance gate: index reuse must make the serving path measurably faster
    // than the cold path on the sparse workload (where setup dominates).
    let sparse = entries.iter().find(|e| e.workload == "sparse_random").expect("sparse ran");
    assert!(
        sparse.speedup() >= 1.2,
        "PreparedGraph reuse only {:.2}x over cold sessions ({:?} vs {:?}) — index sharing \
         regressed",
        sparse.speedup(),
        sparse.prepared,
        sparse.cold
    );
}
