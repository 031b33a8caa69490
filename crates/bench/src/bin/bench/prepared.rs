//! `prepared` — the prepare-once/serve-many split of [`PreparedGraph`]: `N`
//! mining sessions over **one** shared `PreparedGraph` (index and label
//! statistics built once) versus `N` **cold** `MiningSession::on(&graph)` calls
//! (each clones the graph and rebuilds every per-graph artifact, as a naive
//! serving loop would).  Every prepared result is cross-checked against its
//! cold twin.
//!
//! Gates: the shared handle builds its index exactly once, and the prepared
//! path is ≥ 1.2x faster than the cold one on the sparse workload.

use ffsm_bench::harness::Run;
use ffsm_bench::timed;
use ffsm_core::MeasureKind;
use ffsm_graph::generators;
use ffsm_miner::{MiningResult, MiningSession, PreparedGraph};

const SESSIONS: usize = 12;
const VERTICES: usize = 20_000;

/// The per-session query: a cheap threshold run (seeds only) — the shape of an
/// interactive "what is frequent here?" request, where per-graph setup dominates.
fn query(session: MiningSession) -> MiningResult {
    session.measure(MeasureKind::Mni).min_support(8.0).max_edges(1).run().expect("valid session")
}

pub fn run(run: &mut Run) {
    for (workload, graph) in [
        // Very sparse, label-rich: per-session artifact cost (graph clone + index
        // over every vertex) dwarfs the query, which only touches the few edges.
        ("sparse_random", generators::gnm_random(VERTICES, VERTICES / 8, 16, 7)),
        // Denser community structure: heavier queries, setup still significant.
        ("community", generators::community_graph(20, 8_000 / 20, 0.02, 0.0005, 8, 11)),
    ] {
        let (cold_results, cold) =
            timed(|| (0..SESSIONS).map(|_| query(MiningSession::on(&graph))).collect::<Vec<_>>());
        let ((prepared_results, index_builds), prepared) = timed(|| {
            let prepared = PreparedGraph::new(graph);
            let results =
                (0..SESSIONS).map(|_| query(MiningSession::over(&prepared))).collect::<Vec<_>>();
            (results, prepared.index_build_count())
        });
        for (c, p) in cold_results.iter().zip(&prepared_results) {
            assert_eq!(c.len(), p.len(), "prepared result diverged from cold ({workload})");
            for (a, b) in c.patterns.iter().zip(&p.patterns) {
                assert_eq!(a.support.to_bits(), b.support.to_bits(), "support bits ({workload})");
            }
        }
        let speedup = cold.as_secs_f64() / prepared.as_secs_f64().max(1e-9);
        run.record(
            run.entry()
                .str("workload", workload)
                .raw("sessions", SESSIONS)
                .raw("patterns", prepared_results.first().map_or(0, |r| r.len()))
                .raw("cold_us", cold.as_micros())
                .raw("prepared_us", prepared.as_micros())
                .raw("index_builds", index_builds)
                .raw("speedup", format!("{speedup:.2}")),
        );
        run.gate(
            &format!("one_index_build_{workload}"),
            index_builds == 1,
            format!("shared PreparedGraph built its index {index_builds} times ({workload})"),
        );
        if workload == "sparse_random" {
            run.gate(
                "sparse_speedup",
                speedup >= 1.2,
                format!(
                    "PreparedGraph reuse only {speedup:.2}x over cold sessions \
                     ({prepared:?} vs {cold:?}); floor 1.2x"
                ),
            );
        }
    }
}
