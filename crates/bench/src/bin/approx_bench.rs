//! `approx_bench` — the bounds-first mining gate behind `BENCH_approx.json`.
//!
//! Bounds-first evaluation ([`MiningSession::bounds_first`]) buys its keep two
//! ways, and this bench gates both:
//!
//! * **short_circuit** — on an expensive measure (MIS: overlap graph plus
//!   branch-and-bound per candidate) over the dense-community workload, a
//!   meaningful fraction of candidate evaluations must be *decided by bound
//!   arguments alone* — containment chain, greedy packing, LP envelope —
//!   without running the exact independence search.  Gate: at least 20% of
//!   bounded evaluations short-circuit, and the bounds arm must not be slower
//!   than the exact arm by more than the overhead budget below.
//! * **overhead** — on a workload where the bounds never decide anything
//!   (MNI at a low threshold: the pre-enumeration index bound can't fall
//!   below tau, and MNI has no post-enumeration bound stage), the machinery
//!   must be nearly free.  Gate: bounds-on wall time within 5% of bounds-off
//!   (plus a small absolute slack so micro-runs on noisy CI machines cannot
//!   flake a sub-millisecond delta into a failure).
//!
//! Both workloads run interleaved, min-of-K, and each pair cross-checks that
//! the two arms mined the identical number of patterns (the set identity
//! proper lives in `tests/bounds_mining_differential.rs`).  The JSON report is
//! written *before* the gates, so it survives a failing assertion as a CI
//! artifact.
//!
//! Usage: `approx_bench [--community-size N] [--tau T] [--max-edges N]
//! [--rounds K] [--out PATH]` (defaults: community size 16, tau 8,
//! max-edges 2, 3 rounds, `BENCH_approx.json` — the exact-MIS arm grows
//! very fast with community size; 16 keeps the interleaved sweep under half
//! a minute while still dominating the bounds arm by more than an order of
//! magnitude).

use ffsm_bench::{flag_value, workloads};
use ffsm_core::MeasureKind;
use ffsm_miner::{MiningSession, PreparedGraph};
use ffsm_serve::events::json_string;
use std::time::{Duration, Instant};

/// One timed mining run; returns wall time, pattern count, and the two
/// bounds-first counters (both zero when `bounds` is off).
fn mine_once(
    prepared: &PreparedGraph,
    measure: MeasureKind,
    tau: f64,
    max_edges: usize,
    bounds: bool,
) -> (Duration, usize, u64, u64) {
    let start = Instant::now();
    let result = MiningSession::over(prepared)
        .measure(measure)
        .min_support(tau)
        .max_edges(max_edges)
        .bounds_first(bounds)
        .run()
        .expect("mine");
    (
        start.elapsed(),
        result.len(),
        result.stats.evaluations_bounded(),
        result.stats.bound_decided(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let community_size: usize = flag_value(&args, "--community-size")
        .map(|v| v.parse().expect("--community-size expects a number"))
        .unwrap_or(16);
    let tau: f64 = flag_value(&args, "--tau")
        .map(|v| v.parse().expect("--tau expects a number"))
        .unwrap_or(8.0);
    let max_edges: usize = flag_value(&args, "--max-edges")
        .map(|v| v.parse().expect("--max-edges expects a number"))
        .unwrap_or(2);
    let rounds: usize = flag_value(&args, "--rounds")
        .map(|v| v.parse().expect("--rounds expects a number"))
        .unwrap_or(3);
    let out_path = flag_value(&args, "--out").unwrap_or("BENCH_approx.json").to_string();

    let (graph, _) = workloads::dense_community_workload(community_size);
    let prepared = PreparedGraph::new(graph);

    // Workload 1: MIS mining, exact vs bounds-first, interleaved.  MIS pays an
    // overlap-graph build plus a branch-and-bound search per candidate, so
    // every short-circuited evaluation is real work skipped.
    let (_, warm_patterns, _, _) = mine_once(&prepared, MeasureKind::Mis, tau, max_edges, false);
    let mut exact_wall = Duration::MAX;
    let mut bounds_wall = Duration::MAX;
    let mut bounded = 0u64;
    let mut decided = 0u64;
    for _ in 0..rounds {
        let (off, off_patterns, _, _) =
            mine_once(&prepared, MeasureKind::Mis, tau, max_edges, false);
        let (on, on_patterns, on_bounded, on_decided) =
            mine_once(&prepared, MeasureKind::Mis, tau, max_edges, true);
        assert_eq!(off_patterns, warm_patterns, "exact arm drifted");
        assert_eq!(on_patterns, warm_patterns, "bounds arm diverged from exact");
        exact_wall = exact_wall.min(off);
        bounds_wall = bounds_wall.min(on);
        (bounded, decided) = (on_bounded, on_decided);
    }
    let short_circuit = decided as f64 / (bounded as f64).max(1.0);
    println!(
        "mis_short_circuit (size {community_size}, tau {tau}, {warm_patterns} patterns): \
         exact {exact_wall:?}, bounds {bounds_wall:?}, \
         {decided}/{bounded} evaluations decided by bounds ({:.1}%)",
        short_circuit * 100.0
    );

    // Workload 2: MNI at a permissive threshold — the pre-enumeration bound
    // can never fall below tau and MNI has no post-enumeration stage, so the
    // bounds machinery runs on every candidate and decides none of them.
    let overhead_tau = 2.0;
    let (_, mni_patterns, _, _) =
        mine_once(&prepared, MeasureKind::Mni, overhead_tau, max_edges, false);
    let mut plain_wall = Duration::MAX;
    let mut idle_wall = Duration::MAX;
    let mut idle_bounded = 0u64;
    let mut idle_decided = 0u64;
    for _ in 0..rounds {
        let (off, off_patterns, _, _) =
            mine_once(&prepared, MeasureKind::Mni, overhead_tau, max_edges, false);
        let (on, on_patterns, on_bounded, on_decided) =
            mine_once(&prepared, MeasureKind::Mni, overhead_tau, max_edges, true);
        assert_eq!(off_patterns, mni_patterns, "plain arm drifted");
        assert_eq!(on_patterns, mni_patterns, "idle-bounds arm diverged");
        plain_wall = plain_wall.min(off);
        idle_wall = idle_wall.min(on);
        (idle_bounded, idle_decided) = (on_bounded, on_decided);
    }
    println!(
        "mni_idle_overhead (tau {overhead_tau}, {mni_patterns} patterns): \
         plain {plain_wall:?}, bounds-on {idle_wall:?}, \
         {idle_decided}/{idle_bounded} decided"
    );

    let ratio = |on: Duration, off: Duration| on.as_secs_f64() / off.as_secs_f64().max(1e-9);
    let json = format!(
        "{{\n  \"bench\": \"approx_bounds_first\",\n  \"workloads\": [{}, {}],\n  \"entries\": [\n    \
         {{\"workload\": {}, \"measure\": \"MIS\", \"community_size\": {community_size}, \
         \"tau\": {tau}, \"patterns\": {warm_patterns}, \
         \"evaluations_bounded\": {bounded}, \"bound_decided\": {decided}, \
         \"short_circuit_fraction\": {short_circuit:.4}, \
         \"exact_us\": {}, \"bounds_us\": {}, \"wall_ratio\": {:.4}}},\n    \
         {{\"workload\": {}, \"measure\": \"MNI\", \"tau\": {overhead_tau}, \
         \"patterns\": {mni_patterns}, \
         \"evaluations_bounded\": {idle_bounded}, \"bound_decided\": {idle_decided}, \
         \"plain_us\": {}, \"bounds_on_us\": {}, \"overhead_ratio\": {:.4}}}\n  ]\n}}\n",
        json_string("mis_short_circuit"),
        json_string("mni_idle_overhead"),
        json_string("mis_short_circuit"),
        exact_wall.as_micros(),
        bounds_wall.as_micros(),
        ratio(bounds_wall, exact_wall),
        json_string("mni_idle_overhead"),
        plain_wall.as_micros(),
        idle_wall.as_micros(),
        ratio(idle_wall, plain_wall),
    );
    std::fs::write(&out_path, json).expect("write perf report");
    println!("wrote {out_path}");

    // Gate 1: the expensive-measure workload must short-circuit at least 20%
    // of its bounded evaluations, and the savings must show up as wall time no
    // worse than the exact arm (plus absolute slack for micro-run noise).
    assert!(
        short_circuit >= 0.20,
        "mis_short_circuit: only {decided}/{bounded} evaluations \
         ({:.1}%) were decided by bounds — below the 20% gate",
        short_circuit * 100.0
    );
    assert!(
        bounds_wall
            <= exact_wall
                + Duration::from_nanos(exact_wall.as_nanos() as u64 / 20)
                + Duration::from_millis(2),
        "mis_short_circuit: bounds arm {bounds_wall:?} is slower than exact arm {exact_wall:?} \
         beyond the 5% + 2ms budget"
    );

    // Gate 2: when the bounds never decide anything, the machinery must cost
    // at most 5% (plus slack) — and it must really have been idle, or the
    // workload no longer measures pure overhead.
    assert_eq!(
        idle_decided, 0,
        "mni_idle_overhead: {idle_decided} evaluations short-circuited — the workload no longer \
         measures pure overhead"
    );
    assert!(idle_bounded > 0, "mni_idle_overhead: bounds machinery never ran");
    let budget =
        Duration::from_nanos(plain_wall.as_nanos() as u64 / 20).max(Duration::from_millis(2));
    let overhead = idle_wall.saturating_sub(plain_wall);
    assert!(
        overhead <= budget,
        "mni_idle_overhead: bounds-on {idle_wall:?} exceeds plain {plain_wall:?} by {overhead:?} \
         (budget {budget:?}) — idle bounds evaluation is no longer ~free"
    );
}
