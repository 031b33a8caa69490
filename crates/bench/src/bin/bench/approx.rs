//! `approx` — bounds-first mining ([`MiningSession::bounds_first`]), exact vs
//! bounds arms timed as interleaved min-of-K, on two workloads:
//!
//! * **mis_short_circuit** — an expensive measure (MIS: overlap graph plus
//!   branch-and-bound per candidate) on the dense-community workload, where a
//!   meaningful fraction of evaluations must be decided by bound arguments
//!   alone (containment chain, greedy packing, LP envelope);
//! * **mni_idle_overhead** — MNI at a permissive threshold, where the bounds
//!   never decide anything (the pre-enumeration bound cannot fall below tau and
//!   MNI has no post-enumeration stage), so the machinery must be nearly free.
//!
//! Both arms of each workload must mine the same number of patterns (the set
//! identity proper lives in `tests/bounds_mining_differential.rs`).
//!
//! Gates: ≥ 20% of MIS bounded evaluations short-circuit and the bounds arm is
//! within the exact arm + 5% + 2 ms; on the idle workload no evaluation is
//! decided, some are bounded, and the overhead is ≤ 5% (or ≤ 2 ms).  The
//! exact-MIS arm grows very fast with community size; 16 keeps the suite
//! under half a minute.

use ffsm_bench::harness::{min_of_k, Run};
use ffsm_bench::workloads;
use ffsm_core::MeasureKind;
use ffsm_miner::{MiningSession, PreparedGraph};
use std::time::Duration;

const COMMUNITY_SIZE: usize = 16;
const TAU: f64 = 8.0;
const IDLE_TAU: f64 = 2.0;
const MAX_EDGES: usize = 2;
const ROUNDS: usize = 3;

/// One mining run; returns the pattern count and the two bounds-first counters
/// (bounded evaluations, bound-decided evaluations; both zero with bounds off).
fn mine_once(prepared: &PreparedGraph, measure: MeasureKind, tau: f64, bounds: bool) -> [u64; 3] {
    let result = MiningSession::over(prepared)
        .measure(measure)
        .min_support(tau)
        .max_edges(MAX_EDGES)
        .bounds_first(bounds)
        .run()
        .expect("mine");
    [result.len() as u64, result.stats.evaluations_bounded(), result.stats.bound_decided()]
}

/// Time the exact and bounds arms of one workload, cross-checking pattern
/// counts; returns `(exact, bounds, patterns, bounded, decided)`.
fn arms(
    prepared: &PreparedGraph,
    measure: MeasureKind,
    tau: f64,
) -> (Duration, Duration, u64, u64, u64) {
    let [patterns, ..] = mine_once(prepared, measure, tau, false);
    let arm = |bounds: bool| {
        move || {
            let counts = mine_once(prepared, measure, tau, bounds);
            assert_eq!(counts[0], patterns, "{measure:?} bounds={bounds}: pattern count diverged");
            counts
        }
    };
    let timings = min_of_k(ROUNDS, &mut [&mut arm(false), &mut arm(true)]);
    let [_, bounded, decided] = timings[1].1;
    (timings[0].0, timings[1].0, patterns, bounded, decided)
}

pub fn run(run: &mut Run) {
    let (graph, _) = workloads::dense_community_workload(COMMUNITY_SIZE);
    let prepared = PreparedGraph::new(graph);
    let ratio = |on: Duration, off: Duration| on.as_secs_f64() / off.as_secs_f64().max(1e-9);

    let (exact, bounds, patterns, bounded, decided) = arms(&prepared, MeasureKind::Mis, TAU);
    let short_circuit = decided as f64 / (bounded as f64).max(1.0);
    run.record(
        run.entry()
            .str("workload", "mis_short_circuit")
            .str("measure", "MIS")
            .raw("community_size", COMMUNITY_SIZE)
            .raw("tau", TAU)
            .raw("patterns", patterns)
            .raw("evaluations_bounded", bounded)
            .raw("bound_decided", decided)
            .raw("short_circuit_fraction", format!("{short_circuit:.4}"))
            .raw("exact_us", exact.as_micros())
            .raw("bounds_us", bounds.as_micros())
            .raw("wall_ratio", format!("{:.4}", ratio(bounds, exact))),
    );
    run.gate(
        "short_circuit",
        short_circuit >= 0.20,
        format!("only {decided}/{bounded} evaluations decided by bounds; floor 20%"),
    );
    let budget = exact + exact / 20 + Duration::from_millis(2);
    run.gate(
        "bounds_wall",
        bounds <= budget,
        format!("bounds arm {bounds:?} slower than exact arm {exact:?} + 5% + 2ms"),
    );

    let (plain, idle, patterns, bounded, decided) = arms(&prepared, MeasureKind::Mni, IDLE_TAU);
    run.record(
        run.entry()
            .str("workload", "mni_idle_overhead")
            .str("measure", "MNI")
            .raw("tau", IDLE_TAU)
            .raw("patterns", patterns)
            .raw("evaluations_bounded", bounded)
            .raw("bound_decided", decided)
            .raw("plain_us", plain.as_micros())
            .raw("bounds_on_us", idle.as_micros())
            .raw("overhead_ratio", format!("{:.4}", ratio(idle, plain))),
    );
    // The workload measures pure overhead only while the bounds run and decide nothing.
    run.gate("idle_decided_none", decided == 0, format!("{decided} evaluations short-circuited"));
    run.gate("idle_bounded", bounded > 0, "bounds machinery never ran".to_string());
    let budget = (plain / 20).max(Duration::from_millis(2));
    let overhead = idle.saturating_sub(plain);
    run.gate(
        "idle_overhead",
        overhead <= budget,
        format!("bounds-on {idle:?} exceeds plain {plain:?} by {overhead:?} (budget {budget:?})"),
    );
}
