//! The repository benchmark.
//!
//! `ffsm-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--work-dir <dir>]` generates the workload's inputs from the seed, sets up
//! (many times, spread over the run, reporting the fastest), measures for the given seconds with
//! tracing off, checks every result against a reference, and prints one JSON
//! line last: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! of a separate traced replay with `--trace 1`.  See `README.md` for every
//! metric's definition.

mod batch;
mod serve;
mod stats;

use ffsm_miner::{MiningStats, Phase};
use stats::{Metric, Tracer};
use std::path::PathBuf;

pub const WORKLOADS: [&str; 4] = ["sparse_mni", "overlap_mis", "serve_mixed", "sharded_mni"];

/// Every per-layer metric with its unit, in report order.  A workload that
/// leaves a layer idle reports it as 0.
pub const LAYER_METRICS: [(&str, &str); 44] = [
    ("match.index_build_ms", "ms"),
    ("match.candidate_space_ms", "ms"),
    ("match.candidate_space_calls", "count"),
    ("match.candidate_vertices", "count"),
    ("match.search_ms", "ms"),
    ("match.search_steps", "count"),
    ("match.embeddings", "count"),
    ("match.embeddings_per_step", "ratio"),
    ("core.occurrence_set_ms", "ms"),
    ("core.hypergraph_ms", "ms"),
    ("hypergraph.overlap_build_ms", "ms"),
    ("hypergraph.overlap_edges", "count"),
    ("core.solve_ms", "ms"),
    ("core.solve_calls", "count"),
    ("core.solve_budget_exhausted", "count"),
    ("miner.extension_ms", "ms"),
    ("miner.candidates_generated", "count"),
    ("miner.candidates_evaluated", "count"),
    ("miner.frequent_frac", "ratio"),
    ("miner.unattributed_ms", "ms"),
    ("shard.partition_build_ms", "ms"),
    ("shard.spill_ms", "ms"),
    ("shard.loads", "count"),
    ("shard.evictions", "count"),
    ("shard.load_ms", "ms"),
    ("shard.peak_resident_bytes", "bytes"),
    ("shard.cross_shard_occurrences", "count"),
    ("dynamic.apply_ms", "ms"),
    ("serve.parse_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.frames", "count"),
    ("serve.bytes_out", "bytes"),
    ("serve.server_elapsed_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.update_p50_ms", "ms"),
    ("serve.deep_mine_p50_ms", "ms"),
    ("serve.saturation_rps", "req/s"),
    ("serve.lateness_p90_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("failed_frac", "ratio"),
    ("mine_p50_ms", "ms"),
    ("mine_p90_ms", "ms"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1)).map(String::as_str)
    };
    let workload = value("--workload").ok_or("--workload is required")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag)
            .map_or(Ok(default), |v| v.parse().map_err(|_| format!("{flag} expects a number")))
    };
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed", 7)?,
        seconds: number("--seconds", 10)?.max(1),
        trace,
        work_dir: PathBuf::from(value("--work-dir").unwrap_or("perfbench-work")),
    })
}

/// Every per-layer metric at 0, for a workload to fill in.
pub fn idle_layer_metrics() -> Vec<Metric> {
    LAYER_METRICS.iter().map(|&(name, unit)| Metric::new(name, 0.0, unit)).collect()
}

/// The session's own phase timings and counters, printed beside the outside
/// spans so the known in-program gaps stay on record.
pub fn program_stats(stats: &MiningStats) -> Vec<String> {
    let phases: Vec<String> = Phase::ALL
        .iter()
        .map(|&p| format!("{}={:.1}ms", p.name(), stats.phase_timings.nanos(p) as f64 / 1e6))
        .collect();
    let c = &stats.counters;
    vec![
        format!("  program phase_timings: {}", phases.join(" ")),
        format!(
            "  program counters: steps={} backjumps={} pools_filled={} refine_rounds={} \
             overlap_probes={} patterns_emitted={} evaluated={} generated={}",
            c.search.steps,
            c.search.backjumps,
            c.search.pools_filled,
            c.search.refine_rounds,
            c.overlap_probes,
            c.patterns_emitted,
            stats.candidates_evaluated,
            stats.candidates_generated,
        ),
    ]
}

/// Write the run's spans once, at its end.
pub fn write_spans(args: &Args, tracer: &Tracer) {
    let path = args.work_dir.join(format!("spans-{}-{}.ndjson", args.workload, args.seed));
    match std::fs::create_dir_all(&args.work_dir)
        .and_then(|_| std::fs::write(&path, tracer.to_ndjson()))
    {
        Ok(()) => println!("  {} spans written to {}", tracer.spans().len(), path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ffsm-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (correct, attempted, failed, metrics) = match args.workload.as_str() {
        "serve_mixed" => serve::run(&args),
        _ => batch::run(&args),
    };
    println!("{}", stats::result_line(correct, attempted, failed, &metrics));
}
