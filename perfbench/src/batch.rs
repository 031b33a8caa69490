//! The three batch workloads and the replay that traces them.
//!
//! A timed mine is one `run()` of the library session, with tracing off.  The
//! replay walks the same level loop from outside, through the public calls of
//! each layer, and records a span around every call; it must reproduce the
//! session's frequent set exactly.

use crate::stats::{self, Digest, Metric, Samples, Tracer};
use crate::Args;
use ffsm_core::measures::{mis, mni};
use ffsm_core::{GraphIndex, HypergraphBasis, MeasureKind, OccurrenceSet, SearchArena};
use ffsm_graph::canonical::CanonicalCode;
use ffsm_graph::datasets::protein_like;
use ffsm_graph::generators::{community_graph, gnm_random};
use ffsm_graph::isomorphism::IsoConfig;
use ffsm_graph::transform::shuffle_vertices;
use ffsm_graph::{patterns, LabeledGraph, Pattern, VertexId};
use ffsm_hypergraph::SearchBudget;
use ffsm_match::Matcher;
use ffsm_miner::extension::{dedupe_with_codes, extensions, seed_patterns};
use ffsm_miner::{MiningResult, MiningSession, PreparedGraph, ShardedSession};
use ffsm_shard::{PartitionSpec, PartitionedGraph, ShardStoreStats};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one batch workload mines.
struct Job {
    measure: MeasureKind,
    tau: f64,
    max_edges: usize,
}

/// The graph a batch workload mines, after set-up.
enum Input {
    Whole(PreparedGraph),
    Sharded { parts: Arc<PartitionedGraph>, graph: LabeledGraph },
}

/// Set-up products that the per-layer report needs.
struct Setup {
    input: Input,
    index_build_ms: f64,
    partition_build_ms: f64,
    spill_ms: f64,
}

fn job(workload: &str) -> Job {
    match workload {
        // Sparse random graph, 16 labels: thousands of cheap candidates.
        // Loads candidate-space build and extension; the MNI solve is trivial
        // and the solver, shards and server stay idle.
        "sparse_mni" => Job { measure: MeasureKind::Mni, tau: 20.0, max_edges: 3 },
        // Dense protein-like complexes (4 of 20 vertices) under MIS: nearly
        // all time is the overlap graph and the budgeted branch-and-bound,
        // matching is negligible.  Bounds-first stays off, or it would hide
        // the solver.
        "overlap_mis" => Job { measure: MeasureKind::Mis, tau: 5.0, max_edges: 2 },
        // Community graph split into 4 shards with a 2-hop halo and spilled
        // with at most 2 resident: most time is shard reloads.  The only
        // workload that loads the shard layer.
        "sharded_mni" => Job { measure: MeasureKind::Mni, tau: 20.0, max_edges: 2 },
        other => unreachable!("not a batch workload: {other}"),
    }
}

/// The graphs are sized so that one mine takes well under a second: `mine_s`
/// is the fastest mine of a run, and a short mine more often fits inside one
/// of the host's fast phases.
///
/// Generator seed of the whole-graph workloads.  What they cost follows the
/// generated graph (how many patterns are frequent, how many MIS solves
/// exhaust their budget), and that moved mine time by 10-25% between generator
/// seeds, so `--seed` shuffles the vertex ids of one fixed graph instead.  The
/// sharded workload keeps a generated graph per seed: its vertex ranges are
/// its communities, which a shuffle would scatter over every shard.
const GRAPH_SEED: u64 = 7;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Generate the workload's graph and prepare it for mining.  Deterministic in
/// `seed`; `spill_dir` is used by the sharded workload only.
fn set_up(workload: &str, seed: u64, spill_dir: &Path) -> Setup {
    let graph = match workload {
        "sparse_mni" => shuffle_vertices(&gnm_random(6_000, 12_000, 16, GRAPH_SEED), seed),
        "overlap_mis" => shuffle_vertices(&protein_like(4, 20, GRAPH_SEED).graph, seed),
        _ => community_graph(16, 200, 0.02, 0.00002, 6, seed),
    };
    if workload != "sharded_mni" {
        let prepared = PreparedGraph::new(graph);
        let t = Instant::now();
        prepared.index();
        let index_build_ms = ms(t.elapsed());
        return Setup {
            input: Input::Whole(prepared),
            index_build_ms,
            partition_build_ms: 0.0,
            spill_ms: 0.0,
        };
    }
    let t = Instant::now();
    let parts = PartitionedGraph::build(&graph, PartitionSpec::vertex_range(4, 2))
        .expect("valid partition spec");
    let partition_build_ms = ms(t.elapsed());
    let t = Instant::now();
    let _ = std::fs::remove_dir_all(spill_dir);
    parts.spill_to_disk(spill_dir, 2).expect("spill shards inside the work directory");
    let spill_ms = ms(t.elapsed());
    Setup {
        input: Input::Sharded { parts: Arc::new(parts), graph },
        index_build_ms: 0.0,
        partition_build_ms,
        spill_ms,
    }
}

/// One timed library mine, tracing off.  Returns the result and, for the
/// sharded session, the store counters after the run.
fn mine(input: &Input, job: &Job) -> (MiningResult, Option<(u64, ShardStoreStats)>) {
    match input {
        Input::Whole(prepared) => {
            let result = MiningSession::over(prepared)
                .measure(job.measure)
                .min_support(job.tau)
                .max_edges(job.max_edges)
                .threads(1)
                .run()
                .expect("valid session");
            (result, None)
        }
        Input::Sharded { parts, .. } => {
            let (result, stats) = ShardedSession::over(parts)
                .measure(job.measure)
                .min_support(job.tau)
                .max_edges(job.max_edges)
                .threads(1)
                .run_detailed()
                .expect("valid sharded session");
            (result, Some((stats.cross_shard_occurrences, stats.store)))
        }
    }
}

/// Counts the replay reads from public outputs.
#[derive(Default)]
struct LayerCounts {
    candidate_space_calls: u64,
    candidate_vertices: u64,
    search_steps: u64,
    embeddings: u64,
    overlap_edges: u64,
    solve_calls: u64,
    budget_exhausted: u64,
    generated: u64,
    evaluated: u64,
    frequent: u64,
}

/// Candidate-space build, search and occurrence-set materialisation of one
/// pattern against one indexed graph.
fn enumerate(
    pattern: &Pattern,
    graph: &LabeledGraph,
    index: &GraphIndex,
    arena: &mut SearchArena,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) -> (Vec<Vec<VertexId>>, bool) {
    let matcher = tracer.time("match.candidate_space", || Matcher::new(pattern, graph, index));
    counts.candidate_space_calls += 1;
    counts.candidate_vertices += matcher.space().total_size() as u64;
    let steps = arena.counters().steps;
    let result =
        tracer.time("match.search", || matcher.enumerate_with(IsoConfig::default(), arena));
    counts.search_steps += arena.counters().steps - steps;
    counts.embeddings += result.embeddings.len() as u64;
    (result.embeddings, result.complete)
}

/// All occurrences of `pattern`: over the whole graph, or per shard with the
/// anchor-shard rule that keeps each occurrence exactly once.
fn occurrences(
    pattern: &Pattern,
    input: &Input,
    arena: &mut SearchArena,
    tracer: &mut Tracer,
    counts: &mut LayerCounts,
) -> OccurrenceSet {
    let (embeddings, complete) = match input {
        Input::Whole(prepared) => {
            let index = prepared.index();
            enumerate(pattern, prepared.graph(), &index, arena, tracer, counts)
        }
        Input::Sharded { parts, .. } => {
            let assignment = parts.assignment();
            let mut merged = Vec::new();
            let mut complete = true;
            for s in 0..parts.num_shards() {
                let shard = tracer.time("shard.fetch", || parts.shard(s)).expect("shard reload");
                if shard.graph().num_vertices() < pattern.num_vertices() {
                    continue;
                }
                let index = tracer.time("match.index_build", || shard.index());
                let (local, done) =
                    enumerate(pattern, shard.graph(), &index, arena, tracer, counts);
                complete &= done;
                tracer.enter("shard.merge");
                let to_global = shard.to_global();
                for emb in local {
                    let global: Vec<VertexId> =
                        emb.iter().map(|&v| to_global[v as usize]).collect();
                    let anchor = *global.iter().min().expect("patterns are non-empty");
                    if assignment[anchor as usize] == s as u32 {
                        merged.push(global);
                    }
                }
                tracer.exit();
            }
            tracer.time("shard.merge", || merged.sort_unstable());
            (merged, complete)
        }
    };
    tracer.time("core.occurrence_set", || {
        OccurrenceSet::from_embeddings(pattern.clone(), embeddings, complete)
    })
}

/// The support value the session's built-in measure computes, layer by layer.
fn support(occ: &OccurrenceSet, job: &Job, tracer: &mut Tracer, counts: &mut LayerCounts) -> f64 {
    counts.solve_calls += 1;
    match job.measure {
        MeasureKind::Mni => tracer.time("core.solve", || mni::mni(occ)) as f64,
        MeasureKind::Mis => {
            let hg = tracer.time("core.hypergraph", || occ.hypergraph(HypergraphBasis::default()));
            if hg.is_empty() {
                return 0.0;
            }
            let overlap = tracer.time("hypergraph.overlap_build", || hg.overlap_graph_parallel(1));
            counts.overlap_edges += overlap.num_edges() as u64;
            let outcome =
                tracer.time("core.solve", || mis::mis_on_graph(&overlap, SearchBudget::default()));
            counts.budget_exhausted += u64::from(!outcome.optimal);
            outcome.value as f64
        }
        other => unreachable!("no batch workload mines {other}"),
    }
}

/// Walk the session's level loop from outside through public calls, one span
/// per call.  Returns the frequent set's digest.
fn replay(input: &Input, job: &Job, tracer: &mut Tracer, counts: &mut LayerCounts) -> Digest {
    tracer.enter("miner.run");
    let (seeds, alphabet) = match input {
        Input::Whole(prepared) => (seed_patterns(prepared.graph()), prepared.alphabet().to_vec()),
        Input::Sharded { parts, .. } => (
            parts.seed_pairs().iter().map(|&(a, b)| patterns::single_edge(a, b)).collect(),
            parts.alphabet().to_vec(),
        ),
    };
    let mut seen = HashSet::new();
    counts.generated += seeds.len() as u64;
    let mut level = tracer.time("miner.extension", || dedupe_with_codes(seeds, &mut seen));
    let mut frequent: Vec<(CanonicalCode, f64, usize)> = Vec::new();
    let mut arena = SearchArena::new();
    while !level.is_empty() {
        let mut survivors = Vec::new();
        for (pattern, code) in level {
            counts.evaluated += 1;
            let occ = occurrences(&pattern, input, &mut arena, tracer, counts);
            let value = support(&occ, job, tracer, counts);
            if value >= job.tau {
                frequent.push((code, value, occ.num_occurrences()));
                survivors.push(pattern);
            }
        }
        tracer.enter("miner.extension");
        let mut next = Vec::new();
        for pattern in survivors.iter().filter(|p| p.num_edges() < job.max_edges) {
            let grown = extensions(pattern, &alphabet);
            counts.generated += grown.len() as u64;
            next.extend(dedupe_with_codes(grown, &mut seen));
        }
        tracer.exit();
        level = next;
    }
    tracer.exit();
    counts.frequent = frequent.len() as u64;
    Digest::new(frequent)
}

pub fn run(args: &Args) -> (bool, u64, u64, Vec<Metric>) {
    let job = job(&args.workload);
    let spill_dir: PathBuf = args.work_dir.join(format!("spill-{}", args.seed));

    let (setup, mut setup_s) = stats::repeat_set_up(
        || set_up(&args.workload, args.seed, &spill_dir),
        Duration::from_millis(500),
    );
    let repeat_dir: PathBuf = args.work_dir.join(format!("spill-{}-repeat", args.seed));

    // The replay is the reference for the whole-graph workloads; the sharded
    // session is checked against the unsharded one as well.
    let mut tracer = Tracer::default();
    let mut counts = LayerCounts::default();
    let replay_start = Instant::now();
    let replayed = replay(&setup.input, &job, &mut tracer, &mut counts);
    let replay_wall = replay_start.elapsed();
    let reference = match &setup.input {
        Input::Whole(_) => replayed.clone(),
        Input::Sharded { graph, .. } => {
            let unsharded = mine(&Input::Whole(PreparedGraph::new(graph.clone())), &job).0;
            Digest::of(&unsharded)
        }
    };
    let mut attempted = 1u64;
    let mut failed = u64::from(replayed != reference);

    let mut mine_s = Samples::default();
    let mut last: Option<(MiningResult, Option<(u64, ShardStoreStats)>)> = None;
    let mut store_before = store_stats(&setup.input);
    let mut per_run_loads = Vec::new();
    let until = Instant::now() + Duration::from_secs(args.seconds);
    while mine_s.len() < 2 || Instant::now() < until {
        let t = Instant::now();
        let (result, shard) = mine(&setup.input, &job);
        mine_s.push(t.elapsed().as_secs_f64());
        attempted += 1;
        if !result.completion().is_complete() || Digest::of(&result) != reference {
            failed += 1;
        }
        if let Some((_, after)) = &shard {
            per_run_loads.push(stats::store_delta(&store_before, after));
            store_before = *after;
        }
        last = Some((result, shard));
        // Set-ups after each mine spread the set-up samples over the run.
        let again = || set_up(&args.workload, args.seed, &repeat_dir);
        setup_s.extend(&stats::repeat_set_up(again, Duration::from_millis(50)).1);
    }
    let _ = std::fs::remove_dir_all(&spill_dir);
    let _ = std::fs::remove_dir_all(&repeat_dir);
    let (last_result, last_shard) = last.expect("at least one mine");

    let fastest = mine_s.min().expect("mines ran");
    let median_mine = mine_s.median().expect("mines ran");
    println!(
        "{}: {} frequent patterns (digest {:016x}), mine fastest {:.3} s / {} / {}, \
         setup fastest {:.6} s / {}",
        args.workload,
        reference.len(),
        reference.fingerprint(),
        fastest,
        mine_s.describe(0.5, "s"),
        mine_s.describe(0.9, "s"),
        setup_s.min().expect("set-ups ran"),
        setup_s.describe(0.5, "s"),
    );
    if !per_run_loads.is_empty() {
        let loads: Vec<String> = per_run_loads.iter().map(|d| d.loads.to_string()).collect();
        println!("  shard loads per mine: {}", loads.join(" "));
    }
    println!(
        "  replay matches the session: {} ({} patterns); failed {failed} of {attempted}",
        replayed == reference,
        replayed.len()
    );

    if !args.trace {
        let metrics = vec![
            Metric::new("setup_s", setup_s.min().expect("set-ups ran"), "s"),
            Metric::new("mine_s", fastest, "s"),
            Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
        ];
        return (failed == 0, attempted, failed, metrics);
    }

    let self_ns = stats::self_times(tracer.spans());
    let layer = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let covered_ms: f64 =
        self_ns.iter().filter(|(n, _)| **n != "miner.run").map(|(_, v)| *v as f64 / 1e6).sum();
    let traced_ms = ms(replay_wall);
    println!("  layer self times (ms):");
    for (name, ns) in &self_ns {
        println!("    {name:<26} {:>10.3}", *ns as f64 / 1e6);
    }
    println!(
        "  traced wall {traced_ms:.1} ms vs mine_s {:.1} ms: overhead {:.1} ms, layer coverage {:.1}%",
        fastest * 1e3,
        traced_ms - fastest * 1e3,
        100.0 * covered_ms / traced_ms
    );
    for line in crate::program_stats(&last_result.stats) {
        println!("{line}");
    }
    crate::write_spans(args, &tracer);

    let (cross_shard, store) = match last_shard {
        Some((cross, _)) => (cross as f64, *per_run_loads.last().expect("sharded mines ran")),
        None => (0.0, ShardStoreStats::default()),
    };
    let index_build_ms = setup.index_build_ms + layer("match.index_build");
    let mut metrics = crate::idle_layer_metrics();
    let mut set = |name: &str, value: f64| {
        metrics.iter_mut().find(|m| m.name == name).expect("declared per-layer metric").value =
            value;
    };
    set("match.index_build_ms", index_build_ms);
    set("match.candidate_space_ms", layer("match.candidate_space"));
    set("match.candidate_space_calls", counts.candidate_space_calls as f64);
    set("match.candidate_vertices", counts.candidate_vertices as f64);
    set("match.search_ms", layer("match.search"));
    set("match.search_steps", counts.search_steps as f64);
    set("match.embeddings", counts.embeddings as f64);
    set("match.embeddings_per_step", counts.embeddings as f64 / counts.search_steps.max(1) as f64);
    set("core.occurrence_set_ms", layer("core.occurrence_set"));
    set("core.hypergraph_ms", layer("core.hypergraph"));
    set("hypergraph.overlap_build_ms", layer("hypergraph.overlap_build"));
    set("hypergraph.overlap_edges", counts.overlap_edges as f64);
    set("core.solve_ms", layer("core.solve"));
    set("core.solve_calls", counts.solve_calls as f64);
    set("core.solve_budget_exhausted", counts.budget_exhausted as f64);
    set("miner.extension_ms", layer("miner.extension"));
    set("miner.candidates_generated", counts.generated as f64);
    set("miner.candidates_evaluated", counts.evaluated as f64);
    set("miner.frequent_frac", counts.frequent as f64 / counts.evaluated.max(1) as f64);
    set("miner.unattributed_ms", fastest * 1e3 - covered_ms);
    set("shard.partition_build_ms", setup.partition_build_ms);
    set("shard.spill_ms", setup.spill_ms);
    set("shard.loads", store.loads as f64);
    set("shard.evictions", store.evictions as f64);
    set("shard.load_ms", store.load_nanos as f64 / 1e6);
    set("shard.peak_resident_bytes", store.peak_resident_bytes as f64);
    set("shard.cross_shard_occurrences", cross_shard);
    set("trace.overhead_ms", traced_ms - fastest * 1e3);
    set("trace.coverage", covered_ms / traced_ms);
    set("failed_frac", failed as f64 / attempted as f64);
    set("mine_p50_ms", median_mine * 1e3);
    set("mine_p90_ms", mine_s.quantile(0.9).expect("mines ran") * 1e3);
    (failed == 0, attempted, failed, metrics)
}

fn store_stats(input: &Input) -> ShardStoreStats {
    match input {
        Input::Whole(_) => ShardStoreStats::default(),
        Input::Sharded { parts, .. } => parts.store_stats(),
    }
}
