//! `ffsm` — command-line front end for the support-measure framework.
//!
//! Subcommands:
//!
//! * `stats <graph.lg>` — structural statistics of a labeled graph file;
//! * `measure <graph.lg> --pattern <pattern.lg> [--measure NAME]` — compute one or all
//!   support measures of a pattern in a data graph;
//! * `match <graph.lg> --pattern <pattern.lg> [--backend B] [--naive] [--induced]
//!   [--limit N]` — enumerate the pattern's embeddings.  `--backend` picks `naive`
//!   or `candidate-space` (default); `--naive` stays as shorthand for
//!   `--backend naive`.  The candidate-space engine reports candidate-space sizes
//!   and index build / search timings;
//! * `overlap <graph.lg> --pattern <pattern.lg> [--kind NAME] [--naive]` — overlap
//!   pairs and MIS per overlap notion, from the indexed overlap-graph builder or,
//!   with `--naive`, from the all-pairs oracle;
//! * `mine <graph.lg> --tau <t> [--measure NAME] [--max-edges N] [--threads K]
//!   [--backend B] [--bounds] [--stream] [--trace] [--deadline-ms MS] [--shards K
//!   [--max-resident M] [--partition vertex-range|label-aware]]` — run the
//!   frequent-subgraph miner.  `--threads K` sets the session's level workers
//!   (`0` = one per core).
//!   The default output is a table plus the run's typed completion status (complete vs which
//!   budget cap vs deadline); `--bounds` turns on bounds-first evaluation
//!   ([`MiningSession::bounds_first`]): certified support intervals decide patterns
//!   cheaply where possible (streamed `pattern` frames carry `support_lo` /
//!   `support_hi` / `certificate`, and a deadline-cut run emits one `undecided`
//!   frame per unresolved pattern); `--stream` switches to NDJSON events (one JSON object
//!   per line — `pattern`, `level`, `finished` — flushed as found), `--trace` implies
//!   `--stream` and follows each `level` frame with a `trace` frame of per-level
//!   observability deltas (search counters, per-phase wall time), and
//!   `--deadline-ms` bounds the run's wall-clock time.  `--shards K` builds the
//!   same session over a partition of the graph ([`ffsm::shard`]): K
//!   interior+halo shards (halo depth = `--max-edges`, so every pattern fits
//!   inside one shard, interiors chosen by `--partition`), with results
//!   bit-for-bit identical to the unsharded run and every other flag —
//!   `--stream`, `--trace`, `--bounds` — unchanged; `--max-resident M`
//!   additionally spills shards to a temporary directory, removed on exit, and
//!   keeps at most M in memory.  `--max-resident` or `--partition` without
//!   `--shards` is a usage error (exit 1); invalid geometry (e.g. `--shards 0`)
//!   is a typed partition error (exit 2);
//! * `topk <graph.lg> --k <K> [--measure NAME] [--max-edges N]` — top-k mining;
//! * `update <graph.lg> --updates <u.gu> --tau <t> [--measure NAME] [--max-edges N]
//!   [--threads K] [--cold] [--stream]` — apply batches of graph updates (the `.gu`
//!   format of `ffsm_graph::io`: `av`/`rv`/`ae`/`re`/`rl` lines, `t` separators) as
//!   epochs of a versioned [`DynamicGraph`], re-mining each epoch **incrementally**
//!   (delta re-mine over the dirty region; `--cold` forces full re-mines for
//!   comparison) and printing one completion line per epoch; `--stream` switches to
//!   NDJSON events (`pattern` per frequent pattern, `epoch` per completed epoch;
//!   flushed per epoch — a delta re-mine answers most patterns from cache in one
//!   step, so the epoch, not the level, is the streaming unit here); `--trace`
//!   implies `--stream` and adds one `trace` frame per epoch, including the
//!   update-apply (delta-repair) wall time.
//!   A malformed or out-of-range updates file is a usage error (exit 1);
//! * `serve --graph NAME=PATH [--graph ...] [--listen ADDR] [--workers N] [--queue N]
//!   [--retain N] [--deadline-ms MS]` — run the multi-tenant mining server: the named
//!   graphs become a registry of versioned [`DynamicGraph`](ffsm::dynamic::DynamicGraph)s,
//!   clients speak the NDJSON-over-TCP protocol of `PROTOCOL.md` (ops `mine`, `update`,
//!   `list`, `stat`, `metrics`, `shutdown`), and Ctrl-C or a `shutdown` request drains gracefully
//!   (in-flight sessions are cancelled but still flush their terminal frames);
//! * `generate <kind> <out.lg> [--seed S]` — write one of the synthetic datasets to a
//!   `.lg` file (kinds: chemical, social, citation, protein, grid, star-overlap).
//!
//! Graphs use the plain-text `.lg` format of `ffsm_graph::io` (`v <id> <label>` /
//! `e <u> <v>` lines).  All mining goes through [`MiningSession`]; every failure is a
//! typed [`FfsmError`].  Exit code 0 on success, 1 on a usage error, 2 on an I/O,
//! parse or configuration error — including a mining run stopped by `--deadline-ms`
//! or cancellation, which exits 2 via [`FfsmError::DeadlineExceeded`] /
//! [`FfsmError::Cancelled`] after reporting the prefix it found.

use ffsm::core::measures::{MeasureConfig, MeasureKind};
use ffsm::core::{FfsmError, MeasureProfile, OccurrenceSet, OverlapAnalysis, OverlapKind};
use ffsm::graph::isomorphism::{EnumeratorBackend, IsoConfig};
use ffsm::graph::{datasets, generators, io, GraphStatistics, LabeledGraph, Pattern};
use ffsm::hypergraph::independent_set::exact_max_independent_set;
use ffsm::matching::{GraphIndex, Matcher};
use ffsm::miner::postprocess::maximal_patterns;
use ffsm::miner::{Completion, MiningEvent, MiningResult, MiningSession};
use ffsm::serve::{events, Server, ServerConfig};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// A CLI failure: either a usage problem (exit code 1) or a framework error
/// (exit code 2).
enum CliError {
    /// Wrong arguments; the message explains the expected usage.
    Usage(String),
    /// An I/O, parse or configuration error from the framework.
    Ffsm(FfsmError),
}

impl From<FfsmError> for CliError {
    fn from(e: FfsmError) -> Self {
        CliError::Ffsm(e)
    }
}

impl From<ffsm::graph::GraphError> for CliError {
    fn from(e: ffsm::graph::GraphError) -> Self {
        CliError::Ffsm(FfsmError::Graph(e))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(1);
    };
    let result = match command.as_str() {
        "stats" => cmd_stats(&args[1..]),
        "measure" => cmd_measure(&args[1..]),
        "match" => cmd_match(&args[1..]),
        "overlap" => cmd_overlap(&args[1..]),
        "mine" => cmd_mine(&args[1..]),
        "topk" => cmd_topk(&args[1..]),
        "update" => cmd_update(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "generate" => cmd_generate(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}\n{USAGE}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(1)
        }
        Err(CliError::Ffsm(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: ffsm <command> [options]

commands:
  stats    <graph.lg>                              structural statistics of a graph
  measure  <graph.lg> --pattern <p.lg> [--measure NAME]
                                                   support measures of a pattern
  match    <graph.lg> --pattern <p.lg> [--backend naive|candidate-space]
           [--naive] [--induced] [--limit N]
                                                   enumerate embeddings (--naive is
                                                   short for --backend naive)
  overlap  <graph.lg> --pattern <p.lg> [--kind NAME] [--naive]
                                                   overlap census / MIS per notion
                                                   (kinds: simple|harmful|structural|edge;
                                                   --naive: all-pairs oracle)
  mine     <graph.lg> --tau <t> [--measure NAME] [--max-edges N] [--threads K]
           [--backend naive|candidate-space] [--bounds] [--stream] [--trace]
           [--deadline-ms MS]
           [--shards K [--max-resident M] [--partition vertex-range|label-aware]]
                                                   frequent-subgraph mining
                                                   (--threads 0: one worker per core;
                                                   --bounds: bounds-first evaluation —
                                                   certified support intervals decide
                                                   patterns without full enumeration
                                                   when possible; interrupted runs
                                                   report undecided patterns with
                                                   their intervals;
                                                   --stream: NDJSON events, one per
                                                   line, flushed as found;
                                                   --trace: implies --stream, adds a
                                                   trace frame of per-level counter
                                                   and phase-time deltas;
                                                   --deadline-ms: wall-clock bound —
                                                   a deadline/cancel stop exits 2;
                                                   --shards K: partitioned mining,
                                                   identical results;
                                                   --max-resident M: spill shards,
                                                   keep at most M in memory;
                                                   --partition: shard interiors,
                                                   both need --shards)
  topk     <graph.lg> --k <K> [--measure NAME] [--max-edges N]
                                                   top-k pattern mining
  update   <graph.lg> --updates <u.gu> --tau <t> [--measure NAME] [--max-edges N]
           [--threads K] [--cold] [--stream] [--trace]
                                                   apply update batches as epochs and
                                                   re-mine each one incrementally
                                                   (--cold: full re-mine per epoch;
                                                   --stream: NDJSON epoch/pattern
                                                   events; --trace: implies --stream,
                                                   adds a trace frame per epoch incl.
                                                   delta-repair time;
                                                   bad update files exit 1)
  serve    --graph NAME=PATH [--graph NAME=PATH ...] [--listen ADDR] [--workers N]
           [--queue N] [--retain N] [--deadline-ms MS]
                                                   serve the named graphs over the
                                                   NDJSON-over-TCP protocol (see
                                                   PROTOCOL.md); Ctrl-C or a shutdown
                                                   request drains gracefully
  generate <kind> <out.lg> [--seed S]              write a synthetic dataset
                                                   (chemical|social|citation|protein|grid|star-overlap)

measure names: MNI, MNI-k, MI, MVC, MIS, MIES, nuMVC, nuMIES, MCP (default: all)";

fn load_graph(path: &str) -> Result<LabeledGraph, CliError> {
    io::load_lg(Path::new(path)).map_err(CliError::from)
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// Parse a `--measure` name through the canonical [`MeasureKind`] `FromStr` impl.
fn parse_measure(name: &str) -> Result<MeasureKind, CliError> {
    name.parse::<MeasureKind>().map_err(CliError::from)
}

fn cmd_stats(args: &[String]) -> Result<(), CliError> {
    let Some(path) = args.first() else {
        return Err(CliError::Usage("ffsm stats <graph.lg>".into()));
    };
    let graph = load_graph(path)?;
    println!("graph: {path}");
    println!("{}", GraphStatistics::compute(&graph));
    Ok(())
}

fn cmd_measure(args: &[String]) -> Result<(), CliError> {
    let Some(graph_path) = args.first() else {
        return Err(CliError::Usage(
            "ffsm measure <graph.lg> --pattern <pattern.lg> [--measure NAME]".into(),
        ));
    };
    let pattern_path = flag_value(args, "--pattern")
        .ok_or_else(|| CliError::Usage("--pattern <pattern.lg> is required".to_string()))?;
    let graph = load_graph(graph_path)?;
    let pattern: Pattern = load_graph(pattern_path)?;
    let config = MeasureConfig::default();
    let profile = MeasureProfile::compute_labeled(
        format!("{pattern_path} in {graph_path}"),
        &pattern,
        &graph,
        &config,
    );
    match flag_value(args, "--measure") {
        Some(name) => {
            let kind = parse_measure(name)?;
            let value = profile.value_of(kind).ok_or_else(|| {
                CliError::Ffsm(FfsmError::InvalidConfig(format!("measure {name} was not profiled")))
            })?;
            println!("{kind} = {value}");
        }
        None => {
            print!("{profile}");
            println!("bounding chain holds: {}", if profile.chain_holds() { "yes" } else { "NO" });
        }
    }
    Ok(())
}

fn cmd_match(args: &[String]) -> Result<(), CliError> {
    let Some(graph_path) = args.first() else {
        return Err(CliError::Usage(
            "ffsm match <graph.lg> --pattern <pattern.lg> [--backend naive|candidate-space] \
             [--naive] [--induced] [--limit N]"
                .into(),
        ));
    };
    let pattern_path = flag_value(args, "--pattern")
        .ok_or_else(|| CliError::Usage("--pattern <pattern.lg> is required".to_string()))?;
    let graph = load_graph(graph_path)?;
    let pattern: Pattern = load_graph(pattern_path)?;
    let naive_flag = args.iter().any(|a| a == "--naive");
    let backend = match flag_value(args, "--backend") {
        Some(v) => {
            let b: EnumeratorBackend = v.parse().map_err(CliError::Usage)?;
            if naive_flag && b != EnumeratorBackend::Naive {
                return Err(CliError::Usage(format!(
                    "--naive conflicts with --backend {b} — drop one of the two"
                )));
            }
            b
        }
        None if naive_flag => EnumeratorBackend::Naive,
        None => EnumeratorBackend::CandidateSpace,
    };
    let induced = args.iter().any(|a| a == "--induced");
    let max_embeddings = match flag_value(args, "--limit") {
        Some(v) => {
            v.parse::<usize>().map_err(|_| CliError::Usage(format!("invalid --limit {v:?}")))?
        }
        None => IsoConfig::default().max_embeddings,
    };
    let config = IsoConfig { max_embeddings, induced, ..IsoConfig::default() };
    println!(
        "matching {pattern_path} ({} vertices, {} edges) in {graph_path} ({} vertices, {} edges)",
        pattern.num_vertices(),
        pattern.num_edges(),
        graph.num_vertices(),
        graph.num_edges()
    );
    if backend == EnumeratorBackend::Naive {
        let (result, search_time) = ffsm_bench_free_timed(|| {
            ffsm::graph::isomorphism::enumerate_embeddings(&pattern, &graph, config)
        });
        println!("engine:      naive oracle");
        println!(
            "embeddings:  {}{}",
            result.len(),
            if result.complete { "" } else { " (truncated)" }
        );
        println!("search:      {search_time:?}");
        return Ok(());
    }
    let (index, index_time) = ffsm_bench_free_timed(|| GraphIndex::build(&graph));
    let (matcher, space_time) = ffsm_bench_free_timed(|| Matcher::new(&pattern, &graph, &index));
    let (result, search_time) = ffsm_bench_free_timed(|| matcher.enumerate(config));
    println!("engine:      candidate-space");
    let space = matcher.space();
    println!("index build: {index_time:?}");
    println!(
        "candidates:  {} total after {} refinement sweep(s)",
        space.total_size(),
        space.refinement_rounds()
    );
    for (u, (&initial, &refined)) in space.initial_sizes().iter().zip(&space.sizes()).enumerate() {
        println!("  pattern vertex {u}: {initial} -> {refined}");
    }
    println!("space build: {space_time:?}");
    println!("embeddings:  {}{}", result.len(), if result.complete { "" } else { " (truncated)" });
    println!("search:      {search_time:?}");
    Ok(())
}

/// Time one closure (the bench crate's helper, inlined so the CLI does not depend
/// on `ffsm-bench`).
fn ffsm_bench_free_timed<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn cmd_overlap(args: &[String]) -> Result<(), CliError> {
    let Some(graph_path) = args.first() else {
        return Err(CliError::Usage(
            "ffsm overlap <graph.lg> --pattern <pattern.lg> [--kind NAME] [--naive]".into(),
        ));
    };
    let pattern_path = flag_value(args, "--pattern")
        .ok_or_else(|| CliError::Usage("--pattern <pattern.lg> is required".to_string()))?;
    let graph = load_graph(graph_path)?;
    let pattern: Pattern = load_graph(pattern_path)?;
    let naive = args.iter().any(|a| a == "--naive");
    let occurrences =
        OccurrenceSet::enumerate(&pattern, &graph, MeasureConfig::default().iso_config);
    let analysis = OverlapAnalysis::new(&occurrences);
    let budget = ffsm::hypergraph::SearchBudget::default();
    println!("occurrences: {}", occurrences.num_occurrences());
    let kinds: Vec<OverlapKind> = match flag_value(args, "--kind") {
        // `--kind` names one notion through the canonical `OverlapKind` FromStr impl.
        Some(name) => vec![name.parse::<OverlapKind>()?],
        None => OverlapKind::all().to_vec(),
    };
    println!("{:<12} {:>14} {:>10}", "notion", "overlap pairs", "MIS");
    for kind in kinds {
        let (pairs, mis) = if naive {
            let graph = analysis.overlap_graph_naive(kind);
            (graph.num_edges(), exact_max_independent_set(&graph, budget).value)
        } else {
            (analysis.overlap_edge_count(kind), analysis.mis_under(kind, budget))
        };
        println!("{:<12} {:>14} {:>10}", kind.name(), pairs, mis);
    }
    Ok(())
}

fn mining_params(args: &[String]) -> Result<(MeasureKind, usize), CliError> {
    let measure = match flag_value(args, "--measure") {
        Some(name) => parse_measure(name)?,
        None => MeasureKind::Mni,
    };
    let max_edges = match flag_value(args, "--max-edges") {
        Some(v) => {
            v.parse::<usize>().map_err(|_| CliError::Usage(format!("invalid --max-edges {v:?}")))?
        }
        None => 3,
    };
    Ok((measure, max_edges))
}

fn print_frequent(patterns: &[ffsm::miner::FrequentPattern]) {
    println!("{:<6} {:>8} {:>6} {:>6} {:>12}", "rank", "support", "nodes", "edges", "occurrences");
    for (rank, p) in patterns.iter().enumerate() {
        println!(
            "{:<6} {:>8.1} {:>6} {:>6} {:>12}",
            rank + 1,
            p.support,
            p.pattern.num_vertices(),
            p.pattern.num_edges(),
            p.num_occurrences
        );
    }
}

/// Map an interrupted completion to its typed error (the documented non-zero exit
/// path for `--deadline-ms` / cancellation); budget-capped and complete runs are
/// successes — their status is in the output.
fn completion_exit(completion: Completion, deadline: Option<Duration>) -> Result<(), CliError> {
    match completion {
        Completion::DeadlineExceeded => {
            Err(CliError::Ffsm(FfsmError::DeadlineExceeded(deadline.unwrap_or_default())))
        }
        Completion::Cancelled => Err(CliError::Ffsm(FfsmError::Cancelled)),
        Completion::Complete | Completion::BudgetExhausted(_) => Ok(()),
    }
}

/// Drive a session as NDJSON: one JSON object per line, flushed the moment the
/// event happens, so a consumer sees patterns while the miner is still running.
/// Frames come from the shared serializer in [`ffsm::serve::events`] — the exact
/// bytes a server session writes to its socket.  With `trace`, every `level`
/// frame is followed by a `trace` frame carrying the level's observability
/// deltas (search counters, per-phase wall time).
fn stream_ndjson(session: MiningSession, trace: bool) -> Result<Completion, CliError> {
    // The token lets a vanished consumer stop the miner the same way a server
    // session does: cancel, don't unwind.
    let token = ffsm::graph::CancelToken::new();
    let session = if trace { session.metrics(true) } else { session };
    let stream = session.cancel_token(token.clone()).stream()?;
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut completion = Completion::Complete;
    // Level stats snapshots are cumulative; trace frames report per-level deltas.
    let mut prev_counters = ffsm::miner::SessionCounters::default();
    let mut prev_phases = ffsm::miner::PhaseTimes::default();
    for event in stream {
        let mut frames: Vec<events::Frame> = Vec::with_capacity(2);
        match event? {
            MiningEvent::Pattern(p) => frames.push(events::pattern_frame(&p, None)),
            MiningEvent::Undecided(u) => frames.push(events::undecided_frame(&u)),
            MiningEvent::LevelCompleted(level) => {
                frames.push(events::level_frame(&level));
                if trace {
                    let counters = level.stats.counters.saturating_sub(&prev_counters);
                    let phases = level.stats.phase_timings.saturating_sub(&prev_phases);
                    frames.push(events::trace_frame(level.level, &counters, &phases));
                    prev_counters = level.stats.counters;
                    prev_phases = level.stats.phase_timings;
                }
            }
            MiningEvent::Finished(summary) => {
                completion = summary.completion;
                frames.push(events::finished_frame(&summary));
            }
        }
        for frame in frames {
            match events::write_frame(&mut out, &frame.finish()) {
                Ok(events::FrameWrite::Written) => {}
                // A consumer closing the pipe early (`... --stream | head`) is a
                // normal way to stop consuming, not a mining failure: cancel the
                // session and end the stream cleanly so exit code 2 keeps meaning
                // "run interrupted", nothing else.
                Ok(events::FrameWrite::Disconnected) => {
                    token.cancel();
                    return Ok(Completion::Complete);
                }
                Err(e) => {
                    token.cancel();
                    return Err(CliError::Ffsm(FfsmError::Graph(ffsm::graph::GraphError::Io(
                        e.to_string(),
                    ))));
                }
            }
        }
    }
    Ok(completion)
}

fn cmd_mine(args: &[String]) -> Result<(), CliError> {
    let Some(graph_path) = args.first() else {
        return Err(CliError::Usage(
            "ffsm mine <graph.lg> --tau <t> [--measure NAME] [--max-edges N] [--threads K] \
             [--backend naive|candidate-space] [--bounds] [--stream] \
             [--trace] [--deadline-ms MS] \
             [--shards K [--max-resident M] [--partition vertex-range|label-aware]]"
                .into(),
        ));
    };
    let tau: f64 = flag_value(args, "--tau")
        .ok_or_else(|| CliError::Usage("--tau <threshold> is required".to_string()))?
        .parse()
        .map_err(|_| CliError::Usage("invalid --tau value".to_string()))?;
    let (measure, max_edges) = mining_params(args)?;
    let parse_count = |flag: &str| -> Result<Option<usize>, CliError> {
        flag_value(args, flag)
            .map(|v| {
                v.parse::<usize>().map_err(|_| CliError::Usage(format!("invalid {flag} {v:?}")))
            })
            .transpose()
    };
    let threads = parse_count("--threads")?.unwrap_or(1);
    let deadline = match flag_value(args, "--deadline-ms") {
        Some(v) => Some(Duration::from_millis(v.parse::<u64>().map_err(|_| {
            CliError::Usage(format!("invalid --deadline-ms {v:?} (expected milliseconds)"))
        })?)),
        None => None,
    };
    let backend = match flag_value(args, "--backend") {
        Some(v) => v.parse::<EnumeratorBackend>().map_err(CliError::Usage)?,
        None => EnumeratorBackend::default(),
    };
    let trace = args.iter().any(|a| a == "--trace");
    let stream = trace || args.iter().any(|a| a == "--stream");
    let bounds = args.iter().any(|a| a == "--bounds");
    let shards = parse_count("--shards")?;
    for flag in ["--max-resident", "--partition"] {
        if shards.is_none() && flag_value(args, flag).is_some() {
            return Err(CliError::Usage(format!("{flag} requires --shards")));
        }
    }
    let max_resident = parse_count("--max-resident")?;

    // Declared first so it is dropped last, after every shard handle.
    let mut spill_dir: Option<SpillDir> = None;
    // The CLI owns the loaded graph: move it into the prepared handle (or drop
    // it once partitioned) instead of paying `MiningSession::on`'s clone.
    let graph = load_graph(graph_path)?;
    let mut partitioned = None;
    let session = match shards {
        None => MiningSession::over(&ffsm::miner::PreparedGraph::new(graph)),
        Some(num_shards) => {
            use ffsm::shard::{PartitionSpec, PartitionStrategy, PartitionedGraph};
            let strategy = match flag_value(args, "--partition") {
                Some(name) => name.parse::<PartitionStrategy>()?,
                None => PartitionStrategy::VertexRange,
            };
            // Halo depth = max_edges, so every minable pattern fits in one shard.
            let spec = PartitionSpec { num_shards, halo_depth: max_edges, strategy };
            let parts = PartitionedGraph::build(&graph, spec)?;
            drop(graph); // from here on, the shards are the graph
            if let Some(cap) = max_resident {
                let dir = spill_dir.insert(SpillDir(
                    std::env::temp_dir().join(format!("ffsm-shards-{}", std::process::id())),
                ));
                parts.spill_to_disk(&dir.0, cap)?;
            }
            let parts = std::sync::Arc::new(parts);
            let session = MiningSession::over(&parts);
            partitioned = Some(parts);
            session
        }
    };
    let mut session = session
        .measure(measure)
        .min_support(tau)
        .max_edges(max_edges)
        .threads(threads)
        .enumerator(backend)
        .bounds_first(bounds);
    if let Some(d) = deadline {
        session = session.deadline(d);
    }
    if stream {
        let completion = stream_ndjson(session, trace)?;
        return completion_exit(completion, deadline);
    }
    let result: MiningResult = session.run()?;
    println!(
        "{} frequent patterns under {measure} at tau = {tau} ({} maximal), {} candidates evaluated in {:?}",
        result.len(),
        maximal_patterns(&result).len(),
        result.stats.candidates_evaluated,
        result.stats.elapsed
    );
    if let Some(parts) = &partitioned {
        let store = parts.store_stats();
        println!(
            "sharded over {} shards ({}, halo {max_edges}): {} cross-shard occurrences \
             deduplicated, {} shard loads, {} shards / {} bytes resident at peak",
            parts.num_shards(),
            parts.spec().strategy,
            result.stats.counters.cross_shard_occurrences,
            store.loads,
            store.resident_shards,
            store.peak_resident_bytes,
        );
    }
    // Why the run stopped — a capped run is no longer indistinguishable from a
    // complete one.
    println!("status: {}", result.completion());
    print_frequent(&result.patterns);
    // A bounds-first run cut short still knows what it was unsure about: one
    // line per open candidate with its certified interval.
    if !result.undecided.is_empty() {
        println!("{} undecided patterns (certified support intervals):", result.undecided.len());
        for u in &result.undecided {
            println!(
                "  [{}, {}] via {}: {} vertices, {} edges",
                u.interval.lo,
                u.interval.hi,
                u.certificate,
                u.pattern.num_vertices(),
                u.pattern.num_edges()
            );
        }
    }
    completion_exit(result.completion(), deadline)
}

/// The `--max-resident` spill directory of `ffsm mine`, removed when dropped —
/// on every exit path: success, a failed spill, a mining error, or a stream
/// whose consumer closed the pipe.
struct SpillDir(std::path::PathBuf);

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0); // best-effort temp cleanup
    }
}

fn cmd_topk(args: &[String]) -> Result<(), CliError> {
    let Some(graph_path) = args.first() else {
        return Err(CliError::Usage(
            "ffsm topk <graph.lg> --k <K> [--measure NAME] [--max-edges N]".into(),
        ));
    };
    let k: usize = flag_value(args, "--k")
        .ok_or_else(|| CliError::Usage("--k <count> is required".to_string()))?
        .parse()
        .map_err(|_| CliError::Usage("invalid --k value".to_string()))?;
    let (measure, max_edges) = mining_params(args)?;
    let prepared = ffsm::miner::PreparedGraph::new(load_graph(graph_path)?);
    let result = MiningSession::over(&prepared)
        .measure(measure)
        .min_support(1.0)
        .max_edges(max_edges)
        .top_k(k)
        .run()?;
    println!(
        "top-{k} patterns under {measure} (final threshold {:.1}, {} candidates evaluated)",
        result.final_threshold, result.stats.candidates_evaluated
    );
    println!("status: {}", result.completion());
    print_frequent(&result.patterns);
    Ok(())
}

/// Report one mined epoch: human-readable line, or NDJSON `pattern` events plus
/// one `epoch` event when streaming (with an extra `trace` frame before the
/// `epoch` frame when `trace` carries the epoch's phase times).  Returns
/// `Ok(false)` when a streaming consumer closed the pipe (`... --stream | head`)
/// — the caller then stops cleanly, exactly like `ffsm mine --stream`.
fn report_epoch(
    epoch: usize,
    delta_summary: Option<String>,
    result: &MiningResult,
    stream: bool,
    trace: Option<&ffsm::miner::PhaseTimes>,
) -> Result<bool, CliError> {
    let stats = &result.stats;
    if !stream {
        let delta = delta_summary.map(|s| format!(" ({s})")).unwrap_or_default();
        println!(
            "epoch {epoch}{delta}: {} patterns, status {}, {} evaluated ({} reused), {:?}",
            result.len(),
            result.completion(),
            stats.candidates_evaluated,
            stats.evaluations_reused,
            stats.elapsed
        );
        return Ok(true);
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    // Same serializer, same teardown contract as `mine --stream` and the server.
    let mut emit = |frame: events::Frame| -> Result<bool, CliError> {
        match events::write_frame(&mut out, &frame.finish()) {
            Ok(events::FrameWrite::Written) => Ok(true),
            Ok(events::FrameWrite::Disconnected) => Ok(false),
            Err(e) => {
                Err(CliError::Ffsm(FfsmError::Graph(ffsm::graph::GraphError::Io(e.to_string()))))
            }
        }
    };
    for p in &result.patterns {
        if !emit(events::pattern_frame(p, Some(epoch)))? {
            return Ok(false);
        }
    }
    // Each epoch is its own run, so its stats are already per-epoch deltas; the
    // caller's phase block additionally carries the update-apply (delta-repair)
    // wall time, which happens outside the mining session.
    if let Some(phases) = trace {
        if !emit(events::trace_frame(epoch, &result.stats.counters, phases))? {
            return Ok(false);
        }
    }
    emit(events::epoch_frame(epoch, result))
}

fn cmd_update(args: &[String]) -> Result<(), CliError> {
    let Some(graph_path) = args.first() else {
        return Err(CliError::Usage(
            "ffsm update <graph.lg> --updates <u.gu> --tau <t> [--measure NAME] [--max-edges N] \
             [--threads K] [--cold] [--stream] [--trace]"
                .into(),
        ));
    };
    let updates_path = flag_value(args, "--updates")
        .ok_or_else(|| CliError::Usage("--updates <u.gu> is required".to_string()))?;
    let tau: f64 = flag_value(args, "--tau")
        .ok_or_else(|| CliError::Usage("--tau <threshold> is required".to_string()))?
        .parse()
        .map_err(|_| CliError::Usage("invalid --tau value".to_string()))?;
    let (measure, max_edges) = mining_params(args)?;
    let threads = match flag_value(args, "--threads") {
        Some(v) => {
            v.parse::<usize>().map_err(|_| CliError::Usage(format!("invalid --threads {v:?}")))?
        }
        None => 1,
    };
    let cold = args.iter().any(|a| a == "--cold");
    let trace = args.iter().any(|a| a == "--trace");
    let stream = trace || args.iter().any(|a| a == "--stream");
    // Malformed update files are usage errors (exit 1), keeping exit 2 for
    // mining-side failures — the typed parse error still names the line.
    let batches = io::load_updates(Path::new(updates_path))
        .map_err(|e| CliError::Usage(format!("bad updates file {updates_path}: {e}")))?;

    let mut store = ffsm::dynamic::DynamicGraph::new(load_graph(graph_path)?);
    let config = MiningSession::over(store.current().prepared())
        .measure(measure)
        .min_support(tau)
        .max_edges(max_edges)
        .threads(threads)
        .metrics(trace)
        .config()
        .clone();
    let mut miner = ffsm::dynamic::IncrementalMiner::new(config);
    if !stream {
        println!(
            "mining {graph_path} under {measure} at tau = {tau} through {} update batch(es) from \
             {updates_path}{}",
            batches.len(),
            if cold { " (cold re-mines)" } else { "" }
        );
    }
    let mut last = miner.mine(store.current()).map_err(CliError::Ffsm)?;
    let phases = last.stats.phase_timings;
    if !report_epoch(0, None, &last, stream, trace.then_some(&phases))? {
        return Ok(());
    }
    for batch in &batches {
        // Out-of-range updates are usage errors too: the file asked for an
        // impossible edit, mining never started for this epoch.
        let apply_start = std::time::Instant::now();
        let snapshot = match store.apply(batch) {
            Ok(snapshot) => snapshot.clone(),
            Err(e) => return Err(CliError::Usage(format!("bad updates file {updates_path}: {e}"))),
        };
        let apply_nanos = apply_start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if cold {
            miner.reset();
        }
        last = miner.mine(&snapshot).map_err(CliError::Ffsm)?;
        let summary = snapshot.delta().map(|d| d.summary());
        let mut phases = last.stats.phase_timings;
        phases.add_nanos(ffsm::miner::Phase::DeltaRepair, apply_nanos);
        if !report_epoch(snapshot.epoch(), summary, &last, stream, trace.then_some(&phases))? {
            return Ok(());
        }
        // Keep only what chaining needs; old epochs remain valid for readers.
        store.retain_recent(2);
    }
    if !stream {
        print_frequent(&last.patterns);
    }
    Ok(())
}

/// SIGINT (Ctrl-C) latch for `ffsm serve`, registered through the C `signal`
/// entry point so the binary needs no extra dependency.  The handler only sets
/// an atomic flag (the one async-signal-safe thing worth doing); a watcher
/// thread turns the flag into a graceful drain.
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_sigint(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// POSIX `SIGINT`.
    const SIGINT: i32 = 2;

    pub fn install() {
        unsafe {
            signal(SIGINT, on_sigint);
        }
    }
}

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    const SERVE_USAGE: &str = "ffsm serve --graph NAME=PATH [--graph NAME=PATH ...] \
         [--listen ADDR] [--workers N] [--queue N] [--retain N] [--deadline-ms MS]";
    let mut graphs: Vec<(&str, &str)> = Vec::new();
    for (i, arg) in args.iter().enumerate() {
        if arg == "--graph" {
            let spec = args.get(i + 1).ok_or_else(|| {
                CliError::Usage(format!("--graph needs NAME=PATH\n{SERVE_USAGE}"))
            })?;
            let (name, path) = spec.split_once('=').ok_or_else(|| {
                CliError::Usage(format!("--graph expects NAME=PATH, got {spec:?}"))
            })?;
            graphs.push((name, path));
        }
    }
    if graphs.is_empty() {
        return Err(CliError::Usage(format!("at least one --graph is required\n{SERVE_USAGE}")));
    }
    let listen = flag_value(args, "--listen").unwrap_or("127.0.0.1:7878");
    let parse_count = |flag: &str, default: usize| -> Result<usize, CliError> {
        match flag_value(args, flag) {
            Some(v) => v.parse().map_err(|_| CliError::Usage(format!("invalid {flag} {v:?}"))),
            None => Ok(default),
        }
    };
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        workers: parse_count("--workers", defaults.workers)?,
        queue_capacity: parse_count("--queue", defaults.queue_capacity)?,
        retain_epochs: parse_count("--retain", defaults.retain_epochs)?,
        default_deadline: match flag_value(args, "--deadline-ms") {
            Some(v) => Some(Duration::from_millis(v.parse::<u64>().map_err(|_| {
                CliError::Usage(format!("invalid --deadline-ms {v:?} (expected milliseconds)"))
            })?)),
            None => None,
        },
        ..defaults
    };
    let server = Server::bind(listen, config)?;
    for (name, path) in &graphs {
        server.registry().register(name, load_graph(path)?)?;
    }
    let addr = server.local_addr()?;
    println!(
        "serving {} graph(s) on {addr} — NDJSON protocol (see PROTOCOL.md); \
         Ctrl-C or {{\"op\": \"shutdown\"}} drains gracefully",
        graphs.len()
    );
    sigint::install();
    let handle = server.handle();
    let watcher = std::thread::spawn(move || {
        // Turn the SIGINT latch into a drain; exits quietly when the drain
        // started elsewhere (a client's `shutdown` request).
        while !handle.is_shutting_down() {
            if sigint::INTERRUPTED.load(std::sync::atomic::Ordering::SeqCst) {
                handle.shutdown();
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    let outcome = server.run();
    let _ = watcher.join();
    outcome?;
    println!("drained; all sessions flushed");
    Ok(())
}

fn cmd_generate(args: &[String]) -> Result<(), CliError> {
    let (Some(kind), Some(out)) = (args.first(), args.get(1)) else {
        return Err(CliError::Usage("ffsm generate <kind> <out.lg> [--seed S]".into()));
    };
    let seed: u64 = match flag_value(args, "--seed") {
        Some(v) => v.parse().map_err(|_| CliError::Usage("invalid --seed value".to_string()))?,
        None => 42,
    };
    let graph = match kind.as_str() {
        "chemical" => datasets::chemical_like(80, seed).graph,
        "social" => datasets::social_like(400, seed).graph,
        "citation" => datasets::citation_like(400, seed).graph,
        "protein" => datasets::protein_like(10, 8, seed).graph,
        "grid" => generators::grid(20, 20, 4),
        "star-overlap" => generators::star_overlap(8, 32),
        other => {
            return Err(CliError::Usage(format!(
                "unknown dataset kind {other:?} (expected chemical, social, citation, protein, grid or star-overlap)"
            )))
        }
    };
    io::save_lg(&graph, Path::new(out))?;
    println!(
        "wrote {} ({} vertices, {} edges, {} labels)",
        out,
        graph.num_vertices(),
        graph.num_edges(),
        graph.distinct_labels().len()
    );
    Ok(())
}
