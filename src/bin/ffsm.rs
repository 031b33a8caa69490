//! `ffsm` — command-line front end for the support-measure framework.
//!
//! Each subcommand declares its positionals and flags in one table (`COMMANDS`).
//! The parser checks the command line against that table, and `ffsm --help` and
//! every usage error print the synopsis built from it.  An unknown flag, a value
//! flag without a value, a flag given twice (other than `serve --graph`), a stray
//! or missing positional and a missing required flag are usage errors (exit 1).
//!
//! Subcommands:
//!
//! * `stats` — structural statistics of a labeled graph file;
//! * `measure` — compute one or all support measures of a pattern in a data graph;
//! * `match` — enumerate the pattern's embeddings.  `--backend` picks `naive` or
//!   `candidate-space` (default); `--naive` stays as shorthand for
//!   `--backend naive`.  The candidate-space engine reports candidate-space sizes
//!   and index build / search timings;
//! * `overlap` — overlap pairs and MIS per overlap notion, from the indexed
//!   overlap-graph builder or, with `--naive`, from the all-pairs oracle;
//! * `mine` — run the frequent-subgraph miner.  `--threads K` sets the session's
//!   level workers (`0` = one per core).
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
//! * `topk` — top-k mining;
//! * `update` — apply batches of graph updates (the `.gu`
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
//! * `serve` — run the multi-tenant mining server: the named
//!   graphs become a registry of versioned [`DynamicGraph`](ffsm::dynamic::DynamicGraph)s,
//!   clients speak the NDJSON-over-TCP protocol of `PROTOCOL.md` (ops `mine`, `update`,
//!   `list`, `stat`, `metrics`, `shutdown`), and Ctrl-C or a `shutdown` request drains gracefully
//!   (in-flight sessions are cancelled but still flush their terminal frames);
//! * `generate` — write one of the synthetic datasets to a `.lg` file.
//!
//! Graphs use the plain-text `.lg` format of `ffsm_graph::io` (`v <id> <label>` /
//! `e <u> <v>` lines).  All mining goes through [`MiningSession`]; every failure is a
//! typed [`FfsmError`].  Exit code 0 on success, 1 on a usage error, 2 on an I/O,
//! parse or configuration error — including a mining run stopped by `--deadline-ms`
//! or cancellation, which exits 2 via [`FfsmError::DeadlineExceeded`] /
//! [`FfsmError::Cancelled`] after reporting the prefix it found.  A consumer that
//! closes stdout early (`ffsm ... | head`) ends any command cleanly with exit 0.

use ffsm::core::measures::{MeasureConfig, MeasureKind};
use ffsm::core::{FfsmError, MeasureProfile, OccurrenceSet, OverlapAnalysis, OverlapKind};
use ffsm::graph::isomorphism::{EnumeratorBackend, IsoConfig};
use ffsm::graph::{datasets, generators, io, GraphStatistics, LabeledGraph, Pattern};
use ffsm::hypergraph::independent_set::exact_max_independent_set;
use ffsm::matching::{GraphIndex, Matcher};
use ffsm::miner::postprocess::maximal_patterns;
use ffsm::miner::{Completion, MiningEvent, MiningResult, MiningSession};
use ffsm::serve::{events, Server, ServerConfig};
use std::fmt::Display;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

/// A CLI failure: either a usage problem (exit code 1) or a framework error
/// (exit code 2) — or the consumer closed stdout, which ends the command cleanly.
enum CliError {
    /// Wrong arguments; the message explains the expected usage.
    Usage(String),
    /// An I/O, parse or configuration error from the framework.
    Ffsm(FfsmError),
    /// Writing to stdout hit a closed pipe: stop, nothing failed (exit code 0).
    Closed,
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::BrokenPipe => CliError::Closed,
            _ => CliError::Ffsm(FfsmError::Graph(ffsm::graph::GraphError::Io(e.to_string()))),
        }
    }
}

/// `println!` for command output that returns a write error instead of panicking;
/// a closed pipe becomes [`CliError::Closed`].
macro_rules! say {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout(), $($arg)*)?
    };
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
    let Some(name) = args.first() else {
        eprintln!("{}", usage());
        return ExitCode::from(1);
    };
    let result = match COMMANDS.iter().find(|c| c.name == name) {
        Some(command) => command.parse(&args[1..]).and_then(|parsed| (command.run)(&parsed)),
        None if matches!(name.as_str(), "--help" | "-h" | "help") => {
            writeln!(std::io::stdout(), "{}", usage()).map_err(CliError::from)
        }
        None => Err(CliError::Usage(format!("unknown command {name:?}\n{}", usage()))),
    };
    match result {
        Ok(()) | Err(CliError::Closed) => ExitCode::SUCCESS,
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

/// One flag a subcommand accepts.
struct Flag {
    name: &'static str,
    /// Placeholder for the flag's value in the synopsis; `None` for a switch.
    value: Option<&'static str>,
    /// The command cannot run without it.
    required: bool,
    /// May be given more than once; any other flag given twice is a usage error.
    repeats: bool,
}

const fn switch(name: &'static str) -> Flag {
    Flag { name, value: None, required: false, repeats: false }
}

const fn optional(name: &'static str, value: &'static str) -> Flag {
    Flag { name, value: Some(value), required: false, repeats: false }
}

const fn required(name: &'static str, value: &'static str) -> Flag {
    Flag { name, value: Some(value), required: true, repeats: false }
}

const PATTERN: Flag = required("--pattern", "<p.lg>");
const TAU: Flag = required("--tau", "<t>");
const MEASURE: Flag = optional("--measure", "NAME");
const MAX_EDGES: Flag = optional("--max-edges", "N");
const THREADS: Flag = optional("--threads", "K");
const BACKEND: Flag = optional("--backend", "naive|candidate-space");
const DEADLINE_MS: Flag = optional("--deadline-ms", "MS");
const NAIVE: Flag = switch("--naive");
const STREAM: Flag = switch("--stream");
const TRACE: Flag = switch("--trace");

/// One subcommand: its positional arguments and the table of flags it accepts.
/// The parser, the synopsis in its usage errors and `ffsm --help` all read this
/// table, so they cannot disagree.
struct Command {
    name: &'static str,
    positionals: &'static [&'static str],
    flags: &'static [Flag],
    /// What the command does, for `ffsm --help`.
    about: &'static str,
    run: fn(&Args) -> Result<(), CliError>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "stats",
        positionals: &["<graph.lg>"],
        flags: &[],
        about: "structural statistics of a graph",
        run: cmd_stats,
    },
    Command {
        name: "measure",
        positionals: &["<graph.lg>"],
        flags: &[PATTERN, MEASURE],
        about: "support measures of a pattern",
        run: cmd_measure,
    },
    Command {
        name: "match",
        positionals: &["<graph.lg>"],
        flags: &[PATTERN, BACKEND, NAIVE, switch("--induced"), optional("--limit", "N")],
        about: "enumerate embeddings (--naive is short for --backend naive)",
        run: cmd_match,
    },
    Command {
        name: "overlap",
        positionals: &["<graph.lg>"],
        flags: &[PATTERN, optional("--kind", "NAME"), NAIVE],
        about: "overlap census / MIS per notion (kinds: simple|harmful|structural|edge; \
                --naive: all-pairs oracle)",
        run: cmd_overlap,
    },
    Command {
        name: "mine",
        positionals: &["<graph.lg>"],
        flags: &[
            TAU,
            MEASURE,
            MAX_EDGES,
            THREADS,
            BACKEND,
            switch("--bounds"),
            STREAM,
            TRACE,
            DEADLINE_MS,
            optional("--shards", "K"),
            optional("--max-resident", "M"),
            optional("--partition", "vertex-range|label-aware"),
        ],
        about: "frequent-subgraph mining (--threads 0: one worker per core; --bounds: \
                bounds-first evaluation — certified support intervals decide patterns \
                without full enumeration when possible, and interrupted runs report \
                undecided patterns with their intervals; --stream: NDJSON events, one per \
                line, flushed as found; --trace: implies --stream, adds a trace frame of \
                per-level counter and phase-time deltas; --deadline-ms: wall-clock bound — \
                a deadline/cancel stop exits 2; --shards K: partitioned mining, identical \
                results; --max-resident M: spill shards, keep at most M in memory; \
                --partition: shard interiors; --max-resident and --partition need --shards)",
        run: cmd_mine,
    },
    Command {
        name: "topk",
        positionals: &["<graph.lg>"],
        flags: &[required("--k", "<K>"), MEASURE, MAX_EDGES],
        about: "top-k pattern mining",
        run: cmd_topk,
    },
    Command {
        name: "update",
        positionals: &["<graph.lg>"],
        flags: &[
            required("--updates", "<u.gu>"),
            TAU,
            MEASURE,
            MAX_EDGES,
            THREADS,
            switch("--cold"),
            STREAM,
            TRACE,
        ],
        about: "apply update batches as epochs and re-mine each one incrementally (--cold: \
                full re-mine per epoch; --stream: NDJSON epoch/pattern events; --trace: \
                implies --stream, adds a trace frame per epoch incl. delta-repair time; bad \
                update files exit 1)",
        run: cmd_update,
    },
    Command {
        name: "serve",
        positionals: &[],
        flags: &[
            Flag { name: "--graph", value: Some("NAME=PATH"), required: true, repeats: true },
            optional("--listen", "ADDR"),
            optional("--workers", "N"),
            optional("--queue", "N"),
            optional("--retain", "N"),
            DEADLINE_MS,
        ],
        about: "serve the named graphs over the NDJSON-over-TCP protocol (see PROTOCOL.md); \
                Ctrl-C or a shutdown request drains gracefully",
        run: cmd_serve,
    },
    Command {
        name: "generate",
        positionals: &["<kind>", "<out.lg>"],
        flags: &[optional("--seed", "S")],
        about: "write a synthetic dataset (chemical|social|citation|protein|grid|star-overlap)",
        run: cmd_generate,
    },
];

/// Join `items` with spaces into lines of at most 80 columns: the first line
/// starts with `first`, every further line with `indent`.
fn wrap(first: &str, indent: &str, items: impl IntoIterator<Item = String>) -> String {
    let mut text = first.to_string();
    let mut line_start = 0;
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 && text[line_start..].chars().count() + 1 + item.chars().count() > 80 {
            text.push('\n');
            line_start = text.len();
            text.push_str(indent);
        } else if i > 0 {
            text.push(' ');
        }
        text.push_str(&item);
    }
    text
}

impl Command {
    /// `ffsm <name> <positionals> <flags>`, wrapped.
    fn synopsis(&self, first: &str, indent: &str) -> String {
        let flags = self.flags.iter().map(|f| {
            let flag = match f.value {
                Some(value) => format!("{} {value}", f.name),
                None => f.name.to_string(),
            };
            match (f.required, f.repeats) {
                (true, true) => format!("{flag} [{flag} ...]"),
                (true, false) => flag,
                (false, _) => format!("[{flag}]"),
            }
        });
        let words = ["ffsm", self.name].into_iter().chain(self.positionals.iter().copied());
        wrap(first, indent, words.map(String::from).chain(flags))
    }

    /// Check `tokens` against the command's table: every flag known, every value
    /// flag followed by a value, no flag but a repeating one twice, exactly the
    /// command's positionals and every required flag present.
    fn parse<'a>(&self, tokens: &'a [String]) -> Result<Args<'a>, CliError> {
        let usage = |message: String| {
            CliError::Usage(format!("{message}\n{}", self.synopsis("usage: ", "         ")))
        };
        let mut args = Args { positionals: Vec::new(), flags: Vec::new() };
        let mut tokens = tokens.iter();
        while let Some(token) = tokens.next() {
            if !token.starts_with("--") {
                if args.positionals.len() == self.positionals.len() {
                    return Err(usage(format!("unexpected argument {token:?}")));
                }
                args.positionals.push(token);
                continue;
            }
            let Some(flag) = self.flags.iter().find(|f| f.name == token) else {
                return Err(usage(format!("unknown flag {token} for ffsm {}", self.name)));
            };
            if !flag.repeats && args.has(flag.name) {
                return Err(usage(format!("{token} given more than once")));
            }
            let value = match flag.value {
                None => "",
                Some(placeholder) => match tokens.next() {
                    Some(value) if !value.starts_with("--") => value,
                    _ => return Err(usage(format!("{token} needs a value {placeholder}"))),
                },
            };
            args.flags.push((flag.name, value));
        }
        if let Some(missing) = self.positionals.get(args.positionals.len()) {
            return Err(usage(format!("missing {missing}")));
        }
        if let Some(flag) = self.flags.iter().find(|f| f.required && !args.has(f.name)) {
            return Err(usage(format!("{} is required", flag.name)));
        }
        Ok(args)
    }
}

/// A subcommand's arguments, checked against its [`Command`] table.
struct Args<'a> {
    positionals: Vec<&'a str>,
    /// `(flag, value)` in command-line order; a switch's value is empty.
    flags: Vec<(&'static str, &'a str)>,
}

impl Args<'_> {
    /// The value of `flag` (empty for a switch), if given.
    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(name, _)| *name == flag).map(|&(_, value)| value)
    }

    /// Whether `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// The value of `flag` parsed as a `T`; a value that does not parse is a
    /// usage error.
    fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, CliError>
    where
        T::Err: Display,
    {
        self.value(flag)
            .map(|v| v.parse().map_err(|e| CliError::Usage(format!("invalid {flag} {v:?}: {e}"))))
            .transpose()
    }

    /// [`Args::get`] for a flag the table marks required.
    fn required<T: FromStr>(&self, flag: &str) -> Result<T, CliError>
    where
        T::Err: Display,
    {
        self.get(flag)?.ok_or_else(|| CliError::Usage(format!("{flag} is required")))
    }
}

fn usage() -> String {
    let mut text = String::from("usage: ffsm <command> [options]\n\ncommands:\n");
    for command in COMMANDS {
        text.push_str(&command.synopsis("  ", "      "));
        text.push('\n');
        let about = command.about.split_whitespace().map(String::from);
        text.push_str(&wrap("          ", "          ", about));
        text.push('\n');
    }
    text.push_str(
        "\nmeasure names: MNI, MNI-k, MI, MVC, MIS, MIES, nuMVC, nuMIES, MCP (default: all)",
    );
    text
}

fn load_graph(path: &str) -> Result<LabeledGraph, CliError> {
    io::load_lg(Path::new(path)).map_err(CliError::from)
}

/// Parse a `--measure` name through the canonical [`MeasureKind`] `FromStr` impl.
fn parse_measure(name: &str) -> Result<MeasureKind, CliError> {
    name.parse::<MeasureKind>().map_err(CliError::from)
}

fn cmd_stats(args: &Args) -> Result<(), CliError> {
    let path = args.positionals[0];
    let graph = load_graph(path)?;
    say!("graph: {path}");
    say!("{}", GraphStatistics::compute(&graph));
    Ok(())
}

fn cmd_measure(args: &Args) -> Result<(), CliError> {
    let graph_path = args.positionals[0];
    let pattern_path: String = args.required("--pattern")?;
    let graph = load_graph(graph_path)?;
    let pattern: Pattern = load_graph(&pattern_path)?;
    let config = MeasureConfig::default();
    let profile = MeasureProfile::compute_labeled(
        format!("{pattern_path} in {graph_path}"),
        &pattern,
        &graph,
        &config,
    );
    match args.value("--measure") {
        Some(name) => {
            let kind = parse_measure(name)?;
            let value = profile.value_of(kind).ok_or_else(|| {
                CliError::Ffsm(FfsmError::InvalidConfig(format!("measure {name} was not profiled")))
            })?;
            say!("{kind} = {value}");
        }
        None => {
            write!(std::io::stdout(), "{profile}")?;
            say!("bounding chain holds: {}", if profile.chain_holds() { "yes" } else { "NO" });
        }
    }
    Ok(())
}

fn cmd_match(args: &Args) -> Result<(), CliError> {
    let graph_path = args.positionals[0];
    let pattern_path: String = args.required("--pattern")?;
    let naive_flag = args.has("--naive");
    let backend = match args.get::<EnumeratorBackend>("--backend")? {
        Some(b) => {
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
    let induced = args.has("--induced");
    let max_embeddings = args.get("--limit")?.unwrap_or(IsoConfig::default().max_embeddings);
    let config = IsoConfig { max_embeddings, induced, ..IsoConfig::default() };
    let graph = load_graph(graph_path)?;
    let pattern: Pattern = load_graph(&pattern_path)?;
    say!(
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
        say!("engine:      naive oracle");
        say!("embeddings:  {}{}", result.len(), if result.complete { "" } else { " (truncated)" });
        say!("search:      {search_time:?}");
        return Ok(());
    }
    let (index, index_time) = ffsm_bench_free_timed(|| GraphIndex::build(&graph));
    let (matcher, space_time) = ffsm_bench_free_timed(|| Matcher::new(&pattern, &graph, &index));
    let (result, search_time) = ffsm_bench_free_timed(|| matcher.enumerate(config));
    say!("engine:      candidate-space");
    let space = matcher.space();
    say!("index build: {index_time:?}");
    say!(
        "candidates:  {} total after {} refinement sweep(s)",
        space.total_size(),
        space.refinement_rounds()
    );
    for (u, (&initial, &refined)) in space.initial_sizes().iter().zip(&space.sizes()).enumerate() {
        say!("  pattern vertex {u}: {initial} -> {refined}");
    }
    say!("space build: {space_time:?}");
    say!("embeddings:  {}{}", result.len(), if result.complete { "" } else { " (truncated)" });
    say!("search:      {search_time:?}");
    Ok(())
}

/// Time one closure (the bench crate's helper, inlined so the CLI does not depend
/// on `ffsm-bench`).
fn ffsm_bench_free_timed<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn cmd_overlap(args: &Args) -> Result<(), CliError> {
    let graph_path = args.positionals[0];
    let pattern_path: String = args.required("--pattern")?;
    let graph = load_graph(graph_path)?;
    let pattern: Pattern = load_graph(&pattern_path)?;
    let naive = args.has("--naive");
    let occurrences =
        OccurrenceSet::enumerate(&pattern, &graph, MeasureConfig::default().iso_config);
    let analysis = OverlapAnalysis::new(&occurrences);
    let budget = ffsm::hypergraph::SearchBudget::default();
    say!("occurrences: {}", occurrences.num_occurrences());
    let kinds: Vec<OverlapKind> = match args.value("--kind") {
        // `--kind` names one notion through the canonical `OverlapKind` FromStr impl.
        Some(name) => vec![name.parse::<OverlapKind>()?],
        None => OverlapKind::all().to_vec(),
    };
    say!("{:<12} {:>14} {:>10}", "notion", "overlap pairs", "MIS");
    for kind in kinds {
        let (pairs, mis) = if naive {
            let graph = analysis.overlap_graph_naive(kind);
            (graph.num_edges(), exact_max_independent_set(&graph, budget).value)
        } else {
            (analysis.overlap_edge_count(kind), analysis.mis_under(kind, budget))
        };
        say!("{:<12} {:>14} {:>10}", kind.name(), pairs, mis);
    }
    Ok(())
}

fn mining_params(args: &Args) -> Result<(MeasureKind, usize), CliError> {
    let measure = match args.value("--measure") {
        Some(name) => parse_measure(name)?,
        None => MeasureKind::Mni,
    };
    Ok((measure, args.get("--max-edges")?.unwrap_or(3)))
}

fn print_frequent(patterns: &[ffsm::miner::FrequentPattern]) -> Result<(), CliError> {
    say!("{:<6} {:>8} {:>6} {:>6} {:>12}", "rank", "support", "nodes", "edges", "occurrences");
    for (rank, p) in patterns.iter().enumerate() {
        say!(
            "{:<6} {:>8.1} {:>6} {:>6} {:>12}",
            rank + 1,
            p.support,
            p.pattern.num_vertices(),
            p.pattern.num_edges(),
            p.num_occurrences
        );
    }
    Ok(())
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
                    return Err(e.into());
                }
            }
        }
    }
    Ok(completion)
}

fn cmd_mine(args: &Args) -> Result<(), CliError> {
    let graph_path = args.positionals[0];
    let tau: f64 = args.required("--tau")?;
    let (measure, max_edges) = mining_params(args)?;
    let threads = args.get("--threads")?.unwrap_or(1);
    let deadline = args.get("--deadline-ms")?.map(Duration::from_millis);
    let backend = args.get::<EnumeratorBackend>("--backend")?.unwrap_or_default();
    let trace = args.has("--trace");
    let stream = trace || args.has("--stream");
    let bounds = args.has("--bounds");
    let shards = args.get("--shards")?;
    for flag in ["--max-resident", "--partition"] {
        if shards.is_none() && args.has(flag) {
            return Err(CliError::Usage(format!("{flag} requires --shards")));
        }
    }
    let max_resident: Option<usize> = args.get("--max-resident")?;

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
            let strategy = match args.value("--partition") {
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
    say!(
        "{} frequent patterns under {measure} at tau = {tau} ({} maximal), {} candidates evaluated in {:?}",
        result.len(),
        maximal_patterns(&result).len(),
        result.stats.candidates_evaluated,
        result.stats.elapsed
    );
    if let Some(parts) = &partitioned {
        let store = parts.store_stats();
        say!(
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
    say!("status: {}", result.completion());
    print_frequent(&result.patterns)?;
    // A bounds-first run cut short still knows what it was unsure about: one
    // line per open candidate with its certified interval.
    if !result.undecided.is_empty() {
        say!("{} undecided patterns (certified support intervals):", result.undecided.len());
        for u in &result.undecided {
            say!(
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

fn cmd_topk(args: &Args) -> Result<(), CliError> {
    let k: usize = args.required("--k")?;
    let (measure, max_edges) = mining_params(args)?;
    let prepared = ffsm::miner::PreparedGraph::new(load_graph(args.positionals[0])?);
    let result = MiningSession::over(&prepared)
        .measure(measure)
        .min_support(1.0)
        .max_edges(max_edges)
        .top_k(k)
        .run()?;
    say!(
        "top-{k} patterns under {measure} (final threshold {:.1}, {} candidates evaluated)",
        result.final_threshold,
        result.stats.candidates_evaluated
    );
    say!("status: {}", result.completion());
    print_frequent(&result.patterns)?;
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
        say!(
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
            Err(e) => Err(e.into()),
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

fn cmd_update(args: &Args) -> Result<(), CliError> {
    let graph_path = args.positionals[0];
    let updates_path: String = args.required("--updates")?;
    let tau: f64 = args.required("--tau")?;
    let (measure, max_edges) = mining_params(args)?;
    let threads = args.get("--threads")?.unwrap_or(1);
    let cold = args.has("--cold");
    let trace = args.has("--trace");
    let stream = trace || args.has("--stream");
    // Malformed update files are usage errors (exit 1), keeping exit 2 for
    // mining-side failures — the typed parse error still names the line.
    let batches = io::load_updates(Path::new(&updates_path))
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
        say!(
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
        print_frequent(&last.patterns)?;
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

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let mut graphs: Vec<(&str, &str)> = Vec::new();
    for (flag, spec) in &args.flags {
        if *flag == "--graph" {
            let (name, path) = spec.split_once('=').ok_or_else(|| {
                CliError::Usage(format!("--graph expects NAME=PATH, got {spec:?}"))
            })?;
            graphs.push((name, path));
        }
    }
    let listen = args.value("--listen").unwrap_or("127.0.0.1:7878");
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        workers: args.get("--workers")?.unwrap_or(defaults.workers),
        queue_capacity: args.get("--queue")?.unwrap_or(defaults.queue_capacity),
        retain_epochs: args.get("--retain")?.unwrap_or(defaults.retain_epochs),
        default_deadline: args.get("--deadline-ms")?.map(Duration::from_millis),
        ..defaults
    };
    let server = Server::bind(listen, config)?;
    for (name, path) in &graphs {
        server.registry().register(name, load_graph(path)?)?;
    }
    let addr = server.local_addr()?;
    say!(
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
    say!("drained; all sessions flushed");
    Ok(())
}

fn cmd_generate(args: &Args) -> Result<(), CliError> {
    let (kind, out) = (args.positionals[0], args.positionals[1]);
    let seed: u64 = args.get("--seed")?.unwrap_or(42);
    let graph = match kind {
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
    say!(
        "wrote {} ({} vertices, {} edges, {} labels)",
        out,
        graph.num_vertices(),
        graph.num_edges(),
        graph.distinct_labels().len()
    );
    Ok(())
}
