//! A partition is just another `MiningSession` source, alongside
//! `shard_differential.rs` (which pins batch results bit for bit):
//!
//! * **streaming** — `MiningSession::over(&partitioned).stream()` emits the
//!   whole-graph stream's pattern sequence, and its `into_result` equals
//!   `run()`;
//! * **bounds-first** — certified intervals over a spilled partition (label
//!   counts in place of the whole graph's index) decide the same pattern set
//!   as exact mining, and every interval contains the exact support;
//! * **typed failures** — a spill file lost mid-run ends the stream with one
//!   `Err(FfsmError::Partition)` item, a corrupt or truncated spill file makes
//!   `run()` return one (never a panic), and `run_delta` over a partition is an
//!   `InvalidConfig`;
//! * **one CLI path** — `ffsm mine --shards` streams the unsharded frames and
//!   takes `--trace`/`--bounds`; `--partition` needs `--shards`.

use ffsm::core::{FfsmError, MeasureKind};
use ffsm::graph::canonical::canonical_code;
use ffsm::graph::{generators, io, GraphUpdate, Label, LabeledGraph};
use ffsm::miner::{FrequentPattern, MiningEvent, MiningResult, MiningSession, PreparedGraph};
use ffsm::shard::{PartitionSpec, PartitionedGraph};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;

/// Everything observable about a mined pattern, supports by bit pattern.
type PatternFingerprint = (Vec<u64>, u64, usize);

fn fingerprint(p: &FrequentPattern) -> PatternFingerprint {
    (canonical_code(&p.pattern).as_slice().to_vec(), p.support.to_bits(), p.num_occurrences)
}

fn fingerprints(result: &MiningResult) -> Vec<PatternFingerprint> {
    result.patterns.iter().map(fingerprint).collect()
}

fn graph() -> LabeledGraph {
    generators::community_graph(4, 14, 0.25, 0.02, 3, 19)
}

fn partition(graph: &LabeledGraph, shards: usize) -> Arc<PartitionedGraph> {
    Arc::new(PartitionedGraph::build(graph, PartitionSpec::vertex_range(shards, 2)).unwrap())
}

/// A per-test spill directory, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir()
            .join(format!("ffsm-partitioned-session-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The pattern events of a stream, in order, after checking that it ends
/// with exactly one `Finished`.
fn streamed_patterns(session: MiningSession) -> Vec<PatternFingerprint> {
    let mut patterns = Vec::new();
    let mut finished = 0;
    for event in session.stream().expect("valid session") {
        match event.expect("in-memory and spilled shards load") {
            MiningEvent::Pattern(p) => patterns.push(fingerprint(&p)),
            MiningEvent::Finished(_) => finished += 1,
            MiningEvent::LevelCompleted(_) | MiningEvent::Undecided(_) => {}
        }
    }
    assert_eq!(finished, 1, "a stream ends with exactly one Finished");
    patterns
}

#[test]
fn partitioned_stream_matches_the_whole_graph_stream() {
    let graph = graph();
    let prepared = PreparedGraph::new(graph.clone());
    let configure = |session: MiningSession| session.min_support(3.0).max_edges(2).threads(2);
    let whole = streamed_patterns(configure(MiningSession::over(&prepared)));
    assert!(!whole.is_empty());
    for shards in [1usize, 3] {
        let parts = partition(&graph, shards);
        assert_eq!(
            streamed_patterns(configure(MiningSession::over(&parts))),
            whole,
            "{shards} shards: pattern events"
        );
        let via_stream = configure(MiningSession::over(&parts))
            .stream()
            .expect("valid session")
            .into_result()
            .expect("resident shards load");
        let batch = configure(MiningSession::over(&parts)).run().expect("resident shards load");
        assert_eq!(fingerprints(&via_stream), fingerprints(&batch), "{shards} shards");
        assert_eq!(via_stream.completion(), batch.completion());
        assert_eq!(via_stream.stats.candidates_evaluated, batch.stats.candidates_evaluated);
        assert_eq!(
            via_stream.stats.counters.cross_shard_occurrences,
            batch.stats.counters.cross_shard_occurrences
        );
    }
}

#[test]
fn bounds_first_over_a_spilled_partition_matches_exact_mining() {
    let graph = graph();
    let prepared = PreparedGraph::new(graph.clone());
    for (measure, tau) in [(MeasureKind::Mni, 4.0), (MeasureKind::Mis, 3.0)] {
        let exact = MiningSession::over(&prepared)
            .measure(measure)
            .min_support(tau)
            .max_edges(2)
            .run()
            .expect("exact mine");
        let exact_support: BTreeMap<Vec<u64>, f64> = exact
            .patterns
            .iter()
            .map(|p| (canonical_code(&p.pattern).as_slice().to_vec(), p.support))
            .collect();
        assert!(!exact_support.is_empty(), "{measure}: nothing frequent");

        let parts = partition(&graph, 3);
        let dir = TempDir::new(&format!("bounds-{measure}"));
        parts.spill_to_disk(&dir.0, 1).expect("spill");
        let bounded = MiningSession::over(&parts)
            .measure(measure)
            .min_support(tau)
            .max_edges(2)
            .bounds_first(true)
            .run()
            .expect("spilled shards reload");
        let codes: Vec<Vec<u64>> = bounded
            .patterns
            .iter()
            .map(|p| canonical_code(&p.pattern).as_slice().to_vec())
            .collect();
        assert_eq!(
            codes.iter().cloned().collect::<std::collections::BTreeSet<_>>(),
            exact_support.keys().cloned().collect(),
            "{measure}: bounds-first pattern set"
        );
        assert_eq!(codes.len(), exact_support.len(), "{measure}: duplicate patterns");
        for (p, code) in bounded.patterns.iter().zip(&codes) {
            let interval = p.support_interval.expect("bounds-first patterns carry intervals");
            let truth = exact_support[code];
            assert!(
                interval.lo <= truth && truth <= interval.hi,
                "{measure}: [{}, {}] misses exact support {truth}",
                interval.lo,
                interval.hi
            );
            assert!(interval.lo >= tau, "{measure}: accepted below tau");
        }
        assert!(bounded.stats.counters.evaluations_bounded > 0, "{measure}: bounds never ran");
        if measure == MeasureKind::Mis {
            assert!(bounded.stats.counters.bound_decided > 0, "MIS: no bound decided anything");
        }
        assert!(parts.store_stats().loads > 0, "{measure}: the store never reloaded a shard");
    }
}

#[test]
fn a_spill_file_lost_mid_run_ends_the_stream_with_one_error() {
    let graph = graph();
    let parts = partition(&graph, 3);
    let dir = TempDir::new("lost");
    parts.spill_to_disk(&dir.0, 1).expect("spill");
    let mut stream =
        MiningSession::over(&parts).min_support(3.0).max_edges(2).stream().expect("valid session");
    // Level 1 loads every shard and completes normally.
    loop {
        match stream.next().expect("level 1 completes").expect("spill files intact") {
            MiningEvent::LevelCompleted(_) => break,
            MiningEvent::Finished(_) => panic!("level 1 must leave candidates for level 2"),
            MiningEvent::Pattern(_) | MiningEvent::Undecided(_) => {}
        }
    }
    // Only one shard stays resident, so level 2 must reload a deleted file.
    std::fs::remove_dir_all(&dir.0).expect("delete the spill files");
    match stream.next() {
        Some(Err(FfsmError::Partition(_))) => {}
        other => panic!("expected one Partition error, got {other:?}"),
    }
    assert!(stream.next().is_none(), "the error ends the stream");
    assert!(stream.completion().is_none(), "a failed run has no completion");
    assert!(matches!(stream.into_result(), Err(FfsmError::Partition(_))));
}

/// Run a 2-shard partition, spilled to `dir` with one shard resident, after
/// `edit` rewrote every spill file, at 1 and 2 threads: each run must return
/// `Err(FfsmError::Partition)`.
fn assert_corrupt_spill_is_rejected(dir: &str, what: &str, edit: &dyn Fn(&str) -> String) {
    let graph = graph();
    let dir = TempDir::new(dir);
    for threads in [1, 2] {
        let parts = partition(&graph, 2);
        let _ = std::fs::remove_dir_all(&dir.0);
        parts.spill_to_disk(&dir.0, 1).expect("spill");
        for entry in std::fs::read_dir(&dir.0).expect("spill directory") {
            let file = entry.expect("spill file").path();
            let valid = std::fs::read_to_string(&file).expect("read spill file");
            std::fs::write(&file, edit(&valid)).expect("rewrite spill file");
        }
        let result =
            MiningSession::over(&parts).min_support(3.0).max_edges(2).threads(threads).run();
        assert!(
            matches!(result, Err(FfsmError::Partition(_))),
            "{what}, {threads} threads: {:?}",
            result.map(|r| r.patterns.len())
        );
    }
}

/// Replace the first `v <label> <global>` record of a spill file by `record`
/// applied to its label and global id.
fn edit_first_vertex(valid: &str, record: impl Fn(u64, u64) -> String) -> String {
    let mut done = false;
    let lines = valid.lines().map(|line| match line.split(' ').collect::<Vec<_>>()[..] {
        ["v", label, global] if !done => {
            done = true;
            record(label.parse().unwrap(), global.parse().unwrap())
        }
        _ => line.to_string(),
    });
    lines.collect::<Vec<_>>().join("\n")
}

#[test]
fn corrupt_spill_files_are_typed_errors() {
    assert_corrupt_spill_is_rejected("corrupt", "oversized header", &|valid| {
        let body = valid.lines().skip(1).collect::<Vec<_>>().join("\n");
        format!("s 18446744073709551615 0\n{body}")
    });
    assert_corrupt_spill_is_rejected("corrupt", "global id out of range", &|valid| {
        edit_first_vertex(valid, |label, _| format!("v {label} 4000000000"))
    });
    assert_corrupt_spill_is_rejected("corrupt", "vertex before the header", &|valid| {
        format!("v 0 0\n{valid}")
    });
    assert_corrupt_spill_is_rejected("corrupt", "label above u32::MAX", &|valid| {
        edit_first_vertex(valid, |label, global| format!("v {} {global}", label + (1 << 32)))
    });
    assert_corrupt_spill_is_rejected("corrupt", "global id above u32::MAX", &|valid| {
        edit_first_vertex(valid, |label, global| format!("v {label} {}", global + (1 << 32)))
    });
}

#[test]
fn truncated_spill_files_are_typed_errors() {
    let graph = graph();
    let parts = partition(&graph, 2);
    let longest = (0..2)
        .map(|i| {
            let shard = parts.shard(i).unwrap();
            1 + shard.graph().num_vertices() + shard.graph().num_edges()
        })
        .max()
        .unwrap();
    // Every proper prefix of each file, cut after a whole line.
    for keep in 0..longest {
        assert_corrupt_spill_is_rejected("truncated", &format!("first {keep} lines"), &|valid| {
            let lines: Vec<&str> = valid.lines().collect();
            let cut = keep.min(lines.len() - 1);
            lines[..cut].iter().map(|line| format!("{line}\n")).collect()
        });
    }
}

#[test]
fn run_delta_over_a_partition_is_invalid_config() {
    let graph = graph();
    let prepared = PreparedGraph::new(graph.clone());
    let (_, cache) = MiningSession::over(&prepared).max_edges(2).run_recorded().unwrap();
    let (next, delta) = prepared.apply_updates(&[GraphUpdate::AddVertex(Label(0))]).unwrap();
    let parts = partition(next.graph(), 3);
    let err = MiningSession::over(&parts).max_edges(2).run_delta(cache, &delta).unwrap_err();
    assert!(matches!(err, FfsmError::InvalidConfig(_)), "{err:?}");
}

fn ffsm(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ffsm")).args(args).output().expect("run ffsm")
}

/// The stdout lines of `ffsm mine` that are `pattern` frames.
fn pattern_frames(output: &std::process::Output) -> Vec<String> {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter(|line| line.starts_with("{\"event\": \"pattern\""))
        .map(str::to_string)
        .collect()
}

fn spill_dir_of(pid: u32) -> PathBuf {
    std::env::temp_dir().join(format!("ffsm-shards-{pid}"))
}

#[test]
fn cli_mines_a_partition_through_the_one_session_path() {
    let dir = TempDir::new("cli");
    std::fs::create_dir_all(&dir.0).unwrap();
    let path = dir.0.join("g.lg");
    io::save_lg(&graph(), &path).unwrap();
    let g = path.to_str().unwrap();
    let mine = ["mine", g, "--tau", "3", "--max-edges", "2"];
    let with =
        |extra: &[&'static str]| -> Vec<&str> { mine.iter().chain(extra).copied().collect() };

    let whole = ffsm(&with(&["--stream"]));
    assert!(whole.status.success(), "{}", String::from_utf8_lossy(&whole.stderr));
    let sharded = ffsm(&with(&["--stream", "--shards", "3", "--max-resident", "1"]));
    assert!(sharded.status.success(), "{}", String::from_utf8_lossy(&sharded.stderr));
    assert!(!pattern_frames(&whole).is_empty());
    assert_eq!(pattern_frames(&sharded), pattern_frames(&whole), "pattern frames");

    // --trace and --bounds compose with --shards like with a whole graph.
    let traced = ffsm(&with(&["--trace", "--bounds", "--shards", "3", "--max-resident", "1"]));
    assert!(traced.status.success(), "{}", String::from_utf8_lossy(&traced.stderr));
    let stdout = String::from_utf8_lossy(&traced.stdout);
    assert!(stdout.lines().any(|l| l.starts_with("{\"event\": \"trace\"")), "no trace frame");
    assert!(stdout.contains("\"support_lo\""), "no certified interval");
    assert_eq!(pattern_frames(&traced).len(), pattern_frames(&whole).len());

    // A batch run removes its spill directory on the way out.
    let child = Command::new(env!("CARGO_BIN_EXE_ffsm"))
        .args(with(&["--shards", "3", "--max-resident", "1"]))
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn ffsm");
    let pid = child.id();
    assert!(child.wait_with_output().unwrap().status.success());
    assert!(!Path::new(&spill_dir_of(pid)).exists(), "spill directory left behind");

    // --partition, like --max-resident, needs --shards.
    let usage = ffsm(&with(&["--partition", "label-aware"]));
    assert_eq!(usage.status.code(), Some(1), "{}", String::from_utf8_lossy(&usage.stderr));
    let usage = ffsm(&with(&["--max-resident", "1"]));
    assert_eq!(usage.status.code(), Some(1));
}
