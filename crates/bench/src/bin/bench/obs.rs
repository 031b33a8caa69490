//! `obs` — the observability layer's contract: free when off and nearly free
//! when on (counters are plain `u64` adds on thread-owned arenas in both arms;
//! enabling metrics only adds the phase-timing clock reads).  Two workloads,
//! metrics off vs on, timed as interleaved min-of-K arms:
//!
//! * **dense_community_mine** — the matcher-pathology mining workload; both arms
//!   must report the same pattern count and search-step counter (bit-for-bit
//!   identity proper lives in `tests/obs_differential.rs`);
//! * **serve_loopback** — one serial client driving mine requests against an
//!   in-process server with `session_metrics` off vs on.
//!
//! Gate: on both workloads the metrics-on arm stays within 3% of the metrics-off
//! arm, with 2 ms (mining) / 10 ms (serving) of absolute slack for noise.

use ffsm_bench::harness::{min_of_k, Run};
use ffsm_bench::workloads;
use ffsm_core::MeasureKind;
use ffsm_graph::{generators, LabeledGraph};
use ffsm_miner::{MiningSession, PreparedGraph};
use ffsm_serve::{Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::Duration;

const COMMUNITY_SIZE: usize = 40;
const TAU: f64 = 8.0;
const MAX_EDGES: usize = 2;
const ROUNDS: usize = 5;
const SERVE_ROUNDS: usize = 3;
const REQUESTS: usize = 20;

/// One mining run; returns the invariants both arms must agree on (pattern
/// count, total search steps).
fn mine_once(prepared: &PreparedGraph, metrics: bool) -> (usize, u64) {
    let result = MiningSession::over(prepared)
        .measure(MeasureKind::Mni)
        .min_support(TAU)
        .max_edges(MAX_EDGES)
        .metrics(metrics)
        .run()
        .expect("mine");
    (result.len(), result.stats.counters.search.steps)
}

/// An in-process server and one serial client connection to it.
struct Loopback {
    handle: ServerHandle,
    thread: JoinHandle<()>,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Loopback {
    /// Start a server over `graph` and send one warm-up request, which pays the
    /// prepared-index build outside the timed rounds.
    fn start(graph: &LabeledGraph, session_metrics: bool) -> Loopback {
        let config = ServerConfig { session_metrics, ..ServerConfig::default() };
        let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
        server.registry().register("bench", graph.clone()).expect("register bench graph");
        let addr = server.local_addr().expect("local addr");
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run().expect("server run"));
        let stream = TcpStream::connect(addr).expect("connect");
        let writer = stream.try_clone().expect("clone");
        let mut loopback = Loopback { handle, thread, writer, reader: BufReader::new(stream) };
        loopback.mine();
        loopback
    }

    /// One mine request, read through its `done` frame.
    fn mine(&mut self) {
        writeln!(
            self.writer,
            "{{\"op\": \"mine\", \"graph\": \"bench\", \"tau\": 20, \"max_edges\": 2}}"
        )
        .expect("send request");
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line).expect("read frame") == 0 {
                panic!("server hung up mid-conversation");
            }
            if line.starts_with("{\"event\": \"done\"") {
                assert!(line.contains("\"status\": \"complete\""), "mine failed: {line}");
                return;
            }
        }
    }

    fn stop(self) {
        self.handle.shutdown();
        self.thread.join().expect("server drains");
    }
}

/// The gate: `on` within 3% of `off`, or within `slack` of it.
fn overhead_gate(run: &mut Run, workload: &str, off: Duration, on: Duration, slack: Duration) {
    let budget = Duration::from_nanos((off.as_nanos() as u64) * 3 / 100).max(slack);
    let overhead = on.saturating_sub(off);
    run.gate(
        &format!("overhead_{workload}"),
        overhead <= budget,
        format!(
            "metrics-on {on:?} exceeds metrics-off {off:?} by {overhead:?} (budget {budget:?})"
        ),
    );
}

pub fn run(run: &mut Run) {
    let ratio = |on: Duration, off: Duration| on.as_secs_f64() / off.as_secs_f64().max(1e-9);

    let (graph, _) = workloads::dense_community_workload(COMMUNITY_SIZE);
    let prepared = &PreparedGraph::new(graph);
    let (patterns, steps) = mine_once(prepared, false);
    let arm = |metrics: bool| {
        move || assert_eq!(mine_once(prepared, metrics), (patterns, steps), "arms diverged")
    };
    let timings = min_of_k(ROUNDS, &mut [&mut arm(false), &mut arm(true)]);
    let (mine_off, mine_on) = (timings[0].0, timings[1].0);
    run.record(
        run.entry()
            .str("workload", "dense_community_mine")
            .raw("community_size", COMMUNITY_SIZE)
            .raw("tau", TAU)
            .raw("patterns", patterns)
            .raw("steps", steps)
            .raw("metrics_off_us", mine_off.as_micros())
            .raw("metrics_on_us", mine_on.as_micros())
            .raw("overhead_ratio", format!("{:.4}", ratio(mine_on, mine_off))),
    );
    overhead_gate(run, "dense_community_mine", mine_off, mine_on, Duration::from_millis(2));

    let serve_graph = generators::gnm_random(800, 1_800, 6, 11);
    let mut off = Loopback::start(&serve_graph, false);
    let mut on = Loopback::start(&serve_graph, true);
    let timings = min_of_k(
        SERVE_ROUNDS,
        &mut [&mut || (0..REQUESTS).for_each(|_| off.mine()), &mut || {
            (0..REQUESTS).for_each(|_| on.mine())
        }],
    );
    let (serve_off, serve_on) = (timings[0].0, timings[1].0);
    off.stop();
    on.stop();
    run.record(
        run.entry()
            .str("workload", "serve_loopback")
            .raw("requests", REQUESTS)
            .raw("metrics_off_us", serve_off.as_micros())
            .raw("metrics_on_us", serve_on.as_micros())
            .raw("overhead_ratio", format!("{:.4}", ratio(serve_on, serve_off))),
    );
    overhead_gate(run, "serve_loopback", serve_off, serve_on, Duration::from_millis(10));
}
