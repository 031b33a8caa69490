//! `obs_bench` — the observability overhead gate behind `BENCH_obs.json`.
//!
//! The observability layer's hard contract is that it is (a) free when off and
//! (b) nearly free when on: counters are plain `u64` adds on thread-owned
//! arenas in both arms, and enabling `metrics` only adds the fine-grained
//! phase-timing clock reads (a few `Instant::now` pairs per candidate).  This
//! bench measures that contract on two workloads:
//!
//! * **dense_community_mine** — the matcher-pathology mining workload
//!   (`workloads::dense_community_workload`), mined with session metrics off vs
//!   on.  The arms run interleaved, min-of-K, so machine noise hits both
//!   equally; the bench also cross-checks that both arms report the same
//!   pattern count and search-step counter (the bit-for-bit identity proper
//!   lives in `tests/obs_differential.rs`).
//! * **serve_loopback** — a serial client driving mine requests against an
//!   in-process server with `session_metrics` off vs on, measuring end-to-end
//!   request wall time across the full stack.
//!
//! Acceptance gate: on both workloads the metrics-on arm must stay within 3%
//! of the metrics-off arm (plus a small absolute slack so micro-runs on noisy
//! CI machines cannot flake a sub-millisecond delta into a failure).
//!
//! Usage: `obs_bench [--community-size N] [--tau T] [--max-edges N]
//! [--rounds K] [--requests N] [--out PATH]` (defaults: community size 40,
//! tau 8, max-edges 2, 5 rounds, 20 requests, `BENCH_obs.json`).

use ffsm_bench::{flag_value, workloads};
use ffsm_core::MeasureKind;
use ffsm_graph::LabeledGraph;
use ffsm_miner::{MiningSession, PreparedGraph};
use ffsm_serve::events::json_string;
use ffsm_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One timed mining run; returns wall time plus the invariants the two arms
/// must agree on (pattern count, total search steps).
fn mine_once(
    prepared: &PreparedGraph,
    tau: f64,
    max_edges: usize,
    metrics: bool,
) -> (Duration, usize, u64) {
    let start = Instant::now();
    let result = MiningSession::over(prepared)
        .measure(MeasureKind::Mni)
        .min_support(tau)
        .max_edges(max_edges)
        .metrics(metrics)
        .run()
        .expect("mine");
    (start.elapsed(), result.len(), result.stats.counters.search.steps)
}

/// One serve round: fresh server, one serial client, `requests` mine requests
/// after a warm-up request that pays the prepared-index build.  Returns the
/// wall time of the timed requests.
fn serve_round(graph: &LabeledGraph, session_metrics: bool, requests: usize, tau: f64) -> Duration {
    let config = ServerConfig { session_metrics, ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    server.registry().register("bench", graph.clone()).expect("register bench graph");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut run_request = |writer: &mut TcpStream, reader: &mut BufReader<TcpStream>| {
        writeln!(
            writer,
            "{{\"op\": \"mine\", \"graph\": \"bench\", \"tau\": {tau}, \"max_edges\": 2}}"
        )
        .expect("send request");
        loop {
            line.clear();
            if reader.read_line(&mut line).expect("read frame") == 0 {
                panic!("server hung up mid-conversation");
            }
            if line.starts_with("{\"event\": \"done\"") {
                assert!(line.contains("\"status\": \"complete\""), "mine failed: {line}");
                break;
            }
        }
    };
    run_request(&mut writer, &mut reader); // warm-up: builds the prepared index
    let start = Instant::now();
    for _ in 0..requests {
        run_request(&mut writer, &mut reader);
    }
    let elapsed = start.elapsed();
    handle.shutdown();
    server_thread.join().expect("server drains");
    elapsed
}

/// The gate: `on` within 3% of `off`, with `slack` of absolute headroom so a
/// noisy micro-delta cannot flake the build.
fn assert_overhead(workload: &str, off: Duration, on: Duration, slack: Duration) {
    let budget = Duration::from_nanos((off.as_nanos() as u64) * 3 / 100).max(slack);
    let overhead = on.saturating_sub(off);
    assert!(
        overhead <= budget,
        "{workload}: metrics-on {on:?} exceeds metrics-off {off:?} by {overhead:?} \
         (budget {budget:?}) — the observability layer is no longer ~free"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let community_size: usize = flag_value(&args, "--community-size")
        .map(|v| v.parse().expect("--community-size expects a number"))
        .unwrap_or(40);
    let tau: f64 = flag_value(&args, "--tau")
        .map(|v| v.parse().expect("--tau expects a number"))
        .unwrap_or(8.0);
    let max_edges: usize = flag_value(&args, "--max-edges")
        .map(|v| v.parse().expect("--max-edges expects a number"))
        .unwrap_or(2);
    let rounds: usize = flag_value(&args, "--rounds")
        .map(|v| v.parse().expect("--rounds expects a number"))
        .unwrap_or(5);
    let requests: usize = flag_value(&args, "--requests")
        .map(|v| v.parse().expect("--requests expects a number"))
        .unwrap_or(20);
    let out_path = flag_value(&args, "--out").unwrap_or("BENCH_obs.json").to_string();

    // Workload 1: dense-community mining, metrics off vs on, interleaved.
    let (graph, _) = workloads::dense_community_workload(community_size);
    let prepared = PreparedGraph::new(graph);
    let (_, warm_patterns, warm_steps) = mine_once(&prepared, tau, max_edges, false);
    let mut mine_off = Duration::MAX;
    let mut mine_on = Duration::MAX;
    for _ in 0..rounds {
        let (off, off_patterns, off_steps) = mine_once(&prepared, tau, max_edges, false);
        let (on, on_patterns, on_steps) = mine_once(&prepared, tau, max_edges, true);
        assert_eq!((off_patterns, off_steps), (warm_patterns, warm_steps), "metrics-off drifted");
        assert_eq!((on_patterns, on_steps), (warm_patterns, warm_steps), "metrics-on diverged");
        mine_off = mine_off.min(off);
        mine_on = mine_on.min(on);
    }
    println!(
        "dense_community_mine (size {community_size}, tau {tau}, {warm_patterns} patterns, \
         {warm_steps} steps): metrics-off {mine_off:?}, metrics-on {mine_on:?}"
    );

    // Workload 2: loopback serving, per-session metrics off vs on, interleaved.
    let serve_graph = ffsm_graph::generators::gnm_random(800, 1_800, 6, 11);
    let serve_rounds = rounds.div_ceil(2);
    let mut serve_off = Duration::MAX;
    let mut serve_on = Duration::MAX;
    for _ in 0..serve_rounds {
        serve_off = serve_off.min(serve_round(&serve_graph, false, requests, 20.0));
        serve_on = serve_on.min(serve_round(&serve_graph, true, requests, 20.0));
    }
    println!(
        "serve_loopback ({requests} requests x {serve_rounds} rounds): \
         metrics-off {serve_off:?}, metrics-on {serve_on:?}"
    );

    let ratio = |on: Duration, off: Duration| on.as_secs_f64() / off.as_secs_f64().max(1e-9);
    let json = format!(
        "{{\n  \"bench\": \"obs_overhead\",\n  \"workloads\": [{}, {}],\n  \"entries\": [\n    \
         {{\"workload\": {}, \"community_size\": {community_size}, \"tau\": {tau}, \
         \"patterns\": {warm_patterns}, \"steps\": {warm_steps}, \
         \"metrics_off_us\": {}, \"metrics_on_us\": {}, \"overhead_ratio\": {:.4}}},\n    \
         {{\"workload\": {}, \"requests\": {requests}, \
         \"metrics_off_us\": {}, \"metrics_on_us\": {}, \"overhead_ratio\": {:.4}}}\n  ]\n}}\n",
        json_string("dense_community_mine"),
        json_string("serve_loopback"),
        json_string("dense_community_mine"),
        mine_off.as_micros(),
        mine_on.as_micros(),
        ratio(mine_on, mine_off),
        json_string("serve_loopback"),
        serve_off.as_micros(),
        serve_on.as_micros(),
        ratio(serve_on, serve_off),
    );
    std::fs::write(&out_path, json).expect("write perf report");
    println!("wrote {out_path}");

    // Acceptance gates: the ≤3% overhead contract, with absolute slack scaled
    // to each workload's noise floor (single-run mining vs a TCP round-trip
    // batch).
    assert_overhead("dense_community_mine", mine_off, mine_on, Duration::from_millis(2));
    assert_overhead("serve_loopback", serve_off, serve_on, Duration::from_millis(10));
}
