//! `serve_bench` — the `serve_loopback` workload behind `BENCH_serve.json`.
//!
//! Drives an in-process `ffsm serve` instance over loopback TCP with a pool of
//! concurrent clients issuing a mixed mine/update workload (about 7:1, the
//! read-heavy ratio a serving deployment sees), measuring what a client
//! experiences: request latency from the moment the request line is written to
//! the moment its `done` frame arrives, across the full stack — wire parse,
//! registry checkout, scheduler admission, mining, frame streaming.
//!
//! Reported per run: sustained QPS, mine latency p50/p99, and the admission
//! rejection rate.  After the load phase the bench replays one server mine
//! against a direct library session over the registry's final snapshot and
//! asserts the frames are identical (masking only wall-clock `elapsed_ms`), so
//! the bench doubles as an integration test: throughput numbers are only
//! interesting if the server is still returning exactly the library's answers.
//!
//! The acceptance gate is deliberately conservative (CI machines vary): the
//! run must sustain ≥ 10 QPS, complete at least one request per client, and
//! not reject more than half of the offered load.
//!
//! Usage: `serve_bench [--clients N] [--seconds S] [--vertices N] [--edges M]
//! [--labels L] [--tau T] [--out PATH]` (defaults: 8 clients, 4 seconds,
//! 2000 vertices, 4500 edges, 6 labels, tau 20, `BENCH_serve.json`).

use ffsm_bench::flag_value;
use ffsm_core::MeasureKind;
use ffsm_graph::generators;
use ffsm_miner::{MiningEvent, MiningSession};
use ffsm_obs::Histogram;
use ffsm_serve::events::json_string;
use ffsm_serve::{events, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One client's tally of a load phase.
#[derive(Default)]
struct ClientTally {
    mine_latencies: Vec<Duration>,
    updates: usize,
    rejections: usize,
    errors: usize,
}

/// Run one client loop: serial requests on one connection until `until`.
fn client_loop(addr: SocketAddr, client: usize, tau: f64, until: Instant) -> ClientTally {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut tally = ClientTally::default();
    let mut line = String::new();
    let mut iteration = 0usize;
    while Instant::now() < until {
        iteration += 1;
        // Read-heavy mix: every 8th request commits an update (a fresh vertex —
        // always valid, bumps the epoch, invalidates the prepared cache).
        let is_update = iteration.is_multiple_of(8);
        let request = if is_update {
            format!(
                "{{\"op\": \"update\", \"graph\": \"bench\", \"updates\": \"av {}\", \"id\": {client}}}",
                iteration % 5
            )
        } else {
            format!(
                "{{\"op\": \"mine\", \"graph\": \"bench\", \"tau\": {tau}, \"max_edges\": 2, \
                 \"deadline_ms\": 2000, \"id\": {client}}}"
            )
        };
        let start = Instant::now();
        writeln!(writer, "{request}").expect("send request");
        let done = loop {
            line.clear();
            if reader.read_line(&mut line).expect("read frame") == 0 {
                panic!("server hung up mid-conversation");
            }
            if line.starts_with("{\"event\": \"done\"") {
                break line.trim_end().to_string();
            }
        };
        let latency = start.elapsed();
        if done.contains("\"status\": \"error\"") {
            if done.contains("\"code\": \"overloaded\"") {
                tally.rejections += 1;
            } else {
                tally.errors += 1;
            }
        } else if is_update {
            tally.updates += 1;
        } else {
            tally.mine_latencies.push(latency);
        }
    }
    tally
}

/// One server-side mine, frame for frame (without the `done` terminator).
fn server_mine_frames(addr: SocketAddr, tau: f64) -> (Vec<String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(
        stream,
        "{{\"op\": \"mine\", \"graph\": \"bench\", \"tau\": {tau}, \"max_edges\": 2}}"
    )
    .expect("send");
    stream.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut frames: Vec<String> =
        BufReader::new(stream).lines().map(|l| l.expect("frame")).collect();
    let done = frames.pop().expect("done frame");
    (frames, done)
}

/// Mask the wall-clock field so frames compare deterministically.
fn mask_elapsed(frame: &str) -> String {
    match frame.find("\"elapsed_ms\": ") {
        Some(at) => format!("{}\"elapsed_ms\": _}}", &frame[..at]),
        None => frame.to_string(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let clients: usize = flag_value(&args, "--clients")
        .map(|v| v.parse().expect("--clients expects a number"))
        .unwrap_or(8);
    let seconds: u64 = flag_value(&args, "--seconds")
        .map(|v| v.parse().expect("--seconds expects a number"))
        .unwrap_or(4);
    let vertices: usize = flag_value(&args, "--vertices")
        .map(|v| v.parse().expect("--vertices expects a number"))
        .unwrap_or(2_000);
    let edges: usize = flag_value(&args, "--edges")
        .map(|v| v.parse().expect("--edges expects a number"))
        .unwrap_or(4_500);
    let labels: u32 = flag_value(&args, "--labels")
        .map(|v| v.parse().expect("--labels expects a number"))
        .unwrap_or(6);
    let tau: f64 = flag_value(&args, "--tau")
        .map(|v| v.parse().expect("--tau expects a number"))
        .unwrap_or(20.0);
    let out_path = flag_value(&args, "--out").unwrap_or("BENCH_serve.json").to_string();

    let config = ServerConfig { queue_capacity: clients.max(4), ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    server
        .registry()
        .register("bench", generators::gnm_random(vertices, edges, labels, 11))
        .expect("register bench graph");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    println!(
        "serve_loopback: {clients} clients x {seconds}s against {vertices}v/{edges}e/{labels}l \
         at tau {tau} on {addr}"
    );
    let started = Instant::now();
    let until = started + Duration::from_secs(seconds);
    let workers: Vec<_> = (0..clients)
        .map(|client| std::thread::spawn(move || client_loop(addr, client, tau, until)))
        .collect();
    let tallies: Vec<ClientTally> =
        workers.into_iter().map(|w| w.join().expect("client")).collect();
    let elapsed = started.elapsed();

    // Percentiles come from the shared observability histogram — the same
    // log2-bucketed estimator the server's `metrics` op reports, so the bench
    // numbers and a live scrape are directly comparable.
    let histogram = Histogram::default();
    for tally in &tallies {
        for latency in &tally.mine_latencies {
            histogram.record_duration_us(*latency);
        }
    }
    let latency = histogram.snapshot();
    let mines = latency.count as usize;
    let updates: usize = tallies.iter().map(|t| t.updates).sum();
    let rejections: usize = tallies.iter().map(|t| t.rejections).sum();
    let errors: usize = tallies.iter().map(|t| t.errors).sum();
    let offered = mines + updates + rejections + errors;
    let completed = mines + updates;
    let qps = completed as f64 / elapsed.as_secs_f64();
    let rejection_rate = rejections as f64 / (offered.max(1)) as f64;
    let p50 = Duration::from_micros(latency.quantile(0.50));
    let p99 = Duration::from_micros(latency.quantile(0.99));

    // Fidelity gate: the loaded server still answers exactly like the library.
    let (server_frames, done) = server_mine_frames(addr, tau);
    let epoch = handle.registry().stats("bench").expect("bench stats").summary.epoch;
    assert!(done.contains(&format!("\"epoch\": {epoch}")), "cross-check mined the final epoch");
    let snapshot = handle.registry().checkout("bench").expect("final snapshot");
    let direct: Vec<String> = MiningSession::over(snapshot.prepared())
        .measure(MeasureKind::Mni)
        .min_support(tau)
        .max_edges(2)
        .stream()
        .expect("direct stream")
        .map(|event| match event.expect("direct event") {
            MiningEvent::Pattern(p) => events::pattern_frame(&p, None).finish(),
            MiningEvent::Undecided(u) => events::undecided_frame(&u).finish(),
            MiningEvent::LevelCompleted(level) => events::level_frame(&level).finish(),
            MiningEvent::Finished(summary) => events::finished_frame(&summary).finish(),
        })
        .map(|f| mask_elapsed(&f))
        .collect();
    let masked: Vec<String> = server_frames.iter().map(|f| mask_elapsed(f)).collect();
    assert_eq!(masked, direct, "server mine diverged from the direct library session");

    handle.shutdown();
    server_thread.join().expect("server drains");

    println!(
        "completed {completed} requests ({mines} mines, {updates} updates) in {elapsed:?} — \
         {qps:.1} QPS, mine p50 {p50:?}, p99 {p99:?}, {rejections} rejected \
         ({:.1}% of offered), {errors} errors",
        rejection_rate * 100.0
    );

    let json = format!(
        "{{\n  \"bench\": \"serve_loopback\",\n  \"workloads\": [{}],\n  \"entries\": [\n    \
         {{\"workload\": {}, \"clients\": {clients}, \"seconds\": {seconds}, \
         \"vertices\": {vertices}, \"edges\": {edges}, \"completed\": {completed}, \
         \"mines\": {mines}, \"updates\": {updates}, \"rejected\": {rejections}, \
         \"errors\": {errors}, \"qps\": {qps:.2}, \"p50_us\": {}, \"p99_us\": {}, \
         \"rejection_rate\": {rejection_rate:.4}}}\n  ]\n}}\n",
        json_string("mixed_mine_update"),
        json_string("mixed_mine_update"),
        p50.as_micros(),
        p99.as_micros(),
    );
    std::fs::write(&out_path, json).expect("write perf report");
    println!("wrote {out_path}");

    // Acceptance gate — conservative floors that hold on a loaded CI runner
    // but still catch a serving-path collapse.
    assert_eq!(errors, 0, "non-rejection errors under plain load");
    assert!(completed >= clients, "only {completed} requests completed across {clients} clients");
    assert!(qps >= 10.0, "sustained only {qps:.1} QPS — serving throughput collapsed");
    assert!(
        rejection_rate <= 0.5,
        "rejected {:.1}% of offered load with a queue sized to the client count",
        rejection_rate * 100.0
    );
}
