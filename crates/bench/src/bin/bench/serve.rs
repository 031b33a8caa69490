//! `serve` — an in-process `ffsm serve` over loopback TCP, driven by a pool of
//! concurrent clients on a mixed mine/update workload (about 7:1, read-heavy).
//! Latency runs from writing the request line to reading its `done` frame,
//! across the full stack: wire parse, registry checkout, scheduler admission,
//! mining, frame streaming.
//!
//! After the load phase one server mine is replayed against a direct library
//! session over the registry's final snapshot and must match frame for frame
//! (masking only the wall-clock `elapsed_ms`): throughput counts only if the
//! server still returns exactly the library's answers.
//!
//! Gates, conservative so that a loaded CI runner passes: no non-rejection
//! errors, at least one completed request per client, ≥ 10 QPS, and at most
//! half of the offered load rejected.

use ffsm_bench::harness::Run;
use ffsm_core::MeasureKind;
use ffsm_graph::generators;
use ffsm_miner::{MiningEvent, MiningSession};
use ffsm_obs::Histogram;
use ffsm_serve::{events, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const CLIENTS: usize = 8;
const SECONDS: u64 = 4;
const VERTICES: usize = 2_000;
const EDGES: usize = 4_500;
const LABELS: u32 = 6;
const TAU: f64 = 20.0;

/// One client's tally of a load phase.
#[derive(Default)]
struct ClientTally {
    mine_latencies: Vec<Duration>,
    updates: usize,
    rejections: usize,
    errors: usize,
}

/// Run one client loop: serial requests on one connection until `until`.
fn client_loop(addr: SocketAddr, client: usize, until: Instant) -> ClientTally {
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
                "{{\"op\": \"mine\", \"graph\": \"bench\", \"tau\": {TAU}, \"max_edges\": 2, \
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
fn server_mine_frames(addr: SocketAddr) -> (Vec<String>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(
        stream,
        "{{\"op\": \"mine\", \"graph\": \"bench\", \"tau\": {TAU}, \"max_edges\": 2}}"
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

pub fn run(run: &mut Run) {
    let config = ServerConfig { queue_capacity: CLIENTS.max(4), ..ServerConfig::default() };
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    server
        .registry()
        .register("bench", generators::gnm_random(VERTICES, EDGES, LABELS, 11))
        .expect("register bench graph");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run().expect("server run"));

    let started = Instant::now();
    let until = started + Duration::from_secs(SECONDS);
    let workers: Vec<_> = (0..CLIENTS)
        .map(|client| std::thread::spawn(move || client_loop(addr, client, until)))
        .collect();
    let tallies: Vec<ClientTally> =
        workers.into_iter().map(|w| w.join().expect("client")).collect();
    let elapsed = started.elapsed();

    // Percentiles come from the shared observability histogram — the same
    // log2-bucketed estimator the server's `metrics` op reports, so the bench
    // numbers and a live scrape are directly comparable.
    let histogram = Histogram::default();
    for latency in tallies.iter().flat_map(|t| &t.mine_latencies) {
        histogram.record_duration_us(*latency);
    }
    let latency = histogram.snapshot();
    let mines = latency.count as usize;
    let updates: usize = tallies.iter().map(|t| t.updates).sum();
    let rejections: usize = tallies.iter().map(|t| t.rejections).sum();
    let errors: usize = tallies.iter().map(|t| t.errors).sum();
    let completed = mines + updates;
    let offered = completed + rejections + errors;
    let qps = completed as f64 / elapsed.as_secs_f64();
    let rejection_rate = rejections as f64 / offered.max(1) as f64;

    // Fidelity: the loaded server still answers exactly like the library.
    let (server_frames, done) = server_mine_frames(addr);
    let epoch = handle.registry().stats("bench").expect("bench stats").summary.epoch;
    assert!(done.contains(&format!("\"epoch\": {epoch}")), "cross-check mined the final epoch");
    let snapshot = handle.registry().checkout("bench").expect("final snapshot");
    let direct: Vec<String> = MiningSession::over(snapshot.prepared())
        .measure(MeasureKind::Mni)
        .min_support(TAU)
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

    run.record(
        run.entry()
            .str("workload", "mixed_mine_update")
            .raw("clients", CLIENTS)
            .raw("seconds", SECONDS)
            .raw("vertices", VERTICES)
            .raw("edges", EDGES)
            .raw("completed", completed)
            .raw("mines", mines)
            .raw("updates", updates)
            .raw("rejected", rejections)
            .raw("errors", errors)
            .raw("qps", format!("{qps:.2}"))
            .raw("p50_us", latency.quantile(0.50))
            .raw("p99_us", latency.quantile(0.99))
            .raw("rejection_rate", format!("{rejection_rate:.4}")),
    );
    run.gate("no_errors", errors == 0, format!("{errors} non-rejection errors under plain load"));
    run.gate(
        "completed_per_client",
        completed >= CLIENTS,
        format!("only {completed} requests completed across {CLIENTS} clients"),
    );
    run.gate("qps", qps >= 10.0, format!("sustained only {qps:.1} QPS; floor 10"));
    run.gate(
        "rejection_rate",
        rejection_rate <= 0.5,
        format!("rejected {:.1}% of offered load; ceiling 50%", rejection_rate * 100.0),
    );
}
