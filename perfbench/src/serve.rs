//! `serve_mixed`: a hub-heavy graph served over loopback TCP, reads beside
//! writes.
//!
//! Request `i` of the schedule is a short mine, a deep mine or an update by
//! `i % 8` (6 : 1 : 1).  Deep mines go out on connection 1, everything else on
//! connection 0, so every update travels on one connection and the `ae`/`re`
//! alternation on one fixed vertex pair can never be reordered.  Even epochs
//! therefore hold the generated graph and odd epochs the graph plus that edge,
//! and every mine is checked against the library transcript for its epoch's
//! parity.
//!
//! Two phases share the connections: an open loop of seeded Poisson arrivals
//! at a fixed offered rate (latency counts from each request's due time, so a
//! stall also charges the requests queued behind it), then a closed loop that
//! measures capacity.

use crate::stats::{self, Metric, Samples, Tracer};
use crate::Args;
use ffsm_graph::datasets::social_like;
use ffsm_graph::transform::shuffle_vertices;
use ffsm_graph::{LabeledGraph, VertexId};
use ffsm_miner::{MiningEvent, MiningSession};
use ffsm_serve::events::{finished_frame, level_frame, pattern_frame, undecided_frame, Frame};
use ffsm_serve::protocol::{parse_request, Request};
use ffsm_serve::{GraphRegistry, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Offered rate of the open loop, about a third of the closed-loop capacity
/// (28 req/s) measured on a 2-core x86-64 machine.
const OFFERED_RPS: f64 = 9.0;
/// Share of `--seconds` given to the open loop; the closed loop gets the rest.
const OPEN_SHARE: f64 = 0.75;
const SHORT_MAX_EDGES: usize = 2;
const DEEP_MAX_EDGES: usize = 3;
const TAU: f64 = 40.0;
/// At τ = 40 a 3-edge mine takes about a second here, and one in 8 requests
/// would keep its connection busy; τ = 80 keeps it near 120 ms.
const DEEP_TAU: f64 = 80.0;
/// Hub degrees of the preferential-attachment generator, and with them the
/// cost of every mine, vary about 3x between generator seeds, so `--seed`
/// shuffles the vertex ids of one fixed graph and drives the arrivals.
const GRAPH_SEED: u64 = 7;
/// How long set-up is repeated, once before the loops and once after.  Each
/// span covers a few of the host's second-long swings in CPU speed.
const SET_UP_SPAN: Duration = Duration::from_secs(2);
/// Requests the traced replay walks: the first two blocks of the schedule.
const REPLAY_REQUESTS: usize = 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Short,
    Deep,
    Update,
}

fn kind(i: usize) -> Kind {
    match i % 8 {
        4 => Kind::Deep,
        7 => Kind::Update,
        _ => Kind::Short,
    }
}

/// The request line of schedule position `i`; `update` counts the updates
/// issued before it, which picks `ae` or `re`.
fn request_line(i: usize, update: usize, pair: (VertexId, VertexId)) -> String {
    match kind(i) {
        Kind::Update => {
            let op = if update.is_multiple_of(2) { "ae" } else { "re" };
            format!(
                "{{\"op\": \"update\", \"graph\": \"g\", \"updates\": \"{op} {} {}\", \"id\": {i}}}",
                pair.0, pair.1
            )
        }
        k => {
            let (tau, max_edges) = mine_params(k == Kind::Deep);
            format!(
                "{{\"op\": \"mine\", \"graph\": \"g\", \"tau\": {tau}, \"max_edges\": {max_edges}, \"id\": {i}}}"
            )
        }
    }
}

/// Threshold and size cap of a short or a deep mine.
fn mine_params(deep: bool) -> (f64, usize) {
    if deep {
        (DEEP_TAU, DEEP_MAX_EDGES)
    } else {
        (TAU, SHORT_MAX_EDGES)
    }
}

/// Poisson arrival offsets at `rate` per second: whole blocks of 8 requests,
/// as many as `span` holds on average, so every run has the same mix.
fn arrivals(seed: u64, rate: f64, span: Duration) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let count = ((span.as_secs_f64() * rate / 8.0).round() as usize).max(1) * 8;
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += -(1.0 - rng.gen_range(0.0..1.0f64)).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// The edge the updates toggle: vertex 0 to the next vertex it is not
/// adjacent to (ids are shuffled by the seed).
fn toggle_pair(graph: &LabeledGraph) -> (VertexId, VertexId) {
    let n = graph.num_vertices() as VertexId;
    (1..n).find(|&v| !graph.has_edge(0, v)).map(|v| (0, v)).expect("graph is not complete")
}

/// Replace the wall-clock field, the only part of a transcript that may vary.
fn mask_elapsed(frame: &str) -> String {
    match frame.find("\"elapsed_ms\": ") {
        Some(at) => format!("{}\"elapsed_ms\": _}}", &frame[..at]),
        None => frame.to_string(),
    }
}

fn encode(event: MiningEvent) -> Frame {
    match event {
        MiningEvent::Pattern(p) => pattern_frame(&p, None),
        MiningEvent::Undecided(u) => undecided_frame(&u),
        MiningEvent::LevelCompleted(level) => level_frame(&level),
        MiningEvent::Finished(summary) => finished_frame(&summary),
    }
}

/// The frames the server must send for one mine, as the library produces
/// them over the registry's current epoch.
fn library_transcript(registry: &GraphRegistry, deep: bool) -> Vec<String> {
    let snapshot = registry.checkout("g").expect("registered graph");
    let (tau, max_edges) = mine_params(deep);
    MiningSession::over(snapshot.prepared())
        .min_support(tau)
        .max_edges(max_edges)
        .stream()
        .expect("valid session")
        .map(|e| mask_elapsed(&encode(e.expect("library mine")).finish()))
        .collect()
}

/// `[parity][deep as usize]` reference transcripts.
type References = [[Vec<String>; 2]; 2];

fn references(graph: &LabeledGraph, pair: (VertexId, VertexId)) -> References {
    let registry = GraphRegistry::new(4);
    registry.register("g", graph.clone()).expect("register");
    let even = [library_transcript(&registry, false), library_transcript(&registry, true)];
    registry
        .apply("g", &[ffsm_graph::GraphUpdate::AddEdge(pair.0, pair.1)])
        .expect("toggle edge is absent at epoch 0");
    let odd = [library_transcript(&registry, false), library_transcript(&registry, true)];
    [even, odd]
}

/// One completed request as the client saw it.
struct Outcome {
    kind: Kind,
    /// Due time (open loop) or send time (closed loop) to `done`.
    latency: Duration,
    /// Send time to `done`.
    wire: Duration,
    /// How late the generator sent it.
    lateness: Duration,
    /// The session's own `elapsed_ms`, for mines.
    server_elapsed_ms: Option<f64>,
    ok: bool,
    rejected: bool,
}

fn field<'a>(frame: &'a str, key: &str) -> Option<&'a str> {
    let at = frame.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &frame[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

type Conn = (TcpStream, BufReader<TcpStream>);

/// Read one request's frames up to its `done`, checking a mine against the
/// reference for the epoch it ran on.  Returns (ok, rejected, elapsed_ms).
fn read_done(conn: &mut Conn, kind: Kind, refs: &References) -> (bool, bool, Option<f64>) {
    let mut frames = Vec::new();
    let done = loop {
        let mut frame = String::new();
        if conn.1.read_line(&mut frame).expect("read frame") == 0 {
            panic!("server closed the connection mid-request");
        }
        let frame = frame.trim_end().to_string();
        if frame.starts_with("{\"event\": \"done\"") {
            break frame;
        }
        frames.push(frame);
    };
    let complete = field(&done, "status") == Some("complete");
    let rejected = field(&done, "code") == Some("overloaded");
    if kind == Kind::Update {
        return (complete, rejected, None);
    }
    let elapsed = frames.last().and_then(|f| field(f, "elapsed_ms")).and_then(|v| v.parse().ok());
    let parity = field(&done, "epoch").and_then(|e| e.parse::<usize>().ok()).map(|e| e % 2);
    let matches = parity.is_some_and(|p| {
        let masked: Vec<String> = frames.iter().map(|f| mask_elapsed(f)).collect();
        masked == refs[p][usize::from(kind == Kind::Deep)]
    });
    (complete && matches, rejected, elapsed)
}

/// The connection a schedule position travels on.  Deep mines get their own,
/// so short mines never queue behind one in the server's per-connection
/// order; updates stay on one connection, in order.
fn lane(i: usize) -> usize {
    usize::from(kind(i) == Kind::Deep)
}

/// One connection's share of both phases.  The open loop sends each request
/// at its due time from a separate thread, whether or not earlier answers
/// have arrived; the closed loop sends the next request after each `done`.
fn connection(
    addr: SocketAddr,
    due: Vec<(usize, Instant)>,
    closed_span: Duration,
    barrier: Arc<Barrier>,
    refs: Arc<References>,
    pair: (VertexId, VertexId),
) -> (Vec<Outcome>, Vec<Outcome>, Duration) {
    let stream = TcpStream::connect(addr).expect("connect to loopback server");
    stream.set_nodelay(true).expect("nodelay");
    let mut conn: Conn = (stream.try_clone().expect("clone stream"), BufReader::new(stream));
    let mut updates = 0usize;
    let mut line = |i: usize| {
        let l = request_line(i, updates, pair);
        updates += usize::from(kind(i) == Kind::Update);
        l
    };
    let lines: Vec<String> = due.iter().map(|&(i, _)| line(i)).collect();
    let mut writer = conn.0.try_clone().expect("clone stream");
    let mut open = Vec::with_capacity(due.len());
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sent = Vec::with_capacity(due.len());
            for (&(_, at), l) in due.iter().zip(&lines) {
                let now = Instant::now();
                if now < at {
                    std::thread::sleep(at - now);
                }
                sent.push(Instant::now());
                writeln!(writer, "{l}").expect("send request");
            }
            sent
        });
        let mut ends = Vec::with_capacity(due.len());
        for &(i, _) in &due {
            let answer = read_done(&mut conn, kind(i), &refs);
            ends.push((Instant::now(), answer));
        }
        let sent = sender.join().expect("sender thread");
        for ((&(i, at), sent), (end, (ok, rejected, server_elapsed_ms))) in
            due.iter().zip(sent).zip(ends)
        {
            open.push(Outcome {
                kind: kind(i),
                latency: end - at,
                wire: end - sent,
                lateness: sent.saturating_duration_since(at),
                server_elapsed_ms,
                ok,
                rejected,
            });
        }
    });
    barrier.wait();
    let lane_of = lane(due.first().map_or(0, |d| d.0));
    let mut i = due.last().map_or(0, |d| d.0 + 1);
    let start = Instant::now();
    let mut closed = Vec::new();
    while start.elapsed() < closed_span {
        while lane(i) != lane_of {
            i += 1;
        }
        let l = line(i);
        let sent = Instant::now();
        writeln!(conn.0, "{l}").expect("send request");
        let (ok, rejected, server_elapsed_ms) = read_done(&mut conn, kind(i), &refs);
        let wire = sent.elapsed();
        closed.push(Outcome {
            kind: kind(i),
            latency: wire,
            wire,
            lateness: Duration::ZERO,
            server_elapsed_ms,
            ok,
            rejected,
        });
        i += 1;
    }
    (open, closed, start.elapsed())
}

pub fn run(args: &Args) -> (bool, u64, u64, Vec<Metric>) {
    let set_up = || {
        let graph = shuffle_vertices(&social_like(2_000, GRAPH_SEED).graph, args.seed);
        let config = ServerConfig { workers: 2, ..ServerConfig::default() };
        let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
        server.registry().register("g", graph.clone()).expect("register graph");
        // Warm the served epoch's index, as any earlier client would have.
        server.registry().checkout("g").expect("registered").prepared().index();
        (server, graph)
    };
    let ((server, graph), mut setup_s) = stats::repeat_set_up(set_up, SET_UP_SPAN);
    let pair = toggle_pair(&graph);
    let refs = Arc::new(references(&graph, pair));

    let addr = server.local_addr().expect("local address");
    let handle = server.handle();
    let server_thread = std::thread::spawn(move || server.run());

    let open_span = Duration::from_secs_f64(args.seconds as f64 * OPEN_SHARE);
    let closed_span = Duration::from_secs_f64(args.seconds as f64 * (1.0 - OPEN_SHARE));
    let schedule = arrivals(args.seed, OFFERED_RPS, open_span);
    let start = Instant::now() + Duration::from_millis(20);
    let barrier = Arc::new(Barrier::new(2));
    let workers: Vec<_> = (0..2)
        .map(|c| {
            let due: Vec<(usize, Instant)> = schedule
                .iter()
                .enumerate()
                .filter(|(i, _)| lane(*i) == c)
                .map(|(i, &off)| (i, start + off))
                .collect();
            let (barrier, refs) = (Arc::clone(&barrier), Arc::clone(&refs));
            std::thread::spawn(move || connection(addr, due, closed_span, barrier, refs, pair))
        })
        .collect();
    let mut open = Vec::new();
    let mut closed = Vec::new();
    let mut closed_wall = Duration::ZERO;
    for w in workers {
        let (o, c, wall) = w.join().expect("client connection");
        closed_wall = closed_wall.max(wall);
        open.extend(o);
        closed.extend(c);
    }
    handle.shutdown();
    server_thread.join().expect("server thread").expect("server drained cleanly");
    // Set up again after the loops, so the set-up samples come from both ends
    // of the run instead of its first second.
    setup_s.extend(&stats::repeat_set_up(set_up, SET_UP_SPAN).1);

    let attempted = (open.len() + closed.len()) as u64;
    let failed = open.iter().chain(&closed).filter(|o| !o.ok).count() as u64;
    let by = |kind: Kind, f: &dyn Fn(&Outcome) -> f64| {
        let mut s = Samples::default();
        open.iter().filter(|o| o.kind == kind).for_each(|o| s.push(f(o)));
        s
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let short = by(Kind::Short, &|o| ms(o.latency));
    let deep = by(Kind::Deep, &|o| ms(o.latency));
    let update = by(Kind::Update, &|o| ms(o.latency));
    let mut closed_deep = Samples::default();
    closed.iter().filter(|o| o.kind == Kind::Deep).for_each(|o| closed_deep.push(ms(o.latency)));
    let mut lateness = Samples::default();
    open.iter().for_each(|o| lateness.push(ms(o.lateness)));
    let saturation = closed.len() as f64 / closed_wall.as_secs_f64();
    println!(
        "serve_mixed: open loop offered {OFFERED_RPS} req/s over {:.1} s ({} requests), \
         generator lateness {} / {}",
        open_span.as_secs_f64(),
        open.len(),
        lateness.describe(0.5, "ms"),
        lateness.describe(0.9, "ms"),
    );
    println!(
        "  short mine {} / {}; deep mine {}; update {}",
        short.describe(0.5, "ms"),
        short.describe(0.9, "ms"),
        deep.describe(0.5, "ms"),
        update.describe(0.5, "ms"),
    );
    let fastest_deep_ms = closed_deep.min().expect("deep mines ran");
    println!(
        "  closed loop on 2 connections: {} requests, {saturation:.2} req/s, deep mine fastest \
         {fastest_deep_ms:.3} ms / {}; failed {failed} of {attempted}; setup fastest {:.6} s / {}",
        closed.len(),
        closed_deep.describe(0.5, "ms"),
        setup_s.min().expect("set-ups ran"),
        setup_s.describe(0.5, "s"),
    );

    if !args.trace {
        let metrics = vec![
            Metric::new("setup_s", setup_s.min().expect("set-ups ran"), "s"),
            Metric::new("mine_s", fastest_deep_ms / 1e3, "s"),
            Metric::new("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
        ];
        return (failed == 0, attempted, failed, metrics);
    }

    let mut elapsed = Samples::default();
    let mut overhead = Samples::default();
    for o in open.iter().filter(|o| o.kind == Kind::Short) {
        if let Some(e) = o.server_elapsed_ms {
            elapsed.push(e);
            overhead.push(ms(o.wire) - e);
        }
    }
    let rejected = open.iter().chain(&closed).filter(|o| o.rejected).count();
    let replay = replay(&graph, pair, &refs);
    let mut metrics = crate::idle_layer_metrics();
    let mut set = |name: &str, value: f64| {
        metrics.iter_mut().find(|m| m.name == name).expect("declared per-layer metric").value =
            value;
    };
    let self_ns = stats::self_times(replay.tracer.spans());
    let layer = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;
    println!(
        "  replay of the first {REPLAY_REQUESTS} requests without TCP, layer self times (ms):"
    );
    for (name, ns) in &self_ns {
        println!("    {name:<26} {:>10.3}", *ns as f64 / 1e6);
    }
    let root_ms = replay.wall.as_secs_f64() * 1e3;
    let covered: f64 =
        self_ns.values().map(|&v| v as f64 / 1e6).sum::<f64>() - layer("serve.request");
    println!(
        "  replay wall {root_ms:.1} ms, layer coverage {:.1}%, frames match the server: {}",
        100.0 * covered / root_ms,
        replay.matches
    );
    for line in &replay.program {
        println!("{line}");
    }
    crate::write_spans(args, &replay.tracer);
    set("match.index_build_ms", layer("match.index_build"));
    set("dynamic.apply_ms", layer("dynamic.apply") / replay.updates.max(1) as f64);
    set("serve.parse_us", layer("serve.parse") * 1e3 / REPLAY_REQUESTS as f64);
    set("serve.encode_us", layer("serve.encode") * 1e3 / replay.frames.max(1) as f64);
    set("serve.frames", replay.frames as f64);
    set("serve.bytes_out", replay.bytes as f64);
    set("serve.server_elapsed_ms", elapsed.median().unwrap_or(0.0));
    set("serve.overhead_ms", overhead.median().unwrap_or(0.0));
    set("serve.rejected", rejected as f64);
    set("serve.update_p50_ms", update.median().unwrap_or(0.0));
    set("serve.deep_mine_p50_ms", deep.median().unwrap_or(0.0));
    set("serve.saturation_rps", saturation);
    set("mine_p50_ms", short.median().unwrap_or(0.0));
    set("mine_p90_ms", short.quantile(0.9).unwrap_or(0.0));
    set("serve.lateness_p90_ms", lateness.quantile(0.9).unwrap_or(0.0));
    set("trace.overhead_ms", root_ms - replay.untraced_ms);
    set("trace.coverage", covered / root_ms);
    set("failed_frac", (failed + u64::from(!replay.matches)) as f64 / (attempted + 1) as f64);
    (failed == 0 && replay.matches, attempted + 1, failed + u64::from(!replay.matches), metrics)
}

struct Replay {
    tracer: Tracer,
    wall: Duration,
    /// The same requests again, without spans.
    untraced_ms: f64,
    frames: u64,
    bytes: u64,
    updates: u64,
    matches: bool,
    program: Vec<String>,
}

/// Replay the first requests of the schedule through the registry, the
/// session and the frame encoders — the server's path without TCP.
fn replay(graph: &LabeledGraph, pair: (VertexId, VertexId), refs: &References) -> Replay {
    let untraced = Instant::now();
    let _ = replay_once(graph, pair, refs, &mut None);
    let untraced_ms = untraced.elapsed().as_secs_f64() * 1e3;
    let mut tracer = Some(Tracer::default());
    let t = Instant::now();
    let mut out = replay_once(graph, pair, refs, &mut tracer);
    out.wall = t.elapsed();
    out.untraced_ms = untraced_ms;
    out.tracer = tracer.expect("tracer kept");
    out
}

fn replay_once(
    graph: &LabeledGraph,
    pair: (VertexId, VertexId),
    refs: &References,
    tracer: &mut Option<Tracer>,
) -> Replay {
    fn span<T>(tracer: &mut Option<Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
        match tracer {
            Some(t) => t.time(name, f),
            None => f(),
        }
    }
    let registry = GraphRegistry::new(4);
    registry.register("g", graph.clone()).expect("register");
    let mut out = Replay {
        tracer: Tracer::default(),
        wall: Duration::ZERO,
        untraced_ms: 0.0,
        frames: 0,
        bytes: 0,
        updates: 0,
        matches: true,
        program: Vec::new(),
    };
    for i in 0..REPLAY_REQUESTS {
        if let Some(t) = tracer.as_mut() {
            t.set_run(i as u64);
            t.enter("serve.request");
        }
        let line = request_line(i, out.updates as usize, pair);
        let envelope = span(tracer, "serve.parse", || parse_request(&line)).expect("valid request");
        let mut frames = Vec::new();
        match envelope.request {
            Request::Update { graph: name, batches } => {
                for batch in &batches {
                    let (epoch, delta, summary) =
                        span(tracer, "dynamic.apply", || registry.apply(&name, batch))
                            .expect("update applies");
                    frames.push(span(tracer, "serve.encode", || {
                        Frame::event("epoch")
                            .raw("epoch", epoch)
                            .str("delta", &delta.summary())
                            .raw("vertices", summary.vertices)
                            .raw("edges", summary.edges)
                            .id(envelope.id)
                            .finish()
                    }));
                }
                out.updates += 1;
            }
            Request::Mine(params) => {
                let snapshot = registry.checkout(&params.graph).expect("registered");
                span(tracer, "match.index_build", || snapshot.prepared().index());
                let stream = MiningSession::over(snapshot.prepared())
                    .measure(params.measure)
                    .min_support(params.tau)
                    .max_edges(params.max_edges)
                    .threads(1)
                    .metrics(true)
                    .stream()
                    .expect("valid session");
                if let Some(t) = tracer.as_mut() {
                    t.enter("miner.session");
                }
                let mut transcript = Vec::new();
                for event in stream {
                    let event = event.expect("library mine");
                    if let MiningEvent::Finished(summary) = &event {
                        if params.tau == DEEP_TAU && out.program.is_empty() {
                            out.program = crate::program_stats(&summary.stats);
                        }
                    }
                    let frame = span(tracer, "serve.encode", || encode(event).finish());
                    transcript.push(mask_elapsed(&frame));
                    frames.push(frame);
                }
                if let Some(t) = tracer.as_mut() {
                    t.exit();
                }
                let deep = usize::from(params.tau == DEEP_TAU);
                out.matches &= transcript == refs[snapshot.epoch() % 2][deep];
            }
            _ => unreachable!("the schedule only mines and updates"),
        }
        out.frames += frames.len() as u64;
        out.bytes += frames.iter().map(|f| f.len() as u64 + 1).sum::<u64>();
        if let Some(t) = tracer.as_mut() {
            t.exit();
        }
    }
    out
}
