//! The NDJSON-over-TCP mining server.
//!
//! [`Server::bind`] opens a listener; [`Server::run`] accepts connections and
//! serves the protocol of [`crate::protocol`] until a graceful drain finishes.
//! Each connection is one request/response conversation: the client sends one
//! flat JSON request per line, the server answers with a stream of event
//! frames terminated by exactly one `done` frame, in request order.
//!
//! ## Threading model
//!
//! * one accept loop (the thread that called `run`), polling a shutdown flag;
//! * one thread per connection, which parses requests and answers `update`,
//!   `list`, `stat` and `shutdown` inline — those are cheap;
//! * `mine` requests go through the [`SessionScheduler`]: the connection
//!   thread checks out the graph's current epoch, admits a job onto the
//!   bounded queue (or answers a typed `overloaded` rejection), then waits for
//!   the job to finish before reading the next request.
//!
//! The mining job writes each frame straight to the socket as it pulls the
//! next event from the lazy [`PatternStream`] — a slow client therefore slows
//! the *miner*, not a buffer: backpressure is real, and memory per session
//! stays flat no matter how far ahead the miner could run.
//!
//! ## Disconnects and deadlines
//!
//! A client that goes away mid-stream (broken pipe, reset, or a write that
//! times out) cancels the session's [`CancelToken`] and tears the session
//! down quietly — never an unwind, never a worker held hostage.  Per-request
//! `deadline_ms` maps onto the same token, so a deadline expiring mid-run
//! yields the session's usual deterministic whole-level prefix, a `finished`
//! frame naming the deadline, and a `done` frame.

use crate::events::{
    counter_frame, error_frame, finished_frame, gauge_frame, histogram_frame, level_frame,
    pattern_frame, undecided_frame, write_frame, Frame, FrameWrite,
};
use crate::protocol::{parse_request, MineParams, Request};
use crate::registry::{GraphRegistry, GraphStats};
use crate::scheduler::SessionScheduler;
use ffsm_core::FfsmError;
use ffsm_dynamic::EpochSnapshot;
use ffsm_graph::CancelToken;
use ffsm_miner::{MiningEvent, MiningSession, MiningStats, Phase};
use ffsm_obs::{Counter, Gauge, MetricsRegistry};
use std::io::BufRead;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Tunables for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Mining worker threads (concurrent sessions).  `0` = one per core,
    /// capped at 8.
    pub workers: usize,
    /// Sessions that may wait in the admission queue beyond the running ones;
    /// the queue full means new `mine` requests get a typed `overloaded`
    /// rejection.
    pub queue_capacity: usize,
    /// Threads each mining session evaluates candidates with (`1` =
    /// sequential; sessions are already concurrent with each other).
    pub session_threads: usize,
    /// Deadline applied to requests that do not carry their own
    /// `deadline_ms`.  `None` lets such requests run to completion.
    pub default_deadline: Option<Duration>,
    /// Epoch snapshots each graph retains for in-flight readers.
    pub retain_epochs: usize,
    /// A frame write stalling longer than this treats the client as gone.
    pub write_timeout: Duration,
    /// Run mining sessions with fine-grained phase timing enabled
    /// ([`MiningSession::metrics`]), so completed sessions fold per-phase
    /// wall-time totals into the server's metrics registry.  On by default;
    /// benchmarks turn it off to measure the timing overhead itself.
    pub session_metrics: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_capacity: 16,
            session_threads: 1,
            default_deadline: None,
            retain_epochs: 4,
            write_timeout: Duration::from_secs(10),
            session_metrics: true,
        }
    }
}

impl ServerConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(8)
        }
    }
}

/// Shared server state: registry, scheduler, flags and counters.
#[derive(Debug)]
struct ServerState {
    registry: GraphRegistry,
    scheduler: SessionScheduler,
    config: ServerConfig,
    workers: usize,
    shutdown: AtomicBool,
    connections: AtomicU64,
    disconnects: AtomicU64,
    started: Instant,
    /// Named metrics scraped by the `metrics` op.  The two hot handles below
    /// are resolved once at bind time so the frame path never takes the
    /// registry lock.
    metrics: MetricsRegistry,
    frames_written: Arc<Counter>,
    active_sessions: Arc<Gauge>,
}

/// A handle for signalling the server from other threads (the CLI's SIGINT
/// path, tests, or a `shutdown` request).  Cheap to clone.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Begin a graceful drain: the accept loop stops admitting connections,
    /// in-flight sessions are cancelled (each still flushes its terminal
    /// frames), and [`Server::run`] returns once everything is joined.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
    }

    /// `true` once a drain has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// The server's graph registry — lets an embedding process register graphs
    /// or inspect state while (or after) [`Server::run`] owns the server.
    pub fn registry(&self) -> &GraphRegistry {
        &self.state.registry
    }
}

/// The mining server.  See the module docs in `server.rs`.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:7878"`; port `0` picks a free port).
    ///
    /// # Errors
    ///
    /// [`FfsmError::InvalidConfig`] when the address cannot be bound.
    pub fn bind(addr: &str, config: ServerConfig) -> Result<Server, FfsmError> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| FfsmError::InvalidConfig(format!("cannot bind {addr}: {e}")))?;
        let workers = config.effective_workers();
        let metrics = MetricsRegistry::new();
        let frames_written = metrics.counter("frames_written");
        let active_sessions = metrics.gauge("active_sessions");
        let state = Arc::new(ServerState {
            registry: GraphRegistry::new(config.retain_epochs),
            scheduler: SessionScheduler::new(workers, config.queue_capacity),
            workers,
            config,
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
            started: Instant::now(),
            metrics,
            frames_written,
            active_sessions,
        });
        Ok(Server { listener, state })
    }

    /// The bound address (the actual port when `bind` was given port `0`).
    ///
    /// # Errors
    ///
    /// [`FfsmError::InvalidConfig`] if the socket cannot report it.
    pub fn local_addr(&self) -> Result<SocketAddr, FfsmError> {
        self.listener
            .local_addr()
            .map_err(|e| FfsmError::InvalidConfig(format!("cannot read local addr: {e}")))
    }

    /// The graph registry, for registering graphs before (or while) serving.
    pub fn registry(&self) -> &GraphRegistry {
        &self.state.registry
    }

    /// A clonable handle for signalling shutdown from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { state: Arc::clone(&self.state) }
    }

    /// Serve until a drain (via [`ServerHandle::shutdown`] or a client's
    /// `shutdown` request) completes.  Blocks the calling thread.
    ///
    /// # Errors
    ///
    /// [`FfsmError::InvalidConfig`] when the listener cannot be switched to
    /// non-blocking polling.
    pub fn run(self) -> Result<(), FfsmError> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| FfsmError::InvalidConfig(format!("cannot poll listener: {e}")))?;
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.state.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    connections.retain(|h| !h.is_finished());
                    self.state.connections.fetch_add(1, Ordering::Relaxed);
                    let state = Arc::clone(&self.state);
                    let handle = std::thread::Builder::new()
                        .name("ffsm-serve-conn".into())
                        .spawn(move || serve_connection(stream, &state))
                        .expect("spawning connection thread");
                    connections.push(handle);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        // Drain: cancel in-flight sessions and run queued ones to their
        // (cancelled) terminal frames, then wait for connections to notice
        // the flag and hang up.
        self.state.scheduler.shutdown();
        for handle in connections {
            let _ = handle.join();
        }
        Ok(())
    }
}

/// How long a connection read waits before re-checking the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

fn serve_connection(stream: TcpStream, state: &Arc<ServerState>) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(state.config.write_timeout));
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = std::io::BufReader::new(stream);
    // `read_until` (unlike `read_line`) keeps partially read bytes in the
    // buffer when a read times out, so the poll loop never corrupts a frame
    // that arrives in pieces.
    let mut line: Vec<u8> = Vec::new();
    loop {
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => return, // EOF — client hung up
            Ok(_) => {
                let text = String::from_utf8_lossy(&line).into_owned();
                let text = text.trim();
                if !text.is_empty() && !handle_request(text, &mut writer, state) {
                    return;
                }
                line.clear();
            }
            Err(e) if crate::events::is_disconnect(&e) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    return; // draining — hang up; in-flight work is cancelled
                }
            }
            Err(_) => return,
        }
    }
}

/// Serve one request line.  Returns `false` when the connection should close
/// (the client disconnected mid-response).  Every request is counted and its
/// wall time recorded into the per-op latency histogram (`latency_<op>_us`).
fn handle_request(line: &str, writer: &mut TcpStream, state: &Arc<ServerState>) -> bool {
    let started = Instant::now();
    let envelope = match parse_request(line) {
        Ok(envelope) => envelope,
        Err(e) => {
            state.metrics.counter("requests_malformed").inc();
            return send_failure(writer, &e, None, state);
        }
    };
    let id = envelope.id;
    let op = match &envelope.request {
        Request::Mine(_) => "mine",
        Request::Update { .. } => "update",
        Request::List => "list",
        Request::Stat { .. } => "stat",
        Request::Metrics => "metrics",
        Request::Shutdown => "shutdown",
    };
    state.metrics.counter(&format!("requests_{op}")).inc();
    let alive = match envelope.request {
        Request::Mine(params) => handle_mine(params, id, writer, state),
        Request::Update { graph, batches } => handle_update(&graph, &batches, id, writer, state),
        Request::List => handle_list(id, writer, state),
        Request::Stat { graph } => handle_stat(graph.as_deref(), id, writer, state),
        Request::Metrics => handle_metrics(id, writer, state),
        Request::Shutdown => {
            let alive = send_done(writer, "complete", id, state);
            state.shutdown.store(true, Ordering::SeqCst);
            alive
        }
    };
    state.metrics.histogram(&format!("latency_{op}_us")).record_duration_us(started.elapsed());
    alive
}

/// `error` frame + `done(status: "error")` frame.  Returns connection liveness.
fn send_failure(
    writer: &mut TcpStream,
    e: &FfsmError,
    id: Option<u64>,
    state: &Arc<ServerState>,
) -> bool {
    if !send(writer, error_frame(e).id(id), state) {
        return false;
    }
    let done = Frame::event("done")
        .str("status", "error")
        .str("code", crate::events::error_code(e))
        .id(id);
    send(writer, done, state)
}

fn send_done(
    writer: &mut TcpStream,
    status: &str,
    id: Option<u64>,
    state: &Arc<ServerState>,
) -> bool {
    send(writer, Frame::event("done").str("status", status).id(id), state)
}

/// Write one frame, counting a vanished client.  Returns connection liveness.
fn send(writer: &mut TcpStream, frame: Frame, state: &Arc<ServerState>) -> bool {
    match write_frame(writer, &frame.finish()) {
        Ok(FrameWrite::Written) => {
            state.frames_written.inc();
            true
        }
        Ok(FrameWrite::Disconnected) | Err(_) => {
            state.disconnects.fetch_add(1, Ordering::Relaxed);
            false
        }
    }
}

fn handle_mine(
    params: MineParams,
    id: Option<u64>,
    writer: &mut TcpStream,
    state: &Arc<ServerState>,
) -> bool {
    let snapshot = match state.registry.checkout(&params.graph) {
        Ok(snapshot) => snapshot,
        Err(e) => return send_failure(writer, &e, id, state),
    };
    let Ok(mut job_writer) = writer.try_clone() else { return false };
    let token = CancelToken::new();
    let (done_tx, done_rx) = mpsc::channel::<bool>();
    let job_state = Arc::clone(state);
    let job_token = token.clone();
    let submitted = state.scheduler.submit(&token, move || {
        let alive =
            run_mine_session(&snapshot, &params, id, &job_token, &mut job_writer, &job_state);
        let _ = done_tx.send(alive);
    });
    if let Err(e) = submitted {
        if matches!(e, FfsmError::Overloaded { .. }) {
            state.metrics.counter("admission_rejected").inc();
        }
        return send_failure(writer, &e, id, state);
    }
    // Requests are answered in order per connection: wait for the session's
    // terminal frame before reading the next request.  An `Err` here means
    // the job panicked after the workers contained it; the client gets a
    // closed conversation either way.
    done_rx.recv().unwrap_or(false)
}

/// The scheduled part of a `mine`: build the session over the checked-out
/// epoch, stream frames straight to the socket, terminate with `done`.
/// Returns connection liveness.
fn run_mine_session(
    snapshot: &EpochSnapshot,
    params: &MineParams,
    id: Option<u64>,
    token: &CancelToken,
    writer: &mut TcpStream,
    state: &Arc<ServerState>,
) -> bool {
    state.active_sessions.add(1);
    let _active = GaugeGuard(Arc::clone(&state.active_sessions));
    let mut session = MiningSession::over(snapshot.prepared())
        .measure(params.measure)
        .min_support(params.tau)
        .max_edges(params.max_edges)
        .threads(state.config.session_threads)
        .metrics(state.config.session_metrics)
        .bounds_first(params.bounds)
        .cancel_token(token.clone());
    if let Some(k) = params.top_k {
        session = session.top_k(k);
    }
    let deadline = params.deadline_ms.map(Duration::from_millis).or(state.config.default_deadline);
    if let Some(deadline) = deadline {
        session = session.deadline(deadline);
    }
    let stream = match session.stream() {
        Ok(stream) => stream,
        Err(e) => return send_failure(writer, &e, id, state),
    };
    let mut status = "complete";
    for event in stream {
        let frame = match event {
            Ok(MiningEvent::Pattern(p)) => pattern_frame(&p, None),
            Ok(MiningEvent::Undecided(u)) => undecided_frame(&u),
            Ok(MiningEvent::LevelCompleted(level)) => level_frame(&level),
            Ok(MiningEvent::Finished(summary)) => {
                status = summary.completion.name();
                fold_session_stats(&summary.stats, state);
                finished_frame(&summary)
            }
            Err(e) => {
                // A mid-run failure still closes the conversation in form:
                // typed error, then done.
                return send_failure(writer, &e, id, state);
            }
        };
        if !send(writer, frame, state) {
            // The client went away: stop pulling (which stops the miner at
            // the next poll) and tear down without unwinding.
            token.cancel();
            return false;
        }
    }
    let done = Frame::event("done").str("status", status).raw("epoch", snapshot.epoch()).id(id);
    send(writer, done, state)
}

/// Decrements its gauge when dropped — keeps `active_sessions` honest on every
/// exit path of a session (completion, mid-stream disconnect, error).
struct GaugeGuard(Arc<Gauge>);

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

/// Fold a finished session's observability block into the server registry:
/// per-phase wall-time totals (`phase_<name>_ns`) and the headline mining
/// counters, summed across every session the server has completed.
fn fold_session_stats(stats: &MiningStats, state: &Arc<ServerState>) {
    for phase in Phase::ALL {
        let nanos = stats.phase_timings.nanos(phase);
        if nanos > 0 {
            state.metrics.counter(&format!("phase_{}_ns", phase.name())).add(nanos);
        }
    }
    let counters = &stats.counters;
    state.metrics.counter("mine_steps").add(counters.search.steps);
    state.metrics.counter("mine_backjumps").add(counters.search.backjumps);
    state.metrics.counter("mine_pools_filled").add(counters.search.pools_filled);
    state.metrics.counter("mine_hub_verified_pools").add(counters.search.hub_verified_pools);
    state.metrics.counter("mine_overlap_probes").add(counters.overlap_probes);
    state.metrics.counter("mine_patterns_emitted").add(counters.patterns_emitted);
    state.metrics.counter("mine_evaluations_bounded").add(counters.evaluations_bounded);
    state.metrics.counter("mine_bound_decided").add(counters.bound_decided);
}

/// Answer a `metrics` scrape: refresh the point-in-time gauges, then emit one
/// flat `metric` frame per registered metric, sorted by kind then name.
fn handle_metrics(id: Option<u64>, writer: &mut TcpStream, state: &Arc<ServerState>) -> bool {
    let scheduler = state.scheduler.stats();
    let active = state.active_sessions.value().max(0);
    state.metrics.gauge("queue_depth").set((scheduler.inflight as i64 - active).max(0));
    let snapshot = state.metrics.snapshot();
    let mut emitted = 0usize;
    for (name, value) in &snapshot.counters {
        if !send(writer, counter_frame(name, *value).id(id), state) {
            return false;
        }
        emitted += 1;
    }
    for (name, value) in &snapshot.gauges {
        if !send(writer, gauge_frame(name, *value).id(id), state) {
            return false;
        }
        emitted += 1;
    }
    for (name, histogram) in &snapshot.histograms {
        if !send(writer, histogram_frame(name, histogram).id(id), state) {
            return false;
        }
        emitted += 1;
    }
    let done = Frame::event("done").str("status", "complete").raw("metrics", emitted).id(id);
    send(writer, done, state)
}

fn handle_update(
    graph: &str,
    batches: &[Vec<ffsm_graph::GraphUpdate>],
    id: Option<u64>,
    writer: &mut TcpStream,
    state: &Arc<ServerState>,
) -> bool {
    let mut committed = 0usize;
    for batch in batches {
        match state.registry.apply(graph, batch) {
            Ok((epoch, delta, summary)) => {
                let frame = Frame::event("epoch")
                    .raw("epoch", epoch)
                    .str("delta", &delta.summary())
                    .raw("vertices", summary.vertices)
                    .raw("edges", summary.edges)
                    .id(id);
                if !send(writer, frame, state) {
                    return false;
                }
                committed += 1;
            }
            // Batches are atomic: earlier ones stay committed, this one
            // changed nothing, later ones are not attempted.
            Err(e) => return send_failure(writer, &e, id, state),
        }
    }
    let done = Frame::event("done").str("status", "complete").raw("epochs", committed).id(id);
    send(writer, done, state)
}

fn handle_list(id: Option<u64>, writer: &mut TcpStream, state: &Arc<ServerState>) -> bool {
    let graphs = state.registry.list();
    for summary in &graphs {
        let frame = Frame::event("graph")
            .str("name", &summary.name)
            .raw("epoch", summary.epoch)
            .raw("vertices", summary.vertices)
            .raw("edges", summary.edges)
            .raw("labels", summary.labels)
            .id(id);
        if !send(writer, frame, state) {
            return false;
        }
    }
    let done = Frame::event("done").str("status", "complete").raw("graphs", graphs.len()).id(id);
    send(writer, done, state)
}

fn handle_stat(
    graph: Option<&str>,
    id: Option<u64>,
    writer: &mut TcpStream,
    state: &Arc<ServerState>,
) -> bool {
    let frame = match graph {
        Some(name) => match state.registry.stats(name) {
            Ok(stats) => graph_stat_frame(&stats),
            Err(e) => return send_failure(writer, &e, id, state),
        },
        None => server_stat_frame(state),
    };
    if !send(writer, frame.id(id), state) {
        return false;
    }
    send_done(writer, "complete", id, state)
}

fn graph_stat_frame(stats: &GraphStats) -> Frame {
    Frame::event("stat")
        .str("graph", &stats.summary.name)
        .raw("epoch", stats.summary.epoch)
        .raw("vertices", stats.summary.vertices)
        .raw("edges", stats.summary.edges)
        .raw("labels", stats.summary.labels)
        .raw("oldest_epoch", stats.retained.0)
        .raw("newest_epoch", stats.retained.1)
        .raw("mines", stats.mines)
        .raw("updates", stats.updates)
        .raw("cache_hits", stats.cache_hits)
        .raw("cache_misses", stats.cache_misses)
        .raw("index_built", stats.index_built)
}

fn server_stat_frame(state: &Arc<ServerState>) -> Frame {
    let scheduler = state.scheduler.stats();
    let active = state.active_sessions.value().max(0);
    Frame::event("stat")
        .raw("graphs", state.registry.len())
        .raw("workers", state.workers)
        .raw("queue_capacity", state.config.queue_capacity)
        .raw("admitted", scheduler.admitted)
        .raw("rejected", scheduler.rejected)
        .raw("finished", scheduler.finished)
        .raw("inflight", scheduler.inflight)
        .raw("active_sessions", active)
        .raw("queue_depth", (scheduler.inflight as i64 - active).max(0))
        .raw("frames_written", state.frames_written.value())
        .raw("connections", state.connections.load(Ordering::Relaxed))
        .raw("disconnects", state.disconnects.load(Ordering::Relaxed))
        .raw("uptime_ms", state.started.elapsed().as_millis())
        .raw("draining", state.shutdown.load(Ordering::SeqCst))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::generators;
    use std::io::{BufRead, BufReader, Write};

    fn spawn_server(
        config: ServerConfig,
    ) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        server.registry().register("g", generators::gnm_random(40, 70, 3, 11)).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run().unwrap());
        (addr, handle, thread)
    }

    fn request(addr: SocketAddr, line: &str) -> Vec<String> {
        let mut stream = TcpStream::connect(addr).unwrap();
        writeln!(stream, "{line}").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        BufReader::new(stream).lines().map(Result::unwrap).collect()
    }

    #[test]
    fn serves_mine_list_stat_and_typed_errors_per_connection() {
        let (addr, handle, thread) = spawn_server(ServerConfig::default());

        let frames = request(addr, "{\"op\": \"list\", \"id\": 1}");
        assert!(frames[0].starts_with("{\"event\": \"graph\", \"name\": \"g\""));
        assert_eq!(
            frames[1],
            "{\"event\": \"done\", \"status\": \"complete\", \"graphs\": 1, \"id\": 1}"
        );

        let frames = request(addr, "{\"op\": \"mine\", \"graph\": \"g\", \"tau\": 2}");
        assert!(frames.iter().any(|f| f.starts_with("{\"event\": \"pattern\"")));
        assert!(frames.iter().any(|f| f.starts_with("{\"event\": \"finished\"")));
        let last = frames.last().unwrap();
        assert!(
            last.starts_with("{\"event\": \"done\", \"status\": \"complete\", \"epoch\": 0"),
            "{last}"
        );

        let frames =
            request(addr, "{\"op\": \"mine\", \"graph\": \"nope\", \"tau\": 2, \"id\": 3}");
        assert!(frames[0].contains("\"code\": \"unknown-graph\""));
        assert!(frames[0].ends_with("\"id\": 3}"));
        assert!(frames[1].contains("\"status\": \"error\""));

        let frames = request(addr, "this is not json");
        assert!(frames[0].contains("\"code\": \"protocol\""));

        let frames = request(addr, "{\"op\": \"stat\"}");
        assert!(frames[0].contains("\"graphs\": 1"));
        assert!(frames[0].contains("\"workers\": "));

        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn metrics_scrape_reports_counters_gauges_and_histograms() {
        let (addr, handle, thread) = spawn_server(ServerConfig::default());
        let frames = request(addr, "{\"op\": \"mine\", \"graph\": \"g\", \"tau\": 2}");
        assert!(frames.iter().any(|f| f.contains("\"event\": \"finished\"")));

        let frames = request(addr, "{\"op\": \"metrics\", \"id\": 5}");
        let text = frames.join("\n");
        assert!(text.contains("\"name\": \"requests_mine\", \"value\": 1"), "{text}");
        assert!(text.contains("\"name\": \"frames_written\""));
        assert!(text.contains("\"name\": \"queue_depth\""));
        assert!(text.contains("\"kind\": \"histogram\", \"name\": \"latency_mine_us\""));
        assert!(text.contains("\"name\": \"phase_support_eval_ns\""));
        assert!(text.contains("\"name\": \"mine_steps\""));
        let last = frames.last().unwrap();
        assert!(last.starts_with("{\"event\": \"done\", \"status\": \"complete\", \"metrics\": "));
        assert!(last.ends_with("\"id\": 5}"));

        handle.shutdown();
        thread.join().unwrap();
    }

    #[test]
    fn update_commits_batches_and_new_mines_see_the_epoch() {
        let (addr, handle, thread) = spawn_server(ServerConfig::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();

        writeln!(
            stream,
            "{{\"op\": \"update\", \"graph\": \"g\", \"updates\": \"av 2\\nt 1\\nav 2\"}}"
        )
        .unwrap();
        for expected in ["\"epoch\": 1", "\"epoch\": 2", "\"epochs\": 2"] {
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(expected), "{line}");
        }

        writeln!(stream, "{{\"op\": \"mine\", \"graph\": \"g\", \"tau\": 3}}").unwrap();
        let done = loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line.contains("\"event\": \"done\"") {
                break line.clone();
            }
        };
        assert!(done.contains("\"epoch\": 2"), "mine ran over the updated epoch: {done}");

        writeln!(stream, "{{\"op\": \"shutdown\"}}").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"status\": \"complete\""));
        assert!(handle.is_shutting_down());
        thread.join().unwrap();
    }
}
