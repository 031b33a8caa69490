//! The NDJSON event serializer — single source of truth for the wire format.
//!
//! Every streaming surface of the framework speaks the same newline-delimited
//! JSON vocabulary: `ffsm mine --stream` and `ffsm update --stream` on stdout,
//! and the `ffsm serve` TCP protocol on sockets.  Before this module each path
//! hand-assembled its lines, so the formats could (and did) only agree by
//! discipline; now every frame is composed here and the consumers cannot drift.
//!
//! ## Vocabulary
//!
//! * `pattern` — one frequent pattern (support, sizes, occurrence count, the
//!   `.lg` text of the pattern itself), optionally tagged with the epoch that
//!   produced it (the `update` streaming path); bounds-first sessions add the
//!   certified `support_lo`/`support_hi` interval and its `certificate`;
//! * `undecided` — one candidate a bounds-first session could not decide before
//!   an interruption, with its certified support interval;
//! * `level` — one fully processed pattern-growth level;
//! * `finished` — the typed end of one mining run ([`RunSummary`]);
//! * `epoch` — one completed epoch of an incremental re-mine, or (on the server)
//!   one committed update batch;
//! * `metric` — one named metric from the server's registry (counter, gauge or
//!   histogram), answering the `metrics` protocol op;
//! * `trace` — one per-level observability snapshot (counter and phase-time
//!   deltas), emitted by `ffsm mine --trace` / `ffsm update --trace`;
//! * `error` — a typed [`FfsmError`], as a stable machine `code` plus the
//!   human message;
//! * `done` — the server's per-request terminator (exactly one per request).
//!
//! Frames are built with [`Frame`], which writes keys in call order — callers
//! append protocol-level fields (request ids, graph names) to the shared event
//! bodies without re-stating the format.
//!
//! ## Disconnect handling
//!
//! [`write_frame`] is the one way frames reach a consumer.  It distinguishes a
//! consumer that *went away* (broken pipe, connection reset — a normal way to
//! stop consuming) from a genuine I/O failure, so every streaming path tears
//! down the same way: cancel the session's `CancelToken` and stop, never
//! unwind.

use ffsm_core::FfsmError;
use ffsm_graph::io;
use ffsm_miner::{
    FrequentPattern, LevelSummary, MiningResult, Phase, PhaseTimes, RunSummary, SessionCounters,
    UndecidedPattern,
};
use ffsm_obs::HistogramSnapshot;
use std::io::Write;

/// An in-progress NDJSON frame: one JSON object, keys in insertion order.
#[derive(Debug, Clone)]
pub struct Frame {
    buf: String,
}

impl Frame {
    /// Start a frame with its `event` discriminator — always the first key, so
    /// consumers can dispatch on a prefix.
    pub fn event(name: &str) -> Frame {
        let mut frame = Frame { buf: String::with_capacity(128) };
        frame.buf.push('{');
        frame.push_key("event");
        frame.buf.push_str(&json_string(name));
        frame
    }

    fn push_key(&mut self, key: &str) {
        if !self.buf.ends_with('{') {
            self.buf.push_str(", ");
        }
        self.buf.push_str(&json_string(key));
        self.buf.push_str(": ");
    }

    /// Append a raw (unquoted) JSON value — numbers, booleans, `null`.
    pub fn raw(mut self, key: &str, value: impl std::fmt::Display) -> Frame {
        self.push_key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Append an escaped, quoted string value.
    pub fn str(mut self, key: &str, value: &str) -> Frame {
        self.push_key(key);
        self.buf.push_str(&json_string(value));
        self
    }

    /// Append the request id, if the client supplied one.  A no-op for `None`,
    /// so CLI frames (which have no request ids) stay byte-identical.
    pub fn id(self, id: Option<u64>) -> Frame {
        match id {
            Some(id) => self.raw("id", id),
            None => self,
        }
    }

    /// Close the object and return the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Escape a string for inclusion in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render a JSON string literal (escaped and quoted).
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// One frequent pattern.  `epoch` tags the pattern with the epoch that produced
/// it (the `update` streaming path); `None` omits the field (the `mine` path).
/// A pattern from a bounds-first session additionally carries its certified
/// `support_lo`/`support_hi` interval and the `certificate` that justified it;
/// the fields are omitted otherwise, so plain sessions stay byte-identical.
pub fn pattern_frame(p: &FrequentPattern, epoch: Option<usize>) -> Frame {
    let frame = Frame::event("pattern");
    let frame = match epoch {
        Some(epoch) => frame.raw("epoch", epoch),
        None => frame,
    };
    let mut frame = frame.raw("support", p.support);
    if let Some(interval) = p.support_interval {
        frame = frame.raw("support_lo", interval.lo).raw("support_hi", interval.hi);
    }
    if let Some(certificate) = p.certificate {
        frame = frame.str("certificate", certificate.name());
    }
    frame
        .raw("vertices", p.pattern.num_vertices())
        .raw("edges", p.pattern.num_edges())
        .raw("occurrences", p.num_occurrences)
        .str("pattern", io::to_lg_string(&p.pattern).trim_end())
}

/// One candidate a bounds-first session left undecided at an interruption: the
/// certified interval its exact support is known to lie in.
pub fn undecided_frame(u: &UndecidedPattern) -> Frame {
    Frame::event("undecided")
        .raw("support_lo", u.interval.lo)
        .raw("support_hi", u.interval.hi)
        .str("certificate", u.certificate.name())
        .raw("vertices", u.pattern.num_vertices())
        .raw("edges", u.pattern.num_edges())
        .str("pattern", io::to_lg_string(&u.pattern).trim_end())
}

/// One fully processed pattern-growth level.
pub fn level_frame(level: &LevelSummary) -> Frame {
    Frame::event("level")
        .raw("level", level.level)
        .raw("evaluated", level.evaluated)
        .raw("accepted", level.accepted)
        .raw("threshold", level.threshold)
}

/// The typed end of one mining run.  `undecided` appears only when a
/// bounds-first interruption left candidates undecided, so every other run's
/// frame stays byte-identical.
pub fn finished_frame(summary: &RunSummary) -> Frame {
    let frame = Frame::event("finished")
        .str("completion", summary.completion.name())
        .raw("patterns", summary.num_patterns);
    let frame = if summary.num_undecided > 0 {
        frame.raw("undecided", summary.num_undecided)
    } else {
        frame
    };
    frame
        .raw("final_threshold", summary.final_threshold)
        .raw("evaluated", summary.stats.candidates_evaluated)
        .raw("elapsed_ms", summary.stats.elapsed.as_millis())
}

/// One completed epoch of an incremental re-mine (the `update` streaming path).
pub fn epoch_frame(epoch: usize, result: &MiningResult) -> Frame {
    Frame::event("epoch")
        .raw("epoch", epoch)
        .str("completion", result.completion().name())
        .raw("patterns", result.len())
        .raw("evaluated", result.stats.candidates_evaluated)
        .raw("reused", result.stats.evaluations_reused)
        .raw("elapsed_ms", result.stats.elapsed.as_millis())
}

/// One counter from a metrics scrape.
pub fn counter_frame(name: &str, value: u64) -> Frame {
    Frame::event("metric").str("kind", "counter").str("name", name).raw("value", value)
}

/// One gauge from a metrics scrape.
pub fn gauge_frame(name: &str, value: i64) -> Frame {
    Frame::event("metric").str("kind", "gauge").str("name", name).raw("value", value)
}

/// One histogram from a metrics scrape.  Quantiles are the log₂-bucket upper
/// bounds; `buckets` is the compact non-empty-bucket encoding of
/// [`HistogramSnapshot::encode_buckets`] (`"bucket:count,…"`), which keeps the
/// frame flat — the protocol has no nested values.
pub fn histogram_frame(name: &str, snapshot: &HistogramSnapshot) -> Frame {
    Frame::event("metric")
        .str("kind", "histogram")
        .str("name", name)
        .raw("count", snapshot.count)
        .raw("sum", snapshot.sum)
        .raw("p50", snapshot.quantile(0.50))
        .raw("p90", snapshot.quantile(0.90))
        .raw("p99", snapshot.quantile(0.99))
        .str("buckets", &snapshot.encode_buckets())
}

/// One per-level observability snapshot for the CLI's `--trace` streams.
/// `counters` and `phases` are *deltas* over the previous level (computed with
/// the `saturating_sub` helpers on [`SessionCounters`] / [`PhaseTimes`]), except
/// `arena_peak_bytes`, which is the run's high-water mark so far.
pub fn trace_frame(level: usize, counters: &SessionCounters, phases: &PhaseTimes) -> Frame {
    let mut frame = Frame::event("trace")
        .raw("level", level)
        .raw("steps", counters.search.steps)
        .raw("backjumps", counters.search.backjumps)
        .raw("pools_filled", counters.search.pools_filled)
        .raw("hub_verified_pools", counters.search.hub_verified_pools)
        .raw("cancel_polls", counters.search.cancel_polls)
        .raw("refine_rounds", counters.search.refine_rounds)
        .raw("overlap_probes", counters.overlap_probes)
        .raw("patterns_emitted", counters.patterns_emitted)
        .raw("evaluations_bounded", counters.evaluations_bounded)
        .raw("bound_decided", counters.bound_decided)
        .raw("arena_peak_bytes", counters.arena_peak_bytes);
    for phase in Phase::ALL {
        frame = frame.raw(&format!("{}_us", phase.name()), phases.nanos(phase) / 1_000);
    }
    frame
}

/// The stable machine code naming an [`FfsmError`] variant on the wire.
pub fn error_code(e: &FfsmError) -> &'static str {
    match e {
        FfsmError::Graph(_) => "graph",
        FfsmError::Update(_) => "update",
        FfsmError::InvalidConfig(_) => "invalid-config",
        FfsmError::UnknownMeasure(_) => "unknown-measure",
        FfsmError::UnknownOverlap(_) => "unknown-overlap",
        FfsmError::NotAntiMonotone(_) => "not-anti-monotone",
        FfsmError::Cancelled => "cancelled",
        FfsmError::DeadlineExceeded(_) => "deadline-exceeded",
        FfsmError::UnknownGraph(_) => "unknown-graph",
        FfsmError::Overloaded { .. } => "overloaded",
        FfsmError::Protocol(_) => "protocol",
        FfsmError::ShuttingDown => "shutting-down",
        FfsmError::Partition(_) => "partition",
    }
}

/// A typed error frame: stable `code` for dispatch plus the display message.
pub fn error_frame(e: &FfsmError) -> Frame {
    Frame::event("error").str("code", error_code(e)).str("message", &e.to_string())
}

/// Outcome of writing one frame to a consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameWrite {
    /// The frame reached the consumer (written and flushed).
    Written,
    /// The consumer went away — broken pipe, connection reset.  A normal way to
    /// stop consuming, not an I/O failure: the caller cancels the session's
    /// `CancelToken` and tears down cleanly.
    Disconnected,
}

/// Write one frame (a line, newline appended here) and flush it, classifying a
/// vanished consumer as [`FrameWrite::Disconnected`] instead of an error.  This
/// is the uniform teardown contract shared by the CLI stream paths and every
/// server connection.
pub fn write_frame<W: Write>(w: &mut W, frame: &str) -> std::io::Result<FrameWrite> {
    let outcome = writeln!(w, "{frame}").and_then(|()| w.flush());
    match outcome {
        Ok(()) => Ok(FrameWrite::Written),
        Err(e) if is_disconnect(&e) => Ok(FrameWrite::Disconnected),
        Err(e) => Err(e),
    }
}

/// `true` for I/O errors that mean "the consumer went away" rather than "the
/// write failed": broken pipe (closed stdout pipe, half-closed socket),
/// connection reset/aborted (TCP peer vanished), and write timeouts (a stalled
/// peer holding a worker hostage is indistinguishable from a dead one).
pub fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::LabeledGraph;

    fn sample_pattern() -> FrequentPattern {
        FrequentPattern {
            pattern: LabeledGraph::from_edges(&[0, 1], &[(0, 1)]),
            support: 5.0,
            num_occurrences: 12,
            support_interval: None,
            certificate: None,
        }
    }

    #[test]
    fn frame_builder_orders_keys_and_escapes() {
        let line = Frame::event("demo").raw("n", 3).str("s", "a\"b\n").finish();
        assert_eq!(line, "{\"event\": \"demo\", \"n\": 3, \"s\": \"a\\\"b\\n\"}");
    }

    #[test]
    fn id_is_appended_only_when_present() {
        assert_eq!(Frame::event("done").id(None).finish(), "{\"event\": \"done\"}");
        assert_eq!(Frame::event("done").id(Some(7)).finish(), "{\"event\": \"done\", \"id\": 7}");
    }

    #[test]
    fn pattern_frame_matches_the_cli_shape() {
        let line = pattern_frame(&sample_pattern(), None).finish();
        assert!(line.starts_with("{\"event\": \"pattern\", \"support\": 5, \"vertices\": 2"));
        assert!(line.contains("\"occurrences\": 12"));
        assert!(line.contains("\"pattern\": \"t 0\\nv 0 0\\nv 1 1\\ne 0 1\""));
        assert!(!line.contains("epoch"));
        let line = pattern_frame(&sample_pattern(), Some(3)).finish();
        assert!(line.starts_with("{\"event\": \"pattern\", \"epoch\": 3, \"support\": 5"));
    }

    #[test]
    fn bounds_first_patterns_carry_interval_and_certificate() {
        let mut p = sample_pattern();
        p.support_interval = Some(ffsm_miner::SupportInterval::new(5.0, 9.0));
        p.certificate = Some(ffsm_miner::Certificate::GreedyPacking);
        let line = pattern_frame(&p, None).finish();
        assert!(
            line.starts_with(
                "{\"event\": \"pattern\", \"support\": 5, \"support_lo\": 5, \
                 \"support_hi\": 9, \"certificate\": \"greedy-packing\""
            ),
            "{line}"
        );
        // The plain shape stays byte-identical: no interval fields at all.
        assert!(!pattern_frame(&sample_pattern(), None).finish().contains("support_lo"));
    }

    #[test]
    fn undecided_frame_reports_the_certified_interval() {
        let u = UndecidedPattern {
            pattern: LabeledGraph::from_edges(&[0, 1], &[(0, 1)]),
            interval: ffsm_miner::SupportInterval::new(0.0, 4.0),
            certificate: ffsm_miner::Certificate::IndexDegree,
        };
        let line = undecided_frame(&u).finish();
        assert!(
            line.starts_with(
                "{\"event\": \"undecided\", \"support_lo\": 0, \"support_hi\": 4, \
                 \"certificate\": \"index-degree\""
            ),
            "{line}"
        );
        assert!(line.contains("\"pattern\": \"t 0"));
    }

    #[test]
    fn finished_frame_reports_undecided_only_when_present() {
        let mut summary = RunSummary {
            completion: ffsm_miner::Completion::Complete,
            final_threshold: 2.0,
            num_patterns: 3,
            num_undecided: 0,
            stats: Default::default(),
        };
        assert!(!finished_frame(&summary).finish().contains("undecided"));
        summary.num_undecided = 2;
        summary.completion = ffsm_miner::Completion::DeadlineExceeded;
        let line = finished_frame(&summary).finish();
        assert!(line.contains("\"undecided\": 2"), "{line}");
    }

    #[test]
    fn metric_frames_stay_flat() {
        assert_eq!(
            counter_frame("steps", 7).finish(),
            "{\"event\": \"metric\", \"kind\": \"counter\", \"name\": \"steps\", \"value\": 7}"
        );
        assert_eq!(
            gauge_frame("queue_depth", -1).finish(),
            "{\"event\": \"metric\", \"kind\": \"gauge\", \"name\": \"queue_depth\", \
             \"value\": -1}"
        );
        let h = ffsm_obs::Histogram::default();
        h.record(3);
        h.record(100);
        let line = histogram_frame("latency_mine_us", &h.snapshot()).finish();
        assert!(line.contains("\"kind\": \"histogram\""));
        assert!(line.contains("\"count\": 2"));
        assert!(line.contains("\"sum\": 103"));
        assert!(line.contains("\"buckets\": \"2:1,7:1\""), "{line}");
        // Every value is a flat scalar — the protocol parser would reject
        // nested arrays, so buckets ride as an encoded string.
        assert!(!line.contains('['));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_string("x\t"), "\"x\\t\"");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn trace_frame_carries_counter_and_phase_deltas() {
        let mut counters = SessionCounters::default();
        counters.search.steps = 42;
        counters.overlap_probes = 7;
        let mut phases = PhaseTimes::default();
        phases.add_nanos(Phase::SupportEval, 3_000_000);
        let line = trace_frame(2, &counters, &phases).finish();
        assert!(line.starts_with("{\"event\": \"trace\", \"level\": 2, \"steps\": 42"));
        assert!(line.contains("\"overlap_probes\": 7"));
        assert!(line.contains("\"support_eval_us\": 3000"));
        assert!(line.contains("\"extension_us\": 0"));
        assert!(line.contains("\"evaluations_bounded\": 0"));
        assert!(line.contains("\"bound_decided\": 0"));
        assert!(line.contains("\"bounds_eval_us\": 0"));
    }

    #[test]
    fn error_frames_carry_stable_codes() {
        let line = error_frame(&FfsmError::Overloaded { capacity: 4 }).finish();
        assert!(line.contains("\"code\": \"overloaded\""));
        assert!(line.contains("capacity 4"));
        let line = error_frame(&FfsmError::UnknownGraph("g".into())).finish();
        assert!(line.contains("\"code\": \"unknown-graph\""));
        // Every variant has a distinct code.
        let all = [
            error_code(&FfsmError::Cancelled),
            error_code(&FfsmError::ShuttingDown),
            error_code(&FfsmError::Protocol(String::new())),
            error_code(&FfsmError::Overloaded { capacity: 0 }),
            error_code(&FfsmError::UnknownGraph(String::new())),
            error_code(&FfsmError::InvalidConfig(String::new())),
            error_code(&FfsmError::Partition(String::new())),
        ];
        let distinct: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(distinct.len(), all.len());
    }

    #[test]
    fn write_frame_classifies_disconnects() {
        let mut buf = Vec::new();
        assert_eq!(write_frame(&mut buf, "{}").unwrap(), FrameWrite::Written);
        assert_eq!(buf, b"{}\n");

        /// A sink whose consumer has gone away.
        struct BrokenPipe;
        impl Write for BrokenPipe {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::BrokenPipe))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert_eq!(write_frame(&mut BrokenPipe, "{}").unwrap(), FrameWrite::Disconnected);

        /// A sink with a genuine failure.
        struct DiskFull;
        impl Write for DiskFull {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert!(write_frame(&mut DiskFull, "{}").is_err());
    }
}
