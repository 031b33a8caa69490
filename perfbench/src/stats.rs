//! Measurement helpers shared by every workload: exact quantiles over raw
//! samples, in-memory spans with self time, result digests, per-run deltas of
//! cumulative counters, and the one-line JSON result.

use ffsm_graph::canonical::{canonical_code, CanonicalCode};
use ffsm_miner::MiningResult;
use ffsm_shard::ShardStoreStats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The `q`-quantile of `sorted` (ascending, non-empty), interpolating linearly
/// between the two closest ranks.  Always computed from the raw samples, never
/// from a bucketed histogram.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let h = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

/// Raw latency (or duration) samples of one kind.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `q`-quantile, or `None` without samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        Some(quantile(&sorted, q))
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The fastest sample: the time the work takes when the host lets it run
    /// at full speed.
    pub fn min(&self) -> Option<f64> {
        self.quantile(0.0)
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// `"p50 1.234 ms (n = 12)"`-style rendering; every printed percentile
    /// carries its sample count.
    pub fn describe(&self, q: f64, unit: &str) -> String {
        match self.quantile(q) {
            Some(v) => format!("p{:.0} {v:.3} {unit} (n = {})", q * 100.0, self.len()),
            None => format!("p{:.0} - (n = 0)", q * 100.0),
        }
    }
}

/// Run `set_up` at least once and until `at_least` has passed (at most 5000
/// times), dropping each product before the next; returns the last product
/// and the durations in seconds.  The workloads call it at the start and
/// again during or after the timed loop: the host's CPU speed swings over
/// seconds, and set-up samples taken all at once would see only one swing.
pub fn repeat_set_up<T>(mut set_up: impl FnMut() -> T, at_least: Duration) -> (T, Samples) {
    let start = Instant::now();
    let mut times = Samples::default();
    let mut last = None;
    while times.is_empty() || (start.elapsed() < at_least && times.len() < 5000) {
        drop(last.take());
        let t = Instant::now();
        last = Some(set_up());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("set up at least once"), times)
}

/// One recorded span: a layer call made by the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Run or request the span belongs to.
    pub run: u64,
}

/// Spans kept in memory for the whole run and written out once at its end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), run: 0 }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tag the spans opened from now on with run/request `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            run: self.run,
        };
        self.spans.push(span);
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans as NDJSON, one object per line.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"run\": {}}}\n",
                s.name, s.start_ns, s.end_ns, s.run
            ));
        }
        out
    }
}

/// Total self time per span name, in nanoseconds: each span's duration minus
/// the part of its interval that its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut totals = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(cursor), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                cursor = b;
            }
        }
        *totals.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    totals
}

/// What a mining result must reproduce: each frequent pattern's canonical
/// code, the bits of its support and its occurrence count, sorted by code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest(Vec<(CanonicalCode, u64, usize)>);

impl Digest {
    pub fn new(patterns: impl IntoIterator<Item = (CanonicalCode, f64, usize)>) -> Self {
        let mut rows: Vec<_> =
            patterns.into_iter().map(|(code, s, occ)| (code, s.to_bits(), occ)).collect();
        rows.sort();
        Digest(rows)
    }

    pub fn of(result: &MiningResult) -> Self {
        Digest::new(
            result
                .patterns
                .iter()
                .map(|p| (canonical_code(&p.pattern), p.support, p.num_occurrences)),
        )
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// FNV-1a over the rows, for printing.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |w: u64| {
            h ^= w;
            h = h.wrapping_mul(0x0100_0000_01b3);
        };
        for (code, support, occ) in &self.0 {
            code.as_slice().iter().for_each(|&w| eat(w));
            eat(*support);
            eat(*occ as u64);
        }
        h
    }
}

/// Per-run change of a shard store's counters.  `loads`, `evictions` and
/// `load_nanos` accumulate over the partition's life, so they are differenced;
/// `peak_resident_bytes` is a high-water mark and is taken as it stands.
pub fn store_delta(before: &ShardStoreStats, after: &ShardStoreStats) -> ShardStoreStats {
    ShardStoreStats {
        loads: after.loads - before.loads,
        evictions: after.evictions - before.evictions,
        load_nanos: after.load_nanos - before.load_nanos,
        ..*after
    }
}

/// One named metric of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric { name: name.to_string(), value, unit }
    }
}

/// The last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::{patterns, Label};

    #[test]
    fn quantiles_are_exact_on_a_known_sample() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 5.5);
        assert!((quantile(&sorted, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&sorted, 1.0), 10.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        let mut s = Samples::default();
        for v in [131.0, 2.0, 9.0, 4.0, 5.0] {
            s.push(v);
        }
        assert_eq!(s.median(), Some(5.0));
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.quantile(0.75), Some(9.0));
        assert!((s.quantile(0.9).unwrap() - 82.2).abs() < 1e-9);
        assert_eq!(s.describe(0.5, "ms"), "p50 5.000 ms (n = 5)");
        assert_eq!(Samples::default().median(), None);
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, run: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 30, 50, Some(0)),
            span("a", 60, 70, Some(0)),
            span("leaf", 12, 15, Some(1)),
        ];
        let t = self_times(&spans);
        // Children of root cover [10, 50) and [60, 70): 50 ns.
        assert_eq!(t["root"], 50);
        assert_eq!(t["a"], 20 - 3 + 10);
        assert_eq!(t["b"], 20);
        assert_eq!(t["leaf"], 3);
        let total: u64 = t.values().sum();
        assert_eq!(total, 100, "self times of nested spans partition the root interval");
        // Overlapping children (work on other threads) are subtracted once.
        let overlapping =
            vec![span("p", 0, 10, None), span("c", 2, 6, Some(0)), span("d", 4, 8, Some(0))];
        assert_eq!(self_times(&overlapping)["p"], 4);
    }

    #[test]
    fn tracer_nests_spans_and_tags_runs() {
        let mut tracer = Tracer::default();
        tracer.set_run(3);
        tracer.enter("outer");
        let v = tracer.time("inner", || 41 + 1);
        tracer.exit();
        assert_eq!(v, 42);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 3 && s.end_ns >= s.start_ns));
        assert_eq!(tracer.to_ndjson().lines().count(), 2);
    }

    #[test]
    fn digest_ignores_order_and_sees_support_and_count() {
        let a = patterns::single_edge(Label(0), Label(1));
        let b = patterns::single_edge(Label(1), Label(1));
        let row = |p: &ffsm_graph::Pattern, s: f64, n: usize| (canonical_code(p), s, n);
        let one = Digest::new([row(&a, 3.0, 5), row(&b, 2.0, 4)]);
        let two = Digest::new([row(&b, 2.0, 4), row(&a, 3.0, 5)]);
        assert_eq!(one, two);
        assert_eq!(one.fingerprint(), two.fingerprint());
        assert_ne!(one, Digest::new([row(&a, 3.0, 5), row(&b, 2.5, 4)]));
        assert_ne!(one, Digest::new([row(&a, 3.0, 5), row(&b, 2.0, 6)]));
        assert_ne!(one, Digest::new([row(&a, 3.0, 5)]));
    }

    #[test]
    fn cumulative_store_counters_become_per_run_deltas() {
        let at = |loads, nanos, peak| ShardStoreStats {
            loads,
            evictions: loads / 2,
            load_nanos: nanos,
            peak_resident_bytes: peak,
            ..ShardStoreStats::default()
        };
        let runs = [at(0, 0, 10), at(588, 700, 90), at(1176, 1500, 95), at(1764, 2200, 95)];
        for pair in runs.windows(2) {
            let d = store_delta(&pair[0], &pair[1]);
            assert_eq!(d.loads, 588);
            assert_eq!(d.evictions, 294);
            assert_eq!(d.peak_resident_bytes, pair[1].peak_resident_bytes);
        }
        assert_eq!(store_delta(&runs[1], &runs[2]).load_nanos, 800);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[Metric::new("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
