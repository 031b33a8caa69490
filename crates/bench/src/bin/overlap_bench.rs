//! `overlap_bench` — the `overlap_scaling` workload behind `BENCH_overlap.json`.
//!
//! Scales the occurrence count of the overlap-heavy star workload (experiment E4)
//! and times overlap-graph construction three ways per notion: the retained naive
//! all-pairs oracle, the indexed (inverted-index) builder, and the indexed builder
//! with one worker per core.  Every timed build is cross-checked against the oracle's
//! edge count, so the bench doubles as an integration test of the equivalence.
//!
//! Usage: `overlap_bench [--max-occurrences N] [--out PATH]`
//! (defaults: 2048 occurrences, `BENCH_overlap.json` in the working directory).
//!
//! The JSON report is a flat list of entries (`occurrences`, `kind`, `edges`,
//! `naive_us`, `indexed_us`, `parallel_us`, `speedup`) consumed by the CI artifact
//! upload; future PRs extend the trajectory rather than reformatting it.

use ffsm_bench::report::Table;
use ffsm_bench::{flag_value, format_duration, timed, workloads};
use ffsm_core::{OccurrenceSet, OverlapAnalysis, OverlapKind};
use ffsm_graph::isomorphism::IsoConfig;
use ffsm_serve::events::json_string;
use std::time::Duration;

struct Entry {
    occurrences: usize,
    kind: OverlapKind,
    edges: usize,
    naive: Duration,
    indexed: Duration,
    parallel: Duration,
}

impl Entry {
    fn speedup(&self) -> f64 {
        self.naive.as_secs_f64() / self.indexed.as_secs_f64().max(1e-9)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"occurrences\": {}, \"kind\": {}, \"edges\": {}, \"naive_us\": {}, \
             \"indexed_us\": {}, \"parallel_us\": {}, \"speedup\": {:.2}}}",
            self.occurrences,
            json_string(&self.kind.name()),
            self.edges,
            self.naive.as_micros(),
            self.indexed.as_micros(),
            self.parallel.as_micros(),
            self.speedup()
        )
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let max: usize = flag_value(&args, "--max-occurrences")
        .map(|v| v.parse().expect("--max-occurrences expects a number"))
        .unwrap_or(2048);
    let out_path = flag_value(&args, "--out").unwrap_or("BENCH_overlap.json").to_string();

    let mut entries: Vec<Entry> = Vec::new();
    let mut table = Table::new(
        "overlap_scaling: naive vs indexed overlap-graph construction",
        &["occurrences", "kind", "edges", "naive", "indexed", "parallel", "speedup"],
    );
    for target in workloads::overlap_scaling_sizes(max) {
        let (graph, pattern) = workloads::star_overlap_workload(target);
        let occurrences = OccurrenceSet::enumerate(&pattern, &graph, IsoConfig::default());
        let analysis = OverlapAnalysis::new(&occurrences);
        // Warm the lazily-built inverted index (and report its cost separately), so
        // the per-kind timings below compare builders, not one-time index setup.
        let (_, index_time) = timed(|| analysis.overlap_graph_indexed(OverlapKind::Simple));
        eprintln!(
            "index warm-up at {} occurrences: {}",
            occurrences.num_occurrences(),
            format_duration(index_time)
        );
        for kind in [OverlapKind::Simple, OverlapKind::Structural] {
            let (naive_graph, naive) = timed(|| analysis.overlap_graph_naive(kind));
            let (indexed_graph, indexed) = timed(|| analysis.overlap_graph_indexed(kind));
            let (parallel_graph, parallel) = timed(|| analysis.overlap_graph_parallel(kind, 0));
            assert_eq!(
                indexed_graph.num_edges(),
                naive_graph.num_edges(),
                "indexed builder diverged from the oracle ({kind}, {target} occurrences)"
            );
            assert_eq!(
                parallel_graph.num_edges(),
                naive_graph.num_edges(),
                "parallel builder diverged from the oracle ({kind}, {target} occurrences)"
            );
            let entry = Entry {
                occurrences: occurrences.num_occurrences(),
                kind,
                edges: naive_graph.num_edges(),
                naive,
                indexed,
                parallel,
            };
            table.add_row(vec![
                entry.occurrences.to_string(),
                kind.name(),
                entry.edges.to_string(),
                format_duration(entry.naive),
                format_duration(entry.indexed),
                format_duration(entry.parallel),
                format!("{:.2}x", entry.speedup()),
            ]);
            entries.push(entry);
        }
    }
    table.print();

    let body: Vec<String> = entries.iter().map(|e| format!("    {}", e.to_json())).collect();
    let json = format!(
        "{{\n  \"bench\": \"overlap_scaling\",\n  \"workload\": \"star_overlap(single edge)\",\n  \
         \"entries\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write perf report");
    println!("wrote {out_path} ({} entries)", entries.len());

    if let Some(largest) = entries.iter().max_by_key(|e| (e.occurrences, e.kind)) {
        assert!(
            largest.indexed < largest.naive,
            "indexed builder no faster than naive on the largest workload \
             ({:?} vs {:?} at {} occurrences)",
            largest.indexed,
            largest.naive,
            largest.occurrences
        );
    }
}
