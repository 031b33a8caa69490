//! `overlap` — overlap-graph construction on the overlap-heavy star workload
//! (experiment E4) at doubling occurrence counts, two ways per notion: the
//! retained naive all-pairs oracle and the indexed (inverted-index) builder.
//! Every build is cross-checked against the oracle's edge count.
//!
//! Gate: the indexed builder beats the naive oracle at the largest size.

use ffsm_bench::harness::Run;
use ffsm_bench::{timed, workloads};
use ffsm_core::{OccurrenceSet, OverlapAnalysis, OverlapKind};
use ffsm_graph::isomorphism::IsoConfig;

const MAX_OCCURRENCES: usize = 2048;

pub fn run(run: &mut Run) {
    let mut timings = Vec::new();
    for target in workloads::overlap_scaling_sizes(MAX_OCCURRENCES) {
        let (graph, pattern) = workloads::star_overlap_workload(target);
        let occurrences = OccurrenceSet::enumerate(&pattern, &graph, IsoConfig::default());
        let n = occurrences.num_occurrences();
        let analysis = OverlapAnalysis::new(&occurrences);
        // Warm the lazily-built inverted index, so the per-kind timings below
        // compare builders, not one-time index setup.
        analysis.overlap_graph_indexed(OverlapKind::Simple);
        for kind in [OverlapKind::Simple, OverlapKind::Structural] {
            let (naive_graph, naive) = timed(|| analysis.overlap_graph_naive(kind));
            let (indexed_graph, indexed) = timed(|| analysis.overlap_graph_indexed(kind));
            let edges = naive_graph.num_edges();
            assert_eq!(indexed_graph.num_edges(), edges, "indexed diverged ({kind}, {n} occ)");
            let speedup = naive.as_secs_f64() / indexed.as_secs_f64().max(1e-9);
            run.record(
                run.entry()
                    .raw("occurrences", n)
                    .str("kind", &kind.name())
                    .raw("edges", edges)
                    .raw("naive_us", naive.as_micros())
                    .raw("indexed_us", indexed.as_micros())
                    .raw("speedup", format!("{speedup:.2}")),
            );
            timings.push((n, kind, naive, indexed));
        }
    }
    let (n, _, naive, indexed) = *timings.iter().max_by_key(|t| (t.0, t.1)).expect("sizes ran");
    run.gate(
        "indexed_beats_naive",
        indexed < naive,
        format!("indexed builder {indexed:?} not faster than naive {naive:?} at {n} occurrences"),
    );
}
