//! `match` — the subgraph-matching engines on three sweeps:
//!
//! * **decoy** — the layered decoy-cycle workload, where the naive oracle walks
//!   `Θ(n⁴)` doomed partial paths and the candidate-space engine prunes the
//!   whole block before searching;
//! * **dense triangle** — disjoint cliques, many embeddings per candidate;
//! * **dense community** — the two-label matcher pathology, where the label
//!   filter prunes almost nothing.  Each entry also times a *seed-equivalent*
//!   search (the pre-fix loop) over the same candidate space; both sides count
//!   without materialising, so the ratio measures the search loops themselves.
//!
//! Every run is cross-checked against the naive oracle's embedding count.
//!
//! Gates, on the largest decoy / dense-community sizes: the candidate-space
//! engine is ≥ 5x faster than naive on decoy; the fixed search loop is ≥ 1.5x
//! faster than the seed-equivalent one on dense community.
//!
//! A fourth arm, **space cap**, mines a sparse gnm graph under MNI, where a
//! candidate's space is seeded from its parent's and a seeded list shorter than
//! τ decides the candidate before any search.  It gates on deterministic work,
//! not wall time: at least 80% of the candidates past the seed level are capped,
//! and the frequent patterns (pattern, support bits, occurrence count, order)
//! equal the naive backend's, which has no candidate space to cap with.

use ffsm_bench::harness::Run;
use ffsm_bench::{timed, workloads};
use ffsm_graph::generators::gnm_random;
use ffsm_graph::isomorphism::{enumerate_embeddings, EnumeratorBackend, IsoConfig};
use ffsm_graph::{LabeledGraph, Pattern, VertexId};
use ffsm_match::{GraphIndex, Matcher};
use ffsm_miner::extension::seed_patterns;
use ffsm_miner::{MiningResult, MiningSession, PreparedGraph};
use std::time::Duration;

const MAX_LAYER: usize = 64;
const DENSE_COPIES: usize = 2000;
const COMMUNITY_SIZE: usize = 32;

struct Entry {
    workload: &'static str,
    size: usize,
    embeddings: usize,
    naive: Duration,
    /// Candidate-space + matching-order build (the per-pattern setup cost).
    space: Duration,
    /// Sequential enumeration over the prepared space.
    indexed: Duration,
    /// Sequential counting over the prepared space — the search loop without the
    /// cost of materialising embeddings; the fixed side of the seed-equivalent gate.
    count: Duration,
    /// The pre-fix search loop over the same candidate space (counting only).
    seed_equiv: Duration,
}

impl Entry {
    /// Naive time over the *total* per-pattern indexed cost (setup + search).
    fn speedup(&self) -> f64 {
        self.naive.as_secs_f64() / (self.space + self.indexed).as_secs_f64().max(1e-9)
    }
}

/// The seed's search loop, re-implemented over the public API exactly as it ran
/// before the dense-graph fix (the old `run_search` of `enumerate.rs`): the
/// per-depth pool is the *unfiltered* adjacency slice of the earlier-matched
/// neighbor whose image has the fewest data neighbors, and every pool element
/// then pays the full feasibility ladder — a `used` probe, candidate-set
/// membership (a binary search), and a `has_edge` binary search against **every**
/// earlier pattern neighbor, the pivot included.  Nothing is word-parallel,
/// exhausted subtrees backtrack one level at a time (no backjumping), and all
/// search buffers are allocated fresh per call.  Non-induced semantics, counting
/// only — enough to time the search loop itself.
fn seed_equivalent_count(graph: &LabeledGraph, pattern: &Pattern, matcher: &Matcher) -> usize {
    let space = matcher.space();
    let order = matcher.matching_order();
    let n = order.len();
    if n == 0 || space.has_empty_set() {
        return 0;
    }
    // Earlier-in-order pattern neighbors of each order position.
    let earlier: Vec<Vec<VertexId>> = order
        .iter()
        .enumerate()
        .map(|(d, &u)| {
            pattern.neighbors(u).iter().copied().filter(|w| order[..d].contains(w)).collect()
        })
        .collect();
    let mut assignment: Vec<VertexId> = vec![VertexId::MAX; pattern.num_vertices()];
    let mut used = vec![false; graph.num_vertices()];
    let mut pools: Vec<&[VertexId]> = vec![&[]; n];
    let mut pos = vec![0usize; n];
    let mut count = 0usize;

    // Pool selection as in the seed: the earlier neighbor with the smallest-degree
    // image donates its whole adjacency list; membership in the candidate set is
    // re-checked per element inside the feasibility ladder.
    let pool_for = |depth: usize, assignment: &[VertexId]| -> &[VertexId] {
        earlier[depth]
            .iter()
            .copied()
            .min_by_key(|&pn| graph.degree(assignment[pn as usize]))
            .map(|pn| graph.neighbors(assignment[pn as usize]))
            .unwrap_or_else(|| space.candidates(order[depth]))
    };
    let feasible = |depth: usize, gv: VertexId, assignment: &[VertexId], used: &[bool]| -> bool {
        if used[gv as usize] {
            return false;
        }
        if !space.contains(order[depth], gv) {
            return false;
        }
        earlier[depth].iter().all(|&pn| graph.has_edge(gv, assignment[pn as usize]))
    };

    pools[0] = space.candidates(order[0]);
    let mut depth = 0usize;
    loop {
        let u = order[depth];
        let mut descended = false;
        while pos[depth] < pools[depth].len() {
            let gv = pools[depth][pos[depth]];
            pos[depth] += 1;
            if !feasible(depth, gv, &assignment, &used) {
                continue;
            }
            if depth + 1 == n {
                count += 1;
                continue;
            }
            assignment[u as usize] = gv;
            used[gv as usize] = true;
            depth += 1;
            pools[depth] = pool_for(depth, &assignment);
            pos[depth] = 0;
            descended = true;
            break;
        }
        if descended {
            continue;
        }
        if depth == 0 {
            break;
        }
        depth -= 1;
        let pu = order[depth];
        used[assignment[pu as usize] as usize] = false;
        assignment[pu as usize] = VertexId::MAX;
    }
    count
}

/// Run one workload through both engines, cross-checking all embedding counts
/// against the naive oracle.
fn measure(workload: &'static str, size: usize, graph: &LabeledGraph, pattern: &Pattern) -> Entry {
    let naive_config = IsoConfig::default().with_backend(EnumeratorBackend::Naive);
    let (naive_result, naive) = timed(|| enumerate_embeddings(pattern, graph, naive_config));
    assert!(naive_result.complete, "naive run must finish ({workload}, size {size})");
    let expected = naive_result.len();

    // The per-graph index is the once-per-session cost; time the per-pattern
    // work (candidate space + search) like the miner sees it.
    let index = GraphIndex::build(graph);
    let (matcher, space) = timed(|| Matcher::new(pattern, graph, &index));
    let (result, indexed) = timed(|| matcher.enumerate(IsoConfig::default()));
    assert_eq!(result.len(), expected, "indexed diverged ({workload}/{size})");

    let (counted, count) = timed(|| matcher.count(IsoConfig::default()));
    assert_eq!(counted, (expected, true), "counting diverged ({workload}/{size})");
    let (seed_count, seed_equiv) = timed(|| seed_equivalent_count(graph, pattern, &matcher));
    assert_eq!(seed_count, expected, "seed-equivalent search diverged ({workload}/{size})");

    Entry { workload, size, embeddings: expected, naive, space, indexed, count, seed_equiv }
}

/// The space-cap arm (see the module docs): one MNI mine per backend over a
/// sparse gnm graph, reported and gated on counters.
fn space_cap(run: &mut Run) {
    let graph = gnm_random(3000, 6000, 16, 7);
    let seeds = seed_patterns(&graph).len();
    let prepared = PreparedGraph::new(graph);
    let mine = |backend| {
        MiningSession::over(&prepared)
            .min_support(15.0)
            .max_edges(3)
            .enumerator(backend)
            .run()
            .expect("valid session")
    };
    let (indexed, indexed_time) = timed(|| mine(EnumeratorBackend::CandidateSpace));
    let (naive, naive_time) = timed(|| mine(EnumeratorBackend::Naive));
    let listing = |result: &MiningResult| -> Vec<(Pattern, u64, usize)> {
        let patterns = result.patterns.iter();
        patterns.map(|p| (p.pattern.clone(), p.support.to_bits(), p.num_occurrences)).collect()
    };
    let later = indexed.stats.candidates_evaluated - seeds;
    let capped = indexed.stats.counters.space_capped as usize;
    run.record(
        run.entry()
            .str("workload", "space_cap")
            .raw("evaluated", indexed.stats.candidates_evaluated)
            .raw("past_seeds", later)
            .raw("space_capped", capped)
            .raw("refine_rounds", indexed.stats.counters.search.refine_rounds)
            .raw("steps", indexed.stats.counters.search.steps)
            .raw("patterns", indexed.patterns.len())
            .raw("indexed_us", indexed_time.as_micros())
            .raw("naive_us", naive_time.as_micros()),
    );
    run.gate(
        "space_cap_share",
        capped * 5 >= later * 4,
        format!("only {capped} of {later} candidates past the seeds capped; floor 80%"),
    );
    run.gate(
        "space_cap_same_patterns",
        listing(&indexed) == listing(&naive),
        format!(
            "capped mine found {} patterns, naive mine {}, or their supports differ",
            indexed.patterns.len(),
            naive.patterns.len()
        ),
    );
}

pub fn run(run: &mut Run) {
    let mut entries: Vec<Entry> = Vec::new();
    for layer in workloads::match_scaling_sizes(MAX_LAYER) {
        let (graph, pattern) = workloads::decoy_cycle_workload(layer, 8);
        entries.push(measure("decoy_cycle", layer, &graph, &pattern));
    }
    for copies in [DENSE_COPIES / 4, DENSE_COPIES] {
        let (graph, pattern) = workloads::dense_triangle_workload(copies);
        entries.push(measure("dense_triangle", copies, &graph, &pattern));
    }
    for size in [COMMUNITY_SIZE / 2, COMMUNITY_SIZE] {
        let (graph, pattern) = workloads::dense_community_workload(size);
        entries.push(measure("dense_community", size, &graph, &pattern));
    }
    space_cap(run);
    for e in &entries {
        run.record(
            run.entry()
                .str("workload", e.workload)
                .raw("size", e.size)
                .raw("embeddings", e.embeddings)
                .raw("naive_us", e.naive.as_micros())
                .raw("space_us", e.space.as_micros())
                .raw("indexed_us", e.indexed.as_micros())
                .raw("count_us", e.count.as_micros())
                .raw("seed_equiv_us", e.seed_equiv.as_micros())
                .raw("speedup", format!("{:.2}", e.speedup())),
        );
    }

    let largest = |workload: &str| {
        entries.iter().filter(|e| e.workload == workload).max_by_key(|e| e.size).expect("swept")
    };
    let decoy = largest("decoy_cycle");
    run.gate(
        "decoy_speedup",
        decoy.speedup() >= 5.0,
        format!(
            "candidate-space engine only {:.2}x faster than naive at decoy layer {} \
             ({:?} vs {:?}); floor 5x",
            decoy.speedup(),
            decoy.size,
            decoy.space + decoy.indexed,
            decoy.naive
        ),
    );
    // Conservative: both sides share the same (word-parallel) space build.
    let dense = largest("dense_community");
    let dense_gain = dense.seed_equiv.as_secs_f64() / dense.count.as_secs_f64().max(1e-9);
    run.gate(
        "dense_over_seed_equivalent",
        dense_gain >= 1.5,
        format!(
            "fixed matcher only {dense_gain:.2}x over the seed-equivalent search at community \
             size {} ({:?} vs {:?}); floor 1.5x",
            dense.size, dense.count, dense.seed_equiv
        ),
    );
}
