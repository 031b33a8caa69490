//! `match_bench` — the `match_scaling` workload behind `BENCH_match.json`.
//!
//! Three sweeps over the subgraph-matching engines:
//!
//! * **decoy sweep** — the layered decoy-cycle workload (`workloads::
//!   decoy_cycle_workload`), where the naive oracle walks `Θ(n⁴)` doomed partial
//!   paths and the candidate-space engine prunes the whole block before searching.
//!   This is the headline naive-vs-indexed comparison; the largest size asserts the
//!   ≥ 5x speedup the subsystem promises.
//! * **dense sweep** — the embedding-heavy disjoint-clique workload
//!   (`workloads::dense_triangle_workload`), timing the indexed engine at 1, 2, 4
//!   and 8 worker threads to chart the deterministic root-partition parallelism.
//! * **dense-community sweep** — the two-label dense-community workload
//!   (`workloads::dense_community_workload`), the matcher pathology where the label
//!   filter prunes almost nothing.  Each entry also times a **seed-equivalent**
//!   search (the pre-fix loop: always-pivot-adjacency pools with per-vertex
//!   membership tests, no word-parallel intersection, no backjumping, fresh
//!   allocations per pattern) over the same candidate space; the largest size
//!   asserts the fixed search loop beats it by ≥ 1.5x.  Both sides of that gate
//!   count without materialising (`count_us` vs `seed_equiv_us`), so the ratio
//!   measures the search loops themselves rather than the shared cost of
//!   allocating a six-figure embedding vector.
//!
//! Every entry additionally times the `Auto` backend end to end (heuristic decision
//! plus whichever engine it resolves to, counting without materialising); on the
//! largest decoy and dense-community entries `Auto` must stay within 10% (plus a
//! small absolute grace) of the better fixed backend's counting cost.  Counting on
//! both sides keeps the gate about the heuristic + search loop rather than the
//! multi-millisecond allocation noise of materialising six-figure embedding
//! vectors.
//!
//! Every timed run is cross-checked against the naive oracle's embedding count, so
//! the bench doubles as an integration test of the engines' equivalence.
//!
//! Usage: `match_bench [--max-layer N] [--dense-copies N] [--community-size N] [--out PATH]`
//! (defaults: layer 64, 2000 copies, community size 32, `BENCH_match.json` in the
//! working directory).
//!
//! The JSON report is a flat list of entries (`workload`, `size`, `embeddings`,
//! `naive_us`, `space_us`, `indexed_us`, `t2_us`, `t4_us`, `t8_us`, `count_us`,
//! `seed_equiv_us`, `auto_us`, `speedup`) consumed by the CI artifact upload; future
//! PRs extend the trajectory rather than reformatting it.

use ffsm_bench::report::Table;
use ffsm_bench::{flag_value, format_duration, timed, workloads};
use ffsm_graph::isomorphism::{
    count_embeddings, enumerate_embeddings, EnumeratorBackend, IsoConfig,
};
use ffsm_graph::{LabeledGraph, Pattern, VertexId};
use ffsm_match::{auto_backend, GraphIndex, Matcher};
use ffsm_serve::events::json_string;
use std::time::Duration;

struct Entry {
    workload: &'static str,
    size: usize,
    embeddings: usize,
    naive: Duration,
    /// Candidate-space + matching-order build (the per-pattern setup cost).
    space: Duration,
    /// Sequential enumeration over the prepared space.
    indexed: Duration,
    threaded: [Duration; 3], // 2, 4, 8 workers, enumeration only
    /// Sequential counting over the prepared space — the search loop without the
    /// cost of materialising embeddings; the fixed side of the seed-equivalent gate.
    count: Duration,
    /// The pre-fix search loop over the same candidate space (counting only).
    seed_equiv: Duration,
    /// The `Auto` backend end to end: heuristic decision + resolved engine
    /// (including the candidate-space build when it resolves there), counting
    /// without materialising — the same discipline as `count`/`seed_equiv`.
    auto: Duration,
}

impl Entry {
    /// Naive time over the *total* per-pattern indexed cost (setup + search).
    fn speedup(&self) -> f64 {
        self.naive.as_secs_f64() / (self.space + self.indexed).as_secs_f64().max(1e-9)
    }

    /// Counting cost of the better *fixed* backend — what the (counting) `Auto`
    /// measurement competes with.  The naive side reuses the materialising run,
    /// which can only overstate the naive cost and therefore never loosens the
    /// gate in `Auto`'s favour when the fixed engine is the faster one.
    fn best_fixed_count(&self) -> Duration {
        self.naive.min(self.space + self.count)
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"workload\": {}, \"size\": {}, \"embeddings\": {}, \"naive_us\": {}, \
             \"space_us\": {}, \"indexed_us\": {}, \"t2_us\": {}, \"t4_us\": {}, \
             \"t8_us\": {}, \"count_us\": {}, \"seed_equiv_us\": {}, \"auto_us\": {}, \
             \"speedup\": {:.2}}}",
            json_string(self.workload),
            self.size,
            self.embeddings,
            self.naive.as_micros(),
            self.space.as_micros(),
            self.indexed.as_micros(),
            self.threaded[0].as_micros(),
            self.threaded[1].as_micros(),
            self.threaded[2].as_micros(),
            self.count.as_micros(),
            self.seed_equiv.as_micros(),
            self.auto.as_micros(),
            self.speedup()
        )
    }
}

/// The seed's search loop, re-implemented over the public API exactly as it ran
/// before the dense-graph fix (see `run_search` in PR 4's `enumerate.rs`): the
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

/// Run one workload through both engines and every thread count, cross-checking all
/// embedding counts against the naive oracle.
fn measure(workload: &'static str, size: usize, graph: &LabeledGraph, pattern: &Pattern) -> Entry {
    let naive_config = IsoConfig::default().with_backend(EnumeratorBackend::Naive);
    let (naive_result, naive) = timed(|| enumerate_embeddings(pattern, graph, naive_config));
    assert!(naive_result.complete, "naive run must finish ({workload}, size {size})");

    // The per-graph index is the once-per-session cost; report it out of band and
    // time the per-pattern work (candidate space + search) like the miner sees it.
    let (index, index_time) = timed(|| GraphIndex::build(graph));
    eprintln!("index build at {workload}/{size}: {}", format_duration(index_time));

    let (matcher, space) = timed(|| Matcher::new(pattern, graph, &index));
    let run_indexed = |threads: usize| -> (usize, Duration) {
        let config = IsoConfig { threads, ..IsoConfig::default() };
        let (result, elapsed) = timed(|| matcher.enumerate(config));
        assert_eq!(
            result.len(),
            naive_result.len(),
            "candidate-space engine diverged from the oracle ({workload}, size {size}, \
             {threads} threads)"
        );
        (result.len(), elapsed)
    };
    let (embeddings, indexed) = run_indexed(1);
    let threaded = [run_indexed(2).1, run_indexed(4).1, run_indexed(8).1];

    let ((counted, count_complete), count) = timed(|| matcher.count(IsoConfig::default()));
    assert_eq!(
        (counted, count_complete),
        (naive_result.len(), true),
        "counting path diverged from the oracle ({workload}, size {size})"
    );

    let (seed_count, seed_equiv) = timed(|| seed_equivalent_count(graph, pattern, &matcher));
    assert_eq!(
        seed_count,
        naive_result.len(),
        "seed-equivalent search diverged from the oracle ({workload}, size {size})"
    );

    // `Auto` end to end: the per-pattern cost a miner sees with the shared index
    // already built — heuristic decision plus the engine it resolves to, counting
    // without materialising so the measurement is comparable to the `count` column
    // it is gated against.  Best of three to suppress single-sample scheduler
    // noise.
    let mut auto = Duration::MAX;
    for _ in 0..3 {
        let (auto_count, sample) = timed(|| match auto_backend(pattern, &index) {
            EnumeratorBackend::Naive => count_embeddings(pattern, graph, IsoConfig::default()),
            _ => Matcher::new(pattern, graph, &index).count(IsoConfig::default()).0,
        });
        assert_eq!(
            auto_count,
            naive_result.len(),
            "auto backend diverged from the oracle ({workload}, size {size})"
        );
        auto = auto.min(sample);
    }

    Entry { workload, size, embeddings, naive, space, indexed, threaded, count, seed_equiv, auto }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let max_layer: usize = flag_value(&args, "--max-layer")
        .map(|v| v.parse().expect("--max-layer expects a number"))
        .unwrap_or(64);
    let dense_copies: usize = flag_value(&args, "--dense-copies")
        .map(|v| v.parse().expect("--dense-copies expects a number"))
        .unwrap_or(2000);
    let community_size: usize = flag_value(&args, "--community-size")
        .map(|v| v.parse().expect("--community-size expects a number"))
        .unwrap_or(32);
    let out_path = flag_value(&args, "--out").unwrap_or("BENCH_match.json").to_string();

    let mut entries: Vec<Entry> = Vec::new();
    let mut table = Table::new(
        "match_scaling: naive vs candidate-space embedding enumeration",
        &[
            "workload",
            "size",
            "embeddings",
            "naive",
            "space",
            "indexed",
            "x2",
            "x4",
            "x8",
            "count",
            "seed-equiv",
            "auto",
            "speedup",
        ],
    );
    for layer in workloads::match_scaling_sizes(max_layer) {
        let (graph, pattern) = workloads::decoy_cycle_workload(layer, 8);
        entries.push(measure("decoy_cycle", layer, &graph, &pattern));
    }
    for copies in [dense_copies / 4, dense_copies] {
        let (graph, pattern) = workloads::dense_triangle_workload(copies.max(1));
        entries.push(measure("dense_triangle", copies.max(1), &graph, &pattern));
    }
    for size in [community_size / 2, community_size] {
        let (graph, pattern) = workloads::dense_community_workload(size.max(4));
        entries.push(measure("dense_community", size.max(4), &graph, &pattern));
    }
    for e in &entries {
        table.add_row(vec![
            e.workload.to_string(),
            e.size.to_string(),
            e.embeddings.to_string(),
            format_duration(e.naive),
            format_duration(e.space),
            format_duration(e.indexed),
            format_duration(e.threaded[0]),
            format_duration(e.threaded[1]),
            format_duration(e.threaded[2]),
            format_duration(e.count),
            format_duration(e.seed_equiv),
            format_duration(e.auto),
            format!("{:.2}x", e.speedup()),
        ]);
    }
    table.print();

    let body: Vec<String> = entries.iter().map(|e| format!("    {}", e.to_json())).collect();
    let json = format!(
        "{{\n  \"bench\": \"match_scaling\",\n  \"workloads\": [\"decoy_cycle(4-cycle)\", \
         \"dense_triangle\", \"dense_community\"],\n  \"entries\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write perf report");
    println!("wrote {out_path} ({} entries)", entries.len());

    // Acceptance gate 1: on the largest decoy workload, the candidate-space engine
    // must beat the naive oracle by at least 5x.
    let largest_decoy = entries
        .iter()
        .filter(|e| e.workload == "decoy_cycle")
        .max_by_key(|e| e.size)
        .expect("decoy sweep ran");
    assert!(
        largest_decoy.speedup() >= 5.0,
        "candidate-space engine only {:.2}x faster than naive on the largest decoy workload \
         ({:?} vs {:?} at layer size {})",
        largest_decoy.speedup(),
        largest_decoy.space + largest_decoy.indexed,
        largest_decoy.naive,
        largest_decoy.size
    );

    // Acceptance gate 2: on the largest dense-community workload, the fixed search
    // loop must beat the seed-equivalent one by at least 1.5x over the *same*
    // candidate space.  Both sides count without materialising, so the ratio is
    // the search loops themselves; it is also conservative, since both sides
    // already share the fixed (word-parallel) space build.
    let largest_dense = entries
        .iter()
        .filter(|e| e.workload == "dense_community")
        .max_by_key(|e| e.size)
        .expect("dense-community sweep ran");
    let dense_gain =
        largest_dense.seed_equiv.as_secs_f64() / largest_dense.count.as_secs_f64().max(1e-9);
    assert!(
        dense_gain >= 1.5,
        "fixed matcher only {dense_gain:.2}x over the seed-equivalent search on the largest \
         dense-community workload ({:?} vs {:?} at community size {})",
        largest_dense.count,
        largest_dense.seed_equiv,
        largest_dense.size
    );

    // Acceptance gate 3: `Auto` stays within 10% (plus a 200µs grace for timing
    // noise on sub-millisecond entries) of the better fixed backend's counting
    // cost on the decoy and dense-community headliners.
    for e in [largest_decoy, largest_dense] {
        let budget = e.best_fixed_count().mul_f64(1.1) + Duration::from_micros(200);
        assert!(
            e.auto <= budget,
            "auto backend too slow on {}/{}: {:?} vs best fixed {:?} (budget {:?})",
            e.workload,
            e.size,
            e.auto,
            e.best_fixed_count(),
            budget
        );
    }
}
