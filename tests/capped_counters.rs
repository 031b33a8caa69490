//! A plain run and a recording run do the same work.
//!
//! Both runs decide a vertex extension whose seeded new-vertex list would fall
//! below the threshold from its parent's per-label neighbour count, without
//! building any list; recording adds a cache entry per candidate and changes
//! nothing else.  Both must emit the same patterns and report the same
//! `space_capped`, `candidates_evaluated`, `candidates_generated` and search
//! steps, across measures and thread counts.  (The shortcut's own oracle is a
//! unit test in `crates/miner/src/engine.rs`.)

use ffsm::core::{MeasureConfig, MeasureKind};
use ffsm::graph::canonical::canonical_code;
use ffsm::graph::generators::gnm_random;
use ffsm::hypergraph::SearchBudget;
use ffsm::miner::{MiningResult, MiningSession, PreparedGraph};

/// A frequent pattern bit for bit: canonical code, support bits, occurrences.
type PatternRow = (Vec<u64>, u64, usize);

/// Every counter the shortcut could move, plus the pattern list in order.
fn work(result: &MiningResult) -> (Vec<PatternRow>, [u64; 4]) {
    let patterns = result
        .patterns
        .iter()
        .map(|p| {
            (canonical_code(&p.pattern).as_slice().to_vec(), p.support.to_bits(), p.num_occurrences)
        })
        .collect();
    let stats = &result.stats;
    let counters = [
        stats.counters.space_capped,
        stats.candidates_evaluated as u64,
        stats.candidates_generated as u64,
        stats.counters.search.steps,
    ];
    (patterns, counters)
}

fn plain_and_recorded_agree(
    prepared: &PreparedGraph,
    tau: f64,
    measures: &[MeasureKind],
) -> [u64; 4] {
    let mut first = None;
    for &measure in measures {
        for threads in [1, 2] {
            let session = || {
                MiningSession::over(prepared)
                    .measure(measure)
                    .min_support(tau)
                    .max_edges(3)
                    .threads(threads)
                    // A small node budget keeps the exact MIS solves at test
                    // scale; both runs hit it on the same candidates.
                    .measure_config(MeasureConfig {
                        search_budget: SearchBudget(2_000),
                        ..MeasureConfig::default()
                    })
            };
            let plain = work(&session().run().unwrap());
            let (recorded, _) = session().run_recorded().unwrap();
            let recorded = work(&recorded);
            assert_eq!(plain, recorded, "{measure:?}, {threads} threads");
            assert!(plain.1[0] > 0, "{measure:?}: the cap decided no candidate");
            first.get_or_insert(plain.1);
        }
    }
    first.expect("at least one measure")
}

#[test]
fn small_graph_plain_and_recorded_runs_do_the_same_work() {
    let prepared = PreparedGraph::new(gnm_random(260, 420, 7, 3));
    plain_and_recorded_agree(
        &prepared,
        6.0,
        &[MeasureKind::Mni, MeasureKind::Mi, MeasureKind::Mis],
    );
}

#[test]
fn large_graph_plain_and_recorded_runs_do_the_same_work() {
    let prepared = PreparedGraph::new(gnm_random(6000, 12000, 16, 7));
    let mni = plain_and_recorded_agree(
        &prepared,
        20.0,
        &[MeasureKind::Mni, MeasureKind::Mi, MeasureKind::Mis],
    );
    // The seeded-space cap's reach and the search it leaves, as before the
    // label-count shortcut existed.
    assert_eq!([mni[0], mni[1], mni[3]], [24_034, 27_729, 417_706]);
}
