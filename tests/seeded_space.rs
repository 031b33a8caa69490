//! Differential harness for seeded candidate spaces and the seeded-space cap.
//!
//! * **seeded == cold** — a [`CandidateSpace`] whose initial lists start from
//!   its parent's refined lists refines to exactly the space a cold build
//!   reaches, for every edge and vertex extension of random patterns, on random
//!   graphs with hub vertices (so the hub-bitset refinement path runs); the
//!   matchers built over both spaces emit identical embeddings, induced and
//!   not;
//! * **the cap never changes a verdict** — indexed-backend sessions, whose
//!   seeded spaces may decide candidates infrequent before any search, emit the
//!   same `FrequentPattern` list (pattern, support bits, occurrence count,
//!   order) as naive-backend sessions, which have no candidate space and so no
//!   cap, across measures, thread counts and the exact, bounds-first and top-k
//!   modes;
//! * **cached caps stay sound** — a delta that creates an occurrence of a
//!   cap-decided candidate re-evaluates it, while one that only shrinks its
//!   seeded lists, with no occurrence at a dirty vertex, reuses the cap.
//!
//! The proptest shim seeds each generator deterministically from the test name,
//! so every run replays the same fixed case sequence.

use ffsm::approx::Certificate;
use ffsm::core::{EnumeratorBackend, GraphUpdate, MeasureKind};
use ffsm::graph::canonical::{canonical_code, CanonicalCode};
use ffsm::graph::isomorphism::{enumerate_embeddings, IsoConfig};
use ffsm::graph::{generators, Label, LabeledGraph, VertexId};
use ffsm::matching::{CandidateSpace, GraphIndex, Matcher};
use ffsm::miner::extension::extensions;
use ffsm::miner::{MiningResult, MiningSession, PreparedGraph};
use proptest::prelude::*;
use std::collections::HashSet;

/// A sparse random graph plus `hubs` vertices joined to 40 others each, so
/// the index stores hub adjacency bitsets (degree ≥ 32).
fn graph_with_hubs(seed: u64, hubs: usize) -> LabeledGraph {
    let mut graph = generators::gnm_random(160, 260, 3, seed);
    let n = graph.num_vertices() as u64;
    for h in 0..hubs as u64 {
        let hub = ((seed + 17 * h) % n) as VertexId;
        for k in 0..40u64 {
            let other = ((seed.wrapping_mul(31) + 7 * k + 3 * h + 1) % n) as VertexId;
            if other != hub {
                let _ = graph.add_edge(hub, other);
            }
        }
    }
    graph
}

fn lists(space: &CandidateSpace) -> Vec<Vec<VertexId>> {
    (0..space.num_pattern_vertices() as VertexId).map(|u| space.candidates(u).to_vec()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// Every one-edge extension of a sampled pattern: the space seeded from
    /// the pattern's refined lists equals the cold space, and both matchers
    /// enumerate the same embeddings in the same order, induced and not.
    #[test]
    fn seeded_build_equals_cold_build(seed in 0u64..10_000, edges in 1usize..4) {
        let graph = graph_with_hubs(seed, 3);
        let index = GraphIndex::build(&graph);
        prop_assert!((0..graph.num_vertices() as VertexId).any(|v| index.adjacency_words(v).is_some()));
        let Some((parent, _)) = generators::sample_pattern(&graph, edges, seed ^ 0x5eed) else {
            return Ok(());
        };
        let parent_lists = CandidateSpace::build(&parent, &graph, &index).into_lists();
        for child in extensions(&parent, &[Label(0), Label(1), Label(2)]) {
            let cold = CandidateSpace::build(&child, &graph, &index);
            let seeded = CandidateSpace::initial(&child, &graph, &index, Some(&parent_lists), 0)
                .expect("no list is shorter than 0")
                .refine(&child, &graph, &index);
            prop_assert_eq!(lists(&seeded), lists(&cold), "child {:?}", &child);
            let seeded = Matcher::with_space(&child, &graph, &index, seeded);
            let cold = Matcher::new(&child, &graph, &index);
            prop_assert_eq!(seeded.matching_order(), cold.matching_order());
            for induced in [false, true] {
                let config = IsoConfig { induced, ..IsoConfig::default() };
                prop_assert_eq!(
                    seeded.enumerate(config.clone()).embeddings,
                    cold.enumerate(config).embeddings,
                    "induced={}", induced
                );
            }
        }
    }
}

/// The floor stops the seeded build at the first list shorter than it, and a
/// floor at or below every list returns them all.
#[test]
fn floor_stops_at_a_short_list() {
    let graph = graph_with_hubs(5, 2);
    let index = GraphIndex::build(&graph);
    let (parent, _) = generators::sample_pattern(&graph, 1, 5).expect("graph has edges");
    let parent_lists = CandidateSpace::build(&parent, &graph, &index).into_lists();
    for child in extensions(&parent, &[Label(0), Label(1), Label(2)]) {
        let all = CandidateSpace::initial(&child, &graph, &index, Some(&parent_lists), 0)
            .expect("no list is shorter than 0");
        let shortest = all.min_len();
        assert!(
            CandidateSpace::initial(&child, &graph, &index, Some(&parent_lists), shortest).is_ok()
        );
        let short =
            CandidateSpace::initial(&child, &graph, &index, Some(&parent_lists), shortest + 1)
                .expect_err("a list is shorter than the floor");
        assert!(short <= shortest);
    }
}

/// Measures the cap applies to, and how each mode configures a session.
const MEASURES: [MeasureKind; 5] =
    [MeasureKind::Mni, MeasureKind::Mi, MeasureKind::Mis, MeasureKind::Mies, MeasureKind::Mvc];

#[derive(Debug, Clone, Copy)]
enum Mode {
    Exact,
    BoundsFirst,
    TopK,
}

fn mine(
    graph: &PreparedGraph,
    measure: MeasureKind,
    backend: EnumeratorBackend,
    threads: usize,
    mode: Mode,
) -> MiningResult {
    let session = MiningSession::over(graph)
        .measure(measure)
        .min_support(6.0)
        .max_edges(3)
        .threads(threads)
        .enumerator(backend);
    let session = match mode {
        Mode::Exact => session,
        Mode::BoundsFirst => session.bounds_first(true),
        Mode::TopK => session.top_k(6),
    };
    session.run().expect("valid session")
}

/// The comparable part of a run's output: per pattern, in emission order,
/// the pattern itself, the support bits and the occurrence count.  A
/// bound-decided pattern of a bounds-first run reports its interval's lower
/// side, which is computed from the occurrences in the backend's enumeration
/// order; its support is therefore left out here and checked against the
/// exact support instead.
fn listing(result: &MiningResult) -> Vec<(LabeledGraph, Option<u64>, usize)> {
    result
        .patterns
        .iter()
        .map(|p| {
            let exact = p.certificate.is_none_or(|c| c == Certificate::Exact);
            (p.pattern.clone(), exact.then(|| p.support.to_bits()), p.num_occurrences)
        })
        .collect()
}

/// The cap decides candidates on the indexed backend and never on the naive
/// one, yet both emit the same patterns, supports, counts and order.
#[test]
fn capped_sessions_equal_naive_sessions() {
    let graph = PreparedGraph::new(generators::gnm_random(260, 420, 7, 3));
    let mut capped_total = 0;
    for mode in [Mode::Exact, Mode::BoundsFirst, Mode::TopK] {
        for measure in MEASURES {
            let exact = mine(&graph, measure, EnumeratorBackend::Naive, 1, Mode::Exact);
            for threads in [1, 2] {
                let naive = mine(&graph, measure, EnumeratorBackend::Naive, threads, mode);
                let indexed =
                    mine(&graph, measure, EnumeratorBackend::CandidateSpace, threads, mode);
                let context = format!("{mode:?} {measure} threads={threads}");
                assert_eq!(naive.stats.counters.space_capped, 0, "the naive backend never caps");
                capped_total += indexed.stats.counters.space_capped;
                assert!(!naive.patterns.is_empty(), "{context}: nothing frequent");
                let (ours, theirs) = (listing(&indexed), listing(&naive));
                assert_eq!(ours.len(), theirs.len(), "{context}");
                for (a, b) in ours.iter().zip(&theirs) {
                    assert_eq!((&a.0, a.2), (&b.0, b.2), "{context}");
                    if let (Some(a), Some(b)) = (a.1, b.1) {
                        assert_eq!(a, b, "{context}");
                    }
                }
                assert_eq!(indexed.final_threshold.to_bits(), naive.final_threshold.to_bits());
                if let Mode::BoundsFirst = mode {
                    for (p, truth) in indexed.patterns.iter().zip(&exact.patterns) {
                        let interval = p.support_interval.expect("bounds-first interval");
                        assert!(interval.contains(truth.support, 1e-9), "{context}");
                    }
                }
            }
        }
    }
    assert!(capped_total > 0, "the cap never fired: the test has no teeth");
}

/// Delta reuse of a cap-decided candidate rests on the new epoch's dirty-region
/// code set alone: a capped entry is reused only when its code is not in it.
/// (a) An update that shrinks a capped candidate's seeded lists but leaves no
/// occurrence of it at a dirty vertex keeps the cached cap, which still bounds
/// the support.  (b) An update that creates an occurrence of a capped candidate
/// evaluates it again.  Every delta run reproduces the cold mine of its epoch.
#[test]
fn delta_recomputes_a_touched_capped_candidate() {
    let prepared = PreparedGraph::new(generators::gnm_random(260, 420, 7, 3));
    let session = |p: &PreparedGraph| MiningSession::over(p).min_support(6.0).max_edges(3);
    let (cold0, cache) = session(&prepared).run_recorded().unwrap();
    assert!(cold0.stats.counters.space_capped > 0);
    // Capped two-edge paths, children of frequent seeds: the updates below
    // leave their parents frequent, so the next epoch evaluates them again.
    let mut capped: Vec<(LabeledGraph, CanonicalCode, f64)> = Vec::new();
    for p in cold0.patterns.iter().filter(|p| p.pattern.num_edges() == 1) {
        for child in extensions(&p.pattern, prepared.alphabet()) {
            let code = canonical_code(&child);
            if let Some(entry) = cache.get(&code).filter(|e| e.capped) {
                if capped.iter().all(|(_, seen, _)| *seen != code) {
                    capped.push((child, code, entry.support));
                }
            }
        }
    }
    let graph = prepared.graph();
    let only = |v: VertexId, label: Label, w: VertexId| {
        graph.neighbors(v).iter().filter(|&&x| graph.label(x) == label).eq([&w])
    };
    // (a) An occurrence q–w–v of a capped path whose three labels differ, and
    // whose vertices have no other neighbour with a label the path joins them
    // to.  Cutting w–v drops v and q from the seeded lists the cap came from,
    // and leaves no occurrence of the path at w or v.
    let (code, w, v) = capped
        .iter()
        .filter(|(path, _, _)| {
            let labels: HashSet<Label> = (0..3).map(|u| path.label(u)).collect();
            labels.len() == 3
        })
        .find_map(|(path, code, _)| {
            let center = (0..3).find(|&u| path.degree(u) == 2)?;
            let (a, b) = (path.neighbors(center)[0], path.neighbors(center)[1]);
            let found = enumerate_embeddings(path, graph, IsoConfig::default())
                .embeddings
                .into_iter()
                .flat_map(|emb| {
                    [(emb[a as usize], emb[b as usize]), (emb[b as usize], emb[a as usize])]
                        .map(|(q, v)| (q, emb[center as usize], v))
                })
                .find(|&(q, w, v)| {
                    let (x, y, z) = (graph.label(q), graph.label(w), graph.label(v));
                    only(q, y, w) && only(w, x, q) && only(w, z, v) && only(v, y, w)
                })?;
            Some((code.clone(), found.1, found.2))
        })
        .expect("an isolated occurrence of a capped path");
    let (next, delta) = prepared.apply_updates(&[GraphUpdate::RemoveEdge(w, v)]).unwrap();
    let (incremental, after) = session(&next).run_delta(cache.clone(), &delta).unwrap();
    let cold1 = session(&next).run().unwrap();
    assert_eq!(listing(&incremental), listing(&cold1));
    let kept = cache.get(&code).expect("recorded");
    assert_eq!(after.get(&code), Some(kept), "a cap with no dirty occurrence was not kept");
    let (_, fresh) = session(&next).run_recorded().unwrap();
    let recomputed = fresh.get(&code).expect("evaluated in the next epoch");
    assert!(recomputed.support < kept.support, "the update left the cap's seeded lists alone");
    // (b) A copy of a capped path on new vertices is an occurrence at dirty
    // vertices.  It adds one to three vertices to the seeded list the cap came
    // from, so a cap of at most 2 grows and stays below τ = 6.
    let (path, code, cap) = capped.iter().find(|(_, _, cap)| *cap <= 2.0).expect("a cap ≤ 2");
    let n = graph.num_vertices() as VertexId;
    let mut copy: Vec<GraphUpdate> =
        (0..3).map(|u| GraphUpdate::AddVertex(path.label(u))).collect();
    copy.extend(path.edges().map(|(a, b)| GraphUpdate::AddEdge(n + a, n + b)));
    let (grown, grown_delta) = prepared.apply_updates(&copy).unwrap();
    let (incremental, after) = session(&grown).run_delta(cache.clone(), &grown_delta).unwrap();
    assert_eq!(listing(&incremental), listing(&session(&grown).run().unwrap()));
    let now = after.get(code).expect("evaluated again in the next epoch");
    assert!(now.capped && now.support > *cap, "a cap with a new occurrence was reused");
    // A cached cap bounds the support, it is not the support: a delta run at a
    // lower threshold must not reuse caps that no longer fall below it.
    let lower = |p: &PreparedGraph| MiningSession::over(p).min_support(3.0).max_edges(3);
    let (relaxed, _) = lower(&next).run_delta(cache, &delta).unwrap();
    assert_eq!(listing(&relaxed), listing(&lower(&next).run().unwrap()));
}
