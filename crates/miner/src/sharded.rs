//! The shard pass: a level's occurrence sets, built shard-major from a
//! [`PartitionedGraph`].
//!
//! A [`MiningSession`] over a partition runs the one mining engine unchanged
//! — same seeds, deduplication, bounds, threshold/top-k order, budgets and
//! interruption.  Only where a candidate's occurrences come from differs: the
//! candidates of a level that delta reuse and pre-bounds left undecided go
//! through [`shard_pass`], which
//!
//! 1. fetches each shard from the store once per level and takes its
//!    `GraphIndex` once;
//! 2. streams every such candidate's search on that shard, with the
//!    whole-graph matcher machinery unchanged, straight into the candidate's
//!    [`LevelBuffer`]: each image the shard owns by the anchor-shard rule is
//!    remapped to global vertex ids and appended as one row of the
//!    [`EmbeddingRows`] buffer (stride `pattern.num_vertices()`) the
//!    candidate's occurrence set will own.
//!
//! After the last shard, [`LevelBuffer::into_occurrences`] sorts each buffer's
//! rows and hands the buffer over as one global [`OccurrenceSet`], which the
//! engine gives to the very same post-bounds and measure as a whole-graph
//! enumeration.
//!
//! A level therefore costs at most K shard loads however many candidates it
//! holds, and none when bounds decide all of them.  The engine alternates the
//! shard order between ascending and descending per level, so the LRU store
//! begins each level with the shards the previous one left resident.
//!
//! ## Why the merge is exact
//!
//! * **Coverage.** The halo invariant (see `ffsm-shard`) guarantees that every
//!   global embedding of a pattern with at most `halo_depth` edges appears in
//!   the shard owning its anchor (minimum global image vertex); the session
//!   therefore refuses to run when `max_edges > halo_depth`.
//! * **Uniqueness.** A kept embedding's anchor is interior to exactly one
//!   shard, so the anchor-shard filter keeps each global embedding exactly
//!   once; shards are *induced* subgraphs, so no spurious embedding can exist.
//! * **Measures.** The merged list is exactly the global occurrence list, so
//!   MNI's per-node image sets are the unions of the per-shard contributions,
//!   and MIS/MVC/MI see the same occurrence hypergraph the unsharded run
//!   builds — cut-straddling occurrences can only overlap in cut-boundary
//!   vertices (`PartitionedGraph::boundary`), and the overlap machinery probes
//!   exactly those shared vertices.  All four are integer-valued graph
//!   invariants of that hypergraph, so the values agree bit-for-bit — the
//!   contract `tests/shard_differential.rs` enforces at shard counts 1, 2, 3
//!   and 7.

use crate::engine::on_workers;
use crate::session::MiningSession;
use ffsm_core::{
    stream_with, EmbeddingRows, EnumeratorBackend, FfsmError, OccurrenceSet, SearchArena,
};
use ffsm_graph::isomorphism::{EmbeddingVisitor, IsoConfig, VisitFlow};
use ffsm_graph::{Pattern, VertexId};
use ffsm_shard::{PartitionedGraph, ShardStoreStats};
use std::borrow::Cow;

/// One candidate's kept occurrences from the shards visited so far in a level,
/// stored flat as the [`EmbeddingRows`] its occurrence set will own: each
/// shard's search streams its images straight into the rows, one row of
/// `pattern.num_vertices()` global ids per kept occurrence.  One allocation
/// per candidate instead of one per occurrence keeps a whole level's buffers
/// close to the size of the vertex ids themselves.
#[derive(Debug)]
pub(crate) struct LevelBuffer {
    /// The candidate's position in its level.
    pub(crate) candidate: usize,
    rows: EmbeddingRows,
    complete: bool,
    cross_shard: u64,
}

impl LevelBuffer {
    /// An empty buffer for a candidate of `stride` pattern vertices.
    pub(crate) fn new(candidate: usize, stride: usize) -> Self {
        LevelBuffer { candidate, rows: EmbeddingRows::new(stride), complete: true, cross_shard: 0 }
    }

    /// The candidate's merged global occurrence set, together with the
    /// number of kept occurrences that leave the anchor's shard interior.  The
    /// rows are handed over, so their memory goes back as soon as the
    /// candidate is measured.
    pub(crate) fn into_occurrences(mut self, pattern: &Pattern) -> (OccurrenceSet, u64) {
        // Canonical global order: the measures are order-invariant (they are
        // graph invariants of the occurrence hypergraph), sorting just makes
        // the merged set independent of the shard iteration.
        self.rows.sort_unstable();
        (OccurrenceSet::from_rows(pattern.clone(), self.rows, self.complete), self.cross_shard)
    }
}

/// One shard's search of one candidate, streamed into its [`LevelBuffer`]:
/// every image is remapped to global ids and kept only when `shard` owns its
/// anchor (minimum global image vertex).  It has `CollectVisitor`'s
/// check-before-accept budget, counted over this shard's visits, kept and
/// dropped alike, so `max_embeddings` bounds each shard enumeration on its own.
struct ShardRows<'b> {
    buffer: &'b mut LevelBuffer,
    to_global: &'b [VertexId],
    assignment: &'b [u32],
    shard: u32,
    seen: usize,
    max: usize,
}

impl EmbeddingVisitor for ShardRows<'_> {
    fn visit(&mut self, local: &[VertexId]) -> VisitFlow {
        if self.seen >= self.max {
            return VisitFlow::Stop;
        }
        self.seen += 1;
        let (to_global, assignment) = (self.to_global, self.assignment);
        let global = |&v: &VertexId| to_global[v as usize];
        let anchor = local.iter().map(global).min().expect("patterns are non-empty");
        if assignment[anchor as usize] == self.shard {
            let cross = local.iter().any(|v| assignment[global(v) as usize] != self.shard);
            self.buffer.cross_shard += u64::from(cross);
            self.buffer.rows.push(local.iter().map(global));
        }
        VisitFlow::Continue
    }
}

/// Fill every buffer in `buckets` shard-major: fetch each shard once, and
/// enumerate on it every candidate that has a buffer (`patterns` holds the
/// level's patterns in candidate order).  Shards are visited in
/// ascending order, or descending when `descending`.  Worker `w` fills
/// `buckets[w]` with `arenas[w]`; the merge sorts, so neither the bucket split
/// nor the shard order changes the result.
///
/// # Errors
///
/// A shard the store cannot fetch (a missing or corrupt spill file, a poisoned
/// store) fails the whole pass.
pub(crate) fn shard_pass(
    partitioned: &PartitionedGraph,
    patterns: &[Cow<'_, Pattern>],
    buckets: &mut [Vec<LevelBuffer>],
    arenas: &mut [SearchArena],
    iso_config: &IsoConfig,
    descending: bool,
) -> Result<(), FfsmError> {
    let assignment: &[u32] = partitioned.assignment();
    let use_index = !matches!(iso_config.backend, EnumeratorBackend::Naive);
    let num_shards = partitioned.num_shards();
    for step in 0..num_shards {
        let s = if descending { num_shards - 1 - step } else { step };
        let shard = partitioned.shard(s)?;
        let index = use_index.then(|| shard.index());
        let (graph, to_global) = (shard.graph(), shard.to_global());
        on_workers(buckets, arenas, |bucket, arena| {
            for buffer in bucket.iter_mut() {
                let pattern = &*patterns[buffer.candidate];
                if graph.num_vertices() < pattern.num_vertices() {
                    continue;
                }
                let max = iso_config.max_embeddings;
                let mut rows =
                    ShardRows { buffer, to_global, assignment, shard: s as u32, seen: 0, max };
                let done = stream_with(
                    pattern,
                    graph,
                    index.as_deref(),
                    iso_config.clone(),
                    arena,
                    &mut rows,
                );
                buffer.complete &= done;
            }
        });
    }
    Ok(())
}

/// Shard-specific counters of a partitioned run, as reported by
/// [`MiningSession::run_detailed`].  Kept only for the repository benchmark,
/// which still names it; the same numbers are
/// `MiningStats::counters.cross_shard_occurrences` and
/// `PartitionedGraph::store_stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardedRunStats {
    /// Kept occurrences whose image leaves the anchor's shard interior —
    /// the ones the halo exists for.
    pub cross_shard_occurrences: u64,
    /// Residency counters of the shard store at the end of the run.
    pub store: ShardStoreStats,
}

/// The former name of a session over a partition.  Kept only for the
/// repository benchmark, which still names it; use
/// [`MiningSession::over`] with an `&Arc<PartitionedGraph>`.
pub type ShardedSession = MiningSession;

#[cfg(test)]
mod tests {
    use super::{shard_pass, LevelBuffer};
    use crate::{Completion, MiningResult, MiningSession, Phase, PreparedGraph};
    use ffsm_core::{CancelToken, EnumeratorBackend, FfsmError, Matcher, SearchArena};
    use ffsm_graph::isomorphism::{enumerate_embeddings, Embedding, IsoConfig};
    use ffsm_graph::{generators, Pattern};
    use ffsm_shard::{PartitionSpec, PartitionedGraph};
    use std::borrow::Cow;
    use std::sync::Arc;

    fn fingerprints(result: &MiningResult) -> Vec<(String, u64, usize)> {
        let mut v: Vec<(String, u64, usize)> = result
            .patterns
            .iter()
            .map(|p| {
                (
                    format!("{:?}", ffsm_graph::canonical::canonical_code(&p.pattern)),
                    p.support.to_bits(),
                    p.num_occurrences,
                )
            })
            .collect();
        v.sort();
        v
    }

    /// The merge as vectors, one shard after another: each shard's
    /// embeddings collected by the backend's own path, remapped, kept by the
    /// anchor rule, and sorted once at the end.
    fn vec_reference(
        parts: &PartitionedGraph,
        pattern: &Pattern,
        config: &IsoConfig,
    ) -> (Vec<Embedding>, bool, u64) {
        let assignment = parts.assignment();
        let (mut merged, mut complete, mut cross) = (Vec::new(), true, 0);
        for s in 0..parts.num_shards() {
            let shard = parts.shard(s).unwrap();
            if shard.graph().num_vertices() < pattern.num_vertices() {
                continue;
            }
            let result = match config.backend {
                EnumeratorBackend::Naive => {
                    enumerate_embeddings(pattern, shard.graph(), config.clone())
                }
                EnumeratorBackend::CandidateSpace => {
                    let index = shard.index();
                    Matcher::new(pattern, shard.graph(), &index).enumerate(config.clone())
                }
            };
            complete &= result.complete;
            for local in result.embeddings {
                let global: Embedding =
                    local.iter().map(|&v| shard.to_global()[v as usize]).collect();
                let anchor = *global.iter().min().unwrap();
                if assignment[anchor as usize] == s as u32 {
                    cross += u64::from(global.iter().any(|&v| assignment[v as usize] != s as u32));
                    merged.push(global);
                }
            }
        }
        merged.sort_unstable();
        (merged, complete, cross)
    }

    /// Rows streamed into level buffers and sorted equal the vector merge,
    /// row for row, with the same `complete` and cross-shard count: random
    /// graphs, shard counts, worker splits and shard orders, both backends,
    /// unbounded and with a per-shard budget that truncates.
    #[test]
    fn level_buffers_equal_the_sorted_vector_reference() {
        let mut checked = 0;
        for seed in 0..24u64 {
            let graph = ffsm_graph::transform::shuffle_vertices(
                &generators::community_graph(3, 10, 0.35, 0.05, 3, seed),
                seed,
            );
            let k = 1 + seed as usize % 5;
            let parts = PartitionedGraph::build(&graph, PartitionSpec::vertex_range(k, 2)).unwrap();
            let patterns: Vec<Cow<'_, Pattern>> = (1..=2)
                .filter_map(|edges| {
                    generators::sample_pattern(&graph, edges, seed * 3 + edges as u64)
                })
                .map(|(pattern, _)| Cow::Owned(pattern))
                .collect();
            let workers = 1 + seed as usize % 3;
            for backend in [EnumeratorBackend::CandidateSpace, EnumeratorBackend::Naive] {
                for limit in [7, usize::MAX] {
                    let config = IsoConfig::with_limit(limit).with_backend(backend);
                    let mut buckets: Vec<Vec<LevelBuffer>> = (0..workers)
                        .map(|w| {
                            let mine = (w..patterns.len()).step_by(workers);
                            mine.map(|i| LevelBuffer::new(i, patterns[i].num_vertices())).collect()
                        })
                        .collect();
                    let mut arenas: Vec<SearchArena> =
                        (0..workers).map(|_| SearchArena::new()).collect();
                    let descending = seed % 2 == 1;
                    shard_pass(&parts, &patterns, &mut buckets, &mut arenas, &config, descending)
                        .unwrap();
                    for buffer in buckets.into_iter().flatten() {
                        let pattern = &patterns[buffer.candidate];
                        let (occ, cross) = buffer.into_occurrences(pattern);
                        let (merged, complete, reference_cross) =
                            vec_reference(&parts, pattern, &config);
                        assert_eq!(occ.embeddings().to_vec(), merged, "seed {seed}, {backend}");
                        assert_eq!(occ.is_complete(), complete, "seed {seed}, {backend}");
                        assert_eq!(cross, reference_cross, "seed {seed}, {backend}");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked >= 150, "pattern sampling failed too often ({checked} checks)");
    }

    #[test]
    fn sharded_matches_unsharded_on_a_community_graph() {
        let graph = generators::community_graph(3, 12, 0.35, 0.02, 4, 23);
        let unsharded = MiningSession::over(&PreparedGraph::new(graph.clone()))
            .min_support(3.0)
            .max_edges(2)
            .run()
            .unwrap();
        for k in [1usize, 2, 5] {
            let parts = Arc::new(
                PartitionedGraph::build(&graph, PartitionSpec::vertex_range(k, 2)).unwrap(),
            );
            let sharded = MiningSession::over(&parts).min_support(3.0).max_edges(2).run().unwrap();
            assert_eq!(fingerprints(&sharded), fingerprints(&unsharded), "k = {k}");
            assert_eq!(sharded.final_threshold.to_bits(), unsharded.final_threshold.to_bits());
            assert_eq!(sharded.stats.candidates_evaluated, unsharded.stats.candidates_evaluated);
            assert_eq!(sharded.stats.completion, unsharded.stats.completion);
        }
    }

    #[test]
    fn thread_count_does_not_change_sharded_results() {
        let graph = generators::community_graph(2, 10, 0.4, 0.05, 3, 9);
        let parts =
            Arc::new(PartitionedGraph::build(&graph, PartitionSpec::vertex_range(3, 2)).unwrap());
        let run = |threads: usize| {
            MiningSession::over(&parts)
                .min_support(3.0)
                .max_edges(2)
                .threads(threads)
                .run()
                .unwrap()
        };
        let base = run(1);
        for threads in [2, 4, 0] {
            assert_eq!(fingerprints(&run(threads)), fingerprints(&base), "threads = {threads}");
        }
    }

    #[test]
    fn halo_shallower_than_max_edges_is_a_typed_error() {
        let graph = generators::community_graph(2, 8, 0.4, 0.05, 3, 5);
        let parts =
            Arc::new(PartitionedGraph::build(&graph, PartitionSpec::vertex_range(2, 1)).unwrap());
        let err = MiningSession::over(&parts).min_support(2.0).max_edges(3).run().unwrap_err();
        assert!(matches!(err, FfsmError::Partition(_)), "{err:?}");
        // A single-shard partition tolerates any max_edges.
        let one =
            Arc::new(PartitionedGraph::build(&graph, PartitionSpec::vertex_range(1, 0)).unwrap());
        assert!(MiningSession::over(&one).min_support(2.0).max_edges(3).run().is_ok());
    }

    #[test]
    fn pre_cancelled_sharded_session_yields_empty_prefix() {
        let token = CancelToken::new();
        token.cancel();
        let graph = generators::community_graph(2, 8, 0.4, 0.05, 3, 7);
        let parts =
            Arc::new(PartitionedGraph::build(&graph, PartitionSpec::vertex_range(2, 2)).unwrap());
        let result = MiningSession::over(&parts)
            .min_support(1.0)
            .max_edges(2)
            .cancel_token(token)
            .run()
            .unwrap();
        assert!(result.is_empty());
        assert_eq!(result.completion(), Completion::Cancelled);
    }

    #[test]
    fn missing_spill_file_is_a_typed_error() {
        let graph = generators::community_graph(3, 10, 0.35, 0.03, 3, 31);
        let parts =
            Arc::new(PartitionedGraph::build(&graph, PartitionSpec::vertex_range(4, 2)).unwrap());
        let dir = std::env::temp_dir().join(format!("ffsm-sharded-missing-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        parts.spill_to_disk(&dir, 1).unwrap();
        // Only the last shard stays resident, so the first level must reload
        // shard 0 from its file.
        std::fs::remove_file(dir.join("shard_0.ffs")).unwrap();
        for threads in [1, 2] {
            let err = MiningSession::over(&parts)
                .min_support(3.0)
                .max_edges(2)
                .threads(threads)
                .run()
                .unwrap_err();
            assert!(matches!(err, FfsmError::Partition(_)), "threads = {threads}: {err:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spilled_partition_mines_identically_and_reports_loads() {
        let graph = generators::community_graph(3, 10, 0.35, 0.03, 3, 31);
        let resident =
            Arc::new(PartitionedGraph::build(&graph, PartitionSpec::vertex_range(4, 2)).unwrap());
        let warm = MiningSession::over(&resident).min_support(3.0).max_edges(2).run().unwrap();

        let spilled =
            Arc::new(PartitionedGraph::build(&graph, PartitionSpec::vertex_range(4, 2)).unwrap());
        let dir = std::env::temp_dir().join(format!("ffsm-sharded-session-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        spilled.spill_to_disk(&dir, 1).unwrap();
        let (cold, details) =
            MiningSession::over(&spilled).min_support(3.0).max_edges(2).run_detailed().unwrap();
        assert_eq!(fingerprints(&cold), fingerprints(&warm));
        assert!(details.store.loads > 0, "expected cold shard reloads");
        assert_eq!(details.store.resident_shards, 1);
        assert_eq!(details.cross_shard_occurrences, cold.stats.counters.cross_shard_occurrences);
        assert!(cold.stats.phase_timings.nanos(Phase::ShardLoad) > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
