//! [`PreparedGraph`] — the prepare-once / serve-many handle over a data graph.
//!
//! Serving workloads run *many* sessions against *one* graph: different measures,
//! thresholds, deadlines and clients, often concurrently.  Before this type, every
//! `run()` silently rebuilt the per-graph artifacts — most expensively the
//! `ffsm-match` [`GraphIndex`] — from scratch.  `PreparedGraph` splits that cost
//! out (the preprocessing/query split of dynamic-query systems à la Berkholz et
//! al.): build the handle once, then open any number of sessions over it from any
//! number of threads.
//!
//! ## What is cached
//!
//! * the [`LabeledGraph`] itself (owned);
//! * the **label statistics**: the distinct-label alphabet the candidate generator
//!   extends over, and the per-label vertex counts;
//! * the **matching index** ([`GraphIndex`]), built lazily on first use and then
//!   shared — [`PreparedGraph::index`] returns the same `Arc` forever after, and
//!   concurrent first callers race into exactly one build (the losers block on the
//!   winner, they never duplicate the work).  [`PreparedGraph::index_build_count`]
//!   exposes the build counter so tests can assert the exactly-once contract.
//!
//! ## Immutability and epochs
//!
//! The handle is immutable: nothing behind it ever changes after construction
//! (lazy initialisation is write-once), so clones — which share the underlying
//! storage, they are `Arc` handles — can be sent freely across threads and every
//! session sees the same graph and the same index.  There is deliberately no
//! mutable access; to mine a changed graph, derive a **new epoch handle** with
//! [`PreparedGraph::apply_updates`]: the batch is applied to a private copy of
//! the graph, the label statistics are `Arc`-shared with the parent when the
//! batch touched no labels (the common pure-edge-delta case) and recomputed
//! otherwise, and an already-built matching index is **patched incrementally**
//! (`GraphIndex::apply_delta` over the dirty region) instead of rebuilt — the
//! expensive from-scratch build is never repeated for a small delta.  The old
//! handle stays fully valid; in-flight sessions keep mining the old epoch.

use ffsm_core::{FfsmError, GraphIndex};
use ffsm_graph::{io, GraphDelta, GraphUpdate, Label, LabeledGraph};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

#[derive(Debug)]
struct PreparedInner {
    graph: LabeledGraph,
    /// Distinct labels, ascending — the extension alphabet.  `Arc`-shared with
    /// the parent epoch when an update batch left every label untouched.
    alphabet: Arc<Vec<Label>>,
    /// Per-label vertex counts, ascending by label (shared like `alphabet`).
    label_counts: Arc<Vec<(Label, usize)>>,
    /// The matching index, built at most once (see module docs).
    index: OnceLock<Arc<GraphIndex>>,
    /// How many times the index has been built — 0 or 1 for the handle's lifetime.
    index_builds: AtomicUsize,
}

/// An owned, `Arc`-shared, immutable handle bundling a data graph with its
/// once-built per-graph artifacts.  See the module docs in `prepared.rs`;
/// cloning is cheap and shares everything.
#[derive(Debug, Clone)]
pub struct PreparedGraph {
    inner: Arc<PreparedInner>,
}

impl PreparedGraph {
    /// Prepare `graph` for mining.  Label statistics are computed eagerly (one
    /// linear pass); the matching index is deferred to first use.
    pub fn new(graph: LabeledGraph) -> Self {
        let label_counts = graph.label_histogram();
        let alphabet = label_counts.iter().map(|&(l, _)| l).collect();
        PreparedGraph {
            inner: Arc::new(PreparedInner {
                graph,
                alphabet: Arc::new(alphabet),
                label_counts: Arc::new(label_counts),
                index: OnceLock::new(),
                index_builds: AtomicUsize::new(0),
            }),
        }
    }

    /// Derive the next epoch: validate and apply one [`GraphUpdate`] batch,
    /// returning the new immutable handle together with the [`GraphDelta`]
    /// describing the dirty region.  `self` is untouched (atomic: a failing
    /// update leaves no partial state behind).
    ///
    /// Untouched per-graph state is carried over instead of recomputed: label
    /// statistics are `Arc`-shared when the batch affected no labels, and a
    /// matching index this handle already built is patched incrementally over
    /// the dirty region (`GraphIndex::apply_delta`) — the new handle then serves
    /// [`PreparedGraph::index`] without ever running a from-scratch build
    /// (its [`PreparedGraph::index_build_count`] stays 0).
    pub fn apply_updates(
        &self,
        updates: &[GraphUpdate],
    ) -> Result<(PreparedGraph, GraphDelta), FfsmError> {
        let mut graph = self.inner.graph.clone();
        let delta = ffsm_graph::apply_batch(&mut graph, updates).map_err(FfsmError::Update)?;
        let (alphabet, label_counts) = if !delta.labels_changed {
            // Pure-edge delta: the label statistics cannot have changed — share
            // the parent epoch's allocations.  (`affected_labels` may still be
            // non-empty: edge endpoints land there for the index's degree
            // buckets, but that says nothing about the labelling itself.)
            (self.inner.alphabet.clone(), self.inner.label_counts.clone())
        } else {
            let label_counts = graph.label_histogram();
            let alphabet = label_counts.iter().map(|&(l, _)| l).collect();
            (Arc::new(alphabet), Arc::new(label_counts))
        };
        let index = OnceLock::new();
        if let Some(built) = self.inner.index.get() {
            let mut patched = (**built).clone();
            patched.apply_delta(&graph, &delta);
            index.set(Arc::new(patched)).expect("fresh OnceLock is empty");
        }
        let prepared = PreparedGraph {
            inner: Arc::new(PreparedInner {
                graph,
                alphabet,
                label_counts,
                index,
                index_builds: AtomicUsize::new(0),
            }),
        };
        Ok((prepared, delta))
    }

    /// Load a `.lg` graph file (the `ffsm_graph::io` format) and prepare it.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, FfsmError> {
        Ok(Self::new(io::load_lg(path.as_ref())?))
    }

    /// The underlying data graph.
    pub fn graph(&self) -> &LabeledGraph {
        &self.inner.graph
    }

    /// The distinct-label alphabet (ascending) the candidate generator uses.
    pub fn alphabet(&self) -> &[Label] {
        &self.inner.alphabet
    }

    /// Per-label vertex counts, ascending by label.
    pub fn label_counts(&self) -> &[(Label, usize)] {
        &self.inner.label_counts
    }

    /// The shared matching index, building it on first call.  Every call returns
    /// a clone of the same `Arc`; concurrent first calls perform exactly one build.
    pub fn index(&self) -> Arc<GraphIndex> {
        self.inner
            .index
            .get_or_init(|| {
                self.inner.index_builds.fetch_add(1, Ordering::Relaxed);
                Arc::new(GraphIndex::build(&self.inner.graph))
            })
            .clone()
    }

    /// How many times the matching index has been built for this handle: `0`
    /// before first use, `1` forever after — never more, no matter how many
    /// sessions or threads share the handle.
    pub fn index_build_count(&self) -> usize {
        self.inner.index_builds.load(Ordering::Relaxed)
    }

    /// `true` once the matching index is available without further work — built
    /// by a session over this handle, or inherited pre-patched from a parent
    /// epoch via [`PreparedGraph::apply_updates`].  Never triggers a build: this
    /// is the warm/cold peek the serving registry's epoch cache reports through
    /// its hit/miss statistics.
    pub fn index_is_built(&self) -> bool {
        self.inner.index.get().is_some()
    }

    /// `true` when both handles share the same underlying storage.
    pub fn same_graph(&self, other: &PreparedGraph) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::generators;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn prepared_graph_is_send_and_sync() {
        assert_send_sync::<PreparedGraph>();
    }

    #[test]
    fn label_statistics_match_the_graph() {
        let graph = LabeledGraph::from_edges(&[0, 1, 1, 2], &[(0, 1), (1, 2), (2, 3)]);
        let prepared = PreparedGraph::new(graph.clone());
        assert_eq!(prepared.alphabet(), &[Label(0), Label(1), Label(2)]);
        assert_eq!(prepared.label_counts(), graph.label_histogram().as_slice());
        assert_eq!(prepared.graph().num_edges(), 3);
    }

    #[test]
    fn index_is_lazy_and_built_once() {
        let prepared = PreparedGraph::new(generators::gnm_random(30, 60, 3, 5));
        assert_eq!(prepared.index_build_count(), 0, "index must be lazy");
        assert!(!prepared.index_is_built(), "peek must not trigger a build");
        assert_eq!(prepared.index_build_count(), 0, "peek is free");
        let a = prepared.index();
        let b = prepared.clone().index();
        assert!(Arc::ptr_eq(&a, &b), "all callers share one index");
        assert_eq!(prepared.index_build_count(), 1);
        assert!(prepared.index_is_built());
        // A child epoch inherits the patched index: warm from birth.
        let (next, _) =
            prepared.apply_updates(&[ffsm_graph::GraphUpdate::AddEdge(0, 1)]).unwrap_or_else(
                |_| prepared.apply_updates(&[ffsm_graph::GraphUpdate::RemoveEdge(0, 1)]).unwrap(),
            );
        assert!(next.index_is_built(), "patched index inherited");
        assert_eq!(next.index_build_count(), 0);
    }

    #[test]
    fn concurrent_first_use_builds_exactly_once() {
        let prepared = PreparedGraph::new(generators::gnm_random(60, 150, 4, 9));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let handle = prepared.clone();
                scope.spawn(move || {
                    let _ = handle.index();
                });
            }
        });
        assert_eq!(prepared.index_build_count(), 1);
    }

    #[test]
    fn apply_updates_shares_label_stats_for_pure_edge_deltas() {
        let graph = generators::gnm_random(30, 40, 3, 5);
        let (u, v) = graph.edges().next().expect("graph has edges");
        let prepared = PreparedGraph::new(graph);
        // An *effective* edge removal: the delta is non-empty, yet the labelling
        // is untouched, so the label statistics must be Arc-shared wholesale.
        let (next, delta) =
            prepared.apply_updates(&[ffsm_graph::GraphUpdate::RemoveEdge(u, v)]).unwrap();
        assert!(!delta.is_empty(), "removal of an existing edge dirties its endpoints");
        assert!(!delta.labels_changed);
        assert!(
            Arc::ptr_eq(&prepared.inner.alphabet, &next.inner.alphabet),
            "edge-only deltas must share the alphabet allocation"
        );
        assert!(Arc::ptr_eq(&prepared.inner.label_counts, &next.inner.label_counts));
        // Parent is untouched.
        assert_eq!(prepared.graph().num_edges(), 40);
        // A relabel, in contrast, recomputes the statistics.
        let (relabelled, delta) = next
            .apply_updates(&[ffsm_graph::GraphUpdate::Relabel(u, ffsm_graph::Label(9))])
            .unwrap();
        assert!(delta.labels_changed);
        assert!(!Arc::ptr_eq(&next.inner.alphabet, &relabelled.inner.alphabet));
        assert_eq!(relabelled.alphabet().last(), Some(&ffsm_graph::Label(9)));
    }

    #[test]
    fn apply_updates_patches_a_built_index_without_rebuilding() {
        let prepared = PreparedGraph::new(generators::gnm_random(40, 80, 4, 6));
        let _ = prepared.index();
        let updates = [
            ffsm_graph::GraphUpdate::AddVertex(ffsm_graph::Label(2)),
            ffsm_graph::GraphUpdate::AddEdge(40, 3),
            ffsm_graph::GraphUpdate::RemoveVertex(7),
        ];
        let (next, _delta) = prepared.apply_updates(&updates).unwrap();
        // The child handle carries the patched index: serving it is not a build.
        let patched = next.index();
        assert_eq!(next.index_build_count(), 0, "patched, never rebuilt");
        assert_eq!(*patched, GraphIndex::build(next.graph()), "patch == rebuild oracle");
        // An unbuilt parent hands the child nothing; the child builds lazily.
        let cold = PreparedGraph::new(prepared.graph().clone());
        let (cold_next, _) = cold.apply_updates(&updates).unwrap();
        assert_eq!(cold_next.index_build_count(), 0);
        let _ = cold_next.index();
        assert_eq!(cold_next.index_build_count(), 1);
    }

    #[test]
    fn apply_updates_rejects_invalid_batches_atomically() {
        let prepared = PreparedGraph::new(LabeledGraph::from_edges(&[0, 1], &[(0, 1)]));
        let err = prepared
            .apply_updates(&[
                ffsm_graph::GraphUpdate::AddEdge(0, 1),
                ffsm_graph::GraphUpdate::RemoveVertex(5),
            ])
            .unwrap_err();
        match err {
            FfsmError::Update(e) => assert_eq!(e.index, 1),
            other => panic!("expected Update error, got {other:?}"),
        }
        assert_eq!(prepared.graph().num_vertices(), 2, "parent untouched");
    }

    #[test]
    fn clones_share_storage() {
        let prepared = PreparedGraph::new(LabeledGraph::new());
        let clone = prepared.clone();
        assert!(prepared.same_graph(&clone));
        let other = PreparedGraph::new(LabeledGraph::new());
        assert!(!prepared.same_graph(&other));
    }
}
