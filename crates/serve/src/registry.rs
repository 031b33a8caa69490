//! [`GraphRegistry`] — named graphs with an epoch-aware prepared cache.
//!
//! The registry is the server's multi-tenant state: a map from names to
//! versioned [`DynamicGraph`] stores.  Each store's retained [`EpochSnapshot`]s
//! *are* the prepared cache, keyed by `(graph, epoch)`:
//!
//! * **populated lazily** — a snapshot's [`PreparedGraph`] builds its matching
//!   index on the first mine over that epoch (or inherits it pre-patched from
//!   the parent epoch), and every later session over the same epoch shares it;
//! * **invalidated by updates** — [`GraphRegistry::apply`] commits a new epoch
//!   and prunes the oldest retained snapshots, but never disturbs handles
//!   already checked out: an in-flight session keeps mining the epoch it was
//!   admitted on while new requests see the new epoch immediately (the
//!   serving-side analogue of answering queries under updates);
//! * **observable** — per-graph counters report mines, committed updates, and
//!   how often a checkout found the epoch's index already built (warm) versus
//!   not (cold), so the cache's effectiveness shows up in `stat` frames instead
//!   of staying folklore.
//!
//! All methods take `&self`: lookups share a read lock, and each graph has its
//! own store mutex, so traffic on different graphs never contends.  A lock a
//! panicking thread poisoned is taken over as is: the map only ever gains
//! whole entries, and a store commits a batch by pushing one finished epoch
//! (see `DynamicGraph::apply`), so the guarded state is consistent at every
//! point a panic can interrupt it, and later requests keep being served.

use ffsm_core::FfsmError;
use ffsm_dynamic::{DynamicGraph, EpochSnapshot};
use ffsm_graph::{GraphDelta, GraphUpdate, LabeledGraph};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// One registered graph: its versioned store plus serving counters.
#[derive(Debug)]
struct GraphEntry {
    store: Mutex<DynamicGraph>,
    mines: AtomicU64,
    updates: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

/// A point-in-time description of one registered graph (the `list` frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSummary {
    /// Registered name.
    pub name: String,
    /// Current epoch number.
    pub epoch: usize,
    /// Vertices in the current epoch.
    pub vertices: usize,
    /// Edges in the current epoch.
    pub edges: usize,
    /// Distinct labels in the current epoch.
    pub labels: usize,
}

/// Serving statistics for one registered graph (the per-graph `stat` frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphStats {
    /// The structural summary.
    pub summary: GraphSummary,
    /// `(oldest, newest)` retained epochs — the prepared cache's span.
    pub retained: (usize, usize),
    /// Mine checkouts served.
    pub mines: u64,
    /// Update batches committed (== epochs created).
    pub updates: u64,
    /// Checkouts that found the epoch's matching index already built.
    pub cache_hits: u64,
    /// Checkouts that found it not yet built (the session builds it lazily).
    pub cache_misses: u64,
    /// Whether the *current* epoch's index is built right now.
    pub index_built: bool,
}

/// The server's named-graph store.  See the module docs in `registry.rs`.
#[derive(Debug)]
pub struct GraphRegistry {
    graphs: RwLock<BTreeMap<String, Arc<GraphEntry>>>,
    /// Epoch snapshots each store keeps alive (the current epoch always
    /// survives; checked-out handles of pruned epochs stay valid).
    retain_epochs: usize,
}

impl GraphRegistry {
    /// An empty registry retaining `retain_epochs` snapshots per graph
    /// (clamped to at least 1 — the current epoch is always kept).
    pub fn new(retain_epochs: usize) -> Self {
        GraphRegistry { graphs: RwLock::new(BTreeMap::new()), retain_epochs: retain_epochs.max(1) }
    }

    /// Register `graph` under `name` (epoch 0).
    ///
    /// # Errors
    ///
    /// [`FfsmError::InvalidConfig`] for an empty / non-printable name or a name
    /// already taken — registration is explicit, never an upsert.
    pub fn register(&self, name: &str, graph: LabeledGraph) -> Result<(), FfsmError> {
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_graphic()) {
            return Err(FfsmError::InvalidConfig(format!(
                "graph name {name:?} must be non-empty printable ASCII without spaces"
            )));
        }
        let mut graphs = self.graphs.write().unwrap_or_else(PoisonError::into_inner);
        if graphs.contains_key(name) {
            return Err(FfsmError::InvalidConfig(format!("graph {name:?} is already registered")));
        }
        graphs.insert(
            name.to_string(),
            Arc::new(GraphEntry {
                store: Mutex::new(DynamicGraph::new(graph)),
                mines: AtomicU64::new(0),
                updates: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                cache_misses: AtomicU64::new(0),
            }),
        );
        Ok(())
    }

    fn entry(&self, name: &str) -> Result<Arc<GraphEntry>, FfsmError> {
        self.graphs
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
            .ok_or_else(|| FfsmError::UnknownGraph(name.to_string()))
    }

    /// Check out the current epoch of `name` for mining: a cheap clone of the
    /// immutable snapshot.  The handle stays valid forever — updates committed
    /// after checkout create *new* epochs and never touch it.
    ///
    /// # Errors
    ///
    /// [`FfsmError::UnknownGraph`].
    pub fn checkout(&self, name: &str) -> Result<EpochSnapshot, FfsmError> {
        let entry = self.entry(name)?;
        let snapshot = entry.store.lock().unwrap_or_else(PoisonError::into_inner).current().clone();
        entry.mines.fetch_add(1, Ordering::Relaxed);
        if snapshot.prepared().index_is_built() {
            entry.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            entry.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        Ok(snapshot)
    }

    /// Validate and commit one update batch to `name`, creating the next epoch
    /// and pruning history beyond the retention limit.  Returns the new epoch
    /// number and the batch's delta.  Atomic: a failed batch changes nothing.
    ///
    /// # Errors
    ///
    /// [`FfsmError::UnknownGraph`]; [`FfsmError::Update`] naming the offending
    /// update.
    pub fn apply(
        &self,
        name: &str,
        batch: &[GraphUpdate],
    ) -> Result<(usize, GraphDelta, GraphSummary), FfsmError> {
        let entry = self.entry(name)?;
        let mut store = entry.store.lock().unwrap_or_else(PoisonError::into_inner);
        let snapshot = store.apply(batch)?;
        let epoch = snapshot.epoch();
        let delta = snapshot.delta().expect("non-initial epoch carries a delta").clone();
        let summary = summarize(name, snapshot);
        store.retain_recent(self.retain_epochs);
        entry.updates.fetch_add(1, Ordering::Relaxed);
        Ok((epoch, delta, summary))
    }

    /// Summaries of every registered graph, by name.
    pub fn list(&self) -> Vec<GraphSummary> {
        let graphs = self.graphs.read().unwrap_or_else(PoisonError::into_inner);
        graphs
            .iter()
            .map(|(name, entry)| {
                let store = entry.store.lock().unwrap_or_else(PoisonError::into_inner);
                summarize(name, store.current())
            })
            .collect()
    }

    /// Serving statistics for one graph.
    ///
    /// # Errors
    ///
    /// [`FfsmError::UnknownGraph`].
    pub fn stats(&self, name: &str) -> Result<GraphStats, FfsmError> {
        let entry = self.entry(name)?;
        let store = entry.store.lock().unwrap_or_else(PoisonError::into_inner);
        Ok(GraphStats {
            summary: summarize(name, store.current()),
            retained: store.retained_range(),
            mines: entry.mines.load(Ordering::Relaxed),
            updates: entry.updates.load(Ordering::Relaxed),
            cache_hits: entry.cache_hits.load(Ordering::Relaxed),
            cache_misses: entry.cache_misses.load(Ordering::Relaxed),
            index_built: store.current().prepared().index_is_built(),
        })
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.graphs.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// `true` when no graph is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn summarize(name: &str, snapshot: &EpochSnapshot) -> GraphSummary {
    let graph = snapshot.prepared().graph();
    GraphSummary {
        name: name.to_string(),
        epoch: snapshot.epoch(),
        vertices: graph.num_vertices(),
        edges: graph.num_edges(),
        labels: snapshot.prepared().alphabet().len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::generators;

    fn registry_with(name: &str) -> GraphRegistry {
        let registry = GraphRegistry::new(2);
        registry.register(name, generators::gnm_random(30, 50, 3, 7)).unwrap();
        registry
    }

    #[test]
    fn register_validates_names_and_rejects_duplicates() {
        let registry = registry_with("g");
        for bad in ["", "has space", "ctl\u{7}"] {
            assert!(matches!(
                registry.register(bad, LabeledGraph::new()),
                Err(FfsmError::InvalidConfig(_))
            ));
        }
        assert!(matches!(
            registry.register("g", LabeledGraph::new()),
            Err(FfsmError::InvalidConfig(_))
        ));
        assert_eq!(registry.len(), 1);
        assert!(!registry.is_empty());
    }

    #[test]
    fn unknown_graphs_are_typed() {
        let registry = registry_with("g");
        assert!(matches!(registry.checkout("nope"), Err(FfsmError::UnknownGraph(_))));
        assert!(matches!(registry.stats("nope"), Err(FfsmError::UnknownGraph(_))));
        assert!(matches!(registry.apply("nope", &[]), Err(FfsmError::UnknownGraph(_))));
    }

    #[test]
    fn checkout_counts_cache_warmth() {
        let registry = registry_with("g");
        let cold = registry.checkout("g").unwrap();
        assert_eq!(registry.stats("g").unwrap().cache_misses, 1, "index not built yet");
        let _ = cold.prepared().index(); // a session builds it lazily
        let warm = registry.checkout("g").unwrap();
        assert!(warm.prepared().index_is_built());
        let stats = registry.stats("g").unwrap();
        assert_eq!((stats.cache_hits, stats.cache_misses, stats.mines), (1, 1, 2));
        assert!(stats.index_built);
    }

    #[test]
    fn apply_creates_epochs_and_preserves_checked_out_handles() {
        let registry = registry_with("g");
        let before = registry.checkout("g").unwrap();
        let edges_before = before.prepared().graph().num_edges();
        let (u, v) = before.prepared().graph().edges().next().unwrap();
        let (epoch, delta, summary) =
            registry.apply("g", &[GraphUpdate::RemoveEdge(u, v)]).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(delta.edges_removed, 1);
        assert_eq!(summary.edges, edges_before - 1);
        // The old handle is undisturbed; new checkouts see the new epoch.
        assert_eq!(before.prepared().graph().num_edges(), edges_before);
        assert_eq!(registry.checkout("g").unwrap().epoch(), 1);
        // Retention prunes history but stat still reports the span.
        for _ in 0..3 {
            registry.apply("g", &[GraphUpdate::AddVertex(ffsm_graph::Label(1))]).unwrap();
        }
        let stats = registry.stats("g").unwrap();
        assert_eq!(stats.summary.epoch, 4);
        assert_eq!(stats.retained, (3, 4));
        assert_eq!(stats.updates, 4);
    }

    #[test]
    fn failed_batches_are_atomic_and_uncounted() {
        let registry = registry_with("g");
        let err = registry.apply("g", &[GraphUpdate::RemoveVertex(999)]).unwrap_err();
        assert!(matches!(err, FfsmError::Update(_)));
        let stats = registry.stats("g").unwrap();
        assert_eq!(stats.updates, 0);
        assert_eq!(stats.summary.epoch, 0);
    }

    #[test]
    fn a_poisoned_store_lock_keeps_serving_the_graph() {
        let registry = Arc::new(registry_with("g"));
        let entry = registry.entry("g").unwrap();
        let panicked = std::thread::spawn(move || {
            let _held = entry.store.lock().unwrap();
            panic!("a request panics while holding the store lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(registry.entry("g").unwrap().store.is_poisoned());
        let snapshot = registry.checkout("g").unwrap();
        assert_eq!(snapshot.epoch(), 0);
        let (epoch, _, _) =
            registry.apply("g", &[GraphUpdate::AddVertex(ffsm_graph::Label(1))]).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(registry.stats("g").unwrap().summary.epoch, 1);
        assert_eq!(registry.list().len(), 1);
    }

    #[test]
    fn list_is_sorted_by_name() {
        let registry = GraphRegistry::new(1);
        registry.register("zeta", generators::gnm_random(5, 4, 2, 1)).unwrap();
        registry.register("alpha", generators::gnm_random(8, 6, 2, 2)).unwrap();
        let names: Vec<_> = registry.list().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
