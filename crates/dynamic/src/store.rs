//! [`DynamicGraph`] — the versioned store of epoch snapshots.
//!
//! ## Epoch / snapshot semantics
//!
//! The store is a linear history of **epochs** `0, 1, 2, …`.  Epoch 0 is the
//! initial graph; every [`DynamicGraph::apply`] validates one update batch and,
//! on success, appends exactly one new epoch.  An [`EpochSnapshot`] is
//! immutable: its [`PreparedGraph`] never changes after creation (the usual
//! prepare-once contract), so handles can be shared freely with concurrent
//! readers while newer epochs are created — a reader keeps mining the epoch it
//! started on.
//!
//! A failed batch is atomic: the store is left exactly as it was, because the
//! batch is applied to a scratch copy inside
//! [`PreparedGraph::apply_updates`] before anything is committed.
//!
//! Snapshots structurally share untouched state with their parent epoch (label
//! statistics `Arc`-shared for pure-edge deltas, matching index patched over
//! the dirty region rather than rebuilt); the store itself only retains the
//! history you ask it to keep ([`DynamicGraph::retain_recent`]).

use ffsm_core::FfsmError;
use ffsm_graph::{GraphDelta, GraphUpdate, LabeledGraph};
use ffsm_miner::PreparedGraph;

/// One immutable graph epoch: the prepared graph plus the delta that created it.
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    epoch: usize,
    prepared: PreparedGraph,
    /// The dirty region of the batch that produced this epoch (`None` for the
    /// initial epoch, which has no parent).
    delta: Option<GraphDelta>,
}

impl EpochSnapshot {
    /// The epoch number (0 = the initial graph).
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// The immutable prepared graph of this epoch.
    pub fn prepared(&self) -> &PreparedGraph {
        &self.prepared
    }

    /// The delta from the parent epoch, `None` for epoch 0.
    pub fn delta(&self) -> Option<&GraphDelta> {
        self.delta.as_ref()
    }
}

/// A versioned dynamic graph: apply update batches, get immutable epoch
/// snapshots.  See the module docs in `store.rs`.
#[derive(Debug)]
pub struct DynamicGraph {
    /// Retained snapshots, ascending by epoch; the last entry is current.
    /// `retain_recent` may drop a prefix, so index ≠ epoch in general.
    epochs: Vec<EpochSnapshot>,
}

impl DynamicGraph {
    /// Open a store at epoch 0 with the given initial graph.
    pub fn new(graph: LabeledGraph) -> Self {
        Self::from_prepared(PreparedGraph::new(graph))
    }

    /// Open a store at epoch 0 over an already-prepared graph (sharing its
    /// artifacts — a built index is inherited by later epochs via patching).
    pub fn from_prepared(prepared: PreparedGraph) -> Self {
        DynamicGraph { epochs: vec![EpochSnapshot { epoch: 0, prepared, delta: None }] }
    }

    /// The current epoch number.
    pub fn epoch(&self) -> usize {
        self.current().epoch
    }

    /// The current (newest) snapshot.
    pub fn current(&self) -> &EpochSnapshot {
        self.epochs.last().expect("store always has a current epoch")
    }

    /// The retained snapshot of `epoch`, if it has not been pruned.
    pub fn snapshot(&self, epoch: usize) -> Option<&EpochSnapshot> {
        // Epochs are ascending and dense within the retained suffix.
        let first = self.epochs.first()?.epoch;
        epoch.checked_sub(first).and_then(|i| self.epochs.get(i))
    }

    /// Number of retained snapshots.
    pub fn retained(&self) -> usize {
        self.epochs.len()
    }

    /// The `(oldest, newest)` epoch numbers still retained — what a serving
    /// registry reports as the epoch-cache span (snapshots inside it answer
    /// `snapshot()` without recomputation; older epochs have been pruned).
    pub fn retained_range(&self) -> (usize, usize) {
        let first = self.epochs.first().expect("store always has a current epoch").epoch;
        (first, self.current().epoch)
    }

    /// Validate and apply one update batch, committing a new epoch on success
    /// and leaving the store untouched on failure.
    ///
    /// # Errors
    ///
    /// [`FfsmError::Update`] naming the offending update and its batch index
    /// (unknown vertex, self loop, …).
    pub fn apply(&mut self, updates: &[GraphUpdate]) -> Result<&EpochSnapshot, FfsmError> {
        let (prepared, delta) = self.current().prepared.apply_updates(updates)?;
        let epoch = self.current().epoch + 1;
        self.epochs.push(EpochSnapshot { epoch, prepared, delta: Some(delta) });
        Ok(self.current())
    }

    /// Drop all but the newest `keep` snapshots (the current epoch is always
    /// retained).  Outstanding clones of dropped snapshots stay valid — pruning
    /// only bounds what the store itself keeps alive.
    pub fn retain_recent(&mut self, keep: usize) {
        let keep = keep.max(1);
        if self.epochs.len() > keep {
            self.epochs.drain(..self.epochs.len() - keep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::Label;

    fn path4() -> LabeledGraph {
        LabeledGraph::from_edges(&[0, 1, 1, 0], &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn epochs_advance_per_batch() {
        let mut store = DynamicGraph::new(path4());
        assert_eq!(store.epoch(), 0);
        assert!(store.current().delta().is_none());
        store.apply(&[GraphUpdate::AddEdge(0, 3)]).unwrap();
        let epoch = store.apply(&[GraphUpdate::Relabel(1, Label(7))]).unwrap();
        assert_eq!(epoch.epoch(), 2);
        assert_eq!(epoch.delta().unwrap().relabelled, 1);
        assert_eq!(store.retained(), 3);
        assert_eq!(store.snapshot(1).unwrap().prepared().graph().num_edges(), 4);
    }

    #[test]
    fn failed_batches_are_atomic() {
        let mut store = DynamicGraph::new(path4());
        let err =
            store.apply(&[GraphUpdate::AddEdge(0, 2), GraphUpdate::RemoveVertex(99)]).unwrap_err();
        assert!(matches!(err, FfsmError::Update(_)));
        assert_eq!(store.epoch(), 0, "nothing committed");
        assert!(!store.current().prepared().graph().has_edge(0, 2));
    }

    #[test]
    fn old_snapshots_survive_new_epochs() {
        let mut store = DynamicGraph::new(path4());
        let epoch0 = store.current().clone();
        store.apply(&[GraphUpdate::RemoveVertex(0)]).unwrap();
        assert_eq!(epoch0.prepared().graph().num_vertices(), 4, "reader view intact");
        assert_eq!(store.current().prepared().graph().num_vertices(), 3);
    }

    #[test]
    fn retention_keeps_the_newest_suffix() {
        let mut store = DynamicGraph::new(path4());
        for _ in 0..5 {
            store.apply(&[GraphUpdate::AddVertex(Label(9))]).unwrap();
        }
        store.retain_recent(2);
        assert_eq!(store.retained(), 2);
        assert_eq!(store.epoch(), 5);
        assert_eq!(store.retained_range(), (4, 5));
        assert!(store.snapshot(3).is_none(), "pruned");
        assert_eq!(store.snapshot(4).unwrap().epoch(), 4);
        assert_eq!(store.snapshot(5).unwrap().epoch(), 5);
        store.retain_recent(0);
        assert_eq!(store.retained(), 1, "current epoch always survives");
    }

    #[test]
    fn inherited_index_is_patched_not_rebuilt() {
        let mut store = DynamicGraph::new(path4());
        let _ = store.current().prepared().index();
        let epoch = store.apply(&[GraphUpdate::AddEdge(1, 3)]).unwrap();
        assert_eq!(epoch.prepared().index_build_count(), 0);
        let _ = epoch.prepared().index();
        assert_eq!(epoch.prepared().index_build_count(), 0, "patched index served");
    }
}
