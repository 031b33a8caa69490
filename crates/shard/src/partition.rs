//! Partitioning a data graph into interior + halo shards.
//!
//! See the crate docs for the halo invariant and the anchor-shard dedup rule.
//! The partitioner is deliberately simple and deterministic: contiguous vertex
//! ranges, or greedy label-block packing for label-skewed graphs — both produce
//! the *same* assignment on every run so that sharded mining is reproducible
//! and differentially testable against the unsharded engine.

use crate::store::{ShardStore, ShardStoreStats};
use ffsm_core::{FfsmError, GraphIndex};
use ffsm_graph::{Label, LabeledGraph, VertexId};
use std::collections::{BTreeSet, VecDeque};
use std::path::Path;
use std::sync::{Arc, OnceLock};

/// How interiors are chosen: which shard *owns* each vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// Contiguous vertex-id ranges of near-equal size.  The right default when
    /// vertex ids correlate with locality (generators emit communities as
    /// contiguous ranges; so do most bulk loaders).
    VertexRange,
    /// Greedy label-block packing: labels descending by frequency, each label's
    /// vertex block assigned to the currently smallest shard.  Keeps same-label
    /// vertices together so label-local patterns rarely straddle a cut.
    LabelAware,
}

impl std::fmt::Display for PartitionStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionStrategy::VertexRange => write!(f, "vertex-range"),
            PartitionStrategy::LabelAware => write!(f, "label-aware"),
        }
    }
}

impl std::str::FromStr for PartitionStrategy {
    type Err = FfsmError;

    fn from_str(s: &str) -> Result<Self, FfsmError> {
        match s.to_ascii_lowercase().as_str() {
            "vertex-range" | "range" => Ok(PartitionStrategy::VertexRange),
            "label-aware" | "label" => Ok(PartitionStrategy::LabelAware),
            other => Err(FfsmError::Partition(format!(
                "unknown partition strategy {other:?} (expected vertex-range or label-aware)"
            ))),
        }
    }
}

/// A partitioning request: shard count, halo depth, interior strategy.
///
/// `halo_depth` must be at least the maximum pattern edge count that will be
/// mined over the partition — the mining session checks this when it starts;
/// the builder checks the spec against the graph itself (`num_shards >= 1`,
/// halo smaller than the graph when there is more than one shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Number of shards `K`.
    pub num_shards: usize,
    /// Hop radius of the halo around each interior.
    pub halo_depth: usize,
    /// Interior ownership strategy.
    pub strategy: PartitionStrategy,
}

impl PartitionSpec {
    /// Contiguous vertex-range partitioning.
    pub fn vertex_range(num_shards: usize, halo_depth: usize) -> Self {
        PartitionSpec { num_shards, halo_depth, strategy: PartitionStrategy::VertexRange }
    }

    /// Label-aware greedy partitioning.
    pub fn label_aware(num_shards: usize, halo_depth: usize) -> Self {
        PartitionSpec { num_shards, halo_depth, strategy: PartitionStrategy::LabelAware }
    }

    fn validate(&self, graph: &LabeledGraph) -> Result<(), FfsmError> {
        if self.num_shards == 0 {
            return Err(FfsmError::Partition("shards must be at least 1 (got 0)".into()));
        }
        if self.num_shards > 1
            && graph.num_vertices() > 0
            && self.halo_depth >= graph.num_vertices()
        {
            return Err(FfsmError::Partition(format!(
                "halo depth {} is no smaller than the graph ({} vertices): every shard \
                 would be the whole graph — lower the halo or use a single shard",
                self.halo_depth,
                graph.num_vertices()
            )));
        }
        Ok(())
    }
}

/// One in-memory shard: the induced subgraph over interior + halo, its local →
/// global vertex map, and a lazily built per-shard [`GraphIndex`] (same
/// build-exactly-once discipline as `PreparedGraph`).
#[derive(Debug)]
pub struct ResidentShard {
    graph: LabeledGraph,
    to_global: Vec<VertexId>,
    index: OnceLock<Arc<GraphIndex>>,
}

impl ResidentShard {
    pub(crate) fn new(graph: LabeledGraph, to_global: Vec<VertexId>) -> Self {
        ResidentShard { graph, to_global, index: OnceLock::new() }
    }

    /// The shard's induced subgraph (local vertex ids `0..n`).
    pub fn graph(&self) -> &LabeledGraph {
        &self.graph
    }

    /// Local vertex id → global vertex id, ascending in global id.
    pub fn to_global(&self) -> &[VertexId] {
        &self.to_global
    }

    /// The shard's matching index, built on first use and shared thereafter.
    pub fn index(&self) -> Arc<GraphIndex> {
        self.index.get_or_init(|| Arc::new(GraphIndex::build(&self.graph))).clone()
    }

    /// `true` once [`ResidentShard::index`] has run.
    pub fn index_is_built(&self) -> bool {
        self.index.get().is_some()
    }

    /// Documented storage proxy for this shard: 16 bytes per vertex (label +
    /// adjacency bookkeeping), 16 per edge (two sorted `u32` endpoints plus
    /// allocator slack), 4 per vertex for the global-id map.  Derived data (the
    /// lazy index) is excluded on both sides of every comparison that uses this
    /// proxy, so sharded-vs-whole ratios stay honest.
    pub fn approx_bytes(&self) -> u64 {
        approx_graph_bytes(self.graph.num_vertices(), self.graph.num_edges())
            + 4 * self.to_global.len() as u64
    }
}

/// Storage proxy for a bare graph — see [`ResidentShard::approx_bytes`].
pub(crate) fn approx_graph_bytes(vertices: usize, edges: usize) -> u64 {
    vertices as u64 * 16 + edges as u64 * 16
}

/// A data graph split into `K` interior+halo shards, with everything the mining
/// driver needs to reproduce the unsharded engine's behaviour *without* the
/// global graph in memory: the vertex→shard assignment, the label alphabet and
/// counts, the seed label pairs, and the cut-boundary flags.
#[derive(Debug)]
pub struct PartitionedGraph {
    spec: PartitionSpec,
    assignment: Arc<Vec<u32>>,
    boundary: Arc<Vec<bool>>,
    alphabet: Arc<Vec<Label>>,
    label_counts: Vec<(Label, usize)>,
    seed_pairs: Vec<(Label, Label)>,
    num_vertices: usize,
    num_edges: usize,
    store: ShardStore,
}

impl PartitionedGraph {
    /// Partition `graph` according to `spec`.  All shards start resident;
    /// call [`PartitionedGraph::spill_to_disk`] to cap residency.
    pub fn build(graph: &LabeledGraph, spec: PartitionSpec) -> Result<Self, FfsmError> {
        spec.validate(graph)?;
        let n = graph.num_vertices();
        let assignment = match spec.strategy {
            PartitionStrategy::VertexRange => range_assignment(n, spec.num_shards),
            PartitionStrategy::LabelAware => label_assignment(graph, spec.num_shards),
        };
        debug_assert_eq!(assignment.len(), n);

        let mut boundary = vec![false; n];
        for v in graph.vertices() {
            for &w in graph.neighbors(v) {
                if assignment[v as usize] != assignment[w as usize] {
                    boundary[v as usize] = true;
                    break;
                }
            }
        }

        let mut shards = Vec::with_capacity(spec.num_shards);
        for shard in 0..spec.num_shards {
            let members = halo_ball(graph, &assignment, shard as u32, spec.halo_depth);
            let (sub, back) = graph.induced_subgraph(&members);
            shards.push(ResidentShard::new(sub, back));
        }

        let label_counts = graph.label_histogram();
        let alphabet: Vec<Label> = label_counts.iter().map(|&(l, _)| l).collect();
        let mut pairs = BTreeSet::new();
        for v in graph.vertices() {
            let a = graph.label(v);
            for &w in graph.neighbors(v) {
                if v < w {
                    let b = graph.label(w);
                    pairs.insert(if a <= b { (a, b) } else { (b, a) });
                }
            }
        }

        Ok(PartitionedGraph {
            spec,
            assignment: Arc::new(assignment),
            boundary: Arc::new(boundary),
            alphabet: Arc::new(alphabet),
            label_counts,
            seed_pairs: pairs.into_iter().collect(),
            num_vertices: n,
            num_edges: graph.num_edges(),
            store: ShardStore::resident(shards, n),
        })
    }

    /// The spec this partition was built from.
    pub fn spec(&self) -> PartitionSpec {
        self.spec
    }

    /// Number of shards `K`.
    pub fn num_shards(&self) -> usize {
        self.spec.num_shards
    }

    /// Global vertex → owning shard.
    pub fn assignment(&self) -> &Arc<Vec<u32>> {
        &self.assignment
    }

    /// `boundary()[v]` is `true` iff `v` has a neighbour owned by another shard
    /// (i.e. `v` touches a cut edge).  Cross-shard occurrences can only meet in
    /// these vertices — the hypergraph block-overlap restriction keys on this.
    pub fn boundary(&self) -> &Arc<Vec<bool>> {
        &self.boundary
    }

    /// Distinct labels of the *global* graph, ascending — the extension
    /// alphabet, identical to `PreparedGraph::alphabet()` on the same graph.
    pub fn alphabet(&self) -> &[Label] {
        &self.alphabet
    }

    /// Per-label vertex counts of the *global* graph, ascending by label —
    /// identical to `PreparedGraph::label_counts()` on the same graph.
    pub fn label_counts(&self) -> &[(Label, usize)] {
        &self.label_counts
    }

    /// Unordered label pairs of the global edge set, sorted — reproduces
    /// `seed_patterns(global_graph)` without the global graph.
    pub fn seed_pairs(&self) -> &[(Label, Label)] {
        &self.seed_pairs
    }

    /// Global vertex count.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Global (undirected) edge count.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Fetch shard `i`, reloading it from the spill file if evicted.
    pub fn shard(&self, i: usize) -> Result<Arc<ResidentShard>, FfsmError> {
        self.store.fetch(i)
    }

    /// Spill every shard to `dir` and cap residency at `max_resident` shards
    /// (LRU-evicted).  Shards are immutable, so eviction never writes back.
    pub fn spill_to_disk(
        &self,
        dir: impl AsRef<Path>,
        max_resident: usize,
    ) -> Result<(), FfsmError> {
        self.store.spill(dir.as_ref(), max_resident)
    }

    /// Residency / load counters of the underlying [`ShardStore`].
    pub fn store_stats(&self) -> ShardStoreStats {
        self.store.stats()
    }

    /// Storage proxy for the whole graph under the same formula as
    /// [`ResidentShard::approx_bytes`] (without per-shard global-id maps), the
    /// denominator of the bench's resident-memory ratio.
    pub fn whole_graph_bytes(&self) -> u64 {
        approx_graph_bytes(self.num_vertices, self.num_edges)
    }
}

/// Contiguous near-equal ranges: vertex `v` goes to shard `v * k / n`.
fn range_assignment(n: usize, k: usize) -> Vec<u32> {
    if n == 0 {
        return Vec::new();
    }
    (0..n).map(|v| ((v * k) / n) as u32).collect()
}

/// Labels descending by frequency (ties: ascending label), each label block to
/// the currently smallest shard.  Deterministic; shards may own no vertices
/// when there are fewer labels than shards (they then enumerate nothing).
fn label_assignment(graph: &LabeledGraph, k: usize) -> Vec<u32> {
    let mut hist = graph.label_histogram();
    hist.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut shard_of_label = std::collections::BTreeMap::new();
    let mut load = vec![0usize; k];
    for (label, count) in hist {
        let smallest = (0..k).min_by_key(|&s| (load[s], s)).expect("num_shards >= 1 validated");
        shard_of_label.insert(label, smallest as u32);
        load[smallest] += count;
    }
    graph.vertices().map(|v| shard_of_label[&graph.label(v)]).collect()
}

/// `{ v : dist_G(v, interior) <= depth }` via multi-source BFS, ascending.
fn halo_ball(graph: &LabeledGraph, assignment: &[u32], shard: u32, depth: usize) -> Vec<VertexId> {
    let n = graph.num_vertices();
    let mut dist: Vec<u32> = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    for v in graph.vertices() {
        if assignment[v as usize] == shard {
            dist[v as usize] = 0;
            queue.push_back(v);
        }
    }
    while let Some(u) = queue.pop_front() {
        let d = dist[u as usize];
        if d as usize >= depth {
            continue;
        }
        for &w in graph.neighbors(u) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = d + 1;
                queue.push_back(w);
            }
        }
    }
    (0..n as VertexId).filter(|&v| dist[v as usize] != u32::MAX).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> LabeledGraph {
        let labels: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
        let edges: Vec<(VertexId, VertexId)> =
            (0..n - 1).map(|i| (i as VertexId, i as VertexId + 1)).collect();
        LabeledGraph::from_edges(&labels, &edges)
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        let g = path_graph(4);
        let err = PartitionedGraph::build(&g, PartitionSpec::vertex_range(0, 1)).unwrap_err();
        assert!(matches!(err, FfsmError::Partition(_)));
        assert!(err.to_string().contains("got 0"));
    }

    #[test]
    fn halo_swallowing_the_graph_is_a_typed_error() {
        let g = path_graph(4);
        let err = PartitionedGraph::build(&g, PartitionSpec::vertex_range(2, 4)).unwrap_err();
        assert!(matches!(err, FfsmError::Partition(_)));
        // A single shard tolerates any halo: there is nothing to duplicate.
        assert!(PartitionedGraph::build(&g, PartitionSpec::vertex_range(1, 100)).is_ok());
    }

    #[test]
    fn halo_ball_contains_interior_plus_radius() {
        let g = path_graph(10);
        let p = PartitionedGraph::build(&g, PartitionSpec::vertex_range(2, 2)).unwrap();
        // Shard 0 interior = {0..4}; halo depth 2 reaches 5 and 6 along the path.
        let s0 = p.shard(0).unwrap();
        assert_eq!(s0.to_global(), &[0, 1, 2, 3, 4, 5, 6]);
        let s1 = p.shard(1).unwrap();
        assert_eq!(s1.to_global(), &[3, 4, 5, 6, 7, 8, 9]);
        // Both shards are induced: the path edges among their members survive.
        assert_eq!(s0.graph().num_edges(), 6);
        assert_eq!(s1.graph().num_edges(), 6);
        // Boundary = the two endpoints of the single cut edge {4, 5}.
        let b = p.boundary();
        assert_eq!((0..10).filter(|&v| b[v]).collect::<Vec<_>>(), vec![4, 5],);
    }

    #[test]
    fn label_aware_keeps_label_blocks_together() {
        let g = path_graph(12); // labels cycle 0,1,2
        let p = PartitionedGraph::build(&g, PartitionSpec::label_aware(3, 1)).unwrap();
        let a = p.assignment();
        for v in g.vertices() {
            for w in g.vertices() {
                if g.label(v) == g.label(w) {
                    assert_eq!(a[v as usize], a[w as usize]);
                }
            }
        }
        // Deterministic: rebuilding yields the same assignment.
        let p2 = PartitionedGraph::build(&g, PartitionSpec::label_aware(3, 1)).unwrap();
        assert_eq!(p.assignment(), p2.assignment());
    }

    #[test]
    fn seeds_and_alphabet_match_the_global_graph() {
        let g = path_graph(9);
        let p = PartitionedGraph::build(&g, PartitionSpec::vertex_range(3, 2)).unwrap();
        assert_eq!(p.alphabet(), &[Label(0), Label(1), Label(2)]);
        assert_eq!(p.label_counts(), g.label_histogram().as_slice());
        // Path 0-1-2-0-1-2-…: unordered edge label pairs {0,1}, {1,2}, {0,2}.
        assert_eq!(
            p.seed_pairs(),
            &[(Label(0), Label(1)), (Label(0), Label(2)), (Label(1), Label(2))]
        );
        assert_eq!(p.num_vertices(), 9);
        assert_eq!(p.num_edges(), 8);
    }
}
