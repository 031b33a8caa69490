//! [`GraphIndex`] — the reusable per-data-graph matching index.
//!
//! Built **once per data graph** and shared across every pattern matched against it
//! (the mining session builds it at `run()` time, not per candidate pattern).  Three
//! structures per graph:
//!
//! * a **label inverted index**: label → vertices carrying it, ascending by id;
//! * **degree buckets**: the same vertices sorted by `(degree, id)`, so the
//!   candidates with degree ≥ d are one `partition_point` away;
//! * **neighbour-label fingerprints**: a 64-bit bitset per vertex with one (hashed)
//!   bit per distinct neighbour label.  A pattern vertex can only map onto a data
//!   vertex whose fingerprint is a superset of the pattern vertex's — hash
//!   collisions only ever make the filter *more* permissive, never unsound;
//! * **hub adjacency bitsets**: for dense graphs (≤ [`HUB_MAX_VERTICES`] vertices),
//!   every vertex of degree ≥ [`HUB_MIN_DEGREE`] additionally stores its adjacency
//!   as a `V`-bit bitset, so the search loop can intersect a pivot's neighbourhood
//!   with a candidate bitset 64 vertices at a time instead of walking the adjacency
//!   list one vertex at a time.  The bitsets are redundant with the graph's sorted
//!   adjacency lists (a pure accelerator), and the size gates bound their memory to
//!   `O(hubs · V/64)` words.
//!
//! ## Incremental maintenance
//!
//! Under the dynamic-graph subsystem the data graph evolves in epochs;
//! [`GraphIndex::apply_delta`] repairs an index in place from the
//! [`GraphDelta`](ffsm_graph::GraphDelta) of one applied update batch instead of
//! rebuilding it: only the per-vertex slots in `dirty_new` are recomputed and only
//! the label buckets in `affected_labels` are rebuilt and re-sorted.  The full
//! [`GraphIndex::build`] stays the **differential oracle** — a patched index must
//! equal the from-scratch rebuild exactly (`PartialEq`), and the
//! `dynamic_differential` proptest harness asserts it on random update batches.

use ffsm_graph::{GraphDelta, Label, LabeledGraph, VertexId};
use std::collections::HashMap;

/// Hub adjacency bitsets are only built for graphs with at most this many
/// vertices, bounding each bitset to `HUB_MAX_VERTICES / 64` words.
pub const HUB_MAX_VERTICES: usize = 8192;

/// Minimum degree for a vertex to get a hub adjacency bitset.  Below this, a
/// plain scan of the sorted adjacency list beats the word-parallel intersection.
pub const HUB_MIN_DEGREE: usize = 32;

/// Per-data-graph index consulted by the candidate-space builder.
///
/// The index holds no reference to the graph it was built from; callers pair them
/// (the two are only meaningful together, and keeping the index free of lifetimes
/// lets a mining session share one `Arc<GraphIndex>` across worker threads).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphIndex {
    /// label → vertices with that label, ascending by vertex id.
    label_index: HashMap<Label, Vec<VertexId>>,
    /// label → the same vertices sorted by `(degree, id)` — the degree buckets.
    degree_buckets: HashMap<Label, Vec<VertexId>>,
    /// Neighbour-label fingerprint of every vertex.
    fingerprints: Vec<u64>,
    /// Degree of every vertex (copied out of the graph so bucket lookups need no
    /// graph reference).
    degrees: Vec<u32>,
    /// Hub adjacency bitsets: `Some` iff the graph is small enough
    /// (≤ [`HUB_MAX_VERTICES`]) and the vertex is dense enough
    /// (degree ≥ [`HUB_MIN_DEGREE`]).  `adj_bits[v]` has `⌈V/64⌉` words with bit
    /// `w` set iff `(v, w)` is an edge.
    adj_bits: Vec<Option<Box<[u64]>>>,
}

impl GraphIndex {
    /// Build the index for `graph`.  One `O(V + E)` pass (plus the per-label sorts).
    pub fn build(graph: &LabeledGraph) -> Self {
        let n = graph.num_vertices();
        let mut label_index: HashMap<Label, Vec<VertexId>> = HashMap::new();
        let mut fingerprints = vec![0u64; n];
        let mut degrees = vec![0u32; n];
        for v in graph.vertices() {
            label_index.entry(graph.label(v)).or_default().push(v);
            fingerprints[v as usize] = Self::neighbor_fingerprint(graph, v);
            degrees[v as usize] = graph.degree(v) as u32;
        }
        let degree_buckets = label_index
            .iter()
            .map(|(&label, vertices)| {
                let mut bucket = vertices.clone();
                bucket.sort_by_key(|&v| (degrees[v as usize], v));
                (label, bucket)
            })
            .collect();
        let adj_bits = Self::build_adj_bits(graph);
        GraphIndex { label_index, degree_buckets, fingerprints, degrees, adj_bits }
    }

    /// The adjacency bitset of one vertex under the hub policy.
    fn adjacency_bitset(graph: &LabeledGraph, v: VertexId, words: usize) -> Option<Box<[u64]>> {
        if graph.num_vertices() > HUB_MAX_VERTICES || graph.degree(v) < HUB_MIN_DEGREE {
            return None;
        }
        let mut bits = vec![0u64; words].into_boxed_slice();
        for &w in graph.neighbors(v) {
            bits[w as usize / 64] |= 1u64 << (w % 64);
        }
        Some(bits)
    }

    /// All hub adjacency bitsets, from scratch.
    fn build_adj_bits(graph: &LabeledGraph) -> Vec<Option<Box<[u64]>>> {
        let n = graph.num_vertices();
        let words = n.div_ceil(64);
        (0..n).map(|v| Self::adjacency_bitset(graph, v as VertexId, words)).collect()
    }

    /// Number of vertices of the indexed graph.
    pub fn num_vertices(&self) -> usize {
        self.fingerprints.len()
    }

    /// The fingerprint bit of one label.
    pub fn label_bit(label: Label) -> u64 {
        1u64 << (label.0 % 64)
    }

    /// The neighbour-label fingerprint of `v` in `graph`: the OR of the label bits
    /// of its neighbours.  Used for data vertices at build time and for pattern
    /// vertices at candidate-filter time, so the two sides hash identically.
    pub fn neighbor_fingerprint(graph: &LabeledGraph, v: VertexId) -> u64 {
        graph.neighbors(v).iter().fold(0u64, |fp, &w| fp | Self::label_bit(graph.label(w)))
    }

    /// The stored fingerprint of data vertex `v`.
    pub fn fingerprint(&self, v: VertexId) -> u64 {
        self.fingerprints[v as usize]
    }

    /// All vertices carrying `label`, ascending by id (empty if the label does not
    /// occur).
    pub fn vertices_with_label(&self, label: Label) -> &[VertexId] {
        self.label_index.get(&label).map(Vec::as_slice).unwrap_or(&[])
    }

    /// How many vertices carry `label`.
    pub fn label_frequency(&self, label: Label) -> usize {
        self.vertices_with_label(label).len()
    }

    /// The vertices with `label` and degree ≥ `min_degree`, sorted by
    /// `(degree, id)` — one binary search into the label's degree bucket.
    pub fn vertices_with_min_degree(&self, label: Label, min_degree: usize) -> &[VertexId] {
        let Some(bucket) = self.degree_buckets.get(&label) else {
            return &[];
        };
        let cut = bucket.partition_point(|&v| (self.degrees[v as usize] as usize) < min_degree);
        &bucket[cut..]
    }

    /// Degree of data vertex `v` (as recorded at build time).
    pub fn degree(&self, v: VertexId) -> usize {
        self.degrees[v as usize] as usize
    }

    /// The hub adjacency bitset of `v` (`⌈V/64⌉` words, bit `w` set iff `(v, w)`
    /// is an edge), or `None` when `v` is not a hub under the size gates.
    pub fn adjacency_words(&self, v: VertexId) -> Option<&[u64]> {
        self.adj_bits[v as usize].as_deref()
    }

    /// Repair this index in place after `graph` absorbed the update batch that
    /// produced `delta` (see the module docs in `index.rs`).  `graph` must be the
    /// **post-batch** graph the index was tracking; the patched index equals
    /// `GraphIndex::build(graph)` exactly.
    ///
    /// Cost: `O(|dirty| · deg)` per-vertex repairs plus one `O(V)` label scan and
    /// bucket re-sort per affected label — independent of the total edge count,
    /// which is what a cold rebuild pays.
    pub fn apply_delta(&mut self, graph: &LabeledGraph, delta: &GraphDelta) {
        let n = graph.num_vertices();
        debug_assert_eq!(
            self.fingerprints.len(),
            delta.base_vertices,
            "apply_delta: index was not built from the delta's pre-batch graph"
        );
        debug_assert_eq!(
            n,
            delta.base_vertices + delta.vertices_added - delta.vertices_removed,
            "apply_delta: graph is not the delta's post-batch graph"
        );
        // Swap-removal means only dirty slots (and truncated tail slots) changed:
        // resize, then recompute exactly the dirty per-vertex entries.
        self.fingerprints.resize(n, 0);
        self.degrees.resize(n, 0);
        for &v in &delta.dirty_new {
            self.fingerprints[v as usize] = Self::neighbor_fingerprint(graph, v);
            self.degrees[v as usize] = graph.degree(v) as u32;
        }
        // Hub adjacency bitsets.  A swap-removal renames the moved vertex inside
        // its neighbours' adjacency sets *without* those neighbours being dirty
        // (their labels/degrees/fingerprints are unchanged), so any batch that
        // removed vertices recomputes the bitsets wholesale — still cheaper than a
        // cold rebuild, which also pays the label scans and bucket sorts.  Pure
        // add/relabel batches patch only the dirty slots.
        if delta.vertices_removed > 0 {
            self.adj_bits = Self::build_adj_bits(graph);
        } else if n > HUB_MAX_VERTICES {
            // Growth across the size gate disables every bitset, dirty or not.
            self.adj_bits.clear();
            self.adj_bits.resize(n, None);
        } else {
            let words = n.div_ceil(64);
            self.adj_bits.resize(n, None);
            for bits in self.adj_bits.iter_mut().flatten() {
                if bits.len() != words {
                    let mut grown = bits.to_vec();
                    grown.resize(words, 0);
                    *bits = grown.into_boxed_slice();
                }
            }
            for &v in &delta.dirty_new {
                self.adj_bits[v as usize] = Self::adjacency_bitset(graph, v, words);
            }
        }
        // A label's lists change only when a member's membership, id or degree
        // changed — all such vertices are dirty and their labels are in
        // `affected_labels`; untouched labels keep their vectors untouched.
        for &label in &delta.affected_labels {
            let vertices = graph.vertices_with_label(label);
            if vertices.is_empty() {
                self.label_index.remove(&label);
                self.degree_buckets.remove(&label);
                continue;
            }
            let mut bucket = vertices.clone();
            bucket.sort_by_key(|&v| (self.degrees[v as usize], v));
            self.label_index.insert(label, vertices);
            self.degree_buckets.insert(label, bucket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LabeledGraph {
        // Star: hub 0 (label 0) with leaves 1..4 (label 1) plus an isolated label-2
        // vertex and a label-1 vertex of degree 2.
        LabeledGraph::from_edges(&[0, 1, 1, 1, 1, 2, 1], &[(0, 1), (0, 2), (0, 3), (0, 4), (1, 6)])
    }

    #[test]
    fn label_index_is_sorted_and_complete() {
        let g = sample();
        let ix = GraphIndex::build(&g);
        assert_eq!(ix.num_vertices(), 7);
        assert_eq!(ix.vertices_with_label(Label(0)), &[0]);
        assert_eq!(ix.vertices_with_label(Label(1)), &[1, 2, 3, 4, 6]);
        assert_eq!(ix.vertices_with_label(Label(2)), &[5]);
        assert_eq!(ix.vertices_with_label(Label(9)), &[] as &[VertexId]);
        assert_eq!(ix.label_frequency(Label(1)), 5);
    }

    #[test]
    fn degree_buckets_cut_at_min_degree() {
        let g = sample();
        let ix = GraphIndex::build(&g);
        // Label-1 degrees: v1 has 2, v2..v4 have 1, v6 has 1.
        assert_eq!(ix.vertices_with_min_degree(Label(1), 2), &[1]);
        let all = ix.vertices_with_min_degree(Label(1), 0);
        assert_eq!(all.len(), 5);
        // Bucket order is (degree, id): the three degree-1 leaves and v6 first.
        assert_eq!(&all[..4], &[2, 3, 4, 6]);
        assert!(ix.vertices_with_min_degree(Label(2), 1).is_empty());
        assert!(ix.vertices_with_min_degree(Label(7), 0).is_empty());
    }

    #[test]
    fn fingerprints_reflect_neighbor_labels() {
        let g = sample();
        let ix = GraphIndex::build(&g);
        // Hub 0 sees only label-1 neighbours.
        assert_eq!(ix.fingerprint(0), GraphIndex::label_bit(Label(1)));
        // Leaf 1 sees labels 0 and 1 (via vertex 6).
        assert_eq!(
            ix.fingerprint(1),
            GraphIndex::label_bit(Label(0)) | GraphIndex::label_bit(Label(1))
        );
        // The isolated vertex has the empty fingerprint.
        assert_eq!(ix.fingerprint(5), 0);
        // Subset test used by the candidate builder: hub's requirement ⊆ leaf's view.
        let need = GraphIndex::label_bit(Label(0));
        assert_eq!(need & !ix.fingerprint(1), 0);
        assert_ne!(need & !ix.fingerprint(0), 0);
    }

    #[test]
    fn apply_delta_matches_rebuild_on_each_update_kind() {
        use ffsm_graph::{apply_batch, GraphUpdate};
        let batches: Vec<Vec<GraphUpdate>> = vec![
            vec![GraphUpdate::AddEdge(2, 3)],
            vec![GraphUpdate::RemoveEdge(0, 1)],
            vec![GraphUpdate::AddVertex(Label(3)), GraphUpdate::AddEdge(7, 0)],
            vec![GraphUpdate::Relabel(6, Label(2))],
            vec![GraphUpdate::RemoveVertex(0)], // removes the hub, moves the last vertex
            vec![GraphUpdate::RemoveVertex(2), GraphUpdate::AddEdge(0, 1)],
        ];
        let mut graph = sample();
        let mut index = GraphIndex::build(&graph);
        for batch in batches {
            let delta = apply_batch(&mut graph, &batch).expect("valid batch");
            index.apply_delta(&graph, &delta);
            assert_eq!(index, GraphIndex::build(&graph), "after {batch:?}");
        }
    }

    #[test]
    fn apply_delta_drops_emptied_labels() {
        use ffsm_graph::{apply_batch, GraphUpdate};
        let mut graph = sample();
        let mut index = GraphIndex::build(&graph);
        // Vertex 5 is the only label-2 vertex; relabelling it empties the bucket.
        let delta = apply_batch(&mut graph, &[GraphUpdate::Relabel(5, Label(1))]).unwrap();
        index.apply_delta(&graph, &delta);
        assert!(index.vertices_with_label(Label(2)).is_empty());
        assert!(index.vertices_with_min_degree(Label(2), 0).is_empty());
        assert_eq!(index, GraphIndex::build(&graph));
    }

    #[test]
    fn hub_bitsets_follow_the_degree_and_size_gates() {
        // A star whose hub exceeds HUB_MIN_DEGREE gets a bitset; leaves do not.
        let leaves = HUB_MIN_DEGREE + 3;
        let labels = vec![0u32; leaves + 1];
        let edges: Vec<(VertexId, VertexId)> = (1..=leaves).map(|l| (0, l as VertexId)).collect();
        let g = LabeledGraph::from_edges(&labels, &edges);
        let ix = GraphIndex::build(&g);
        let bits = ix.adjacency_words(0).expect("hub gets a bitset");
        assert_eq!(bits.len(), (leaves + 1).div_ceil(64));
        for l in 1..=leaves {
            assert_ne!(bits[l / 64] & (1u64 << (l % 64)), 0, "leaf {l} bit");
            assert!(ix.adjacency_words(l as VertexId).is_none(), "leaves are not hubs");
        }
        assert_eq!(bits[0] & 1, 0, "no self-loop bit");
    }

    #[test]
    fn apply_delta_repairs_hub_bitsets() {
        use ffsm_graph::{apply_batch, GraphUpdate};
        // Build a hub, then push it across the degree gate in both directions and
        // through a swap-removal; the patched index must equal a rebuild each time.
        let leaves = HUB_MIN_DEGREE;
        let labels = vec![0u32; leaves + 2];
        let edges: Vec<(VertexId, VertexId)> = (1..=leaves).map(|l| (0, l as VertexId)).collect();
        let mut graph = LabeledGraph::from_edges(&labels, &edges);
        let mut index = GraphIndex::build(&graph);
        assert!(index.adjacency_words(0).is_some());
        let batches: Vec<Vec<GraphUpdate>> = vec![
            vec![GraphUpdate::RemoveEdge(0, 1)], // hub drops below the gate
            vec![GraphUpdate::AddEdge(0, 1), GraphUpdate::AddEdge(0, leaves as VertexId + 1)],
            vec![GraphUpdate::RemoveVertex(3)], // swap-removal renames a leaf
        ];
        for batch in batches {
            let delta = apply_batch(&mut graph, &batch).expect("valid batch");
            index.apply_delta(&graph, &delta);
            assert_eq!(index, GraphIndex::build(&graph), "after {batch:?}");
        }
    }

    #[test]
    fn degrees_are_recorded() {
        let g = sample();
        let ix = GraphIndex::build(&g);
        assert_eq!(ix.degree(0), 4);
        assert_eq!(ix.degree(5), 0);
        assert_eq!(ix.degree(1), 2);
    }
}
