//! Occurrences, instances and their hypergraphs.
//!
//! Given a pattern `P` and data graph `G`:
//!
//! * an **occurrence** is a subgraph isomorphism `f : P → G` (Definition 2.1.8);
//! * an **instance** is a subgraph of `G` isomorphic to `P` (Definition 2.1.9) — the
//!   image of one or more occurrences;
//! * the **occurrence hypergraph** has one vertex per pattern-node image and one edge
//!   per occurrence, the edge being the occurrence's image vertex set
//!   (Definition 3.1.3);
//! * the **instance hypergraph** is the same construction over instances
//!   (Definition 3.1.4): occurrences that project the pattern onto the same subgraph
//!   (same image vertex *and* edge set) collapse into a single hyperedge.
//!
//! The embeddings live in one row-major buffer ([`EmbeddingRows`]): one row
//! per occurrence, `row[node]` the image of pattern node `node`, so no
//! occurrence is an allocation of its own.  [`RowCollector`] fills that buffer
//! straight from the search's visitor; [`OccurrenceSet::embeddings`] lends it
//! out as a view of rows.
//!
//! Hypergraph vertices are re-indexed densely (`0..k`, in order of first appearance
//! over the embeddings); [`OccurrenceSet`] keeps the mapping back to data-graph vertex
//! identifiers.  It builds that numbering on first use, by
//! [`num_images`](OccurrenceSet::num_images), [`image_vertex`](OccurrenceSet::image_vertex)
//! or a hypergraph view.  MNI, MI and the occurrence count read the embeddings alone
//! and never build it.

use ffsm_graph::isomorphism::{Embedding, EmbeddingVisitor, IsoConfig, VisitFlow};
use ffsm_graph::{LabeledGraph, Pattern, VertexId};
use ffsm_hypergraph::Hypergraph;
use ffsm_match::{GraphIndex, SearchArena};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::ops::{Deref, Index};
use std::sync::OnceLock;

/// Which hypergraph a measure is evaluated on (the paper defines MVC/MIES/MIS on
/// "occurrence (instance)" hypergraphs; both are supported everywhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HypergraphBasis {
    /// One hyperedge per occurrence (subgraph isomorphism).  The default.
    #[default]
    Occurrence,
    /// One hyperedge per instance (distinct image subgraph).
    Instance,
}

/// An instance of the pattern: the image subgraph, identified by its vertex and edge
/// sets in the data graph.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Instance {
    /// Sorted data-graph vertices of the image subgraph.
    pub vertices: Vec<VertexId>,
    /// Sorted data-graph edges (as `(min, max)` pairs) of the image subgraph.
    pub edges: Vec<(VertexId, VertexId)>,
}

/// Embeddings stored row-major in one buffer: row `i` is
/// `flat[i * stride..(i + 1) * stride]`, with `stride` the pattern's vertex
/// count, and `row[node]` is the image of pattern node `node`.  The row count
/// is kept apart from the buffer, so a zero-vertex pattern's one (empty)
/// occurrence is one empty row.
///
/// It reads like a slice of embeddings: [`len`](Self::len), [`iter`](Self::iter)
/// and `for row in &rows` over [`Row`]s (each derefs to `&[VertexId]`),
/// `rows[i]` for the `[VertexId]` row itself, and [`to_vec`](Self::to_vec) for
/// the owned `Vec<Embedding>`.  Two row buffers are equal when their row
/// sequences are.
#[derive(Clone)]
pub struct EmbeddingRows {
    flat: Vec<VertexId>,
    stride: usize,
    len: usize,
}

impl EmbeddingRows {
    /// An empty buffer of rows `stride` wide.
    pub fn new(stride: usize) -> Self {
        EmbeddingRows { flat: Vec::new(), stride, len: 0 }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when there is no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one row (exactly `stride` images).
    pub fn push(&mut self, row: impl IntoIterator<Item = VertexId>) {
        let start = self.flat.len();
        self.flat.extend(row);
        assert_eq!(self.flat.len() - start, self.stride, "a row holds one image per pattern node");
        self.len += 1;
    }

    /// The rows in order.
    pub fn iter(&self) -> RowIter<'_> {
        RowIter { flat: &self.flat, stride: self.stride, remaining: self.len }
    }

    /// The images of pattern node `node`, one per row (`node < stride`).
    fn column(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.flat.get(node..).unwrap_or_default().iter().step_by(self.stride).map(|&v| v as usize)
    }

    /// Sort the rows lexicographically (as `sort_unstable` sorts a
    /// `Vec<Embedding>`), through one sorted permutation and one new buffer.
    pub fn sort_unstable(&mut self) {
        let mut order: Vec<usize> = (0..self.len).collect();
        order.sort_unstable_by(|&a, &b| self[a].cmp(&self[b]));
        let mut flat = Vec::with_capacity(self.flat.len());
        for i in order {
            flat.extend_from_slice(&self[i]);
        }
        self.flat = flat;
    }

    /// Every row as an owned embedding.
    pub fn to_vec(&self) -> Vec<Embedding> {
        self.iter().map(|row| row.to_vec()).collect()
    }
}

impl Index<usize> for EmbeddingRows {
    type Output = [VertexId];

    fn index(&self, i: usize) -> &[VertexId] {
        assert!(i < self.len, "row {i} of {}", self.len);
        &self.flat[i * self.stride..(i + 1) * self.stride]
    }
}

impl PartialEq for EmbeddingRows {
    /// Equal row sequences: with equal row counts, equal buffers hold equal
    /// rows (the stride is the buffer length over the count).
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.flat == other.flat
    }
}

impl Eq for EmbeddingRows {}

impl fmt::Debug for EmbeddingRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a EmbeddingRows {
    type Item = Row<'a>;
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

/// One row of an [`EmbeddingRows`]: an occurrence map, `row[node]` the image
/// of pattern node `node`.  It reads as the `&[VertexId]` it derefs to, and
/// compares equal to an owned embedding (`row == &embedding`) with the same
/// images.
#[derive(Clone, Copy)]
pub struct Row<'a>(&'a [VertexId]);

impl Deref for Row<'_> {
    type Target = [VertexId];

    fn deref(&self) -> &[VertexId] {
        self.0
    }
}

impl PartialEq<&Embedding> for Row<'_> {
    fn eq(&self, other: &&Embedding) -> bool {
        self.0 == other.as_slice()
    }
}

impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<'a> IntoIterator for Row<'a> {
    type Item = &'a VertexId;
    type IntoIter = std::slice::Iter<'a, VertexId>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Iterator over the rows of an [`EmbeddingRows`].
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    flat: &'a [VertexId],
    stride: usize,
    remaining: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = Row<'a>;

    fn next(&mut self) -> Option<Row<'a>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let (row, rest) = self.flat.split_at(self.stride);
        self.flat = rest;
        Some(Row(row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

/// The visitor that streams a search into an occurrence set's rows: each visit
/// is appended to one [`EmbeddingRows`] buffer.  It keeps `CollectVisitor`'s
/// check-before-accept budget — a visit at `max` rows returns
/// [`VisitFlow::Stop`], so a zero budget collects nothing and a search with
/// exactly `max` embeddings completes.
#[derive(Debug)]
pub struct RowCollector {
    rows: EmbeddingRows,
    max: usize,
}

impl RowCollector {
    /// Collect at most `max` rows of `stride` images, then stop the search.
    pub fn with_limit(stride: usize, max: usize) -> Self {
        RowCollector { rows: EmbeddingRows::new(stride), max }
    }

    /// The occurrence set of `pattern` (of `stride` vertices) over the
    /// collected rows; `complete` is what the search returned.
    pub fn into_occurrences(self, pattern: Pattern, complete: bool) -> OccurrenceSet {
        OccurrenceSet::from_rows(pattern, self.rows, complete)
    }
}

impl EmbeddingVisitor for RowCollector {
    fn visit(&mut self, embedding: &[VertexId]) -> VisitFlow {
        if self.rows.len() >= self.max {
            return VisitFlow::Stop;
        }
        self.rows.push(embedding.iter().copied());
        VisitFlow::Continue
    }
}

/// The set of all occurrences of one pattern in one data graph, plus the derived
/// hypergraph views.  The occurrences are the rows of one [`EmbeddingRows`]
/// buffer, in the order the search emitted them.  The hypergraph vertex
/// numbering is built on the first call that reads it (a clone carries it if it
/// was built); the image counts behind MNI and MI never build it.
#[derive(Debug, Clone)]
pub struct OccurrenceSet {
    pattern: Pattern,
    rows: EmbeddingRows,
    complete: bool,
    numbering: OnceLock<Numbering>,
}

/// The dense hypergraph vertex numbering of an occurrence set's images, in order
/// of first appearance over the embeddings.
#[derive(Debug, Clone)]
struct Numbering {
    /// hypergraph vertex index -> data graph vertex id
    hg_vertex_to_data: Vec<VertexId>,
    /// data graph vertex id -> hypergraph vertex index
    data_to_hg_vertex: HashMap<VertexId, usize>,
}

impl Numbering {
    /// First appearance over the rows in order: the row-major buffer order.
    fn of(rows: &EmbeddingRows) -> Self {
        let mut hg_vertex_to_data = Vec::new();
        let mut data_to_hg_vertex = HashMap::new();
        for &v in &rows.flat {
            data_to_hg_vertex.entry(v).or_insert_with(|| {
                hg_vertex_to_data.push(v);
                hg_vertex_to_data.len() - 1
            });
        }
        Numbering { hg_vertex_to_data, data_to_hg_vertex }
    }
}

/// One mark bit per data-vertex id, grown on demand: counts the distinct
/// images of one pattern node without building a set.  Each count clears the
/// marks it set, so one `ImageMarks` serves every node of every occurrence set.
#[derive(Debug, Default)]
pub(crate) struct ImageMarks {
    words: Vec<u64>,
}

impl ImageMarks {
    /// The number of distinct `row[node]` over `rows`: one walk down the
    /// column marks and counts first sights, a second walk clears the marks.
    pub(crate) fn distinct(&mut self, rows: &EmbeddingRows, node: usize) -> usize {
        let mut count = 0;
        for v in rows.column(node) {
            let (word, bit) = (v / 64, 1u64 << (v % 64));
            if word >= self.words.len() {
                self.words.resize(word + 1, 0);
            }
            if self.words[word] & bit == 0 {
                self.words[word] |= bit;
                count += 1;
            }
        }
        for v in rows.column(node) {
            self.words[v / 64] = 0;
        }
        count
    }
}

/// Sort an image row and overwrite its repeated entries with its largest, so
/// two rows of one length are equal exactly when their image sets are.
fn canonical_row(row: &mut [VertexId]) {
    row.sort_unstable();
    if row.windows(2).any(|w| w[0] == w[1]) {
        let mut set = row.to_vec();
        set.dedup();
        row[..set.len()].copy_from_slice(&set);
        row[set.len()..].fill(set[set.len() - 1]);
    }
}

impl OccurrenceSet {
    /// Enumerate all occurrences of `pattern` in `graph`, dispatching on
    /// `config.backend` (the candidate-space engine of `ffsm-match` by default, the
    /// naive oracle on request).  Builds a throwaway per-graph [`GraphIndex`] when
    /// the candidate-space engine runs — callers matching many patterns against one
    /// graph (the mining engine, the CLI) should build the index once and use
    /// [`OccurrenceSet::enumerate_with_index`] instead.
    pub fn enumerate(pattern: &Pattern, graph: &LabeledGraph, config: IsoConfig) -> Self {
        Self::stream(pattern, graph, None, config)
    }

    /// Enumerate all occurrences of `pattern` in `graph`, reusing a prebuilt
    /// per-graph [`GraphIndex`] (which must have been built from this `graph`).
    /// With `config.backend == EnumeratorBackend::Naive` the index is ignored and
    /// the oracle runs instead.
    pub fn enumerate_with_index(
        pattern: &Pattern,
        graph: &LabeledGraph,
        index: &GraphIndex,
        config: IsoConfig,
    ) -> Self {
        Self::stream(pattern, graph, Some(index), config)
    }

    /// Stream the search of `ffsm_match::stream_with` into a [`RowCollector`]
    /// bounded by `config.max_embeddings`.  The empty pattern has exactly one
    /// (empty) occurrence whatever the budget.
    fn stream(
        pattern: &Pattern,
        graph: &LabeledGraph,
        index: Option<&GraphIndex>,
        config: IsoConfig,
    ) -> Self {
        let stride = pattern.num_vertices();
        if stride == 0 {
            return Self::from_embeddings(pattern.clone(), vec![Vec::new()], true);
        }
        let mut rows = RowCollector::with_limit(stride, config.max_embeddings);
        let complete = ffsm_match::stream_with(
            pattern,
            graph,
            index,
            config,
            &mut SearchArena::new(),
            &mut rows,
        );
        rows.into_occurrences(pattern.clone(), complete)
    }

    /// Build an occurrence set from pre-computed embeddings, each
    /// `pattern.num_vertices()` wide; they are copied into one row buffer.
    pub fn from_embeddings(pattern: Pattern, embeddings: Vec<Embedding>, complete: bool) -> Self {
        let mut rows = EmbeddingRows::new(pattern.num_vertices());
        for emb in embeddings {
            rows.push(emb);
        }
        Self::from_rows(pattern, rows, complete)
    }

    /// Build an occurrence set over a filled row buffer (rows
    /// `pattern.num_vertices()` wide), taking it over as it is.
    pub fn from_rows(pattern: Pattern, rows: EmbeddingRows, complete: bool) -> Self {
        assert_eq!(rows.stride, pattern.num_vertices(), "row width must be the pattern size");
        OccurrenceSet { pattern, rows, complete, numbering: OnceLock::new() }
    }

    /// The hypergraph vertex numbering, built on the first call.
    fn numbering(&self) -> &Numbering {
        self.numbering.get_or_init(|| Numbering::of(&self.rows))
    }

    /// The query pattern.
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// Number of occurrences.
    pub fn num_occurrences(&self) -> usize {
        self.rows.len()
    }

    /// `false` if the enumeration hit its embedding budget, in which case every
    /// measure computed from this set is a lower bound on the true value.
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// The raw occurrence maps (`occurrence[pattern node] = data vertex`), one
    /// row each, in emission order.
    pub fn embeddings(&self) -> &EmbeddingRows {
        &self.rows
    }

    /// Number of distinct pattern-node images (= hypergraph vertices).  Builds the
    /// hypergraph vertex numbering on first use.
    pub fn num_images(&self) -> usize {
        self.numbering().hg_vertex_to_data.len()
    }

    /// The data-graph vertex behind hypergraph vertex `i` (vertices are numbered in
    /// order of first appearance over the embeddings).
    pub fn image_vertex(&self, i: usize) -> VertexId {
        self.numbering().hg_vertex_to_data[i]
    }

    /// Distinct images of pattern node `node` (the image set whose size MNI minimises).
    pub fn node_images(&self, node: VertexId) -> BTreeSet<VertexId> {
        self.rows.iter().map(|emb| emb[node as usize]).collect()
    }

    /// Distinct image *sets* of a coarse-grained node subset `W` (Definition 3.2.1):
    /// `c(W) = |{ f_i(W) }|` where each image is taken as a set.  A one-node subset
    /// is counted with marks; a larger one sorts one flat buffer of image rows and
    /// counts the distinct rows.
    pub fn subset_image_count(&self, subset: &[VertexId]) -> usize {
        let k = subset.len();
        match subset {
            [] => return usize::from(!self.rows.is_empty()),
            &[node] => return ImageMarks::default().distinct(&self.rows, node as usize),
            _ => {}
        }
        let mut flat: Vec<VertexId> = Vec::with_capacity(self.rows.len() * k);
        for emb in &self.rows {
            let start = flat.len();
            flat.extend(subset.iter().map(|&v| emb[v as usize]));
            canonical_row(&mut flat[start..]);
        }
        let mut rows: Vec<&[VertexId]> = flat.chunks_exact(k).collect();
        rows.sort_unstable();
        rows.dedup();
        rows.len()
    }

    /// All distinct instances (Definition 2.1.9), sorted.
    pub fn instances(&self) -> Vec<Instance> {
        let mut set: BTreeSet<Instance> = BTreeSet::new();
        for emb in &self.rows {
            let mut vertices: Vec<VertexId> = emb.to_vec();
            vertices.sort_unstable();
            vertices.dedup();
            let mut edges: Vec<(VertexId, VertexId)> = self
                .pattern
                .edges()
                .map(|(u, v)| {
                    let (a, b) = (emb[u as usize], emb[v as usize]);
                    (a.min(b), a.max(b))
                })
                .collect();
            edges.sort_unstable();
            edges.dedup();
            set.insert(Instance { vertices, edges });
        }
        set.into_iter().collect()
    }

    /// Number of distinct instances.
    pub fn num_instances(&self) -> usize {
        self.instances().len()
    }

    /// The occurrence hypergraph `H_O` (Definition 3.1.3): one edge per occurrence.
    /// Edges with identical vertex sets are kept as distinct edges — their edge id
    /// plays the role of the occurrence label `f_i`.
    pub fn occurrence_hypergraph(&self) -> Hypergraph {
        let numbering = self.numbering();
        let mut h = Hypergraph::new(numbering.hg_vertex_to_data.len());
        for emb in &self.rows {
            let edge: Vec<usize> = emb.iter().map(|v| numbering.data_to_hg_vertex[v]).collect();
            h.add_edge(edge).expect("occurrence edge is valid");
        }
        h
    }

    /// The instance hypergraph `H_I` (Definition 3.1.4): one edge per instance.
    pub fn instance_hypergraph(&self) -> Hypergraph {
        let numbering = self.numbering();
        let mut h = Hypergraph::new(numbering.hg_vertex_to_data.len());
        for inst in self.instances() {
            let edge: Vec<usize> =
                inst.vertices.iter().map(|v| numbering.data_to_hg_vertex[v]).collect();
            h.add_edge(edge).expect("instance edge is valid");
        }
        h
    }

    /// The hypergraph for the requested basis.
    pub fn hypergraph(&self, basis: HypergraphBasis) -> Hypergraph {
        match basis {
            HypergraphBasis::Occurrence => self.occurrence_hypergraph(),
            HypergraphBasis::Instance => self.instance_hypergraph(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::figures;
    use ffsm_graph::isomorphism::IsoConfig;

    fn build(example: &ffsm_graph::figures::FigureExample) -> OccurrenceSet {
        OccurrenceSet::enumerate(&example.pattern, &example.graph, IsoConfig::default())
    }

    #[test]
    fn figure2_occurrences_vs_instances() {
        // 6 occurrences collapse into a single instance (the triangle {1,2,3}).
        let occ = build(&figures::figure2());
        assert_eq!(occ.num_occurrences(), 6);
        assert_eq!(occ.num_instances(), 1);
        let oh = occ.occurrence_hypergraph();
        assert_eq!(oh.num_edges(), 6);
        assert_eq!(oh.uniform_rank(), Some(3));
        let ih = occ.instance_hypergraph();
        assert_eq!(ih.num_edges(), 1);
        assert_eq!(occ.num_images(), 3);
        assert!(occ.is_complete());
    }

    #[test]
    fn figure3_occurrence_equals_instance_hypergraph() {
        // The pattern has no non-trivial automorphism, so both hypergraphs have 6 edges.
        let occ = build(&figures::figure3());
        assert_eq!(occ.occurrence_hypergraph().num_edges(), 6);
        assert_eq!(occ.instance_hypergraph().num_edges(), 6);
        assert_eq!(occ.occurrence_hypergraph().uniform_rank(), Some(3));
        // The paper lists the hypergraph vertex set: 14 distinct images.
        assert_eq!(occ.num_images(), 14);
    }

    #[test]
    fn figure4_node_images_and_subset_counts() {
        let occ = build(&figures::figure4());
        assert_eq!(occ.num_occurrences(), 2);
        assert_eq!(occ.node_images(0).len(), 2); // v1 -> {1, 4}
        assert_eq!(occ.node_images(1).len(), 2); // v2 -> {2, 3}
        assert_eq!(occ.node_images(2).len(), 2); // v3 -> {3, 2}
                                                 // The transitive subset {v2, v3} has a single image set {2, 3}.
        assert_eq!(occ.subset_image_count(&[1, 2]), 1);
        assert_eq!(occ.subset_image_count(&[0]), 2);
        assert_eq!(occ.subset_image_count(&[0, 1, 2]), 2);
    }

    #[test]
    fn figure8_instances_form_a_cycle() {
        let occ = build(&figures::figure8());
        assert_eq!(occ.num_occurrences(), 4);
        assert_eq!(occ.num_instances(), 4);
        let ih = occ.instance_hypergraph();
        let overlap = ih.overlap_adjacency();
        // Every instance overlaps exactly two others (the 4-cycle overlap graph).
        assert!(overlap.iter().all(|n| n.len() == 2));
    }

    #[test]
    fn mapping_between_hypergraph_and_data_vertices() {
        let occ = build(&figures::figure6());
        assert_eq!(occ.num_images(), 8);
        let mapped: BTreeSet<VertexId> =
            (0..occ.num_images()).map(|i| occ.image_vertex(i)).collect();
        let images: BTreeSet<VertexId> = occ.embeddings().iter().flatten().copied().collect();
        assert_eq!(mapped, images, "one hypergraph vertex per distinct image");
    }

    #[test]
    fn enumerate_dispatches_and_shares_the_index() {
        use ffsm_graph::isomorphism::EnumeratorBackend;
        let example = figures::figure3();
        let default =
            OccurrenceSet::enumerate(&example.pattern, &example.graph, IsoConfig::default());
        let naive = OccurrenceSet::enumerate(
            &example.pattern,
            &example.graph,
            IsoConfig::default().with_backend(EnumeratorBackend::Naive),
        );
        let index = GraphIndex::build(&example.graph);
        let shared = OccurrenceSet::enumerate_with_index(
            &example.pattern,
            &example.graph,
            &index,
            IsoConfig::default(),
        );
        // Same multiset of embeddings on every path (the engines may order them
        // differently), and the prebuilt index changes nothing.
        let sorted = |occ: &OccurrenceSet| {
            let mut v = occ.embeddings().to_vec();
            v.sort();
            v
        };
        assert_eq!(sorted(&default), sorted(&naive));
        assert_eq!(default.embeddings(), shared.embeddings());
        assert_eq!(default.num_occurrences(), 6);
        // The naive backend ignores a passed index.
        let naive_shared = OccurrenceSet::enumerate_with_index(
            &example.pattern,
            &example.graph,
            &index,
            IsoConfig::default().with_backend(EnumeratorBackend::Naive),
        );
        assert_eq!(naive_shared.embeddings(), naive.embeddings());
    }

    #[test]
    fn empty_occurrence_set() {
        let pattern = ffsm_graph::patterns::single_edge(ffsm_graph::Label(7), ffsm_graph::Label(8));
        let graph = ffsm_graph::LabeledGraph::from_edges(&[0, 0], &[(0, 1)]);
        let occ = OccurrenceSet::enumerate(&pattern, &graph, IsoConfig::default());
        assert_eq!(occ.num_occurrences(), 0);
        assert_eq!(occ.num_instances(), 0);
        assert_eq!(occ.num_images(), 0);
        assert!(occ.occurrence_hypergraph().is_empty());
    }

    /// Mark-word boundaries (63 | 64, 127 | 128) and ids past the first word.
    const BOUNDARY_IDS: [VertexId; 9] = [0, 1, 62, 63, 64, 65, 127, 128, 200];

    /// SplitMix64: the oracles' deterministic stream from one proptest seed.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Two occurrence sets per seed: the real occurrences of a pattern sampled
    /// from a random graph of 60–160 vertices, and `width`-wide maps drawn from
    /// the boundary ids and `0..300` (not necessarily injective).
    fn sample_sets(seed: u64, width: usize, count: usize) -> Vec<OccurrenceSet> {
        let mut state = seed;
        let n = 60 + (next(&mut state) % 100) as usize;
        let graph = ffsm_graph::generators::gnm_random(
            n,
            n * 3 / 2,
            1 + (next(&mut state) % 4) as u32,
            seed,
        );
        let mut sets = Vec::new();
        let edges = 1 + (next(&mut state) % 3) as usize;
        if let Some((pattern, _)) = ffsm_graph::generators::sample_pattern(&graph, edges, seed) {
            sets.push(OccurrenceSet::enumerate(&pattern, &graph, IsoConfig::default()));
        }
        let pattern = ffsm_graph::patterns::uniform_path(width, ffsm_graph::Label(0));
        let embeddings = (0..count)
            .map(|_| {
                (0..width)
                    .map(|_| match next(&mut state) % 3 {
                        0 => (next(&mut state) % 300) as VertexId,
                        _ => BOUNDARY_IDS[(next(&mut state) % 9) as usize],
                    })
                    .collect()
            })
            .collect();
        sets.push(OccurrenceSet::from_embeddings(pattern, embeddings, true));
        sets
    }

    /// The eager numbering `from_embeddings` used to build: first appearance
    /// over the embeddings, in order.
    fn eager_numbering(occ: &OccurrenceSet) -> Vec<VertexId> {
        let mut order = Vec::new();
        let mut seen = BTreeSet::new();
        for &v in occ.embeddings().iter().flatten() {
            if seen.insert(v) {
                order.push(v);
            }
        }
        order
    }

    /// Every numbering-backed view against the eager reference, starting with
    /// view `first`.
    fn views_equal_the_eager_reference(
        occ: &OccurrenceSet,
        order: &[VertexId],
        first: usize,
    ) -> Result<(), proptest::prelude::TestCaseError> {
        use proptest::prelude::*;
        let index = |v: &VertexId| order.iter().position(|w| w == v).unwrap();
        let mut occurrence = Hypergraph::new(order.len());
        for emb in occ.embeddings() {
            occurrence.add_edge(emb.iter().map(index).collect()).unwrap();
        }
        let mut instance = Hypergraph::new(order.len());
        for inst in occ.instances() {
            instance.add_edge(inst.vertices.iter().map(index).collect()).unwrap();
        }
        for view in (0..4).map(|i| (first + i) % 4) {
            match view {
                0 => prop_assert_eq!(occ.num_images(), order.len()),
                1 => {
                    let mapped: Vec<VertexId> =
                        (0..order.len()).map(|i| occ.image_vertex(i)).collect();
                    prop_assert_eq!(&mapped[..], order);
                }
                2 => prop_assert_eq!(&occ.occurrence_hypergraph(), &occurrence),
                _ => prop_assert_eq!(&occ.instance_hypergraph(), &instance),
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(128))]

        /// MNI's marked count equals the minimum over nodes of the node image
        /// sets, and reading it builds no numbering.
        #[test]
        fn mni_is_the_minimum_node_image_count(
            seed in 0u64..1_000_000,
            width in 1usize..=5,
            count in 0usize..60,
        ) {
            for occ in sample_sets(seed, width, count) {
                let reference = occ
                    .pattern()
                    .vertices()
                    .map(|v| occ.node_images(v).len())
                    .min()
                    .filter(|_| occ.num_occurrences() > 0)
                    .unwrap_or(0);
                proptest::prop_assert_eq!(crate::measures::mni::mni(&occ), reference);
                proptest::prop_assert!(occ.numbering.get().is_none());
            }
        }

        /// The numbering built on first use equals the eager one, whichever
        /// view reads it first, and on a clone taken before or after that read.
        #[test]
        fn lazy_numbering_equals_the_eager_one(
            seed in 0u64..1_000_000,
            width in 1usize..=5,
            count in 0usize..60,
            first in 0usize..4,
        ) {
            for occ in sample_sets(seed, width, count) {
                let order = eager_numbering(&occ);
                let before = occ.clone();
                views_equal_the_eager_reference(&occ, &order, first)?;
                let after = occ.clone();
                proptest::prop_assert!(before.numbering.get().is_none());
                proptest::prop_assert!(after.numbering.get().is_some());
                views_equal_the_eager_reference(&before, &order, (first + 1) % 4)?;
                views_equal_the_eager_reference(&after, &order, first)?;
            }
        }

        /// `subset_image_count` equals counting image sets in an ordered set,
        /// for empty, one-node, larger and repeating subsets.
        #[test]
        fn subset_image_count_equals_the_set_reference(
            seed in 0u64..1_000_000,
            width in 1usize..=5,
            count in 0usize..60,
        ) {
            let mut state = seed ^ 0x5eed;
            for occ in sample_sets(seed, width, count) {
                let n = occ.pattern().num_vertices() as u64;
                for size in 0..=n as usize + 1 {
                    let subset: Vec<VertexId> =
                        (0..size).map(|_| (next(&mut state) % n) as VertexId).collect();
                    let reference: BTreeSet<Vec<VertexId>> = occ
                        .embeddings()
                        .iter()
                        .map(|emb| {
                            let mut img: Vec<VertexId> =
                                subset.iter().map(|&v| emb[v as usize]).collect();
                            img.sort_unstable();
                            img.dedup();
                            img
                        })
                        .collect();
                    proptest::prop_assert_eq!(
                        occ.subset_image_count(&subset),
                        reference.len(),
                        "subset {:?}",
                        subset
                    );
                }
                proptest::prop_assert!(occ.numbering.get().is_none());
            }
        }
    }

    /// The pattern `width` random embeddings are maps of: a `width`-vertex
    /// path, or the empty pattern.
    fn pattern_of_width(width: usize) -> Pattern {
        match width {
            0 => LabeledGraph::new(),
            _ => ffsm_graph::patterns::uniform_path(width, ffsm_graph::Label(0)),
        }
    }

    #[test]
    fn zero_vertex_pattern_has_one_empty_row() {
        use ffsm_graph::isomorphism::EnumeratorBackend;
        let graph = ffsm_graph::generators::gnm_random(10, 15, 2, 1);
        let index = GraphIndex::build(&graph);
        let empty = LabeledGraph::new();
        for backend in [EnumeratorBackend::CandidateSpace, EnumeratorBackend::Naive] {
            for limit in [0, 1, usize::MAX] {
                let config = IsoConfig::with_limit(limit).with_backend(backend);
                let reference = ffsm_match::enumerate(&empty, &graph, Some(&index), config.clone());
                for occ in [
                    OccurrenceSet::enumerate(&empty, &graph, config.clone()),
                    OccurrenceSet::enumerate_with_index(&empty, &graph, &index, config.clone()),
                ] {
                    assert_eq!(occ.num_occurrences(), 1, "{backend} at {limit}");
                    assert!(occ.is_complete());
                    assert!(occ.embeddings()[0].is_empty());
                    assert_eq!(occ.embeddings().to_vec(), reference.embeddings);
                    assert_eq!(occ.is_complete(), reference.complete);
                }
            }
        }
        let built = OccurrenceSet::from_embeddings(empty, vec![Vec::new()], true);
        assert_eq!(built.embeddings().iter().len(), 1);
        assert_eq!(built.subset_image_count(&[]), 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// The streamed rows are the collected embeddings, row for row in
        /// emission order and with the same `complete`: against
        /// `ffsm_match::enumerate_with` and each backend's own collecting path
        /// (`Matcher::enumerate`, `enumerate_embeddings`), in both semantics,
        /// at budgets 0, count − 1, count and count + 1.
        #[test]
        fn streamed_rows_equal_the_collected_embeddings(seed in 0u64..1_000_000) {
            use ffsm_graph::isomorphism::{enumerate_embeddings, EnumeratorBackend};
            let mut state = seed;
            let n = 20 + (next(&mut state) % 40) as usize;
            let labels = 1 + (next(&mut state) % 3) as u32;
            let graph = ffsm_graph::generators::gnm_random(n, n * 2, labels, seed);
            let edges = 1 + (next(&mut state) % 3) as usize;
            let Some((pattern, _)) = ffsm_graph::generators::sample_pattern(&graph, edges, seed)
            else {
                return Ok(());
            };
            let index = GraphIndex::build(&graph);
            for backend in [EnumeratorBackend::CandidateSpace, EnumeratorBackend::Naive] {
                for induced in [false, true] {
                    let base = IsoConfig { induced, ..IsoConfig::default() }.with_backend(backend);
                    let count = ffsm_match::enumerate(&pattern, &graph, Some(&index), base.clone())
                        .len();
                    for limit in [0, count.saturating_sub(1), count, count + 1] {
                        let config = IsoConfig { max_embeddings: limit, ..base.clone() };
                        let reference = ffsm_match::enumerate_with(
                            &pattern,
                            &graph,
                            Some(&index),
                            config.clone(),
                            &mut SearchArena::new(),
                        );
                        let own = match backend {
                            EnumeratorBackend::Naive => {
                                enumerate_embeddings(&pattern, &graph, config.clone())
                            }
                            EnumeratorBackend::CandidateSpace => {
                                ffsm_match::Matcher::new(&pattern, &graph, &index)
                                    .enumerate(config.clone())
                            }
                        };
                        proptest::prop_assert_eq!(&own.embeddings, &reference.embeddings);
                        proptest::prop_assert_eq!(own.complete, reference.complete);
                        for occ in [
                            OccurrenceSet::enumerate(&pattern, &graph, config.clone()),
                            OccurrenceSet::enumerate_with_index(
                                &pattern,
                                &graph,
                                &index,
                                config.clone(),
                            ),
                        ] {
                            proptest::prop_assert_eq!(
                                occ.embeddings().to_vec(),
                                reference.embeddings.clone(),
                                "{} induced={} limit={}",
                                backend,
                                induced,
                                limit
                            );
                            proptest::prop_assert_eq!(occ.is_complete(), reference.complete);
                        }
                    }
                }
            }
        }

        /// `from_embeddings` keeps its input row for row: `to_vec`, `iter`,
        /// indexing and equality read it back, and `sort_unstable` sorts the
        /// rows as `sort_unstable` sorts the vectors.
        #[test]
        fn from_embeddings_round_trips(
            seed in 0u64..1_000_000,
            width in 0usize..=5,
            count in 0usize..60,
        ) {
            let mut state = seed;
            let embeddings: Vec<Embedding> = (0..count)
                .map(|_| (0..width).map(|_| (next(&mut state) % 12) as VertexId).collect())
                .collect();
            let occ = OccurrenceSet::from_embeddings(
                pattern_of_width(width),
                embeddings.clone(),
                true,
            );
            let rows = occ.embeddings();
            proptest::prop_assert_eq!(rows.to_vec(), embeddings.clone());
            proptest::prop_assert_eq!(rows.len(), count);
            proptest::prop_assert_eq!(rows.iter().len(), count);
            for (i, row) in rows.iter().enumerate() {
                proptest::prop_assert_eq!(row, &embeddings[i]);
                proptest::prop_assert_eq!(&rows[i], embeddings[i].as_slice());
            }
            let again = OccurrenceSet::from_embeddings(
                pattern_of_width(width),
                embeddings.clone(),
                false,
            );
            proptest::prop_assert_eq!(again.embeddings(), rows);
            let mut sorted_rows = rows.clone();
            sorted_rows.sort_unstable();
            let mut sorted = embeddings;
            sorted.sort_unstable();
            proptest::prop_assert_eq!(sorted_rows.to_vec(), sorted);
        }
    }

    #[test]
    fn instance_distinguishes_edge_sets_on_same_vertices() {
        // Two occurrences with the same vertex set but different edge images are
        // different instances: pattern = path of 3 on a triangle.
        let graph = ffsm_graph::LabeledGraph::from_edges(&[0, 0, 0], &[(0, 1), (1, 2), (0, 2)]);
        let pattern = ffsm_graph::patterns::uniform_path(3, ffsm_graph::Label(0));
        let occ = OccurrenceSet::enumerate(&pattern, &graph, IsoConfig::default());
        assert_eq!(occ.num_occurrences(), 6);
        // Three instances: the three 2-edge sub-paths of the triangle.
        assert_eq!(occ.num_instances(), 3);
    }
}
