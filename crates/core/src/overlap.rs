//! Overlap notions between occurrences: simple, harmful and structural overlap
//! (Definitions 2.2.3, 4.5.1 and 4.5.2), and overlap-graph construction under each.
//!
//! The paper proposes *structural overlap* as a topology-aware alternative to the
//! harmful overlap of Fiedler & Borgelt: both imply simple (vertex) overlap, neither
//! implies the other, and using a weaker notion produces a sparser overlap graph —
//! hence larger (less conservative) MIS-style supports.  Experiment E8 quantifies
//! exactly that.
//!
//! # Indexed construction
//!
//! The default overlap-graph builder is *indexed*: an inverted index from data-graph
//! vertex (and, for [`OverlapKind::Edge`], data-graph edge) to the occurrences whose
//! image touches it.  Two occurrences can only overlap — under *any* of the four
//! notions — if they share an image vertex (edge overlap additionally requires a
//! shared image edge), so only pairs that meet in some index bucket are ever tested.
//! This replaces the all-pairs `m²/2` comparisons of the naive builder with work
//! proportional to the candidate pairs actually sharing structure, which is what the
//! paper's Definition 2.2.5 graphs cost on real data.  The resulting graph is stored
//! in CSR form ([`SimpleGraph`]); the transitive-pair relation behind structural
//! overlap is a packed bitset ([`PairMatrix`]).
//!
//! The old all-pairs builder is retained as
//! [`OverlapAnalysis::overlap_graph_naive`] — it is the *test oracle*: the
//! `overlap_differential` property harness asserts the indexed builder produces an
//! identical graph for every notion on randomly generated pattern/data-graph pairs.
//!
//! # Caching
//!
//! Overlap graphs are built at most once per analysis: [`OverlapAnalysis`] carries an
//! [`OverlapCache`] keyed by [`OverlapKind`], so `mis_under`, `mcp_under`,
//! `overlap_edge_count` and `overlap_census` on the same pattern share one build per
//! notion instead of each re-running the construction.  [`OverlapCache::builds`]
//! exposes the build counter the cache tests assert on.

use crate::occurrences::OccurrenceSet;
use ffsm_graph::automorphism::{transitive_pair_matrix, PairMatrix};
use ffsm_graph::isomorphism::Embedding;
use ffsm_graph::VertexId;
use ffsm_hypergraph::independent_set::{exact_max_independent_set, SimpleGraph};
use ffsm_hypergraph::SearchBudget;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// The overlap notion used when two occurrences are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum OverlapKind {
    /// Vertex overlap (Definition 2.2.3): the image vertex sets intersect.
    #[default]
    Simple,
    /// Harmful overlap (Definition 4.5.1, Fiedler & Borgelt): some pattern node's two
    /// images both lie in the intersection of the image sets.
    Harmful,
    /// Structural overlap (Definition 4.5.2): some transitive node pair (v, w) has
    /// `f1(v) = f2(w)` inside the intersection.
    Structural,
    /// Edge overlap (Definition 2.2.4): the image *edge* sets intersect.  Stricter
    /// than vertex overlap (edge overlap ⇒ simple overlap), so its overlap graph is
    /// sparser and the resulting MIS-style support larger.
    Edge,
}

impl OverlapKind {
    /// Every notion, in declaration order (the order used by caches and censuses).
    pub fn all() -> [OverlapKind; 4] {
        [OverlapKind::Simple, OverlapKind::Harmful, OverlapKind::Structural, OverlapKind::Edge]
    }

    /// Dense index of the notion (cache slot).
    pub(crate) fn index(self) -> usize {
        match self {
            OverlapKind::Simple => 0,
            OverlapKind::Harmful => 1,
            OverlapKind::Structural => 2,
            OverlapKind::Edge => 3,
        }
    }

    /// Short name used in tables and the CLI (same text as the `Display` impl).
    pub fn name(&self) -> String {
        self.to_string()
    }
}

impl std::fmt::Display for OverlapKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverlapKind::Simple => f.pad("simple"),
            OverlapKind::Harmful => f.pad("harmful"),
            OverlapKind::Structural => f.pad("structural"),
            OverlapKind::Edge => f.pad("edge"),
        }
    }
}

impl std::str::FromStr for OverlapKind {
    type Err = crate::FfsmError;

    /// Parse an overlap-notion name, case-insensitively.  Accepts `simple` (alias
    /// `vertex`), `harmful`, `structural` and `edge`, mirroring
    /// [`crate::MeasureKind`]'s `FromStr`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "simple" | "vertex" => Ok(OverlapKind::Simple),
            "harmful" => Ok(OverlapKind::Harmful),
            "structural" => Ok(OverlapKind::Structural),
            "edge" => Ok(OverlapKind::Edge),
            _ => Err(crate::FfsmError::UnknownOverlap(s.trim().to_string())),
        }
    }
}

/// Per-pattern cache of overlap graphs with a build counter.
///
/// One cache instance belongs to one pattern's analysis ([`OverlapAnalysis`] keys its
/// slots by [`OverlapKind`]; [`crate::SupportMeasures`] keys them by hypergraph
/// basis), so "invalidation across patterns" is structural: a new pattern gets a new
/// analysis and with it an empty cache.  The build counter only advances when a slot
/// is actually constructed, which is what the cache tests assert on.
#[derive(Debug)]
pub struct OverlapCache {
    slots: Vec<OnceLock<Arc<SimpleGraph>>>,
    builds: AtomicUsize,
}

impl Default for OverlapCache {
    /// One slot per [`OverlapKind`] — the layout [`OverlapAnalysis`] uses.
    fn default() -> Self {
        OverlapCache::with_slots(OverlapKind::all().len())
    }
}

impl OverlapCache {
    /// A cache with `n` empty slots.
    pub fn with_slots(n: usize) -> Self {
        OverlapCache {
            slots: (0..n).map(|_| OnceLock::new()).collect(),
            builds: AtomicUsize::new(0),
        }
    }

    /// The graph in `slot`, building (and counting) it on first access.
    ///
    /// Every overlap-graph build goes through here, so this is where its wall
    /// time is charged to the thread's overlap-build total: one clock pair per
    /// build, none for a cached hit.
    pub fn get_or_build(
        &self,
        slot: usize,
        build: impl FnOnce() -> SimpleGraph,
    ) -> Arc<SimpleGraph> {
        self.slots[slot]
            .get_or_init(|| {
                self.builds.fetch_add(1, Ordering::Relaxed);
                let start = std::time::Instant::now();
                let graph = build();
                ffsm_obs::tls::add_overlap_build_nanos(
                    start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                );
                Arc::new(graph)
            })
            .clone()
    }

    /// How many graphs this cache has actually constructed.
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }
}

/// The image-edge half of the inverted index, only needed by [`OverlapKind::Edge`]
/// and therefore built lazily.
#[derive(Debug)]
struct EdgeIndex {
    /// Occurrence ids (ascending) per distinct data-graph image edge.
    edge_buckets: Vec<Vec<u32>>,
    /// Sorted unique image-edge bucket ids per occurrence.
    occ_edges: Vec<Vec<u32>>,
}

impl EdgeIndex {
    fn new(occurrences: &OccurrenceSet) -> Self {
        let m = occurrences.num_occurrences();
        let pattern_edges: Vec<(VertexId, VertexId)> = occurrences.pattern().edges().collect();
        let mut edge_ids: HashMap<(VertexId, VertexId), u32> = HashMap::new();
        let mut edge_buckets: Vec<Vec<u32>> = Vec::new();
        let mut occ_edges = Vec::with_capacity(m);
        for (i, emb) in occurrences.embeddings().iter().enumerate() {
            let mut ids: Vec<u32> = pattern_edges
                .iter()
                .map(|&(u, v)| {
                    let (a, b) = (emb[u as usize], emb[v as usize]);
                    let next = edge_buckets.len() as u32;
                    let id = *edge_ids.entry((a.min(b), a.max(b))).or_insert(next);
                    if id == next {
                        edge_buckets.push(Vec::new());
                    }
                    id
                })
                .collect();
            ids.sort_unstable();
            ids.dedup();
            for &e in &ids {
                edge_buckets[e as usize].push(i as u32);
            }
            occ_edges.push(ids);
        }
        EdgeIndex { edge_buckets, occ_edges }
    }
}

/// The inverted index the default builder prunes candidate pairs with.  The vertex
/// half serves simple/harmful/structural overlap; the edge half is initialised on
/// the first edge-overlap query.
#[derive(Debug)]
struct OverlapIndex {
    /// Occurrence ids (ascending) per hypergraph vertex index.
    vertex_buckets: Vec<Vec<u32>>,
    /// Sorted unique hypergraph vertex indices per occurrence.
    occ_vertices: Vec<Vec<u32>>,
    /// Sorted unique data-graph image vertices per occurrence (for the membership
    /// tests of the harmful predicate).
    images: Vec<Vec<VertexId>>,
    /// Lazily built image-edge index ([`OverlapKind::Edge`] only).
    edge: OnceLock<EdgeIndex>,
}

impl OverlapIndex {
    fn new(occurrences: &OccurrenceSet) -> Self {
        let m = occurrences.num_occurrences();
        let vertex_buckets = occurrences.vertex_occurrence_index();
        let mut occ_vertices = Vec::with_capacity(m);
        let mut images = Vec::with_capacity(m);
        for emb in occurrences.embeddings() {
            let mut dense: Vec<u32> = emb
                .iter()
                .map(|&v| occurrences.hypergraph_index(v).expect("image is indexed") as u32)
                .collect();
            dense.sort_unstable();
            dense.dedup();
            occ_vertices.push(dense);
            let mut img: Vec<VertexId> = emb.clone();
            img.sort_unstable();
            img.dedup();
            images.push(img);
        }
        OverlapIndex { vertex_buckets, occ_vertices, images, edge: OnceLock::new() }
    }

    fn edge(&self, occurrences: &OccurrenceSet) -> &EdgeIndex {
        self.edge.get_or_init(|| EdgeIndex::new(occurrences))
    }
}

/// Pairwise overlap analysis for a set of occurrences of one pattern.
#[derive(Debug)]
pub struct OverlapAnalysis<'a> {
    occurrences: &'a OccurrenceSet,
    /// Packed symmetric relation: u, v are a transitive pair in some subgraph of the
    /// pattern.
    transitive: PairMatrix,
    index: OnceLock<OverlapIndex>,
    cache: OverlapCache,
}

impl<'a> OverlapAnalysis<'a> {
    /// Prepare the analysis (computes the pattern's transitive-pair relation once).
    pub fn new(occurrences: &'a OccurrenceSet) -> Self {
        let transitive = transitive_pair_matrix(occurrences.pattern());
        OverlapAnalysis {
            occurrences,
            transitive,
            index: OnceLock::new(),
            cache: OverlapCache::with_slots(OverlapKind::all().len()),
        }
    }

    /// How many overlap graphs this analysis has actually built (the cache hook the
    /// sharing tests assert on; at most one per [`OverlapKind`]).
    pub fn overlap_builds(&self) -> usize {
        self.cache.builds()
    }

    fn embedding(&self, i: usize) -> &Embedding {
        &self.occurrences.embeddings()[i]
    }

    fn index(&self) -> &OverlapIndex {
        self.index.get_or_init(|| OverlapIndex::new(self.occurrences))
    }

    /// Simple (vertex) overlap of occurrences `i` and `j`.
    pub fn simple_overlap(&self, i: usize, j: usize) -> bool {
        let a: BTreeSet<_> = self.embedding(i).iter().copied().collect();
        self.embedding(j).iter().any(|v| a.contains(v))
    }

    /// Harmful overlap (Definition 4.5.1): ∃ node v with f_i(v) and f_j(v) both in the
    /// intersection of the two image sets.
    pub fn harmful_overlap(&self, i: usize, j: usize) -> bool {
        let fi = self.embedding(i);
        let fj = self.embedding(j);
        let si: BTreeSet<_> = fi.iter().copied().collect();
        let sj: BTreeSet<_> = fj.iter().copied().collect();
        (0..fi.len()).any(|v| {
            let a = fi[v];
            let b = fj[v];
            si.contains(&a) && sj.contains(&a) && si.contains(&b) && sj.contains(&b)
        })
    }

    /// Structural overlap (Definition 4.5.2): ∃ transitive pair (v, w) with
    /// f_i(v) = f_j(w) in the intersection of the image sets.
    pub fn structural_overlap(&self, i: usize, j: usize) -> bool {
        let fi = self.embedding(i);
        let fj = self.embedding(j);
        let si: BTreeSet<_> = fi.iter().copied().collect();
        let sj: BTreeSet<_> = fj.iter().copied().collect();
        for (v, &shared) in fi.iter().enumerate() {
            for (w, &fjw) in fj.iter().enumerate() {
                if !self.transitive.get(v, w) {
                    continue;
                }
                if fjw == shared && si.contains(&shared) && sj.contains(&shared) {
                    return true;
                }
            }
        }
        false
    }

    /// Edge overlap (Definition 2.2.4): the two occurrences map some pattern edge onto
    /// the same data-graph edge.
    pub fn edge_overlap(&self, i: usize, j: usize) -> bool {
        let fi = self.embedding(i);
        let fj = self.embedding(j);
        let edges_of = |f: &Embedding| -> BTreeSet<(u32, u32)> {
            self.occurrences
                .pattern()
                .edges()
                .map(|(u, v)| {
                    let (a, b) = (f[u as usize], f[v as usize]);
                    (a.min(b), a.max(b))
                })
                .collect()
        };
        let ei = edges_of(fi);
        edges_of(fj).iter().any(|e| ei.contains(e))
    }

    /// Overlap of occurrences `i` and `j` under `kind`.
    pub fn overlaps(&self, i: usize, j: usize, kind: OverlapKind) -> bool {
        match kind {
            OverlapKind::Simple => self.simple_overlap(i, j),
            OverlapKind::Harmful => self.harmful_overlap(i, j),
            OverlapKind::Structural => self.structural_overlap(i, j),
            OverlapKind::Edge => self.edge_overlap(i, j),
        }
    }

    /// Overlap test for a candidate pair already known to share an image vertex (or,
    /// for [`OverlapKind::Edge`], an image edge).  Simple and edge overlap are then
    /// true by construction; harmful and structural reduce to allocation-free probes
    /// of the sorted image arrays and the packed transitive relation.
    fn candidate_overlaps(
        &self,
        index: &OverlapIndex,
        i: usize,
        j: usize,
        kind: OverlapKind,
    ) -> bool {
        match kind {
            OverlapKind::Simple | OverlapKind::Edge => true,
            OverlapKind::Harmful => {
                // f_i(v) ∈ images(i) and f_j(v) ∈ images(j) always hold, so the
                // four-way membership of Definition 4.5.1 reduces to the two cross
                // memberships below.
                let fi = self.embedding(i);
                let fj = self.embedding(j);
                let si = &index.images[i];
                let sj = &index.images[j];
                (0..fi.len())
                    .any(|v| sj.binary_search(&fi[v]).is_ok() && si.binary_search(&fj[v]).is_ok())
            }
            OverlapKind::Structural => {
                // f_i(v) = f_j(w) already lies in both image sets, so the condition
                // of Definition 4.5.2 reduces to a transitive pair with equal images.
                let fi = self.embedding(i);
                let fj = self.embedding(j);
                (0..fi.len())
                    .any(|v| (0..fj.len()).any(|w| self.transitive.get(v, w) && fi[v] == fj[w]))
            }
        }
    }

    /// Emit the overlap edges with smaller endpoint in `rows` into `out`, using the
    /// inverted index: for every occurrence `i`, only occurrences sharing one of its
    /// buckets are visited, each at most once (the `stamp` array dedupes occurrences
    /// appearing in several shared buckets).
    fn indexed_pairs_into(
        &self,
        index: &OverlapIndex,
        kind: OverlapKind,
        rows: std::ops::Range<usize>,
        out: &mut Vec<(usize, usize)>,
    ) {
        let (buckets, items) = match kind {
            OverlapKind::Edge => {
                let edge = index.edge(self.occurrences);
                (&edge.edge_buckets, &edge.occ_edges)
            }
            _ => (&index.vertex_buckets, &index.occ_vertices),
        };
        let m = index.images.len();
        let mut stamp = vec![u32::MAX; m];
        let mut probes = 0u64;
        for i in rows {
            for &item in &items[i] {
                for &j in &buckets[item as usize] {
                    let j = j as usize;
                    if j <= i || stamp[j] == i as u32 {
                        continue;
                    }
                    stamp[j] = i as u32;
                    probes += 1;
                    if self.candidate_overlaps(index, i, j, kind) {
                        out.push((i, j));
                    }
                }
            }
        }
        // One thread-local add per chunk, not per probe — the engine samples
        // these totals around each worker's slice of a level.
        ffsm_obs::tls::add_overlap_probes(probes);
    }

    /// The occurrence overlap graph under `kind` via the inverted index.
    pub fn overlap_graph_indexed(&self, kind: OverlapKind) -> SimpleGraph {
        let m = self.occurrences.num_occurrences();
        let mut pairs = Vec::new();
        self.indexed_pairs_into(self.index(), kind, 0..m, &mut pairs);
        SimpleGraph::from_edge_list(m, &pairs)
    }

    /// The occurrence overlap graph under `kind` via the retained all-pairs builder —
    /// the naive oracle the differential tests compare the indexed builder against.
    pub fn overlap_graph_naive(&self, kind: OverlapKind) -> SimpleGraph {
        let m = self.occurrences.num_occurrences();
        let mut pairs = Vec::new();
        for i in 0..m {
            for j in (i + 1)..m {
                if self.overlaps(i, j, kind) {
                    pairs.push((i, j));
                }
            }
        }
        ffsm_obs::tls::add_overlap_probes((m * m.saturating_sub(1) / 2) as u64);
        SimpleGraph::from_edge_list(m, &pairs)
    }

    /// The occurrence overlap graph under `kind` (Definition 2.2.5 with the chosen
    /// overlap notion): one vertex per occurrence, an edge for every overlapping
    /// pair.  Built by [`OverlapAnalysis::overlap_graph_indexed`] and cached:
    /// repeated calls — including through `mis_under`, `mcp_under`,
    /// `overlap_edge_count` and `overlap_census` — share one build per notion.
    pub fn overlap_graph(&self, kind: OverlapKind) -> Arc<SimpleGraph> {
        self.cache.get_or_build(kind.index(), || self.overlap_graph_indexed(kind))
    }

    /// Number of overlapping pairs under `kind` (the overlap graph's edge count).
    pub fn overlap_edge_count(&self, kind: OverlapKind) -> usize {
        self.overlap_graph(kind).num_edges()
    }

    /// MIS-style support computed on the overlap graph built with `kind`; with
    /// `OverlapKind::Simple` this is exactly σMIS.
    pub fn mis_under(&self, kind: OverlapKind, budget: SearchBudget) -> usize {
        let g = self.overlap_graph(kind);
        exact_max_independent_set(&g, budget).value
    }

    /// MCP-style support (minimum clique partition, Calders et al.) on the overlap
    /// graph built with `kind`; with `OverlapKind::Simple` this is exactly σMCP.
    pub fn mcp_under(&self, kind: OverlapKind, budget: SearchBudget) -> usize {
        let g = self.overlap_graph(kind);
        ffsm_hypergraph::clique_cover::clique_cover_number(&g, budget).value
    }

    /// Summary of how many occurrence pairs overlap under each notion — the raw data
    /// behind Figures 9/10-style comparisons (experiment E8).  Computed from the
    /// cached overlap graphs, so a census after individual queries costs nothing
    /// extra.
    pub fn overlap_census(&self) -> OverlapCensus {
        OverlapCensus {
            num_occurrences: self.occurrences.num_occurrences(),
            simple: self.overlap_edge_count(OverlapKind::Simple),
            harmful: self.overlap_edge_count(OverlapKind::Harmful),
            structural: self.overlap_edge_count(OverlapKind::Structural),
            edge: self.overlap_edge_count(OverlapKind::Edge),
        }
    }
}

/// Counts of overlapping occurrence pairs under every notion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OverlapCensus {
    /// Number of occurrences compared.
    pub num_occurrences: usize,
    /// Pairs in simple (vertex) overlap.
    pub simple: usize,
    /// Pairs in harmful overlap.
    pub harmful: usize,
    /// Pairs in structural overlap.
    pub structural: usize,
    /// Pairs in edge overlap.
    pub edge: usize,
}

impl OverlapCensus {
    /// Total number of occurrence pairs.
    pub fn num_pairs(&self) -> usize {
        if self.num_occurrences < 2 {
            0
        } else {
            self.num_occurrences * (self.num_occurrences - 1) / 2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::figures;
    use ffsm_graph::isomorphism::IsoConfig;

    fn analysis_for(
        example: &ffsm_graph::figures::FigureExample,
    ) -> (OccurrenceSet, Vec<ffsm_graph::isomorphism::Embedding>) {
        let occ = OccurrenceSet::enumerate(&example.pattern, &example.graph, IsoConfig::default());
        let embeddings = occ.embeddings().to_vec();
        (occ, embeddings)
    }

    /// Index of the occurrence with the given image tuple.
    fn index_of(embeddings: &[ffsm_graph::isomorphism::Embedding], image: &[u32]) -> usize {
        embeddings.iter().position(|e| e.as_slice() == image).expect("occurrence present")
    }

    #[test]
    fn figure9_structural_without_harmful() {
        let example = figures::figure9();
        let (occ, embeddings) = analysis_for(&example);
        let analysis = OverlapAnalysis::new(&occ);
        // Paper numbering: g1 = (1,2,3), g2 = (5,3,4), g3 = (5,3,2); zero-based below.
        let g1 = index_of(&embeddings, &[0, 1, 2]);
        let g2 = index_of(&embeddings, &[4, 2, 3]);
        let g3 = index_of(&embeddings, &[4, 2, 1]);
        // (g1, g2): structural but not harmful.
        assert!(analysis.structural_overlap(g1, g2));
        assert!(!analysis.harmful_overlap(g1, g2));
        assert!(analysis.simple_overlap(g1, g2));
        // (g1, g3): both structural and harmful.
        assert!(analysis.structural_overlap(g1, g3));
        assert!(analysis.harmful_overlap(g1, g3));
    }

    #[test]
    fn figure10_harmful_without_structural_and_simple_only() {
        let example = figures::figure10();
        let (occ, embeddings) = analysis_for(&example);
        let analysis = OverlapAnalysis::new(&occ);
        let f1 = index_of(&embeddings, &[0, 1, 2, 3]);
        let f2 = index_of(&embeddings, &[3, 4, 5, 0]);
        let f3 = index_of(&embeddings, &[6, 7, 8, 3]);
        // (f1, f2): harmful but not structural.
        assert!(analysis.harmful_overlap(f1, f2));
        assert!(!analysis.structural_overlap(f1, f2));
        // (f2, f3): simple overlap only.
        assert!(analysis.simple_overlap(f2, f3));
        assert!(!analysis.harmful_overlap(f2, f3));
        assert!(!analysis.structural_overlap(f2, f3));
    }

    #[test]
    fn harmful_and_structural_imply_simple() {
        for example in ffsm_graph::figures::all_figures() {
            let (occ, _) = analysis_for(&example);
            let analysis = OverlapAnalysis::new(&occ);
            let m = occ.num_occurrences();
            for i in 0..m {
                for j in (i + 1)..m {
                    if analysis.harmful_overlap(i, j) || analysis.structural_overlap(i, j) {
                        assert!(
                            analysis.simple_overlap(i, j),
                            "weaker overlap without simple overlap on {}",
                            example.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn weaker_overlap_graphs_are_sparser_and_mis_larger() {
        for example in ffsm_graph::figures::all_figures() {
            let (occ, _) = analysis_for(&example);
            let analysis = OverlapAnalysis::new(&occ);
            let simple_edges = analysis.overlap_edge_count(OverlapKind::Simple);
            let harmful_edges = analysis.overlap_edge_count(OverlapKind::Harmful);
            let structural_edges = analysis.overlap_edge_count(OverlapKind::Structural);
            assert!(harmful_edges <= simple_edges);
            assert!(structural_edges <= simple_edges);
            let budget = SearchBudget::default();
            let mis_simple = analysis.mis_under(OverlapKind::Simple, budget);
            let mis_harmful = analysis.mis_under(OverlapKind::Harmful, budget);
            let mis_structural = analysis.mis_under(OverlapKind::Structural, budget);
            assert!(mis_harmful >= mis_simple);
            assert!(mis_structural >= mis_simple);
        }
    }

    #[test]
    fn edge_overlap_implies_simple_and_is_rarer() {
        for example in ffsm_graph::figures::all_figures() {
            let (occ, _) = analysis_for(&example);
            let analysis = OverlapAnalysis::new(&occ);
            let m = occ.num_occurrences();
            for i in 0..m {
                for j in (i + 1)..m {
                    if analysis.edge_overlap(i, j) {
                        assert!(
                            analysis.simple_overlap(i, j),
                            "edge overlap without vertex overlap"
                        );
                    }
                }
            }
            assert!(
                analysis.overlap_edge_count(OverlapKind::Edge)
                    <= analysis.overlap_edge_count(OverlapKind::Simple)
            );
            assert!(
                analysis.mis_under(OverlapKind::Edge, SearchBudget::default())
                    >= analysis.mis_under(OverlapKind::Simple, SearchBudget::default())
            );
        }
    }

    #[test]
    fn census_counts_are_consistent() {
        let example = figures::figure6();
        let (occ, _) = analysis_for(&example);
        let analysis = OverlapAnalysis::new(&occ);
        let census = analysis.overlap_census();
        assert_eq!(census.num_occurrences, 7);
        assert_eq!(census.num_pairs(), 21);
        assert_eq!(census.simple, analysis.overlap_edge_count(OverlapKind::Simple));
        assert_eq!(census.harmful, analysis.overlap_edge_count(OverlapKind::Harmful));
        assert_eq!(census.structural, analysis.overlap_edge_count(OverlapKind::Structural));
        assert_eq!(census.edge, analysis.overlap_edge_count(OverlapKind::Edge));
        assert!(census.harmful <= census.simple);
        assert!(census.edge <= census.simple);
        // The single-edge pattern has no pattern edge shared between distinct data
        // edges, so edge overlap never fires here.
        assert_eq!(census.edge, 0);
        assert_eq!(OverlapCensus::default().num_pairs(), 0);
    }

    #[test]
    fn mcp_under_simple_bounds_mis_under_simple() {
        for example in ffsm_graph::figures::all_figures() {
            let (occ, _) = analysis_for(&example);
            let analysis = OverlapAnalysis::new(&occ);
            let budget = SearchBudget::default();
            assert!(
                analysis.mis_under(OverlapKind::Simple, budget)
                    <= analysis.mcp_under(OverlapKind::Simple, budget),
                "MIS > MCP on {}",
                example.name
            );
        }
    }

    #[test]
    fn overlap_with_self_is_total() {
        let example = figures::figure2();
        let (occ, _) = analysis_for(&example);
        let analysis = OverlapAnalysis::new(&occ);
        // Occurrences of the triangle all share the vertex set {1,2,3}: every pair
        // overlaps under every notion (the triangle is fully transitive).
        let m = occ.num_occurrences();
        for i in 0..m {
            for j in 0..m {
                if i == j {
                    continue;
                }
                assert!(analysis.simple_overlap(i, j));
                assert!(analysis.harmful_overlap(i, j));
                assert!(analysis.structural_overlap(i, j));
            }
        }
        assert_eq!(analysis.mis_under(OverlapKind::Simple, SearchBudget::default()), 1);
    }

    #[test]
    fn indexed_builders_match_naive_oracle_on_all_figures() {
        for example in ffsm_graph::figures::all_figures() {
            let (occ, _) = analysis_for(&example);
            let analysis = OverlapAnalysis::new(&occ);
            for kind in OverlapKind::all() {
                let naive = analysis.overlap_graph_naive(kind);
                let built = analysis.overlap_graph_indexed(kind);
                assert_eq!(
                    built.num_edges(),
                    naive.num_edges(),
                    "indexed vs naive edge count, {kind} on {}",
                    example.name
                );
                for v in 0..naive.num_vertices() {
                    assert_eq!(
                        built.neighbors(v),
                        naive.neighbors(v),
                        "indexed vs naive row {v}, {kind} on {}",
                        example.name
                    );
                }
            }
        }
    }

    #[test]
    fn cache_builds_each_kind_once() {
        let example = figures::figure6();
        let (occ, _) = analysis_for(&example);
        let analysis = OverlapAnalysis::new(&occ);
        assert_eq!(analysis.overlap_builds(), 0);
        let budget = SearchBudget::default();
        analysis.mis_under(OverlapKind::Simple, budget);
        analysis.mcp_under(OverlapKind::Simple, budget);
        analysis.overlap_edge_count(OverlapKind::Simple);
        assert_eq!(analysis.overlap_builds(), 1, "simple graph shared across queries");
        analysis.overlap_census();
        assert_eq!(analysis.overlap_builds(), 4, "census adds the three other notions");
        analysis.overlap_census();
        assert_eq!(analysis.overlap_builds(), 4, "census is fully cached");
        // A fresh analysis (new pattern / level) starts from an empty cache.
        let (occ2, _) = analysis_for(&figures::figure2());
        let analysis2 = OverlapAnalysis::new(&occ2);
        assert_eq!(analysis2.overlap_builds(), 0);
    }

    #[test]
    fn overlap_kind_parses_its_own_display() {
        for kind in OverlapKind::all() {
            let parsed: OverlapKind = kind.to_string().parse().expect("round trip");
            assert_eq!(parsed, kind);
        }
        assert_eq!("VERTEX".parse::<OverlapKind>().unwrap(), OverlapKind::Simple);
        assert_eq!(" Harmful ".parse::<OverlapKind>().unwrap(), OverlapKind::Harmful);
        assert!(matches!("bogus".parse::<OverlapKind>(), Err(crate::FfsmError::UnknownOverlap(_))));
        // Hash + Ord derives: usable as map/set keys.
        let set: std::collections::BTreeSet<OverlapKind> = OverlapKind::all().into_iter().collect();
        assert_eq!(set.len(), 4);
        let mut map = std::collections::HashMap::new();
        map.insert(OverlapKind::Edge, 1);
        assert_eq!(map[&OverlapKind::Edge], 1);
    }
}
