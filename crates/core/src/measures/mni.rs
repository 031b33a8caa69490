//! The minimum-image-based support measures MNI and MNI-k.
//!
//! σMNI(P, G) = min over pattern nodes v of the number of *distinct* data vertices
//! that v is mapped to across all occurrences (Definition 2.2.8).  It is
//! anti-monotonic and computable in time linear in the number of occurrences (each
//! node's images are counted with one reused set of marks, no set is built), but it
//! ignores the pattern's topology entirely, which is what the paper's MI measure
//! repairs.
//!
//! σMNI(P, G, k) (Definition 2.2.9) generalises the per-node image count to connected
//! node subsets of size `k`, counted as *sets* of images.

use crate::occurrences::{ImageMarks, OccurrenceSet};
use ffsm_graph::VertexId;

/// Minimum-image-based support (Definition 2.2.8).
///
/// Returns 0 when the pattern has no occurrences (and, by convention, when the
/// pattern has no nodes).
pub fn mni(occurrences: &OccurrenceSet) -> usize {
    let pattern = occurrences.pattern();
    if occurrences.num_occurrences() == 0 || pattern.num_vertices() == 0 {
        return 0;
    }
    let mut marks = ImageMarks::default();
    let embeddings = occurrences.embeddings();
    pattern.vertices().map(|v| marks.distinct(embeddings, v as usize)).min().unwrap_or(0)
}

/// Minimum k-image-based support (Definition 2.2.9): the minimum, over *connected*
/// node subsets `V'` of size `k`, of the number of distinct image sets `{f_i(V')}`.
///
/// If the pattern has no connected subset of `k` nodes (e.g. `k` exceeds the pattern
/// size), the whole vertex set is used instead, making the value well defined for
/// every `k ≥ 1`.
pub fn mni_k(occurrences: &OccurrenceSet, k: usize) -> usize {
    let pattern = occurrences.pattern();
    let n = pattern.num_vertices();
    if occurrences.num_occurrences() == 0 || n == 0 || k == 0 {
        return 0;
    }
    let subsets = connected_subsets_of_size(occurrences, k.min(n));
    let candidates: Vec<Vec<VertexId>> =
        if subsets.is_empty() { vec![pattern.vertices().collect()] } else { subsets };
    candidates.iter().map(|s| occurrences.subset_image_count(s)).min().unwrap_or(0)
}

/// All connected node subsets of the pattern with exactly `k` vertices
/// (connectivity in the subgraph induced by the subset).
pub(crate) fn connected_subsets_of_size(
    occurrences: &OccurrenceSet,
    k: usize,
) -> Vec<Vec<VertexId>> {
    let pattern = occurrences.pattern();
    let n = pattern.num_vertices();
    if k == 0 || k > n {
        return Vec::new();
    }
    if n > 20 {
        // Patterns are tiny in practice; guard against pathological inputs.
        return vec![pattern.vertices().collect()];
    }
    let mut out = Vec::new();
    for mask in 1u32..(1 << n) {
        if mask.count_ones() as usize != k {
            continue;
        }
        let subset: Vec<VertexId> = (0..n as u32).filter(|&v| mask & (1 << v) != 0).collect();
        let (sub, _) = pattern.induced_subgraph(&subset);
        if sub.is_connected() {
            out.push(subset);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::isomorphism::IsoConfig;
    use ffsm_graph::{figures, patterns, Label, LabeledGraph};

    fn occ_of(example: &ffsm_graph::figures::FigureExample) -> OccurrenceSet {
        OccurrenceSet::enumerate(&example.pattern, &example.graph, IsoConfig::default())
    }

    #[test]
    fn figure2_mni_is_three() {
        assert_eq!(mni(&occ_of(&figures::figure2())), 3);
    }

    #[test]
    fn figure4_mni_is_two() {
        assert_eq!(mni(&occ_of(&figures::figure4())), 2);
    }

    #[test]
    fn figure6_mni_is_four() {
        assert_eq!(mni(&occ_of(&figures::figure6())), 4);
    }

    #[test]
    fn no_occurrences_gives_zero() {
        let pattern = patterns::single_edge(Label(5), Label(6));
        let graph = LabeledGraph::from_edges(&[0, 0], &[(0, 1)]);
        let occ = OccurrenceSet::enumerate(&pattern, &graph, IsoConfig::default());
        assert_eq!(mni(&occ), 0);
        assert_eq!(mni_k(&occ, 2), 0);
    }

    #[test]
    fn mni_k_with_k1_equals_mni() {
        for example in [figures::figure2(), figures::figure4(), figures::figure6()] {
            let occ = occ_of(&example);
            assert_eq!(mni_k(&occ, 1), mni(&occ), "{}", example.name);
        }
    }

    #[test]
    fn mni_k_specific_values() {
        // Figure 4: the {v2,v3} pair has a single image set, the full path has two.
        let occ = occ_of(&figures::figure4());
        assert_eq!(mni_k(&occ, 2), 1);
        assert_eq!(mni_k(&occ, 3), 2);
        // Figure 2 (triangle): every k-subset image collapses onto {1,2,3}-subsets.
        let occ2 = occ_of(&figures::figure2());
        assert_eq!(mni_k(&occ2, 2), 3);
        assert_eq!(mni_k(&occ2, 3), 1);
        // Every MNI-k value is bounded by the occurrence count.
        for example in [figures::figure2(), figures::figure4(), figures::figure9()] {
            let occ = occ_of(&example);
            for k in 1..=occ.pattern().num_vertices() {
                assert!(mni_k(&occ, k) <= occ.num_occurrences());
            }
        }
    }

    #[test]
    fn figure2_mni_k_full_pattern_counts_instances() {
        // For the triangle, the image of the full node set is always {1,2,3}: one set.
        let occ = occ_of(&figures::figure2());
        assert_eq!(mni_k(&occ, 3), 1);
    }

    #[test]
    fn oversized_k_falls_back_to_full_pattern() {
        let occ = occ_of(&figures::figure4());
        assert_eq!(mni_k(&occ, 10), mni_k(&occ, occ.pattern().num_vertices()));
        assert_eq!(mni_k(&occ, 0), 0);
    }

    #[test]
    fn connected_subsets_enumeration() {
        let occ = occ_of(&figures::figure4()); // path of three nodes
        let s1 = connected_subsets_of_size(&occ, 1);
        assert_eq!(s1.len(), 3);
        let s2 = connected_subsets_of_size(&occ, 2);
        // Only the two path edges are connected pairs.
        assert_eq!(s2.len(), 2);
        let s3 = connected_subsets_of_size(&occ, 3);
        assert_eq!(s3.len(), 1);
        assert!(connected_subsets_of_size(&occ, 4).is_empty());
    }
}
