//! The minimum instance (MI) support measure.
//!
//! σMI(P, G) = min over *coarse-grained node subsets* T of the number of distinct
//! image sets c(T) = |{f_i(T)}| (Definition 3.2.4).  The collection of subsets is
//! drawn from the pattern's *transitive node subsets* (Definition 3.2.3): vertex sets
//! every pair of which is swapped by an automorphism of some subgraph of the pattern.
//!
//! The paper leaves the exact family of subgraphs open; the [`MiStrategy`] enum makes
//! the choice explicit.  All strategies include the singletons, so
//! σMI ≤ σMNI (Theorem 3.4) holds by construction, and all are anti-monotonic because
//! the candidate family only depends on the pattern and is preserved under pattern
//! extension (the argument of Theorem 3.2).

use super::mni::connected_subsets_of_size;
use super::MiStrategy;
use crate::occurrences::OccurrenceSet;
use ffsm_graph::automorphism::connected_subgraph_orbits;
use ffsm_graph::VertexId;
use std::collections::BTreeSet;

/// Largest base-set size for which *all* subsets are enumerated as candidates; larger
/// orbits / label classes contribute only their full set (plus pairs), keeping the
/// candidate count polynomial in practice.
const MAX_SUBSET_ENUMERATION: usize = 12;

/// Minimum instance support (Definition 3.2.4) under the given strategy.
pub fn mi(occurrences: &OccurrenceSet, strategy: MiStrategy) -> usize {
    if occurrences.num_occurrences() == 0 || occurrences.pattern().num_vertices() == 0 {
        return 0;
    }
    let candidates = candidate_subsets(occurrences, strategy);
    candidates.iter().map(|t| occurrences.subset_image_count(t)).min().unwrap_or(0)
}

/// The coarse-grained node subsets considered by `strategy` (always non-empty for a
/// non-empty pattern).
pub fn candidate_subsets(occurrences: &OccurrenceSet, strategy: MiStrategy) -> Vec<Vec<VertexId>> {
    let pattern = occurrences.pattern();
    let singletons: Vec<Vec<VertexId>> = pattern.vertices().map(|v| vec![v]).collect();
    let mut out: BTreeSet<Vec<VertexId>> = BTreeSet::new();
    match strategy {
        MiStrategy::Singletons => {
            out.extend(singletons);
        }
        MiStrategy::ConnectedK(k) => {
            let subsets =
                connected_subsets_of_size(occurrences, k.clamp(1, pattern.num_vertices().max(1)));
            if subsets.is_empty() {
                out.extend(singletons);
            } else {
                out.extend(subsets);
            }
        }
        MiStrategy::AutomorphismOrbits => {
            out.extend(singletons);
            for orbit in connected_subgraph_orbits(pattern) {
                extend_with_subsets(&mut out, &orbit);
            }
        }
        MiStrategy::LabelClasses => {
            out.extend(singletons);
            for label in pattern.distinct_labels() {
                let class = pattern.vertices_with_label(label);
                if class.len() >= 2 {
                    extend_with_subsets(&mut out, &class);
                }
            }
        }
    }
    out.into_iter().collect()
}

/// Insert `base` and all of its subsets of size ≥ 2 (subject to the enumeration cap).
fn extend_with_subsets(out: &mut BTreeSet<Vec<VertexId>>, base: &[VertexId]) {
    let k = base.len();
    if k < 2 {
        return;
    }
    if k > MAX_SUBSET_ENUMERATION {
        // Full set plus all pairs only.
        out.insert(base.to_vec());
        for i in 0..k {
            for j in (i + 1)..k {
                out.insert(vec![base[i], base[j]]);
            }
        }
        return;
    }
    for mask in 1u32..(1 << k) {
        if mask.count_ones() < 2 {
            continue;
        }
        let subset: Vec<VertexId> =
            (0..k).filter(|&i| mask & (1 << i) != 0).map(|i| base[i]).collect();
        out.insert(subset);
    }
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
    fn figure4_mi_is_one() {
        let occ = occ_of(&figures::figure4());
        assert_eq!(mi(&occ, MiStrategy::AutomorphismOrbits), 1);
        assert_eq!(mi(&occ, MiStrategy::LabelClasses), 1);
        // With singletons only, MI degenerates to MNI = 2.
        assert_eq!(mi(&occ, MiStrategy::Singletons), 2);
    }

    #[test]
    fn figure2_mi_is_one() {
        // The triangle's full orbit {v1,v2,v3} has a single image set {1,2,3}.
        let occ = occ_of(&figures::figure2());
        assert_eq!(mi(&occ, MiStrategy::AutomorphismOrbits), 1);
    }

    #[test]
    fn figure6_mi_is_four() {
        // Different endpoint labels: no transitive pairs, MI = MNI = 4.
        let occ = occ_of(&figures::figure6());
        assert_eq!(mi(&occ, MiStrategy::AutomorphismOrbits), 4);
        assert_eq!(mi(&occ, MiStrategy::LabelClasses), 4);
    }

    #[test]
    fn figure9_mi_is_two() {
        // Stated in Section 4.5: MI = 2 via the transitive subset {v2, v3}.
        let occ = occ_of(&figures::figure9());
        assert_eq!(mi(&occ, MiStrategy::AutomorphismOrbits), 2);
        assert_eq!(mi(&occ, MiStrategy::Singletons), 2);
    }

    #[test]
    fn mi_never_exceeds_mni_for_any_strategy() {
        for example in ffsm_graph::figures::all_figures() {
            let occ = occ_of(&example);
            let mni = super::super::mni::mni(&occ);
            for strategy in
                [MiStrategy::Singletons, MiStrategy::AutomorphismOrbits, MiStrategy::LabelClasses]
            {
                assert!(mi(&occ, strategy) <= mni, "MI ({strategy:?}) > MNI on {}", example.name);
            }
        }
    }

    #[test]
    fn label_classes_is_at_most_orbits() {
        // LabelClasses considers a superset of candidate subsets, so its minimum can
        // only be lower or equal.
        for example in ffsm_graph::figures::all_figures() {
            let occ = occ_of(&example);
            assert!(
                mi(&occ, MiStrategy::LabelClasses) <= mi(&occ, MiStrategy::AutomorphismOrbits),
                "on {}",
                example.name
            );
        }
    }

    #[test]
    fn connected_k_strategy_matches_mni_k() {
        for example in [figures::figure2(), figures::figure4(), figures::figure9()] {
            let occ = occ_of(&example);
            for k in 1..=occ.pattern().num_vertices() {
                assert_eq!(
                    mi(&occ, MiStrategy::ConnectedK(k)),
                    super::super::mni::mni_k(&occ, k),
                    "k = {k} on {}",
                    example.name
                );
            }
        }
    }

    #[test]
    fn no_occurrences_gives_zero() {
        let pattern = patterns::single_edge(Label(5), Label(6));
        let graph = LabeledGraph::from_edges(&[0, 0], &[(0, 1)]);
        let occ = OccurrenceSet::enumerate(&pattern, &graph, IsoConfig::default());
        assert_eq!(mi(&occ, MiStrategy::AutomorphismOrbits), 0);
    }

    #[test]
    fn candidate_subsets_always_include_singletons() {
        let occ = occ_of(&figures::figure2());
        for strategy in
            [MiStrategy::Singletons, MiStrategy::AutomorphismOrbits, MiStrategy::LabelClasses]
        {
            let candidates = candidate_subsets(&occ, strategy);
            for v in occ.pattern().vertices() {
                assert!(candidates.contains(&vec![v]), "{strategy:?} misses {{{v}}}");
            }
        }
    }

    #[test]
    fn uniform_star_orbit_subsets_present() {
        // A 3-leaf uniform star: the leaves form an orbit; all leaf subsets of size >= 2
        // must be candidates under the orbit strategy.
        let pattern = patterns::uniform_star(3, Label(0), Label(1));
        let graph = ffsm_graph::generators::star_overlap(3, 5);
        let occ = OccurrenceSet::enumerate(&pattern, &graph, IsoConfig::default());
        let candidates = candidate_subsets(&occ, MiStrategy::AutomorphismOrbits);
        assert!(candidates.contains(&vec![1, 2]));
        assert!(candidates.contains(&vec![1, 2, 3]));
    }
}
