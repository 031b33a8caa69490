//! The MIS (overlap graph) and MIES (hypergraph) support measures.
//!
//! * σMIS (Definition 2.2.7, Vanetik et al.): the maximum number of pairwise
//!   non-overlapping occurrences/instances, computed as a maximum independent set of
//!   the *overlap graph*.
//! * σMIES (Definition 4.2.1): the maximum independent edge set of the occurrence /
//!   instance hypergraph.
//!
//! Theorem 4.1 proves the two are equal; keeping both implementations (one via the
//! overlap graph, one via hypergraph set packing) lets the test-suite and experiment
//! E2 verify the equivalence computationally instead of assuming it.

use super::MeasureOutcome;
use ffsm_hypergraph::independent_set::{exact_max_independent_set, SimpleGraph};
use ffsm_hypergraph::matching::exact_independent_edge_set;
use ffsm_hypergraph::{Hypergraph, SearchBudget};

/// MIS support on an already-built overlap graph (vertex overlap, Definition
/// 2.2.3/2.2.5) — the single solving path.  `SupportMeasures` builds and caches the
/// graph, sharing one build with σMCP.
pub fn mis_on_graph(overlap: &SimpleGraph, budget: SearchBudget) -> MeasureOutcome {
    let res = exact_max_independent_set(overlap, budget);
    MeasureOutcome { value: res.value, optimal: res.optimal }
}

/// Maximum independent edge set support on the hypergraph itself (set packing).
pub fn mies(hypergraph: &Hypergraph, budget: SearchBudget) -> MeasureOutcome {
    if hypergraph.is_empty() {
        return MeasureOutcome { value: 0, optimal: true };
    }
    let res = exact_independent_edge_set(hypergraph, budget);
    MeasureOutcome { value: res.value, optimal: res.optimal }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occurrences::{HypergraphBasis, OccurrenceSet};
    use ffsm_graph::figures;
    use ffsm_graph::isomorphism::IsoConfig;

    fn hypergraphs(example: &ffsm_graph::figures::FigureExample) -> (Hypergraph, Hypergraph) {
        let occ = OccurrenceSet::enumerate(&example.pattern, &example.graph, IsoConfig::default());
        (occ.hypergraph(HypergraphBasis::Occurrence), occ.hypergraph(HypergraphBasis::Instance))
    }

    fn mis(hypergraph: &Hypergraph, budget: SearchBudget) -> MeasureOutcome {
        mis_on_graph(&hypergraph.overlap_graph(), budget)
    }

    #[test]
    fn figure2_mis_is_one() {
        let (oh, ih) = hypergraphs(&figures::figure2());
        assert_eq!(mis(&oh, SearchBudget::default()).value, 1);
        assert_eq!(mis(&ih, SearchBudget::default()).value, 1);
    }

    #[test]
    fn figure6_mis_is_two() {
        let (oh, _) = hypergraphs(&figures::figure6());
        assert_eq!(mis(&oh, SearchBudget::default()).value, 2);
        assert_eq!(mies(&oh, SearchBudget::default()).value, 2);
    }

    #[test]
    fn figure8_mis_equals_mies_equals_two() {
        let (_, ih) = hypergraphs(&figures::figure8());
        assert_eq!(mis(&ih, SearchBudget::default()).value, 2);
        assert_eq!(mies(&ih, SearchBudget::default()).value, 2);
    }

    #[test]
    fn theorem_4_1_mis_equals_mies_on_all_figures() {
        for example in ffsm_graph::figures::all_figures() {
            let (oh, ih) = hypergraphs(&example);
            for h in [&oh, &ih] {
                let a = mis(h, SearchBudget::default());
                let b = mies(h, SearchBudget::default());
                assert!(a.optimal && b.optimal, "search truncated on {}", example.name);
                assert_eq!(a.value, b.value, "MIS != MIES on {}", example.name);
            }
        }
    }

    #[test]
    fn occurrence_and_instance_bases_agree() {
        // Duplicate hyperedges (same image set under automorphic occurrences) cannot
        // both be picked, so the basis does not change MIS/MIES.
        for example in ffsm_graph::figures::all_figures() {
            let (oh, ih) = hypergraphs(&example);
            assert_eq!(
                mis(&oh, SearchBudget::default()).value,
                mis(&ih, SearchBudget::default()).value,
                "basis changes MIS on {}",
                example.name
            );
        }
    }

    #[test]
    fn empty_hypergraph_is_zero() {
        let h = Hypergraph::new(0);
        assert_eq!(mis(&h, SearchBudget::default()).value, 0);
        assert_eq!(mies(&h, SearchBudget::default()).value, 0);
    }
}
