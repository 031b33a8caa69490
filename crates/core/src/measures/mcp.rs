//! The MCP (minimum clique partition) support measure.
//!
//! Calders, Ramon and Van Dyck (ICDM 2008) proposed partitioning the overlap graph
//! into the minimum number of cliques and using that number as the support.  Every
//! independent set of the overlap graph contains at most one vertex per clique, so
//!
//! ```text
//! σMIS ≤ σMCP
//! ```
//!
//! i.e. MCP is a *less conservative* overlap-graph measure than MIS while remaining
//! anti-monotonic (proved in the original paper; intuitively, the clique partition of
//! a subpattern's overlap graph induces one for the superpattern).  Like MIS it is
//! NP-hard; the exact solver is budgeted.
//!
//! In the hypergraph framework the overlap graph is derived from the occurrence /
//! instance hypergraph exactly as for MIS (Section 4.2), so MCP slots into the same
//! machinery — it is simply a different graph invariant of the same object.

use super::MeasureOutcome;
use ffsm_hypergraph::clique_cover::clique_cover_number;
use ffsm_hypergraph::SearchBudget;

/// Exact (budgeted) minimum clique partition of an already-built overlap graph —
/// the single solving path.  `SupportMeasures` builds and caches the graph, sharing
/// one build with σMIS.
pub fn mcp_on_graph(
    overlap: &ffsm_hypergraph::independent_set::SimpleGraph,
    budget: SearchBudget,
) -> MeasureOutcome {
    let res = clique_cover_number(overlap, budget);
    MeasureOutcome { value: res.value, optimal: res.optimal }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::mis::mis_on_graph;
    use crate::occurrences::{HypergraphBasis, OccurrenceSet};
    use ffsm_graph::isomorphism::IsoConfig;
    use ffsm_graph::{figures, generators};
    use ffsm_hypergraph::clique_cover::greedy_clique_partition;
    use ffsm_hypergraph::Hypergraph;

    fn occurrence_hypergraph(example: &ffsm_graph::figures::FigureExample) -> Hypergraph {
        let occ = OccurrenceSet::enumerate(&example.pattern, &example.graph, IsoConfig::default());
        occ.hypergraph(HypergraphBasis::Occurrence)
    }

    fn mis(hypergraph: &Hypergraph, budget: SearchBudget) -> MeasureOutcome {
        mis_on_graph(&hypergraph.overlap_graph(), budget)
    }

    fn mcp(hypergraph: &Hypergraph, budget: SearchBudget) -> MeasureOutcome {
        mcp_on_graph(&hypergraph.overlap_graph(), budget)
    }

    /// Greedy clique-partition upper bound on σMCP.
    fn greedy(hypergraph: &Hypergraph) -> usize {
        greedy_clique_partition(&hypergraph.overlap_graph()).len()
    }

    #[test]
    fn figure2_single_instance_needs_one_clique() {
        // All six automorphic occurrences pairwise overlap: the overlap graph is a
        // clique, so one clique covers it.
        let h = occurrence_hypergraph(&figures::figure2());
        let r = mcp(&h, SearchBudget::default());
        assert!(r.optimal);
        assert_eq!(r.value, 1);
        assert_eq!(greedy(&h), 1);
    }

    #[test]
    fn figure6_two_hubs_two_cliques() {
        // The seven occurrences split into the hub-1 star and the hub-8 star; each
        // star's occurrences pairwise overlap, so two cliques suffice, and MIS = 2
        // shows two are necessary.
        let h = occurrence_hypergraph(&figures::figure6());
        let r = mcp(&h, SearchBudget::default());
        assert!(r.optimal);
        assert_eq!(r.value, 2);
    }

    #[test]
    fn mcp_dominates_mis_on_all_figures() {
        for example in ffsm_graph::figures::all_figures() {
            let h = occurrence_hypergraph(&example);
            let budget = SearchBudget::default();
            let mis_v = mis(&h, budget);
            let mcp_v = mcp(&h, budget);
            assert!(mis_v.optimal && mcp_v.optimal, "truncated on {}", example.name);
            assert!(
                mis_v.value <= mcp_v.value,
                "σMIS={} > σMCP={} on {}",
                mis_v.value,
                mcp_v.value,
                example.name
            );
            assert!(mcp_v.value <= greedy(&h), "greedy below exact on {}", example.name);
        }
    }

    #[test]
    fn disjoint_occurrences_need_one_clique_each() {
        // Five disjoint labelled edges: the overlap graph has no edges, so MCP equals
        // the number of occurrences (and so does MIS).
        let edge = ffsm_graph::LabeledGraph::from_edges(&[0, 1], &[(0, 1)]);
        let graph = generators::replicated(&edge, 5, false);
        let pattern = ffsm_graph::patterns::single_edge(ffsm_graph::Label(0), ffsm_graph::Label(1));
        let occ = OccurrenceSet::enumerate(&pattern, &graph, IsoConfig::default());
        let h = occ.hypergraph(HypergraphBasis::Occurrence);
        assert_eq!(mcp(&h, SearchBudget::default()).value, 5);
        assert_eq!(greedy(&h), 5);
    }

    #[test]
    fn empty_hypergraph_is_zero() {
        let h = Hypergraph::new(0);
        assert_eq!(mcp(&h, SearchBudget::default()).value, 0);
        assert_eq!(greedy(&h), 0);
    }
}
