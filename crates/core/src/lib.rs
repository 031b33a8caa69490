//! # ffsm-core — the hypergraph support-measure framework
//!
//! This crate implements the contribution of *"Flexible and Feasible Support Measures
//! for Mining Frequent Patterns in Large Labeled Graphs"* (SIGMOD 2017):
//!
//! * [`occurrences`] — enumeration of a pattern's occurrences and instances in a data
//!   graph, and their **occurrence / instance hypergraphs** (Definitions 3.1.3 and
//!   3.1.4);
//! * [`measures`] — the support measures studied by the paper:
//!   * `MNI` — minimum-image-based support (Bringmann & Nijssen, Definition 2.2.8) and
//!     its parameterised variant `MNI-k` (Definition 2.2.9),
//!   * `MI` — minimum instance support over coarse-grained / transitive node subsets
//!     (Definition 3.2.4), with configurable subset strategies,
//!   * `MVC` — minimum-vertex-cover support of the occurrence hypergraph
//!     (Definition 3.3.2), exact and k-approximate,
//!   * `MIS` — the classic overlap-graph maximum-independent-set support
//!     (Definition 2.2.7),
//!   * `MIES` — maximum independent edge set of the hypergraph (Definition 4.2.1),
//!   * `νMVC` / `νMIES` — the polynomial-time LP relaxations (Definitions 4.3.1 and
//!     4.3.2);
//! * [`overlap`] — simple, harmful and structural overlap (Section 4.5) and
//!   overlap-graph construction under each notion;
//! * [`bounds`] — the bounding chain of Section 4.4,
//!   `σMIS = σMIES ≤ νMIES = νMVC ≤ σMVC ≤ σMI ≤ σMNI`, as a checked report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod error;
pub mod measures;
pub mod occurrences;
pub mod overlap;
pub mod profile;

pub use bounds::{verify_bounding_chain, BoundsReport};
pub use error::FfsmError;
// Occurrence enumeration is dispatched to the candidate-space engine of
// `ffsm-match` (see `IsoConfig::backend`); the per-graph index, the backend tag
// and the cancellation token are re-exported so downstream crates (the miner, the
// CLI) need no direct dependency to share one index across patterns or to plumb
// cooperative cancellation into the enumerators — and so are the matcher and its
// two-phase space build, which the miner seeds from each candidate's parent.
pub use ffsm_graph::isomorphism::EnumeratorBackend;
pub use ffsm_graph::CancelToken;
// The dynamic-graph update vocabulary is re-exported for the same reason: the
// miner's delta-aware mode and the `ffsm-dynamic` store speak these types.
pub use ffsm_graph::{GraphDelta, GraphUpdate, UpdateError};
pub use ffsm_match::{CandidateSpace, GraphIndex, Matcher, SearchArena};
// Raw embedding enumeration (without the `OccurrenceSet` wrapper) is what the
// partitioned miner needs: per-shard embeddings are remapped to global ids and
// merged *before* one occurrence set is built, so the hypergraph and the support
// value are computed over the exact global occurrence list.
pub use ffsm_graph::isomorphism::EnumerationResult;
pub use ffsm_match::enumerate_with;
pub use measures::{
    Evaluation, MeasureConfig, MeasureKind, MiStrategy, MvcAlgorithm, SupportMeasure,
    SupportMeasures,
};
pub use occurrences::{HypergraphBasis, Instance, OccurrenceSet};
pub use overlap::{OverlapAnalysis, OverlapCache, OverlapCensus, OverlapKind};
pub use profile::{MeasureProfile, ProfileEntry};

use ffsm_graph::{LabeledGraph, Pattern};

/// Convenience one-shot evaluation: enumerate occurrences of `pattern` in `graph` and
/// compute the requested measure with the given configuration.
///
/// This is the entry point used by the miner and by most examples; for repeated
/// measurements over the same pattern/graph pair build a [`SupportMeasures`] once and
/// query it instead.
///
/// ```
/// use ffsm_core::{evaluate, MeasureConfig, MeasureKind};
/// use ffsm_graph::{patterns, Label, LabeledGraph};
///
/// // The paper's Figure 4: path data graph A-B-B-A, pattern A-B-B.
/// let graph = LabeledGraph::from_edges(&[0, 1, 1, 0], &[(0, 1), (1, 2), (2, 3)]);
/// let pattern = patterns::path(&[Label(0), Label(1), Label(1)]);
/// let config = MeasureConfig::default();
/// assert_eq!(evaluate(&pattern, &graph, MeasureKind::Mni, &config), 2.0);
/// assert_eq!(evaluate(&pattern, &graph, MeasureKind::Mi, &config), 1.0);
/// ```
pub fn evaluate(
    pattern: &Pattern,
    graph: &LabeledGraph,
    kind: MeasureKind,
    config: &MeasureConfig,
) -> f64 {
    let occ = OccurrenceSet::enumerate(pattern, graph, config.iso_config.clone());
    let measures = SupportMeasures::new(occ, config.clone());
    measures.compute(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::figures;

    #[test]
    fn one_shot_evaluate_matches_calculator() {
        let f = figures::figure4();
        let config = MeasureConfig::default();
        let direct = evaluate(&f.pattern, &f.graph, MeasureKind::Mni, &config);
        let occ = OccurrenceSet::enumerate(&f.pattern, &f.graph, config.iso_config.clone());
        let calc = SupportMeasures::new(occ, config);
        assert_eq!(direct, calc.compute(MeasureKind::Mni));
        assert_eq!(direct, 2.0);
    }
}
