//! # ffsm-graph — labeled-graph substrate
//!
//! Everything the support-measure framework needs from graphs, implemented from
//! scratch:
//!
//! * [`LabeledGraph`] — an undirected vertex-labeled graph with sorted adjacency lists
//!   (data graphs and patterns share this representation; [`Pattern`] is an alias).
//! * [`isomorphism`] — VF2-style enumeration of all *occurrences* (subgraph
//!   isomorphisms, Definition 2.1.8 of the paper) of a pattern in a data graph.
//! * [`automorphism`] — automorphism groups, vertex orbits and transitive pairs
//!   (Definition 3.2.2), used by the MI measure and by *structural overlap*.
//! * [`canonical`] — canonical codes for small patterns, used by the miner to
//!   de-duplicate candidates.
//! * [`patterns`] — constructors for the common query shapes (edge, path, star,
//!   triangle, clique, cycle).
//! * [`generators`] / [`datasets`] — synthetic data-graph generators standing in for
//!   the paper's real datasets.
//! * [`figures`] — the exact example graphs of the paper's Figures 1–10.
//! * [`io`] — plain-text readers/writers for `.lg` graphs and `.gu` update batches.
//! * [`update`] — typed [`GraphUpdate`]s, batch application and the [`GraphDelta`]
//!   dirty-region bookkeeping behind the dynamic-graph subsystem.
//!
//! ```
//! use ffsm_graph::{patterns, Label, LabeledGraph};
//! use ffsm_graph::isomorphism::{enumerate_embeddings, IsoConfig};
//!
//! // A labelled triangle with a pendant vertex, queried with a two-vertex pattern.
//! let graph = LabeledGraph::from_edges(&[0, 0, 1, 1], &[(0, 1), (1, 2), (0, 2), (2, 3)]);
//! let pattern = patterns::single_edge(Label(0), Label(1));
//! let result = enumerate_embeddings(&pattern, &graph, IsoConfig::default());
//! assert_eq!(result.len(), 2); // (0,2) and (1,2)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod automorphism;
pub mod cancel;
pub mod canonical;
pub mod datasets;
pub mod figures;
pub mod generators;
mod graph;
pub mod io;
pub mod isomorphism;
pub mod patterns;
pub mod statistics;
pub mod transform;
pub mod update;

pub use cancel::CancelToken;
pub use graph::{GraphError, LabeledGraph, VertexRemoval};
pub use statistics::{DegreeSummary, GraphStatistics};
pub use update::{apply_batch, GraphDelta, GraphUpdate, UpdateError};

/// Identifier of a vertex inside a [`LabeledGraph`] (dense, `0..num_vertices`).
pub type VertexId = u32;

/// A vertex label.
///
/// Labels are opaque small integers; generators and loaders map domain alphabets
/// (atom types, entity classes, …) onto them.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct Label(pub u32);

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl From<u32> for Label {
    fn from(v: u32) -> Self {
        Label(v)
    }
}

/// A query pattern (Definition 2.1.3).  Patterns are just small labeled graphs; the
/// alias documents intent at API boundaries.
pub type Pattern = LabeledGraph;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_display_and_from() {
        let l: Label = 7u32.into();
        assert_eq!(l, Label(7));
        assert_eq!(format!("{l}"), "L7");
    }
}
