//! # ffsm-hypergraph — hypergraph substrate
//!
//! The paper's framework represents pattern occurrences/instances as edges of a
//! *hypergraph* whose vertices are pattern-node images (Section 3.1).  This crate
//! provides that substrate independently of any graph-mining concern:
//!
//! * [`Hypergraph`] — storage, duals (Definition 3.1.2), uniformity checks and
//!   minimal-edge reduction.
//! * [`vertex_cover`] — exact branch-and-bound and greedy k-approximate minimum
//!   vertex covers (the MVC support measure, Definition 3.3.2).
//! * [`matching`] — exact and greedy maximum independent edge sets / set packing
//!   (the MIES support measure, Definition 4.2.1).
//! * [`independent_set`] — maximum independent sets in ordinary graphs (the classic
//!   overlap-graph MIS measure of Vanetik et al. that the paper compares against).
//!
//! All exact solvers are branch-and-bound searches with a configurable node budget:
//! they report whether the returned value is proven optimal, so callers can fall back
//! to the approximation algorithms on adversarial inputs instead of hanging.
//!
//! ```
//! use ffsm_hypergraph::{Hypergraph, SearchBudget};
//! use ffsm_hypergraph::vertex_cover::exact_vertex_cover;
//! use ffsm_hypergraph::matching::exact_independent_edge_set;
//!
//! // The occurrence hypergraph of the paper's Figure 6 (vertices renumbered 0..7):
//! // four edges around hub 0 and three around hub 7.
//! let mut h = Hypergraph::new(8);
//! for e in [[0, 4], [0, 5], [0, 6], [0, 7], [1, 7], [2, 7], [3, 7]] {
//!     h.add_edge(e.to_vec()).unwrap();
//! }
//! assert_eq!(exact_vertex_cover(&h, SearchBudget::default()).value, 2);     // σMVC
//! assert_eq!(exact_independent_edge_set(&h, SearchBudget::default()).value, 2); // σMIES
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clique_cover;
pub mod connectivity;
mod hypergraph;
pub mod independent_set;
pub mod matching;
pub mod parallel;
pub mod reduction;
pub mod statistics;
pub mod vertex_cover;

pub use hypergraph::{EdgeId, Hypergraph, HypergraphError};
pub use statistics::HypergraphStatistics;

/// Result of an exact combinatorial search that may have been truncated by its node
/// budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactResult {
    /// The best objective value found (cover size, matching size, …).
    pub value: usize,
    /// The vertices / edges achieving it.
    pub witness: Vec<usize>,
    /// `true` if the search proved optimality, `false` if the node budget ran out.
    pub optimal: bool,
}

/// Budget for exact branch-and-bound searches (number of explored search nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchBudget(pub usize);

impl Default for SearchBudget {
    fn default() -> Self {
        // Generous for the instance sizes the experiments produce, small enough to
        // never hang a test run even when a branch-and-bound node costs O(|V|) work.
        SearchBudget(300_000)
    }
}
