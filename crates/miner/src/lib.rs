//! # ffsm-miner — single-graph frequent-subgraph mining
//!
//! A pattern-growth miner in the style of GraMi (Elseidy et al., VLDB 2014), the
//! setting that motivates the paper: find all patterns whose support in a *single*
//! large labeled graph reaches a threshold τ.  The miner is parameterised by a
//! pluggable [`SupportMeasure`](ffsm_core::SupportMeasure) — any of the anti-monotone
//! measures of `ffsm-core` (MNI, MI, MVC, MIS/MIES, the LP relaxations, MCP) or a
//! user-defined one — which is exactly the comparison the paper's evaluation
//! performs: the same threshold admits more patterns under an over-estimating
//! measure (MNI) than under a conservative one (MIS/MVC).
//!
//! [`MiningSession`] is the single entry point.  Sequential, level-parallel and
//! top-k mining are modes of one engine, batch ([`MiningSession::run`]) and
//! streaming ([`MiningSession::stream`]) are two views of the same computation,
//! and [`PreparedGraph`] splits the once-per-graph preprocessing from the
//! per-session query work:
//!
//! ```
//! use ffsm_graph::{generators, LabeledGraph};
//! use ffsm_core::MeasureKind;
//! use ffsm_miner::MiningSession;
//!
//! // Five disjoint labelled triangles: the triangle is frequent at threshold 5.
//! let triangle = LabeledGraph::from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
//! let graph = generators::replicated(&triangle, 5, false);
//! let result = MiningSession::on(&graph)
//!     .measure(MeasureKind::Mni)
//!     .min_support(5.0)
//!     .max_edges(3)
//!     .run()
//!     .expect("valid session");
//! assert!(result.patterns.iter().any(|p| p.pattern.num_edges() == 3));
//! ```
//!
//! ## User-defined measures
//!
//! Any type implementing [`SupportMeasure`](ffsm_core::SupportMeasure) plugs into a
//! session — the engine treats it exactly like a built-in measure:
//!
//! ```
//! use ffsm_core::{OccurrenceSet, SupportMeasure};
//! use ffsm_graph::{generators, LabeledGraph};
//! use ffsm_miner::MiningSession;
//! use std::sync::Arc;
//!
//! /// Counts the distinct data vertices touched by any occurrence, scaled by the
//! /// pattern size.  Smaller patterns touching the same vertices score higher, so
//! /// the measure is anti-monotone and sound for pruning.
//! struct ImageSpread;
//!
//! impl SupportMeasure for ImageSpread {
//!     fn support(&self, occurrences: &OccurrenceSet) -> f64 {
//!         occurrences.num_images() as f64 / occurrences.pattern().num_vertices().max(1) as f64
//!     }
//!     fn is_anti_monotone(&self) -> bool {
//!         true
//!     }
//!     fn name(&self) -> &str {
//!         "image-spread"
//!     }
//! }
//!
//! let triangle = LabeledGraph::from_edges(&[0, 1, 2], &[(0, 1), (1, 2), (0, 2)]);
//! let graph = generators::replicated(&triangle, 4, false);
//! let measure: Arc<dyn SupportMeasure> = Arc::new(ImageSpread);
//! let result = MiningSession::on(&graph)
//!     .measure(measure)
//!     .min_support(4.0)
//!     .max_edges(3)
//!     .run()
//!     .expect("valid session");
//! // Each of the 4 triangle copies contributes 3 vertices: the single-vertex-per-
//! // pattern-node spread of every frequent pattern is 4.
//! assert!(result.patterns.iter().all(|p| p.support >= 4.0));
//! assert!(!result.is_empty());
//! ```
//!
//! Algorithm outline:
//!
//! 1. seed with all frequent single-edge patterns (one per frequent label pair);
//! 2. grow patterns by adding either an edge between existing nodes or a new labelled
//!    node attached to an existing node ([`extension`]);
//! 3. de-duplicate candidates by canonical code, evaluate their support (in parallel
//!    when `.threads(k)` is set), and prune every candidate below the threshold —
//!    sound because the engine only accepts anti-monotone measures (Theorems 3.2,
//!    3.5, 4.2, 4.3, 4.4 of the paper).
//!
//! ## Serving workloads
//!
//! For repeated mining over one graph, build a [`PreparedGraph`] once and open
//! sessions over it with [`MiningSession::over`]: the per-graph matching index is
//! built lazily exactly once and shared across every concurrent session.
//! [`MiningSession::stream`] turns a session into a lazy [`PatternStream`] of
//! [`MiningEvent`]s for incremental delivery, and
//! [`MiningSession::cancel_token`] / [`MiningSession::deadline`] bound a run's
//! wall-clock cost with a typed [`Completion`] status instead of silent
//! truncation.  A graph split into shards (`ffsm_shard::PartitionedGraph`) is
//! mined by the same session: `MiningSession::over(&partitioned)`.
//!
//! The pre-session entry points (`Miner`, `mine_parallel`, `mine_top_k` and their
//! config structs), deprecated since 0.2.0, have been removed; the session API
//! covers every mode.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delta;
mod engine;
pub mod extension;
pub mod postprocess;
mod prepared;
mod session;
mod sharded;
mod stream;
mod types;

pub use delta::{CachedEval, EvalCache};
pub use prepared::PreparedGraph;
pub use session::{MeasureSelection, MiningBudget, MiningSession, SessionConfig};
pub use sharded::{ShardedRunStats, ShardedSession};
pub use stream::{LevelSummary, MiningEvent, PatternStream, RunSummary};
pub use types::{
    BudgetKind, Completion, FrequentPattern, MiningResult, MiningStats, SessionCounters,
    UndecidedPattern,
};

// Re-exported so downstream consumers of `MiningStats` can name the
// observability types without depending on `ffsm-obs` directly.
pub use ffsm_obs::{Phase, PhaseTimes, SearchCounters};

// Re-exported so bounds-first consumers can name the interval/certificate types
// (and probe measure support) without depending on `ffsm-approx` directly.
pub use ffsm_approx::{BoundsEvaluator, BoundsOutcome, Certificate, SupportInterval};

pub use postprocess::{closed_patterns, maximal_patterns, PatternLattice};
