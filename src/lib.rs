//! # ffsm — Flexible and Feasible Support Measures for frequent pattern mining
//!
//! Umbrella crate re-exporting the whole workspace:
//!
//! * [`graph`] — labeled-graph substrate, subgraph isomorphism, generators.
//! * [`matching`] — the candidate-space subgraph-matching engine (per-graph index,
//!   pruned candidate sets, streaming and deterministic parallel enumeration).
//! * [`hypergraph`] — hypergraph substrate, vertex cover, independent edge sets.
//! * [`lp`] — linear-programming solver used by the relaxed measures.
//! * [`core`] — the paper's contribution: the occurrence/instance hypergraph framework
//!   and the MNI, MI, MVC, MIS/MIES and relaxed support measures.
//! * [`approx`] — certified support intervals for bounds-first anytime mining:
//!   containment-chain, index-cardinality and LP-relaxation bounds behind
//!   `MiningSession::bounds_first`.
//! * [`miner`] — a single-graph frequent-subgraph miner with pluggable measures.
//! * [`dynamic`] — the versioned dynamic-graph subsystem: typed update batches,
//!   epoch snapshots with incremental index maintenance, and delta re-mining.
//! * [`serve`] — the multi-tenant mining server: named-graph registry with an
//!   epoch-keyed prepared cache, bounded session scheduler, the shared NDJSON
//!   event serializer, and the NDJSON-over-TCP protocol behind `ffsm serve`.
//! * [`shard`] — partitioned out-of-core mining: interior + halo graph shards,
//!   an LRU spill store, and the exact cross-shard support merge behind
//!   `ffsm mine --shards`.
//!
//! See `README.md` for a quickstart, the CLI reference and the measure-selection
//! table.  [`miner::MiningSession`] is the single mining entry point; measures are
//! pluggable through the [`core::measures::SupportMeasure`] trait.

pub use ffsm_approx as approx;
pub use ffsm_core as core;
pub use ffsm_dynamic as dynamic;
pub use ffsm_graph as graph;
pub use ffsm_hypergraph as hypergraph;
pub use ffsm_lp as lp;
pub use ffsm_match as matching;
pub use ffsm_miner as miner;
pub use ffsm_serve as serve;
pub use ffsm_shard as shard;

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use ffsm_core::{
        measures::{MeasureConfig, MeasureKind, SupportMeasure, SupportMeasures},
        occurrences::OccurrenceSet,
        FfsmError, MeasureProfile, OverlapAnalysis, OverlapCache, OverlapKind,
    };
    pub use ffsm_dynamic::{DynamicGraph, EpochSnapshot, IncrementalMiner};
    pub use ffsm_graph::isomorphism::{EmbeddingVisitor, EnumeratorBackend, IsoConfig, VisitFlow};
    pub use ffsm_graph::{
        CancelToken, GraphDelta, GraphStatistics, GraphUpdate, Label, LabeledGraph, Pattern,
        VertexId,
    };
    pub use ffsm_match::{CandidateSpace, GraphIndex, Matcher, SearchArena};
    pub use ffsm_miner::{
        Completion, EvalCache, FrequentPattern, MiningBudget, MiningEvent, MiningResult,
        MiningSession, MiningStats, PatternStream, PreparedGraph, SessionConfig,
    };
    pub use ffsm_serve::{GraphRegistry, Server, ServerConfig, ServerHandle, SessionScheduler};
    pub use ffsm_shard::{PartitionSpec, PartitionStrategy, PartitionedGraph};
}
