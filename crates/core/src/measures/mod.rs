//! The support measures of the paper, unified behind one calculator.
//!
//! [`SupportMeasures`] is built from an [`OccurrenceSet`] and a [`MeasureConfig`]; it
//! exposes one method per measure plus [`SupportMeasures::evaluate`] keyed by
//! [`MeasureKind`] — the one dispatch from a kind to its solver, which the miner's
//! built-in measures, [`SupportMeasures::compute`] and the profile all go through.
//! The occurrence and instance hypergraphs are built lazily and cached.

pub mod mcp;
pub mod mi;
pub mod mis;
pub mod mni;
pub mod mvc;
pub mod relaxed;

use crate::occurrences::{HypergraphBasis, OccurrenceSet};
use crate::overlap::{OverlapAnalysis, OverlapCache};
use ffsm_graph::isomorphism::IsoConfig;
use ffsm_hypergraph::independent_set::SimpleGraph;
use ffsm_hypergraph::{Hypergraph, SearchBudget};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::sync::Arc;

/// Strategy for choosing the coarse-grained (transitive) node subsets over which the
/// MI measure minimises (Definition 3.2.4 leaves this collection open).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MiStrategy {
    /// Only singleton subsets — MI degenerates to MNI.
    Singletons,
    /// Connected node subsets of exactly `k` vertices — the parameterised MNI-k of
    /// Definition 2.2.9.
    ConnectedK(usize),
    /// Singletons plus every subset of every automorphism orbit of every connected
    /// subgraph of the pattern (the reading illustrated by Figures 4 and 7).
    /// This is the default.
    #[default]
    AutomorphismOrbits,
    /// Singletons plus every subset of every label class — the loosest literal
    /// reading of "transitive node subset in a subgraph of P" (the edgeless subgraph
    /// makes all same-labelled vertices transitive).  Produces the smallest MI values.
    LabelClasses,
}

/// Algorithm used for the NP-hard MVC measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MvcAlgorithm {
    /// Branch-and-bound exact cover (budgeted).
    #[default]
    Exact,
    /// Maximal-matching based k-approximation (k = pattern size).
    GreedyMatching,
    /// Highest-degree greedy heuristic.
    GreedyDegree,
}

/// Identifies a support measure for generic computation.
///
/// `MeasureKind` is the *factory* for the built-in measures: [`MeasureKind::measure`]
/// packages a kind plus a [`MeasureConfig`] into an `Arc<dyn SupportMeasure>` that the
/// miner, CLI and bench harness dispatch through.  Parsing (`FromStr`) and display
/// use the paper's measure names (`MNI`, `MI`, `MVC`, `MIS`, `MIES`, `nuMVC`,
/// `nuMIES`, `MCP`, `MNI-k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeasureKind {
    /// Number of occurrences (not anti-monotonic; for reference only).
    OccurrenceCount,
    /// Number of instances (not anti-monotonic; for reference only).
    InstanceCount,
    /// Minimum-image-based support (Definition 2.2.8).
    Mni,
    /// Minimum k-image-based support (Definition 2.2.9).
    MniK(usize),
    /// Minimum instance support (Definition 3.2.4) under the configured strategy.
    Mi,
    /// Minimum vertex cover support (Definition 3.3.2) under the configured algorithm.
    Mvc,
    /// Overlap-graph maximum-independent-set support (Definition 2.2.7).
    Mis,
    /// Maximum independent edge set support (Definition 4.2.1).
    Mies,
    /// LP relaxation of MVC (Definition 4.3.1).
    RelaxedMvc,
    /// LP relaxation of MIES (Definition 4.3.2).
    RelaxedMies,
    /// Minimum clique partition of the overlap graph (Calders et al.; Section 5).
    Mcp,
}

impl MeasureKind {
    /// All anti-monotonic measures in the order of the bounding chain (smallest
    /// expected value first).
    pub fn bounding_chain() -> Vec<MeasureKind> {
        vec![
            MeasureKind::Mis,
            MeasureKind::Mies,
            MeasureKind::RelaxedMies,
            MeasureKind::RelaxedMvc,
            MeasureKind::Mvc,
            MeasureKind::Mi,
            MeasureKind::Mni,
        ]
    }

    /// Short name used in experiment tables (same text as the `Display` impl).
    pub fn name(&self) -> String {
        self.to_string()
    }

    /// `true` when the measure is anti-monotone (Definition 2.2.2), i.e. sound for
    /// threshold pruning.  Only the raw occurrence and instance counts are not.
    pub fn is_anti_monotone(&self) -> bool {
        !matches!(self, MeasureKind::OccurrenceCount | MeasureKind::InstanceCount)
    }

    /// Build the measure as a pluggable [`SupportMeasure`] under `config`.
    ///
    /// This is the factory the mining session, CLI and bench harness go through; a
    /// user-defined measure implements [`SupportMeasure`] directly instead.
    pub fn measure(self, config: MeasureConfig) -> std::sync::Arc<dyn SupportMeasure> {
        std::sync::Arc::new(BuiltinMeasure { kind: self, name: self.name(), config })
    }
}

impl std::fmt::Display for MeasureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Route through `pad` so width/alignment specs like `{:<4}` are honoured.
        match self {
            MeasureKind::OccurrenceCount => f.pad("occurrences"),
            MeasureKind::InstanceCount => f.pad("instances"),
            MeasureKind::Mni => f.pad("MNI"),
            MeasureKind::MniK(k) => f.pad(&format!("MNI-{k}")),
            MeasureKind::Mi => f.pad("MI"),
            MeasureKind::Mvc => f.pad("MVC"),
            MeasureKind::Mis => f.pad("MIS"),
            MeasureKind::Mies => f.pad("MIES"),
            MeasureKind::RelaxedMvc => f.pad("nuMVC"),
            MeasureKind::RelaxedMies => f.pad("nuMIES"),
            MeasureKind::Mcp => f.pad("MCP"),
        }
    }
}

impl std::str::FromStr for MeasureKind {
    type Err = crate::FfsmError;

    /// Parse a measure name, case-insensitively.  Accepts the paper's names (`MNI`,
    /// `MI`, `MVC`, `MIS`, `MIES`, `nuMVC`, `nuMIES`, `MCP`), the parameterised
    /// `MNI-k` form, and `occurrences` / `instances` for the raw counts.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let upper = s.trim().to_ascii_uppercase();
        if let Some(k) = upper.strip_prefix("MNI-") {
            let k: usize =
                k.parse().map_err(|_| crate::FfsmError::UnknownMeasure(s.trim().to_string()))?;
            if k == 0 {
                return Err(crate::FfsmError::InvalidConfig("MNI-k needs k >= 1".into()));
            }
            return Ok(MeasureKind::MniK(k));
        }
        match upper.as_str() {
            "OCCURRENCES" => Ok(MeasureKind::OccurrenceCount),
            "INSTANCES" => Ok(MeasureKind::InstanceCount),
            "MNI" => Ok(MeasureKind::Mni),
            "MI" => Ok(MeasureKind::Mi),
            "MVC" => Ok(MeasureKind::Mvc),
            "MIS" => Ok(MeasureKind::Mis),
            "MIES" => Ok(MeasureKind::Mies),
            "NUMVC" => Ok(MeasureKind::RelaxedMvc),
            "NUMIES" => Ok(MeasureKind::RelaxedMies),
            "MCP" => Ok(MeasureKind::Mcp),
            _ => Err(crate::FfsmError::UnknownMeasure(s.trim().to_string())),
        }
    }
}

/// A pluggable support measure: the paper's central abstraction, as a trait.
///
/// The miner never inspects *how* support is computed — it only needs a value per
/// occurrence set plus the promise that the measure is anti-monotone so threshold
/// pruning is sound.  The built-in measures come from [`MeasureKind::measure`];
/// user-defined measures implement this trait and plug in through
/// `MiningSession::measure` unchanged.
///
/// The trait is object-safe and implementations must be `Send + Sync`, because the
/// level-parallel miner evaluates candidates through one `Arc<dyn SupportMeasure>`
/// shared across worker threads.
pub trait SupportMeasure: Send + Sync {
    /// The support of the pattern whose occurrences are `occurrences`.
    fn support(&self, occurrences: &OccurrenceSet) -> f64;

    /// The support together with whether it is proven optimal.  A measure backed by
    /// a budgeted exact search reports `optimal == false` when the budget ran out;
    /// the default, for measures that compute their value outright, is
    /// [`SupportMeasure::support`] marked optimal.
    fn evaluate(&self, occurrences: &OccurrenceSet) -> Evaluation {
        Evaluation { value: self.support(occurrences), optimal: true }
    }

    /// Whether the measure is anti-monotone (Definition 2.2.2).  The miner refuses to
    /// threshold-prune with a measure that answers `false`.
    fn is_anti_monotone(&self) -> bool;

    /// Short human-readable name, used in tables and error messages.
    fn name(&self) -> &str;
}

/// A built-in measure: a [`MeasureKind`] bound to a [`MeasureConfig`].
#[derive(Debug, Clone)]
struct BuiltinMeasure {
    kind: MeasureKind,
    name: String,
    config: MeasureConfig,
}

impl SupportMeasure for BuiltinMeasure {
    fn support(&self, occurrences: &OccurrenceSet) -> f64 {
        self.evaluate(occurrences).value
    }

    /// One calculator per call over the borrowed occurrences: the hypergraph and
    /// overlap graph are built only if the kind needs them, at most once.
    fn evaluate(&self, occurrences: &OccurrenceSet) -> Evaluation {
        SupportMeasures::borrowed(occurrences, &self.config).evaluate(self.kind)
    }

    fn is_anti_monotone(&self) -> bool {
        self.kind.is_anti_monotone()
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Outcome of an NP-hard measure: the value plus whether it is proven optimal (the
/// branch-and-bound searches are budgeted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureOutcome {
    /// The measure value.
    pub value: usize,
    /// `false` if the search budget was exhausted and `value` is only the best bound
    /// found (an upper bound for minimisation problems, lower bound for maximisation).
    pub optimal: bool,
}

/// A support value of any measure plus whether it is proven: what
/// [`SupportMeasures::evaluate`] and [`SupportMeasure::evaluate`] return.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// The measure value (integral measures reported as `f64`).
    pub value: f64,
    /// `false` when a budgeted exact search ran out of [`SearchBudget`], the MVC
    /// algorithm is a greedy approximation, or the LP solve behind νMVC/νMIES was
    /// left uncertified: `value` is then only a bound.
    pub optimal: bool,
}

impl From<MeasureOutcome> for Evaluation {
    fn from(outcome: MeasureOutcome) -> Self {
        Evaluation { value: outcome.value as f64, optimal: outcome.optimal }
    }
}

/// Configuration shared by all measures.
#[derive(Debug, Clone, Default)]
pub struct MeasureConfig {
    /// Occurrence-enumeration settings (embedding budget, induced flag).
    pub iso_config: IsoConfig,
    /// Strategy for the MI measure.
    pub mi_strategy: MiStrategy,
    /// Algorithm for the MVC measure.
    pub mvc_algorithm: MvcAlgorithm,
    /// Hypergraph basis (occurrence vs instance) for MVC / MIS / MIES / relaxations.
    pub basis: HypergraphBasis,
    /// Node budget for exact branch-and-bound searches.
    pub search_budget: SearchBudget,
}

/// Calculator for every support measure over one pattern/data-graph pair.
///
/// All derived structure is built lazily and shared: the occurrence / instance
/// hypergraphs (consumed by MVC, MIES and the LP relaxations), the one LP solve
/// that yields both νMVC and νMIES, and, through an
/// [`OverlapCache`] keyed by basis, the hypergraph's overlap graph (consumed by MIS
/// and MCP).  Evaluating MIS then MVC then MCP on the same pattern therefore
/// performs exactly one overlap-graph build — [`SupportMeasures::overlap_builds`]
/// is the counter the cache tests assert on.  The cache lives and dies with this
/// calculator, so a new pattern (a new `SupportMeasures`) starts cold.
///
/// The calculator either owns its occurrences and configuration
/// ([`SupportMeasures::new`]) or borrows them (the built-in [`SupportMeasure`]s, which
/// see the miner's occurrence set by reference).
#[derive(Debug)]
pub struct SupportMeasures<'a> {
    occurrences: Cow<'a, OccurrenceSet>,
    config: Cow<'a, MeasureConfig>,
    occurrence_hg: OnceCell<Hypergraph>,
    instance_hg: OnceCell<Hypergraph>,
    relaxations: OnceCell<relaxed::Relaxations>,
    overlap_cache: OverlapCache,
}

impl<'a> SupportMeasures<'a> {
    /// Build a calculator from an occurrence set.
    pub fn new(occurrences: OccurrenceSet, config: MeasureConfig) -> Self {
        Self::from_cows(Cow::Owned(occurrences), Cow::Owned(config))
    }

    /// A calculator over borrowed occurrences and configuration.
    fn borrowed(occurrences: &'a OccurrenceSet, config: &'a MeasureConfig) -> Self {
        Self::from_cows(Cow::Borrowed(occurrences), Cow::Borrowed(config))
    }

    fn from_cows(occurrences: Cow<'a, OccurrenceSet>, config: Cow<'a, MeasureConfig>) -> Self {
        SupportMeasures {
            occurrences,
            config,
            occurrence_hg: OnceCell::new(),
            instance_hg: OnceCell::new(),
            relaxations: OnceCell::new(),
            overlap_cache: OverlapCache::with_slots(2),
        }
    }

    /// The underlying occurrence set.
    pub fn occurrences(&self) -> &OccurrenceSet {
        &self.occurrences
    }

    /// The active configuration.
    pub fn config(&self) -> &MeasureConfig {
        &self.config
    }

    /// The (cached) hypergraph for `basis`.
    pub fn hypergraph(&self, basis: HypergraphBasis) -> &Hypergraph {
        match basis {
            HypergraphBasis::Occurrence => {
                self.occurrence_hg.get_or_init(|| self.occurrences.occurrence_hypergraph())
            }
            HypergraphBasis::Instance => {
                self.instance_hg.get_or_init(|| self.occurrences.instance_hypergraph())
            }
        }
    }

    /// The (cached) overlap graph of the hypergraph for `basis` — the object MIS and
    /// MCP are solved on.  Built at most once per basis, by the indexed
    /// [`Hypergraph::overlap_graph`].
    pub fn overlap_graph(&self, basis: HypergraphBasis) -> Arc<SimpleGraph> {
        let slot = match basis {
            HypergraphBasis::Occurrence => 0,
            HypergraphBasis::Instance => 1,
        };
        // Built first, so its cost is not charged to the overlap build.
        let hypergraph = self.hypergraph(basis);
        self.overlap_cache.get_or_build(slot, || {
            let graph = hypergraph.overlap_graph();
            // The incidence-index builder probes exactly the pairs it emits.
            ffsm_obs::tls::add_overlap_probes(graph.num_edges() as u64);
            graph
        })
    }

    /// How many overlap graphs this calculator has actually built (at most one per
    /// basis; MIS, MCP and repeated queries share them).
    pub fn overlap_builds(&self) -> usize {
        self.overlap_cache.builds()
    }

    /// An [`OverlapAnalysis`] over the underlying occurrences — the entry point
    /// for the per-notion overlap variants of Section 4.5 (simple / harmful /
    /// structural / edge).
    ///
    /// Each call constructs a *fresh* analysis (its own transitive-pair matrix and
    /// per-notion cache): hold the returned value and query it repeatedly rather
    /// than calling this accessor per query.
    pub fn overlap_analysis(&self) -> OverlapAnalysis<'_> {
        OverlapAnalysis::new(&self.occurrences)
    }

    /// Number of occurrences (reference value, not anti-monotonic).
    pub fn occurrence_count(&self) -> usize {
        self.occurrences.num_occurrences()
    }

    /// Number of instances (reference value, not anti-monotonic).
    pub fn instance_count(&self) -> usize {
        self.occurrences.num_instances()
    }

    /// Minimum-image-based support σMNI (Definition 2.2.8).
    pub fn mni(&self) -> usize {
        mni::mni(&self.occurrences)
    }

    /// Minimum k-image-based support σMNI(·, k) (Definition 2.2.9).
    pub fn mni_k(&self, k: usize) -> usize {
        mni::mni_k(&self.occurrences, k)
    }

    /// Minimum instance support σMI (Definition 3.2.4) under the configured strategy.
    pub fn mi(&self) -> usize {
        self.mi_with(self.config.mi_strategy)
    }

    /// Minimum instance support under an explicit strategy.
    pub fn mi_with(&self, strategy: MiStrategy) -> usize {
        mi::mi(&self.occurrences, strategy)
    }

    /// Minimum vertex cover support σMVC (Definition 3.3.2) under the configured
    /// algorithm and basis.
    pub fn mvc(&self) -> MeasureOutcome {
        self.mvc_with(self.config.mvc_algorithm)
    }

    /// Minimum vertex cover support under an explicit algorithm.
    pub fn mvc_with(&self, algorithm: MvcAlgorithm) -> MeasureOutcome {
        mvc::mvc(self.hypergraph(self.config.basis), algorithm, self.config.search_budget)
    }

    /// Overlap-graph MIS support σMIS (Definition 2.2.7) under the configured basis.
    /// Solved on the cached overlap graph, shared with [`SupportMeasures::mcp`].
    pub fn mis(&self) -> MeasureOutcome {
        mis::mis_on_graph(&self.overlap_graph(self.config.basis), self.config.search_budget)
    }

    /// Minimum clique partition support σMCP (Calders et al.) under the configured
    /// basis.  Always `≥ σMIS` (every clique contributes at most one independent
    /// occurrence).  Solved on the same cached overlap graph as
    /// [`SupportMeasures::mis`].
    pub fn mcp(&self) -> MeasureOutcome {
        mcp::mcp_on_graph(&self.overlap_graph(self.config.basis), self.config.search_budget)
    }

    /// Maximum independent edge set support σMIES (Definition 4.2.1).
    pub fn mies(&self) -> MeasureOutcome {
        mis::mies(self.hypergraph(self.config.basis), self.config.search_budget)
    }

    /// LP-relaxed vertex cover νMVC (Definition 4.3.1).
    pub fn relaxed_mvc(&self) -> f64 {
        self.relaxations().mvc.value
    }

    /// LP-relaxed independent edge set νMIES (Definition 4.3.2).
    pub fn relaxed_mies(&self) -> f64 {
        self.relaxations().mies.value
    }

    /// νMVC and νMIES with their optimality flags, from one LP solve shared by
    /// both (cached, like the hypergraph it reads).
    pub fn relaxations(&self) -> relaxed::Relaxations {
        *self.relaxations.get_or_init(|| relaxed::relaxations(self.hypergraph(self.config.basis)))
    }

    /// The measure `kind` with its optimality flag — the one dispatch from a
    /// [`MeasureKind`] to its solver.  Only the budgeted searches (MVC, MIS, MIES,
    /// MCP) and an LP solve left uncertified (νMVC, νMIES) can report
    /// `optimal == false`.
    pub fn evaluate(&self, kind: MeasureKind) -> Evaluation {
        let proven = |value: f64| Evaluation { value, optimal: true };
        match kind {
            MeasureKind::OccurrenceCount => proven(self.occurrence_count() as f64),
            MeasureKind::InstanceCount => proven(self.instance_count() as f64),
            MeasureKind::Mni => proven(self.mni() as f64),
            MeasureKind::MniK(k) => proven(self.mni_k(k) as f64),
            MeasureKind::Mi => proven(self.mi() as f64),
            MeasureKind::Mvc => self.mvc().into(),
            MeasureKind::Mis => self.mis().into(),
            MeasureKind::Mies => self.mies().into(),
            MeasureKind::RelaxedMvc => self.relaxations().mvc,
            MeasureKind::RelaxedMies => self.relaxations().mies,
            MeasureKind::Mcp => self.mcp().into(),
        }
    }

    /// The value of [`SupportMeasures::evaluate`]; integral measures are returned as
    /// `f64` for uniformity.
    pub fn compute(&self, kind: MeasureKind) -> f64 {
        self.evaluate(kind).value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::figures;

    fn calculator(example: &ffsm_graph::figures::FigureExample) -> SupportMeasures<'static> {
        let occ = OccurrenceSet::enumerate(&example.pattern, &example.graph, IsoConfig::default());
        SupportMeasures::new(occ, MeasureConfig::default())
    }

    #[test]
    fn figure2_values() {
        // MNI = 3, MIS = 1, one instance.
        let m = calculator(&figures::figure2());
        assert_eq!(m.occurrence_count(), 6);
        assert_eq!(m.instance_count(), 1);
        assert_eq!(m.mni(), 3);
        assert_eq!(m.mis().value, 1);
        assert_eq!(m.mies().value, 1);
        assert_eq!(m.mi(), 1);
        assert_eq!(m.mvc().value, 1);
    }

    #[test]
    fn figure4_values() {
        // MNI = 2, MI = 1.
        let m = calculator(&figures::figure4());
        assert_eq!(m.mni(), 2);
        assert_eq!(m.mi(), 1);
        assert_eq!(m.mis().value, 1);
    }

    #[test]
    fn figure6_values() {
        // MIS = 2, MVC = 2, MI = 4, MNI = 4.
        let m = calculator(&figures::figure6());
        assert_eq!(m.occurrence_count(), 7);
        assert_eq!(m.mis().value, 2);
        assert_eq!(m.mvc().value, 2);
        assert_eq!(m.mi(), 4);
        assert_eq!(m.mni(), 4);
    }

    #[test]
    fn figure8_values() {
        // MIS = MIES = 2.
        let m = calculator(&figures::figure8());
        assert_eq!(m.mis().value, 2);
        assert_eq!(m.mies().value, 2);
        assert!((m.relaxed_mies() - 2.0).abs() < 1e-6);
        assert!((m.relaxed_mvc() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn figure1_values() {
        // Reconstructed Figure 1: MIS = 2, MVC = 3, MI = 4, MNI = 5.
        let m = calculator(&figures::figure1());
        assert_eq!(m.mis().value, 2);
        assert_eq!(m.mvc().value, 3);
        assert_eq!(m.mi(), 4);
        assert_eq!(m.mni(), 5);
    }

    #[test]
    fn figure5_anti_monotonicity_of_mvc() {
        // Extending the Figure 2 triangle by one vertex keeps MVC at 1.
        let m2 = calculator(&figures::figure2());
        let m5 = calculator(&figures::figure5());
        assert_eq!(m2.mvc().value, 1);
        assert_eq!(m5.mvc().value, 1);
        assert!(m5.mni() <= m2.mni());
        assert!(m5.mi() <= m2.mi());
        assert!(m5.mis().value <= m2.mis().value);
    }

    #[test]
    fn generic_compute_matches_specific_methods() {
        let m = calculator(&figures::figure6());
        assert_eq!(m.compute(MeasureKind::Mni), m.mni() as f64);
        assert_eq!(m.compute(MeasureKind::Mi), m.mi() as f64);
        assert_eq!(m.compute(MeasureKind::Mvc), m.mvc().value as f64);
        assert_eq!(m.compute(MeasureKind::Mis), m.mis().value as f64);
        assert_eq!(m.compute(MeasureKind::Mies), m.mies().value as f64);
        assert_eq!(m.compute(MeasureKind::OccurrenceCount), 7.0);
        assert_eq!(m.compute(MeasureKind::InstanceCount), 7.0);
        assert_eq!(m.compute(MeasureKind::MniK(2)), m.mni_k(2) as f64);
        assert!(m.compute(MeasureKind::RelaxedMvc) <= m.compute(MeasureKind::Mvc) + 1e-9);
    }

    #[test]
    fn measure_kind_names() {
        assert_eq!(MeasureKind::Mni.name(), "MNI");
        assert_eq!(MeasureKind::MniK(3).name(), "MNI-3");
        assert_eq!(MeasureKind::RelaxedMvc.name(), "nuMVC");
        assert_eq!(MeasureKind::bounding_chain().len(), 7);
    }

    #[test]
    fn measure_kind_parses_its_own_display() {
        let kinds = [
            MeasureKind::OccurrenceCount,
            MeasureKind::InstanceCount,
            MeasureKind::Mni,
            MeasureKind::MniK(4),
            MeasureKind::Mi,
            MeasureKind::Mvc,
            MeasureKind::Mis,
            MeasureKind::Mies,
            MeasureKind::RelaxedMvc,
            MeasureKind::RelaxedMies,
            MeasureKind::Mcp,
        ];
        for kind in kinds {
            let parsed: MeasureKind = kind.to_string().parse().expect("round trip");
            assert_eq!(parsed, kind);
        }
        assert_eq!("mvc".parse::<MeasureKind>().unwrap(), MeasureKind::Mvc);
        assert_eq!(" nuMVC ".parse::<MeasureKind>().unwrap(), MeasureKind::RelaxedMvc);
        assert!(matches!("bogus".parse::<MeasureKind>(), Err(crate::FfsmError::UnknownMeasure(_))));
        assert!(matches!("MNI-0".parse::<MeasureKind>(), Err(crate::FfsmError::InvalidConfig(_))));
    }

    #[test]
    fn mis_then_mvc_then_mcp_build_one_overlap_graph() {
        let m = calculator(&figures::figure6());
        assert_eq!(m.overlap_builds(), 0);
        assert_eq!(m.mis().value, 2);
        assert_eq!(m.overlap_builds(), 1);
        // MVC, MIES and the relaxations run on the hypergraph, not the overlap
        // graph: no further builds.
        assert_eq!(m.mvc().value, 2);
        assert!(m.relaxed_mvc().is_finite());
        m.mies();
        assert_eq!(m.overlap_builds(), 1);
        // MCP shares the cached overlap graph with MIS.
        assert_eq!(m.mcp().value, 2);
        assert_eq!(m.overlap_builds(), 1);
        // The instance basis is a separate slot.
        m.overlap_graph(HypergraphBasis::Instance);
        assert_eq!(m.overlap_builds(), 2);
        // A new pattern gets a new calculator and with it an empty cache.
        let fresh = calculator(&figures::figure2());
        assert_eq!(fresh.overlap_builds(), 0);
    }

    #[test]
    fn overlap_analysis_accessor_agrees_with_the_naive_builder() {
        let m = calculator(&figures::figure6());
        let analysis = m.overlap_analysis();
        assert_eq!(
            analysis.overlap_edge_count(crate::OverlapKind::Simple),
            analysis.overlap_graph_naive(crate::OverlapKind::Simple).num_edges()
        );
    }

    #[test]
    fn measure_kind_is_usable_as_map_key() {
        let mut table = std::collections::HashMap::new();
        table.insert(MeasureKind::Mni, 5.0);
        table.insert(MeasureKind::MniK(2), 4.0);
        assert_eq!(table[&MeasureKind::Mni], 5.0);
        assert_eq!(table[&MeasureKind::MniK(2)], 4.0);
    }

    #[test]
    fn factory_measure_matches_calculator() {
        let example = figures::figure6();
        let occ = OccurrenceSet::enumerate(&example.pattern, &example.graph, IsoConfig::default());
        let calc = SupportMeasures::new(occ.clone(), MeasureConfig::default());
        for kind in [
            MeasureKind::Mni,
            MeasureKind::Mi,
            MeasureKind::Mvc,
            MeasureKind::Mis,
            MeasureKind::Mies,
            MeasureKind::RelaxedMvc,
            MeasureKind::Mcp,
        ] {
            let measure = kind.measure(MeasureConfig::default());
            assert_eq!(measure.support(&occ), calc.compute(kind), "kind {kind}");
            assert!(measure.is_anti_monotone());
            assert_eq!(measure.name(), kind.name());
        }
        assert!(!MeasureKind::OccurrenceCount.measure(MeasureConfig::default()).is_anti_monotone());
    }
}
