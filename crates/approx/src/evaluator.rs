//! The bounds-first evaluator: certified support intervals from cheap arguments.
//!
//! For a candidate pattern the evaluator produces an interval `[lo, hi]` that
//! provably contains the pattern's exact support, in two stages:
//!
//! * **Pre-enumeration** ([`BoundsEvaluator::pre_bounds`]) — before a single
//!   occurrence is enumerated, the support is capped by anti-monotonicity (the
//!   parent pattern's upper bound) and by index cardinality: every MNI image of
//!   a pattern vertex is a data vertex with the same label and at least the
//!   pattern degree, so the smallest candidate set bounds every measure in the
//!   paper's containment chain.  When the cap already falls below the
//!   threshold, enumeration is skipped entirely.
//! * **Post-enumeration** ([`BoundsEvaluator::post_bounds`]) — once the
//!   occurrence set exists but before the NP-hard exact solve, the chain
//!   `σMIS = σMIES ≤ νMIES = νMVC ≤ σMVC ≤ σMI ≤ σMNI` (Section 4.4) is
//!   deployed: the linear-time MNI caps the expensive measures from above, a
//!   greedy independent edge set (a feasible packing) bounds them from below,
//!   and the fractional covering LP — solved once for a checked packing and a
//!   checked cover — tightens whichever side the measure needs,
//!   with weak duality guaranteeing soundness even when the simplex stops short
//!   of a certified optimum.
//!
//! Decisions are made against the *true* support, so a bounds-first session
//! accepts exactly the patterns exact mining accepts.  (When an exact search
//! budget or embedding cap truncates the exact engine itself, the engine's
//! reported value is approximate; the intervals still certify the true
//! support.)

use crate::interval::{Certificate, SupportInterval};
use ffsm_core::measures::mni;
use ffsm_core::{GraphIndex, MeasureConfig, MeasureKind, OccurrenceSet};
use ffsm_core::{HypergraphBasis, MvcAlgorithm};
use ffsm_graph::{Label, Pattern};
use ffsm_hypergraph::matching::greedy_independent_edge_set;
use ffsm_hypergraph::Hypergraph;
use ffsm_lp::{covering_lp, Solution};

/// Slack used when rounding fractional LP bounds to the integral measures, and
/// when stamping LP optimality certificates.
const LP_TOL: f64 = 1e-6;

/// One evaluation's certified interval, its justification and its verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundsOutcome {
    /// The certified support interval.
    pub interval: SupportInterval,
    /// The argument that produced the binding side of the interval.
    pub certificate: Certificate,
    /// The verdict against the evaluator's threshold: `Some(true)` = certainly
    /// frequent, `Some(false)` = certainly infrequent, `None` = undecided (the
    /// caller must evaluate exactly).
    pub decision: Option<bool>,
}

/// Computes certified support intervals for one measure kind at one threshold.
///
/// Construct once per session via [`BoundsEvaluator::new`]; the evaluator is
/// immutable and freely shared across worker threads.
#[derive(Debug, Clone)]
pub struct BoundsEvaluator {
    kind: MeasureKind,
    basis: HypergraphBasis,
    threshold: f64,
}

impl BoundsEvaluator {
    /// `true` when bounds-first evaluation is sound for `kind` under `config`.
    ///
    /// Every chain measure qualifies.  MVC qualifies only under the exact
    /// algorithm (the greedy variants report covers that may exceed the MNI
    /// cap); MCP sits outside the proven chain and is declined.
    pub fn supports(kind: MeasureKind, config: &MeasureConfig) -> bool {
        match kind {
            MeasureKind::Mni
            | MeasureKind::Mi
            | MeasureKind::Mis
            | MeasureKind::Mies
            | MeasureKind::RelaxedMvc
            | MeasureKind::RelaxedMies => true,
            MeasureKind::Mvc => matches!(config.mvc_algorithm, MvcAlgorithm::Exact),
            // MNI-k counts distinct image *sets* of size-k subsets, which can
            // exceed every single-vertex candidate count, so the index
            // cardinality bound is unsound for it (and its exact evaluation is
            // already linear).  MCP sits outside the proven chain; the raw
            // counts are not even anti-monotone.
            MeasureKind::MniK(_)
            | MeasureKind::Mcp
            | MeasureKind::OccurrenceCount
            | MeasureKind::InstanceCount => false,
        }
    }

    /// An evaluator for `kind` at threshold `threshold`, or `None` when
    /// [`BoundsEvaluator::supports`] declines the configuration.
    pub fn new(
        kind: MeasureKind,
        config: &MeasureConfig,
        threshold: f64,
    ) -> Option<BoundsEvaluator> {
        BoundsEvaluator::supports(kind, config).then_some(BoundsEvaluator {
            kind,
            basis: config.basis,
            threshold,
        })
    }

    /// The measure kind this evaluator bounds.
    pub fn kind(&self) -> MeasureKind {
        self.kind
    }

    /// The frequency threshold decisions are made against.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Stage 1: bound the support before enumerating a single occurrence.
    ///
    /// `parent_hi` is the upper bound established for the pattern's parent
    /// (`f64::INFINITY` for seed patterns); by anti-monotonicity it caps the
    /// child.  The index cardinality bound uses
    /// [`GraphIndex::vertices_with_min_degree`] when an index exists (the
    /// candidate-space backends) and falls back to plain label counts under the
    /// naive backend.  A `Some(false)` decision means enumeration can be
    /// skipped outright.
    pub fn pre_bounds(
        &self,
        pattern: &Pattern,
        label_counts: &[(Label, usize)],
        index: Option<&GraphIndex>,
        parent_hi: f64,
    ) -> BoundsOutcome {
        let mut hi = parent_hi;
        let mut certificate = Certificate::ParentSupport;
        for u in pattern.vertices() {
            let label = pattern.label(u);
            let cap = match index {
                Some(index) => index.vertices_with_min_degree(label, pattern.degree(u)).len(),
                None => label_counts
                    .iter()
                    .find(|(l, _)| *l == label)
                    .map(|&(_, count)| count)
                    .unwrap_or(0),
            } as f64;
            if cap < hi {
                hi = cap;
                certificate = Certificate::IndexDegree;
            }
        }
        self.outcome(SupportInterval::new(0.0, hi), certificate)
    }

    /// `true` when [`BoundsEvaluator::post_bounds`] can short-circuit an
    /// expensive exact solve for this measure kind.  Linear-time MNI skips the
    /// stage: its exact evaluation *is* the cheap path.
    pub fn post_stage(&self) -> bool {
        matches!(
            self.kind,
            MeasureKind::Mi
                | MeasureKind::Mvc
                | MeasureKind::Mis
                | MeasureKind::Mies
                | MeasureKind::RelaxedMvc
                | MeasureKind::RelaxedMies
        )
    }

    /// Stage 2: bound the support from the enumerated occurrence set, before
    /// the NP-hard (or LP) exact solve.
    ///
    /// `pre` is the stage-1 outcome; its upper bound carries over.  Arguments
    /// are tried cheapest first — MNI cap, greedy packing, then the covering
    /// LP — and the stage returns as soon as one side clears the
    /// threshold.
    pub fn post_bounds(&self, occ: &OccurrenceSet, pre: &BoundsOutcome) -> BoundsOutcome {
        let mut lo = pre.interval.lo.max(0.0);
        let mut hi = pre.interval.hi;
        let mut hi_certificate = pre.certificate;
        let mni_cap = mni::mni(occ) as f64;
        if mni_cap < hi {
            hi = mni_cap;
            hi_certificate = Certificate::ContainmentChain;
        }
        if hi < self.threshold {
            return self.outcome(SupportInterval::new(lo, hi), hi_certificate);
        }
        let h = occ.hypergraph(self.basis);
        let greedy = greedy_independent_edge_set(&h).len() as f64;
        lo = lo.max(greedy);
        if lo >= self.threshold {
            return self.outcome(SupportInterval::new(lo, hi), Certificate::GreedyPacking);
        }
        match self.kind {
            // The integral MVC (and MI above it) sit above the fractional
            // covering optimum: MVC ≥ ⌈ν⌉, and any feasible packing
            // under-estimates ν.
            MeasureKind::Mvc | MeasureKind::Mi => {
                if let Some(env) = covering_envelope(&h) {
                    lo = lo.max((env.objective - LP_TOL).ceil());
                    if lo >= self.threshold {
                        let certificate = Certificate::LpRelaxation { certified: env.optimal };
                        return self.outcome(SupportInterval::new(lo, hi.max(lo)), certificate);
                    }
                }
            }
            // The integral MIS = MIES sit below it: MIES ≤ ⌊ν⌋, and any feasible
            // cover over-estimates ν.
            MeasureKind::Mis | MeasureKind::Mies => {
                if let Some(env) = covering_envelope(&h) {
                    let cap = (env.upper + LP_TOL).floor();
                    if cap < hi {
                        hi = cap;
                        hi_certificate = Certificate::LpRelaxation { certified: env.optimal };
                    }
                    if hi < self.threshold {
                        return self.outcome(SupportInterval::new(lo.min(hi), hi), hi_certificate);
                    }
                }
            }
            // For νMVC / νMIES the LP *is* the measure; solving it here would
            // be the exact evaluation, so only the greedy/MNI sandwich applies.
            _ => {}
        }
        self.outcome(SupportInterval::new(lo, hi.max(lo)), hi_certificate)
    }

    /// The exact-evaluation outcome: a point interval with an [`Certificate::Exact`]
    /// stamp.
    pub fn exact(&self, support: f64) -> BoundsOutcome {
        self.outcome(SupportInterval::point(support), Certificate::Exact)
    }

    fn outcome(&self, interval: SupportInterval, certificate: Certificate) -> BoundsOutcome {
        BoundsOutcome { decision: interval.decides(self.threshold), interval, certificate }
    }
}

/// Sound envelope around the fractional covering optimum νMVC (= νMIES) of
/// `h`, via one simplex run: `objective ≤ ν ≤ upper` by weak duality, from a
/// packing and a cover both checked feasible, whether or not the simplex
/// reached a certified optimum (`optimal`).  `None` when the solver fails: the
/// caller simply keeps its current bounds.
fn covering_envelope(h: &Hypergraph) -> Option<Solution> {
    let sets: Vec<Vec<usize>> = h.edges().map(|(_, e)| e.to_vec()).collect();
    covering_lp(h.num_vertices(), &sets).solve().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_core::measures::SupportMeasures;
    use ffsm_graph::figures;
    use ffsm_graph::isomorphism::IsoConfig;

    fn chain_kinds() -> Vec<MeasureKind> {
        vec![
            MeasureKind::Mni,
            MeasureKind::Mi,
            MeasureKind::Mvc,
            MeasureKind::Mis,
            MeasureKind::Mies,
            MeasureKind::RelaxedMvc,
            MeasureKind::RelaxedMies,
        ]
    }

    #[test]
    fn unsupported_configurations_are_declined() {
        let config = MeasureConfig::default();
        assert!(BoundsEvaluator::new(MeasureKind::Mcp, &config, 1.0).is_none());
        assert!(BoundsEvaluator::new(MeasureKind::MniK(2), &config, 1.0).is_none());
        let greedy = MeasureConfig {
            mvc_algorithm: MvcAlgorithm::GreedyMatching,
            ..MeasureConfig::default()
        };
        assert!(BoundsEvaluator::new(MeasureKind::Mvc, &greedy, 1.0).is_none());
        assert!(BoundsEvaluator::new(MeasureKind::Mvc, &config, 1.0).is_some());
    }

    #[test]
    fn intervals_contain_the_exact_support_on_all_figures() {
        let config = MeasureConfig::default();
        for example in figures::all_figures() {
            let occ =
                OccurrenceSet::enumerate(&example.pattern, &example.graph, IsoConfig::default());
            let counts = example.graph.label_histogram();
            let index = GraphIndex::build(&example.graph);
            for kind in chain_kinds() {
                let evaluator = BoundsEvaluator::new(kind, &config, 2.0).expect("supported");
                let pre =
                    evaluator.pre_bounds(&example.pattern, &counts, Some(&index), f64::INFINITY);
                let exact = SupportMeasures::new(occ.clone(), config.clone()).compute(kind);
                assert!(
                    pre.interval.contains(exact, LP_TOL),
                    "{kind:?} pre interval {:?} misses {exact} on {}",
                    pre.interval,
                    example.name
                );
                if evaluator.post_stage() {
                    let post = evaluator.post_bounds(&occ, &pre);
                    assert!(
                        post.interval.contains(exact, LP_TOL),
                        "{kind:?} post interval {:?} misses {exact} on {}",
                        post.interval,
                        example.name
                    );
                    assert!(post.interval.lo <= post.interval.hi + LP_TOL);
                    // A decision must agree with the exact comparison.
                    if let Some(frequent) = post.decision {
                        assert_eq!(frequent, exact >= 2.0, "{kind:?} on {}", example.name);
                    }
                }
            }
        }
    }

    #[test]
    fn pre_bounds_skip_impossible_patterns() {
        // Figure 4's path graph has two A and two B vertices; a pattern vertex
        // demanding degree 3 has no candidates, so the cap decides infrequent
        // with zero enumeration.
        let f = figures::figure4();
        let index = GraphIndex::build(&f.graph);
        let counts = f.graph.label_histogram();
        let star = ffsm_graph::patterns::star(Label(0), &[Label(1); 3]);
        let evaluator =
            BoundsEvaluator::new(MeasureKind::Mni, &MeasureConfig::default(), 1.0).unwrap();
        let pre = evaluator.pre_bounds(&star, &counts, Some(&index), f64::INFINITY);
        assert_eq!(pre.decision, Some(false));
        assert_eq!(pre.certificate, Certificate::IndexDegree);
        assert_eq!(pre.interval.hi, 0.0);
        // Without the index the label-count fallback still caps the pattern at
        // the rarer label's frequency.
        let pre = evaluator.pre_bounds(&star, &counts, None, f64::INFINITY);
        assert!(pre.interval.hi <= 2.0);
    }

    #[test]
    fn parent_bound_caps_children() {
        let f = figures::figure4();
        let evaluator =
            BoundsEvaluator::new(MeasureKind::Mni, &MeasureConfig::default(), 3.0).unwrap();
        let counts = f.graph.label_histogram();
        // Parent established support 2; the child inherits hi = 2 < τ = 3.
        let pre = evaluator.pre_bounds(&f.pattern, &counts, None, 2.0);
        assert_eq!(pre.decision, Some(false));
        assert!(pre.interval.hi <= 2.0);
    }

    #[test]
    fn lp_envelope_brackets_the_fractional_optimum() {
        // Odd triangle of pairwise overlaps: ν = 1.5.
        let mut h = Hypergraph::new(3);
        h.add_edge(vec![0, 1]).unwrap();
        h.add_edge(vec![1, 2]).unwrap();
        h.add_edge(vec![0, 2]).unwrap();
        let env = covering_envelope(&h).expect("solvable");
        assert!(env.objective <= 1.5 + LP_TOL && 1.5 <= env.upper + LP_TOL);
        assert!(env.optimal);
        assert!(env.upper - env.objective <= LP_TOL);
    }
}
