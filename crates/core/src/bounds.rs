//! The bounding chain of Section 4.4:
//!
//! ```text
//! σMIS = σMIES ≤ νMIES = νMVC ≤ σMVC ≤ σMI ≤ σMNI
//! ```
//!
//! [`verify_bounding_chain`] evaluates every measure on one pattern/data-graph pair
//! and checks every inequality (and both equalities) of the chain, returning a
//! [`BoundsReport`] that the experiment harness prints and the property tests assert
//! on random inputs.

use crate::measures::{Evaluation, MeasureConfig, MeasureKind, MvcAlgorithm, SupportMeasures};
use crate::occurrences::OccurrenceSet;
use ffsm_graph::{LabeledGraph, Pattern};

/// Numerical slack used when comparing the fractional LP values with integers.
const TOLERANCE: f64 = 1e-6;

/// Every value of the bounding chain for one pattern/data-graph pair.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundsReport {
    /// Number of occurrences (context, not part of the chain).
    pub occurrences: usize,
    /// Number of instances (context, not part of the chain).
    pub instances: usize,
    /// σMIS — overlap-graph maximum independent set.
    pub mis: usize,
    /// σMIES — hypergraph maximum independent edge set.
    pub mies: usize,
    /// νMIES — LP-relaxed MIES.
    pub relaxed_mies: f64,
    /// νMVC — LP-relaxed MVC.
    pub relaxed_mvc: f64,
    /// σMVC — minimum vertex cover.
    pub mvc: usize,
    /// σMI — minimum instance support (configured strategy).
    pub mi: usize,
    /// σMNI — minimum image support.
    pub mni: usize,
    /// `true` if every exact search finished within budget and the LP solve was
    /// certified (otherwise the chain is only checked where it remains sound).
    pub all_exact: bool,
}

impl BoundsReport {
    /// Assemble the report from one [`Evaluation`] per chain measure: `chain(kind)`
    /// is called once for every kind of [`MeasureKind::bounding_chain`].  The MIS,
    /// MIES, MVC, νMIES and νMVC optimality flags decide `all_exact`.
    pub(crate) fn from_evaluations(
        occurrences: usize,
        instances: usize,
        mut chain: impl FnMut(MeasureKind) -> Evaluation,
    ) -> Self {
        let (mis, mies, mvc) =
            (chain(MeasureKind::Mis), chain(MeasureKind::Mies), chain(MeasureKind::Mvc));
        let (relaxed_mies, relaxed_mvc) =
            (chain(MeasureKind::RelaxedMies), chain(MeasureKind::RelaxedMvc));
        BoundsReport {
            occurrences,
            instances,
            mis: mis.value as usize,
            mies: mies.value as usize,
            relaxed_mies: relaxed_mies.value,
            relaxed_mvc: relaxed_mvc.value,
            mvc: mvc.value as usize,
            mi: chain(MeasureKind::Mi).value as usize,
            mni: chain(MeasureKind::Mni).value as usize,
            all_exact: mis.optimal
                && mies.optimal
                && mvc.optimal
                && relaxed_mies.optimal
                && relaxed_mvc.optimal,
        }
    }

    /// Violations of the chain, as human-readable strings; empty when everything is
    /// consistent.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.all_exact && self.mis != self.mies {
            out.push(format!("Theorem 4.1 violated: MIS {} != MIES {}", self.mis, self.mies));
        }
        if self.all_exact && (self.relaxed_mies - self.relaxed_mvc).abs() > TOLERANCE {
            out.push(format!(
                "LP duality violated: nuMIES {} != nuMVC {}",
                self.relaxed_mies, self.relaxed_mvc
            ));
        }
        if self.all_exact && (self.mies as f64) > self.relaxed_mies + TOLERANCE {
            out.push(format!("MIES {} exceeds its relaxation {}", self.mies, self.relaxed_mies));
        }
        if self.all_exact && self.relaxed_mvc > self.mvc as f64 + TOLERANCE {
            out.push(format!("relaxed MVC {} exceeds MVC {}", self.relaxed_mvc, self.mvc));
        }
        if self.all_exact && self.mvc > self.mi {
            out.push(format!("MVC {} exceeds MI {}", self.mvc, self.mi));
        }
        if self.mi > self.mni {
            out.push(format!("MI {} exceeds MNI {}", self.mi, self.mni));
        }
        out
    }

    /// `true` if the whole chain holds.
    pub fn holds(&self) -> bool {
        self.violations().is_empty()
    }

    /// The chain as a one-line summary (used by the experiment harness).
    pub fn summary(&self) -> String {
        format!(
            "occ={} inst={} | MIS={} MIES={} nuMIES={:.3} nuMVC={:.3} MVC={} MI={} MNI={}",
            self.occurrences,
            self.instances,
            self.mis,
            self.mies,
            self.relaxed_mies,
            self.relaxed_mvc,
            self.mvc,
            self.mi,
            self.mni
        )
    }
}

/// Compute every measure of the chain for `pattern` in `graph` and report.
pub fn verify_bounding_chain(
    pattern: &Pattern,
    graph: &LabeledGraph,
    config: &MeasureConfig,
) -> BoundsReport {
    let occ = OccurrenceSet::enumerate(pattern, graph, config.iso_config.clone());
    bounding_chain_for(occ, config)
}

/// Compute the chain from an already-enumerated occurrence set (MVC always exact).
pub fn bounding_chain_for(occurrences: OccurrenceSet, config: &MeasureConfig) -> BoundsReport {
    let config = MeasureConfig { mvc_algorithm: MvcAlgorithm::Exact, ..config.clone() };
    let measures = SupportMeasures::new(occurrences, config);
    BoundsReport::from_evaluations(measures.occurrence_count(), measures.instance_count(), |kind| {
        measures.evaluate(kind)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::MeasureConfig;
    use ffsm_graph::isomorphism::IsoConfig;
    use ffsm_graph::{figures, generators};

    #[test]
    fn chain_holds_on_all_figures() {
        let config = MeasureConfig::default();
        for example in figures::all_figures() {
            let report = verify_bounding_chain(&example.pattern, &example.graph, &config);
            assert!(
                report.holds(),
                "bounding chain violated on {}: {:?}\n{}",
                example.name,
                report.violations(),
                report.summary()
            );
            assert!(report.all_exact);
        }
    }

    #[test]
    fn figure6_report_values() {
        let example = figures::figure6();
        let report =
            verify_bounding_chain(&example.pattern, &example.graph, &MeasureConfig::default());
        assert_eq!(report.mis, 2);
        assert_eq!(report.mies, 2);
        assert_eq!(report.mvc, 2);
        assert_eq!(report.mi, 4);
        assert_eq!(report.mni, 4);
        assert_eq!(report.occurrences, 7);
        assert!(report.summary().contains("MNI=4"));
    }

    #[test]
    fn chain_holds_on_random_graphs_and_sampled_patterns() {
        let config = MeasureConfig::default();
        for seed in 0..6u64 {
            let graph = generators::gnm_random(60, 140, 3, seed);
            if let Some((pattern, _)) = generators::sample_pattern(&graph, 3, seed * 31 + 1) {
                let report = verify_bounding_chain(&pattern, &graph, &config);
                assert!(
                    report.holds(),
                    "chain violated for seed {seed}: {:?}\n{}",
                    report.violations(),
                    report.summary()
                );
            }
        }
    }

    #[test]
    fn chain_on_pattern_with_no_occurrences() {
        let graph = generators::grid(3, 3, 2);
        let pattern = ffsm_graph::patterns::single_edge(ffsm_graph::Label(7), ffsm_graph::Label(8));
        let report = verify_bounding_chain(&pattern, &graph, &MeasureConfig::default());
        assert!(report.holds());
        assert_eq!(report.mni, 0);
        assert_eq!(report.mis, 0);
        assert_eq!(report.occurrences, 0);
    }

    #[test]
    fn embedding_limit_keeps_a_consistent_chain() {
        let example = figures::figure2();
        let config =
            MeasureConfig { iso_config: IsoConfig::with_limit(2), ..MeasureConfig::default() };
        let report = verify_bounding_chain(&example.pattern, &example.graph, &config);
        // Truncated enumeration still yields a consistent (if smaller) chain.
        assert!(report.occurrences <= 2);
        assert!(report.holds());
    }
}
