//! One-stop profiling of every support measure on a pattern/graph pair.
//!
//! [`MeasureProfile`] is what the experiment harness and the `measure_comparison`
//! example print: all measure values side by side, each with its wall-clock cost and
//! an optimality flag for the budgeted NP-hard searches.  The profile also re-checks
//! the paper's bounding chain (Section 4.4) so every experiment run certifies
//!
//! ```text
//! σMIS = σMIES ≤ νMIES = νMVC ≤ σMVC ≤ σMI ≤ σMNI
//! ```
//!
//! on its own data, through [`BoundsReport::violations`], which skips the links
//! that rest on a value a search budget left unproven.

use crate::bounds::BoundsReport;
use crate::measures::{Evaluation, MeasureConfig, MeasureKind, SupportMeasures};
use crate::occurrences::OccurrenceSet;
use ffsm_graph::{LabeledGraph, Pattern};
use std::time::{Duration, Instant};

/// One measured entry of a profile.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    /// Which measure.
    pub kind: MeasureKind,
    /// The value (integral measures reported as `f64`).
    pub value: f64,
    /// Wall-clock time spent computing it (excludes occurrence enumeration).
    pub elapsed: Duration,
    /// `false` when a budgeted exact search was truncated.
    pub optimal: bool,
}

/// The complete profile of one pattern / data graph pair.
#[derive(Debug, Clone)]
pub struct MeasureProfile {
    /// Human-readable label for the workload (set by the caller, may be empty).
    pub label: String,
    /// Number of occurrences enumerated.
    pub num_occurrences: usize,
    /// Number of distinct instances.
    pub num_instances: usize,
    /// Whether the occurrence enumeration was complete (not budget-truncated).
    pub enumeration_complete: bool,
    /// Time spent enumerating occurrences and building the occurrence set.
    pub enumeration_time: Duration,
    /// Per-measure entries, in bounding-chain order followed by the extras
    /// (MNI-k, MCP, occurrence/instance counts).
    pub entries: Vec<ProfileEntry>,
}

impl MeasureProfile {
    /// Profile every measure for `pattern` in `graph` under `config`.
    pub fn compute(pattern: &Pattern, graph: &LabeledGraph, config: &MeasureConfig) -> Self {
        Self::compute_labeled(String::new(), pattern, graph, config)
    }

    /// Like [`MeasureProfile::compute`] with a workload label for reports.
    pub fn compute_labeled(
        label: String,
        pattern: &Pattern,
        graph: &LabeledGraph,
        config: &MeasureConfig,
    ) -> Self {
        let start = Instant::now();
        let occurrences = OccurrenceSet::enumerate(pattern, graph, config.iso_config.clone());
        let enumeration_time = start.elapsed();
        Self::from_occurrences(label, occurrences, config, enumeration_time)
    }

    /// Profile from a pre-built occurrence set (`enumeration_time` may be zero when
    /// the caller did not measure it).
    pub fn from_occurrences(
        label: String,
        occurrences: OccurrenceSet,
        config: &MeasureConfig,
        enumeration_time: Duration,
    ) -> Self {
        let num_occurrences = occurrences.num_occurrences();
        let num_instances = occurrences.num_instances();
        let enumeration_complete = occurrences.is_complete();
        let measures = SupportMeasures::new(occurrences, config.clone());

        let extras = [
            MeasureKind::Mcp,
            MeasureKind::MniK(2),
            MeasureKind::OccurrenceCount,
            MeasureKind::InstanceCount,
        ];
        let entries = MeasureKind::bounding_chain()
            .into_iter()
            .chain(extras)
            .map(|kind| {
                let start = Instant::now();
                let Evaluation { value, optimal } = measures.evaluate(kind);
                ProfileEntry { kind, value, elapsed: start.elapsed(), optimal }
            })
            .collect();

        MeasureProfile {
            label,
            num_occurrences,
            num_instances,
            enumeration_complete,
            enumeration_time,
            entries,
        }
    }

    /// Value of `kind`, if it was profiled.
    pub fn value_of(&self, kind: MeasureKind) -> Option<f64> {
        self.entries.iter().find(|e| e.kind == kind).map(|e| e.value)
    }

    /// Check the bounding chain on the profiled values ([`BoundsReport::violations`]).
    /// Returns the list of violated links, empty when the chain holds.
    pub fn bounding_chain_violations(&self) -> Vec<String> {
        BoundsReport::from_evaluations(self.num_occurrences, self.num_instances, |kind| {
            let entry = self.entries.iter().find(|e| e.kind == kind).expect("chain is profiled");
            Evaluation { value: entry.value, optimal: entry.optimal }
        })
        .violations()
    }

    /// `true` when the bounding chain holds on this profile.
    pub fn chain_holds(&self) -> bool {
        self.bounding_chain_violations().is_empty()
    }

    /// Fixed-width table, one row per measure.
    pub fn table(&self) -> String {
        let mut out = String::new();
        if !self.label.is_empty() {
            out.push_str(&format!("workload: {}\n", self.label));
        }
        out.push_str(&format!(
            "occurrences: {} (complete: {}), instances: {}, enumeration: {:?}\n",
            self.num_occurrences,
            self.enumeration_complete,
            self.num_instances,
            self.enumeration_time
        ));
        out.push_str(&format!(
            "{:<14} {:>12} {:>12} {:>9}\n",
            "measure", "value", "time", "optimal"
        ));
        for e in &self.entries {
            out.push_str(&format!(
                "{:<14} {:>12.3} {:>12.2?} {:>9}\n",
                e.kind.name(),
                e.value,
                e.elapsed,
                if e.optimal { "yes" } else { "budget" }
            ));
        }
        out
    }
}

impl std::fmt::Display for MeasureProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::figures;

    #[test]
    fn profile_of_figure6_has_expected_values() {
        let fig = figures::figure6();
        let profile = MeasureProfile::compute(&fig.pattern, &fig.graph, &MeasureConfig::default());
        assert_eq!(profile.num_occurrences, 7);
        assert!(profile.enumeration_complete);
        assert_eq!(profile.value_of(MeasureKind::Mni), Some(4.0));
        assert_eq!(profile.value_of(MeasureKind::Mi), Some(4.0));
        assert_eq!(profile.value_of(MeasureKind::Mvc), Some(2.0));
        assert_eq!(profile.value_of(MeasureKind::Mis), Some(2.0));
        assert!(profile.chain_holds(), "{:?}", profile.bounding_chain_violations());
    }

    #[test]
    fn profile_table_lists_every_measure() {
        let fig = figures::figure2();
        let profile = MeasureProfile::compute_labeled(
            "figure 2".to_string(),
            &fig.pattern,
            &fig.graph,
            &MeasureConfig::default(),
        );
        let table = profile.table();
        for name in ["MNI", "MI", "MVC", "MIS", "MIES", "nuMVC", "nuMIES", "MCP", "occurrences"] {
            assert!(table.contains(name), "missing {name} in\n{table}");
        }
        assert!(table.contains("figure 2"));
        assert!(format!("{profile}").contains("MNI"));
    }

    #[test]
    fn chain_holds_on_every_figure() {
        for fig in figures::all_figures() {
            let profile =
                MeasureProfile::compute(&fig.pattern, &fig.graph, &MeasureConfig::default());
            assert!(
                profile.chain_holds(),
                "chain violated on {}: {:?}",
                fig.name,
                profile.bounding_chain_violations()
            );
        }
    }

    #[test]
    fn empty_occurrence_profile() {
        let pattern = ffsm_graph::patterns::single_edge(ffsm_graph::Label(5), ffsm_graph::Label(6));
        let graph = ffsm_graph::LabeledGraph::from_edges(&[0, 0], &[(0, 1)]);
        let profile = MeasureProfile::compute(&pattern, &graph, &MeasureConfig::default());
        assert_eq!(profile.num_occurrences, 0);
        assert_eq!(profile.value_of(MeasureKind::Mni), Some(0.0));
        assert!(profile.chain_holds());
    }

    #[test]
    fn value_of_unprofiled_kind_is_none() {
        let fig = figures::figure4();
        let profile = MeasureProfile::compute(&fig.pattern, &fig.graph, &MeasureConfig::default());
        assert!(profile.value_of(MeasureKind::MniK(7)).is_none());
        assert!(profile.value_of(MeasureKind::MniK(2)).is_some());
    }
}
