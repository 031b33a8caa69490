//! Certified support intervals and the certificates that justify them.

/// A closed interval `[lo, hi]` guaranteed to contain a pattern's exact support
/// under the session's measure.
///
/// Soundness is the defining property: whatever cheap argument produced the
/// interval, the true support `s` satisfies `lo ≤ s ≤ hi`.  A bounds-first
/// session decides a pattern without exact evaluation only when the interval
/// clears the threshold on one side (`lo ≥ τ` or `hi < τ`), so the decision
/// agrees with the decision exact mining would have made.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupportInterval {
    /// Certified lower bound on the support.
    pub lo: f64,
    /// Certified upper bound on the support.
    pub hi: f64,
}

impl SupportInterval {
    /// The interval `[lo, hi]`.
    pub fn new(lo: f64, hi: f64) -> SupportInterval {
        SupportInterval { lo, hi }
    }

    /// The degenerate interval `[value, value]` of an exactly known support.
    pub fn point(value: f64) -> SupportInterval {
        SupportInterval { lo: value, hi: value }
    }

    /// `true` when `value` lies inside the interval (within `tol` slack on both
    /// sides, for supports that are themselves LP optima).
    pub fn contains(&self, value: f64, tol: f64) -> bool {
        self.lo - tol <= value && value <= self.hi + tol
    }

    /// Width `hi − lo`; 0 for a point.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// What the interval decides against threshold `tau`:
    /// `Some(true)` = certainly frequent (`lo ≥ τ`), `Some(false)` = certainly
    /// infrequent (`hi < τ`), `None` = the threshold falls inside the interval.
    pub fn decides(&self, tau: f64) -> Option<bool> {
        if self.lo >= tau {
            Some(true)
        } else if self.hi < tau {
            Some(false)
        } else {
            None
        }
    }
}

/// The cheap argument that produced a [`SupportInterval`].
///
/// Stable machine names (see [`Certificate::name`]) are part of the serve
/// protocol; they appear in `certificate` fields of pattern and undecided
/// frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Certificate {
    /// Anti-monotonicity: the support of an extension never exceeds the support
    /// (upper bound) established for its parent pattern.
    ParentSupport,
    /// Cardinality bound from graph statistics: every MNI image of a pattern
    /// vertex is a data vertex with the same label and at least the pattern
    /// degree, so the smallest such candidate set bounds every chain measure.
    IndexDegree,
    /// The pattern's candidate space, seeded from its parent's refined
    /// candidate lists: every MNI image of a pattern vertex lies in that
    /// vertex's list, so the shortest list bounds every chain measure.
    CandidateSpace,
    /// The paper's Section 4.4 containment chain
    /// `σMIS = σMIES ≤ νMIES = νMVC ≤ σMVC ≤ σMI ≤ σMNI`: a cheap measure on
    /// one end of the chain bounds the expensive one being mined.
    ContainmentChain,
    /// A greedy independent edge set of the occurrence hypergraph — a feasible
    /// packing, hence a lower bound for every measure at or above σMIES in the
    /// chain.
    GreedyPacking,
    /// The fractional covering/packing LP relaxation (νMVC = νMIES), bounded by
    /// weak duality: one solve yields a packing and a cover, each checked
    /// feasible by evaluating it, whose values bracket the optimum.  `certified`
    /// is `true` when the checked `upper − lower` gap is within tolerance
    /// ([`ffsm_lp::Solution::optimal`]).
    LpRelaxation {
        /// The checked bounds meet: the LP optimum itself is certified.
        certified: bool,
    },
    /// No shortcut applied: the support was computed exactly and the interval
    /// is the point `[s, s]`.
    Exact,
}

impl Certificate {
    /// Stable machine name (protocol frames, JSON reports).
    pub fn name(&self) -> &'static str {
        match self {
            Certificate::ParentSupport => "parent-support",
            Certificate::IndexDegree => "index-degree",
            Certificate::CandidateSpace => "candidate-space",
            Certificate::ContainmentChain => "containment-chain",
            Certificate::GreedyPacking => "greedy-packing",
            Certificate::LpRelaxation { certified: true } => "lp-relaxation-certified",
            Certificate::LpRelaxation { certified: false } => "lp-relaxation",
            Certificate::Exact => "exact",
        }
    }
}

impl std::fmt::Display for Certificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_against_threshold() {
        let iv = SupportInterval::new(2.0, 5.0);
        assert_eq!(iv.decides(2.0), Some(true));
        assert_eq!(iv.decides(6.0), Some(false));
        assert_eq!(iv.decides(4.0), None);
        assert!(iv.contains(3.0, 0.0));
        assert!(!iv.contains(5.5, 1e-9));
        assert!((iv.width() - 3.0).abs() < 1e-12);
        assert_eq!(SupportInterval::point(4.0).width(), 0.0);
        assert_eq!(SupportInterval::point(4.0).decides(4.0), Some(true));
    }

    #[test]
    fn certificate_names_are_distinct_and_stable() {
        let all = [
            Certificate::ParentSupport,
            Certificate::IndexDegree,
            Certificate::ContainmentChain,
            Certificate::GreedyPacking,
            Certificate::LpRelaxation { certified: true },
            Certificate::LpRelaxation { certified: false },
            Certificate::Exact,
        ];
        let names: std::collections::BTreeSet<&str> = all.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), all.len());
        assert_eq!(Certificate::Exact.to_string(), "exact");
    }
}
