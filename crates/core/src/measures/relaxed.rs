//! Polynomial-time LP relaxations νMVC and νMIES (Section 4.3).
//!
//! Relaxing the integrality constraints of the MVC integer program (Eq. 4.1) yields
//! the fractional covering LP of Definition 4.3.1; relaxing the MIES program (Eq. 4.2)
//! yields the fractional packing LP of Definition 4.3.2.  The two are a primal/dual
//! pair with equal optima (Theorem 4.6), so one solve of the workspace's own pair
//! solver (`ffsm-lp`) yields both: a certified solve gives both measures the packing
//! optimum, and the test-suite checks the equality numerically.
//!
//! Both relaxations consume the occurrence/instance hypergraph that
//! `SupportMeasures` caches per pattern (shared with MVC and MIES); they never build
//! an overlap graph, so they ride along with the per-pattern `OverlapCache` at zero
//! additional construction cost.

use super::Evaluation;
use ffsm_hypergraph::Hypergraph;
use ffsm_lp::{covering_lp, LpError, Solution};

/// νMVC and νMIES of one hypergraph, with their optimality flags.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Relaxations {
    /// Fractional minimum vertex cover νMVC (Definition 4.3.1).
    pub mvc: Evaluation,
    /// Fractional maximum independent edge set νMIES (Definition 4.3.2).
    pub mies: Evaluation,
}

/// Both relaxations of the hypergraph from one solve of the covering/packing pair.
pub fn relaxations(hypergraph: &Hypergraph) -> Relaxations {
    let sets: Vec<Vec<usize>> = hypergraph.edges().map(|(_, e)| e.to_vec()).collect();
    relaxations_of(covering_lp(hypergraph.num_vertices(), &sets).solve())
}

/// A certified solve gives both measures the packing optimum (Theorem 4.6).  A solve
/// the pivot cap or rounding left uncertified gives νMIES its checked packing value
/// and νMVC its checked cover value, the two sides of the envelope around the
/// optimum, both marked unproven; a failed solve gives NaN, unproven.
fn relaxations_of(solve: Result<Solution, LpError>) -> Relaxations {
    let bound = |value: f64, optimal: bool| Evaluation { value, optimal };
    match solve {
        Ok(sol) if sol.optimal => {
            Relaxations { mvc: bound(sol.objective, true), mies: bound(sol.objective, true) }
        }
        Ok(sol) => Relaxations { mvc: bound(sol.upper, false), mies: bound(sol.objective, false) },
        Err(_) => Relaxations { mvc: bound(f64::NAN, false), mies: bound(f64::NAN, false) },
    }
}

/// Fractional minimum vertex cover νMVC (Definition 4.3.1) of the hypergraph.
pub fn relaxed_mvc(hypergraph: &Hypergraph) -> f64 {
    relaxations(hypergraph).mvc.value
}

/// Fractional maximum independent edge set νMIES (Definition 4.3.2) of the hypergraph.
pub fn relaxed_mies(hypergraph: &Hypergraph) -> f64 {
    relaxations(hypergraph).mies.value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measures::{mis, mvc, MvcAlgorithm};
    use crate::occurrences::OccurrenceSet;
    use ffsm_graph::figures;
    use ffsm_graph::isomorphism::IsoConfig;
    use ffsm_hypergraph::SearchBudget;

    fn occurrence_hypergraph(example: &ffsm_graph::figures::FigureExample) -> Hypergraph {
        OccurrenceSet::enumerate(&example.pattern, &example.graph, IsoConfig::default())
            .occurrence_hypergraph()
    }

    #[test]
    fn duality_on_all_figures() {
        // Theorem 4.6: νMIES = νMVC.
        for example in ffsm_graph::figures::all_figures() {
            let h = occurrence_hypergraph(&example);
            let cover = relaxed_mvc(&h);
            let pack = relaxed_mies(&h);
            assert!(
                (cover - pack).abs() < 1e-6,
                "duality gap {} vs {} on {}",
                cover,
                pack,
                example.name
            );
        }
    }

    #[test]
    fn relaxations_sit_inside_the_chain() {
        // σMIES <= νMIES = νMVC <= σMVC for every figure.
        for example in ffsm_graph::figures::all_figures() {
            let h = occurrence_hypergraph(&example);
            let mies = mis::mies(&h, SearchBudget::default()).value as f64;
            let exact_cover =
                mvc::mvc(&h, MvcAlgorithm::Exact, SearchBudget::default()).value as f64;
            let nu = relaxed_mvc(&h);
            assert!(mies <= nu + 1e-6, "MIES > relaxation on {}", example.name);
            assert!(nu <= exact_cover + 1e-6, "relaxation > MVC on {}", example.name);
        }
    }

    #[test]
    fn figure6_relaxation_value() {
        // The Figure 6 hypergraph's fractional cover is exactly 2 (put 1 on each hub).
        let h = occurrence_hypergraph(&figures::figure6());
        assert!((relaxed_mvc(&h) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn figure2_relaxation_value() {
        // Six copies of the edge {1,2,3}: fractional cover is 1 (1/3 on each vertex
        // would give 1, but a single vertex at value 1 also covers; optimum is 1).
        let h = occurrence_hypergraph(&figures::figure2());
        assert!((relaxed_mvc(&h) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_hypergraph_relaxation_is_zero() {
        let h = Hypergraph::new(0);
        assert_eq!(relaxed_mvc(&h), 0.0);
        assert_eq!(relaxed_mies(&h), 0.0);
    }

    #[test]
    fn fractional_strictly_below_integral_cover_exists() {
        // Odd cycle of pairwise overlaps: integral MVC = 2, fractional = 1.5.
        let mut h = Hypergraph::new(3);
        h.add_edge(vec![0, 1]).unwrap();
        h.add_edge(vec![1, 2]).unwrap();
        h.add_edge(vec![0, 2]).unwrap();
        let integral = mvc::mvc(&h, MvcAlgorithm::Exact, SearchBudget::default()).value as f64;
        let fractional = relaxed_mvc(&h);
        assert_eq!(integral, 2.0);
        assert!((fractional - 1.5).abs() < 1e-6);
    }

    #[test]
    fn uncertified_solves_are_not_proven() {
        // A capped solve stops with the two checked bounds apart: νMIES takes the
        // packing side, νMVC the cover side, and neither claims optimality.
        let capped = Solution {
            objective: 1.0,
            upper: 2.0,
            packing: vec![0.5, 0.5],
            cover: vec![1.0, 1.0],
            optimal: false,
            pivots: 1,
        };
        let r = relaxations_of(Ok(capped));
        assert_eq!(r.mvc, Evaluation { value: 2.0, optimal: false });
        assert_eq!(r.mies, Evaluation { value: 1.0, optimal: false });
        let failed = relaxations_of(Err(LpError::EmptySet { set: 0 }));
        assert!(failed.mvc.value.is_nan() && !failed.mvc.optimal && !failed.mies.optimal);
        // A certified solve proves both at the packing optimum.
        let h = occurrence_hypergraph(&figures::figure6());
        let r = relaxations(&h);
        assert!(r.mvc.optimal && r.mies.optimal);
        assert_eq!(r.mvc.value, r.mies.value);
    }
}
