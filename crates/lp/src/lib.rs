//! # ffsm-lp — a small dense linear-programming solver
//!
//! This crate provides a self-contained, dependency-free implementation of the
//! two-phase primal simplex method over a dense tableau.  It exists to support the
//! *polynomial-time relaxations* of the MVC and MIES support measures defined in
//! Section 4.3 of the paper (νMVC, Eq. 4.3 and νMIES, Eq. 4.4): both are small
//! covering / packing linear programs whose rows are pattern occurrences and whose
//! columns are pattern-node images, so a dense exact solver is entirely adequate.
//!
//! The public surface is intentionally small:
//!
//! * [`Problem`] — build a linear program (minimise or maximise, `≤` / `≥` / `=`
//!   constraints, non-negative variables with optional upper bounds).
//! * [`Problem::solve`] — run two-phase simplex and obtain a [`Solution`].
//! * [`covering_lp`] / [`packing_lp`] — convenience constructors for the 0/1
//!   covering and packing LPs used by the support-measure relaxations.
//!
//! ```
//! use ffsm_lp::{Problem, Objective, ConstraintOp};
//!
//! // minimise x0 + x1  subject to  x0 + x1 >= 1, x0 >= 0.25
//! let mut p = Problem::new(Objective::Minimize, 2);
//! p.set_objective(0, 1.0);
//! p.set_objective(1, 1.0);
//! p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 1.0);
//! p.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 0.25);
//! let sol = p.solve().unwrap();
//! assert!((sol.objective - 1.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod duality;
pub mod presolve;
mod problem;
mod simplex;
mod standard;

pub use duality::{dual_of, solve_with_dual, DualityError, DualityReport};
pub use presolve::{presolve_covering, PresolveStats, PresolvedCovering};
pub use problem::{Constraint, ConstraintOp, Objective, Problem};
pub use simplex::{SimplexOptions, SolveStatus};
pub use standard::StandardForm;

/// Numerical tolerance used throughout the solver.
pub const EPS: f64 = 1e-9;

/// Errors produced by the LP solver.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The constraint system admits no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The solver exceeded its iteration budget (should not happen with Bland's rule
    /// unless the budget is configured too small).
    IterationLimit,
    /// A constraint referenced a variable index outside the problem.
    InvalidVariable {
        /// The offending variable index.
        var: usize,
        /// Number of variables in the problem.
        num_vars: usize,
    },
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "linear program is infeasible"),
            LpError::Unbounded => write!(f, "linear program is unbounded"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
            LpError::InvalidVariable { var, num_vars } => {
                write!(f, "variable index {var} out of range (problem has {num_vars} variables)")
            }
        }
    }
}

impl std::error::Error for LpError {}

/// Result of a successful LP solve.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Optimal objective value (in the *original* orientation of the problem).
    pub objective: f64,
    /// Optimal value of each structural variable.
    pub values: Vec<f64>,
    /// Number of simplex pivots performed (both phases).
    pub pivots: usize,
}

impl Solution {
    /// Value of variable `i`.
    pub fn value(&self, i: usize) -> f64 {
        self.values[i]
    }
}

/// Build the fractional *covering* LP
/// `min Σ x_v  s.t.  Σ_{v ∈ e} x_v ≥ 1 for every set e,  x ≥ 0`.
///
/// `num_elements` is the size of the ground set; `sets` lists, for every covering
/// constraint, the element indices it contains.  This is exactly the νMVC relaxation
/// (Definition 4.3.1) when the ground set is the hypergraph vertex set and each set is
/// a hyperedge.  (The `x ≤ 1` bounds of the paper are redundant for covering LPs with
/// unit costs and are omitted.)
pub fn covering_lp(num_elements: usize, sets: &[Vec<usize>]) -> Problem {
    let mut p = Problem::new(Objective::Minimize, num_elements);
    for v in 0..num_elements {
        p.set_objective(v, 1.0);
    }
    for set in sets {
        let coeffs: Vec<(usize, f64)> = set.iter().map(|&v| (v, 1.0)).collect();
        p.add_constraint(coeffs, ConstraintOp::Ge, 1.0);
    }
    p
}

/// Build the fractional *packing* LP
/// `max Σ y_e  s.t.  Σ_{e ∋ v} y_e ≤ 1 for every element v,  y ≥ 0`.
///
/// This is the νMIES relaxation (Definition 4.3.2): variables are hyperedges
/// (occurrences), constraints are hypergraph vertices (images).  By LP duality its
/// optimum equals the covering optimum, which the paper exploits in Theorem 4.6.
pub fn packing_lp(num_sets: usize, sets: &[Vec<usize>], num_elements: usize) -> Problem {
    let mut p = Problem::new(Objective::Maximize, num_sets);
    for e in 0..num_sets {
        p.set_objective(e, 1.0);
    }
    // Build element -> sets incidence.
    let mut incident: Vec<Vec<usize>> = vec![Vec::new(); num_elements];
    for (e, set) in sets.iter().enumerate() {
        for &v in set {
            incident[v].push(e);
        }
    }
    for edges in incident.iter() {
        if edges.is_empty() {
            continue;
        }
        let coeffs: Vec<(usize, f64)> = edges.iter().map(|&e| (e, 1.0)).collect();
        p.add_constraint(coeffs, ConstraintOp::Le, 1.0);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covering_and_packing_are_dual() {
        // Three sets over four elements.
        let sets = vec![vec![0, 1], vec![1, 2], vec![2, 3]];
        let cover = covering_lp(4, &sets).solve().unwrap();
        let pack = packing_lp(3, &sets, 4).solve().unwrap();
        assert!((cover.objective - pack.objective).abs() < 1e-7);
        // Optimal value is 2 (e.g. pick elements 1 and 2; or sets 0 and 2).
        assert!((cover.objective - 2.0).abs() < 1e-7);
    }

    #[test]
    fn fractional_cover_beats_integral() {
        // Triangle hypergraph: each pair is a set; fractional optimum is 1.5.
        let sets = vec![vec![0, 1], vec![1, 2], vec![0, 2]];
        let cover = covering_lp(3, &sets).solve().unwrap();
        assert!((cover.objective - 1.5).abs() < 1e-7);
    }

    #[test]
    fn display_errors() {
        let e = LpError::Infeasible;
        assert!(format!("{e}").contains("infeasible"));
        let e = LpError::InvalidVariable { var: 5, num_vars: 2 };
        assert!(format!("{e}").contains('5'));
    }
}
