//! Linear-program construction API.

use crate::simplex::{solve_standard, SimplexOptions};
use crate::standard::StandardForm;
use crate::{LpError, Solution};

/// Optimisation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimise the objective function.
    Minimize,
    /// Maximise the objective function.
    Maximize,
}

/// Relational operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `Σ aᵢ xᵢ ≤ b`
    Le,
    /// `Σ aᵢ xᵢ ≥ b`
    Ge,
    /// `Σ aᵢ xᵢ = b`
    Eq,
}

/// A single linear constraint in sparse form.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs; indices must be unique.
    pub coeffs: Vec<(usize, f64)>,
    /// Relational operator.
    pub op: ConstraintOp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program over non-negative variables.
///
/// Variables are identified by `0..num_vars`.  All variables are constrained to be
/// non-negative; upper bounds can be added with [`Problem::set_upper_bound`] (they are
/// translated into ordinary `≤` rows).
#[derive(Debug, Clone)]
pub struct Problem {
    objective: Objective,
    costs: Vec<f64>,
    constraints: Vec<Constraint>,
    upper_bounds: Vec<Option<f64>>,
    pub(crate) options: SimplexOptions,
}

impl Problem {
    /// Create an empty problem with `num_vars` non-negative variables and an all-zero
    /// objective.
    pub fn new(objective: Objective, num_vars: usize) -> Self {
        Problem {
            objective,
            costs: vec![0.0; num_vars],
            constraints: Vec::new(),
            upper_bounds: vec![None; num_vars],
            options: SimplexOptions::default(),
        }
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.costs.len()
    }

    /// Number of constraints added so far (excluding upper bounds).
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Optimisation direction of this problem.
    pub fn objective_direction(&self) -> Objective {
        self.objective
    }

    /// Set the objective coefficient of variable `var`.
    pub fn set_objective(&mut self, var: usize, coeff: f64) {
        self.costs[var] = coeff;
    }

    /// Read the objective coefficient of variable `var`.
    pub fn objective_coeff(&self, var: usize) -> f64 {
        self.costs[var]
    }

    /// Constrain `var ≤ bound` (in addition to the implicit `var ≥ 0`).
    pub fn set_upper_bound(&mut self, var: usize, bound: f64) {
        self.upper_bounds[var] = Some(bound);
    }

    /// Add a constraint `Σ coeffs · x  (op)  rhs` and return its index.
    ///
    /// Duplicate variable indices in `coeffs` are summed.
    pub fn add_constraint(
        &mut self,
        coeffs: Vec<(usize, f64)>,
        op: ConstraintOp,
        rhs: f64,
    ) -> usize {
        self.constraints.push(Constraint { coeffs, op, rhs });
        self.constraints.len() - 1
    }

    /// Validate variable indices in every constraint.
    fn validate(&self) -> Result<(), LpError> {
        let n = self.num_vars();
        for c in &self.constraints {
            for &(v, _) in &c.coeffs {
                if v >= n {
                    return Err(LpError::InvalidVariable { var: v, num_vars: n });
                }
            }
        }
        Ok(())
    }

    /// Solve the problem with the two-phase primal simplex method.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.validate()?;
        let std_form = StandardForm::from_problem(self);
        let raw = solve_standard(&std_form, &self.options)?;
        // Map the standard-form solution back to the original variables and objective
        // orientation.
        let mut values = vec![0.0; self.num_vars()];
        values.copy_from_slice(&raw.values[..self.num_vars()]);
        let mut objective: f64 = self.costs.iter().zip(values.iter()).map(|(c, x)| c * x).sum();
        // Guard against -0.0 noise.
        if objective.abs() < crate::EPS {
            objective = 0.0;
        }
        Ok(Solution { objective, values, pivots: raw.pivots })
    }

    /// Expose the constraints (used by [`StandardForm`]).
    pub(crate) fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Expose the objective coefficients (used by [`StandardForm`]).
    pub(crate) fn costs(&self) -> &[f64] {
        &self.costs
    }

    /// Expose the upper bounds (used by [`StandardForm`]).
    pub(crate) fn upper_bounds(&self) -> &[Option<f64>] {
        &self.upper_bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_minimization() {
        // min 2x + 3y  s.t. x + y >= 4, x >= 1 -> optimum at (4 - 1? ) actually x=4,y=0 => 8
        let mut p = Problem::new(Objective::Minimize, 2);
        p.set_objective(0, 2.0);
        p.set_objective(1, 3.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Ge, 4.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 8.0).abs() < 1e-7, "got {}", sol.objective);
    }

    #[test]
    fn simple_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic) -> 36 at (2,6)
        let mut p = Problem::new(Objective::Maximize, 2);
        p.set_objective(0, 3.0);
        p.set_objective(1, 5.0);
        p.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 4.0);
        p.add_constraint(vec![(1, 2.0)], ConstraintOp::Le, 12.0);
        p.add_constraint(vec![(0, 3.0), (1, 2.0)], ConstraintOp::Le, 18.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-7, "got {}", sol.objective);
        assert!((sol.value(0) - 2.0).abs() < 1e-7);
        assert!((sol.value(1) - 6.0).abs() < 1e-7);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 3, x <= 2 -> 3
        let mut p = Problem::new(Objective::Maximize, 2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 1.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 3.0);
        p.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 2.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::new(Objective::Minimize, 1);
        p.set_objective(0, 1.0);
        p.add_constraint(vec![(0, 1.0)], ConstraintOp::Le, 1.0);
        p.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 2.0);
        assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::new(Objective::Maximize, 1);
        p.set_objective(0, 1.0);
        p.add_constraint(vec![(0, 1.0)], ConstraintOp::Ge, 1.0);
        assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn upper_bounds_respected() {
        // max x + y, x <= 0.5, y <= 0.25 via upper bounds
        let mut p = Problem::new(Objective::Maximize, 2);
        p.set_objective(0, 1.0);
        p.set_objective(1, 1.0);
        p.set_upper_bound(0, 0.5);
        p.set_upper_bound(1, 0.25);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 0.75).abs() < 1e-7);
    }

    #[test]
    fn invalid_variable_rejected() {
        let mut p = Problem::new(Objective::Minimize, 1);
        p.add_constraint(vec![(3, 1.0)], ConstraintOp::Ge, 1.0);
        assert!(matches!(p.solve(), Err(LpError::InvalidVariable { var: 3, .. })));
    }

    #[test]
    fn negative_rhs_handled() {
        // min x s.t. -x <= -2  (i.e. x >= 2)
        let mut p = Problem::new(Objective::Minimize, 1);
        p.set_objective(0, 1.0);
        p.add_constraint(vec![(0, -1.0)], ConstraintOp::Le, -2.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-7);
    }

    #[test]
    fn duplicate_coefficients_summed() {
        // min x s.t. x/2 + x/2 >= 3
        let mut p = Problem::new(Objective::Minimize, 1);
        p.set_objective(0, 1.0);
        p.add_constraint(vec![(0, 0.5), (0, 0.5)], ConstraintOp::Ge, 3.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-7);
    }

    #[test]
    fn zero_variable_problem() {
        let p = Problem::new(Objective::Minimize, 0);
        let sol = p.solve().unwrap();
        assert_eq!(sol.objective, 0.0);
        assert!(sol.values.is_empty());
    }
}
