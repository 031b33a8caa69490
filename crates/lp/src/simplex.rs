//! Two-phase primal simplex over a dense tableau.
//!
//! The implementation favours robustness over raw speed: Bland's anti-cycling rule is
//! used for both entering and leaving pivot selection (after an initial Dantzig
//! phase), every pivot is performed with full row elimination, and a configurable
//! iteration budget guards against pathological inputs, surfacing as a typed
//! [`LpError::IterationLimit`].  The LPs solved in this project (covering / packing relaxations
//! of support measures) have at most a few thousand rows and columns, for which this is
//! more than sufficient.

use crate::standard::StandardForm;
use crate::{LpError, EPS};

/// Options controlling the simplex solver.
#[derive(Debug, Clone, Copy)]
pub struct SimplexOptions {
    /// Hard cap on the number of pivots across both phases.
    pub max_pivots: usize,
    /// Number of initial pivots that use Dantzig's rule (most-negative reduced cost)
    /// before switching to Bland's rule.  Dantzig is usually much faster; Bland
    /// guarantees termination.
    pub dantzig_pivots: usize,
}

impl Default for SimplexOptions {
    fn default() -> Self {
        SimplexOptions { max_pivots: 200_000, dantzig_pivots: 20_000 }
    }
}

/// Final status of a simplex run (used internally; the public API surfaces errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The problem is infeasible.
    Infeasible,
    /// The problem is unbounded.
    Unbounded,
}

/// Raw solution of a standard-form LP: values for *all* variables (structural and
/// auxiliary) plus pivot count.
#[derive(Debug, Clone)]
pub(crate) struct RawSolution {
    pub values: Vec<f64>,
    pub pivots: usize,
}

struct Tableau {
    /// rows × (num_vars + 1); the last column is the right-hand side.
    rows: Vec<Vec<f64>>,
    /// Objective row (reduced costs), length num_vars + 1; last entry is -objective.
    obj: Vec<f64>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    num_vars: usize,
    pivots: usize,
}

impl Tableau {
    fn new(sf: &StandardForm) -> Tableau {
        let m = sf.num_rows();
        let num_vars = sf.num_vars;
        let mut rows = Vec::with_capacity(m);
        for i in 0..m {
            let mut row = Vec::with_capacity(num_vars + 1);
            row.extend_from_slice(&sf.a[i]);
            row.push(sf.b[i]);
            rows.push(row);
        }
        Tableau {
            rows,
            obj: vec![0.0; num_vars + 1],
            basis: sf.initial_basis.clone(),
            num_vars,
            pivots: 0,
        }
    }

    /// Install an objective `costs` (length num_vars) and price it out with respect to
    /// the current basis so that reduced costs of basic variables are zero.
    fn set_objective(&mut self, costs: &[f64]) {
        self.obj = vec![0.0; self.num_vars + 1];
        self.obj[..self.num_vars].copy_from_slice(costs);
        // Price out basic variables: obj -= cost(basic) * row
        for (i, &b) in self.basis.iter().enumerate() {
            let cost = costs[b];
            if cost.abs() > EPS {
                for (o, r) in self.obj.iter_mut().zip(self.rows[i].iter()) {
                    *o -= cost * r;
                }
            }
        }
    }

    /// Current objective value (for the minimisation orientation of the tableau).
    fn objective_value(&self) -> f64 {
        -self.obj[self.num_vars]
    }

    /// Choose the entering column: Dantzig (most negative reduced cost) for the first
    /// `dantzig_pivots`, then Bland (lowest index with negative reduced cost).
    fn choose_entering(
        &self,
        allow: &dyn Fn(usize) -> bool,
        opts: &SimplexOptions,
    ) -> Option<usize> {
        if self.pivots < opts.dantzig_pivots {
            let mut best: Option<(usize, f64)> = None;
            for j in 0..self.num_vars {
                if !allow(j) {
                    continue;
                }
                let rc = self.obj[j];
                if rc < -EPS {
                    match best {
                        Some((_, b)) if rc >= b => {}
                        _ => best = Some((j, rc)),
                    }
                }
            }
            best.map(|(j, _)| j)
        } else {
            (0..self.num_vars).find(|&j| allow(j) && self.obj[j] < -EPS)
        }
    }

    /// Ratio test: choose the leaving row for entering column `col`.
    /// Returns `None` if the column is unbounded.
    ///
    /// In the initial Dantzig phase (`bland == false`) near-tied ratios are broken in
    /// favour of the largest pivot element, which keeps the tableau numerically tame
    /// on the massively degenerate covering/packing LPs this solver exists for
    /// (index-based tie-breaking let rounding noise compound into garbage objectives).
    /// Once the pivot count crosses `dantzig_pivots` the caller switches to Bland mode
    /// (`bland == true`): ties are then broken by the *lowest basic-variable index*,
    /// which together with Bland's entering rule guarantees termination on degenerate
    /// LPs; the `max_pivots` budget remains the hard backstop and surfaces as
    /// [`LpError::IterationLimit`].
    ///
    /// Only entries above `pivot_tol` qualify as pivots: dividing a row by a
    /// near-epsilon element multiplies every entry by its reciprocal, and a handful of
    /// such pivots is enough to blow the tableau up into garbage reduced costs.  The
    /// caller retries with the raw feasibility epsilon before concluding a column is
    /// an unbounded ray.
    fn choose_leaving(&self, col: usize, pivot_tol: f64, bland: bool) -> Option<usize> {
        let rhs_col = self.num_vars;
        // (row, ratio, pivot element, basic-variable index)
        let mut best: Option<(usize, f64, f64, usize)> = None;
        for i in 0..self.rows.len() {
            let a = self.rows[i][col];
            if a > pivot_tol {
                let ratio = self.rows[i][rhs_col] / a;
                match best {
                    None => best = Some((i, ratio, a, self.basis[i])),
                    Some((_, br, ba, bb)) => {
                        let better_tie = if bland { self.basis[i] < bb } else { a > ba };
                        if ratio < br - EPS || (ratio < br + EPS && better_tie) {
                            best = Some((i, ratio, a, self.basis[i]));
                        }
                    }
                }
            }
        }
        best.map(|(i, _, _, _)| i)
    }

    /// Perform a pivot on (row, col).
    fn pivot(&mut self, row: usize, col: usize) {
        let pivot_val = self.rows[row][col];
        debug_assert!(pivot_val.abs() > EPS);
        let inv = 1.0 / pivot_val;
        for x in self.rows[row].iter_mut() {
            *x *= inv;
        }
        // snapshot pivot row to avoid borrow issues
        let pivot_row = self.rows[row].clone();
        for (i, r) in self.rows.iter_mut().enumerate() {
            if i == row {
                continue;
            }
            let factor = r[col];
            if factor.abs() > EPS {
                for (x, p) in r.iter_mut().zip(pivot_row.iter()) {
                    *x -= factor * p;
                }
                r[col] = 0.0; // kill numerical dust
            }
        }
        let factor = self.obj[col];
        if factor.abs() > EPS {
            for (x, p) in self.obj.iter_mut().zip(pivot_row.iter()) {
                *x -= factor * p;
            }
            self.obj[col] = 0.0;
        }
        self.basis[row] = col;
        self.pivots += 1;
    }

    /// Run the simplex loop until optimal / unbounded / iteration limit.
    fn optimize(
        &mut self,
        allow: &dyn Fn(usize) -> bool,
        opts: &SimplexOptions,
    ) -> Result<SolveStatus, LpError> {
        // Reduced costs accumulate rounding noise over long runs; a column whose
        // reduced cost is negative only at dust level (between -DUST and -EPS) and has
        // no usable pivot row is numerical debris, not an improving ray.  Such columns
        // are excluded for the rest of this optimize call instead of being reported as
        // an unbounded direction.
        const DUST: f64 = 1e-7;
        const PIVOT_TOL: f64 = 1e-7;
        let mut banned = vec![false; self.num_vars];
        loop {
            if self.pivots > opts.max_pivots {
                return Err(LpError::IterationLimit);
            }
            let usable = |j: usize| allow(j) && !banned[j];
            let Some(col) = self.choose_entering(&usable, opts) else {
                return Ok(SolveStatus::Optimal);
            };
            let bland = self.pivots >= opts.dantzig_pivots;
            match self.choose_leaving(col, PIVOT_TOL, bland) {
                Some(row) => self.pivot(row, col),
                None if self.obj[col] > -DUST => {
                    banned[col] = true;
                }
                // The column improves the objective for real but has no entry above
                // the preferred pivot tolerance.  Before declaring the LP unbounded,
                // fall back to the raw feasibility threshold: a tiny pivot is better
                // than a wrong verdict.
                None => match self.choose_leaving(col, EPS, bland) {
                    Some(row) => self.pivot(row, col),
                    None => return Ok(SolveStatus::Unbounded),
                },
            }
        }
    }

    /// Extract the value of every variable from the current basis.
    fn values(&self) -> Vec<f64> {
        let mut vals = vec![0.0; self.num_vars];
        let rhs_col = self.num_vars;
        for (i, &b) in self.basis.iter().enumerate() {
            vals[b] = self.rows[i][rhs_col].max(0.0);
        }
        vals
    }
}

/// Solve a standard-form LP with the two-phase simplex method.
pub(crate) fn solve_standard(
    sf: &StandardForm,
    opts: &SimplexOptions,
) -> Result<RawSolution, LpError> {
    let mut tab = Tableau::new(sf);
    let is_artificial = {
        let mut flags = vec![false; sf.num_vars];
        for &a in &sf.artificial {
            flags[a] = true;
        }
        flags
    };

    // ---- Phase 1: minimise the sum of artificial variables. ----
    if !sf.artificial.is_empty() {
        let mut phase1_costs = vec![0.0; sf.num_vars];
        for &a in &sf.artificial {
            phase1_costs[a] = 1.0;
        }
        tab.set_objective(&phase1_costs);
        let status = tab.optimize(&|_| true, opts)?;
        if status == SolveStatus::Unbounded {
            // Phase-1 objective is bounded below by zero; unbounded cannot happen.
            return Err(LpError::Infeasible);
        }
        if tab.objective_value() > 1e-7 {
            return Err(LpError::Infeasible);
        }
        // Drive any artificial variables that remain basic (at value 0) out of the
        // basis so that phase 2 never re-increases them.
        for i in 0..tab.basis.len() {
            if is_artificial[tab.basis[i]] {
                // Find a non-artificial column with a nonzero coefficient in this row.
                let col =
                    (0..sf.num_vars).find(|&j| !is_artificial[j] && tab.rows[i][j].abs() > EPS);
                if let Some(col) = col {
                    tab.pivot(i, col);
                }
                // If no such column exists the row is redundant; the artificial stays
                // basic at value zero, which is harmless as long as it is never allowed
                // to enter (guaranteed by the phase-2 `allow` filter below never letting
                // it *re-enter*; it is already basic and its value is 0).
            }
        }
    }

    // ---- Phase 2: minimise the real objective over non-artificial columns. ----
    tab.set_objective(&sf.c);
    let allow = |j: usize| !is_artificial[j];
    let status = tab.optimize(&allow, opts)?;
    match status {
        SolveStatus::Optimal => Ok(RawSolution { values: tab.values(), pivots: tab.pivots }),
        SolveStatus::Unbounded => Err(LpError::Unbounded),
        SolveStatus::Infeasible => Err(LpError::Infeasible),
    }
}

#[cfg(test)]
mod tests {
    use crate::problem::{ConstraintOp, Objective, Problem};

    fn solve(p: &Problem) -> crate::Solution {
        p.solve().expect("solvable")
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A degenerate LP known to cycle under naive Dantzig without anti-cycling.
        // (Beale's example.)
        let mut p = Problem::new(Objective::Minimize, 4);
        p.set_objective(0, -0.75);
        p.set_objective(1, 150.0);
        p.set_objective(2, -0.02);
        p.set_objective(3, 6.0);
        p.add_constraint(vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)], ConstraintOp::Le, 0.0);
        p.add_constraint(vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)], ConstraintOp::Le, 0.0);
        p.add_constraint(vec![(2, 1.0)], ConstraintOp::Le, 1.0);
        let sol = solve(&p);
        assert!((sol.objective - (-0.05)).abs() < 1e-6, "got {}", sol.objective);
    }

    #[test]
    fn redundant_equality_rows() {
        // x + y = 2 stated twice; max x.
        let mut p = Problem::new(Objective::Maximize, 2);
        p.set_objective(0, 1.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 2.0);
        p.add_constraint(vec![(0, 1.0), (1, 1.0)], ConstraintOp::Eq, 2.0);
        let sol = solve(&p);
        assert!((sol.objective - 2.0).abs() < 1e-7);
    }

    #[test]
    fn larger_random_covering_lp_consistency() {
        // Fractional covering optimum must always be <= integral greedy cover size and
        // >= (number of disjoint sets).  Deterministic pseudo-random instance.
        let mut seed = 12345u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        let n_elem = 30;
        let mut sets = Vec::new();
        for _ in 0..40 {
            let len = 2 + next() % 4;
            let mut s: Vec<usize> = (0..len).map(|_| next() % n_elem).collect();
            s.sort_unstable();
            s.dedup();
            sets.push(s);
        }
        let cover = crate::covering_lp(n_elem, &sets).solve().unwrap();
        let pack = crate::packing_lp(sets.len(), &sets, n_elem).solve().unwrap();
        assert!((cover.objective - pack.objective).abs() < 1e-6);
        assert!(cover.objective > 0.0);
        assert!(cover.objective <= n_elem as f64 + 1e-9);
    }

    #[test]
    fn iteration_cap_surfaces_as_typed_error() {
        // A covering LP needs a handful of pivots; a one-pivot budget must not loop
        // or panic but return the typed iteration-limit error.
        let sets = vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3], vec![0, 2]];
        let mut p = crate::covering_lp(4, &sets);
        p.options = crate::SimplexOptions { max_pivots: 1, dantzig_pivots: 0 };
        assert!(matches!(p.solve(), Err(crate::LpError::IterationLimit)));
    }

    #[test]
    fn bland_mode_solves_degenerate_problems() {
        // Force Bland's entering *and* leaving rules from the very first pivot on
        // Beale's cycling example: the run must terminate at the true optimum well
        // inside the pivot budget instead of cycling.
        let mut p = Problem::new(Objective::Minimize, 4);
        p.set_objective(0, -0.75);
        p.set_objective(1, 150.0);
        p.set_objective(2, -0.02);
        p.set_objective(3, 6.0);
        p.add_constraint(vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)], ConstraintOp::Le, 0.0);
        p.add_constraint(vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)], ConstraintOp::Le, 0.0);
        p.add_constraint(vec![(2, 1.0)], ConstraintOp::Le, 1.0);
        p.options = crate::SimplexOptions { max_pivots: 10_000, dantzig_pivots: 0 };
        let sol = solve(&p);
        assert!((sol.objective - (-0.05)).abs() < 1e-6, "got {}", sol.objective);
        assert!(sol.pivots < 1_000, "Bland mode took {} pivots", sol.pivots);
    }

    #[test]
    fn values_are_within_bounds() {
        let sets = vec![vec![0, 1, 2], vec![2, 3], vec![0, 3]];
        let sol = crate::covering_lp(4, &sets).solve().unwrap();
        for &v in &sol.values {
            assert!((-1e-9..=1.0 + 1e-9).contains(&v));
        }
    }
}
