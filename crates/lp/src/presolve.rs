//! Presolve for the 0/1 covering LPs used by the support-measure relaxations.
//!
//! Occurrence hypergraphs translate into covering LPs with a lot of redundancy:
//! duplicate rows (automorphic occurrences), dominated rows (an occurrence whose image
//! set contains another occurrence's image set contributes a weaker constraint), and
//! columns that appear in no row.  Removing these before the simplex call does not
//! change the optimum but can shrink the tableau dramatically — experiment E13
//! measures the effect on νMVC computation time.
//!
//! The rules here are specialised to the *unit-cost covering* structure
//! (`min Σ x_v, Σ_{v∈e} x_v ≥ 1, x ≥ 0`), which is the only LP family the support
//! measures generate:
//!
//! 1. **empty column** — a ground-set element contained in no row can be dropped;
//! 2. **duplicate row** — identical rows are kept once;
//! 3. **dominated row** — a row that is a superset of another row is implied by it;
//! 4. **singleton row** — a row `{v}` forces `x_v = 1`; the contribution is added to
//!    a constant offset and every row containing `v` is dropped.

use crate::{covering_lp, LpError, Problem, Solution};

/// Outcome of presolving a covering instance.
#[derive(Debug, Clone, PartialEq)]
pub struct PresolvedCovering {
    /// Surviving rows, expressed over the *reduced* column indices.
    pub rows: Vec<Vec<usize>>,
    /// Map from reduced column index to original element index.
    pub columns: Vec<usize>,
    /// Original elements fixed to 1 by singleton rows (their cost is in `offset`).
    pub fixed: Vec<usize>,
    /// Constant added to the reduced LP's objective to recover the original optimum.
    pub offset: f64,
    /// Rule-by-rule counts.
    pub stats: PresolveStats,
}

/// How many reductions each rule performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PresolveStats {
    /// Duplicate rows dropped.
    pub duplicate_rows: usize,
    /// Dominated (superset) rows dropped.
    pub dominated_rows: usize,
    /// Variables fixed to one by singleton rows.
    pub fixed_variables: usize,
    /// Rows dropped because a fixed variable already covers them.
    pub covered_rows: usize,
    /// Columns dropped because no surviving row uses them.
    pub empty_columns: usize,
}

/// `true` if sorted `a` ⊆ sorted `b`.
fn is_subset(a: &[usize], b: &[usize]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut bi = 0;
    for &x in a {
        while bi < b.len() && b[bi] < x {
            bi += 1;
        }
        if bi >= b.len() || b[bi] != x {
            return false;
        }
        bi += 1;
    }
    true
}

/// Presolve the covering instance `min Σ x_v : Σ_{v∈set} x_v ≥ 1` over elements
/// `0..num_elements`.
pub fn presolve_covering(num_elements: usize, sets: &[Vec<usize>]) -> PresolvedCovering {
    let mut stats = PresolveStats::default();
    let mut rows: Vec<Vec<usize>> = sets
        .iter()
        .map(|s| {
            let mut r: Vec<usize> = s.iter().copied().filter(|&v| v < num_elements).collect();
            r.sort_unstable();
            r.dedup();
            r
        })
        .filter(|r| !r.is_empty())
        .collect();
    let mut fixed: Vec<usize> = Vec::new();

    loop {
        let mut changed = false;

        // Rule 4: singleton rows.
        let singletons: std::collections::BTreeSet<usize> =
            rows.iter().filter(|r| r.len() == 1).map(|r| r[0]).collect();
        if !singletons.is_empty() {
            for &v in &singletons {
                if !fixed.contains(&v) {
                    fixed.push(v);
                    stats.fixed_variables += 1;
                }
            }
            let before = rows.len();
            rows.retain(|r| !r.iter().any(|v| singletons.contains(v)));
            stats.covered_rows += before - rows.len();
            changed = true;
        }

        // Rules 2 and 3: duplicates and dominated rows.
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&i| rows[i].len());
        let mut keep = vec![true; rows.len()];
        for (pos, &i) in order.iter().enumerate() {
            if !keep[i] {
                continue;
            }
            for &j in &order[pos + 1..] {
                if keep[j] && is_subset(&rows[i], &rows[j]) {
                    keep[j] = false;
                    if rows[i].len() == rows[j].len() {
                        stats.duplicate_rows += 1;
                    } else {
                        stats.dominated_rows += 1;
                    }
                    changed = true;
                }
            }
        }
        if keep.iter().any(|&k| !k) {
            rows = rows
                .into_iter()
                .enumerate()
                .filter_map(|(i, r)| if keep[i] { Some(r) } else { None })
                .collect();
        }

        if !changed {
            break;
        }
    }

    // Rule 1: densify the surviving columns.
    let mut column_map: std::collections::BTreeMap<usize, usize> =
        std::collections::BTreeMap::new();
    for r in &rows {
        for &v in r {
            let next = column_map.len();
            column_map.entry(v).or_insert(next);
        }
    }
    stats.empty_columns = num_elements.saturating_sub(column_map.len() + fixed.len());
    let columns: Vec<usize> = {
        let mut cols = vec![0usize; column_map.len()];
        for (&orig, &idx) in &column_map {
            cols[idx] = orig;
        }
        cols
    };
    let rows: Vec<Vec<usize>> =
        rows.iter().map(|r| r.iter().map(|v| column_map[v]).collect()).collect();
    fixed.sort_unstable();
    PresolvedCovering { offset: fixed.len() as f64, rows, columns, fixed, stats }
}

impl PresolvedCovering {
    /// Build the reduced covering LP (empty when everything was presolved away).
    pub fn reduced_problem(&self) -> Problem {
        covering_lp(self.columns.len(), &self.rows)
    }

    /// Solve the reduced LP and lift the result back to the original instance: the
    /// objective gains `offset` and fixed variables are reported at value 1.
    pub fn solve(&self, num_elements: usize) -> Result<Solution, LpError> {
        let reduced = if self.columns.is_empty() {
            Solution { objective: 0.0, values: Vec::new(), pivots: 0 }
        } else {
            self.reduced_problem().solve()?
        };
        let mut values = vec![0.0; num_elements];
        for (i, &orig) in self.columns.iter().enumerate() {
            values[orig] = reduced.values[i];
        }
        for &v in &self.fixed {
            values[v] = 1.0;
        }
        Ok(Solution { objective: reduced.objective + self.offset, values, pivots: reduced.pivots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direct_objective(num_elements: usize, sets: &[Vec<usize>]) -> f64 {
        covering_lp(num_elements, sets).solve().unwrap().objective
    }

    #[test]
    fn duplicate_and_dominated_rows_removed() {
        let sets = vec![vec![0, 1], vec![0, 1], vec![0, 1, 2], vec![3, 4]];
        let p = presolve_covering(5, &sets);
        assert_eq!(p.stats.duplicate_rows, 1);
        assert_eq!(p.stats.dominated_rows, 1);
        assert_eq!(p.rows.len(), 2);
        let sol = p.solve(5).unwrap();
        assert!((sol.objective - direct_objective(5, &sets)).abs() < 1e-7);
    }

    #[test]
    fn singleton_rows_fix_variables() {
        let sets = vec![vec![2], vec![2, 3], vec![0, 1]];
        let p = presolve_covering(4, &sets);
        assert_eq!(p.fixed, vec![2]);
        assert_eq!(p.offset, 1.0);
        assert_eq!(p.stats.fixed_variables, 1);
        let sol = p.solve(4).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-7);
        assert!((sol.values[2] - 1.0).abs() < 1e-9);
        assert!((sol.objective - direct_objective(4, &sets)).abs() < 1e-7);
    }

    #[test]
    fn presolve_preserves_optimum_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(4..12);
            let m = rng.gen_range(1..20);
            let sets: Vec<Vec<usize>> = (0..m)
                .map(|_| {
                    let k = rng.gen_range(1..5);
                    let mut s: Vec<usize> = (0..k).map(|_| rng.gen_range(0..n)).collect();
                    s.sort_unstable();
                    s.dedup(); // hyperedges are sets; covering_lp would sum duplicates
                    s
                })
                .collect();
            let direct = direct_objective(n, &sets);
            let presolved = presolve_covering(n, &sets).solve(n).unwrap();
            assert!(
                (direct - presolved.objective).abs() < 1e-6,
                "seed {seed}: direct {direct} presolved {}",
                presolved.objective
            );
            // The lifted point must be feasible for every original row.
            for set in &sets {
                let activity: f64 = set.iter().map(|&v| presolved.values[v]).sum();
                assert!(activity >= 1.0 - 1e-6, "seed {seed}: row {set:?} violated");
            }
        }
    }

    #[test]
    fn fully_presolved_instance_needs_no_simplex() {
        // Only singleton rows.
        let sets = vec![vec![0], vec![3], vec![0]];
        let p = presolve_covering(4, &sets);
        assert!(p.rows.is_empty());
        assert!(p.columns.is_empty());
        let sol = p.solve(4).unwrap();
        assert_eq!(sol.pivots, 0);
        assert!((sol.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_instance() {
        let p = presolve_covering(3, &[]);
        assert!(p.rows.is_empty());
        assert_eq!(p.offset, 0.0);
        assert_eq!(p.stats.empty_columns, 3);
        let sol = p.solve(3).unwrap();
        assert_eq!(sol.objective, 0.0);
        assert_eq!(sol.values, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn out_of_range_elements_are_ignored() {
        let sets = vec![vec![0, 99], vec![1]];
        let p = presolve_covering(2, &sets);
        let sol = p.solve(2).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn triangle_fractional_optimum_survives_presolve() {
        // No rule fires on the triangle instance; optimum stays 1.5.
        let sets = vec![vec![0, 1], vec![1, 2], vec![0, 2]];
        let p = presolve_covering(3, &sets);
        assert_eq!(p.rows.len(), 3);
        assert_eq!(p.stats, PresolveStats::default());
        let sol = p.solve(3).unwrap();
        assert!((sol.objective - 1.5).abs() < 1e-7);
    }
}
