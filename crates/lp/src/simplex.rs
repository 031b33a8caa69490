//! Single-phase primal simplex over the dense packing tableau.
//!
//! The packing LP `max Σ y_e  s.t.  Σ_{e ∋ v} y_e + s_v = 1` is feasible at its
//! slack basis (`y = 0`, `s = 1`), so no phase 1 is needed.  The tableau is kept in
//! minimisation form (`min −Σ y`); at the end the packing is read off the basis and
//! the cover off the objective row, where the reduced cost of slack `s_v` is the
//! dual value `x_v`.
//!
//! The implementation favours robustness over raw speed: Dantzig's rule picks the
//! entering column for the first [`DANTZIG_PIVOTS`] pivots, then Bland's rule takes
//! over for both entering and leaving choices, which rules out cycling; every pivot
//! is a full row elimination, and the [`MAX_PIVOTS`] cap surfaces as the typed
//! [`LpError::IterationLimit`].  The covering/packing LPs of the support measures
//! have at most a few thousand rows and columns, for which this is sufficient.

use crate::{LpError, EPS};

/// Hard cap on the number of pivots.
pub(crate) const MAX_PIVOTS: usize = 200_000;

/// Number of initial pivots that use Dantzig's rule (most negative reduced cost)
/// before switching to Bland's rule.  Dantzig is usually much faster; Bland
/// guarantees termination.
const DANTZIG_PIVOTS: usize = 20_000;

/// Preferred lower bound on a pivot element: dividing a row by a near-epsilon
/// element multiplies every entry by its reciprocal, and a handful of such pivots
/// is enough to blow the tableau up into garbage reduced costs.
const PIVOT_TOL: f64 = 1e-7;

/// Every row whose entry in the pivot column exceeds this is eliminated.  A row
/// skipped at a larger entry keeps that entry in what is now a basic column, an
/// error of `entry × |pivot row|` that compounds over thousands of pivots (at
/// `1e-9` it stalled a 300-element, 900-set instance at the pivot cap with
/// garbage bounds); below this size the entry is rounding noise.
const ELIMINATION_FLOOR: f64 = 1e-14;

/// Reduced costs accumulate rounding noise over long runs; a column whose reduced
/// cost is negative only at this dust level and has no usable pivot row is
/// numerical debris, not an improving direction.
const DUST: f64 = 1e-7;

struct Tableau {
    /// rows × (num_vars + 1); the last column is the right-hand side.
    rows: Vec<Vec<f64>>,
    /// Objective row (reduced costs) of `min −Σ y`, length num_vars + 1; the last
    /// entry is minus that objective, i.e. the current packing value `Σ y`.
    obj: Vec<f64>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    num_vars: usize,
    pivots: usize,
}

impl Tableau {
    /// The packing tableau at its slack basis: one row per element, where element
    /// `v` is row `row_of[v]` of `num_rows`, columns `0..sets.len()` for the set
    /// variables `y`, then one slack per row.
    fn packing(sets: &[Vec<usize>], row_of: &[usize], num_rows: usize) -> Tableau {
        let num_sets = sets.len();
        let num_vars = num_sets + num_rows;
        let mut rows = vec![vec![0.0; num_vars + 1]; num_rows];
        for (e, set) in sets.iter().enumerate() {
            for &v in set {
                rows[row_of[v]][e] += 1.0;
            }
        }
        for (v, row) in rows.iter_mut().enumerate() {
            row[num_sets + v] = 1.0;
            row[num_vars] = 1.0;
        }
        let mut obj = vec![0.0; num_vars + 1];
        obj[..num_sets].fill(-1.0);
        Tableau { rows, obj, basis: (num_sets..num_vars).collect(), num_vars, pivots: 0 }
    }

    /// Choose the entering column: Dantzig (most negative reduced cost) for the first
    /// [`DANTZIG_PIVOTS`], then Bland (lowest index with negative reduced cost).
    fn choose_entering(&self, banned: &[bool]) -> Option<usize> {
        let candidates = (0..self.num_vars).filter(|&j| !banned[j] && self.obj[j] < -EPS);
        if self.pivots < DANTZIG_PIVOTS {
            let mut best: Option<usize> = None;
            for j in candidates {
                if best.is_none_or(|b| self.obj[j] < self.obj[b]) {
                    best = Some(j);
                }
            }
            best
        } else {
            candidates.min()
        }
    }

    /// Ratio test: choose the leaving row for entering column `col`, among rows
    /// whose entry exceeds `pivot_tol`.
    ///
    /// In the Dantzig phase (`bland == false`) near-tied ratios are broken in favour
    /// of the largest pivot element, which keeps the tableau numerically tame on the
    /// massively degenerate covering/packing LPs (index-based tie-breaking let
    /// rounding noise compound into garbage objectives).  In Bland mode ties go to
    /// the *lowest basic-variable index*, which together with Bland's entering rule
    /// guarantees termination on degenerate LPs.
    fn choose_leaving(&self, col: usize, pivot_tol: f64, bland: bool) -> Option<usize> {
        let rhs_col = self.num_vars;
        // (row, ratio, pivot element, basic-variable index)
        let mut best: Option<(usize, f64, f64, usize)> = None;
        for (i, row) in self.rows.iter().enumerate() {
            let a = row[col];
            if a <= pivot_tol {
                continue;
            }
            let ratio = row[rhs_col] / a;
            let better = match best {
                None => true,
                Some((_, br, ba, bb)) => {
                    let better_tie = if bland { self.basis[i] < bb } else { a > ba };
                    ratio < br - EPS || (ratio < br + EPS && better_tie)
                }
            };
            if better {
                best = Some((i, ratio, a, self.basis[i]));
            }
        }
        best.map(|(i, _, _, _)| i)
    }

    /// Perform a pivot on (row, col).
    fn pivot(&mut self, row: usize, col: usize) {
        let mut pivot_row = std::mem::take(&mut self.rows[row]);
        let inv = 1.0 / pivot_row[col];
        pivot_row.iter_mut().for_each(|x| *x *= inv);
        for r in self.rows.iter_mut().chain(std::iter::once(&mut self.obj)) {
            // The taken pivot row is empty and skips itself.
            let Some(&factor) = r.get(col) else { continue };
            if factor.abs() > ELIMINATION_FLOOR {
                for (x, p) in r.iter_mut().zip(&pivot_row) {
                    *x -= factor * p;
                }
                r[col] = 0.0; // kill numerical dust
            }
        }
        self.rows[row] = pivot_row;
        self.basis[row] = col;
        self.pivots += 1;
    }

    /// Pivot until no column improves the objective, or fail with
    /// [`LpError::IterationLimit`] when another pivot is due after `max_pivots`.
    fn optimize(&mut self, max_pivots: usize) -> Result<(), LpError> {
        // A column with no usable pivot row is excluded for the rest of the run.
        // The packing LP is bounded, so such a column is never a true improving
        // ray; the checked gap decides whether the run still reached the optimum.
        let mut banned = vec![false; self.num_vars];
        loop {
            let Some(col) = self.choose_entering(&banned) else {
                return Ok(());
            };
            if self.pivots >= max_pivots {
                return Err(LpError::IterationLimit);
            }
            let bland = self.pivots >= DANTZIG_PIVOTS;
            // A column that improves the objective for real but has no entry above
            // the preferred tolerance falls back to the raw feasibility threshold:
            // a tiny pivot is better than a column left out.
            let row = self.choose_leaving(col, PIVOT_TOL, bland).or_else(|| {
                (self.obj[col] <= -DUST).then(|| self.choose_leaving(col, EPS, bland)).flatten()
            });
            match row {
                Some(row) => self.pivot(row, col),
                None => banned[col] = true,
            }
        }
    }
}

/// The unchecked outcome of one simplex run on the packing tableau.
pub(crate) struct RawSolve {
    /// `y`, one value per set, read off the basis.
    pub packing: Vec<f64>,
    /// `x`, one value per element: the reduced costs of the slacks.
    pub cover: Vec<f64>,
    pub pivots: usize,
    /// `Err(IterationLimit)` when the pivot cap ended the run early.  The basis is
    /// primal feasible either way, so the vectors are read the same.
    pub status: Result<(), LpError>,
}

/// Run the simplex on the packing LP of `sets` for at most `max_pivots` pivots.
pub(crate) fn solve_packing(
    num_elements: usize,
    sets: &[Vec<usize>],
    max_pivots: usize,
) -> RawSolve {
    // Only elements some set uses get a row; any other element is 0 in the cover.
    let mut row_of = vec![usize::MAX; num_elements];
    let mut elements = Vec::new();
    for &v in sets.iter().flatten() {
        if row_of[v] == usize::MAX {
            row_of[v] = elements.len();
            elements.push(v);
        }
    }
    let mut tab = Tableau::packing(sets, &row_of, elements.len());
    let status = tab.optimize(max_pivots);
    let num_sets = sets.len();
    let mut packing = vec![0.0; num_sets];
    for (row, &b) in tab.rows.iter().zip(&tab.basis) {
        if b < num_sets {
            packing[b] = row[tab.num_vars];
        }
    }
    let mut cover = vec![0.0; num_elements];
    for (&v, &reduced_cost) in elements.iter().zip(&tab.obj[num_sets..tab.num_vars]) {
        cover[v] = reduced_cost;
    }
    RawSolve { packing, cover, pivots: tab.pivots, status }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_cap_surfaces_as_typed_error() {
        // The five-set instance needs a handful of pivots; a one-pivot budget must
        // not loop or panic but return the typed iteration-limit error.
        let sets = vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3], vec![0, 2]];
        let mut tab = Tableau::packing(&sets, &[0, 1, 2, 3], 4);
        assert_eq!(tab.optimize(1), Err(LpError::IterationLimit));
        assert_eq!(tab.pivots, 1);
        let mut tab = Tableau::packing(&sets, &[0, 1, 2, 3], 4);
        assert_eq!(tab.optimize(MAX_PIVOTS), Ok(()));
    }

    #[test]
    fn slack_reduced_costs_are_the_cover() {
        // Path 0-1-2-3 as three sets: optimum 2, cover (0, 1, 1, 0) or similar; the
        // raw reduced costs at the optimum already cover every set.
        let sets = vec![vec![0, 1], vec![1, 2], vec![2, 3]];
        let raw = solve_packing(4, &sets, MAX_PIVOTS);
        let (y, x) = (raw.packing, raw.cover);
        assert_eq!(raw.status, Ok(()));
        assert!((y.iter().sum::<f64>() - 2.0).abs() < 1e-9);
        assert!((x.iter().sum::<f64>() - 2.0).abs() < 1e-9);
        for set in &sets {
            assert!(set.iter().map(|&v| x[v]).sum::<f64>() >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn larger_random_covering_lp_consistency() {
        // Fractional covering optimum must be positive and at most the number of
        // elements.  Deterministic pseudo-random instance.
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
        let sol = crate::covering_lp(n_elem, &sets).solve().unwrap();
        assert!(sol.optimal);
        assert!(sol.objective > 0.0);
        assert!(sol.upper <= n_elem as f64 + 1e-9);
    }

    #[test]
    fn bland_mode_terminates_on_degenerate_instances() {
        // Many duplicate rows make every pivot degenerate; the run must still end
        // at the optimum well inside the cap.
        let sets: Vec<Vec<usize>> = (0..12).map(|i| vec![i % 3, (i + 1) % 3]).collect();
        let mut tab = Tableau::packing(&sets, &[0, 1, 2], 3);
        tab.pivots = DANTZIG_PIVOTS; // Bland's rules from the first pivot
        assert_eq!(tab.optimize(DANTZIG_PIVOTS + 1_000), Ok(()));
        // The rhs entry of the objective row is −(−Σ y) = Σ y.
        let packing_value = tab.obj[tab.num_vars];
        assert!((packing_value - 1.5).abs() < 1e-9, "got {packing_value}");
    }

    #[test]
    fn elimination_keeps_the_gap_at_rounding_level() {
        // A 91-element, 250-set instance from a fixed xorshift stream.  Skipping
        // rows whose pivot-column entry was below 1e-9 left a 1e-7 gap here.
        let mut seed = 0x0bad_cafe_1234_5678u64;
        let mut next = move |m: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % m as u64) as usize
        };
        let instance = |next: &mut dyn FnMut(usize) -> usize| {
            let n = 20 + next(100);
            let m = 2 * n + next(2 * n);
            let sets: Vec<Vec<usize>> = (0..m)
                .map(|_| {
                    let k = 2 + next(4);
                    let mut s: Vec<usize> = (0..k).map(|_| next(n)).collect();
                    s.sort_unstable();
                    s.dedup();
                    s
                })
                .collect();
            (n, sets)
        };
        for _ in 0..101 {
            instance(&mut next);
        }
        let (n, sets) = instance(&mut next);
        assert_eq!((n, sets.len()), (91, 250));
        let sol = crate::covering_lp(n, &sets).solve().unwrap();
        assert!(sol.upper - sol.objective <= 1e-10, "gap {}", sol.upper - sol.objective);
    }

    #[test]
    fn cover_values_are_within_bounds() {
        let sets = vec![vec![0, 1, 2], vec![2, 3], vec![0, 3]];
        let sol = crate::covering_lp(4, &sets).solve().unwrap();
        for &v in &sol.cover {
            assert!((-1e-9..=1.0 + 1e-9).contains(&v));
        }
    }
}
