//! # ffsm-lp — the covering/packing LP pair behind the relaxed support measures
//!
//! The polynomial-time relaxations of Section 4.3 of the paper are one primal/dual
//! pair.  νMVC (Definition 4.3.1) is the unit-cost fractional *covering* LP
//!
//! ```text
//! min Σ_v x_v   s.t.   Σ_{v ∈ e} x_v ≥ 1 for every set e,   x ≥ 0
//! ```
//!
//! and νMIES (Definition 4.3.2) is its dual, the fractional *packing* LP
//!
//! ```text
//! max Σ_e y_e   s.t.   Σ_{e ∋ v} y_e ≤ 1 for every element v,   y ≥ 0.
//! ```
//!
//! Their optima are equal (Theorem 4.6), so this crate solves the pair once.  A
//! single-phase primal simplex runs on the packing tableau, which is feasible at
//! its slack basis; the packing `y` is read off the basis and the cover `x` off the
//! same tableau, where `x_v` is the reduced cost of the slack of element `v`.
//! Neither vector is trusted: each is checked against the constraints and repaired
//! into a feasible point if rounding or an early stop left it short.  By weak
//! duality the two checked values then bracket the optimum,
//! `Σy = lower ≤ ν ≤ upper = Σx`, whether or not the simplex finished, and the
//! solve reports [`Solution::optimal`] when the gap is at most [`OPTIMALITY_GAP`].
//!
//! * [`covering_lp`] / [`packing_lp`] — the pair, spelled from either side;
//! * [`CoveringLp::solve`] — one simplex run, both checked vectors.
//!
//! ```
//! use ffsm_lp::covering_lp;
//!
//! // Three pairwise-overlapping sets: the fractional optimum is 3/2.
//! let sets = vec![vec![0, 1], vec![1, 2], vec![0, 2]];
//! let sol = covering_lp(3, &sets).solve().unwrap();
//! assert!(sol.optimal);
//! assert!((sol.objective - 1.5).abs() < 1e-9);
//! assert!(sol.objective <= sol.upper && sol.upper - sol.objective <= 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod simplex;

/// Numerical tolerance used throughout the solver.
pub const EPS: f64 = 1e-9;

/// Largest `upper − lower` gap for which a solve reports [`Solution::optimal`].
pub const OPTIMALITY_GAP: f64 = 1e-6;

/// Errors produced by the LP solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    /// A set has no elements: nothing can cover it, so the covering LP is
    /// infeasible (and the packing LP unbounded).
    EmptySet {
        /// Index of the empty set.
        set: usize,
    },
    /// The simplex loop hit its pivot cap.  [`CoveringLp::solve`] does not fail on
    /// it: the checked vectors still bound the optimum, and the solution reports
    /// `optimal == false`.
    IterationLimit,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::EmptySet { set } => write!(f, "set {set} is empty and cannot be covered"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

/// The unit-cost covering LP over elements `0..num_elements` together with its
/// packing dual: one instance, solved from the packing side.
///
/// Each set lists element indices below `num_elements`; an element listed twice in
/// one set counts with coefficient 2 on both sides of the pair.
#[derive(Debug, Clone, Copy)]
pub struct CoveringLp<'a> {
    num_elements: usize,
    sets: &'a [Vec<usize>],
}

/// Both sides of one solve of a [`CoveringLp`].
#[derive(Debug, Clone)]
pub struct Solution {
    /// `Σ y_e` of the checked packing: a lower bound on the optimum ν, and ν itself
    /// (within [`OPTIMALITY_GAP`]) when `optimal`.
    pub objective: f64,
    /// `Σ x_v` of the checked cover: an upper bound on ν.
    pub upper: f64,
    /// A feasible packing, one value per set.
    pub packing: Vec<f64>,
    /// A feasible cover, one value per element.
    pub cover: Vec<f64>,
    /// The simplex ran to completion and `upper − objective ≤ OPTIMALITY_GAP`: the
    /// two bounds meet.  `false` when the pivot cap stopped the simplex early or
    /// rounding left the bounds apart.
    pub optimal: bool,
    /// Number of simplex pivots performed.
    pub pivots: usize,
}

/// The fractional covering LP `min Σ x_v  s.t.  Σ_{v ∈ e} x_v ≥ 1` of `sets` over
/// elements `0..num_elements` — the νMVC relaxation (Definition 4.3.1) when the
/// elements are hypergraph vertices and each set is a hyperedge.  (The `x ≤ 1`
/// bounds of the paper are redundant for unit costs and are omitted.)
pub fn covering_lp(num_elements: usize, sets: &[Vec<usize>]) -> CoveringLp<'_> {
    CoveringLp { num_elements, sets }
}

/// The fractional packing LP `max Σ y_e  s.t.  Σ_{e ∋ v} y_e ≤ 1` of `sets` over
/// elements `0..num_elements` — the νMIES relaxation (Definition 4.3.2).  It is the
/// dual of [`covering_lp`] and the same instance: `num_sets` must equal
/// `sets.len()`.
pub fn packing_lp(num_sets: usize, sets: &[Vec<usize>], num_elements: usize) -> CoveringLp<'_> {
    debug_assert_eq!(num_sets, sets.len(), "one packing variable per set");
    CoveringLp { num_elements, sets }
}

impl CoveringLp<'_> {
    /// Solve the pair with one simplex run and check both vectors.
    ///
    /// Fails only on an empty set.  A run that hits the pivot cap still returns
    /// both checked vectors, with `optimal == false`.
    ///
    /// # Panics
    ///
    /// When a set lists an element `≥ num_elements`.
    pub fn solve(&self) -> Result<Solution, LpError> {
        self.solve_capped(simplex::MAX_PIVOTS)
    }

    pub(crate) fn solve_capped(&self, max_pivots: usize) -> Result<Solution, LpError> {
        if let Some(set) = self.sets.iter().position(Vec::is_empty) {
            return Err(LpError::EmptySet { set });
        }
        let simplex::RawSolve { mut packing, mut cover, pivots, status } =
            simplex::solve_packing(self.num_elements, self.sets, max_pivots);
        let objective = check_packing(&mut packing, self.num_elements, self.sets);
        let upper = check_cover(&mut cover, self.sets);
        Ok(Solution {
            optimal: status.is_ok() && upper - objective <= OPTIMALITY_GAP,
            objective,
            upper,
            packing,
            cover,
            pivots,
        })
    }
}

/// Make `y` a feasible packing and return `Σ y`: negative entries are clamped to 0,
/// then `y` is scaled down by the heaviest element load if any load exceeds 1.
fn check_packing(y: &mut [f64], num_elements: usize, sets: &[Vec<usize>]) -> f64 {
    let mut load = vec![0.0; num_elements];
    for (value, set) in y.iter_mut().zip(sets) {
        *value = value.max(0.0);
        for &v in set {
            load[v] += *value;
        }
    }
    let heaviest = load.into_iter().fold(1.0, f64::max);
    if heaviest > 1.0 {
        y.iter_mut().for_each(|value| *value /= heaviest);
    }
    y.iter().sum()
}

/// Make `x` a feasible cover and return `Σ x`: negative entries are clamped to 0,
/// then every set still short of 1 has its deficit added to its first element.
/// Raising an element only helps the sets not yet visited, so one pass suffices.
fn check_cover(x: &mut [f64], sets: &[Vec<usize>]) -> f64 {
    x.iter_mut().for_each(|value| *value = value.max(0.0));
    for set in sets {
        let coverage: f64 = set.iter().map(|&v| x[v]).sum();
        if coverage < 1.0 {
            x[set[0]] += 1.0 - coverage;
        }
    }
    x.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Largest amount by which `x` misses a covering row (0 when feasible).
    fn cover_violation(x: &[f64], sets: &[Vec<usize>]) -> f64 {
        let negative = x.iter().fold(0.0f64, |worst, &v| worst.max(-v));
        sets.iter().map(|set| 1.0 - set.iter().map(|&v| x[v]).sum::<f64>()).fold(negative, f64::max)
    }

    /// Largest amount by which `y` overloads an element (0 when feasible).
    fn packing_violation(y: &[f64], num_elements: usize, sets: &[Vec<usize>]) -> f64 {
        let mut load = vec![0.0f64; num_elements];
        for (&value, set) in y.iter().zip(sets) {
            set.iter().for_each(|&v| load[v] += value);
        }
        let negative = y.iter().fold(0.0f64, |worst, &v| worst.max(-v));
        load.into_iter().map(|l| l - 1.0).fold(negative, f64::max)
    }

    #[test]
    fn covering_and_packing_are_dual() {
        // Three sets over four elements: optimum 2 (elements 1 and 2; sets 0 and 2).
        let sets = vec![vec![0, 1], vec![1, 2], vec![2, 3]];
        let cover = covering_lp(4, &sets).solve().unwrap();
        let pack = packing_lp(3, &sets, 4).solve().unwrap();
        assert!((cover.objective - pack.objective).abs() < 1e-7);
        assert!((cover.objective - 2.0).abs() < 1e-7);
        assert!(cover.optimal);
    }

    #[test]
    fn fractional_cover_beats_integral() {
        // Triangle hypergraph: each pair is a set; fractional optimum is 1.5.
        let sets = vec![vec![0, 1], vec![1, 2], vec![0, 2]];
        let sol = covering_lp(3, &sets).solve().unwrap();
        assert!((sol.objective - 1.5).abs() < 1e-7);
        assert!((sol.upper - 1.5).abs() < 1e-7);
        for &x in &sol.cover {
            assert!((x - 0.5).abs() < 1e-7, "cover {:?}", sol.cover);
        }
    }

    #[test]
    fn empty_instance_and_empty_set() {
        let sol = covering_lp(3, &[]).solve().unwrap();
        assert_eq!((sol.objective, sol.upper, sol.pivots), (0.0, 0.0, 0));
        assert_eq!(sol.cover, vec![0.0; 3]);
        assert!(sol.optimal);
        let sets = vec![vec![0], vec![]];
        assert_eq!(covering_lp(1, &sets).solve().unwrap_err(), LpError::EmptySet { set: 1 });
    }

    #[test]
    fn unused_and_repeated_elements() {
        // Elements 0, 2 and 4 are in no set: no tableau row, cover value 0.
        let sets = vec![vec![1, 3]];
        let sol = covering_lp(5, &sets).solve().unwrap();
        assert!((sol.objective - 1.0).abs() < 1e-9 && sol.optimal);
        assert_eq!((sol.cover[0], sol.cover[2], sol.cover[4]), (0.0, 0.0, 0.0));
        // An element listed twice counts with coefficient 2: x_0 = 1/2 covers it.
        let sets = vec![vec![0, 0]];
        let sol = covering_lp(1, &sets).solve().unwrap();
        assert!((sol.objective - 0.5).abs() < 1e-9 && (sol.upper - 0.5).abs() < 1e-9);
    }

    #[test]
    fn display_errors() {
        assert!(format!("{}", LpError::EmptySet { set: 5 }).contains('5'));
        assert!(format!("{}", LpError::IterationLimit).contains("limit"));
    }

    #[test]
    fn capped_solves_return_checked_vectors() {
        // Five pairwise-overlapping sets need several pivots.  A zero or one-pivot
        // budget stops early but still yields feasible vectors around ν.
        let sets = vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3], vec![0, 2]];
        let full = covering_lp(4, &sets).solve().unwrap();
        assert!(full.optimal);
        for cap in [0, 1] {
            let sol = covering_lp(4, &sets).solve_capped(cap).unwrap();
            assert!(!sol.optimal, "cap {cap}");
            assert!(sol.objective <= full.objective + 1e-9 && full.objective <= sol.upper + 1e-9);
            assert!(cover_violation(&sol.cover, &sets) <= 1e-12);
            assert!(packing_violation(&sol.packing, 4, &sets) <= 1e-12);
        }
    }

    /// A random covering instance: `sets` over `n` elements, with a duplicate,
    /// dominated or singleton row mixed in.
    fn random_instance(rng: &mut StdRng) -> (usize, Vec<Vec<usize>>) {
        let n = rng.gen_range(1..40);
        let m = rng.gen_range(1..50);
        let mut sets: Vec<Vec<usize>> = (0..m)
            .map(|_| {
                let k = rng.gen_range(1..6.min(n + 1));
                let mut s: Vec<usize> = (0..k).map(|_| rng.gen_range(0..n)).collect();
                s.sort_unstable();
                s.dedup();
                s
            })
            .collect();
        match rng.gen_range(0..4) {
            0 => sets.push(sets[rng.gen_range(0..m)].clone()),
            1 => {
                let mut superset = sets[rng.gen_range(0..m)].clone();
                superset.push(rng.gen_range(0..n));
                superset.sort_unstable();
                superset.dedup();
                sets.push(superset);
            }
            2 => sets.push(vec![rng.gen_range(0..n)]),
            _ => {}
        }
        (n, sets)
    }

    #[test]
    fn random_instances_yield_feasible_bracketing_vectors() {
        // Every solve, capped or not, returns a feasible cover and a feasible
        // packing with lower ≤ upper, and an optimal flag only when the two meet.
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n, sets) = random_instance(&mut rng);
            let cap = [0, 1, 2, 5, simplex::MAX_PIVOTS][rng.gen_range(0..5)];
            let sol = covering_lp(n, &sets).solve_capped(cap).unwrap();
            assert!(cover_violation(&sol.cover, &sets) <= 1e-9, "seed {seed}: cover");
            assert!(packing_violation(&sol.packing, n, &sets) <= 1e-9, "seed {seed}: packing");
            assert!(sol.objective <= sol.upper + 1e-9, "seed {seed}: lower > upper");
            if sol.optimal {
                assert!(sol.upper - sol.objective <= 1e-6, "seed {seed}: optimal with a gap");
            }
            if cap == simplex::MAX_PIVOTS {
                assert!(sol.optimal, "seed {seed}: uncapped solve not optimal");
            }
        }
    }
}
