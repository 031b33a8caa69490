//! Canonical codes for patterns of at most [`MAX_VERTICES`] vertices.
//!
//! The miner generates candidate patterns by extension and must recognise when two
//! candidates are isomorphic (Definition 2.1.5).  We assign every pattern a
//! *canonical code*: the lexicographically smallest serialisation of the pattern over
//! all vertex orderings.  Two patterns are isomorphic iff their canonical codes are
//! equal.
//!
//! The code of an ordering `π = (u₀, u₁, …)` is the sequence
//! `label(u₀), adj₀, label(u₁), adj₁, …` where `adjᵢ` is the bit pattern of
//! adjacency between `uᵢ` and `u₀…uᵢ₋₁` (bit `j` set iff `uᵢ ~ uⱼ`).  Every
//! ordering contributes exactly `2·n` words, so the smallest code must place, at
//! each position, a vertex whose word pair `(label, adjᵢ)` is the smallest among
//! the vertices not yet placed.  The search therefore branches only over the
//! vertices tied on that minimal pair, and prunes a branch whose prefix already
//! exceeds the best code found.  The branching is exact, not heuristic: of two
//! tied *twins* — vertices with the same neighbours apart from each other — only
//! the first is tried, because swapping them is an automorphism that fixes the
//! placed prefix and so yields the same codes; every other tie is explored, so
//! the cost still grows with ties that no twin swap explains (an unlabelled
//! cycle visits an ordering per rotation and reflection).
//!
//! The adjacency word is one `u64`, which limits a code to [`MAX_VERTICES`]
//! vertices.  The search keeps each unplaced vertex's placed-neighbour word
//! incrementally in a fixed-size array and allocates nothing but the code it
//! returns.  [`PatternMasks`] exposes the search's input so a caller can code a
//! pattern's one-edge extensions by editing one bitmask instead of building
//! each extension.

use crate::{Label, Pattern, VertexId};

/// The most vertices a canonical code can describe: each adjacency word is a
/// `u64` with one bit per earlier position.
pub const MAX_VERTICES: usize = 64;

/// A canonical code; equality ⇔ isomorphism of the underlying patterns.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalCode(Vec<u64>);

impl CanonicalCode {
    /// The raw code words.
    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }
}

/// A pattern of at most [`MAX_VERTICES`] vertices as per-vertex labels and
/// adjacency bitmasks: the canonical search's input.  Edits are cheap, so a
/// caller can code every one-edge extension of a pattern from one value.
#[derive(Debug, Clone)]
pub struct PatternMasks {
    n: usize,
    labels: [u64; MAX_VERTICES],
    /// `adj[v]` has bit `w` set iff `v ~ w`.
    adj: [u64; MAX_VERTICES],
}

impl PatternMasks {
    /// The masks of `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if `pattern` has more than [`MAX_VERTICES`] vertices.
    pub fn new(pattern: &Pattern) -> Self {
        let n = pattern.num_vertices();
        assert!(
            n <= MAX_VERTICES,
            "canonical codes cover at most {MAX_VERTICES} vertices, got {n}"
        );
        let mut masks = PatternMasks { n, labels: [0; MAX_VERTICES], adj: [0; MAX_VERTICES] };
        for v in 0..n {
            masks.labels[v] = pattern.label(v as VertexId).0 as u64;
            masks.adj[v] = pattern.neighbors(v as VertexId).iter().fold(0, |m, &w| m | 1 << w);
        }
        masks
    }

    /// `true` if the edge `{u, v}` is present.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adj[u as usize] & 1 << v != 0
    }

    /// Add the edge `{u, v}` if absent, remove it if present.
    pub fn flip_edge(&mut self, u: VertexId, v: VertexId) {
        debug_assert!(u != v && (u as usize) < self.n && (v as usize) < self.n);
        self.adj[u as usize] ^= 1 << v;
        self.adj[v as usize] ^= 1 << u;
    }

    /// Append a vertex labelled `label`, joined to vertex `at`.
    ///
    /// # Panics
    ///
    /// Panics if the masks already hold [`MAX_VERTICES`] vertices.
    pub fn push_vertex(&mut self, label: Label, at: VertexId) {
        assert!(self.n < MAX_VERTICES, "canonical codes cover at most {MAX_VERTICES} vertices");
        debug_assert!((at as usize) < self.n);
        let v = self.n;
        self.n += 1;
        self.labels[v] = label.0 as u64;
        self.adj[v] = 0;
        self.flip_edge(at, v as VertexId);
    }

    /// Remove the last vertex and its edges.
    pub fn pop_vertex(&mut self) {
        self.n -= 1;
        let v = self.n;
        let bit = !(1u64 << v);
        for w in bits(self.adj[v]) {
            self.adj[w] &= bit;
        }
    }

    /// Overwrite `code` with the canonical code of the masked pattern, reusing
    /// its buffer.
    pub fn code_into(&self, code: &mut CanonicalCode) {
        code.0.clear();
        if self.n == 0 {
            return;
        }
        let mut search = Search {
            masks: self,
            placed: [0; MAX_VERTICES],
            unused: u64::MAX >> (MAX_VERTICES - self.n),
            current: [0; 2 * MAX_VERTICES],
            best: &mut code.0,
        };
        search.descend(0, false);
    }
}

/// The set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

/// The branch-and-bound over vertex orderings (see the module docs).
struct Search<'a> {
    masks: &'a PatternMasks,
    /// Per vertex: the positions of its placed neighbours, one bit each — the
    /// adjacency word it would contribute if placed next.
    placed: [u64; MAX_VERTICES],
    /// The vertices not placed yet, one bit each.
    unused: u64,
    /// The code words of the current ordering's prefix.
    current: [u64; 2 * MAX_VERTICES],
    /// The smallest complete code found so far (empty before the first).
    best: &'a mut Vec<u64>,
}

impl Search<'_> {
    /// Complete the ordering from position `pos`.  `tight` is true while the
    /// prefix equals the best code's prefix word for word; otherwise the prefix
    /// is strictly smaller (or no code was found yet), so any completion
    /// improves on the best.  Returns `true` if the best code was replaced —
    /// it then shares the prefix through `pos`.
    fn descend(&mut self, pos: usize, tight: bool) -> bool {
        let n = self.masks.n;
        if pos == n {
            if !tight {
                self.best.clear();
                self.best.extend_from_slice(&self.current[..2 * n]);
            }
            return !tight;
        }
        let mut word = (u64::MAX, u64::MAX);
        let mut ties = 0u64;
        for v in bits(self.unused) {
            let candidate = (self.masks.labels[v], self.placed[v]);
            if candidate < word {
                word = candidate;
                ties = 0;
            }
            if candidate == word {
                ties |= 1 << v;
            }
        }
        let mut child_tight = false;
        if tight {
            match word.cmp(&(self.best[2 * pos], self.best[2 * pos + 1])) {
                std::cmp::Ordering::Greater => return false,
                std::cmp::Ordering::Equal => child_tight = true,
                std::cmp::Ordering::Less => {}
            }
        }
        self.current[2 * pos] = word.0;
        self.current[2 * pos + 1] = word.1;
        let mut improved = false;
        // Two tied vertices are twins when they agree on every neighbour but each
        // other; swapping them is then an automorphism fixing the placed prefix,
        // so the later twin's branch yields exactly the earlier one's codes.
        let adj = &self.masks.adj;
        let twins = |u: usize, v: usize| adj[u] & !(1 << v) == adj[v] & !(1 << u);
        let check_twins = ties & (ties - 1) != 0;
        for v in bits(ties) {
            if check_twins && bits(ties & ((1 << v) - 1)).any(|u| twins(u, v)) {
                continue;
            }
            let neighbours = self.masks.adj[v] & self.unused;
            self.unused &= !(1 << v);
            for w in bits(neighbours) {
                self.placed[w] |= 1 << pos;
            }
            if self.descend(pos + 1, child_tight) {
                improved = true;
                child_tight = true;
            }
            for w in bits(neighbours) {
                self.placed[w] &= !(1 << pos);
            }
            self.unused |= 1 << v;
        }
        improved
    }
}

/// Compute the canonical code of `pattern`.
///
/// # Panics
///
/// Panics if `pattern` has more than [`MAX_VERTICES`] vertices.
pub fn canonical_code(pattern: &Pattern) -> CanonicalCode {
    let mut code = CanonicalCode(Vec::with_capacity(2 * pattern.num_vertices()));
    PatternMasks::new(pattern).code_into(&mut code);
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isomorphism::are_isomorphic;
    use crate::patterns;
    use crate::Label;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The definition itself: the smallest code over all `n!` orderings.
    fn brute_force_code(pattern: &Pattern) -> Vec<u64> {
        fn orderings(order: &mut Vec<VertexId>, n: usize, visit: &mut dyn FnMut(&[VertexId])) {
            if order.len() == n {
                return visit(order);
            }
            for v in 0..n as VertexId {
                if !order.contains(&v) {
                    order.push(v);
                    orderings(order, n, visit);
                    order.pop();
                }
            }
        }
        let n = pattern.num_vertices();
        let mut best: Option<Vec<u64>> = None;
        orderings(&mut Vec::new(), n, &mut |order| {
            let mut code = Vec::with_capacity(2 * n);
            for (i, &u) in order.iter().enumerate() {
                let adj =
                    (0..i).filter(|&j| pattern.has_edge(u, order[j])).fold(0, |m, j| m | 1 << j);
                code.extend([pattern.label(u).0 as u64, adj]);
            }
            if best.as_ref().is_none_or(|b| code < *b) {
                best = Some(code);
            }
        });
        best.unwrap_or_default()
    }

    /// A random pattern on `n` vertices (not necessarily connected).
    fn random_pattern(n: usize, labels: u32, density: u32, seed: u64) -> Pattern {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = Pattern::with_capacity(n);
        for _ in 0..n {
            p.add_vertex(Label(rng.gen_range(0..labels)));
        }
        for u in 0..n as VertexId {
            for v in u + 1..n as VertexId {
                if rng.gen_range(0..100) < density {
                    p.add_edge(u, v).unwrap();
                }
            }
        }
        p
    }

    /// `pattern` with its vertex ids permuted by a seeded shuffle.
    fn shuffled(pattern: &Pattern, seed: u64) -> Pattern {
        let n = pattern.num_vertices();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let mut inverse = vec![0; n];
        for (old, &new) in perm.iter().enumerate() {
            inverse[new as usize] = old as VertexId;
        }
        let mut p = Pattern::with_capacity(n);
        for &old in &inverse {
            p.add_vertex(pattern.label(old));
        }
        for (u, v) in pattern.edges() {
            p.add_edge(perm[u as usize], perm[v as usize]).unwrap();
        }
        p
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn code_is_the_minimum_over_all_orderings(
            n in 1usize..=7,
            labels in 1u32..=3,
            density in 10u32..90,
            seed in 0u64..1_000_000,
        ) {
            let pattern = random_pattern(n, labels, density, seed);
            let code = canonical_code(&pattern);
            prop_assert_eq!(code.as_slice().to_vec(), brute_force_code(&pattern));
            prop_assert_eq!(code, canonical_code(&shuffled(&pattern, seed ^ 1)));
        }

        #[test]
        fn equal_codes_iff_isomorphic(
            n in 1usize..=7,
            labels in 1u32..=3,
            density in 10u32..90,
            seed in 0u64..1_000_000,
            flip in 0usize..100,
        ) {
            // `b` is a shuffled copy of `a` with, for an odd `flip`, one vertex
            // pair's edge flipped, so both sides of the equivalence get exercised.
            let a = random_pattern(n, labels, density, seed);
            let mut b = shuffled(&a, seed);
            let (u, v) = ((flip / 2 % n) as VertexId, (flip / 2 / n % n) as VertexId);
            if flip % 2 == 1 && u != v {
                let mut flipped = Pattern::with_capacity(n);
                for w in b.vertices() {
                    flipped.add_vertex(b.label(w));
                }
                for (x, y) in b.edges().filter(|&e| e != (u.min(v), u.max(v))) {
                    flipped.add_edge(x, y).unwrap();
                }
                if !b.has_edge(u, v) {
                    flipped.add_edge(u, v).unwrap();
                }
                b = flipped;
            }
            prop_assert_eq!(canonical_code(&a) == canonical_code(&b), are_isomorphic(&a, &b));
        }
    }

    #[test]
    fn edits_code_like_the_edited_pattern() {
        let parent = patterns::path(&[Label(0), Label(1), Label(0), Label(2)]);
        let mut masks = PatternMasks::new(&parent);
        let mut code = CanonicalCode::default();
        masks.flip_edge(0, 3);
        masks.code_into(&mut code);
        assert_eq!(code, canonical_code(&patterns::extend_with_edge(&parent, 0, 3).unwrap()));
        masks.flip_edge(0, 3);
        masks.push_vertex(Label(1), 2);
        masks.code_into(&mut code);
        assert_eq!(
            code,
            canonical_code(&patterns::extend_with_vertex(&parent, 2, Label(1)).unwrap())
        );
        masks.pop_vertex();
        masks.code_into(&mut code);
        assert_eq!(code, canonical_code(&parent));
    }

    /// Patterns far past the sizes an exhaustive ordering search finishes:
    /// a 24-vertex labelled path and a 12-vertex labelled tree, each coded
    /// equal to a shuffled copy and unequal to a one-label change.
    #[test]
    fn large_labelled_patterns_are_coded() {
        let path = patterns::path(&(0..24).map(|i| Label(i % 3)).collect::<Vec<_>>());
        let mut tree = Pattern::new();
        for i in 0..12u32 {
            tree.add_vertex(Label(i % 2));
        }
        for (u, v) in [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 4),
            (1, 5),
            (2, 6),
            (2, 7),
            (3, 8),
            (4, 9),
            (6, 10),
            (8, 11),
        ] {
            tree.add_edge(u, v).unwrap();
        }
        for pattern in [path, tree] {
            let code = canonical_code(&pattern);
            assert_eq!(code.as_slice().len(), 2 * pattern.num_vertices());
            assert_eq!(code, canonical_code(&shuffled(&pattern, 7)));
            let mut relabelled = Pattern::new();
            for v in pattern.vertices() {
                relabelled.add_vertex(if v == 5 { Label(9) } else { pattern.label(v) });
            }
            for (u, v) in pattern.edges() {
                relabelled.add_edge(u, v).unwrap();
            }
            assert_ne!(code, canonical_code(&relabelled));
        }
    }

    /// Same-label patterns whose ties are all twin swaps, far past the sizes
    /// an exhaustive search over tied orderings finishes: a 24-leaf star, a
    /// 16-clique and `K_{4,5}`, each coded equal to shuffled copies.
    #[test]
    fn twin_heavy_patterns_are_coded() {
        let mut bipartite = Pattern::new();
        for _ in 0..9 {
            bipartite.add_vertex(Label(0));
        }
        for u in 0..4 {
            for v in 4..9 {
                bipartite.add_edge(u, v).unwrap();
            }
        }
        for pattern in [
            patterns::uniform_star(24, Label(0), Label(0)),
            patterns::uniform_clique(16, Label(0)),
            bipartite,
        ] {
            let code = canonical_code(&pattern);
            assert_eq!(code.as_slice().len(), 2 * pattern.num_vertices());
            for seed in 0..3 {
                assert_eq!(code, canonical_code(&shuffled(&pattern, seed)));
            }
        }
    }

    #[test]
    fn sixty_four_vertices_are_coded_and_sixty_five_are_refused() {
        let labels: Vec<Label> = (0..64).map(Label).collect();
        let path = patterns::path(&labels);
        assert_eq!(canonical_code(&path).as_slice().len(), 128);
        let longer = patterns::extend_with_vertex(&path, 63, Label(0)).unwrap();
        assert!(std::panic::catch_unwind(|| canonical_code(&longer)).is_err());
        let mut masks = PatternMasks::new(&path);
        assert!(std::panic::catch_unwind(move || masks.push_vertex(Label(0), 0)).is_err());
    }

    #[test]
    fn identical_patterns_same_code() {
        let a = patterns::uniform_path(4, Label(0));
        let b = patterns::uniform_path(4, Label(0));
        assert_eq!(canonical_code(&a), canonical_code(&b));
    }

    #[test]
    fn relabeled_vertices_same_code() {
        // Path a-b-c built in two different vertex orders.
        let a = patterns::path(&[Label(1), Label(2), Label(3)]);
        let mut b = Pattern::new();
        let v3 = b.add_vertex(Label(3));
        let v1 = b.add_vertex(Label(1));
        let v2 = b.add_vertex(Label(2));
        b.add_edge(v1, v2).unwrap();
        b.add_edge(v2, v3).unwrap();
        assert_eq!(canonical_code(&a), canonical_code(&b));
    }

    #[test]
    fn different_shapes_different_codes() {
        let path = patterns::uniform_path(4, Label(0));
        let star = patterns::uniform_star(3, Label(0), Label(0));
        assert_eq!(path.num_vertices(), star.num_vertices());
        assert_eq!(path.num_edges(), star.num_edges());
        assert_ne!(canonical_code(&path), canonical_code(&star));
    }

    #[test]
    fn different_labels_different_codes() {
        let a = patterns::single_edge(Label(0), Label(1));
        let b = patterns::single_edge(Label(0), Label(2));
        assert_ne!(canonical_code(&a), canonical_code(&b));
    }

    #[test]
    fn code_agrees_with_vf2_isomorphism() {
        let shapes: Vec<Pattern> = vec![
            patterns::uniform_path(4, Label(0)),
            patterns::uniform_star(3, Label(0), Label(0)),
            patterns::cycle(&[Label(0); 4]),
            patterns::cycle(&[Label(0), Label(1), Label(0), Label(1)]),
            patterns::triangle(Label(0), Label(0), Label(1)),
            patterns::triangle(Label(0), Label(1), Label(0)),
            patterns::uniform_clique(4, Label(0)),
        ];
        for (i, a) in shapes.iter().enumerate() {
            for (j, b) in shapes.iter().enumerate() {
                assert_eq!(
                    canonical_code(a) == canonical_code(b),
                    are_isomorphic(a, b),
                    "disagreement between canonical code and VF2 on shapes {i} and {j}"
                );
            }
        }
    }

    #[test]
    fn empty_and_single_vertex() {
        assert_eq!(canonical_code(&Pattern::new()).as_slice().len(), 0);
        let v = patterns::single_vertex(Label(5));
        assert_eq!(canonical_code(&v).as_slice(), &[5, 0]);
    }
}
