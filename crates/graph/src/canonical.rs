//! Canonical codes for small patterns.
//!
//! The miner generates candidate patterns by extension and must recognise when two
//! candidates are isomorphic (Definition 2.1.5).  We assign every pattern a
//! *canonical code*: the lexicographically smallest serialisation of the pattern over
//! all vertex orderings.  Two patterns are isomorphic iff their canonical codes are
//! equal.
//!
//! The code of an ordering `π = (u₀, u₁, …)` is the sequence
//! `label(u₀), adj₁, label(u₁), adj₂, label(u₂), …` where `adjᵢ` is the bit pattern of
//! adjacency between `uᵢ` and `u₀…uᵢ₋₁`.  The minimisation is a branch-and-bound over
//! orderings with prefix pruning, which is exact and fast for the pattern sizes that
//! occur in frequent-subgraph mining (≲ 10 vertices).

use crate::{Pattern, VertexId};

/// A canonical code; equality ⇔ isomorphism of the underlying patterns.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CanonicalCode(Vec<u64>);

impl CanonicalCode {
    /// The raw code words.
    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }
}

/// Per-position contribution to the code: the label of the vertex placed at position
/// `i`, followed by its adjacency bitmask towards positions `0..i`.
fn position_words(pattern: &Pattern, placed: &[VertexId], v: VertexId) -> [u64; 2] {
    let mut adj = 0u64;
    for (i, &p) in placed.iter().enumerate() {
        if pattern.has_edge(v, p) {
            adj |= 1 << i;
        }
    }
    [pattern.label(v).0 as u64, adj]
}

struct CanonSearch<'a> {
    pattern: &'a Pattern,
    best: Option<Vec<u64>>,
    placed: Vec<VertexId>,
    current: Vec<u64>,
    used: Vec<bool>,
}

impl<'a> CanonSearch<'a> {
    /// `tight` is true while the current prefix is word-for-word equal to the best
    /// code's prefix; only then may a larger word prune the branch.  Once the prefix
    /// is strictly smaller than the best, every completion improves on the best and no
    /// pruning is allowed.
    fn run(&mut self, tight: bool) {
        let n = self.pattern.num_vertices();
        if self.placed.len() == n {
            let better = match &self.best {
                None => true,
                Some(b) => self.current < *b,
            };
            if better {
                self.best = Some(self.current.clone());
            }
            return;
        }
        for v in 0..n as VertexId {
            if self.used[v as usize] {
                continue;
            }
            // Connectivity-style ordering is not required for correctness; we explore
            // every vertex, relying on prefix pruning for speed.
            let words = position_words(self.pattern, &self.placed, v);
            let pos = self.current.len();
            // Prefix pruning: compare against the best code at the same positions.
            // Sound only because every ordering contributes exactly `2·n` words, so
            // all codes have the same length.
            let mut child_tight = false;
            if tight {
                if let Some(best) = &self.best {
                    let cmp = words[0].cmp(&best[pos]).then_with(|| words[1].cmp(&best[pos + 1]));
                    match cmp {
                        std::cmp::Ordering::Greater => continue,
                        std::cmp::Ordering::Equal => child_tight = true,
                        std::cmp::Ordering::Less => child_tight = false,
                    }
                }
            }
            self.current.push(words[0]);
            self.current.push(words[1]);
            self.used[v as usize] = true;
            self.placed.push(v);
            self.run(child_tight);
            self.placed.pop();
            self.used[v as usize] = false;
            self.current.pop();
            self.current.pop();
        }
    }
}

/// Compute the canonical code of `pattern`.
pub fn canonical_code(pattern: &Pattern) -> CanonicalCode {
    let n = pattern.num_vertices();
    if n == 0 {
        return CanonicalCode(Vec::new());
    }
    let mut search = CanonSearch {
        pattern,
        best: None,
        placed: Vec::with_capacity(n),
        current: Vec::with_capacity(2 * n),
        used: vec![false; n],
    };
    search.run(true);
    CanonicalCode(search.best.expect("at least one ordering"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isomorphism::are_isomorphic;
    use crate::patterns;
    use crate::Label;

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
