//! Candidate generation: grow a pattern by one edge.
//!
//! Two kinds of extension keep the search space complete for connected patterns:
//!
//! * **edge extensions** — connect two existing, non-adjacent pattern nodes;
//! * **vertex extensions** — attach a new node (with any label from the alphabet) to
//!   an existing node.
//!
//! Candidates are later de-duplicated by canonical code, so the generator does not
//! need to avoid producing isomorphic duplicates.

use ffsm_graph::canonical::{canonical_code, CanonicalCode};
use ffsm_graph::{patterns, Label, Pattern};

/// All single-edge extensions of `pattern` over the given label alphabet.
pub fn extensions(pattern: &Pattern, alphabet: &[Label]) -> Vec<Pattern> {
    let mut out = Vec::new();
    let n = pattern.num_vertices() as u32;
    // Edge extensions between existing vertices.
    for u in 0..n {
        for v in (u + 1)..n {
            if let Some(p) = patterns::extend_with_edge(pattern, u, v) {
                out.push(p);
            }
        }
    }
    // Vertex extensions.
    for at in 0..n {
        for &label in alphabet {
            if let Some(p) = patterns::extend_with_vertex(pattern, at, label) {
                out.push(p);
            }
        }
    }
    out
}

/// Deduplicate a batch of candidate patterns by canonical code, preserving the first
/// representative of each isomorphism class and skipping codes already in `seen`.
pub fn dedupe_by_canonical_code(
    candidates: Vec<Pattern>,
    seen: &mut std::collections::HashSet<CanonicalCode>,
) -> Vec<Pattern> {
    dedupe_with_codes(candidates, seen).into_iter().map(|(pattern, _)| pattern).collect()
}

/// [`dedupe_by_canonical_code`], but keeping each survivor's canonical code —
/// the mining engine threads the codes through to the per-pattern
/// [`EvalCache`](crate::EvalCache) instead of canonicalising twice.
pub fn dedupe_with_codes(
    candidates: Vec<Pattern>,
    seen: &mut std::collections::HashSet<CanonicalCode>,
) -> Vec<(Pattern, CanonicalCode)> {
    let mut out = Vec::new();
    for candidate in candidates {
        let code = canonical_code(&candidate);
        if seen.insert(code.clone()) {
            out.push((candidate, code));
        }
    }
    out
}

/// All frequent single-edge seed patterns of a graph: one pattern per unordered label
/// pair that actually occurs on at least one edge.
pub fn seed_patterns(graph: &ffsm_graph::LabeledGraph) -> Vec<Pattern> {
    let mut pairs: std::collections::BTreeSet<(Label, Label)> = std::collections::BTreeSet::new();
    for (u, v) in graph.edges() {
        let (a, b) = (graph.label(u), graph.label(v));
        pairs.insert(if a <= b { (a, b) } else { (b, a) });
    }
    pairs.into_iter().map(|(a, b)| patterns::single_edge(a, b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffsm_graph::LabeledGraph;

    #[test]
    fn seed_patterns_cover_label_pairs() {
        let g = LabeledGraph::from_edges(&[0, 1, 1, 2], &[(0, 1), (1, 2), (2, 3)]);
        let seeds = seed_patterns(&g);
        assert_eq!(seeds.len(), 3); // (0,1), (1,1), (1,2)
        for s in &seeds {
            assert_eq!(s.num_edges(), 1);
        }
    }

    #[test]
    fn extensions_add_exactly_one_edge() {
        let p = patterns::path(&[Label(0), Label(1)]);
        let alphabet = vec![Label(0), Label(1)];
        let exts = extensions(&p, &alphabet);
        // No edge extension possible (only two adjacent vertices); 2 vertices × 2 labels
        // vertex extensions.
        assert_eq!(exts.len(), 4);
        for e in &exts {
            assert_eq!(e.num_edges(), p.num_edges() + 1);
        }
    }

    /// The invariant seeded candidate spaces rely on: every extension keeps
    /// the parent's vertex ids `0..n`, labels and edges, and a vertex
    /// extension appends its new vertex as `n`, joined to one parent vertex.
    #[test]
    fn extensions_keep_parent_ids_and_append_the_new_vertex() {
        let parent = patterns::path(&[Label(0), Label(1), Label(2)]);
        let n = parent.num_vertices() as u32;
        let exts = extensions(&parent, &[Label(0), Label(3)]);
        assert!(
            exts.iter().any(|e| e.num_vertices() == 3)
                && exts.iter().any(|e| e.num_vertices() == 4)
        );
        for child in &exts {
            for u in 0..n {
                assert_eq!(child.label(u), parent.label(u));
            }
            for (u, v) in parent.edges() {
                assert!(child.has_edge(u, v));
            }
            if child.num_vertices() > parent.num_vertices() {
                assert_eq!(child.num_vertices(), parent.num_vertices() + 1);
                assert_eq!(child.neighbors(n).len(), 1);
                assert!(child.neighbors(n)[0] < n);
            }
        }
    }

    #[test]
    fn edge_extension_closes_triangles() {
        let p = patterns::path(&[Label(0), Label(0), Label(0)]);
        let exts = extensions(&p, &[Label(0)]);
        assert!(exts.iter().any(|e| e.num_vertices() == 3 && e.num_edges() == 3));
    }

    #[test]
    fn dedupe_collapses_isomorphic_candidates() {
        // Extending a symmetric path produces isomorphic candidates (attach to either
        // end); deduplication keeps only one.
        let p = patterns::uniform_path(3, Label(0));
        let exts = extensions(&p, &[Label(0)]);
        let mut seen = std::collections::HashSet::new();
        let unique = dedupe_by_canonical_code(exts.clone(), &mut seen);
        assert!(unique.len() < exts.len());
        // Running again with the same `seen` yields nothing new.
        let again = dedupe_by_canonical_code(exts, &mut seen);
        assert!(again.is_empty());
    }

    #[test]
    fn empty_graph_has_no_seeds() {
        let g = LabeledGraph::new();
        assert!(seed_patterns(&g).is_empty());
    }
}
