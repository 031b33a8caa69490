//! Candidate generation: grow a pattern by one edge.
//!
//! Two kinds of extension keep the search space complete for connected patterns:
//!
//! * **edge extensions** — connect two existing, non-adjacent pattern nodes;
//! * **vertex extensions** — attach a new node (with any label from the alphabet) to
//!   an existing node.
//!
//! Candidates are later de-duplicated by canonical code, so the generator does not
//! need to avoid producing isomorphic duplicates.  The mining engine fuses the two
//! steps: it codes each extension from the parent's [`PatternMasks`] and keeps
//! only the children of classes not seen before, each as the one-edge growth
//! of its parent that builds the child when it is needed.

use ffsm_graph::canonical::{canonical_code, CanonicalCode, PatternMasks};
use ffsm_graph::{patterns, Label, Pattern, VertexId};
use std::collections::HashSet;

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

/// Deduplicate a batch of candidate patterns by canonical code, preserving the
/// first representative of each isomorphism class, skipping codes already in
/// `seen`, and keeping each survivor's code — the mining engine threads the codes
/// through to the per-pattern [`EvalCache`](crate::EvalCache) instead of
/// canonicalising twice.
pub fn dedupe_with_codes(
    candidates: Vec<Pattern>,
    seen: &mut HashSet<CanonicalCode>,
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

/// How a child extends its parent by one edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Growth {
    /// An edge between two parent vertices.
    Edge(VertexId, VertexId),
    /// A new vertex labelled `label`, the alphabet's entry `position`, joined
    /// to parent vertex `at`.
    Vertex { at: VertexId, label: Label, position: u32 },
}

impl Growth {
    /// The child this growth makes of `parent`.
    pub(crate) fn apply(self, parent: &Pattern) -> Pattern {
        match self {
            Growth::Edge(u, v) => patterns::extend_with_edge(parent, u, v),
            Growth::Vertex { at, label, .. } => patterns::extend_with_vertex(parent, at, label),
        }
        .expect("a one-edge extension of its parent")
    }
}

/// `dedupe_with_codes(extensions(pattern, alphabet), seen)`, each child given
/// by its code and its [`Growth`] of `pattern`, plus the number of extensions
/// generated.  Each extension is coded by editing `pattern`'s masks by one
/// edge, and no child pattern is built.
///
/// # Panics
///
/// Panics if a child would exceed [`ffsm_graph::canonical::MAX_VERTICES`]
/// vertices.
pub(crate) fn new_children(
    pattern: &Pattern,
    alphabet: &[Label],
    seen: &mut HashSet<CanonicalCode>,
) -> (Vec<(CanonicalCode, Growth)>, usize) {
    let mut masks = PatternMasks::new(pattern);
    let mut code = CanonicalCode::default();
    let mut children = Vec::new();
    let mut generated = 0;
    let mut keep = |code: &CanonicalCode, growth| {
        if !seen.contains(code) {
            seen.insert(code.clone());
            children.push((code.clone(), growth));
        }
    };
    let n = pattern.num_vertices() as VertexId;
    for u in 0..n {
        for v in (u + 1)..n {
            if masks.has_edge(u, v) {
                continue;
            }
            generated += 1;
            masks.flip_edge(u, v);
            masks.code_into(&mut code);
            masks.flip_edge(u, v);
            keep(&code, Growth::Edge(u, v));
        }
    }
    for at in 0..n {
        for (position, &label) in alphabet.iter().enumerate() {
            generated += 1;
            masks.push_vertex(label, at);
            masks.code_into(&mut code);
            masks.pop_vertex();
            keep(&code, Growth::Vertex { at, label, position: position as u32 });
        }
    }
    (children, generated)
}

/// All frequent single-edge seed patterns of a graph: one pattern per unordered label
/// pair that actually occurs on at least one edge, in ascending pair order.  The
/// pairs are packed into one `u64` per edge, sorted and deduplicated once.
pub fn seed_patterns(graph: &ffsm_graph::LabeledGraph) -> Vec<Pattern> {
    let mut pairs: Vec<u64> = graph
        .edges()
        .map(|(u, v)| {
            let (a, b) = (graph.label(u).0, graph.label(v).0);
            (u64::from(a.min(b)) << 32) | u64::from(a.max(b))
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
        .into_iter()
        .map(|pair| patterns::single_edge(Label((pair >> 32) as u32), Label(pair as u32)))
        .collect()
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
        let mut seen = HashSet::new();
        let unique = dedupe_with_codes(exts.clone(), &mut seen);
        assert!(unique.len() < exts.len());
        for (pattern, code) in &unique {
            assert_eq!(*code, canonical_code(pattern));
        }
        // Running again with the same `seen` yields nothing new.
        let again = dedupe_with_codes(exts, &mut seen);
        assert!(again.is_empty());
    }

    /// The engine's fused extension equals generating every extension and
    /// deduplicating it: same children, codes, order and generated count,
    /// across several parents sharing one `seen`.
    #[test]
    fn new_children_equal_deduped_extensions() {
        for seed in 0..40u64 {
            let labels = 1 + (seed % 4) as u32;
            let graph = ffsm_graph::generators::gnm_random(30, 60, labels, seed);
            let alphabet: Vec<Label> =
                graph.distinct_labels().into_iter().filter(|l| l.0 as u64 != seed % 3).collect();
            let (mut seen_fused, mut seen_reference) = (HashSet::new(), HashSet::new());
            for k in 0..6u64 {
                let Some((parent, _)) = ffsm_graph::generators::sample_pattern(
                    &graph,
                    1 + (k % 4) as usize,
                    seed * 7 + k,
                ) else {
                    continue;
                };
                let all = extensions(&parent, &alphabet);
                let generated_reference = all.len();
                let reference = dedupe_with_codes(all, &mut seen_reference);
                let (fused, generated) = new_children(&parent, &alphabet, &mut seen_fused);
                assert_eq!(generated, generated_reference, "seed {seed}, parent {k}");
                let fused: Vec<(Pattern, CanonicalCode)> =
                    fused.into_iter().map(|(code, growth)| (growth.apply(&parent), code)).collect();
                assert_eq!(fused, reference, "seed {seed}, parent {k}");
            }
            assert_eq!(seen_fused, seen_reference);
        }
    }

    #[test]
    fn vertex_growths_name_their_alphabet_position() {
        let parent = patterns::path(&[Label(0), Label(1)]);
        let alphabet = [Label(0), Label(1), Label(2)];
        let (children, generated) = new_children(&parent, &alphabet, &mut HashSet::new());
        assert_eq!(generated, 6);
        for (code, growth) in children {
            let Growth::Vertex { at, label, position } = growth else {
                panic!("a two-vertex path has only vertex extensions");
            };
            assert_eq!(alphabet[position as usize], label);
            let child = growth.apply(&parent);
            assert_eq!((child.neighbors(2), child.label(2)), (&[at][..], label));
            assert_eq!(code, canonical_code(&child));
        }
    }

    /// The packed-pair seeding equals the ordered-set reference it replaced:
    /// same label pairs, same order.
    #[test]
    fn seed_patterns_equal_the_ordered_set_reference() {
        for seed in 0..30u64 {
            let graph = ffsm_graph::generators::gnm_random(
                40 + seed as usize * 7,
                60 + seed as usize * 11,
                1 + (seed % 9) as u32,
                seed,
            );
            let reference: std::collections::BTreeSet<(Label, Label)> = graph
                .edges()
                .map(|(u, v)| {
                    let (a, b) = (graph.label(u), graph.label(v));
                    (a.min(b), a.max(b))
                })
                .collect();
            let reference: Vec<Pattern> =
                reference.into_iter().map(|(a, b)| patterns::single_edge(a, b)).collect();
            assert_eq!(seed_patterns(&graph), reference, "seed {seed}");
        }
    }

    #[test]
    fn empty_graph_has_no_seeds() {
        let g = LabeledGraph::new();
        assert!(seed_patterns(&g).is_empty());
    }
}
