//! Additiveness of the hypergraph-based measures — the Section 6 "parallel
//! computation" extension — checked end to end: build a data graph as a disjoint union
//! of blocks, enumerate occurrences through the public API, and verify that the
//! union's value equals the sum of the per-block values for every additive measure,
//! while MNI is not additive.

use ffsm::core::measures::{MeasureConfig, SupportMeasures};
use ffsm::core::OccurrenceSet;
use ffsm::graph::isomorphism::IsoConfig;
use ffsm::graph::{generators, patterns, transform, Label, LabeledGraph, Pattern};
use proptest::prelude::*;

fn union_workload(blocks: &[LabeledGraph]) -> LabeledGraph {
    transform::disjoint_union_all(blocks)
}

fn calculator(pattern: &Pattern, graph: &LabeledGraph) -> SupportMeasures<'static> {
    let occ = OccurrenceSet::enumerate(pattern, graph, IsoConfig::default());
    SupportMeasures::new(occ, MeasureConfig::default())
}

/// The union's (MVC, MIS, MIES, MCP, νMVC, νMIES) next to the sums of the
/// per-block values, each block through its own occurrence set.
fn union_and_block_sums(pattern: &Pattern, blocks: &[LabeledGraph]) -> ([f64; 6], [f64; 6]) {
    let values = |m: &SupportMeasures| {
        [
            m.mvc().value as f64,
            m.mis().value as f64,
            m.mies().value as f64,
            m.mcp().value as f64,
            m.relaxed_mvc(),
            m.relaxed_mies(),
        ]
    };
    let whole = values(&calculator(pattern, &union_workload(blocks)));
    let mut sums = [0.0; 6];
    for block in blocks {
        for (sum, value) in sums.iter_mut().zip(values(&calculator(pattern, block))) {
            *sum += value;
        }
    }
    (whole, sums)
}

#[test]
fn union_value_equals_sum_of_block_values_for_additive_measures() {
    // Compute per-block supports through completely separate occurrence sets and
    // check the union's support is their sum (the defining property of additiveness).
    let blocks = vec![
        generators::star_overlap(2, 2),
        generators::star_overlap(1, 3),
        generators::star_overlap(3, 3),
    ];
    let pattern = patterns::single_edge(Label(0), Label(1));
    let (whole, sums) = union_and_block_sums(&pattern, &blocks);
    for (w, s) in whole.iter().zip(sums) {
        assert!((w - s).abs() < 1e-6, "union {whole:?} != block sums {sums:?}");
    }
}

#[test]
fn mni_is_not_additive() {
    // MNI takes a minimum over pattern nodes of *summed* per-block image counts, so
    // it can exceed the sum of per-block MNIs (here: 4 vs 1 + 1).
    let pattern = patterns::single_edge(Label(0), Label(1));
    let block_a = generators::star_overlap(1, 3); // one L0 hub, three L1 leaves: MNI 1
    let block_b = generators::star_overlap(3, 1); // three L0 hubs, one L1 leaf:  MNI 1
    let whole = calculator(&pattern, &union_workload(&[block_a.clone(), block_b.clone()]));
    assert_eq!(calculator(&pattern, &block_a).mni(), 1);
    assert_eq!(calculator(&pattern, &block_b).mni(), 1);
    assert_eq!(whole.mni(), 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random unions of random blocks: every additive measure of the union equals
    /// the sum over its blocks.
    #[test]
    fn union_value_is_sum_of_block_values_on_random_unions(
        num_blocks in 1usize..5,
        hubs in 1usize..3,
        leaves in 1usize..4,
        seed in 0u64..1000,
    ) {
        let mut blocks = Vec::new();
        for i in 0..num_blocks {
            // Alternate star-overlap blocks and small random graphs.
            if i % 2 == 0 {
                blocks.push(generators::star_overlap(hubs, leaves));
            } else {
                blocks.push(generators::gnm_random(8, 12, 2, seed + i as u64));
            }
        }
        let pattern = patterns::single_edge(Label(0), Label(1));
        let (whole, sums) = union_and_block_sums(&pattern, &blocks);
        for (w, s) in whole.iter().zip(sums) {
            prop_assert!((w - s).abs() < 1e-6, "union {:?} != block sums {:?}", whole, sums);
        }
    }
}
