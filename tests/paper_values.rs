//! Integration test: every support-measure value the paper states for its worked
//! examples (Figures 1–10) is reproduced exactly, end to end through the public API
//! of the workspace crates.

use ffsm::core::measures::{MeasureConfig, MiStrategy, SupportMeasures};
use ffsm::core::occurrences::OccurrenceSet;
use ffsm::graph::figures;
use ffsm::graph::isomorphism::IsoConfig;

fn calculator(example: &ffsm::graph::figures::FigureExample) -> SupportMeasures<'static> {
    let occ = OccurrenceSet::enumerate(&example.pattern, &example.graph, IsoConfig::default());
    SupportMeasures::new(occ, MeasureConfig::default())
}

#[test]
fn figure2_triangle_overestimation() {
    // "the triangle-shaped pattern has 6 occurrences ... while it has only one
    //  instance"; "the MIS support of the triangle-shaped pattern is 1 while MNI
    //  support is 3".
    let m = calculator(&figures::figure2());
    assert_eq!(m.occurrence_count(), 6);
    assert_eq!(m.instance_count(), 1);
    assert_eq!(m.mis().value, 1);
    assert_eq!(m.mni(), 3);
}

#[test]
fn figure4_mni_vs_mi() {
    // "MNI = 2" and "MI = 1" (the transitive pair {v2, v3} has one image set).
    let m = calculator(&figures::figure4());
    assert_eq!(m.mni(), 2);
    assert_eq!(m.mi(), 1);
    assert_eq!(m.mi_with(MiStrategy::AutomorphismOrbits), 1);
}

#[test]
fn figure5_mvc_stays_one_under_extension() {
    // "when the pattern {v1,v2,v3} is extended to include {v4}, the MVC support is
    //  still 1".
    let triangle = calculator(&figures::figure2());
    let extended = calculator(&figures::figure5());
    assert_eq!(triangle.mvc().value, 1);
    assert_eq!(extended.mvc().value, 1);
}

#[test]
fn figure6_partial_overlap_values() {
    // "MIS = 2, MVC = 2, MI = 4, MNI = 4".
    let m = calculator(&figures::figure6());
    assert_eq!(m.mis().value, 2);
    assert_eq!(m.mvc().value, 2);
    assert_eq!(m.mi(), 4);
    assert_eq!(m.mni(), 4);
    // "the vertex set {1, 8} is a minimum vertex cover" — check that a cover of size 2
    // exists through the hypergraph directly.
    let h = m.hypergraph(Default::default());
    let cover = ffsm::hypergraph::vertex_cover::exact_vertex_cover(h, Default::default());
    assert_eq!(cover.value, 2);
}

#[test]
fn figure8_mis_equals_mies() {
    // "the MIS support in overlap graph is 2 ... The MIES in instance hypergraph is
    //  also 2."
    let m = calculator(&figures::figure8());
    assert_eq!(m.mis().value, 2);
    assert_eq!(m.mies().value, 2);
}

#[test]
fn figure9_mi_is_two() {
    // Section 4.5: "it has two images {2, 3} and {3, 4}, and MI = 2".
    let m = calculator(&figures::figure9());
    assert_eq!(m.mi(), 2);
}

#[test]
fn full_chain_on_every_figure() {
    for example in figures::all_figures() {
        let report = ffsm::core::verify_bounding_chain(
            &example.pattern,
            &example.graph,
            &MeasureConfig::default(),
        );
        assert!(
            report.holds(),
            "bounding chain violated on {}: {:?}",
            example.name,
            report.violations()
        );
    }
}

#[test]
fn figure2_mni_image_counts_per_node() {
    // "node v1 in the pattern has 3 distinct images ... # of images: 3 3 3".
    let example = figures::figure2();
    let occ = OccurrenceSet::enumerate(&example.pattern, &example.graph, IsoConfig::default());
    for node in example.pattern.vertices() {
        assert_eq!(occ.node_images(node).len(), 3);
    }
}
