//! Profile every support measure (value, runtime, optimality) on a realistic
//! citation-style workload and print the full comparison table, including the MCP
//! measure and the additive per-component decomposition.
//!
//! Run with: `cargo run --release --example measure_profile`

use ffsm::core::decompose::{mvc_by_components, DecompositionConfig};
use ffsm::core::measures::{MeasureConfig, MvcAlgorithm};
use ffsm::core::{HypergraphBasis, MeasureProfile, OccurrenceSet};
use ffsm::graph::isomorphism::IsoConfig;
use ffsm::graph::{datasets, patterns, GraphStatistics, Label};

fn main() {
    // A citation-like synthetic dataset standing in for the paper's real one.
    let dataset = datasets::citation_like(400, 7);
    println!("dataset `{}`: {}", dataset.name, dataset.description);
    println!("{}\n", GraphStatistics::compute(&dataset.graph));

    // Profile a few query patterns of growing size.
    let queries = vec![
        ("edge 0-1", patterns::single_edge(Label(0), Label(1))),
        ("path of three same-label vertices", patterns::uniform_path(3, Label(0))),
        ("star with two leaves", patterns::uniform_star(2, Label(0), Label(1))),
        ("triangle", patterns::uniform_clique(3, Label(0))),
    ];
    let config = MeasureConfig::default();
    for (name, pattern) in queries {
        let profile =
            MeasureProfile::compute_labeled(name.to_string(), &pattern, &dataset.graph, &config);
        println!("{profile}");
        println!(
            "bounding chain holds: {}\n",
            if profile.chain_holds() { "yes" } else { "NO (unexpected)" }
        );
    }

    // The additive decomposition of MVC over hypergraph components (Section 6, item 4).
    let pattern = patterns::single_edge(Label(0), Label(1));
    let occ = OccurrenceSet::enumerate(&pattern, &dataset.graph, IsoConfig::default());
    let hypergraph = occ.hypergraph(HypergraphBasis::Occurrence);
    let decomposed = mvc_by_components(
        &hypergraph,
        MvcAlgorithm::Exact,
        DecompositionConfig { parallel: true, ..Default::default() },
    );
    println!(
        "additive MVC for `edge 0-1`: value {} over {} hypergraph components (optimal: {})",
        decomposed.value, decomposed.num_components, decomposed.optimal
    );
}
