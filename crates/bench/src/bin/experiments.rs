//! Experiment harness: prints the paper-reproduction tables E1–E14 as Markdown
//! (there is no E10 or E12).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ffsm-bench --bin experiments -- [e1|e2|...|e14|all]... [--quick]
//! ```
//!
//! Each experiment prints one or more Markdown tables; no name or `all` runs
//! everything in order.  `--quick` shrinks the workloads (used by CI-style smoke
//! runs).  An unknown name or flag is a usage error: exit 1 before any work runs.

use ffsm_bench::report::{fmt_value, Table};
use ffsm_bench::workloads;
use ffsm_bench::{format_duration, timed};
use ffsm_core::measures::{MeasureConfig, MeasureKind, MiStrategy, MvcAlgorithm, SupportMeasures};
use ffsm_core::occurrences::OccurrenceSet;
use ffsm_core::overlap::{OverlapAnalysis, OverlapKind};
use ffsm_core::verify_bounding_chain;
use ffsm_graph::figures;
use ffsm_graph::isomorphism::IsoConfig;
use ffsm_graph::{generators, LabeledGraph, Pattern};
use ffsm_hypergraph::SearchBudget;
use ffsm_miner::MiningSession;

const EXPERIMENTS: [&str; 12] =
    ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e11", "e13", "e14"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which: Vec<&str> = args.iter().map(String::as_str).filter(|a| *a != "--quick").collect();
    if let Some(bad) = which.iter().find(|a| **a != "all" && !EXPERIMENTS.contains(a)) {
        eprintln!(
            "experiments: unknown experiment or flag {bad:?} (expected e1..e9, e11, e13, e14, all or --quick)"
        );
        std::process::exit(1);
    }
    let selected: Vec<&str> =
        if which.is_empty() || which.contains(&"all") { EXPERIMENTS.to_vec() } else { which };
    println!("# ffsm experiment harness (quick = {quick})");
    for exp in selected {
        match exp {
            "e1" => e1_figures(),
            "e2" => e2_bounding_chain(quick),
            "e3" => e3_value_spectrum(quick),
            "e4" => e4_runtime(quick),
            "e5" => e5_mining(quick),
            "e6" => e6_anti_monotonicity(quick),
            "e7" => e7_ablation(quick),
            "e8" => e8_overlap(quick),
            "e9" => e9_hypergraphs(),
            "e11" => e11_overlap_variants(quick),
            "e13" => e13_mcp_spectrum(quick),
            "e14" => e14_search_schemes(quick),
            _ => unreachable!("names are validated above"),
        }
    }
}

fn measures_for(pattern: &Pattern, graph: &LabeledGraph, limit: usize) -> SupportMeasures<'static> {
    let occ = OccurrenceSet::enumerate(pattern, graph, IsoConfig::with_limit(limit));
    SupportMeasures::new(occ, MeasureConfig::default())
}

/// E1: exact measure values on the paper's figure examples.
fn e1_figures() {
    let mut table = Table::new(
        "E1 — paper figure examples (Figures 1, 2, 4, 5, 6, 8, 9): support values",
        &["figure", "occ", "inst", "MIS", "MIES", "nuMVC", "MVC", "MI", "MNI", "paper statement"],
    );
    for example in figures::all_figures() {
        let m = measures_for(&example.pattern, &example.graph, 1_000_000);
        table.add_row(vec![
            example.name.to_string(),
            m.occurrence_count().to_string(),
            m.instance_count().to_string(),
            m.mis().value.to_string(),
            m.mies().value.to_string(),
            fmt_value(m.relaxed_mvc()),
            m.mvc().value.to_string(),
            m.mi().to_string(),
            m.mni().to_string(),
            example.notes.to_string(),
        ]);
    }
    table.print();
}

/// E2: bounding-chain validation on random graphs.
fn e2_bounding_chain(quick: bool) {
    let trials = if quick { 8 } else { 30 };
    let mut table = Table::new(
        "E2 — bounding chain σMIS=σMIES ≤ νMIES=νMVC ≤ σMVC ≤ σMI ≤ σMNI on random workloads",
        &[
            "graph",
            "pattern edges",
            "occ",
            "MIS",
            "MIES",
            "nuMVC",
            "MVC",
            "MI",
            "MNI",
            "chain holds",
        ],
    );
    let mut violations = 0usize;
    for seed in 0..trials as u64 {
        let graph = match seed % 3 {
            0 => generators::gnm_random(120, 300, 3, seed),
            1 => generators::barabasi_albert(150, 3, 4, seed),
            _ => generators::community_graph(4, 25, 0.25, 0.01, 6, seed),
        };
        let pattern_edges = 2 + (seed % 3) as usize;
        let Some((pattern, _)) = generators::sample_pattern(&graph, pattern_edges, seed * 7 + 1)
        else {
            continue;
        };
        let config = MeasureConfig {
            iso_config: IsoConfig::with_limit(200_000),
            ..MeasureConfig::default()
        };
        let report = verify_bounding_chain(&pattern, &graph, &config);
        if !report.holds() {
            violations += 1;
        }
        table.add_row(vec![
            format!("seed{seed}"),
            pattern.num_edges().to_string(),
            report.occurrences.to_string(),
            report.mis.to_string(),
            report.mies.to_string(),
            fmt_value(report.relaxed_mvc),
            report.mvc.to_string(),
            report.mi.to_string(),
            report.mni.to_string(),
            report.holds().to_string(),
        ]);
    }
    table.print();
    println!("chain violations: {violations} (expected 0)\n");
}

/// E3: support value spectrum across pattern shapes and datasets.
fn e3_value_spectrum(quick: bool) {
    let suite =
        if quick { workloads::small_dataset_suite(42) } else { workloads::dataset_suite(42) };
    for dataset in suite {
        let mut table = Table::new(
            &format!("E3 — value spectrum on `{}` ({})", dataset.name, dataset.description),
            &["pattern", "occ", "inst", "MIS", "nuMVC", "MVC", "MI", "MNI"],
        );
        for np in workloads::pattern_suite() {
            let m = measures_for(&np.pattern, &dataset.graph, 100_000);
            if m.occurrence_count() == 0 {
                continue;
            }
            table.add_row(vec![
                np.name.clone(),
                m.occurrence_count().to_string(),
                m.instance_count().to_string(),
                m.mis().value.to_string(),
                fmt_value(m.relaxed_mvc()),
                m.mvc().value.to_string(),
                m.mi().to_string(),
                m.mni().to_string(),
            ]);
        }
        table.print();
    }
}

/// E4: computation time vs number of occurrences.
fn e4_runtime(quick: bool) {
    let sizes: Vec<usize> = if quick { vec![16, 64, 256] } else { vec![16, 64, 256, 1024, 4096] };
    let mut table = Table::new(
        "E4 — measure computation time vs number of occurrences (star-overlap workload)",
        &["occurrences", "MNI", "MI", "MVC exact", "MVC greedy", "MIS", "MIES", "nuMVC (LP)"],
    );
    for target in sizes {
        let (graph, pattern) = workloads::star_overlap_workload(target);
        let occ = workloads::enumerate(&pattern, &graph, 2_000_000);
        let n = occ.num_occurrences();
        let config = MeasureConfig::default();
        let m = SupportMeasures::new(occ, config);
        let (_, t_mni) = timed(|| m.mni());
        let (_, t_mi) = timed(|| m.mi());
        let (_, t_mvc) = timed(|| m.mvc_with(MvcAlgorithm::Exact));
        let (_, t_mvc_greedy) = timed(|| m.mvc_with(MvcAlgorithm::GreedyMatching));
        let (_, t_mis) = timed(|| m.mis());
        let (_, t_mies) = timed(|| m.mies());
        let (_, t_lp) = timed(|| m.relaxed_mvc());
        table.add_row(vec![
            n.to_string(),
            format_duration(t_mni),
            format_duration(t_mi),
            format_duration(t_mvc),
            format_duration(t_mvc_greedy),
            format_duration(t_mis),
            format_duration(t_mies),
            format_duration(t_lp),
        ]);
    }
    table.print();
    println!("note: MIS builds the quadratic overlap graph, so it dominates at large occurrence counts.\n");
}

/// E5: end-to-end mining under different measures and thresholds.
fn e5_mining(quick: bool) {
    let dataset = ffsm_graph::datasets::chemical_like(if quick { 30 } else { 80 }, 7);
    let thresholds = if quick { vec![8.0, 16.0] } else { vec![4.0, 8.0, 16.0, 32.0] };
    let measures = [MeasureKind::Mni, MeasureKind::Mi, MeasureKind::Mvc, MeasureKind::Mis];
    let mut table = Table::new(
        &format!("E5 — frequent patterns mined from `{}` ({})", dataset.name, dataset.description),
        &["tau", "measure", "#frequent", "max edges", "evaluated", "pruned", "time"],
    );
    // `MeasureKind: Eq + Hash` lets the report key its summary directly by measure.
    let mut total_frequent: std::collections::HashMap<MeasureKind, usize> =
        std::collections::HashMap::new();
    for &tau in &thresholds {
        for &measure in &measures {
            let session = MiningSession::on(&dataset.graph)
                .measure(measure)
                .min_support(tau)
                .max_edges(if quick { 3 } else { 4 });
            let (result, elapsed) = timed(|| session.run().expect("valid session"));
            *total_frequent.entry(measure).or_insert(0) += result.len();
            table.add_row(vec![
                fmt_value(tau),
                measure.name(),
                result.len().to_string(),
                result.max_edges().to_string(),
                result.stats.candidates_evaluated.to_string(),
                result.stats.candidates_pruned.to_string(),
                format_duration(elapsed),
            ]);
        }
    }
    table.print();
    let summary: Vec<String> = measures
        .iter()
        .map(|m| format!("{m}: {}", total_frequent.get(m).copied().unwrap_or(0)))
        .collect();
    println!("total frequent patterns across thresholds — {}", summary.join(", "));
    println!("expected shape: at a fixed tau, #frequent(MNI) >= #frequent(MI) >= #frequent(MVC) >= #frequent(MIS).\n");
}

/// E6: anti-monotonicity along random extension chains.
fn e6_anti_monotonicity(quick: bool) {
    let chains = if quick { 6 } else { 20 };
    let kinds = [
        MeasureKind::Mni,
        MeasureKind::Mi,
        MeasureKind::Mvc,
        MeasureKind::Mis,
        MeasureKind::Mies,
        MeasureKind::RelaxedMvc,
    ];
    let mut table = Table::new(
        "E6 — anti-monotonicity along pattern-extension chains (violations per measure)",
        &["measure", "chains checked", "pairs checked", "violations"],
    );
    let graph = generators::community_graph(4, 20, 0.3, 0.02, 4, 11);
    let mut pairs = vec![0usize; kinds.len()];
    let mut violations = vec![0usize; kinds.len()];
    let mut chains_used = 0usize;
    for seed in 0..chains as u64 {
        let chain = workloads::extension_chain(&graph, 4, seed * 13 + 3);
        if chain.len() < 2 {
            continue;
        }
        chains_used += 1;
        let values: Vec<Vec<f64>> = chain
            .iter()
            .map(|p| {
                let m = measures_for(p, &graph, 100_000);
                kinds.iter().map(|&k| m.compute(k)).collect()
            })
            .collect();
        for w in values.windows(2) {
            for (ki, _) in kinds.iter().enumerate() {
                pairs[ki] += 1;
                if w[1][ki] > w[0][ki] + 1e-6 {
                    violations[ki] += 1;
                }
            }
        }
    }
    for (ki, kind) in kinds.iter().enumerate() {
        table.add_row(vec![
            kind.name(),
            chains_used.to_string(),
            pairs[ki].to_string(),
            violations[ki].to_string(),
        ]);
    }
    table.print();
    println!("expected shape: 0 violations for every anti-monotonic measure.\n");
}

/// E7: MI strategy ablation and MVC approximation quality / LP integrality gap.
fn e7_ablation(quick: bool) {
    let suite =
        if quick { workloads::small_dataset_suite(21) } else { workloads::dataset_suite(21) };
    let mut mi_table = Table::new(
        "E7a — MI strategy ablation (value per coarse-grained subset strategy)",
        &[
            "dataset",
            "pattern",
            "MNI (Singletons)",
            "MI Orbits",
            "MI LabelClasses",
            "MNI-2 (ConnectedK)",
        ],
    );
    let mut approx_table = Table::new(
        "E7b — MVC approximation quality and LP integrality gap",
        &[
            "dataset",
            "pattern",
            "MVC exact",
            "MVC greedy-matching",
            "MVC greedy-degree",
            "nuMVC (LP)",
            "MIES",
        ],
    );
    for dataset in &suite {
        for np in workloads::pattern_suite().into_iter().take(6) {
            let occ = workloads::enumerate(&np.pattern, &dataset.graph, 50_000);
            if occ.num_occurrences() == 0 {
                continue;
            }
            let m = SupportMeasures::new(occ, MeasureConfig::default());
            mi_table.add_row(vec![
                dataset.name.clone(),
                np.name.clone(),
                m.mi_with(MiStrategy::Singletons).to_string(),
                m.mi_with(MiStrategy::AutomorphismOrbits).to_string(),
                m.mi_with(MiStrategy::LabelClasses).to_string(),
                m.mi_with(MiStrategy::ConnectedK(2)).to_string(),
            ]);
            approx_table.add_row(vec![
                dataset.name.clone(),
                np.name.clone(),
                m.mvc_with(MvcAlgorithm::Exact).value.to_string(),
                m.mvc_with(MvcAlgorithm::GreedyMatching).value.to_string(),
                m.mvc_with(MvcAlgorithm::GreedyDegree).value.to_string(),
                fmt_value(m.relaxed_mvc()),
                m.mies().value.to_string(),
            ]);
        }
    }
    mi_table.print();
    approx_table.print();
}

/// E8: overlap notions — overlap-graph density and MIS under each notion.
fn e8_overlap(quick: bool) {
    let mut table = Table::new(
        "E8 — simple vs harmful vs structural overlap (Figures 9, 10 + random workloads)",
        &[
            "workload",
            "occ",
            "edges simple",
            "edges harmful",
            "edges structural",
            "MIS simple",
            "MIS harmful",
            "MIS structural",
        ],
    );
    let mut workload_list: Vec<(String, LabeledGraph, Pattern)> = vec![
        ("figure9".into(), figures::figure9().graph, figures::figure9().pattern),
        ("figure10".into(), figures::figure10().graph, figures::figure10().pattern),
        ("figure2".into(), figures::figure2().graph, figures::figure2().pattern),
    ];
    let extra = if quick { 2 } else { 6 };
    for seed in 0..extra as u64 {
        let graph = generators::gnm_random(60, 140, 2, seed + 100);
        if let Some((pattern, _)) = generators::sample_pattern(&graph, 2, seed + 5) {
            workload_list.push((format!("gnm-seed{seed}"), graph, pattern));
        }
    }
    for (name, graph, pattern) in workload_list {
        let occ = workloads::enumerate(&pattern, &graph, 5_000);
        if occ.num_occurrences() == 0 {
            continue;
        }
        let analysis = OverlapAnalysis::new(&occ);
        let budget = SearchBudget::default();
        table.add_row(vec![
            name,
            occ.num_occurrences().to_string(),
            analysis.overlap_edge_count(OverlapKind::Simple).to_string(),
            analysis.overlap_edge_count(OverlapKind::Harmful).to_string(),
            analysis.overlap_edge_count(OverlapKind::Structural).to_string(),
            analysis.mis_under(OverlapKind::Simple, budget).to_string(),
            analysis.mis_under(OverlapKind::Harmful, budget).to_string(),
            analysis.mis_under(OverlapKind::Structural, budget).to_string(),
        ]);
    }
    table.print();
    println!("expected shape: weaker overlap notions give sparser overlap graphs and MIS values >= the simple-overlap MIS.\n");
}

/// E9: occurrence vs instance hypergraph sizes (automorphism effect).
fn e9_hypergraphs() {
    let mut table = Table::new(
        "E9 — occurrence vs instance hypergraphs (Figures 3, 5, 7): automorphisms collapse edges",
        &[
            "workload",
            "pattern automorphisms",
            "occurrences",
            "instances",
            "HO edges",
            "HI edges",
            "images",
        ],
    );
    for example in figures::all_figures() {
        let occ = workloads::enumerate(&example.pattern, &example.graph, 100_000);
        let autos = ffsm_graph::automorphism::automorphism_count(&example.pattern);
        table.add_row(vec![
            example.name.to_string(),
            autos.to_string(),
            occ.num_occurrences().to_string(),
            occ.num_instances().to_string(),
            occ.occurrence_hypergraph().num_edges().to_string(),
            occ.instance_hypergraph().num_edges().to_string(),
            occ.num_images().to_string(),
        ]);
    }
    table.print();
    println!("expected shape: occurrences = automorphisms x instances whenever instances do not share automorphic images.\n");
}

/// E11: the full overlap-notion matrix — census of overlapping pairs and MIS/MCP under
/// simple, harmful, structural and edge overlap.
fn e11_overlap_variants(quick: bool) {
    let mut table = Table::new(
        "E11 — overlap-notion matrix: pair census and MIS / MCP under each notion",
        &[
            "workload",
            "occ",
            "pairs simple",
            "pairs harmful",
            "pairs structural",
            "pairs edge",
            "MIS simple",
            "MIS harmful",
            "MIS structural",
            "MIS edge",
            "MCP simple",
        ],
    );
    let mut workload_list: Vec<(String, LabeledGraph, Pattern)> = vec![
        ("figure9".into(), figures::figure9().graph, figures::figure9().pattern),
        ("figure10".into(), figures::figure10().graph, figures::figure10().pattern),
        ("figure6".into(), figures::figure6().graph, figures::figure6().pattern),
    ];
    let extra = if quick { 2 } else { 5 };
    for seed in 0..extra as u64 {
        let graph = generators::power_law_cluster(70, 2, 0.6, 2, seed + 40);
        if let Some((pattern, _)) = generators::sample_pattern(&graph, 2, seed + 9) {
            workload_list.push((format!("plc-seed{seed}"), graph, pattern));
        }
    }
    for (name, graph, pattern) in workload_list {
        let occ = workloads::enumerate(&pattern, &graph, 3_000);
        if occ.num_occurrences() == 0 {
            continue;
        }
        let analysis = OverlapAnalysis::new(&occ);
        let census = analysis.overlap_census();
        let budget = SearchBudget::default();
        table.add_row(vec![
            name,
            census.num_occurrences.to_string(),
            census.simple.to_string(),
            census.harmful.to_string(),
            census.structural.to_string(),
            census.edge.to_string(),
            analysis.mis_under(OverlapKind::Simple, budget).to_string(),
            analysis.mis_under(OverlapKind::Harmful, budget).to_string(),
            analysis.mis_under(OverlapKind::Structural, budget).to_string(),
            analysis.mis_under(OverlapKind::Edge, budget).to_string(),
            analysis.mcp_under(OverlapKind::Simple, budget).to_string(),
        ]);
    }
    table.print();
    println!("expected shape: harmful/structural/edge pair counts <= simple pair counts, and the corresponding MIS values >= MIS(simple); MCP(simple) >= MIS(simple).\n");
}

/// E13: MCP in the value spectrum — where the clique-partition measure falls relative
/// to MIS and MVC across the dataset suite.
fn e13_mcp_spectrum(quick: bool) {
    let suite =
        if quick { workloads::small_dataset_suite(77) } else { workloads::dataset_suite(77) };
    let mut table = Table::new(
        "E13 — MCP relative to MIS / MVC / MI / MNI",
        &["dataset", "pattern", "occ", "MIS", "MCP", "MVC", "MI", "MNI", "MIS<=MCP"],
    );
    for dataset in &suite {
        for np in workloads::pattern_suite().into_iter().take(if quick { 4 } else { 6 }) {
            // A few thousand occurrences are plenty to place MCP on the spectrum; the
            // exact clique-partition search is exponential in the overlap-graph size.
            let occ = workloads::enumerate(&np.pattern, &dataset.graph, 2_000);
            if occ.num_occurrences() == 0 {
                continue;
            }
            let m = SupportMeasures::new(occ, MeasureConfig::default());
            let mis = m.mis().value;
            let mcp = m.mcp().value;
            table.add_row(vec![
                dataset.name.clone(),
                np.name.clone(),
                m.occurrence_count().to_string(),
                mis.to_string(),
                mcp.to_string(),
                m.mvc().value.to_string(),
                m.mi().to_string(),
                m.mni().to_string(),
                (mis <= mcp).to_string(),
            ]);
        }
    }
    table.print();
    println!(
        "expected shape: σMIS <= σMCP on every row; MCP usually sits between MIS and MVC/MI.\n"
    );
}

/// E14: search schemes — the sequential miner, the level-parallel miner and top-k
/// mining on the same workload, plus the maximal / closed condensations.
fn e14_search_schemes(quick: bool) {
    use ffsm_miner::postprocess::{closed_patterns, maximal_patterns};

    let dataset = ffsm_graph::datasets::chemical_like(if quick { 25 } else { 60 }, 19);
    let tau = if quick { 8.0 } else { 12.0 };
    let max_edges = 3;
    let mut table = Table::new(
        &format!("E14 — search schemes on `{}` (tau = {tau})", dataset.name),
        &["scheme", "#patterns", "#maximal", "#closed", "evaluated", "time"],
    );

    let (sequential, t_seq) = timed(|| {
        MiningSession::on(&dataset.graph)
            .measure(MeasureKind::Mni)
            .min_support(tau)
            .max_edges(max_edges)
            .run()
            .expect("valid session")
    });
    table.add_row(vec![
        "sequential".into(),
        sequential.len().to_string(),
        maximal_patterns(&sequential).len().to_string(),
        closed_patterns(&sequential).len().to_string(),
        sequential.stats.candidates_evaluated.to_string(),
        format_duration(t_seq),
    ]);

    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let (parallel, t_par) = timed(|| {
        MiningSession::on(&dataset.graph)
            .measure(MeasureKind::Mni)
            .min_support(tau)
            .max_edges(max_edges)
            .threads(threads)
            .run()
            .expect("valid session")
    });
    table.add_row(vec![
        format!("parallel x{threads}"),
        parallel.len().to_string(),
        maximal_patterns(&parallel).len().to_string(),
        closed_patterns(&parallel).len().to_string(),
        parallel.stats.candidates_evaluated.to_string(),
        format_duration(t_par),
    ]);

    let k = 10;
    let (topk, t_topk) = timed(|| {
        MiningSession::on(&dataset.graph)
            .measure(MeasureKind::Mni)
            .min_support(2.0)
            .max_edges(max_edges)
            .top_k(k)
            .run()
            .expect("valid session")
    });
    table.add_row(vec![
        format!("top-{k}"),
        topk.patterns.len().to_string(),
        "-".into(),
        "-".into(),
        topk.stats.candidates_evaluated.to_string(),
        format_duration(t_topk),
    ]);
    table.print();
    println!("expected shape: sequential and parallel report the same pattern set; top-k evaluates no more candidates than an exhaustive run at its floor threshold.\n");
}
