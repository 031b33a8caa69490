//! Structural summary statistics of labeled graphs.
//!
//! The experiment harness prints a [`GraphStatistics`] block for every dataset it
//! uses, characterising each workload (size, density, label skew, clustering, core
//! structure) the way the paper's evaluation tables characterise their real
//! datasets.

use crate::algorithms;
use crate::{Label, LabeledGraph};
use serde::{Deserialize, Serialize};

/// A structural summary of one labeled graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphStatistics {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of undirected edges.
    pub num_edges: usize,
    /// Number of connected components.
    pub num_components: usize,
    /// Size (in vertices) of the largest connected component.
    pub largest_component: usize,
    /// Number of distinct vertex labels.
    pub num_labels: usize,
    /// Average degree `2m / n` (0 for the empty graph).
    pub average_degree: f64,
    /// Maximum vertex degree.
    pub max_degree: usize,
    /// Edge density `2m / (n (n-1))` (0 when `n < 2`).
    pub density: f64,
    /// Number of triangles.
    pub triangles: usize,
    /// Average local clustering coefficient.
    pub average_clustering: f64,
    /// Global clustering coefficient (transitivity).
    pub global_clustering: f64,
    /// Graph degeneracy (maximum core number).
    pub degeneracy: usize,
    /// Double-sweep lower bound on the diameter of the largest component.
    pub diameter_estimate: usize,
    /// Shannon entropy of the label distribution, in bits.
    pub label_entropy: f64,
    /// Fraction of vertices carrying the most frequent label (label skew).
    pub dominant_label_fraction: f64,
}

impl GraphStatistics {
    /// Compute the full statistics block for `graph`.
    ///
    /// Cost is dominated by triangle counting (`O(m · degeneracy)`); for the graph
    /// sizes used in this project (up to a few thousand vertices) this is instant.
    pub fn compute(graph: &LabeledGraph) -> Self {
        let n = graph.num_vertices();
        let m = graph.num_edges();
        let components = algorithms::connected_components(graph);
        let largest = components.iter().map(Vec::len).max().unwrap_or(0);
        let histogram = graph.label_histogram();
        let label_entropy = entropy(&histogram, n);
        let dominant = histogram.iter().map(|&(_, c)| c).max().unwrap_or(0);
        let (lcc, _) = algorithms::largest_component(graph);
        GraphStatistics {
            num_vertices: n,
            num_edges: m,
            num_components: components.len(),
            largest_component: largest,
            num_labels: histogram.len(),
            average_degree: graph.average_degree(),
            max_degree: graph.max_degree(),
            density: if n < 2 { 0.0 } else { 2.0 * m as f64 / (n as f64 * (n as f64 - 1.0)) },
            triangles: algorithms::triangle_count(graph),
            average_clustering: algorithms::average_clustering(graph),
            global_clustering: algorithms::global_clustering(graph),
            degeneracy: algorithms::degeneracy(graph),
            diameter_estimate: algorithms::estimate_diameter(&lcc, 4),
            label_entropy,
            dominant_label_fraction: if n == 0 { 0.0 } else { dominant as f64 / n as f64 },
        }
    }

    /// A one-line summary used in experiment logs.
    pub fn one_line(&self) -> String {
        format!(
            "n={} m={} labels={} avg_deg={:.2} cc={:.3} degen={} diam≥{}",
            self.num_vertices,
            self.num_edges,
            self.num_labels,
            self.average_degree,
            self.average_clustering,
            self.degeneracy,
            self.diameter_estimate
        )
    }
}

impl std::fmt::Display for GraphStatistics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "vertices:            {}", self.num_vertices)?;
        writeln!(f, "edges:               {}", self.num_edges)?;
        writeln!(
            f,
            "components:          {} (largest {})",
            self.num_components, self.largest_component
        )?;
        writeln!(
            f,
            "labels:              {} (entropy {:.3} bits, dominant {:.1}%)",
            self.num_labels,
            self.label_entropy,
            100.0 * self.dominant_label_fraction
        )?;
        writeln!(f, "avg / max degree:    {:.2} / {}", self.average_degree, self.max_degree)?;
        writeln!(f, "density:             {:.5}", self.density)?;
        writeln!(f, "triangles:           {}", self.triangles)?;
        writeln!(
            f,
            "clustering avg/glob: {:.3} / {:.3}",
            self.average_clustering, self.global_clustering
        )?;
        writeln!(f, "degeneracy:          {}", self.degeneracy)?;
        write!(f, "diameter (≥):        {}", self.diameter_estimate)
    }
}

/// Shannon entropy (bits) of a label histogram over `n` vertices.
fn entropy(histogram: &[(Label, usize)], n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    histogram
        .iter()
        .filter(|&&(_, c)| c > 0)
        .map(|&(_, c)| {
            let p = c as f64 / n as f64;
            -p * p.log2()
        })
        .sum()
}

/// Summary of a degree distribution: min / max / mean / median and the 90th
/// percentile, useful to distinguish power-law-ish (social) from near-regular
/// (chemical) datasets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegreeSummary {
    /// Smallest degree.
    pub min: usize,
    /// Largest degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Median degree.
    pub median: usize,
    /// 90th-percentile degree.
    pub p90: usize,
}

impl DegreeSummary {
    /// Compute the summary (all zeros for an empty graph).
    pub fn compute(graph: &LabeledGraph) -> Self {
        let mut degrees: Vec<usize> = graph.vertices().map(|v| graph.degree(v)).collect();
        if degrees.is_empty() {
            return DegreeSummary { min: 0, max: 0, mean: 0.0, median: 0, p90: 0 };
        }
        degrees.sort_unstable();
        let n = degrees.len();
        DegreeSummary {
            min: degrees[0],
            max: degrees[n - 1],
            mean: degrees.iter().sum::<usize>() as f64 / n as f64,
            median: degrees[n / 2],
            p90: degrees[(n * 9 / 10).min(n - 1)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, patterns};

    #[test]
    fn statistics_of_empty_graph() {
        let s = GraphStatistics::compute(&LabeledGraph::new());
        assert_eq!(s.num_vertices, 0);
        assert_eq!(s.num_edges, 0);
        assert_eq!(s.num_components, 0);
        assert_eq!(s.density, 0.0);
        assert_eq!(s.label_entropy, 0.0);
        assert_eq!(s.dominant_label_fraction, 0.0);
    }

    #[test]
    fn statistics_of_clique() {
        let k5 = patterns::uniform_clique(5, Label(0));
        let s = GraphStatistics::compute(&k5);
        assert_eq!(s.num_vertices, 5);
        assert_eq!(s.num_edges, 10);
        assert_eq!(s.num_components, 1);
        assert_eq!(s.num_labels, 1);
        assert!((s.density - 1.0).abs() < 1e-12);
        assert_eq!(s.triangles, 10);
        assert!((s.average_clustering - 1.0).abs() < 1e-12);
        assert_eq!(s.degeneracy, 4);
        assert_eq!(s.diameter_estimate, 1);
        assert_eq!(s.label_entropy, 0.0);
        assert!((s.dominant_label_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn label_entropy_of_balanced_labels() {
        // 4 vertices, 2 labels evenly split -> entropy = 1 bit.
        let g = LabeledGraph::from_edges(&[0, 0, 1, 1], &[(0, 1), (2, 3)]);
        let s = GraphStatistics::compute(&g);
        assert!((s.label_entropy - 1.0).abs() < 1e-12);
        assert!((s.dominant_label_fraction - 0.5).abs() < 1e-12);
        assert_eq!(s.num_components, 2);
        assert_eq!(s.largest_component, 2);
    }

    #[test]
    fn display_and_one_line_mention_key_fields() {
        let g = generators::grid(3, 3, 2);
        let s = GraphStatistics::compute(&g);
        let text = format!("{s}");
        assert!(text.contains("vertices:"));
        assert!(text.contains("degeneracy:"));
        assert!(s.one_line().contains("n=9"));
    }

    #[test]
    fn statistics_are_serializable() {
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<GraphStatistics>();
        assert_serde::<DegreeSummary>();
    }

    #[test]
    fn degree_summary_of_star() {
        let star = patterns::uniform_star(9, Label(0), Label(1));
        let d = DegreeSummary::compute(&star);
        assert_eq!(d.min, 1);
        assert_eq!(d.max, 9);
        assert_eq!(d.median, 1);
        assert!((d.mean - 1.8).abs() < 1e-12);
        assert!(d.p90 >= 1);
        let empty = DegreeSummary::compute(&LabeledGraph::new());
        assert_eq!(empty.max, 0);
    }

    #[test]
    fn social_graph_is_more_skewed_than_grid() {
        let social = generators::barabasi_albert(150, 2, 4, 3);
        let grid = generators::grid(12, 12, 4);
        let ds = DegreeSummary::compute(&social);
        let dg = DegreeSummary::compute(&grid);
        assert!(ds.max as f64 / ds.mean > dg.max as f64 / dg.mean);
    }
}
