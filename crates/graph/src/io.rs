//! Plain-text graph serialisation in the `.lg` ("LineGraph") format used by
//! single-graph miners such as GraMi:
//!
//! ```text
//! # comment
//! t <graph-id>
//! v <vertex-id> <label>
//! e <source> <target> [edge-label]
//! ```
//!
//! Vertex identifiers must be dense and ascending starting from 0; the optional edge
//! label is accepted and ignored (this project models vertex-labeled graphs only,
//! exactly like the paper).

//! ## Update files (`.gu`)
//!
//! The dynamic-graph subsystem reads batches of [`GraphUpdate`]s from a sibling
//! plain-text format: one update per line (`av`/`rv`/`ae`/`re`/`rl` records, see
//! [`GraphUpdate`]), with `t <batch-id>` lines separating batches — each batch
//! becomes one epoch when applied.  Comments and blank lines are skipped exactly
//! like in `.lg` files.

use crate::update::GraphUpdate;
use crate::{GraphError, Label, LabeledGraph, VertexId};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Serialise `graph` in `.lg` format.
pub fn write_lg<W: Write>(graph: &LabeledGraph, mut w: W) -> Result<(), GraphError> {
    let io_err = |e: std::io::Error| GraphError::Io(e.to_string());
    writeln!(w, "t 0").map_err(io_err)?;
    for v in graph.vertices() {
        writeln!(w, "v {} {}", v, graph.label(v).0).map_err(io_err)?;
    }
    for (u, v) in graph.edges() {
        writeln!(w, "e {} {}", u, v).map_err(io_err)?;
    }
    Ok(())
}

/// Serialise `graph` to an `.lg` string.
pub fn to_lg_string(graph: &LabeledGraph) -> String {
    let mut buf = Vec::new();
    write_lg(graph, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("lg output is ASCII")
}

/// Write `graph` to the file at `path` in `.lg` format.
pub fn save_lg(graph: &LabeledGraph, path: &Path) -> Result<(), GraphError> {
    let file = std::fs::File::create(path).map_err(|e| GraphError::Io(e.to_string()))?;
    write_lg(graph, std::io::BufWriter::new(file))
}

/// Parse a graph in `.lg` format from a reader.
pub fn read_lg<R: Read>(r: R) -> Result<LabeledGraph, GraphError> {
    let reader = BufReader::new(r);
    let mut graph = LabeledGraph::new();
    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.map_err(|e| GraphError::Io(e.to_string()))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('t') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let kind = parts.next().unwrap_or("");
        match kind {
            "v" => {
                let id: usize = parse_field(parts.next(), line_no, "vertex id")?;
                let label: u32 = parse_field(parts.next(), line_no, "vertex label")?;
                if id != graph.num_vertices() {
                    return Err(GraphError::Parse {
                        line: line_no,
                        message: format!(
                            "vertex ids must be dense and ascending; expected {} got {}",
                            graph.num_vertices(),
                            id
                        ),
                    });
                }
                graph.add_vertex(Label(label));
            }
            "e" => {
                let u: VertexId = parse_field(parts.next(), line_no, "edge source")?;
                let v: VertexId = parse_field(parts.next(), line_no, "edge target")?;
                graph.add_edge(u, v).map_err(|e| GraphError::Parse {
                    line: line_no,
                    message: format!("invalid edge: {e}"),
                })?;
            }
            other => {
                return Err(GraphError::Parse {
                    line: line_no,
                    message: format!("unknown record type {other:?}"),
                });
            }
        }
    }
    Ok(graph)
}

/// Parse a graph in `.lg` format from a string.
pub fn from_lg_string(s: &str) -> Result<LabeledGraph, GraphError> {
    read_lg(s.as_bytes())
}

/// Load a graph from the `.lg` file at `path`.
pub fn load_lg(path: &Path) -> Result<LabeledGraph, GraphError> {
    let file = std::fs::File::open(path).map_err(|e| GraphError::Io(e.to_string()))?;
    read_lg(file)
}

/// Parse batches of graph updates from a reader (the `.gu` format, see the
/// [module docs](self)).  Lines before the first `t` separator form the first
/// batch; empty batches are dropped.
pub fn read_updates<R: Read>(r: R) -> Result<Vec<Vec<GraphUpdate>>, GraphError> {
    let reader = BufReader::new(r);
    let mut batches: Vec<Vec<GraphUpdate>> = Vec::new();
    let mut current: Vec<GraphUpdate> = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line_no = idx + 1;
        let line = line.map_err(|e| GraphError::Io(e.to_string()))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Only a bare `t` / `t <id>` record separates batches; anything else
        // starting with 't' must be a typo and falls through to the update
        // parser's error (unlike `.lg`, where stray `t…` headers are inert,
        // a swallowed separator here would silently re-shape the epochs).
        if line == "t" || line.starts_with("t ") {
            if !current.is_empty() {
                batches.push(std::mem::take(&mut current));
            }
            continue;
        }
        let update = line.parse::<GraphUpdate>().map_err(|e| match e {
            GraphError::Parse { message, .. } => GraphError::Parse { line: line_no, message },
            other => other,
        })?;
        current.push(update);
    }
    if !current.is_empty() {
        batches.push(current);
    }
    Ok(batches)
}

/// Parse update batches from a string.
pub fn updates_from_string(s: &str) -> Result<Vec<Vec<GraphUpdate>>, GraphError> {
    read_updates(s.as_bytes())
}

/// Load update batches from the `.gu` file at `path`.
pub fn load_updates(path: &Path) -> Result<Vec<Vec<GraphUpdate>>, GraphError> {
    let file = std::fs::File::open(path).map_err(|e| GraphError::Io(e.to_string()))?;
    read_updates(file)
}

fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    line: usize,
    what: &str,
) -> Result<T, GraphError> {
    let raw =
        field.ok_or_else(|| GraphError::Parse { line, message: format!("missing {what}") })?;
    raw.parse().map_err(|_| GraphError::Parse {
        line,
        message: format!("cannot parse {what} from {raw:?}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn roundtrip_small_graph() {
        let g = LabeledGraph::from_edges(&[3, 1, 4, 1], &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let text = to_lg_string(&g);
        let back = from_lg_string(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn roundtrip_random_graph() {
        let g = generators::gnm_random(60, 150, 5, 4);
        let back = from_lg_string(&to_lg_string(&g)).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "# a comment\n\nt 0\nv 0 7\nv 1 8\n\ne 0 1\n";
        let g = from_lg_string(text).unwrap();
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.label(0), Label(7));
    }

    #[test]
    fn edge_labels_are_tolerated() {
        let text = "v 0 1\nv 1 1\ne 0 1 9\n";
        let g = from_lg_string(text).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn bad_input_is_reported_with_line_numbers() {
        let err = from_lg_string("v 0 1\nv 2 1\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
        let err = from_lg_string("x 0 1\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
        let err = from_lg_string("v 0 1\ne 0 5\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
        let err = from_lg_string("v 0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
        let err = from_lg_string("v zero 1\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir();
        let path = dir.join("ffsm_io_test_roundtrip.lg");
        let g = generators::grid(4, 4, 3);
        save_lg(&g, &path).unwrap();
        let back = load_lg(&path).unwrap();
        assert_eq!(g, back);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_lg(Path::new("/nonexistent/ffsm.lg")).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
        let err = load_updates(Path::new("/nonexistent/ffsm.gu")).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }

    #[test]
    fn update_batches_parse_from_a_literal_file() {
        let batches = vec![
            vec![GraphUpdate::AddVertex(Label(3)), GraphUpdate::AddEdge(0, 4)],
            vec![GraphUpdate::RemoveEdge(1, 2), GraphUpdate::Relabel(0, Label(7))],
            vec![GraphUpdate::RemoveVertex(5)],
        ];
        let text = "t 0\nav 3\nae 0 4\nt 1\nre 1 2\nrl 0 7\nt 2\nrv 5\n";
        assert_eq!(read_updates(text.as_bytes()).unwrap(), batches);
    }

    #[test]
    fn update_reader_skips_comments_and_drops_empty_batches() {
        let text = "# prologue\n\nt 0\nav 2\n\nt 1\nt 2\n# nothing here\nae 0 1\n";
        let batches = updates_from_string(text).unwrap();
        assert_eq!(
            batches,
            vec![vec![GraphUpdate::AddVertex(Label(2))], vec![GraphUpdate::AddEdge(0, 1)]]
        );
        // Updates before any `t` line form the first batch.
        let headless = updates_from_string("av 1\nt 1\nav 2\n").unwrap();
        assert_eq!(headless.len(), 2);
    }

    #[test]
    fn bad_update_lines_report_line_numbers() {
        let err = updates_from_string("av 1\nxx 2\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err:?}");
        let err = updates_from_string("ae 0\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err:?}");
        // A typo that merely *starts* with 't' is an error, not a separator.
        let err = updates_from_string("av 1\ntl 3 1\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }), "{err:?}");
        // A bare `t` (no id) is still a valid separator.
        let batches = updates_from_string("av 1\nt\nav 2\n").unwrap();
        assert_eq!(batches.len(), 2);
    }
}
