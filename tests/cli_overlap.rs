//! `ffsm overlap` at the command line: the default (indexed) builder and the
//! `--naive` all-pairs oracle print byte-identical tables for all four overlap
//! notions, and the simple row's MIS is the σMIS that `ffsm measure` reports.

use ffsm::graph::{figures, generators, io, patterns, Label, LabeledGraph, Pattern};
use std::path::Path;
use std::process::Command;

fn ffsm(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ffsm")).args(args).output().expect("run ffsm");
    assert!(out.status.success(), "ffsm {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Write `graph` and `pattern` as `<name>.lg` and `<name>-p.lg` in `dir`.
fn write_inputs(dir: &Path, name: &str, graph: &LabeledGraph, pattern: &Pattern) -> [String; 2] {
    [(name.to_string(), graph), (format!("{name}-p"), pattern)].map(|(file, g)| {
        let path = dir.join(format!("{file}.lg"));
        io::save_lg(g, &path).expect("write .lg");
        path.to_str().expect("utf-8 temp path").to_string()
    })
}

#[test]
fn indexed_and_naive_overlap_tables_agree_and_match_measure() {
    let dir = std::env::temp_dir().join(format!("ffsm-cli-overlap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let (figure9, figure10) = (figures::figure9(), figures::figure10());
    let cases = [
        ("figure9", figure9.graph, figure9.pattern),
        ("figure10", figure10.graph, figure10.pattern),
        ("star", generators::star_overlap(4, 6), patterns::single_edge(Label(0), Label(1))),
    ];
    for (name, graph, pattern) in &cases {
        let [g, p] = write_inputs(&dir, name, graph, pattern);
        let indexed = ffsm(&["overlap", &g, "--pattern", &p]);
        assert_eq!(indexed, ffsm(&["overlap", &g, "--pattern", &p, "--naive"]), "{name}");
        let rows: Vec<Vec<&str>> =
            indexed.lines().skip(2).map(|line| line.split_whitespace().collect()).collect();
        let notions: Vec<&str> = rows.iter().map(|row| row[0]).collect();
        assert_eq!(notions, ["simple", "harmful", "structural", "edge"], "{name}");
        let measured = ffsm(&["measure", &g, "--pattern", &p, "--measure", "MIS"]);
        let mis = measured.trim().strip_prefix("MIS = ").expect("`MIS = <value>` line");
        assert_eq!(mis.parse::<f64>().unwrap(), rows[0][2].parse::<f64>().unwrap(), "{name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
