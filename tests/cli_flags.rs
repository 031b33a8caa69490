//! The `ffsm` binary checks each command line against its subcommand's flag
//! table: an unknown flag, a value flag with no value, a flag given twice and a
//! stray positional exit 1, name the offending token on stderr and print nothing
//! on stdout; valid invocations still run.

use ffsm::graph::{generators, io, patterns, Label};
use std::path::PathBuf;
use std::process::{Command, Output};

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("ffsm-cli-flags-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        TempDir(dir)
    }

    /// `file` inside the directory, as a `&str` argument.
    fn path(&self, file: &str) -> String {
        self.0.join(file).to_str().expect("utf-8 temp path").to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn ffsm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ffsm")).args(args).output().expect("run ffsm")
}

/// A grid graph, a one-edge pattern and a one-batch update file in `dir`.
fn inputs(dir: &TempDir) -> (String, String, String) {
    let (graph, pattern, updates) = (dir.path("g.lg"), dir.path("p.lg"), dir.path("u.gu"));
    io::save_lg(&generators::grid(4, 4, 2), graph.as_ref()).unwrap();
    io::save_lg(&patterns::single_edge(Label(0), Label(1)), pattern.as_ref()).unwrap();
    std::fs::write(&updates, "t 0\nae 0 5\n").unwrap();
    (graph, pattern, updates)
}

#[test]
fn malformed_command_lines_exit_1_and_name_the_token() {
    let dir = TempDir::new("malformed");
    let (g, p, _) = inputs(&dir);
    let out = dir.path("out.lg");
    let cases: &[(&[&str], &str)] = &[
        (&["mine", &g, "--tau", "12", "--parallel"], "--parallel"),
        (&["topk", &g, "--k", "5", "--threads", "2"], "--threads"),
        (&["match", &g, "--pattern", &p, "--threads", "2"], "--threads"),
        (&["serve", "--graph", "g=g.lg", "--bogus"], "--bogus"),
        (&["mine", &g, "--tau"], "--tau"),
        (&["mine", &g, "--tau", "--stream"], "--tau"),
        (&["mine", &g, "--tau", "1", "--tau", "2"], "--tau"),
        (&["mine", &g, "stray", "--tau", "12"], "stray"),
        (&["generate", "grid", &out, "extra"], "extra"),
    ];
    for (args, token) in cases {
        let output = ffsm(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(token), "{args:?}: stderr does not name {token}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} printed to stdout");
    }
    assert!(!std::path::Path::new(&out).exists(), "a rejected generate wrote its file");
}

#[test]
fn valid_command_lines_exit_0() {
    let dir = TempDir::new("valid");
    let (g, p, u) = inputs(&dir);
    let out = dir.path("out.lg");
    let cases: &[&[&str]] = &[
        &["stats", &g],
        &["measure", &g, "--pattern", &p, "--measure", "MNI"],
        &["match", &g, "--pattern", &p, "--naive", "--induced", "--limit", "100"],
        &["overlap", &g, "--pattern", &p, "--kind", "simple", "--naive"],
        &["mine", &g, "--tau", "2", "--max-edges", "2", "--threads", "2", "--trace"],
        &["mine", &g, "--tau", "2", "--max-edges", "1", "--shards", "2", "--partition", "label"],
        &["topk", &g, "--k", "2", "--max-edges", "1", "--measure", "MI"],
        &["update", &g, "--updates", &u, "--tau", "2", "--max-edges", "1", "--cold"],
        &["generate", "grid", &out, "--seed", "3"],
    ];
    for args in cases {
        let output = ffsm(args);
        assert!(output.status.success(), "{args:?}: {}", String::from_utf8_lossy(&output.stderr));
    }
}

#[test]
fn closed_stdout_ends_every_command_cleanly() {
    // A consumer that stops reading (`ffsm ... | head`) closes the pipe before
    // the command writes: every command, batch or streaming, stops without a
    // panic (exit 101) and exits 0.
    let dir = TempDir::new("closed");
    let (g, p, u) = inputs(&dir);
    let cases: &[&[&str]] = &[
        &["--help"],
        &["stats", &g],
        &["measure", &g, "--pattern", &p],
        &["overlap", &g, "--pattern", &p],
        &["mine", &g, "--tau", "2", "--max-edges", "2"],
        &["mine", &g, "--tau", "2", "--max-edges", "2", "--stream"],
        &["topk", &g, "--k", "2", "--max-edges", "1"],
        &["update", &g, "--updates", &u, "--tau", "2", "--max-edges", "1"],
    ];
    for args in cases {
        let (reader, writer) = std::io::pipe().expect("create pipe");
        drop(reader);
        let output = Command::new(env!("CARGO_BIN_EXE_ffsm"))
            .args(*args)
            .stdout(writer)
            .output()
            .expect("run ffsm");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert_eq!(output.status.code(), Some(0), "{args:?}: {stderr}");
    }
}
