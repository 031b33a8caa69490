//! The core of the `bench` gate binary, shared by every suite: the suite table
//! entry, the interleaved min-of-K arm timer, the NDJSON report writer and the
//! gate recorder.
//!
//! A run executes every selected suite even when an earlier one fails a gate or
//! panics in a cross-check, writes each suite's report to
//! `<out>/BENCH_<suite>.json` (one JSON object per line, echoed to stdout),
//! then lists the failed gates and exits 1.

use crate::timed;
use ffsm_serve::events::Frame;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One named suite of the `bench` binary.
pub struct Suite {
    /// The name selected on the command line and used in `BENCH_<name>.json`.
    pub name: &'static str,
    /// Runs the suite's workloads, recording report entries and gates.
    pub run: fn(&mut Run),
}

/// A failed gate, tagged with the suite that recorded it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// The suite name.
    pub suite: &'static str,
    /// The gate name (`panic` when a cross-check assertion fired).
    pub gate: String,
    /// Why the gate failed.
    pub message: String,
}

/// The state of one `bench` run: the current suite's report and every failure.
pub struct Run {
    suite: &'static str,
    lines: Vec<String>,
    failures: Vec<Failure>,
}

impl Run {
    /// Start a report entry for the current suite: `{"event": "bench", "suite":
    /// <name>, ...}`; append its keys with [`Frame::raw`] / [`Frame::str`] (they
    /// come out in call order) and pass it to [`Run::record`].
    pub fn entry(&self) -> Frame {
        Frame::event("bench").str("suite", self.suite)
    }

    /// Echo `entry` to stdout and keep it for the suite's report file.
    pub fn record(&mut self, entry: Frame) {
        let line = entry.finish();
        println!("{line}");
        self.lines.push(line);
    }

    /// Record gate `name` of the current suite; a gate that is not `ok` fails the
    /// run with `message`, but the suite and every later one still run.
    pub fn gate(&mut self, name: &str, ok: bool, message: String) {
        let verdict = if ok { "ok" } else { "FAILED" };
        println!("gate {}/{name}: {verdict}", self.suite);
        if !ok {
            self.failures.push(Failure { suite: self.suite, gate: name.to_string(), message });
        }
    }

    /// Write the current suite's report as `dir/BENCH_<suite>.json`.
    fn write_report(&mut self, dir: &Path) {
        let path = dir.join(format!("BENCH_{}.json", self.suite));
        let body: String = self.lines.iter().map(|line| format!("{line}\n")).collect();
        match std::fs::write(&path, body) {
            Ok(()) => println!("wrote {} ({} entries)", path.display(), self.lines.len()),
            Err(e) => self.gate("report", false, format!("cannot write {}: {e}", path.display())),
        }
    }
}

/// Interleaved min-of-K timing: run every arm `rounds` times, round `r` starting
/// at arm `r % arms.len()` so that no arm always runs first, and return each
/// arm's fastest sample together with that run's output.  Machine noise then hits
/// every arm alike.  Arms that must agree assert it inside their closures.
pub fn min_of_k<T>(rounds: usize, arms: &mut [&mut dyn FnMut() -> T]) -> Vec<(Duration, T)> {
    assert!(rounds > 0, "min_of_k needs at least one round");
    let n = arms.len();
    let mut best: Vec<Option<(Duration, T)>> = (0..n).map(|_| None).collect();
    for round in 0..rounds {
        for i in 0..n {
            let arm = (round + i) % n;
            let (out, elapsed) = timed(&mut *arms[arm]);
            if best[arm].as_ref().is_none_or(|(fastest, _)| elapsed < *fastest) {
                best[arm] = Some((elapsed, out));
            }
        }
    }
    best.into_iter().map(|b| b.expect("every arm ran")).collect()
}

/// The `bench` entry point: parse `[--out DIR] [SUITE ...]`, run the named
/// suites of `suites` in table order (all of them when none is named), write
/// their reports into `DIR` (default: the working directory) and return the exit
/// status — 0 when every gate passed, 1 when one failed.  An unknown suite name
/// or flag is a usage error: it returns 1 before any suite runs.
pub fn main(args: &[String], suites: &[Suite]) -> i32 {
    let mut out = PathBuf::from(".");
    let mut names: Vec<&str> = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => return usage("--out expects a directory", suites),
            },
            name if suites.iter().any(|s| s.name == name) => names.push(name),
            other => return usage(&format!("unknown suite or flag {other:?}"), suites),
        }
    }
    let mut run = Run { suite: "", lines: Vec::new(), failures: Vec::new() };
    for suite in suites.iter().filter(|s| names.is_empty() || names.contains(&s.name)) {
        run.suite = suite.name;
        run.lines.clear();
        println!("# suite {}", suite.name);
        // A cross-check assertion aborts only its own suite: the entries recorded
        // so far are still written, and the later suites still run.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| (suite.run)(&mut run)));
        if let Err(payload) = outcome {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            run.gate("panic", false, message);
        }
        run.write_report(&out);
    }
    if run.failures.is_empty() {
        println!("all gates passed");
        return 0;
    }
    eprintln!("{} gate(s) failed:", run.failures.len());
    for f in &run.failures {
        eprintln!("  {}/{}: {}", f.suite, f.gate, f.message);
    }
    1
}

fn usage(problem: &str, suites: &[Suite]) -> i32 {
    let names: Vec<&str> = suites.iter().map(|s| s.name).collect();
    eprintln!("bench: {problem}\nusage: bench [--out DIR] [{}]...", names.join("|"));
    1
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arm_timer_keeps_each_minimum_and_alternates_the_first_arm() {
        let order = RefCell::new(Vec::new());
        // Arm `a` is fast only in its second round; arm `b` only in its first.
        let (mut a_calls, mut b_calls) = (0, 0);
        let mut a = || {
            order.borrow_mut().push('a');
            a_calls += 1;
            std::thread::sleep(Duration::from_millis(if a_calls == 2 { 1 } else { 40 }));
            a_calls
        };
        let mut b = || {
            order.borrow_mut().push('b');
            b_calls += 1;
            std::thread::sleep(Duration::from_millis(if b_calls == 1 { 1 } else { 40 }));
            b_calls
        };
        let best = min_of_k(3, &mut [&mut a, &mut b]);
        assert_eq!(order.into_inner(), vec!['a', 'b', 'b', 'a', 'a', 'b']);
        assert_eq!((best[0].1, best[1].1), (2, 1), "output of each arm's fastest run");
        assert!(best.iter().all(|(d, _)| *d < Duration::from_millis(40)), "{best:?}");
    }

    #[test]
    fn report_entries_keep_call_order_and_escape_strings() {
        let dir = std::env::temp_dir().join(format!("ffsm-bench-report-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut run = Run { suite: "demo", lines: Vec::new(), failures: Vec::new() };
        run.record(run.entry().str("workload", "a \"quoted\"\nname").raw("size", 3).raw("x", 1.5));
        run.write_report(&dir);
        let written = std::fs::read_to_string(dir.join("BENCH_demo.json")).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            written,
            "{\"event\": \"bench\", \"suite\": \"demo\", \"workload\": \"a \\\"quoted\\\"\\nname\", \
             \"size\": 3, \"x\": 1.5}\n"
        );
        assert!(run.failures.is_empty());
    }

    fn failing(run: &mut Run) {
        run.record(run.entry().raw("n", 1));
        run.gate("floor", false, "measured 1, floor 2".to_string());
        run.gate("ceiling", true, String::new());
    }

    fn panicking(run: &mut Run) {
        run.record(run.entry().raw("n", 2));
        panic!("oracle diverged");
    }

    fn passing(run: &mut Run) {
        run.record(run.entry().raw("n", 3));
        run.gate("floor", true, String::new());
    }

    const SUITES: &[Suite] = &[
        Suite { name: "failing", run: failing },
        Suite { name: "panicking", run: panicking },
        Suite { name: "passing", run: passing },
    ];

    #[test]
    fn failed_gates_fail_the_run_after_every_suite_wrote_its_report() {
        let dir = std::env::temp_dir().join(format!("ffsm-bench-gates-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.to_str().unwrap();
        let report = |suite: &str| std::fs::read_to_string(dir.join(format!("BENCH_{suite}.json")));

        assert_eq!(main(&args(&["--out", out]), SUITES), 1);
        for (suite, n) in [("failing", 1), ("panicking", 2), ("passing", 3)] {
            assert!(report(suite).unwrap().ends_with(&format!("\"n\": {n}}}\n")), "{suite}");
        }

        let mut run = Run { suite: "", lines: Vec::new(), failures: Vec::new() };
        run.suite = "failing";
        failing(&mut run);
        assert_eq!(
            run.failures,
            vec![Failure {
                suite: "failing",
                gate: "floor".to_string(),
                message: "measured 1, floor 2".to_string()
            }]
        );

        assert_eq!(main(&args(&["--out", out, "panicking"]), SUITES), 1, "a panic fails the run");
        assert_eq!(main(&args(&["--out", out, "passing"]), SUITES), 0);
        std::fs::remove_dir_all(&dir).unwrap();
        // Unknown names and flags are usage errors that run nothing.
        assert_eq!(main(&args(&["--out", out, "passing", "nope"]), SUITES), 1);
        assert_eq!(main(&args(&["--out", out, "--rounds"]), SUITES), 1);
        assert_eq!(main(&args(&["--out"]), SUITES), 1);
        assert!(!dir.exists(), "a usage error wrote a report");
    }
}
