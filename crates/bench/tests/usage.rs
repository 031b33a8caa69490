//! Both binaries reject an unknown name with exit status 1 before any work runs.

use std::process::Command;

#[test]
fn bench_rejects_an_unknown_suite_before_running_any() {
    let dir = std::env::temp_dir().join(format!("ffsm-bench-usage-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--out", dir.to_str().unwrap(), "overlap", "overlapp"])
        .output()
        .expect("run bench");
    let written = std::fs::read_dir(&dir).unwrap().count();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("\"overlapp\""));
    assert!(output.stdout.is_empty(), "a suite ran: {}", String::from_utf8_lossy(&output.stdout));
    assert_eq!(written, 0, "a report was written");
}

#[test]
fn experiments_rejects_an_unknown_experiment_before_running_any() {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["e1", "eX", "--quick"])
        .output()
        .expect("run experiments");
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("\"eX\""));
    assert!(output.stdout.is_empty(), "an experiment ran");
}
