//! # ffsm-bench — the CI gate suites and the paper experiment tables
//!
//! Two binaries share this library: `bench` runs the gate suites through the
//! [`harness`] (one `BENCH_<suite>.json` report per suite, a non-zero exit on a
//! failed gate), and `experiments` prints the paper-reproduction tables E1–E14
//! as Markdown ([`report::Table`]).  Both draw their inputs from [`workloads`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod report;
pub mod workloads;

use std::time::{Duration, Instant};

/// Run `f` once and return its result together with the elapsed wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Format a `Duration` with a sensible unit for tables.
pub fn format_duration(d: Duration) -> String {
    let micros = d.as_micros();
    if micros < 1_000 {
        format!("{micros}us")
    } else if micros < 1_000_000 {
        format!("{:.2}ms", micros as f64 / 1_000.0)
    } else {
        format!("{:.2}s", micros as f64 / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_micros(5)), "5us");
        assert_eq!(format_duration(Duration::from_micros(2_500)), "2.50ms");
        assert_eq!(format_duration(Duration::from_millis(1_500)), "1.50s");
    }

    #[test]
    fn timed_returns_result() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
    }
}
