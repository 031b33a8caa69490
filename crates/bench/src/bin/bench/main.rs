//! `bench` — the CI gate suites, one binary.
//!
//! Usage: `bench [--out DIR] [overlap|match|prepared|dynamic|serve|obs|shard|approx]...`
//! (no names runs every suite).  Each suite writes `DIR/BENCH_<suite>.json`, one
//! JSON object per line (also echoed to stdout), and records its gates; after the
//! last suite the failed gates are listed and the process exits 1.  Oracle
//! cross-checks stay hard assertions: a divergence aborts its suite and fails
//! the run.  Workload sizes are constants in each suite module.

mod approx;
mod dynamic;
mod matching;
mod obs;
mod overlap;
mod prepared;
mod serve;
mod shard;

use ffsm_bench::harness::{self, Suite};

const SUITES: &[Suite] = &[
    Suite { name: "overlap", run: overlap::run },
    Suite { name: "match", run: matching::run },
    Suite { name: "prepared", run: prepared::run },
    Suite { name: "dynamic", run: dynamic::run },
    Suite { name: "serve", run: serve::run },
    Suite { name: "obs", run: obs::run },
    Suite { name: "shard", run: shard::run },
    Suite { name: "approx", run: approx::run },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(harness::main(&args, SUITES));
}
