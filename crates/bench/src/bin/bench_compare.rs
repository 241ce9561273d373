//! Diffs two `BENCH_tune.json` baselines: per-app old-over-new speedup of
//! the serial and parallel tuning searches, with a geomean footer. Two
//! `BENCH_interp.json` baselines diff the scalar and warp executors in the
//! same columns.
//!
//! ```text
//! cargo run -p respec-bench --bin bench_compare -- OLD.json NEW.json
//! ```
//!
//! Typical use: stash the committed `BENCH_tune.json`, regenerate it with
//! `cargo bench --bench tune_throughput -- --json`, then compare the two.

use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (old_path, new_path) = match (args.get(1), args.get(2)) {
        (Some(o), Some(n)) => (o, n),
        _ => {
            eprintln!("usage: bench_compare <old BENCH_tune.json> <new BENCH_tune.json>");
            exit(2);
        }
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("bench_compare: cannot read {path}: {e}");
            exit(2);
        })
    };
    let old = read(old_path);
    let new = read(new_path);
    match respec_bench::bench_compare(&old, &new) {
        Ok(deltas) => respec_bench::print_bench_compare(&deltas),
        Err(e) => {
            eprintln!("bench_compare: {e}");
            exit(1);
        }
    }
}
