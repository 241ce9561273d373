//! End-to-end observability demo: compile the Rodinia `lud` application
//! with a trace attached, autotune its main kernel (logging every pruning
//! decision), run the whole application on a traced simulator, and dump
//! the combined story as Chrome-trace JSON — open the file in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! ```sh
//! cargo run --release --example trace_pipeline
//! ```

use std::io::Write;

use respec::prelude::*;
use respec::Function;
use respec_rodinia::all_apps;

fn main() {
    let apps = all_apps();
    let lud = apps
        .iter()
        .find(|a| a.name() == "lud")
        .expect("lud is registered");

    // One trace handle flows through every layer: the compiler records
    // frontend/verify phases and one span per optimization pass, the
    // autotuner one decision event per candidate, the simulator one span
    // per kernel launch.
    let trace = Trace::new();
    let mut compiler = Compiler::new()
        .source(lud.source())
        .target(targets::a100())
        .with_trace(trace.clone());
    for spec in lud.specs() {
        compiler = compiler.kernel(spec.name.clone(), spec.block_dims);
    }
    let mut compiled = compiler.compile().expect("lud compiles");

    // Autotune the dominant kernel over combined block × thread coarsening;
    // the decision log (pruned: shared memory / spills, measured timings,
    // winner) lands in the same trace. The totals go high enough that some
    // candidates duplicate `lud`'s 16×16 shared tiles past the A100 budget,
    // so the trace shows real pruning decisions, not just measurements.
    let module = compiled.module.clone();
    let result = compiled
        .autotune_pooled(
            lud.main_kernel(),
            &TuneOptions::serial()
                .strategy(Strategy::Combined)
                .totals(&[1, 2, 4, 8, 16]),
            || {
                |version: &Function, _regs| {
                    let mut m = module.clone();
                    m.add_function(version.clone());
                    let mut sim = GpuSim::new(targets::a100());
                    lud.run(&mut sim, &m)?;
                    Ok(sim.elapsed_seconds)
                }
            },
        )
        .expect("tuning succeeds");
    println!(
        "tuned {}: winner {} at {:.2} µs",
        lud.main_kernel(),
        result.best_config,
        result.best_seconds * 1e6
    );

    // Run the full application once on a traced simulator: every simulated
    // launch records occupancy, coalescing/cache counters and the timing
    // breakdown.
    let mut sim = compiled.simulator();
    lud.run(&mut sim, &compiled.module).expect("lud runs");
    println!(
        "application ran in {:.2} µs simulated",
        sim.elapsed_seconds * 1e6
    );

    let report = compiled.trace_report();
    println!("\n{report}");

    let json = trace.chrome_trace();
    respec::trace::json::validate(&json).expect("exporter emits valid JSON");
    let path = "trace_pipeline.json";
    let mut file = std::fs::File::create(path).expect("create trace file");
    file.write_all(json.as_bytes()).expect("write trace file");
    println!(
        "wrote {path} ({} events, {} bytes)",
        trace.len(),
        json.len()
    );
}
