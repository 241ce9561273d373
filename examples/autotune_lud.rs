//! Autotuning demo (§VI–§VII-B): sweep combined block/thread coarsening
//! configurations for Rodinia `lud` on the simulated A100 and print the
//! timing-driven optimization outcome — the paper's Fig. 14 in miniature.
//!
//! ```sh
//! cargo run --release --example autotune_lud
//! ```

use respec::prelude::*;
use respec::{candidate_configs, tune_kernel_pooled, Function};
use respec_rodinia::{all_apps, compile_app};

fn main() {
    let apps = all_apps();
    let lud = apps
        .iter()
        .find(|a| a.name() == "lud")
        .expect("lud is registered");
    let module = compile_app(lud.as_ref()).expect("lud compiles");
    let func = module
        .function(lud.main_kernel())
        .expect("main kernel")
        .clone();
    let target = targets::a100();
    let launch = respec::ir::kernel::analyze_function(&func)
        .expect("kernel shape")
        .remove(0);
    println!(
        "tuning {} (block {}x{}, {} B shared/block) on {}",
        lud.main_kernel(),
        launch.block_dims[0],
        launch.block_dims[1],
        launch.shared_bytes(&func),
        target.name
    );

    let configs = candidate_configs(Strategy::Combined, &[1, 2, 4, 8], &launch.block_dims);
    println!("{} candidate configurations\n", configs.len());

    let result = tune_kernel_pooled(
        &func,
        &target,
        &configs,
        &TuneOptions::serial(),
        || {
            |version: &Function, _regs| {
                let mut m = module.clone();
                m.add_function(version.clone());
                let mut sim = GpuSim::new(targets::a100());
                lud.run(&mut sim, &m)?;
                Ok(sim.elapsed_seconds)
            }
        },
        &Trace::disabled(),
    )
    .expect("tuning succeeds");

    println!(
        "{:<28} {:>12} {:>10}  outcome",
        "config", "time(µs)", "speedup"
    );
    let identity = result
        .candidates
        .iter()
        .find(|c| c.config.is_identity())
        .and_then(|c| c.seconds)
        .expect("identity measured");
    for c in &result.candidates {
        let outcome = match (&c.seconds, &c.pruned) {
            (Some(_), _) => "measured".to_string(),
            (None, Some(reason)) => format!("pruned: {reason}"),
            (None, None) => "skipped".to_string(),
        };
        match c.seconds {
            Some(s) => println!(
                "{:<28} {:>12.2} {:>9.2}x  {}",
                c.config.to_string(),
                s * 1e6,
                identity / s,
                outcome
            ),
            None => println!(
                "{:<28} {:>12} {:>10}  {}",
                c.config.to_string(),
                "-",
                "-",
                outcome
            ),
        }
    }
    println!(
        "\nwinner: {} at {:.2} µs ({:.2}x over the uncoarsened kernel, {} regs/thread)",
        result.best_config,
        result.best_seconds * 1e6,
        identity / result.best_seconds,
        result.best_regs
    );
}
