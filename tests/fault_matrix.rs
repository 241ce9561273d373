//! Seeded fault-matrix integration test: the tuning engine over real
//! Rodinia apps, with the runner wrapped in the test-side fault decorator
//! ([`faulty::Faulty`]) at escalating rates.
//!
//! For each app × rate cell the engine must (a) never panic, (b) run every
//! version at most once, (c) return a winner whose substituted module
//! still verifies against the app's sequential reference, (d) lose
//! candidates exactly when the decorator failed or panicked a version it
//! ran, and (e) — the differential guarantee — select the fault-free
//! winner whenever that candidate survived with its exact unslowed timing.
//! Total loss must be a structured `NoSurvivors` error.
//!
//! The decorator folds `RESPEC_CHAOS_SEED` into each cell's seed, and the
//! worker count comes from `RESPEC_TUNE_PARALLELISM`, so a CI matrix sweeps
//! fresh schedules at several worker counts without edits here.

#[path = "../crates/tune/tests/support/faulty.rs"]
mod faulty;

use faulty::{Fault, Faulty, Rates};
use respec::tune::PruneReason;
use respec::{
    candidate_configs, targets, tune_kernel_pooled, Strategy, Trace, TuneErrorKind, TuneOptions,
    TuneResult,
};
use respec_rodinia::{all_apps_sized, compile_app, max_abs_err, App, Workload};

const APPS: [&str; 3] = ["lud", "pathfinder", "gaussian"];
const RATES: [f64; 3] = [0.0, 0.1, 0.5];
const SLOW: f64 = 0.2;
const TOTALS: [i64; 2] = [1, 2];

/// Per-cell decorator: deterministic in (app, rate). Rate 0 injects
/// nothing and only records calls.
fn faulty_for(app_idx: usize, rate_idx: usize) -> Faulty {
    let rate = RATES[rate_idx];
    if rate == 0.0 {
        return Faulty::new(0, Rates::NONE);
    }
    let seed = app_idx as u64 * 1009 + rate_idx as u64 + 1;
    Faulty::new(
        seed,
        Rates {
            fail: rate / 2.0,
            panic: rate / 2.0,
            slow: SLOW,
        },
    )
}

fn options() -> TuneOptions {
    let parallelism = std::env::var("RESPEC_TUNE_PARALLELISM")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(1);
    TuneOptions::with_parallelism(parallelism.max(1))
}

fn tune_cell(app: &dyn App, faulty: &Faulty) -> Result<TuneResult, respec::tune::TuneError> {
    let module = compile_app(app).expect("app compiles");
    let kernel = app.main_kernel().to_string();
    let func = module.function(&kernel).expect("main kernel").clone();
    let target = targets::a100();
    let launches = respec::ir::kernel::analyze_function(&func).expect("kernel shape");
    let configs = candidate_configs(Strategy::Combined, &TOTALS, &launches[0].block_dims);
    tune_kernel_pooled(
        &func,
        &target,
        &configs,
        &options(),
        faulty.decorate(|| {
            let module = &module;
            let kernel = kernel.clone();
            move |version: &respec::Function, _regs: u32| {
                let mut m = module.clone();
                m.add_function(version.clone());
                let mut sim = respec::GpuSim::new(targets::a100());
                app.run(&mut sim, &m)?;
                let max = sim
                    .launch_log
                    .iter()
                    .filter(|t| t.kernel == kernel)
                    .map(|t| t.seconds)
                    .fold(0.0f64, f64::max);
                Ok(sim.kernel_seconds_above(&kernel, max * 0.25))
            }
        }),
        &Trace::disabled(),
    )
}

/// Substitutes the winner into the module and verifies the full app output
/// against the sequential reference.
fn verify_winner(app: &dyn App, result: &TuneResult) {
    let mut module = compile_app(app).expect("app compiles");
    module.add_function(result.best.clone());
    let mut sim = respec::GpuSim::new(targets::a100());
    let out = app.run(&mut sim, &module).expect("tuned module runs");
    let err = max_abs_err(&out, &app.reference());
    assert!(
        err <= app.tolerance(),
        "{}: tuned winner {} produced wrong output (err {err:.3e})",
        app.name(),
        result.best_config
    );
}

fn lost(result: &TuneResult) -> usize {
    result
        .candidates
        .iter()
        .filter(|c| matches!(c.pruned, Some(PruneReason::RunFailed(_))))
        .count()
}

#[test]
fn fault_matrix_over_rodinia_apps() {
    let apps = all_apps_sized(Workload::Small);
    for (app_idx, name) in APPS.iter().enumerate() {
        let app = apps
            .iter()
            .find(|a| a.name() == *name)
            .expect("app registered");

        // Rate 0 first: the clean baseline every faulted cell is compared
        // against.
        let observer = faulty_for(app_idx, 0);
        let clean = tune_cell(app.as_ref(), &observer)
            .expect("fault-free tuning succeeds on Small workloads");
        assert_eq!(lost(&clean), 0, "{name}: clean run lost candidates");
        verify_winner(app.as_ref(), &clean);

        for (rate_idx, &rate) in RATES.iter().enumerate().skip(1) {
            let faulty = faulty_for(app_idx, rate_idx);
            let outcome = tune_cell(app.as_ref(), &faulty);
            let ledger = faulty.ledger();
            assert!(
                ledger.values().all(|e| e.calls == 1),
                "{name}@{rate}: a version ran more than once: {ledger:?}"
            );
            let hard = ledger
                .values()
                .filter(|e| matches!(e.fault, Some(Fault::Fail | Fault::Panic)))
                .count();
            match outcome {
                Ok(result) => {
                    // Whenever a winner is returned its output verifies.
                    verify_winner(app.as_ref(), &result);
                    // Candidates are lost exactly when the decorator failed
                    // or panicked a version it ran.
                    assert_eq!(
                        lost(&result) > 0,
                        hard > 0,
                        "{name}@{rate}: losses disagree with the ledger"
                    );
                    assert!(result.best_seconds >= clean.best_seconds);
                    // Differential winner check: a surviving unslowed clean
                    // winner must stay the winner.
                    let wi = result
                        .candidates
                        .iter()
                        .position(|c| c.config == clean.best_config)
                        .expect("clean winner config is in the ladder");
                    let survivor = &result.candidates[wi];
                    if survivor.seconds.map(f64::to_bits) == Some(clean.best_seconds.to_bits()) {
                        assert_eq!(
                            result.best_config, clean.best_config,
                            "{name}@{rate}: surviving clean winner was shadowed"
                        );
                        assert_eq!(result.best_seconds.to_bits(), clean.best_seconds.to_bits());
                    }
                }
                Err(e) => {
                    // Total loss must be structured, and every version the
                    // clean cell measured was failed by the decorator.
                    assert_eq!(e.kind, TuneErrorKind::NoSurvivors, "{name}@{rate}");
                    assert!(e.message.contains("no candidate"));
                    assert!(observer.ledger().iter().all(|(h, _)| matches!(
                        faulty.decide(*h),
                        Some(Fault::Fail | Fault::Panic)
                    )));
                }
            }
        }
    }
}
