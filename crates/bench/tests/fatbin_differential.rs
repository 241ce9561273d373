//! Fat-binary differential suite.
//!
//! The fat artifact's contract: dispatching on any mined target must behave
//! exactly like that target's own tuned winner — bit-identical application
//! outputs (the variant is a semantics-preserving respecialization of the
//! same kernel) and simulated time within the configured ε of the tuned
//! optimum. Never-seen targets must resolve through the nearest-neighbor
//! feature fallback, and a cold or corrupt winner store must degrade to a
//! structured [`respec::Error::Fatbin`], not a panic.
//!
//! Worker count comes from the environment (`RESPEC_TUNE_PARALLELISM`), so
//! the CI matrix exercises this suite at parallelism 1 and 4.

use std::sync::Arc;

use respec::sim::TargetModel;
use respec::{targets, Error, GpuSim, Strategy, TuneOptions, TuningCache};
use respec_bench::{
    compiled_module, fatbin_for_app, fatbin_targets, filtered_kernel_seconds, tuned_module_with,
    Pipeline,
};
use respec_rodinia::{all_apps_with_gemm, App, Workload};

const EPSILON: f64 = 0.05;
const TOTALS: [i64; 2] = [1, 2];

fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "respec-fatbin-diff-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn env_options() -> TuneOptions {
    TuneOptions::from_env().expect("invalid RESPEC_* environment")
}

/// Runs `app` with `func` installed as the main-kernel version on `target`,
/// returning the output vector and the filtered main-kernel seconds.
fn run_with_version(
    app: &dyn App,
    func: &respec::Function,
    target: &dyn TargetModel,
) -> (Vec<f64>, f64) {
    let mut module = compiled_module(app, Pipeline::PolygeistNoOpt);
    module.add_function(func.clone());
    let mut sim = GpuSim::for_model(target);
    let out = app
        .run(&mut sim, &module)
        .unwrap_or_else(|e| panic!("{} fails under dispatched variant: {e:?}", app.name()));
    let seconds = filtered_kernel_seconds(&sim, app.main_kernel());
    (out, seconds)
}

#[test]
fn fat_dispatch_matches_every_targets_own_tuned_winner() {
    let options = env_options();
    let fat_targets = fatbin_targets();
    let dir = temp_cache_dir("differential");
    let cache = Arc::new(TuningCache::open(&dir).expect("cache opens"));
    for app in all_apps_with_gemm(Workload::Small) {
        let fat = fatbin_for_app(
            app.as_ref(),
            &fat_targets,
            &TOTALS,
            &cache,
            EPSILON,
            &options,
        )
        .unwrap_or_else(|e| panic!("{}: fat binary fails to mine: {e}", app.name()));
        assert_eq!(fat.targets.len(), fat_targets.len());
        assert!(
            fat.variant_count() <= fat_targets.len(),
            "{}: more variants than targets",
            app.name()
        );
        for target in &fat_targets {
            let ctx = format!("{} on {}", app.name(), target.name());
            // The target's own tuned winner, replayed from the same store
            // the miner read (warm: zero new measurements).
            let (tuned_module, tuned) = tuned_module_with(
                app.as_ref(),
                target.as_ref(),
                Strategy::Combined,
                &TOTALS,
                &options.clone().cache(cache.clone()),
            );
            let tuned = tuned.unwrap_or_else(|| panic!("no tuned winner: {ctx}"));
            let mut sim = GpuSim::for_model(target.as_ref());
            let tuned_out = app
                .run(&mut sim, &tuned_module)
                .unwrap_or_else(|e| panic!("tuned run fails: {ctx}: {e:?}"));
            let tuned_seconds = filtered_kernel_seconds(&sim, app.main_kernel());

            let d = fat
                .dispatch(target.as_ref())
                .unwrap_or_else(|e| panic!("dispatch fails: {ctx}: {e}"));
            assert!(d.exact, "mined target must hit by fingerprint: {ctx}");
            let (fat_out, fat_seconds) = run_with_version(app.as_ref(), d.func, target.as_ref());

            assert_eq!(
                tuned_out.len(),
                fat_out.len(),
                "output length diverged: {ctx}"
            );
            for (i, (t, f)) in tuned_out.iter().zip(&fat_out).enumerate() {
                assert_eq!(
                    t.to_bits(),
                    f.to_bits(),
                    "output[{i}] diverged: {ctx} (tuned {t}, fat {f}, variant {})",
                    d.config
                );
            }
            // The dispatched variant's measured time honors the ε budget
            // against the target's own optimum (bit-exact simulator, so no
            // measurement-noise cushion is needed beyond float rounding).
            assert!(
                fat_seconds <= tuned_seconds * (1.0 + EPSILON) * (1.0 + 1e-12),
                "{ctx}: fat variant {} takes {fat_seconds} vs tuned {tuned_seconds} \
                 (budget {EPSILON})",
                d.config
            );
            // The dispatch table recorded exactly what re-measurement sees.
            assert_eq!(
                d.via.dispatch_seconds.to_bits(),
                fat_seconds.to_bits(),
                "recorded dispatch time diverged from re-measurement: {ctx}"
            );
            assert_eq!(
                tuned.best_seconds.to_bits(),
                tuned_seconds.to_bits(),
                "tuned winner re-measurement diverged: {ctx}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn never_seen_target_resolves_by_nearest_neighbor_features() {
    let options = env_options();
    let fat_targets = fatbin_targets();
    let dir = temp_cache_dir("fallback");
    let cache = Arc::new(TuningCache::open(&dir).expect("cache opens"));
    let apps = all_apps_with_gemm(Workload::Small);
    let app = apps
        .iter()
        .find(|a| a.name() == "pathfinder")
        .expect("registered");
    let fat = fatbin_for_app(
        app.as_ref(),
        &fat_targets,
        &TOTALS,
        &cache,
        EPSILON,
        &options,
    )
    .expect("fat binary mines");

    // A 7th GPU nobody tuned: a perturbed A4000 (fewer SMs, different
    // clock), absent from the registry and from the dispatch table.
    let mut synth = targets::a4000();
    synth.name = "NVIDIA A4000 (cut-down OEM)";
    synth.sm_count = 40;
    synth.clock_hz = 1.41e9;
    assert!(
        fat.targets
            .iter()
            .all(|t| t.fingerprint != synth.fingerprint()),
        "perturbed desc must not collide with a mined fingerprint"
    );
    let d = fat
        .dispatch(&synth)
        .expect("synthetic GPU resolves via nearest neighbor");
    assert!(!d.exact, "a never-seen fingerprint cannot be an exact hit");
    assert_eq!(d.via.kind, respec::sim::TargetKind::Gpu);
    // The dispatched code must actually run the app on the synthetic
    // target, and its slowdown vs a from-scratch tune is finite and
    // reportable.
    let (_, fat_seconds) = run_with_version(app.as_ref(), d.func, &synth);
    let (_, scratch) = tuned_module_with(
        app.as_ref(),
        &synth,
        Strategy::Combined,
        &TOTALS,
        &TuneOptions::serial(),
    );
    let scratch = scratch.expect("from-scratch tune on the synthetic target");
    let slowdown = fat_seconds / scratch.best_seconds;
    assert!(
        slowdown.is_finite() && slowdown >= 1.0 - 1e-12,
        "from-scratch tuning searches a superset of the variant pool, got {slowdown}"
    );
    eprintln!(
        "synthetic GPU fallback: dispatched {} via {} — {fat_seconds:.3e}s vs \
         from-scratch {:.3e}s ({slowdown:.3}x slowdown)",
        d.config, d.via.name, scratch.best_seconds
    );

    // Kind-scoped fallback: a perturbed CPU must resolve to a CPU entry,
    // never leak across the divide to a (feature-closer) GPU.
    let mut cpu = targets::cpu_desktop8();
    cpu.name = "CPU Desktop 12c AVX2";
    cpu.sm_count = 12;
    let d = fat
        .dispatch(&cpu)
        .expect("synthetic CPU resolves via nearest neighbor");
    assert!(!d.exact);
    assert_eq!(d.via.kind, respec::sim::TargetKind::Cpu);
    let (_, cpu_seconds) = run_with_version(app.as_ref(), d.func, &cpu);
    assert!(cpu_seconds > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn gpu_only_fat_binary_rejects_cpu_dispatch() {
    let options = env_options();
    let gpu_targets: Vec<Arc<dyn TargetModel>> = fatbin_targets()
        .into_iter()
        .filter(|t| t.kind() == respec::sim::TargetKind::Gpu)
        .collect();
    let dir = temp_cache_dir("gpu-only");
    let cache = Arc::new(TuningCache::open(&dir).expect("cache opens"));
    let apps = all_apps_with_gemm(Workload::Small);
    let app = apps.iter().find(|a| a.name() == "nn").expect("registered");
    let fat = fatbin_for_app(
        app.as_ref(),
        &gpu_targets,
        &TOTALS,
        &cache,
        EPSILON,
        &options,
    )
    .expect("GPU-only fat binary mines");
    assert!(fat
        .targets
        .iter()
        .all(|t| t.kind == respec::sim::TargetKind::Gpu));
    let cpu = targets::by_name("cpu-desktop8").expect("registered");
    match fat.dispatch(cpu.as_ref()) {
        Err(Error::Fatbin(m)) => {
            assert!(m.contains("cpu"), "error should name the missing kind: {m}");
        }
        other => panic!("expected Error::Fatbin, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cold_cache_is_a_structured_error_not_a_panic() {
    let dir = temp_cache_dir("cold");
    let cache = TuningCache::open(&dir).expect("cache opens");
    let apps = all_apps_with_gemm(Workload::Small);
    let app = apps.iter().find(|a| a.name() == "nn").expect("registered");
    let module = compiled_module(app.as_ref(), Pipeline::PolygeistNoOpt);
    let func = module.function(app.main_kernel()).expect("kernel").clone();
    let result = respec::mine_fatbin(
        &func,
        &fatbin_targets(),
        &cache,
        EPSILON,
        &TuneOptions::serial(),
        |t| {
            let t = t.clone();
            let module = module.clone();
            let app_name = app.main_kernel().to_string();
            let app = &**app;
            move |version: &respec::Function, _regs: u32| {
                let mut m = module.clone();
                m.add_function(version.clone());
                let mut sim = GpuSim::for_model(t.as_ref());
                app.run(&mut sim, &m)?;
                Ok(filtered_kernel_seconds(&sim, &app_name))
            }
        },
        &respec::Trace::disabled(),
    );
    match result {
        Err(Error::Fatbin(m)) => assert!(
            m.contains("cold-tune"),
            "cold-store error should say how to fix it: {m}"
        ),
        other => panic!("expected Error::Fatbin on a cold store, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_winner_store_is_a_structured_error_not_a_panic() {
    let options = env_options();
    let fat_targets = fatbin_targets();
    let dir = temp_cache_dir("corrupt");
    let cache = Arc::new(TuningCache::open(&dir).expect("cache opens"));
    let apps = all_apps_with_gemm(Workload::Small);
    let app = apps.iter().find(|a| a.name() == "nn").expect("registered");
    respec_bench::cold_tune_app(app.as_ref(), &fat_targets, &TOTALS, &cache, &options)
        .expect("cold tune populates the store");
    // Trash every winner entry in place (truncated garbage, not JSON).
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&dir).expect("store dir lists") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("w-") {
            std::fs::write(&path, b"\x00garbage\xff").expect("corrupt entry");
            corrupted += 1;
        }
    }
    assert!(
        corrupted > 0,
        "cold tune must have stored winners to corrupt"
    );
    let module = compiled_module(app.as_ref(), Pipeline::PolygeistNoOpt);
    let func = module.function(app.main_kernel()).expect("kernel").clone();
    let result = respec::mine_fatbin(
        &func,
        &fat_targets,
        &cache,
        EPSILON,
        &TuneOptions::serial(),
        |t| {
            let t = t.clone();
            let module = module.clone();
            let kernel = app.main_kernel().to_string();
            let app = &**app;
            move |version: &respec::Function, _regs: u32| {
                let mut m = module.clone();
                m.add_function(version.clone());
                let mut sim = GpuSim::for_model(t.as_ref());
                app.run(&mut sim, &m)?;
                Ok(filtered_kernel_seconds(&sim, &kernel))
            }
        },
        &respec::Trace::disabled(),
    );
    match result {
        Err(Error::Fatbin(_)) => {}
        other => panic!("expected Error::Fatbin on a corrupt store, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
