//! Golden-file snapshots of the printed IR for every Rodinia app after the
//! canonical pass pipeline (frontend → canonicalize/CSE/LICM/DCE).
//!
//! Each app's module is compiled, optimized and printed, then compared
//! byte-for-byte against `tests/goldens/<app>.ir`. The goldens pin the
//! *textual* IR contract three subsystems rely on: the structural hash
//! that keys the persistent tuning cache, the printer/parser round-trip
//! property, and plain reviewability of pipeline changes.
//!
//! To regenerate after an intentional printer or pipeline change:
//!
//! ```text
//! RESPEC_UPDATE_GOLDENS=1 cargo test --test goldens
//! ```

use std::path::{Path, PathBuf};

use respec::ir::kernel::analyze_function;
use respec::ir::{parse_function, structural_hash, verify_function};
use respec::opt::{coarsen_function, lower_function_to_cpu, optimize, CpuLoweringParams};
use respec::sim::TargetModel;
use respec::{candidate_configs, targets, Strategy};
use respec_rodinia::{all_apps, all_apps_with_gemm, compile_app, App, Workload};

/// `tests/goldens/` at the workspace root (the core crate lives two levels
/// below it).
fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("tests/goldens")
}

/// The canonical pipeline's printed output for one app.
fn printed_module(app: &dyn App) -> String {
    let mut module = compile_app(app).expect("every Rodinia app compiles");
    for func in module.functions_mut() {
        optimize(func);
    }
    module.to_string()
}

/// A readable unified-style excerpt around the first diverging line.
fn first_divergence(expected: &str, actual: &str) -> String {
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let n = exp.len().max(act.len());
    for i in 0..n {
        let (e, a) = (exp.get(i), act.get(i));
        if e != a {
            let context_from = i.saturating_sub(2);
            let mut out = format!("first divergence at line {}:\n", i + 1);
            for (j, line) in exp.iter().enumerate().take(i).skip(context_from) {
                out.push_str(&format!("   {:>5} | {line}\n", j + 1));
            }
            out.push_str(&format!(
                " - {:>5} | {}\n",
                i + 1,
                e.copied().unwrap_or("<end of golden>")
            ));
            out.push_str(&format!(
                " + {:>5} | {}\n",
                i + 1,
                a.copied().unwrap_or("<end of output>")
            ));
            return out;
        }
    }
    // Same lines, different bytes: only a trailing-newline difference is left.
    format!(
        "identical lines but different byte length ({} golden vs {} actual; trailing newlines?)",
        expected.len(),
        actual.len()
    )
}

#[test]
fn every_rodinia_app_matches_its_golden() {
    let dir = golden_dir();
    let update = std::env::var("RESPEC_UPDATE_GOLDENS").is_ok_and(|v| v == "1");
    if update {
        std::fs::create_dir_all(&dir).expect("create tests/goldens");
    }
    let mut failures = Vec::new();
    for app in all_apps() {
        let printed = printed_module(app.as_ref());
        let path = dir.join(format!("{}.ir", app.name()));
        if update {
            std::fs::write(&path, &printed).expect("write golden");
            continue;
        }
        match std::fs::read_to_string(&path) {
            Ok(expected) if expected == printed => {}
            Ok(expected) => failures.push(format!(
                "{}: printed IR diverges from {}\n{}",
                app.name(),
                path.display(),
                first_divergence(&expected, &printed)
            )),
            Err(e) => failures.push(format!(
                "{}: missing golden {} ({e}); run RESPEC_UPDATE_GOLDENS=1 cargo test --test goldens",
                app.name(),
                path.display()
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "{} golden mismatch(es):\n\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// Every file in `tests/goldens/` belongs to a current app — a renamed or
/// removed app may not leave a stale snapshot behind.
#[test]
fn golden_directory_has_no_stray_files() {
    let dir = golden_dir();
    // `sim_small.txt` is the simulator pin of `tests/sim_goldens.rs`, and
    // `analysis.txt` the analyzer pin of `tests/analysis_goldens.rs`.
    let known: Vec<String> = all_apps()
        .iter()
        .map(|a| format!("{}.ir", a.name()))
        .chain(["sim_small.txt".to_string(), "analysis.txt".to_string()])
        .collect();
    let mut strays = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("tests/goldens exists") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy().into_owned();
        if !known.contains(&name) {
            strays.push(name);
        }
    }
    assert!(strays.is_empty(), "stray golden files: {strays:?}");
}

/// The printer/parser contract over every shape the tuner can store: every
/// app's kernels (gemm included) under every Combined-strategy candidate
/// configuration, as GPU IR and after the GPU-to-CPU lowering for each CPU
/// target's lane width. A printed version must parse back, re-print byte-identically and
/// hash to the version it came from; otherwise its cached winner could never
/// be replayed.
#[test]
fn every_tuned_shape_round_trips_through_the_printer() {
    // Totals 1, 2 and 4 already give every shape: identity, thread-only,
    // block-only and combined factors, split across each eligible dim.
    // Larger totals only repeat the same ops more often.
    const TOTALS: [i64; 3] = [1, 2, 4];
    let lanes: Vec<i64> = targets::all_cpu_targets()
        .iter()
        .map(|t| i64::from(t.exec_width()))
        .collect();
    let mut failures = Vec::new();
    let mut versions = 0;
    let mut index_spills = 0;
    for app in all_apps_with_gemm(Workload::Small) {
        let module = compile_app(app.as_ref()).expect("every Rodinia app compiles");
        for kernel in module.functions() {
            let Some(launch) = analyze_function(kernel)
                .ok()
                .and_then(|l| l.into_iter().next())
            else {
                continue;
            };
            for cfg in candidate_configs(Strategy::Combined, &TOTALS, &launch.block_dims) {
                let mut gpu = kernel.clone();
                if coarsen_function(&mut gpu, cfg).is_err() {
                    continue;
                }
                optimize(&mut gpu);
                let cpu = lanes.iter().map(|&lanes| {
                    let mut f = gpu.clone();
                    lower_function_to_cpu(&mut f, &CpuLoweringParams { lanes });
                    (format!("cpu{lanes}"), f)
                });
                for (shape, version) in std::iter::once(("gpu".to_string(), gpu.clone())).chain(cpu)
                {
                    versions += 1;
                    let what = format!("{}/{} {cfg} {shape}", app.name(), kernel.name());
                    let printed = version.to_string();
                    index_spills += usize::from(printed.contains("xindex, local>"));
                    match parse_function(&printed) {
                        Ok(back) => {
                            if back.to_string() != printed {
                                failures.push(format!("{what}: re-print differs"));
                            } else if structural_hash(&back) != structural_hash(&version) {
                                failures.push(format!("{what}: hash differs after parse"));
                            } else if let Err(e) = verify_function(&back) {
                                failures
                                    .push(format!("{what}: parsed version fails to verify: {e}"));
                            }
                        }
                        Err(e) => failures.push(format!("{what}: {e}")),
                    }
                }
            }
        }
    }
    assert!(versions > 500, "the corpus shrank to {versions} versions");
    assert!(
        index_spills > 0,
        "no version spills an index to a local memref"
    );
    assert!(
        failures.is_empty(),
        "{} of {versions} versions do not round-trip:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
