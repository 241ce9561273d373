//! Golden pin of the simulator's numbers: for the 16 `Small` apps on the six
//! registry targets, every launch's kernel name, `seconds.to_bits()` and an
//! FNV-1a digest of its `ExecStats`, plus the run's `elapsed_seconds` bits.
//!
//! `exec_differential` compares the scalar executor against the warp one,
//! but both share the counter types, `WarpMerger`, the cache model and the
//! timing model — a slip there moves both sides together and passes. This
//! file compares against numbers recorded once, so it sees that slip.
//!
//! To regenerate after an *intentional* change of the simulated machine:
//!
//! ```text
//! RESPEC_UPDATE_GOLDENS=1 cargo test --release --test sim_goldens
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use respec::opt::{lower_module_to_cpu, optimize, CpuLoweringParams};
use respec::sim::ExecStats;
use respec::{targets, GpuSim, TargetKind};
use respec_rodinia::{all_apps_with_gemm, compile_app, Workload};

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("tests/goldens/sim_small.txt")
}

/// FNV-1a over every field of `ExecStats`, in declaration order.
fn stats_digest(s: &ExecStats) -> u64 {
    let fields = s.issues.iter().copied().chain([
        s.global_load_requests,
        s.global_store_requests,
        s.read_sectors,
        s.write_sectors,
        s.l1_read_hits,
        s.l2_read_hits,
        s.dram_read_sectors,
        s.l1_to_l2_write_sectors,
        s.dram_write_sectors,
        s.shared_read_requests,
        s.shared_write_requests,
        s.shared_conflict_extra,
        s.barrier_waits,
        s.blocks,
        s.warps,
        s.threads,
    ]);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in fields {
        for b in f.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// One `run` line per app × target followed by one `launch` line per launch.
fn snapshot() -> String {
    let mut out = String::new();
    for app in all_apps_with_gemm(Workload::Small) {
        let mut module = compile_app(app.as_ref()).expect("every app compiles");
        for func in module.functions_mut() {
            optimize(func);
        }
        for name in targets::TARGET_NAMES {
            let target = targets::by_name(name).expect("registry target");
            let lowered;
            let module = if target.kind() == TargetKind::Cpu {
                let lanes = i64::from(target.exec_width());
                lowered = lower_module_to_cpu(&module, &CpuLoweringParams { lanes });
                &lowered
            } else {
                &module
            };
            let mut sim = GpuSim::for_model(target.as_ref());
            app.run(&mut sim, module).expect("app runs");
            writeln!(
                out,
                "run {} {name} launches={} elapsed={:016x}",
                app.name(),
                sim.launch_log.len(),
                sim.elapsed_seconds.to_bits()
            )
            .expect("write to string");
            for t in &sim.launch_log {
                writeln!(
                    out,
                    "  launch {} seconds={:016x} stats={:016x}",
                    t.kernel,
                    t.seconds.to_bits(),
                    stats_digest(&t.stats)
                )
                .expect("write to string");
            }
        }
    }
    out
}

#[test]
fn small_apps_match_the_recorded_simulator_numbers() {
    let path = golden_path();
    let actual = snapshot();
    if std::env::var("RESPEC_UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run RESPEC_UPDATE_GOLDENS=1 cargo test --test sim_goldens",
            path.display()
        )
    });
    if expected == actual {
        return;
    }
    // Name the app, target and launch of the first line that moved.
    let mut run = "";
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e.starts_with("run ") {
            run = e;
        }
        assert_eq!(e, a, "line {} diverges (under `{run}`)", i + 1);
    }
    panic!(
        "line count diverges: {} golden vs {} actual",
        expected.lines().count(),
        actual.lines().count()
    );
}
