//! Golden pin of the static legality analyzer's reports.
//!
//! For every kernel of the 16 `Small` apps, in up to four variants — as
//! written, with a store of one constant to cell 0 of its first shared
//! buffer at the top of the thread loop, with every thread barrier deleted,
//! and with the first thread barrier moved under a thread-divergent `if` —
//! the analyzer runs on the frontend output,
//! the optimized kernel, every Combined-strategy coarsening at totals
//! {1, 2, 4}, and each of those after the GPU-to-CPU lowering at 8 and 16
//! lanes. Each analyzed function is one line: the counts per
//! (severity, code) and an FNV-1a hash of the full rendered report (severity,
//! code, message with its thread witnesses, location and suggestion, in
//! report order). The full text is megabytes, hence the hashes.
//!
//! The other three variants are what make the pin bite: they carry the
//! race errors with witnesses and the divergent-barrier errors an analyzer
//! rewrite could silently change. In the broadcast variant a racing pair
//! collides at many thread pairs, so the witness a message names depends on
//! the enumeration order, and the pin holds that order.
//!
//! To regenerate after an *intentional* change of the analyzer's findings:
//!
//! ```text
//! RESPEC_UPDATE_GOLDENS=1 cargo test --release --test analysis_goldens
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use respec::analyze::analyze_function;
use respec::ir::kernel::analyze_function as launches_of;
use respec::ir::{parse_function, Function};
use respec::opt::{coarsen_function, lower_function_to_cpu, optimize, CpuLoweringParams};
use respec::{candidate_configs, Strategy};
use respec_rodinia::{all_apps_with_gemm, compile_app, Workload};

const TOTALS: [i64; 3] = [1, 2, 4];
const LANES: [i64; 2] = [8, 16];

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("tests/goldens/analysis.txt")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The printed function with every `barrier<thread>` line removed.
fn without_barriers(printed: &str) -> String {
    printed
        .lines()
        .filter(|l| l.trim() != "barrier<thread>")
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The printed function with its first `barrier<thread>` wrapped in
/// `if tx == 0`, where `tx` is the first iv of the nearest enclosing
/// `parallel<thread>`.
fn with_divergent_barrier(printed: &str) -> Option<String> {
    let lines: Vec<&str> = printed.lines().collect();
    let at = lines.iter().position(|l| l.trim() == "barrier<thread>")?;
    let par = lines[..at]
        .iter()
        .rev()
        .find(|l| l.trim_start().starts_with("parallel<thread> ("))?;
    let open = par.find('(')? + 1;
    let tx = par[open..].split([',', ')']).next()?.trim();
    let indent = &lines[at][..lines[at].len() - lines[at].trim_start().len()];
    let mut out = String::new();
    for (i, l) in lines.iter().enumerate() {
        if i == at {
            let _ = writeln!(out, "{indent}%dv_zero = const 0 : index");
            let _ = writeln!(out, "{indent}%dv_cond = cmp eq {tx}, %dv_zero");
            let _ = writeln!(out, "{indent}if %dv_cond {{");
            let _ = writeln!(out, "{indent}  barrier<thread>");
            let _ = writeln!(out, "{indent}  yield");
            let _ = writeln!(out, "{indent}}}");
        } else {
            let _ = writeln!(out, "{l}");
        }
    }
    Some(out)
}

/// The printed function with a store of one constant to cell 0 of its first
/// shared buffer at the top of the thread loop: every thread writes that
/// cell, so its races collide at many thread pairs and the golden pins
/// which pair each witness names.
fn with_broadcast_store(printed: &str) -> Option<String> {
    let lines: Vec<&str> = printed.lines().collect();
    let at = lines
        .iter()
        .position(|l| l.contains("= alloc() : memref<") && l.ends_with(", shared>"))?;
    let alloc = lines[at].trim();
    let buffer = alloc.split(" = ").next()?;
    let shape = alloc.split("memref<").nth(1)?.strip_suffix(", shared>")?;
    let elem = ["index", "f32", "f64", "i32", "i64", "i1"]
        .into_iter()
        .find(|t| shape.ends_with(t))?;
    let rank = shape[..shape.len() - elem.len()].matches('x').count();
    let value = if elem.starts_with('f') {
        format!("fconst 1.0 : {elem}")
    } else {
        format!("const 1 : {elem}")
    };
    let body = at
        + 1
        + lines[at + 1..]
            .iter()
            .position(|l| l.trim_start().starts_with("parallel<thread> ("))?;
    let indent = &lines[body + 1][..lines[body + 1].len() - lines[body + 1].trim_start().len()];
    let zeros = vec!["%bc_zero"; rank].join(", ");
    let mut out = String::new();
    for (i, l) in lines.iter().enumerate() {
        let _ = writeln!(out, "{l}");
        if i == body {
            let _ = writeln!(out, "{indent}%bc_zero = const 0 : index");
            let _ = writeln!(out, "{indent}%bc_value = {value}");
            let _ = writeln!(out, "{indent}store %bc_value, {buffer}[{zeros}]");
        }
    }
    Some(out)
}

/// One golden line for one analyzed function.
fn report_line(out: &mut String, what: &str, func: &Function) {
    let report = analyze_function(func);
    let mut counts: BTreeMap<(String, &str), usize> = BTreeMap::new();
    let mut text = String::new();
    for d in &report.diagnostics {
        *counts.entry((d.severity.to_string(), d.code)).or_insert(0) += 1;
        let _ = writeln!(text, "{d}");
    }
    let counts: Vec<String> = counts
        .iter()
        .map(|((sev, code), n)| format!("{sev}:{code}={n}"))
        .collect();
    let counts = if counts.is_empty() {
        "clean".to_string()
    } else {
        counts.join(",")
    };
    let _ = writeln!(out, "{what} {counts} {:016x}", fnv1a(text.as_bytes()));
}

fn cfg_label(cfg: &respec::CoarsenConfig) -> String {
    format!(
        "b{}.{}.{}t{}.{}.{}",
        cfg.block[0], cfg.block[1], cfg.block[2], cfg.thread[0], cfg.thread[1], cfg.thread[2]
    )
}

/// Every line of the pin: app × kernel × variant × pipeline stage.
fn snapshot() -> String {
    let mut out = String::new();
    for app in all_apps_with_gemm(Workload::Small) {
        let module = compile_app(app.as_ref()).expect("every app compiles");
        for kernel in module.functions() {
            let printed = kernel.to_string();
            let mut variants = vec![("written", kernel.clone())];
            if let Some(src) = with_broadcast_store(&printed) {
                let func = parse_function(&src).expect("broadcast variant parses");
                variants.push(("broadcast", func));
            }
            if printed.lines().any(|l| l.trim() == "barrier<thread>") {
                let stripped = parse_function(&without_barriers(&printed))
                    .expect("barrier-free variant parses");
                variants.push(("nobarrier", stripped));
                if let Some(src) = with_divergent_barrier(&printed) {
                    let func = parse_function(&src).expect("divergent variant parses");
                    variants.push(("divergent", func));
                }
            }
            for (variant, func) in variants {
                let prefix = format!("{} {variant} {}", app.name(), kernel.name());
                report_line(&mut out, &format!("{prefix} frontend"), &func);
                let mut opt = func.clone();
                optimize(&mut opt);
                report_line(&mut out, &format!("{prefix} optimized"), &opt);
                let Some(launch) = launches_of(&func).ok().and_then(|l| l.into_iter().next())
                else {
                    continue;
                };
                for cfg in candidate_configs(Strategy::Combined, &TOTALS, &launch.block_dims) {
                    let label = cfg_label(&cfg);
                    let mut version = func.clone();
                    if coarsen_function(&mut version, cfg).is_err() {
                        let _ = writeln!(out, "{prefix} {label} rejected");
                        continue;
                    }
                    optimize(&mut version);
                    report_line(&mut out, &format!("{prefix} {label}"), &version);
                    for lanes in LANES {
                        let mut cpu = version.clone();
                        lower_function_to_cpu(&mut cpu, &CpuLoweringParams { lanes });
                        report_line(&mut out, &format!("{prefix} {label} cpu{lanes}"), &cpu);
                    }
                }
            }
        }
    }
    out
}

#[test]
fn analyzer_reports_match_the_golden() {
    let actual = snapshot();
    let path = golden_path();
    if std::env::var("RESPEC_UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run RESPEC_UPDATE_GOLDENS=1 cargo test --release \
             --test analysis_goldens",
            path.display()
        )
    });
    let diverging: Vec<String> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .take(10)
        .map(|(e, a)| format!("  - {e}\n  + {a}"))
        .collect();
    assert!(
        diverging.is_empty() && expected.lines().count() == actual.lines().count(),
        "analyzer reports diverge from {} ({} golden lines, {} actual); first differences:\n{}",
        path.display(),
        expected.lines().count(),
        actual.lines().count(),
        diverging.join("\n")
    );
    // The pin must keep covering decided races and divergent barriers.
    for code in [
        "error:race-rw=",
        "error:race-ww=",
        "error:divergent-barrier=",
    ] {
        assert!(actual.contains(code), "no line carries {code}");
    }
}
