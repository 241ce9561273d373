//! The lazy legality gate decides exactly as the eager one.
//!
//! `AnalysisGate` analyzes a stage's input only when the output has an
//! error-grade finding. That is sound because a clean output introduces
//! nothing, whatever the input had; this suite checks it against the eager
//! definition, `introduced_errors(&Baseline::of(input), &analyze_function(output))`,
//! on every Rodinia kernel (gemm included) as written, with its barriers
//! deleted, and with its first barrier under a thread-divergent `if`, each
//! coarsened at a spread of configurations.

use respec_analyze::{analyze_function, introduced_errors, Baseline};
use respec_ir::{parse_function, Function};
use respec_opt::{coarsen_function, optimize, AnalysisGate, CoarsenConfig};
use respec_rodinia::{all_apps_with_gemm, compile_app, Workload};

fn config(block: [i64; 3], thread: [i64; 3]) -> CoarsenConfig {
    CoarsenConfig { block, thread }
}

/// Identity plus thread-only, block-only and combined factors along x and y.
fn configs() -> Vec<CoarsenConfig> {
    vec![
        config([1, 1, 1], [1, 1, 1]),
        config([1, 1, 1], [2, 1, 1]),
        config([1, 1, 1], [1, 2, 1]),
        config([1, 1, 1], [4, 1, 1]),
        config([2, 1, 1], [1, 1, 1]),
        config([1, 2, 1], [1, 1, 1]),
        config([4, 1, 1], [1, 1, 1]),
        config([2, 1, 1], [2, 1, 1]),
        config([1, 1, 1], [2, 2, 1]),
    ]
}

/// The kernel as written, without its thread barriers, and with its first
/// thread barrier wrapped in `if tx == 0` (`tx` the first iv of the nearest
/// enclosing `parallel<thread>`).
fn variants(kernel: &Function) -> Vec<(&'static str, Function)> {
    let printed = kernel.to_string();
    let lines: Vec<&str> = printed.lines().collect();
    let is_barrier = |l: &&str| l.trim() == "barrier<thread>";
    let Some(at) = lines.iter().position(is_barrier) else {
        return vec![("written", kernel.clone())];
    };
    let stripped: Vec<&str> = lines.iter().copied().filter(|l| !is_barrier(l)).collect();
    let par = lines[..at]
        .iter()
        .rev()
        .find(|l| l.trim_start().starts_with("parallel<thread> ("))
        .expect("a barrier sits in a thread loop");
    let tx = par[par.find('(').unwrap() + 1..]
        .split([',', ')'])
        .next()
        .unwrap()
        .trim();
    let indent = &lines[at][..lines[at].len() - lines[at].trim_start().len()];
    let guarded = format!(
        "{indent}%dv_zero = const 0 : index\n{indent}%dv_cond = cmp eq {tx}, %dv_zero\n\
         {indent}if %dv_cond {{\n{indent}  barrier<thread>\n{indent}  yield\n{indent}}}"
    );
    let mut divergent: Vec<&str> = lines.clone();
    divergent[at] = &guarded;
    vec![
        ("written", kernel.clone()),
        ("nobarrier", parse_function(&stripped.join("\n")).unwrap()),
        ("divergent", parse_function(&divergent.join("\n")).unwrap()),
    ]
}

#[test]
fn lazy_gate_matches_the_eager_baseline() {
    let (mut checked, mut tripped, mut racy_inputs) = (0, 0, 0);
    for app in all_apps_with_gemm(Workload::Small) {
        let module = compile_app(app.as_ref()).expect("every app compiles");
        for kernel in module.functions() {
            for (variant, input) in variants(kernel) {
                let baseline = Baseline::of(&input);
                racy_inputs += usize::from(!baseline.is_clean());
                for cfg in configs() {
                    let mut output = input.clone();
                    if coarsen_function(&mut output, cfg).is_err() {
                        continue;
                    }
                    optimize(&mut output);
                    let what = format!("{}/{} {variant} {cfg}", app.name(), kernel.name());
                    let eager = introduced_errors(&baseline, &analyze_function(&output));
                    match AnalysisGate::before(&input).check(&output, "coarsen") {
                        Ok(()) => assert!(eager.is_empty(), "{what}: lazy passed, eager {eager:?}"),
                        Err(e) => {
                            assert_eq!(e.stage, "coarsen");
                            assert_eq!(e.introduced, eager, "{what}");
                            assert!(!eager.is_empty(), "{what}: an empty gate error");
                            tripped += 1;
                        }
                    }
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 200, "the corpus shrank to {checked} versions");
    assert!(racy_inputs > 10, "only {racy_inputs} inputs carry errors");
    assert!(tripped > 10, "only {tripped} versions trip the gate");
}
