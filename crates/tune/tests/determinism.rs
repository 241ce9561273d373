//! Property test: the tuning engine's determinism contract.
//!
//! Serial (`parallelism = 1`) and parallel tuning must select byte-identical
//! winners with bit-identical timings and emit identical candidate decision
//! logs, for arbitrary kernels, strategies and factor ladders — **including
//! under the test-side fault decorator** ([`faulty::Faulty`]): its
//! decisions are keyed by the version's structural hash, never by thread,
//! so the same seed fails, panics and slows the same versions and leaves
//! the same ledger at any worker count. The parallel side always asks for
//! four workers, so the threaded path is exercised even on single-core
//! runners; the suite reads no environment.

#[path = "support/faulty.rs"]
mod faulty;

use std::sync::atomic::{AtomicUsize, Ordering};

use faulty::{Faulty, Rates};
use proptest::prelude::*;
use respec_ir::{parse_function, structural_hash, Function};
use respec_sim::{targets, SimError};
use respec_trace::{MetricValue, Trace, TraceEvent};
use respec_tune::{candidate_configs, tune_kernel_pooled, Strategy as SearchStrategy, TuneOptions};

/// Shape of a randomly generated kernel + search space.
#[derive(Clone, Debug)]
struct Case {
    block_x: i64,
    extra_ops: u8,
    use_shared: bool,
    strategy_pick: u8,
    totals_mask: u8,
    fail_parity: bool,
    fault_seed: u64,
    fault_rate_pick: u8,
    slow_pick: u8,
}

fn case() -> impl Strategy<Value = Case> {
    (
        prop_oneof![Just(16i64), Just(32i64), Just(48i64), Just(64i64)],
        0u8..4,
        any::<bool>(),
        0u8..3,
        1u8..63,
        (any::<bool>(), any::<u64>(), 0u8..3, 0u8..2),
    )
        .prop_map(
            |(block_x, extra_ops, use_shared, strategy_pick, totals_mask, rest)| {
                let (fail_parity, fault_seed, fault_rate_pick, slow_pick) = rest;
                Case {
                    block_x,
                    extra_ops,
                    use_shared,
                    strategy_pick,
                    totals_mask,
                    fail_parity,
                    fault_seed,
                    fault_rate_pick,
                    slow_pick,
                }
            },
        )
}

fn kernel_for(case: &Case) -> Function {
    let bx = case.block_x;
    let mut body = String::new();
    if case.use_shared {
        body.push_str(&format!("      %sm = alloc() : memref<{bx}xf32, shared>\n"));
    }
    body.push_str(
        "      parallel<thread> (%tx, %ty, %tz) to (%cbx, %c1, %c1) {
        %w = mul %bx, %cbx : index
        %i = add %w, %tx : index
        %v = load %m[%i] : f32
",
    );
    let mut cur = "%v".to_string();
    for k in 0..case.extra_ops {
        let next = format!("%e{k}");
        body.push_str(&format!("        {next} = add {cur}, {cur} : f32\n"));
        cur = next;
    }
    if case.use_shared {
        body.push_str(&format!(
            "        store {cur}, %sm[%tx]
        barrier<thread>
        %sv = load %sm[%tx] : f32
        store %sv, %m[%i]
"
        ));
    } else {
        body.push_str(&format!("        store {cur}, %m[%i]\n"));
    }
    body.push_str("        yield\n      }\n");
    let src = format!(
        "func @prop(%gx: index, %gy: index, %gz: index, %m: memref<?xf32, global>) {{
  %cbx = const {bx} : index
  %c1 = const 1 : index
  parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {{
{body}    yield
  }}
  return
}}"
    );
    parse_function(&src).expect("generated kernel parses")
}

/// Deterministic synthetic runner: the time is a pure function of the
/// version's structural hash and the register allotment, and versions whose
/// hash parity matches `fail_parity` fail outright — exercising both the
/// measurement and the failed-run paths identically on every thread.
fn runner(fail_parity: bool) -> impl FnMut(&Function, u32) -> Result<f64, SimError> {
    move |version: &Function, regs: u32| {
        let h = structural_hash(version);
        if h.is_multiple_of(2) == fail_parity && h.is_multiple_of(5) {
            return Err(SimError {
                message: format!("synthetic failure for hash {h:#x}"),
            });
        }
        Ok(((h % 9973) + 1) as f64 * 1e-7 + regs as f64 * 1e-9)
    }
}

/// Candidate decision log: name + metrics of `candidate`/`winner` events,
/// stripped of timing/thread fields that legitimately differ between runs.
fn decision_log(trace: &Trace) -> Vec<(String, Vec<(String, MetricValue)>)> {
    trace
        .events()
        .into_iter()
        .filter(|e: &TraceEvent| e.name == "candidate" || e.name == "winner")
        .map(|e| (e.name, e.metrics.into_iter().collect()))
        .collect()
}

/// `parallelism = 1` is the pool's inline mode of the one driver: the
/// factory is called once, and it and every runner call stay on the calling
/// thread — nothing is spawned.
#[test]
fn serial_tuning_runs_inline_on_the_calling_thread() {
    let case = Case {
        block_x: 64,
        extra_ops: 1,
        use_shared: false,
        strategy_pick: 2,
        totals_mask: 0b111,
        fail_parity: false,
        fault_seed: 0,
        fault_rate_pick: 0,
        slow_pick: 0,
    };
    let func = kernel_for(&case);
    let configs = candidate_configs(SearchStrategy::Combined, &[1, 2, 4], &[64, 1, 1]);
    let caller = std::thread::current().id();
    let (builds, calls, off_thread) = (
        AtomicUsize::new(0),
        AtomicUsize::new(0),
        AtomicUsize::new(0),
    );
    let note = |counter: &AtomicUsize| {
        counter.fetch_add(1, Ordering::SeqCst);
        if std::thread::current().id() != caller {
            off_thread.fetch_add(1, Ordering::SeqCst);
        }
    };
    let result = tune_kernel_pooled(
        &func,
        &targets::a100(),
        &configs,
        &TuneOptions::serial(),
        || {
            note(&builds);
            let mut run = runner(case.fail_parity);
            let (note, calls) = (&note, &calls);
            move |version: &Function, regs| {
                note(calls);
                run(version, regs)
            }
        },
        &Trace::disabled(),
    )
    .expect("the clean search succeeds");
    assert_eq!(builds.load(Ordering::SeqCst), 1, "one worker, one runner");
    assert_eq!(calls.load(Ordering::SeqCst), result.stats.runner_calls);
    assert!(
        result.stats.runner_calls > 1,
        "several groups were measured"
    );
    assert_eq!(off_thread.load(Ordering::SeqCst), 0, "nothing was spawned");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_tuning_is_bit_identical_to_serial(case in case()) {
        let func = kernel_for(&case);
        let target = targets::a100();
        let strategy = match case.strategy_pick {
            0 => SearchStrategy::ThreadOnly,
            1 => SearchStrategy::BlockOnly,
            _ => SearchStrategy::Combined,
        };
        let ladder = [1i64, 2, 4, 8, 16, 32];
        let totals: Vec<i64> = ladder
            .iter()
            .enumerate()
            .filter(|(i, _)| case.totals_mask >> i & 1 == 1)
            .map(|(_, &t)| t)
            .collect();
        let configs = candidate_configs(strategy, &totals, &[case.block_x, 1, 1]);

        // Some cases tune fault-free; the rest run under a decorator whose
        // seed and rates the two runs share exactly.
        let rate = [0.0, 0.1, 0.5][case.fault_rate_pick as usize];
        let slow = [0.0, 0.2][case.slow_pick as usize];
        let rates = Rates { fail: rate / 2.0, panic: rate / 2.0, slow };

        let serial_faults = Faulty::new(case.fault_seed, rates);
        let serial_trace = Trace::new();
        let serial = tune_kernel_pooled(
            &func,
            &target,
            &configs,
            &TuneOptions::serial(),
            serial_faults.decorate(|| runner(case.fail_parity)),
            &serial_trace,
        );
        let parallel_faults = Faulty::new(case.fault_seed, rates);
        let parallel_trace = Trace::new();
        let parallel = tune_kernel_pooled(
            &func,
            &target,
            &configs,
            &TuneOptions::with_parallelism(4),
            parallel_faults.decorate(|| runner(case.fail_parity)),
            &parallel_trace,
        );

        match (serial, parallel) {
            (Ok(s), Ok(p)) => {
                prop_assert_eq!(s.best_config, p.best_config);
                prop_assert_eq!(s.best_seconds.to_bits(), p.best_seconds.to_bits());
                prop_assert_eq!(s.best_regs, p.best_regs);
                prop_assert_eq!(s.best.to_string(), p.best.to_string());
                prop_assert_eq!(s.candidates.len(), p.candidates.len());
                for (a, b) in s.candidates.iter().zip(&p.candidates) {
                    prop_assert_eq!(a.config, b.config);
                    prop_assert_eq!(
                        a.seconds.map(f64::to_bits),
                        b.seconds.map(f64::to_bits)
                    );
                    prop_assert_eq!(&a.pruned, &b.pruned);
                    prop_assert_eq!(a.cache_hit, b.cache_hit);
                    prop_assert_eq!(&a.backend, &b.backend);
                }
                // Every counter except the worker count itself.
                prop_assert_eq!(s.stats.parallelism, 1);
                prop_assert_eq!(p.stats.parallelism, 4);
                prop_assert_eq!(s.stats, respec_tune::TuneStats { parallelism: 1, ..p.stats });
            }
            (Err(se), Err(pe)) => prop_assert_eq!(se, pe),
            (s, p) => prop_assert!(
                false,
                "serial/parallel disagree on success: {:?} vs {:?}",
                s.map(|r| r.best_config),
                p.map(|r| r.best_config)
            ),
        }
        // The decision logs — every candidate event with its full metric
        // set, plus the winner — must match entry for entry, and so must
        // the decorator's ledgers.
        prop_assert_eq!(decision_log(&serial_trace), decision_log(&parallel_trace));
        prop_assert_eq!(serial_faults.ledger(), parallel_faults.ledger());
    }
}
