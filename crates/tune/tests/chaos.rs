//! Chaos differential property test: the tuning engine under a test-side
//! fault decorator ([`faulty::Faulty`]) that fails, panics or slows chosen
//! versions.
//!
//! For arbitrary kernels, candidate ladders, decorator seeds and rates, at
//! parallelism 1 and 4, the decorated tune must
//!
//! 1. never panic (every failure and runner panic is absorbed),
//! 2. cost one runner call per group (the ledger counts every call),
//! 3. leave every candidate the clean tune measured in exactly one state:
//!    failed with the injected reason, slowed (strictly larger time), or
//!    untouched (bit-identical time),
//! 4. agree with the clean tune **restricted to the untouched groups**:
//!    an unslowed faulted winner is the clean winner among the untouched
//!    candidates, bit for bit, and a slowed one is no slower than it,
//! 5. never report a better `best_seconds` than the clean tune, and
//! 6. on total loss fail with [`TuneErrorKind::NoSurvivors`], with every
//!    group the clean tune measured failed by the decorator.
//!
//! `RESPEC_CHAOS_SEED` (read by the decorator) is folded into every seed so
//! CI can sweep fresh schedules without editing the test.

#[path = "support/faulty.rs"]
mod faulty;

use faulty::{Fault, Faulty, Rates};
use proptest::prelude::*;
use respec_ir::{parse_function, structural_hash, Function};
use respec_sim::{targets, SimError};
use respec_trace::Trace;
use respec_tune::{
    candidate_configs, tune_kernel_pooled, PruneReason, Strategy as SearchStrategy, TuneErrorKind,
    TuneOptions,
};

/// Shape of a randomly generated kernel + search space + fault schedule.
#[derive(Clone, Debug)]
struct Case {
    block_x: i64,
    extra_ops: u8,
    use_shared: bool,
    totals_mask: u8,
    fail_parity: bool,
    fault_seed: u64,
    rate_pick: u8,
    slow_pick: u8,
}

fn case() -> impl Strategy<Value = Case> {
    (
        prop_oneof![Just(16i64), Just(32i64), Just(64i64)],
        0u8..4,
        any::<bool>(),
        1u8..63,
        any::<bool>(),
        any::<u64>(),
        0u8..3,
        0u8..2,
    )
        .prop_map(
            |(
                block_x,
                extra_ops,
                use_shared,
                totals_mask,
                fail_parity,
                fault_seed,
                rate_pick,
                slow_pick,
            )| {
                Case {
                    block_x,
                    extra_ops,
                    use_shared,
                    totals_mask,
                    fail_parity,
                    fault_seed,
                    rate_pick,
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
        "func @chaos(%gx: index, %gy: index, %gz: index, %m: memref<?xf32, global>) {{
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

/// Deterministic synthetic runner; versions whose hash parity matches
/// `fail_parity` fail outright, so real (non-injected) failures are in the
/// mix alongside injected ones.
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

fn injected(reason: &Option<PruneReason>) -> bool {
    matches!(reason, Some(PruneReason::RunFailed(m)) if m.contains("injected"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn faulted_tuning_degrades_gracefully_and_agrees_on_survivors(case in case()) {
        let func = kernel_for(&case);
        let target = targets::a100();
        let ladder = [1i64, 2, 4, 8, 16, 32];
        let totals: Vec<i64> = ladder
            .iter()
            .enumerate()
            .filter(|(i, _)| case.totals_mask >> i & 1 == 1)
            .map(|(_, &t)| t)
            .collect();
        let configs = candidate_configs(SearchStrategy::Combined, &totals, &[case.block_x, 1, 1]);

        let observer = Faulty::new(0, Rates::NONE);
        let clean = tune_kernel_pooled(
            &func,
            &target,
            &configs,
            &TuneOptions::serial(),
            observer.decorate(|| runner(case.fail_parity)),
            &Trace::disabled(),
        );
        // Every version the clean run called the runner with, and whether
        // it measured.
        let clean_ledger = observer.ledger();
        if let Ok(c) = &clean {
            prop_assert!(c.candidates.iter().all(|cand| !injected(&cand.pruned)));
            prop_assert_eq!(c.stats.runner_calls, clean_ledger.len());
        }

        let rate = [0.1, 0.5, 0.9][case.rate_pick as usize];
        let slow = [0.0, 0.3][case.slow_pick as usize];
        let rates = Rates { fail: rate / 2.0, panic: rate / 2.0, slow };
        for parallelism in [1usize, 4] {
            let faulty = Faulty::new(case.fault_seed, rates);
            let faulted = tune_kernel_pooled(
                &func,
                &target,
                &configs,
                &TuneOptions::with_parallelism(parallelism),
                faulty.decorate(|| runner(case.fail_parity)),
                &Trace::disabled(),
            );
            let ledger = faulty.ledger();
            // One evaluation per group: every version was run at most once,
            // and the faulted run called exactly what the clean run did.
            prop_assert!(ledger.values().all(|e| e.calls == 1), "{:?}", ledger);
            prop_assert_eq!(
                ledger.keys().collect::<Vec<_>>(),
                clean_ledger.keys().collect::<Vec<_>>()
            );
            let hit_hard = clean_ledger
                .iter()
                .filter(|(_, e)| e.measured)
                .all(|(h, _)| matches!(faulty.decide(*h), Some(Fault::Fail | Fault::Panic)));

            match (&clean, &faulted) {
                (Ok(c), Ok(f)) => {
                    prop_assert_eq!(f.stats.runner_calls, c.stats.runner_calls);
                    // Every candidate the clean run measured is failed by
                    // the decorator, slowed, or untouched — and the
                    // untouched ones form the restricted clean search.
                    let mut restricted: Option<(usize, f64)> = None;
                    for (i, (cc, fc)) in c.candidates.iter().zip(&f.candidates).enumerate() {
                        prop_assert_eq!(cc.config, fc.config);
                        let Some(clean_s) = cc.seconds else {
                            // The decorator decides before the runner runs,
                            // so it may replace a real failure.
                            if !injected(&fc.pruned) {
                                prop_assert_eq!(&cc.pruned, &fc.pruned);
                            }
                            continue;
                        };
                        if injected(&fc.pruned) {
                            prop_assert!(fc.seconds.is_none());
                        } else if let Some(s) = fc.seconds {
                            if s.to_bits() == clean_s.to_bits() {
                                if restricted.is_none_or(|(_, t)| s < t) {
                                    restricted = Some((i, s));
                                }
                            } else {
                                prop_assert!(s > clean_s, "slowdown only: {} vs {}", s, clean_s);
                            }
                        } else {
                            prop_assert!(false, "candidate {} lost without a reason", i);
                        }
                    }
                    if let Some((ri, rs)) = restricted {
                        let wi = configs
                            .iter()
                            .position(|&cfg| cfg == f.best_config)
                            .expect("winner config is in the ladder");
                        let winner_untouched = c.candidates[wi].seconds.map(f64::to_bits)
                            == f.candidates[wi].seconds.map(f64::to_bits);
                        if winner_untouched {
                            prop_assert_eq!(f.best_config, c.candidates[ri].config);
                            prop_assert_eq!(f.best_seconds.to_bits(), rs.to_bits());
                        } else {
                            prop_assert!(f.best_seconds <= rs);
                        }
                    }
                    // Failing or slowing candidates never gives a better time.
                    prop_assert!(f.best_seconds >= c.best_seconds);
                    prop_assert!(!hit_hard, "every measured group failed, yet a winner exists");
                }
                (Ok(_), Err(fe)) => {
                    // Total loss: structured, and every group the clean run
                    // measured was failed by the decorator.
                    prop_assert_eq!(fe.kind, TuneErrorKind::NoSurvivors);
                    prop_assert!(fe.message.contains("no candidate"));
                    prop_assert!(hit_hard, "a group survived the decorator: {:?}", ledger);
                }
                (Err(ce), Err(fe)) => prop_assert_eq!(ce, fe),
                (Err(_), Ok(_)) => prop_assert!(false, "faults cannot create a survivor"),
            }
        }
    }
}
