//! Panic isolation in the pooled tuning engine: a measurement runner that
//! panics on one candidate version must cost exactly that candidate's
//! group — one runner call, demoted to `PruneReason::RunFailed` — while
//! every other candidate is measured normally and a runner-up wins. No
//! mutex poisoning, no crash, identical outcomes at parallelism 1 and 4.

use std::sync::atomic::{AtomicUsize, Ordering};

use respec_ir::{parse_function, structural_hash, Function};
use respec_sim::{targets, SimError};
use respec_trace::Trace;
use respec_tune::{
    candidate_configs, tune_kernel_pooled, PruneReason, Strategy, TuneOptions, TuneResult,
};

const KERNEL: &str = "func @iso(%gx: index, %gy: index, %gz: index, %m: memref<?xf32, global>) {
  %c32 = const 32 : index
  %c1 = const 1 : index
  parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {
    parallel<thread> (%tx, %ty, %tz) to (%c32, %c1, %c1) {
      %w = mul %bx, %c32 : index
      %i = add %w, %tx : index
      %v = load %m[%i] : f32
      %d = add %v, %v : f32
      store %d, %m[%i]
      yield
    }
    yield
  }
  return
}";

/// Deterministic hash-keyed timings so every unique version gets a distinct
/// time and the winner/runner-up are unambiguous.
fn timed(version: &Function, regs: u32) -> Result<f64, SimError> {
    let h = structural_hash(version);
    Ok(((h % 9973) + 1) as f64 * 1e-7 + regs as f64 * 1e-9)
}

fn tune_clean(func: &Function, configs: &[respec_opt::CoarsenConfig]) -> TuneResult {
    tune_kernel_pooled(
        func,
        &targets::a100(),
        configs,
        &TuneOptions::serial(),
        || timed,
        &Trace::disabled(),
    )
    .expect("clean tune succeeds")
}

/// Tunes with a runner that panics on `poison_hash`; also returns how many
/// times the runner was called with that version.
fn tune_with_panicking_runner(
    func: &Function,
    configs: &[respec_opt::CoarsenConfig],
    poison_hash: u64,
    parallelism: usize,
) -> (TuneResult, usize) {
    let poisoned_calls = AtomicUsize::new(0);
    let calls = &poisoned_calls;
    let result = tune_kernel_pooled(
        func,
        &targets::a100(),
        configs,
        &TuneOptions::with_parallelism(parallelism),
        || {
            move |version: &Function, regs: u32| {
                if structural_hash(version) == poison_hash {
                    calls.fetch_add(1, Ordering::SeqCst);
                    panic!("deliberate test panic for hash {poison_hash:#x}");
                }
                timed(version, regs)
            }
        },
        &Trace::disabled(),
    )
    .expect("tuning survives a panicking candidate");
    (result, poisoned_calls.load(Ordering::SeqCst))
}

#[test]
fn runner_panic_demotes_only_its_candidate_group() {
    let func = parse_function(KERNEL).unwrap();
    let configs = candidate_configs(Strategy::Combined, &[1, 2, 4], &[32, 1, 1]);
    let clean = tune_clean(&func, &configs);
    let poison_hash = structural_hash(&clean.best);
    let winner_seconds = clean.best_seconds;
    // The clean search must have a measured runner-up for the panic run to
    // elect; hash-keyed timings make it unique.
    let runner_up = clean
        .candidates
        .iter()
        .filter(|c| c.seconds.is_some_and(|s| s != winner_seconds))
        .min_by(|a, b| a.seconds.partial_cmp(&b.seconds).unwrap())
        .expect("a second measured group exists");

    let mut outcomes = Vec::new();
    for parallelism in [1, 4] {
        let (result, poisoned_calls) =
            tune_with_panicking_runner(&func, &configs, poison_hash, parallelism);

        // The old winner's entire cache group is demoted — and nothing else.
        for (i, cand) in result.candidates.iter().enumerate() {
            let was_winner_group = clean.candidates[i].seconds == Some(winner_seconds);
            if was_winner_group {
                match &cand.pruned {
                    Some(PruneReason::RunFailed(msg)) => assert!(
                        msg.contains("runner panicked") && msg.contains("deliberate test panic"),
                        "candidate {i}: unexpected demotion message {msg:?}"
                    ),
                    other => panic!("candidate {i}: expected RunFailed, got {other:?}"),
                }
                assert_eq!(cand.seconds, None);
            } else {
                assert_eq!(
                    cand.seconds.map(f64::to_bits),
                    clean.candidates[i].seconds.map(f64::to_bits),
                    "candidate {i} must be unaffected by the panic"
                );
                assert_eq!(cand.pruned, clean.candidates[i].pruned);
            }
        }

        // The runner-up from the clean search wins.
        assert_eq!(result.best_config, runner_up.config);
        assert_eq!(
            result.best_seconds.to_bits(),
            runner_up.seconds.unwrap().to_bits()
        );

        // The panicking group cost one runner call, whatever its size:
        // the same IR would panic again, so nothing is retried.
        assert_eq!(poisoned_calls, 1, "the panicking group ran once");
        assert_eq!(result.stats.runner_calls, clean.stats.runner_calls);
        let lost: Vec<_> = result
            .candidates
            .iter()
            .filter(|c| matches!(c.pruned, Some(PruneReason::RunFailed(_))))
            .collect();
        assert!(!lost.is_empty());

        outcomes.push(result);
    }

    // Parallelism 1 and 4 agree bit-for-bit.
    let (a, b) = (&outcomes[0], &outcomes[1]);
    assert_eq!(a.best_config, b.best_config);
    assert_eq!(a.best_seconds.to_bits(), b.best_seconds.to_bits());
    assert_eq!(a.candidates.len(), b.candidates.len());
    for (x, y) in a.candidates.iter().zip(&b.candidates) {
        assert_eq!(x.pruned, y.pruned);
        assert_eq!(x.seconds.map(f64::to_bits), y.seconds.map(f64::to_bits));
        assert_eq!(x.cache_hit, y.cache_hit);
    }
    assert_eq!(a.stats.runner_calls, b.stats.runner_calls);
    assert_eq!(a.stats.measured, b.stats.measured);
    assert_eq!(a.stats.pruned, b.stats.pruned);
}

#[test]
fn panicking_runner_never_poisons_subsequent_tunes() {
    // Two tunes back to back at parallelism 4: the first one's panics must
    // leave nothing behind (no poisoned locks, no wedged workers) that
    // could affect the second.
    let func = parse_function(KERNEL).unwrap();
    let configs = candidate_configs(Strategy::Combined, &[1, 2], &[32, 1, 1]);
    let clean = tune_clean(&func, &configs);
    let poison_hash = structural_hash(&clean.best);

    let _ = tune_with_panicking_runner(&func, &configs, poison_hash, 4);
    let after = tune_kernel_pooled(
        &func,
        &targets::a100(),
        &configs,
        &TuneOptions::with_parallelism(4),
        || timed,
        &Trace::disabled(),
    )
    .expect("second tune is unaffected");
    assert_eq!(after.best_config, clean.best_config);
    assert_eq!(after.best_seconds.to_bits(), clean.best_seconds.to_bits());
}
