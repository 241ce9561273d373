//! Integration tests for the persistent tuning cache: cold→warm replay
//! determinism (serial and parallel, clean and after a cold run under the
//! test-side fault decorator), corruption tolerance, pipeline-version
//! invalidation and isolation between targets.
//!
//! The invariant under test everywhere: a warm re-tune of an unchanged
//! kernel performs **zero backend compiles and zero measurements** yet
//! returns the bit-identical winner — and nothing the cache does can ever
//! fail a search (a defective entry is a miss, never an error).

#[path = "support/faulty.rs"]
mod faulty;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use faulty::{Faulty, Rates};
use respec_ir::{parse_function, structural_hash, Function};
use respec_opt::PIPELINE_VERSION;
use respec_sim::{targets, SimError, TargetDesc};
use respec_trace::Trace;
use respec_tune::{
    candidate_configs, tune_kernel_pooled, Strategy, TuneOptions, TuneResult, TuningCache,
};

const KERNEL: &str = "func @scale(%gx: index, %gy: index, %gz: index, %m: memref<?xf32, global>) {
  %cbx = const 64 : index
  %c1 = const 1 : index
  parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {
    parallel<thread> (%tx, %ty, %tz) to (%cbx, %c1, %c1) {
      %w = mul %bx, %cbx : index
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

/// A unique, fresh cache directory per call site.
fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "respec-pcache-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic synthetic runner: time is a pure function of the version.
fn runner() -> impl FnMut(&Function, u32) -> Result<f64, SimError> {
    |version: &Function, regs: u32| {
        let h = structural_hash(version);
        Ok(((h % 9973) + 1) as f64 * 1e-7 + regs as f64 * 1e-9)
    }
}

fn search(
    target: &TargetDesc,
    options: &TuneOptions,
    trace: &Trace,
) -> (TuneResult, Vec<respec_opt::CoarsenConfig>) {
    search_with(target, options, trace, runner)
}

/// [`search`] with the caller's runner factory.
fn search_with<R: FnMut(&Function, u32) -> Result<f64, SimError>>(
    target: &TargetDesc,
    options: &TuneOptions,
    trace: &Trace,
    make_runner: impl Fn() -> R + Sync,
) -> (TuneResult, Vec<respec_opt::CoarsenConfig>) {
    let func = parse_function(KERNEL).expect("test kernel parses");
    let configs = candidate_configs(Strategy::Combined, &[1, 2, 4, 8], &[64, 1, 1]);
    let result = tune_kernel_pooled(&func, target, &configs, options, make_runner, trace)
        .expect("the search succeeds");
    (result, configs)
}

/// Backend-compile spans recorded in a trace.
fn backend_compiles(trace: &Trace) -> usize {
    trace
        .events()
        .iter()
        .filter(|e| e.name == "backend")
        .count()
}

fn assert_bit_identical(a: &TuneResult, b: &TuneResult) {
    assert_eq!(a.best_config, b.best_config, "winner config must match");
    assert_eq!(
        a.best_seconds.to_bits(),
        b.best_seconds.to_bits(),
        "winner timing must be bit-identical"
    );
    assert_eq!(a.best_regs, b.best_regs, "winner registers must match");
    assert_eq!(
        a.best.to_string(),
        b.best.to_string(),
        "winner IR must be byte-identical"
    );
}

#[test]
fn warm_retune_is_a_pure_replay_at_parallelism_1_and_4() {
    for workers in [1usize, 4] {
        let dir = fresh_dir("replay");
        let target = targets::a100();
        let options = |dir: &PathBuf| {
            let cache = Arc::new(TuningCache::open(dir).expect("open cache"));
            TuneOptions::with_parallelism(workers).cache(cache)
        };

        let cold_trace = Trace::new();
        let (cold, _) = search(&target, &options(&dir), &cold_trace);
        assert!(backend_compiles(&cold_trace) > 0, "cold run compiles");
        assert_eq!(cold.stats.persistent_hits, 0);
        assert!(cold.stats.persistent_misses > 0, "cold run misses");
        assert_eq!(cold.stats.invalidations, 0);

        let warm_trace = Trace::new();
        let runners_built = AtomicUsize::new(0);
        let (warm, _) = search_with(&target, &options(&dir), &warm_trace, || {
            runners_built.fetch_add(1, Ordering::SeqCst);
            runner()
        });
        assert_eq!(
            backend_compiles(&warm_trace),
            0,
            "warm run (workers={workers}) must perform zero backend compiles"
        );
        assert_eq!(warm.stats.runner_calls, 0, "replay never measures");
        assert_eq!(
            runners_built.load(Ordering::SeqCst),
            0,
            "replay (workers={workers}) never builds a runner"
        );
        assert_eq!(warm.stats.persistent_hits, 1, "exactly the winner entry");
        assert_bit_identical(&cold, &warm);

        // The trace summary sees the same traffic the stats report.
        let summary = warm_trace.summary();
        assert_eq!(summary.cache_hits, 1);
        assert_eq!(summary.cache_invalidations, 0);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A cold search under the fault decorator stores whatever it chose; a
/// clean warm search replays that choice bit for bit without reaching the
/// runner, so the decorator cannot be consulted at all.
#[test]
fn cold_and_warm_agree_with_an_active_fault_plan() {
    let rates = Rates {
        fail: 0.15,
        panic: 0.15,
        slow: 0.2,
    };
    for workers in [1usize, 4] {
        let dir = fresh_dir("faulted");
        let target = targets::a100();
        let options = || {
            let cache = Arc::new(TuningCache::open(&dir).expect("open cache"));
            TuneOptions::with_parallelism(workers).cache(cache)
        };

        let faulty = Faulty::new(7, rates);
        let (cold, _) = search_with(
            &target,
            &options(),
            &Trace::disabled(),
            faulty.decorate(runner),
        );
        assert_eq!(
            cold.stats.runner_calls,
            faulty.ledger().values().map(|e| e.calls).sum::<usize>(),
            "the decorator saw every runner call of the cold run"
        );

        let warm_trace = Trace::new();
        let (warm, _) = search(&target, &options(), &warm_trace);
        assert_eq!(backend_compiles(&warm_trace), 0);
        assert_eq!(warm.stats.runner_calls, 0, "a replay reaches no runner");
        assert_bit_identical(&cold, &warm);

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn truncated_and_garbage_entries_degrade_to_invalidations_not_errors() {
    let dir = fresh_dir("corrupt");
    let target = targets::a100();
    let options = || {
        let cache = Arc::new(TuningCache::open(&dir).expect("open cache"));
        TuneOptions::serial().cache(cache)
    };

    let (cold, _) = search(&target, &options(), &Trace::disabled());

    // Corrupt every stored entry a different way: truncation, garbage
    // bytes, and an empty file.
    let cache = TuningCache::open(&dir).expect("open cache");
    let paths = cache.entry_paths().expect("list entries");
    assert!(paths.len() >= 2, "the cold run stored reports and a winner");
    for (i, path) in paths.iter().enumerate() {
        match i % 3 {
            0 => {
                let text = std::fs::read_to_string(path).expect("read entry");
                let keep = text.len() / 2;
                std::fs::write(path, &text[..keep]).expect("truncate entry");
            }
            1 => std::fs::write(path, b"\x00\xff not a cache entry \x07").expect("garble entry"),
            _ => std::fs::write(path, b"").expect("empty entry"),
        }
    }

    let (recovered, _) = search(&target, &options(), &Trace::disabled());
    assert!(
        recovered.stats.invalidations > 0,
        "corrupt entries must be counted as invalidations: {:?}",
        recovered.stats
    );
    assert_eq!(recovered.stats.persistent_hits, 0);
    assert_bit_identical(&cold, &recovered);

    // The re-run rewrote good entries: a third run replays again.
    let warm_trace = Trace::new();
    let (warm, _) = search(&target, &options(), &warm_trace);
    assert_eq!(backend_compiles(&warm_trace), 0);
    assert_bit_identical(&cold, &warm);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bumped_pipeline_version_invalidates_every_entry() {
    let dir = fresh_dir("version");
    let target = targets::a100();
    let at_version = |v: u32| {
        let cache = Arc::new(TuningCache::open_versioned(&dir, v).expect("open cache"));
        TuneOptions::serial().cache(cache)
    };

    let (cold, _) = search(&target, &at_version(PIPELINE_VERSION), &Trace::disabled());

    let bumped_trace = Trace::new();
    let (bumped, _) = search(&target, &at_version(PIPELINE_VERSION + 1), &bumped_trace);
    assert_eq!(bumped.stats.persistent_hits, 0, "no stale entry may hit");
    assert!(
        bumped.stats.invalidations > 0,
        "version-mismatched entries count as invalidations: {:?}",
        bumped.stats
    );
    assert!(
        backend_compiles(&bumped_trace) > 0,
        "a bumped pipeline recompiles everything"
    );
    // The search itself is unaffected by the version bump (same engine).
    assert_bit_identical(&cold, &bumped);

    let _ = std::fs::remove_dir_all(&dir);
}

/// CI hook: cold→warm phases across *processes* sharing one workspace
/// store. A no-op unless `RESPEC_CACHE_DIR` is set. `RESPEC_CACHE_PHASE`
/// selects the assertion: `cold` (default — populate the store), `warm`
/// (the previous process's entries must replay: **any** backend compile
/// fails the phase), or `corrupt` (CI damaged an entry; it must degrade
/// to a counted invalidation, never an error).
#[test]
fn ci_workspace_phases() {
    match std::env::var("RESPEC_CACHE_DIR") {
        Ok(dir) if !dir.trim().is_empty() => {}
        _ => return,
    }
    let phase = std::env::var("RESPEC_CACHE_PHASE").unwrap_or_else(|_| "cold".into());
    let options = TuneOptions::from_env().expect("CI environment is valid");
    assert!(options.cache.is_some(), "RESPEC_CACHE_DIR must attach");
    let trace = Trace::new();
    let (result, _) = search(&targets::a100(), &options, &trace);
    match phase.as_str() {
        "warm" => {
            assert_eq!(
                backend_compiles(&trace),
                0,
                "warm phase performed a backend compile: {:?}",
                result.stats
            );
            assert_eq!(result.stats.runner_calls, 0);
            assert!(result.stats.persistent_hits >= 1);
        }
        "corrupt" => {
            assert!(
                result.stats.invalidations > 0,
                "the damaged entry must surface as an invalidation: {:?}",
                result.stats
            );
        }
        _ => {
            assert!(result.stats.persistent_misses > 0, "cold phase populates");
        }
    }
}

#[test]
fn winners_from_other_targets_never_hit_or_change_the_result() {
    let dir = fresh_dir("xtarget");
    let options = || {
        let cache = Arc::new(TuningCache::open(&dir).expect("open cache"));
        TuneOptions::serial().cache(cache)
    };

    // Baseline: what the second target picks with no cache at all.
    let (baseline, _) = search(
        &targets::a4000(),
        &TuneOptions::serial(),
        &Trace::disabled(),
    );

    // Populate the store with the *first* target's winner, then tune the
    // second target against the same store: the a100 entries are keyed by
    // another target fingerprint, so they neither hit nor steer the search.
    let (_, _) = search(&targets::a100(), &options(), &Trace::disabled());
    let (transferred, _) = search(&targets::a4000(), &options(), &Trace::disabled());
    assert_eq!(
        transferred.stats.persistent_hits, 0,
        "a different target fingerprint can never hit"
    );
    assert_bit_identical(&baseline, &transferred);

    let _ = std::fs::remove_dir_all(&dir);
}
