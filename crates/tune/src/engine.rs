//! The two-phase tuning engine behind [`crate::tune_kernel_pooled`]: one
//! driver ([`tune`]) at every worker count. With one worker the pool runs
//! its jobs inline on the calling thread, so `parallelism = 1` is the same
//! code with no thread spawned, not a second path.
//!
//! Phase 1 (*prepare*, parallel over configurations): clone the kernel,
//! coarsen it (decision point 1 — legality), run the cleanup pipeline,
//! reject versions the static race/barrier analyzer says the pipeline
//! broke (errors beyond the input kernel's baseline), and prune on static
//! shared memory (decision point 2). Surviving versions are content-hashed
//! ([`respec_ir::structural_hash`]).
//!
//! Between the phases the surviving candidates are grouped by IR hash:
//! distinct configurations that canonicalized to byte-identical IR form one
//! *group* whose representative — the member with the lowest candidate
//! index — is the only one that is backend-compiled and measured. Every
//! other member is a **cache hit** and shares the representative's backend
//! report and timing.
//!
//! Phase 2 (*evaluate*, parallel over groups): backend-compile the version
//! (decision point 3 — register/spill pruning) and, where a member is
//! eligible, run the measurement (decision point 4 — TDO). Each worker
//! builds its own runner from the caller's factory, so simulators are never
//! shared across threads.
//!
//! # Failure handling
//!
//! Evaluation survives failure instead of aborting the search. A group's
//! one evaluation can fail three ways: the backend rejects the version
//! (`try_compile_launch` error), the runner returns a [`SimError`], or the
//! runner panics (caught with [`std::panic::catch_unwind`], so the worker
//! keeps serving other groups). None of them is transient — the backend
//! and the simulator are deterministic, and every member of a group has
//! byte-identical IR — so nothing is retried: the failure prunes the whole
//! group, and every member carries the same `PruneReason::CompileFailed`
//! or `PruneReason::RunFailed`. The search continues with the other
//! groups.
//!
//! The join step walks candidates **in generation order** to emit decision
//! events and select the winner (strictly-smaller time wins; ties keep the
//! earlier candidate). Because grouping is a pure function of the prepared
//! IR and both phases produce per-index results independent of scheduling,
//! serial and parallel runs select byte-identical winners with bit-identical
//! times and identical decision logs — the contract the determinism proptest
//! enforces.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use respec_analyze::{introduced_errors, Baseline};
use respec_backend::{try_compile_launch, BackendReport};
use respec_cache::{Lookup, StoredReport, StoredWinner, TuningCache};
use respec_ir::kernel::{analyze_function, Launch};
use respec_ir::{parse_function, structural_hash, Function};
use respec_opt::{
    coarsen_function, coarsen_precheck, optimize_traced, CoarsenConfig, CpuLoweringParams,
};
use respec_sim::{SimError, TargetDesc, TargetKind, TargetModel};
use respec_trace::Trace;

use crate::pool::{panic_message, parallel_map, parallel_map_with};
use crate::{
    candidate_metrics, Candidate, PhaseTimings, PruneReason, TuneError, TuneErrorKind, TuneResult,
    TuneStats,
};

/// Tally of persistent-cache traffic over one search, folded into
/// [`TuneStats`] at the end.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PersistentCounters {
    hits: usize,
    misses: usize,
    invalidations: usize,
}

impl PersistentCounters {
    fn apply(&self, stats: &mut TuneStats) {
        stats.persistent_hits = self.hits;
        stats.persistent_misses = self.misses;
        stats.invalidations = self.invalidations;
    }
}

/// One search's view of the persistent [`TuningCache`]: the cache handle
/// plus the three content keys every lookup and store derives from —
/// the structural hash of the *input* kernel, the target fingerprint, and
/// the search fingerprint over the candidate configuration list (nothing
/// else, so searches at any worker count share entries).
///
/// All cache traffic happens on the driver thread, outside the worker
/// pool: lookups before evaluation, stores after. Workers never touch the
/// cache, which keeps the determinism contract untouched — a warm and a
/// cold search differ only in *which work is skipped*, never in the
/// results joined.
pub(crate) struct PersistentCx<'a> {
    cache: &'a TuningCache,
    input_hash: u64,
    target_kind: &'static str,
    target_fp: u64,
    search_fp: u64,
}

impl<'a> PersistentCx<'a> {
    fn new(
        cache: &'a TuningCache,
        func: &Function,
        target: &dyn TargetModel,
        configs: &[CoarsenConfig],
    ) -> PersistentCx<'a> {
        PersistentCx {
            cache,
            input_hash: structural_hash(func),
            target_kind: target.kind().tag(),
            target_fp: target.fingerprint(),
            search_fp: TuningCache::search_fingerprint(configs),
        }
    }

    /// Books one lookup outcome: counters + a per-lookup trace event. A
    /// stale entry counts as both a miss and an invalidation.
    fn book<T>(
        &self,
        lookup: Lookup<T>,
        kind: &'static str,
        trace: &Trace,
        counters: &mut PersistentCounters,
    ) -> Option<T> {
        match lookup {
            Lookup::Hit(t) => {
                counters.hits += 1;
                trace.cache_lookup(kind, "hit", "");
                Some(t)
            }
            Lookup::Miss => {
                counters.misses += 1;
                trace.cache_lookup(kind, "miss", "");
                None
            }
            Lookup::Stale(reason) => {
                counters.misses += 1;
                counters.invalidations += 1;
                trace.cache_lookup(kind, "stale", &reason);
                None
            }
        }
    }

    /// Short-circuits the whole search from a stored winner under the
    /// exact `(input IR, target, search)` key: the winner is replayed —
    /// bit-identical config, timing and registers, zero backend compiles,
    /// zero runner calls. Any defect in the entry (including unparsable
    /// stored IR) demotes it to an invalidation and the search proceeds.
    fn replay_winner(
        &self,
        func_name: &str,
        parallelism: usize,
        trace: &Trace,
        counters: &mut PersistentCounters,
    ) -> Option<TuneResult> {
        let stored = match self.cache.load_winner(
            self.target_kind,
            self.input_hash,
            self.target_fp,
            self.search_fp,
        ) {
            Lookup::Hit(w) => w,
            other => {
                let _ = self.book(other, "winner", trace, counters);
                return None;
            }
        };
        let best = match parse_function(&stored.ir) {
            Ok(f) => f,
            Err(e) => {
                counters.misses += 1;
                counters.invalidations += 1;
                trace.cache_lookup(
                    "winner",
                    "stale",
                    &format!("stored winner IR unparsable: {e}"),
                );
                return None;
            }
        };
        counters.hits += 1;
        trace.cache_lookup("winner", "hit", "");
        let seconds = stored.seconds();
        let mut span = trace.span("tune", format!("tune:{func_name}"));
        span.record("winner", stored.config.to_string());
        span.record("best_seconds", seconds);
        span.record("cached", true);
        span.record("parallelism", parallelism);
        trace.instant(
            "tune",
            "winner",
            &[
                ("config".into(), stored.config.to_string().into()),
                ("seconds".into(), seconds.into()),
                ("regs".into(), stored.regs.into()),
                ("cached".into(), true.into()),
            ],
        );
        Some(TuneResult {
            best,
            best_config: stored.config,
            best_seconds: seconds,
            best_regs: stored.regs,
            candidates: vec![Candidate {
                config: stored.config,
                backend: None,
                shared_bytes: 0,
                seconds: Some(seconds),
                pruned: None,
                cache_hit: true,
            }],
            stats: TuneStats {
                measured: 1,
                parallelism,
                ..TuneStats::default()
            },
            timings: PhaseTimings::default(),
        })
    }

    /// Resolves each group representative's backend report from the store
    /// (keyed by the *prepared version's* IR hash): a hit pre-fills the
    /// group's compile cache, so evaluation skips that backend compile
    /// entirely.
    fn preload_reports(
        &self,
        plan: &GroupPlan,
        preps: &[Prep],
        trace: &Trace,
        counters: &mut PersistentCounters,
    ) -> Vec<Option<StoredReport>> {
        plan.groups
            .iter()
            .map(|g| {
                let p = match &preps[g.rep] {
                    Prep::Ready(p) => p,
                    Prep::Pruned { .. } => unreachable!("groups are formed from survivors only"),
                };
                self.book(
                    self.cache
                        .load_report(self.target_kind, p.ir_hash, self.target_fp),
                    "report",
                    trace,
                    counters,
                )
            })
            .collect()
    }

    /// Persists the backend reports of groups that compiled fresh this
    /// run. Best-effort: a failed store is traced and otherwise ignored —
    /// the cache must never be able to fail a search.
    fn store_fresh_reports(
        &self,
        plan: &GroupPlan,
        preps: &[Prep],
        evals: &[GroupEval],
        was_preloaded: &[bool],
        trace: &Trace,
    ) {
        for (gi, eval) in evals.iter().enumerate() {
            if was_preloaded[gi] {
                continue;
            }
            let Some(report) = &eval.report else {
                continue;
            };
            let p = match &preps[plan.groups[gi].rep] {
                Prep::Ready(p) => p,
                Prep::Pruned { .. } => unreachable!("groups are formed from survivors only"),
            };
            if let Err(e) =
                self.cache
                    .store_report(self.target_kind, p.ir_hash, self.target_fp, report)
            {
                trace.instant(
                    "cache",
                    "store_failed",
                    &[
                        ("kind".into(), "report".into()),
                        ("error".into(), e.to_string().into()),
                    ],
                );
            }
        }
    }

    /// Persists the search's winner under the exact search key, as the
    /// canonical printed IR plus bit-exact timing. Best-effort, like report
    /// stores. A winner whose printed IR does not parse back to the same
    /// structural hash is refused with a `store_failed` event: stored, it
    /// could never replay and would cost a full search on every request.
    fn store_winner(&self, result: &TuneResult, trace: &Trace) {
        let ir = result.best.to_string();
        let stored = match parse_function(&ir) {
            Ok(back) if structural_hash(&back) == structural_hash(&result.best) => {
                Ok(StoredWinner {
                    config: result.best_config,
                    seconds_bits: result.best_seconds.to_bits(),
                    regs: result.best_regs,
                    ir,
                    target: self.target_fp,
                    target_kind: self.target_kind.to_string(),
                })
            }
            Ok(_) => Err("printed winner IR parses back to a different function".to_string()),
            Err(e) => Err(format!("printed winner IR does not parse: {e}")),
        };
        let stored = stored.and_then(|w| {
            self.cache
                .store_winner(self.input_hash, self.search_fp, &w)
                .map_err(|e| e.to_string())
        });
        if let Err(e) = stored {
            trace.instant(
                "cache",
                "store_failed",
                &[("kind".into(), "winner".into()), ("error".into(), e.into())],
            );
        }
    }

    /// Emits the search's cache counters into the trace.
    fn emit_counters(&self, trace: &Trace, c: &PersistentCounters) {
        trace.counter("cache", "persistent_hits", c.hits);
        trace.counter("cache", "persistent_misses", c.misses);
        trace.counter("cache", "invalidations", c.invalidations);
    }
}

/// Phase-1 outcome for one candidate configuration.
///
/// Cloning is cheap by construction — prepared versions sit behind an
/// [`Arc`] — so candidates whose configurations are literally equal share
/// one prepared version instead of each paying a deep kernel copy
/// (copy-on-write at the candidate level; see [`ConfigDedup`]).
#[derive(Clone)]
pub(crate) enum Prep {
    /// Eliminated at decision point 1 or 2.
    Pruned {
        reason: PruneReason,
        shared_bytes: u64,
    },
    /// Coarsened + optimized and within the shared-memory budget.
    Ready(Arc<PreparedVersion>),
}

/// A candidate version that survived the compile-side decision points.
pub(crate) struct PreparedVersion {
    version: Function,
    launches: Vec<Launch>,
    shared_bytes: u64,
    ir_hash: u64,
}

/// A kernel version that clones lazily: candidates borrow the input
/// function until a transform actually needs `&mut`, and the one deep copy
/// a unique configuration requires happens at that point — never earlier,
/// and never at all for configurations pruned by the borrowed-side
/// legality precheck.
enum CowVersion<'a> {
    Borrowed(&'a Function),
    Owned(Box<Function>),
}

impl<'a> CowVersion<'a> {
    fn to_mut(&mut self) -> &mut Function {
        if let CowVersion::Borrowed(f) = self {
            *self = CowVersion::Owned(Box::new((*f).clone()));
        }
        match self {
            CowVersion::Owned(f) => f,
            CowVersion::Borrowed(_) => unreachable!("made owned just above"),
        }
    }

    fn into_owned(self) -> Function {
        match self {
            CowVersion::Borrowed(f) => f.clone(),
            CowVersion::Owned(f) => *f,
        }
    }
}

/// Runs decision points 1–2 for one configuration, plus the static
/// race/barrier legality gate in between: a version whose coarsened +
/// optimized IR has analyzer errors the input kernel (`baseline`) lacked
/// is rejected before any backend compilation or measurement. The input
/// kernel's baseline is computed on the first version with an error and
/// then shared by every worker; a search whose versions are all clean
/// never analyzes the input.
///
/// The input kernel is **not cloned up front**: a borrowed legality
/// precheck ([`respec_opt::coarsen_precheck`]) rejects illegal
/// configurations first (no copy at all), the identity configuration skips
/// the coarsening walk entirely (identity coarsening is validation-only,
/// which the precheck just performed), and the deep copy happens at the
/// first genuinely mutating step.
pub(crate) fn prepare(
    func: &Function,
    config: CoarsenConfig,
    target: &dyn TargetModel,
    baseline: &OnceLock<Baseline>,
    trace: &Trace,
) -> Prep {
    if let Err(e) = coarsen_precheck(func, config) {
        return Prep::Pruned {
            reason: PruneReason::Illegal(e.message),
            shared_bytes: 0,
        };
    }
    let mut version = CowVersion::Borrowed(func);
    if !config.is_identity() {
        if let Err(e) = coarsen_function(version.to_mut(), config) {
            return Prep::Pruned {
                reason: PruneReason::Illegal(e.message),
                shared_bytes: 0,
            };
        }
    }
    optimize_traced(version.to_mut(), trace);
    let mut version = version.into_owned();
    // CPU targets get the GPU-to-CPU lowering *after* coarsening and
    // optimization: coarsening factors act as per-core tile sizes, and the
    // lowered IR is what gets hashed, grouped, compiled and measured — so
    // cache keys and structural groups are kind-specific by construction.
    if target.kind() == TargetKind::Cpu {
        let lanes = i64::from(target.exec_width());
        let summary = respec_opt::lower_function_to_cpu(&mut version, &CpuLoweringParams { lanes });
        if summary.fissioned + summary.fallback > 0 {
            trace.instant(
                "tune",
                "cpu_lower",
                &[
                    ("fissioned".into(), summary.fissioned.into()),
                    ("fallback".into(), summary.fallback.into()),
                    ("demoted_shared".into(), summary.demoted_shared.into()),
                    ("spills".into(), summary.spills.into()),
                ],
            );
        }
    }
    let launches = match analyze_function(&version) {
        Ok(l) => l,
        Err(e) => {
            return Prep::Pruned {
                reason: PruneReason::Illegal(e.message),
                shared_bytes: 0,
            }
        }
    };
    let shared: u64 = launches
        .iter()
        .map(|l| l.shared_bytes(&version))
        .max()
        .unwrap_or(0);
    let report = respec_analyze::analyze_function(&version);
    let introduced = if report.is_clean() {
        Vec::new()
    } else {
        introduced_errors(baseline.get_or_init(|| Baseline::of(func)), &report)
    };
    if !introduced.is_empty() {
        return Prep::Pruned {
            reason: PruneReason::StaticallyUnsafe {
                errors: introduced.len(),
                first: introduced[0].message.clone(),
            },
            shared_bytes: shared,
        };
    }
    if shared > target.shared_per_block() {
        return Prep::Pruned {
            reason: PruneReason::SharedMemory {
                bytes: shared,
                limit: target.shared_per_block(),
            },
            shared_bytes: shared,
        };
    }
    let ir_hash = structural_hash(&version);
    Prep::Ready(Arc::new(PreparedVersion {
        version,
        launches,
        shared_bytes: shared,
        ir_hash,
    }))
}

/// Candidate-level copy-on-write over the configuration list: every
/// candidate index maps to the *first* index carrying an `==`
/// configuration, and only those primary indices are prepared. Duplicate
/// candidates then share the primary's [`Prep`] through its `Arc` —
/// zero clones, zero coarsening, zero optimization, zero hashing for the
/// copies. Grouping, evaluation and the decision log still see one entry
/// per candidate, so results are unchanged.
struct ConfigDedup {
    /// Candidate index → index of the first candidate with the same config.
    first_of: Vec<usize>,
    /// Indices that are the first of their configuration, ascending.
    primaries: Vec<usize>,
}

impl ConfigDedup {
    fn new(configs: &[CoarsenConfig]) -> ConfigDedup {
        let mut first_index: HashMap<CoarsenConfig, usize> = HashMap::new();
        let mut first_of = Vec::with_capacity(configs.len());
        let mut primaries = Vec::new();
        for (i, c) in configs.iter().enumerate() {
            let f = *first_index.entry(*c).or_insert(i);
            if f == i {
                primaries.push(i);
            }
            first_of.push(f);
        }
        ConfigDedup {
            first_of,
            primaries,
        }
    }

    /// Expands per-primary preps back to one [`Prep`] per candidate;
    /// duplicates receive a cheap clone sharing the primary's `Arc`.
    fn scatter(&self, unique: Vec<Prep>) -> Vec<Prep> {
        debug_assert_eq!(unique.len(), self.primaries.len());
        let mut by_index: Vec<Option<Prep>> = vec![None; self.first_of.len()];
        for (&ci, p) in self.primaries.iter().zip(unique) {
            by_index[ci] = Some(p);
        }
        self.first_of
            .iter()
            .map(|&f| {
                by_index[f]
                    .clone()
                    .expect("every first-of index is a prepared primary")
            })
            .collect()
    }
}

/// [`prepare`], with panics demoted to an `Illegal` prune so one broken
/// transform never kills the search.
pub(crate) fn prepare_caught(
    func: &Function,
    config: CoarsenConfig,
    target: &dyn TargetModel,
    baseline: &OnceLock<Baseline>,
    trace: &Trace,
) -> Prep {
    catch_unwind(AssertUnwindSafe(|| {
        prepare(func, config, target, baseline, trace)
    }))
    .unwrap_or_else(|payload| Prep::Pruned {
        reason: PruneReason::Illegal(format!("prepare panicked: {}", panic_message(payload))),
        shared_bytes: 0,
    })
}

/// One set of candidates whose prepared versions are byte-identical IR.
pub(crate) struct Group {
    /// Lowest candidate index in the group; its prepared version stands in
    /// for every member.
    rep: usize,
    /// Whether any member is the identity configuration (identity is exempt
    /// from spill pruning so a baseline always gets measured).
    has_identity: bool,
}

/// Deterministic grouping of phase-1 survivors by IR hash.
pub(crate) struct GroupPlan {
    groups: Vec<Group>,
    /// Candidate index → group index, for survivors only.
    group_of: HashMap<usize, usize>,
}

pub(crate) fn plan_groups(configs: &[CoarsenConfig], preps: &[Prep]) -> GroupPlan {
    let mut groups: Vec<Group> = Vec::new();
    let mut by_hash: HashMap<u64, usize> = HashMap::new();
    let mut group_of = HashMap::new();
    for (i, prep) in preps.iter().enumerate() {
        if let Prep::Ready(p) = prep {
            let gi = *by_hash.entry(p.ir_hash).or_insert_with(|| {
                groups.push(Group {
                    rep: i,
                    has_identity: false,
                });
                groups.len() - 1
            });
            groups[gi].has_identity |= configs[i].is_identity();
            group_of.insert(i, gi);
        }
    }
    GroupPlan { groups, group_of }
}

/// Wall-clock spent inside the two expensive evaluation steps of one
/// group. Pure diagnostics — these feed [`PhaseTimings`], never a decision.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PhaseAcc {
    /// Seconds inside backend compilation.
    compile: f64,
    /// Seconds inside the measurement runner (including a panicking run).
    measure: f64,
}

/// Phase-2 outcome for one group: backend feedback, the shared measurement
/// or the failure that pruned every member.
#[derive(Default)]
pub(crate) struct GroupEval {
    /// Backend feedback shared by every member (byte-identical IR): compiled
    /// this run or preloaded from the persistent cache; `None` when the
    /// compile failed.
    report: Option<StoredReport>,
    /// The shared measurement in seconds; `None` when the group was
    /// spill-pruned or failed. Non-finite values are demoted in `finalize`.
    measured: Option<f64>,
    /// Why the group's evaluation failed; every member is pruned with it.
    failure: Option<PruneReason>,
    /// Measurement-runner invocations performed (0 or 1).
    runner_calls: usize,
    /// Compile/measure wall-clock spent evaluating this group.
    phase: PhaseAcc,
}

/// Decision point 3: backend-compiles every launch of the version and keeps
/// the report of the launch that governs the spill decision.
fn compile(
    p: &PreparedVersion,
    target: &dyn TargetModel,
    trace: &Trace,
    phase: &mut PhaseAcc,
) -> Result<StoredReport, PruneReason> {
    let compile_started = Instant::now();
    let mut worst_regs = 0u32;
    let mut spill_units = 0u32;
    let mut governing: Option<(u32, u32, BackendReport)> = None;
    let mut span = trace.span("tune", "backend");
    for l in &p.launches {
        let r = match try_compile_launch(&p.version, l, target.max_regs_per_thread()) {
            Ok(r) => r,
            Err(e) => {
                phase.compile += compile_started.elapsed().as_secs_f64();
                return Err(PruneReason::CompileFailed(e.message));
            }
        };
        let demand = r.regs_per_thread + r.spill_units;
        let gkey = (r.spill_units, demand);
        if governing.as_ref().is_none_or(|(s, d, _)| gkey > (*s, *d)) {
            governing = Some((r.spill_units, demand, r.clone()));
        }
        worst_regs = worst_regs.max(demand);
        spill_units = spill_units.max(r.spill_units);
    }
    span.record("launches", p.launches.len());
    span.record("reg_demand", worst_regs);
    span.record("spill_units", spill_units);
    phase.compile += compile_started.elapsed().as_secs_f64();
    Ok(StoredReport {
        // The launch that governed the spill decision: highest spill
        // count, then highest register demand.
        backend: governing
            .map(|(_, _, r)| r)
            .expect("kernels have at least one launch"),
        worst_regs,
        spill_units,
        launch_regs: worst_regs.min(target.max_regs_per_thread()),
    })
}

/// Runs decision points 3–4 once for one group, on its representative: a
/// report preloaded from the persistent cache skips the compile, and the
/// measurement runs only when some member survives spill pruning. A failed
/// compile, runner error or runner panic becomes the group's `failure`.
pub(crate) fn evaluate_group(
    group: &Group,
    preps: &[Prep],
    target: &dyn TargetModel,
    trace: &Trace,
    run: &mut impl FnMut(&Function, u32) -> Result<f64, SimError>,
    preloaded: Option<StoredReport>,
) -> GroupEval {
    let p = match &preps[group.rep] {
        Prep::Ready(p) => p,
        Prep::Pruned { .. } => unreachable!("groups are formed from survivors only"),
    };
    let mut eval = GroupEval::default();
    let report = match preloaded {
        Some(r) => r,
        None => match compile(p, target, trace, &mut eval.phase) {
            Ok(r) => r,
            Err(reason) => {
                eval.failure = Some(reason);
                return eval;
            }
        },
    };
    // A group is measured iff at least one member survives spill pruning:
    // spill-free versions always do, spilling versions only when the group
    // contains the identity configuration.
    let measure = report.spill_units == 0 || group.has_identity;
    let launch_regs = report.launch_regs;
    eval.report = Some(report);
    if !measure {
        return eval;
    }
    eval.runner_calls = 1;
    let mut span = trace.span("tune", "measure");
    let measure_started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| run(&p.version, launch_regs)));
    eval.phase.measure += measure_started.elapsed().as_secs_f64();
    match outcome {
        Ok(Ok(seconds)) => {
            span.record("seconds", seconds);
            eval.measured = Some(seconds);
        }
        Ok(Err(e)) => eval.failure = Some(PruneReason::RunFailed(e.message)),
        Err(payload) => {
            eval.failure = Some(PruneReason::RunFailed(format!(
                "runner panicked: {}",
                panic_message(payload)
            )))
        }
    }
    eval
}

/// [`evaluate_group`] with a final panic net: a panic outside the runner
/// (an engine bug or a pathological trace sink) fails the whole group
/// instead of killing the tune.
pub(crate) fn evaluate_group_caught(
    group: &Group,
    preps: &[Prep],
    target: &dyn TargetModel,
    trace: &Trace,
    run: &mut impl FnMut(&Function, u32) -> Result<f64, SimError>,
    preloaded: Option<StoredReport>,
) -> GroupEval {
    catch_unwind(AssertUnwindSafe(|| {
        evaluate_group(group, preps, target, trace, run, preloaded)
    }))
    .unwrap_or_else(|payload| GroupEval {
        failure: Some(PruneReason::RunFailed(format!(
            "evaluation panicked: {}",
            panic_message(payload)
        ))),
        ..GroupEval::default()
    })
}

/// Joins both phases in candidate generation order: builds the decision
/// log, emits one `candidate` trace event per configuration, selects the
/// winner, and records the search summary on the `tune:<kernel>` span.
pub(crate) fn finalize(
    func_name: &str,
    configs: &[CoarsenConfig],
    preps: Vec<Prep>,
    plan: GroupPlan,
    evals: Vec<GroupEval>,
    parallelism: usize,
    trace: &Trace,
) -> Result<TuneResult, TuneError> {
    let mut tune_span = trace.span("tune", format!("tune:{func_name}"));
    tune_span.record("candidates", configs.len());

    let mut candidates = Vec::with_capacity(configs.len());
    // Winner so far: candidate index, seconds, launch registers.
    let mut best: Option<(usize, f64, u32)> = None;

    for (i, (&config, prep)) in configs.iter().zip(&preps).enumerate() {
        let mut candidate = Candidate {
            config,
            backend: None,
            shared_bytes: 0,
            seconds: None,
            pruned: None,
            cache_hit: false,
        };
        let mut launch_regs = None;
        match prep {
            Prep::Pruned {
                reason,
                shared_bytes,
            } => {
                candidate.shared_bytes = *shared_bytes;
                candidate.pruned = Some(reason.clone());
            }
            Prep::Ready(p) => {
                candidate.shared_bytes = p.shared_bytes;
                let gi = plan.group_of[&i];
                let eval = &evals[gi];
                let report = eval.report.as_ref();
                candidate.backend = report.map(|r| r.backend.clone());
                if let Some(reason) = &eval.failure {
                    // Members share byte-identical IR, so the
                    // representative's failure is every member's.
                    candidate.pruned = Some(reason.clone());
                } else {
                    candidate.cache_hit = i != plan.groups[gi].rep;
                    let spilling = report.filter(|r| r.spill_units > 0 && !config.is_identity());
                    if let Some(r) = spilling {
                        candidate.pruned = Some(PruneReason::Spill {
                            regs: r.worst_regs,
                            spill_units: r.spill_units,
                        });
                    } else if let (Some(seconds), Some(r)) = (eval.measured, report) {
                        launch_regs = Some(r.launch_regs);
                        if seconds.is_finite() {
                            candidate.seconds = Some(seconds);
                            // Strictly-smaller wins; ties keep the earliest
                            // candidate, so selection is order-independent.
                            if best.is_none_or(|(_, t, _)| seconds < t) {
                                best = Some((i, seconds, r.launch_regs));
                            }
                        } else {
                            // NaN/±inf timings must never become (or shadow)
                            // an incumbent: treat them as failed runs.
                            candidate.pruned = Some(PruneReason::RunFailed(format!(
                                "non-finite measured time ({seconds})"
                            )));
                        }
                    }
                }
            }
        }
        trace.instant(
            "tune",
            "candidate",
            &candidate_metrics(&candidate, launch_regs),
        );
        candidates.push(candidate);
    }

    let measured = candidates.iter().filter(|c| c.seconds.is_some()).count();
    let pruned = candidates.iter().filter(|c| c.pruned.is_some()).count();
    let cache_hits = candidates.iter().filter(|c| c.cache_hit).count();
    let statically_rejected = candidates
        .iter()
        .filter(|c| matches!(c.pruned, Some(PruneReason::StaticallyUnsafe { .. })))
        .count();
    let stats = TuneStats {
        cache_hits,
        cache_misses: plan.groups.len(),
        runner_calls: evals.iter().map(|e| e.runner_calls).sum(),
        measured,
        pruned,
        statically_rejected,
        parallelism,
        // Persistent-cache traffic is accounted by the driver, which owns
        // the counters; a cache-less search reports zeros.
        ..TuneStats::default()
    };
    trace.counter("tune", "cache_hits", cache_hits);
    trace.counter("tune", "cache_misses", plan.groups.len());
    trace.counter("tune", "statically_rejected", statically_rejected);

    match best {
        Some((wi, best_seconds, best_regs)) => {
            let best_config = configs[wi];
            let gi = plan.group_of[&wi];
            let best_func = match &preps[plan.groups[gi].rep] {
                Prep::Ready(p) => p.version.clone(),
                Prep::Pruned { .. } => unreachable!("winner survived phase 1"),
            };
            trace.instant(
                "tune",
                "winner",
                &[
                    ("config".into(), best_config.to_string().into()),
                    ("seconds".into(), best_seconds.into()),
                    ("regs".into(), best_regs.into()),
                ],
            );
            tune_span.record("winner", best_config.to_string());
            tune_span.record("best_seconds", best_seconds);
            tune_span.record("measured", measured);
            tune_span.record("pruned", pruned);
            tune_span.record("statically_rejected", statically_rejected);
            tune_span.record("cache_hits", cache_hits);
            tune_span.record("unique_versions", plan.groups.len());
            tune_span.record("parallelism", parallelism);
            Ok(TuneResult {
                best: best_func,
                best_config,
                best_seconds,
                best_regs,
                candidates,
                stats,
                timings: PhaseTimings::default(),
            })
        }
        None => {
            tune_span.record("winner", "none");
            Err(TuneError {
                message: "no candidate configuration survived pruning and measurement".into(),
                kind: TuneErrorKind::NoSurvivors,
            })
        }
    }
}

/// Sums the per-group phase accumulators into one busy-time total.
fn sum_phases(evals: &[GroupEval]) -> PhaseAcc {
    evals.iter().fold(PhaseAcc::default(), |mut acc, e| {
        acc.compile += e.phase.compile;
        acc.measure += e.phase.measure;
        acc
    })
}

/// Assembles the [`PhaseTimings`] breakdown: busy seconds are summed
/// across workers, so the unattributed pool overhead is what the wall
/// clock saw beyond `busy / workers` (clamped at zero — timer skew on a
/// loaded machine can make the busy share exceed the wall reading).
fn phase_timings(
    wall_seconds: f64,
    prepare_busy: f64,
    phase: PhaseAcc,
    workers: usize,
) -> PhaseTimings {
    let busy = prepare_busy + phase.compile + phase.measure;
    PhaseTimings {
        prepare_seconds: prepare_busy,
        compile_seconds: phase.compile,
        measure_seconds: phase.measure,
        pool_overhead_seconds: (wall_seconds - busy / workers.max(1) as f64).max(0.0),
        wall_seconds,
    }
}

/// The driver: replay → dedup → prepare → plan → preload → evaluate → store
/// → finalize, on up to `workers` threads with one runner per
/// worker built lazily from `make_runner` (at `workers == 1` the pool runs
/// inline on the calling thread and builds one). All persistent-cache
/// traffic stays on the driver thread; workers only receive an
/// already-resolved preloaded report (or `None`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn tune<R, F>(
    func: &Function,
    target: &dyn TargetModel,
    configs: &[CoarsenConfig],
    workers: usize,
    make_runner: &F,
    trace: &Trace,
    cache: Option<&TuningCache>,
) -> Result<TuneResult, TuneError>
where
    R: FnMut(&Function, u32) -> Result<f64, SimError>,
    F: Fn() -> R + Sync,
{
    let wall = Instant::now();
    let mut counters = PersistentCounters::default();
    let cx = cache.map(|c| PersistentCx::new(c, func, target, configs));
    if let Some(cx) = &cx {
        if let Some(mut result) = cx.replay_winner(func.name(), workers, trace, &mut counters) {
            cx.emit_counters(trace, &counters);
            counters.apply(&mut result.stats);
            result.timings.wall_seconds = wall.elapsed().as_secs_f64();
            return Ok(result);
        }
    }
    let baseline = OnceLock::new();
    let dedup = ConfigDedup::new(configs);
    let timed: Vec<(Prep, f64)> = parallel_map(dedup.primaries.len(), workers, |k| {
        let started = Instant::now();
        let prep = prepare_caught(func, configs[dedup.primaries[k]], target, &baseline, trace);
        (prep, started.elapsed().as_secs_f64())
    });
    let mut prepare_busy = 0.0;
    let unique: Vec<Prep> = timed
        .into_iter()
        .map(|(prep, seconds)| {
            prepare_busy += seconds;
            prep
        })
        .collect();
    let preps = dedup.scatter(unique);
    let plan = plan_groups(configs, &preps);
    let preloaded: Vec<Option<StoredReport>> = match &cx {
        Some(cx) => cx.preload_reports(&plan, &preps, trace, &mut counters),
        None => plan.groups.iter().map(|_| None).collect(),
    };
    let was_preloaded: Vec<bool> = preloaded.iter().map(Option::is_some).collect();
    let evals: Vec<GroupEval> =
        parallel_map_with(plan.groups.len(), workers, make_runner, |run, gi| {
            evaluate_group_caught(
                &plan.groups[gi],
                &preps,
                target,
                trace,
                run,
                preloaded[gi].clone(),
            )
        });
    if let Some(cx) = &cx {
        cx.store_fresh_reports(&plan, &preps, &evals, &was_preloaded, trace);
    }
    let phase = sum_phases(&evals);
    let mut outcome = finalize(func.name(), configs, preps, plan, evals, workers, trace);
    if let Ok(result) = &mut outcome {
        result.timings = phase_timings(wall.elapsed().as_secs_f64(), prepare_busy, phase, workers);
    }
    match &cx {
        Some(cx) => {
            cx.emit_counters(trace, &counters);
            let mut result = outcome?;
            cx.store_winner(&result, trace);
            counters.apply(&mut result.stats);
            Ok(result)
        }
        None => outcome,
    }
}

// The engine shares `&Function`, `&TargetDesc` and prepared versions across
// scoped threads and moves backend reports back; keep the contract explicit.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Function>();
    assert_send_sync::<TargetDesc>();
    assert_send_sync::<BackendReport>();
    assert_send_sync::<Launch>();
    assert_send_sync::<Trace>();
    assert_send_sync::<Baseline>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use respec_ir::parse_function;
    use respec_sim::targets;
    use respec_trace::MetricValue;

    /// Staged exchange through shared memory: store, barrier, mirrored
    /// load. Race-free, so the analyzer keeps it.
    const SAFE: &str = "func @safe(%gx: index, %gy: index, %gz: index, %m: memref<?xf32, global>) {
  %c8 = const 8 : index
  %c7 = const 7 : index
  %c1 = const 1 : index
  parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {
    %sm = alloc() : memref<8xf32, shared>
    parallel<thread> (%tx, %ty, %tz) to (%c8, %c1, %c1) {
      %v = load %m[%tx] : f32
      store %v, %sm[%tx]
      barrier<thread>
      %j = sub %c7, %tx : index
      %r = load %sm[%j] : f32
      store %r, %m[%tx]
      yield
    }
    yield
  }
  return
}";

    /// Every thread stores to shared cell 0 with no barrier: a definite
    /// write-write race the analyzer reports as an error.
    const RACY: &str = "func @racy(%gx: index, %gy: index, %gz: index, %m: memref<?xf32, global>) {
  %c8 = const 8 : index
  %c1 = const 1 : index
  %c0 = const 0 : index
  parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {
    %sm = alloc() : memref<8xf32, shared>
    parallel<thread> (%tx, %ty, %tz) to (%c8, %c1, %c1) {
      %v = load %m[%tx] : f32
      store %v, %sm[%c0]
      %r = load %sm[%c0] : f32
      store %r, %m[%tx]
      yield
    }
    yield
  }
  return
}";

    #[test]
    fn prepare_rejects_versions_with_introduced_errors() {
        // An empty baseline stands in for a legality-preserving pipeline
        // whose transform broke the kernel: every analyzer error counts as
        // introduced.
        let func = parse_function(RACY).unwrap();
        let target = targets::a100();
        let prep = prepare(
            &func,
            CoarsenConfig::identity(),
            &target,
            &OnceLock::from(Baseline::default()),
            &Trace::disabled(),
        );
        match prep {
            Prep::Pruned {
                reason: PruneReason::StaticallyUnsafe { errors, first },
                ..
            } => {
                assert!(errors > 0);
                assert!(!first.is_empty());
            }
            _ => panic!("racy version must be statically rejected"),
        }
    }

    #[test]
    fn prepare_tolerates_preexisting_errors_within_budget() {
        // The same racy kernel measured against its *own* baseline passes:
        // the gate rejects only errors the pipeline introduced.
        let func = parse_function(RACY).unwrap();
        let target = targets::a100();
        let prep = prepare(
            &func,
            CoarsenConfig::identity(),
            &target,
            &OnceLock::new(),
            &Trace::disabled(),
        );
        assert!(matches!(prep, Prep::Ready(_)));
    }

    #[test]
    fn lazy_baseline_prunes_like_the_eager_one() {
        // The racy kernel's own errors are the budget; thread coarsening
        // duplicates its racy accesses, so some versions exceed it. The
        // baseline computed on first need must give each candidate the same
        // prune reason as one computed up front.
        let func = parse_function(RACY).unwrap();
        let target = targets::a100();
        let configs = crate::candidate_configs(crate::Strategy::Combined, &[1, 2, 4], &[8, 1, 1]);
        let eager = OnceLock::from(Baseline::of(&func));
        let lazy = OnceLock::new();
        let mut unsafe_versions = 0;
        for &config in &configs {
            let reason =
                |baseline| match prepare(&func, config, &target, baseline, &Trace::disabled()) {
                    Prep::Pruned { reason, .. } => Some(reason),
                    Prep::Ready(_) => None,
                };
            let expected = reason(&eager);
            assert_eq!(reason(&lazy), expected, "{config}");
            unsafe_versions += usize::from(matches!(
                expected,
                Some(PruneReason::StaticallyUnsafe { .. })
            ));
        }
        assert!(unsafe_versions > 0, "no version exceeds the racy budget");
        assert_eq!(lazy.get(), eager.get(), "the lazy baseline is the input's");
    }

    #[test]
    fn statically_rejected_candidates_are_counted_and_traced() {
        // Join path: one surviving candidate and one statically rejected
        // one must produce `statically_rejected == 1` in the stats, the
        // trace counter, and a `static-analysis` stage on the candidate
        // event.
        let safe = parse_function(SAFE).unwrap();
        let racy = parse_function(RACY).unwrap();
        let target = targets::a100();
        let trace = Trace::new();
        let configs = vec![CoarsenConfig::identity(), CoarsenConfig::identity()];
        let preps = vec![
            prepare(&safe, configs[0], &target, &OnceLock::new(), &trace),
            prepare(
                &racy,
                configs[1],
                &target,
                &OnceLock::from(Baseline::default()),
                &trace,
            ),
        ];
        let plan = plan_groups(&configs, &preps);
        let mut run = |_: &Function, _: u32| Ok(1e-3);
        let evals: Vec<GroupEval> = plan
            .groups
            .iter()
            .map(|g| evaluate_group(g, &preps, &target, &trace, &mut run, None))
            .collect();
        let result = finalize("safe", &configs, preps, plan, evals, 1, &trace).unwrap();
        assert_eq!(result.stats.statically_rejected, 1);
        assert_eq!(result.stats.pruned, 1);
        assert!(matches!(
            result.candidates[1].pruned,
            Some(PruneReason::StaticallyUnsafe { .. })
        ));
        let events = trace.events();
        let counter = events
            .iter()
            .find(|e| e.name == "statically_rejected")
            .expect("statically_rejected counter");
        assert_eq!(counter.metric("value"), Some(&MetricValue::from(1usize)));
        assert!(events.iter().any(|e| {
            e.name == "candidate"
                && e.metric("stage").and_then(|m| m.as_str()) == Some("static-analysis")
        }));
    }

    #[test]
    fn winner_that_does_not_parse_back_is_refused_not_stored() {
        let dir =
            std::env::temp_dir().join(format!("respec-engine-store-guard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = TuningCache::open(&dir).unwrap();
        let safe = parse_function(SAFE).unwrap();
        let target = targets::a100();
        let cx = PersistentCx::new(&cache, &safe, &target, &[CoarsenConfig::identity()]);
        let lookup = || {
            cache
                .load_winner(cx.target_kind, cx.input_hash, cx.target_fp, cx.search_fp)
                .hit()
                .is_some()
        };
        let mut result = TuneResult {
            best: safe.clone(),
            best_config: CoarsenConfig::identity(),
            best_seconds: 1e-3,
            best_regs: 8,
            candidates: Vec::new(),
            stats: TuneStats::default(),
            timings: PhaseTimings::default(),
        };
        // The printer writes a name verbatim; the lexer splits this one.
        result.best.set_name("not one token");
        let trace = Trace::new();
        cx.store_winner(&result, &trace);
        assert!(!lookup(), "an unreplayable winner must not be stored");
        let failed = trace
            .events()
            .into_iter()
            .find(|e| e.name == "store_failed")
            .expect("the refusal is traced");
        assert!(failed
            .metric("error")
            .and_then(|m| m.as_str())
            .is_some_and(|e| e.contains("does not parse")));

        result.best = safe;
        cx.store_winner(&result, &Trace::disabled());
        assert!(lookup(), "a winner that parses back is stored");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A real failure is deterministic, so it costs its group exactly one
    /// runner call — by `Err` or by panic, at any worker count — prunes
    /// every member with the same reason, and leaves the winner of a clean
    /// search over the other groups, bit for bit.
    #[test]
    fn a_failed_group_costs_one_runner_call() {
        use crate::{candidate_configs, tune_kernel_pooled, Strategy, TuneOptions};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let func = parse_function(SAFE).unwrap();
        let target = targets::a100();
        // Every configuration twice: each group has at least two members.
        let mut configs = candidate_configs(Strategy::Combined, &[1, 2, 4], &[8, 1, 1]);
        configs.extend(configs.clone());
        let timed = |version: &Function, regs: u32| -> Result<f64, SimError> {
            let h = structural_hash(version);
            Ok(((h % 9973) + 1) as f64 * 1e-7 + f64::from(regs) * 1e-9)
        };
        let tune = |configs: &[CoarsenConfig], workers: usize, poison: Option<(u64, bool)>| {
            let poisoned_calls = AtomicUsize::new(0);
            let calls = &poisoned_calls;
            let result = tune_kernel_pooled(
                &func,
                &target,
                configs,
                &TuneOptions::with_parallelism(workers),
                || {
                    move |version: &Function, regs: u32| match poison {
                        Some((hash, panics)) if structural_hash(version) == hash => {
                            calls.fetch_add(1, Ordering::SeqCst);
                            if panics {
                                panic!("deliberate failure");
                            }
                            Err(SimError {
                                message: "deliberate failure".into(),
                            })
                        }
                        _ => timed(version, regs),
                    }
                },
                &Trace::disabled(),
            )
            .expect("a search with survivors succeeds");
            (result, poisoned_calls.load(Ordering::SeqCst))
        };

        let (clean, _) = tune(&configs, 1, None);
        let poison = structural_hash(&clean.best);
        let members: Vec<usize> = (0..configs.len())
            .filter(|&i| {
                clean.candidates[i].seconds.map(f64::to_bits) == Some(clean.best_seconds.to_bits())
            })
            .collect();
        assert!(members.len() >= 2, "the failing group has several members");
        let rest: Vec<CoarsenConfig> = (0..configs.len())
            .filter(|i| !members.contains(i))
            .map(|i| configs[i])
            .collect();
        let (without, _) = tune(&rest, 1, None);

        for panics in [false, true] {
            for workers in [1, 4] {
                let (faulted, calls) = tune(&configs, workers, Some((poison, panics)));
                assert_eq!(calls, 1, "panics={panics} workers={workers}");
                assert_eq!(faulted.stats.runner_calls, clean.stats.runner_calls);
                let reasons: Vec<&PruneReason> = members
                    .iter()
                    .map(|&i| faulted.candidates[i].pruned.as_ref().expect("pruned"))
                    .collect();
                assert!(
                    matches!(reasons[0], PruneReason::RunFailed(m) if m.contains("deliberate"))
                );
                assert!(reasons.iter().all(|r| *r == reasons[0]), "{reasons:?}");
                assert_eq!(faulted.best_config, without.best_config);
                assert_eq!(
                    faulted.best_seconds.to_bits(),
                    without.best_seconds.to_bits()
                );
            }
        }
    }
}
