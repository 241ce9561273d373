//! Traced pass pipeline: runs the cleanup passes while recording one span
//! per pass with rewrite counts and IR op-census deltas (ops before/after
//! and the per-`OpKind` histogram change), so `chrome://tracing` shows
//! where compile time and IR churn go.

use std::collections::BTreeMap;
use std::fmt;

use respec_analyze::{analyze_function, introduced_errors, Baseline};
use respec_ir::walk::walk_ops;
use respec_ir::{Diagnostic, Function, OpKind};
use respec_trace::Trace;

/// Version of the canonical cleanup pipeline (pass set, pass order, and
/// the rewrites each pass may perform). Persisted artifacts derived from
/// pipeline output — golden IR snapshots, the on-disk tuning cache — embed
/// this number; bump it whenever a pass change can alter the produced IR
/// so stale entries invalidate instead of silently matching.
pub const PIPELINE_VERSION: u32 = 1;

/// Number of ops reachable from the function body, per op-kind label.
pub fn op_census(func: &Function) -> BTreeMap<&'static str, u64> {
    let mut census = BTreeMap::new();
    walk_ops(func, func.body(), &mut |op| {
        *census.entry(kind_label(&func.op(op).kind)).or_insert(0) += 1;
    });
    census
}

/// Stable, lowercase label of an op kind (histogram/metric key).
pub fn kind_label(kind: &OpKind) -> &'static str {
    match kind {
        OpKind::ConstInt { .. } => "const_int",
        OpKind::ConstFloat { .. } => "const_float",
        OpKind::Binary(_) => "binary",
        OpKind::Unary(_) => "unary",
        OpKind::Cmp(_) => "cmp",
        OpKind::Select => "select",
        OpKind::Cast { .. } => "cast",
        OpKind::Alloc { .. } => "alloc",
        OpKind::Load => "load",
        OpKind::Store => "store",
        OpKind::Dim { .. } => "dim",
        OpKind::For => "for",
        OpKind::While => "while",
        OpKind::If => "if",
        OpKind::Parallel { .. } => "parallel",
        OpKind::Barrier { .. } => "barrier",
        OpKind::Yield => "yield",
        OpKind::Condition => "condition",
        OpKind::Call { .. } => "call",
        OpKind::Return => "return",
    }
}

/// Runs one pass under a span named `pass:<name>`, recording the rewrite
/// count, total op counts before/after, and per-kind op deltas. On a
/// disabled trace this is exactly `pass(func)` — no census is taken.
pub fn run_pass(
    trace: &Trace,
    func: &mut Function,
    name: &str,
    pass: impl FnOnce(&mut Function) -> usize,
) -> usize {
    if !trace.is_enabled() {
        return pass(func);
    }
    let before = op_census(func);
    let mut span = trace.span("pass", format!("pass:{name}"));
    span.record("function", func.name());
    let rewrites = pass(func);
    let after = op_census(func);
    span.record("rewrites", rewrites);
    span.record("ops_before", before.values().sum::<u64>());
    span.record("ops_after", after.values().sum::<u64>());
    // Per-kind histogram: absolute after-counts, plus deltas for kinds the
    // pass changed (keeps the span small on no-op passes).
    for (kind, count) in &after {
        span.record(format!("ops:{kind}"), *count);
    }
    for kind in before.keys().chain(after.keys()) {
        let b = before.get(kind).copied().unwrap_or(0) as i64;
        let a = after.get(kind).copied().unwrap_or(0) as i64;
        if a != b {
            span.record(format!("delta:{kind}"), a - b);
        }
    }
    rewrites
}

/// A transformation introduced an error-grade legality finding (a shared-
/// memory race or divergent barrier the input did not have). Produced by
/// [`AnalysisGate::check`].
#[derive(Clone, Debug)]
pub struct GateError {
    /// Name of the stage that tripped the gate.
    pub stage: String,
    /// The findings that exceed the pre-transformation baseline.
    pub introduced: Vec<Diagnostic>,
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stage `{}` introduced {} legality error(s); first: {}",
            self.stage,
            self.introduced.len(),
            self.introduced
                .first()
                .map(|d| d.message.as_str())
                .unwrap_or("<none>"),
        )
    }
}

impl std::error::Error for GateError {}

impl From<GateError> for Diagnostic {
    fn from(e: GateError) -> Diagnostic {
        match e.introduced.into_iter().next() {
            Some(mut d) => {
                d.message = format!("introduced by stage `{}`: {}", e.stage, d.message);
                d
            }
            None => Diagnostic::error(
                "gate-error",
                format!("stage `{}` tripped the gate", e.stage),
            ),
        }
    }
}

/// Legality gate around transformation stages: keep the input, transform,
/// and fail hard if the output has error-grade findings the input lacked.
///
/// Budgets are compared *per diagnostic code, by count* — transformations
/// legitimately move, duplicate and renumber operations, so locations are
/// not stable across a stage, but a stage that turns a race-free kernel
/// into a racy one always raises some error count.
///
/// The input's baseline is computed lazily: a transformed function with no
/// error-grade finding introduced nothing whatever the input had, so a
/// clean stage costs one analysis (of its output) and a copy of its input.
pub struct AnalysisGate {
    input: Function,
}

impl AnalysisGate {
    /// Keeps a snapshot of `func` to take the error budget from.
    pub fn before(func: &Function) -> AnalysisGate {
        AnalysisGate {
            input: func.clone(),
        }
    }

    /// Analyzes `func` after a transformation; any error exceeding the
    /// input's per-code budget fails the stage. The input is analyzed only
    /// when `func` has an error-grade finding.
    ///
    /// # Errors
    ///
    /// Returns a [`GateError`] carrying the introduced diagnostics.
    pub fn check(&self, func: &Function, stage: &str) -> Result<(), GateError> {
        let report = analyze_function(func);
        if report.is_clean() {
            return Ok(());
        }
        let introduced = introduced_errors(&Baseline::of(&self.input), &report);
        if introduced.is_empty() {
            Ok(())
        } else {
            Err(GateError {
                stage: stage.to_string(),
                introduced,
            })
        }
    }
}

/// The standard cleanup pipeline (canonicalize → CSE → LICM → CSE → DCE →
/// barrier elimination) with one span per pass; returns the total number of
/// rewrites. [`crate::optimize`] is this with a disabled trace.
pub fn optimize_traced(func: &mut Function, trace: &Trace) -> usize {
    let mut n = 0;
    n += run_pass(trace, func, "canonicalize", crate::canonicalize);
    n += run_pass(trace, func, "cse", crate::cse);
    n += run_pass(trace, func, "licm", crate::licm);
    n += run_pass(trace, func, "cse", crate::cse);
    n += run_pass(trace, func, "dce", crate::dce);
    n += run_pass(trace, func, "barrier-elim", crate::eliminate_barriers);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use respec_ir::parse_function;
    use respec_trace::MetricValue;

    const KERNEL: &str = "func @k(%gx: index, %gy: index, %gz: index, %m: memref<?xf32, global>) {
  %c64 = const 64 : index
  %c1 = const 1 : index
  parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {
    parallel<thread> (%tx, %ty, %tz) to (%c64, %c1, %c1) {
      %w = mul %bx, %c64 : index
      %w2 = mul %bx, %c64 : index
      %i = add %w, %tx : index
      %i2 = add %w2, %tx : index
      %v = load %m[%i] : f32
      store %v, %m[%i2]
      yield
    }
    yield
  }
  return
}";

    #[test]
    fn census_counts_by_kind() {
        let func = parse_function(KERNEL).unwrap();
        let census = op_census(&func);
        assert_eq!(census["load"], 1);
        assert_eq!(census["store"], 1);
        assert_eq!(census["parallel"], 2);
        assert_eq!(census["binary"], 4);
    }

    #[test]
    fn traced_pipeline_records_one_span_per_pass() {
        let mut func = parse_function(KERNEL).unwrap();
        let trace = respec_trace::Trace::new();
        let rewrites = optimize_traced(&mut func, &trace);
        assert!(rewrites > 0, "duplicate index math must be cleaned up");
        let events = trace.events();
        assert_eq!(events.len(), 6, "one span per pass");
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "pass:canonicalize",
                "pass:cse",
                "pass:licm",
                "pass:cse",
                "pass:dce",
                "pass:barrier-elim"
            ]
        );
        // The duplicated index math (%w2/%i2) must disappear somewhere in
        // the pipeline, and the span metrics must show exactly where.
        let first_before = events[0]
            .metric("ops_before")
            .and_then(|m| m.as_f64())
            .unwrap();
        let last_after = events[5]
            .metric("ops_after")
            .and_then(|m| m.as_f64())
            .unwrap();
        assert!(
            last_after < first_before,
            "pipeline must shrink the op count"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e.metric("rewrites"), Some(MetricValue::UInt(n)) if *n > 0)));
        assert!(
            events
                .iter()
                .any(|e| matches!(e.metric("delta:binary"), Some(MetricValue::Int(d)) if *d < 0)),
            "some pass must record the removal of the duplicate binary ops"
        );
    }

    const STAGED: &str = "func @s(%gx: index, %gy: index, %gz: index, %m: memref<?xf32, global>) {
  %c8 = const 8 : index
  %c1 = const 1 : index
  %c7 = const 7 : index
  parallel<block> (%bx, %by, %bz) to (%gx, %gy, %gz) {
    %sm = alloc() : memref<8xf32, shared>
    parallel<thread> (%tx, %ty, %tz) to (%c8, %c1, %c1) {
      %f = cast %tx : f32
      store %f, %sm[%tx]
      barrier<thread>
      %n = sub %c7, %tx : index
      %v = load %sm[%n] : f32
      store %v, %m[%tx]
      yield
    }
    yield
  }
  return
}";

    /// A deliberately illegal "pass": deletes every thread barrier without
    /// checking who depends on it.
    fn drop_barriers(func: &mut Function) -> usize {
        let mut dropped = 0;
        let regions: Vec<_> = (0..func.num_regions())
            .map(respec_ir::RegionId::from_index)
            .collect();
        for r in regions {
            let before = func.region(r).ops.len();
            let kept: Vec<_> = func
                .region(r)
                .ops
                .iter()
                .copied()
                .filter(|&o| !matches!(func.op(o).kind, OpKind::Barrier { .. }))
                .collect();
            dropped += before - kept.len();
            func.region_mut(r).ops = kept;
        }
        dropped
    }

    #[test]
    fn gate_trips_on_a_pass_that_introduces_a_race() {
        let mut func = parse_function(STAGED).unwrap();
        let gate = AnalysisGate::before(&func);
        drop_barriers(&mut func);
        let err = gate.check(&func, "drop-barriers").unwrap_err();
        assert!(
            err.introduced.iter().any(|d| d.code.starts_with("race-")),
            "{err}"
        );
        // The error converts into the diagnostics currency with the stage
        // recorded in the message.
        let d: respec_ir::Diagnostic = err.into();
        assert!(d.is_error());
        assert!(d.message.contains("drop-barriers"));
    }

    #[test]
    fn gate_passes_legal_stages() {
        let mut func = parse_function(STAGED).unwrap();
        let gate = AnalysisGate::before(&func);
        crate::optimize(&mut func);
        gate.check(&func, "optimize").unwrap();
    }

    #[test]
    fn gate_keeps_preexisting_errors_within_budget() {
        // A kernel that is *already* racy: the gate must not blame a
        // harmless cleanup stage for errors the input carried in.
        let mut func = parse_function(STAGED).unwrap();
        drop_barriers(&mut func);
        let gate = AnalysisGate::before(&func);
        crate::optimize(&mut func);
        gate.check(&func, "optimize")
            .expect("the race predates the stage");
    }

    #[test]
    fn traced_and_untraced_produce_identical_ir() {
        let mut traced = parse_function(KERNEL).unwrap();
        let mut untraced = parse_function(KERNEL).unwrap();
        let trace = respec_trace::Trace::new();
        let a = optimize_traced(&mut traced, &trace);
        let b = crate::optimize(&mut untraced);
        assert_eq!(a, b);
        assert_eq!(traced.to_string(), untraced.to_string());
    }
}
