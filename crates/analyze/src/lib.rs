//! Static legality analysis for the `respec` parallel IR: barrier
//! divergence and shared-memory races.
//!
//! The paper's coarsening and barrier transformations are only sound when
//! scoped barriers stay convergent and shared-memory accesses stay
//! race-free. This crate turns those implicit legality conditions into
//! checked properties:
//!
//! * [`check_barriers`] — every `barrier` must be control-flow convergent
//!   for all iterations of its enclosing parallel level (uniformity
//!   lattice seeded from the parallel induction variables),
//! * [`check_races`] — symbolic affine analysis over `shared`-space
//!   buffers flags write-write and read-write pairs executed by distinct
//!   threads in the same barrier interval,
//! * [`analyze_function`] / [`analyze_module`] — both checks combined
//!   into an [`AnalysisReport`] of [`Diagnostic`]s,
//! * [`Baseline`] / [`introduced_errors`] — the regression-tripwire
//!   contract used by the pass-manager gate and the tuning engine: a
//!   transformation must not *introduce* error-level findings the input
//!   did not already have.
//!
//! Severity contract: **errors** are decidable findings (a barrier guard
//! provably dependent on the parallel ivs; a race decided by enumerating
//! thread pairs over concrete affine indices). **Warnings** are possible
//! findings the analysis cannot decide (symbolic coefficients, unmodelled
//! guards). The Rodinia suite is error-clean and the dynamic sanitizer in
//! `respec-sim` cross-validates the error-level verdicts.

pub mod affine;
mod barrier;
mod race;
mod uniform;

use std::collections::BTreeMap;

use respec_ir::diag::sort_key;
use respec_ir::{Diagnostic, Function, Module, Severity};

pub use barrier::check_barriers;
pub use race::check_races;
pub use uniform::{uniformity, Uniformity};

use uniform::Lattices;

/// The findings of one analysis run, sorted errors-first.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    /// All findings, sorted by severity (errors first), code, location.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Error-level findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(|d| d.is_error())
    }

    /// Warning-level findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// `true` when there are no error-level findings (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Number of error-level findings.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }
}

/// Runs both checkers over one function.
///
/// Functions without the kernel launch shape (host logic, malformed
/// structures) get barrier checking only; launch-shape problems surface
/// through [`respec_ir::kernel::analyze_function`] at its call sites.
///
/// Each parallel level's uniformity lattice is computed at most once and
/// shared by both checkers.
pub fn analyze_function(func: &Function) -> AnalysisReport {
    let lattices = Lattices::new(func);
    let mut diagnostics = barrier::check_barriers_in(func, &lattices);
    if let Ok(launches) = respec_ir::kernel::analyze_function(func) {
        for launch in launches.iter().filter(|l| !l.shared_allocs.is_empty()) {
            let uni = lattices.of(launch.thread_par);
            diagnostics.extend(race::check_races_with(func, launch, uni));
        }
    }
    diagnostics.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)));
    diagnostics.dedup();
    AnalysisReport { diagnostics }
}

/// Runs [`analyze_function`] over every function of a module and
/// concatenates the findings.
pub fn analyze_module(module: &Module) -> AnalysisReport {
    let mut diagnostics = Vec::new();
    for func in module.functions() {
        diagnostics.extend(analyze_function(func).diagnostics);
    }
    AnalysisReport { diagnostics }
}

/// Error-level finding counts per diagnostic code: the regression-tripwire
/// reference the pass-manager gate and the tuning engine compare against.
///
/// Counts (not exact locations) are compared because transformations
/// legitimately move, duplicate (coarsening's interleaved instances) and
/// renumber ops; what they must never do is *add* a kind of error the input
/// lacked.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    errors: BTreeMap<&'static str, usize>,
}

impl Baseline {
    /// Captures the baseline of a function before transformation.
    pub fn of(func: &Function) -> Baseline {
        Baseline::of_report(&analyze_function(func))
    }

    /// Captures the baseline from an existing report.
    pub fn of_report(report: &AnalysisReport) -> Baseline {
        let mut errors: BTreeMap<&'static str, usize> = BTreeMap::new();
        for d in report.errors() {
            *errors.entry(d.code).or_insert(0) += 1;
        }
        Baseline { errors }
    }

    /// `true` when the baseline itself has no error-level findings.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Baseline count for one code.
    pub fn count(&self, code: &str) -> usize {
        self.errors.get(code).copied().unwrap_or(0)
    }
}

/// Error-level findings in `report` that exceed the per-code counts of
/// `baseline` — i.e. errors a transformation *introduced*. Empty when the
/// transformation is legality-preserving.
pub fn introduced_errors(baseline: &Baseline, report: &AnalysisReport) -> Vec<Diagnostic> {
    let mut budget: BTreeMap<&'static str, usize> = baseline.errors.clone();
    let mut introduced = Vec::new();
    for d in report.errors() {
        match budget.get_mut(d.code) {
            Some(n) if *n > 0 => *n -= 1,
            _ => introduced.push(d.clone()),
        }
    }
    introduced
}

#[cfg(test)]
mod tests {
    use super::*;
    use respec_ir::parse_function;

    /// The staged-transpose kernel of the paper: store, barrier, load.
    /// Race-free and convergent.
    const CLEAN: &str = "func @k(%g: index, %m: memref<?xf32, global>) {
  %c16 = const 16 : index
  parallel<block> (%bx) to (%g) {
    %sm = alloc() : memref<16x16xf32, shared>
    parallel<thread> (%tx, %ty) to (%c16, %c16) {
      %v = load %m[%tx] : f32
      store %v, %sm[%ty, %tx]
      barrier<thread>
      %w = load %sm[%tx, %ty] : f32
      store %w, %m[%tx]
      yield
    }
    yield
  }
  return
}";

    /// Same kernel with the barrier removed: the transposed load reads
    /// cells other threads write in the same interval.
    const RACY: &str = "func @k(%g: index, %m: memref<?xf32, global>) {
  %c16 = const 16 : index
  parallel<block> (%bx) to (%g) {
    %sm = alloc() : memref<16x16xf32, shared>
    parallel<thread> (%tx, %ty) to (%c16, %c16) {
      %v = load %m[%tx] : f32
      store %v, %sm[%ty, %tx]
      %w = load %sm[%tx, %ty] : f32
      store %w, %m[%tx]
      yield
    }
    yield
  }
  return
}";

    /// Every thread writes cell 0: a decidable write-write race.
    const WW: &str = "func @k(%g: index, %m: memref<?xf32, global>) {
  %c8 = const 8 : index
  %c0 = const 0 : index
  parallel<block> (%b) to (%g) {
    %sm = alloc() : memref<8xf32, shared>
    parallel<thread> (%t) to (%c8) {
      %v = load %m[%t] : f32
      store %v, %sm[%c0]
      yield
    }
    yield
  }
  return
}";

    /// Barrier under a thread-dependent guard.
    const DIVERGENT: &str = "func @k(%g: index) {
  %c8 = const 8 : index
  %c0 = const 0 : index
  parallel<block> (%b) to (%g) {
    parallel<thread> (%t) to (%c8) {
      %c = cmp eq %t, %c0
      if %c {
        barrier<thread>
        yield
      }
      yield
    }
    yield
  }
  return
}";

    #[test]
    fn clean_kernel_is_clean() {
        let report = analyze_function(&parse_function(CLEAN).unwrap());
        assert!(report.is_clean(), "diagnostics: {:?}", report.diagnostics);
    }

    #[test]
    fn seeded_race_is_an_error_with_location() {
        let report = analyze_function(&parse_function(RACY).unwrap());
        assert!(!report.is_clean());
        let rw = report.errors().find(|d| d.code == "race-rw").unwrap();
        assert!(rw.location.as_deref().unwrap().contains("parallel<thread>"));
        assert!(rw.message.contains("e.g. threads"), "{}", rw.message);
    }

    #[test]
    fn seeded_write_write_race_is_an_error() {
        let report = analyze_function(&parse_function(WW).unwrap());
        assert!(report.errors().any(|d| d.code == "race-ww"));
    }

    #[test]
    fn seeded_divergent_barrier_is_an_error() {
        let report = analyze_function(&parse_function(DIVERGENT).unwrap());
        assert!(report.errors().any(|d| d.code == "divergent-barrier"));
    }

    #[test]
    fn single_thread_guard_suppresses_the_race() {
        let src = "func @k(%g: index, %m: memref<?xf32, global>) {
  %c8 = const 8 : index
  %c0 = const 0 : index
  parallel<block> (%b) to (%g) {
    %sm = alloc() : memref<8xf32, shared>
    parallel<thread> (%t) to (%c8) {
      %c = cmp eq %t, %c0
      if %c {
        %v = load %m[%t] : f32
        store %v, %sm[%c0]
        yield
      }
      yield
    }
    yield
  }
  return
}";
        let report = analyze_function(&parse_function(src).unwrap());
        assert!(report.is_clean(), "diagnostics: {:?}", report.diagnostics);
    }

    #[test]
    fn loop_wrap_around_races_without_trailing_barrier() {
        // One barrier at the top of the loop body: iteration i's
        // post-barrier store meets iteration i+1's pre-barrier store only
        // through the wrap-around interval. (Same-iteration they are
        // adjacent too, but the point is the cross-instance pairing: the
        // store conflicts with itself at a different iv.)
        let src = "func @k(%g: index, %m: memref<?xf32, global>) {
  %c8 = const 8 : index
  %c0 = const 0 : index
  %c1 = const 1 : index
  parallel<block> (%b) to (%g) {
    %sm = alloc() : memref<8xf32, shared>
    parallel<thread> (%t) to (%c8) {
      for %i = %c0 to %c8 step %c1 {
        barrier<thread>
        %v = load %m[%t] : f32
        store %v, %sm[%i]
        yield
      }
      yield
    }
    yield
  }
  return
}";
        let report = analyze_function(&parse_function(src).unwrap());
        // store sm[%i] by every thread in one interval: decidable WW race.
        assert!(report.errors().any(|d| d.code == "race-ww"));
    }

    #[test]
    fn trailing_loop_barrier_separates_iterations() {
        let src = "func @k(%g: index, %m: memref<?xf32, global>) {
  %c8 = const 8 : index
  %c0 = const 0 : index
  %c1 = const 1 : index
  parallel<block> (%b) to (%g) {
    %sm = alloc() : memref<8xf32, shared>
    parallel<thread> (%t) to (%c8) {
      for %i = %c0 to %c8 step %c1 {
        store %c0, %sm[%t]
        barrier<thread>
        %w = load %sm[%c0] : index
        barrier<thread>
        yield
      }
      yield
    }
    yield
  }
  return
}";
        let report = analyze_function(&parse_function(src).unwrap());
        assert!(report.is_clean(), "diagnostics: {:?}", report.diagnostics);
    }

    #[test]
    fn baseline_gate_detects_introduced_errors() {
        let clean = parse_function(CLEAN).unwrap();
        let racy = parse_function(RACY).unwrap();
        let base = Baseline::of(&clean);
        assert!(base.is_clean());
        // Transformation that removed the barrier: introduced errors.
        let introduced = introduced_errors(&base, &analyze_function(&racy));
        assert!(!introduced.is_empty());
        // Already-racy input transformed into itself: nothing introduced.
        let racy_base = Baseline::of(&racy);
        assert!(introduced_errors(&racy_base, &analyze_function(&racy)).is_empty());
        assert!(racy_base.count("race-rw") >= 1);
    }

    #[test]
    fn analyze_module_concatenates() {
        let mut module = Module::new();
        module.add_function(parse_function(CLEAN).unwrap());
        let mut racy = parse_function(RACY).unwrap();
        racy.set_name("k2");
        module.add_function(racy);
        let report = analyze_module(&module);
        assert!(!report.is_clean());
    }
}
