//! The application framework: the [`App`] trait, compilation, execution and
//! verification helpers.

use std::fmt;

use respec_frontend::{compile_cuda, KernelSpec};
use respec_ir::{Function, Module};
use respec_sim::{GpuSim, KernelArg, SimError};

/// Problem-size preset. Tests use [`Workload::Small`] (the interpreter runs
/// in debug builds); benchmarks use [`Workload::Large`] in release builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Small inputs for fast functional verification.
    Small,
    /// Larger inputs for the performance experiments.
    Large,
}

/// Error produced when building or verifying an application.
#[derive(Clone, Debug)]
pub struct AppError {
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for AppError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "application error: {}", self.message)
    }
}

impl std::error::Error for AppError {}

impl From<respec_frontend::CompileError> for AppError {
    fn from(e: respec_frontend::CompileError) -> AppError {
        AppError {
            message: e.to_string(),
        }
    }
}

impl From<SimError> for AppError {
    fn from(e: SimError) -> AppError {
        AppError { message: e.message }
    }
}

/// One Rodinia-equivalent application.
///
/// `Send + Sync` is a supertrait so the tuning engine's worker threads can
/// share an `&dyn App` while measuring candidate kernel versions; apps hold
/// only immutable configuration, so this costs implementations nothing.
pub trait App: Send + Sync {
    /// Benchmark name (matches the paper's figures, e.g. `"lud"`).
    fn name(&self) -> &'static str;

    /// The CUDA source of all kernels.
    fn source(&self) -> &'static str;

    /// Kernel names plus their static block dimensions.
    fn specs(&self) -> Vec<KernelSpec>;

    /// Runs the whole application (the paper's *composite* measurement
    /// scope): input setup, every kernel launch, host logic between
    /// launches. Returns the output vector used for verification.
    /// Simulated time accumulates in `sim.elapsed_seconds`.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if a kernel launch fails.
    fn run(&self, sim: &mut GpuSim, module: &Module) -> Result<Vec<f64>, SimError>;

    /// Sequential reference computation producing the same output vector.
    fn reference(&self) -> Vec<f64>;

    /// Relative/absolute error tolerance for verification.
    fn tolerance(&self) -> f64 {
        1e-3
    }

    /// The kernel that dominates runtime (the coarsening target for
    /// kernel-level experiments).
    fn main_kernel(&self) -> &'static str;
}

/// Compiles an application's kernels to an IR module.
///
/// # Errors
///
/// Returns an [`AppError`] if the CUDA source fails to parse or lower.
pub fn compile_app(app: &dyn App) -> Result<Module, AppError> {
    let module = compile_cuda(app.source(), &app.specs())?;
    for func in module.functions() {
        respec_ir::verify_function(func).map_err(|e| AppError {
            message: format!("{}: generated IR is invalid: {e}", app.name()),
        })?;
    }
    Ok(module)
}

/// Runs an application on a simulator.
///
/// # Errors
///
/// Propagates launch failures.
pub fn run_app(app: &dyn App, sim: &mut GpuSim, module: &Module) -> Result<Vec<f64>, AppError> {
    Ok(app.run(sim, module)?)
}

/// A kernel of one [`App::run`] with its backend register estimate (the
/// respec pipeline's normal path: backend feedback → occupancy). The
/// estimate depends only on the kernel and the target, so an app looks each
/// kernel up once per run and launches it from here as often as it needs.
#[derive(Clone, Copy, Debug)]
pub struct Kernel<'m> {
    func: &'m Function,
    regs: u32,
}

impl<'m> Kernel<'m> {
    /// Looks up kernel `name` in `module` and estimates its registers on
    /// `sim`'s target.
    ///
    /// # Panics
    ///
    /// If `module` has no function `name`: an app names only its own
    /// kernels.
    pub fn new(sim: &GpuSim, module: &'m Module, name: &str) -> Kernel<'m> {
        let func = module
            .function(name)
            .unwrap_or_else(|| panic!("module has no kernel `{name}`"));
        Kernel {
            func,
            regs: registers_for(sim, func),
        }
    }

    /// Launches the kernel over `grid` with `args`.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn launch(
        &self,
        sim: &mut GpuSim,
        grid: [i64; 3],
        args: &[KernelArg],
    ) -> Result<respec_sim::LaunchReport, SimError> {
        sim.launch(self.func, grid, args, self.regs)
    }
}

/// Backend register estimate for a kernel on the simulator's target.
pub fn registers_for(sim: &GpuSim, func: &Function) -> u32 {
    match respec_ir::kernel::analyze_function(func) {
        Ok(launches) => launches
            .iter()
            .map(|l| {
                respec_backend::compile_launch(func, l, sim.target.max_regs_per_thread)
                    .regs_per_thread
            })
            .max()
            .unwrap_or(32),
        Err(_) => 32,
    }
}

/// Maximum absolute error between two vectors (∞ if lengths differ).
pub fn max_abs_err(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Compiles, runs and verifies an application against its reference.
///
/// # Errors
///
/// Returns an [`AppError`] describing the first failure (compilation,
/// execution, or output mismatch).
pub fn verify_app(app: &dyn App, target: respec_sim::TargetDesc) -> Result<(), AppError> {
    let module = compile_app(app)?;
    let mut sim = GpuSim::new(target);
    let out = app.run(&mut sim, &module)?;
    let reference = app.reference();
    let err = max_abs_err(&out, &reference);
    if err > app.tolerance() {
        return Err(AppError {
            message: format!(
                "{}: output mismatch: max abs err {err:.3e} > tolerance {:.1e} (lengths {} vs {})",
                app.name(),
                app.tolerance(),
                out.len(),
                reference.len()
            ),
        });
    }
    Ok(())
}

/// Deterministic pseudo-random `f32` vector in `[0, 1)` (xorshift; seeded
/// per use so inputs are reproducible across runs and platforms).
pub fn random_f32(seed: u64, len: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64) as f32
        })
        .collect()
}

/// Deterministic pseudo-random `f64` vector in `[0, 1)`.
pub fn random_f64(seed: u64, len: usize) -> Vec<f64> {
    random_f32(seed, len)
        .into_iter()
        .map(|v| v as f64)
        .collect()
}

/// Ceiling division for grid-size computation (`i64::div_ceil` is not yet
/// stable for signed integers on this toolchain).
pub fn ceil_div(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    (a + b - 1) / b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_deterministic_and_in_range() {
        let a = random_f32(7, 100);
        let b = random_f32(7, 100);
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| (0.0..1.0).contains(&v)));
        let c = random_f32(8, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn max_abs_err_detects_mismatch() {
        assert_eq!(max_abs_err(&[1.0, 2.0], &[1.0, 2.5]), 0.5);
        assert_eq!(max_abs_err(&[1.0], &[1.0, 2.0]), f64::INFINITY);
        assert_eq!(max_abs_err(&[], &[]), 0.0);
    }
}
