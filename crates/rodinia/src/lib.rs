//! Rodinia-equivalent benchmark applications for the `respec` GPU
//! retargeting compiler.
//!
//! The paper evaluates on the Rodinia v3 suite (§VII). This crate
//! re-implements the 15 benchmarks the paper runs, in the CUDA subset of
//! [`respec_frontend`], with Rust host drivers, deterministic input
//! generators and sequential CPU references for output verification (the
//! paper verifies transformed outputs against clang-compiled outputs the
//! same way).
//!
//! Each benchmark keeps the *performance-relevant shape* of the original:
//! launch geometry (e.g. `gaussian`'s 16-thread blocks, `nw`'s 136 bytes of
//! shared memory per thread, `lud`'s 16×16 tiles), shared-memory staging,
//! barrier placement and arithmetic precision (`lavaMD`, `hotspot3D` and
//! `particlefilter` use `double`, driving the paper's AMD fp64 analysis).
//!
//! # Example
//!
//! ```
//! use respec_rodinia::{all_apps, compile_app, run_app};
//! use respec_sim::{targets, GpuSim};
//!
//! let apps = all_apps();
//! let app = apps.iter().find(|a| a.name() == "gaussian").expect("registered");
//! let module = compile_app(app.as_ref()).expect("compiles");
//! let mut sim = GpuSim::new(targets::a4000());
//! let out = run_app(app.as_ref(), &mut sim, &module).expect("runs");
//! assert!(!out.is_empty());
//! ```

pub mod apps;
mod framework;

pub use framework::{
    compile_app, max_abs_err, random_f32, random_f64, registers_for, run_app, verify_app, App,
    AppError, Kernel, Workload,
};

pub use apps::{all_apps, all_apps_sized, all_apps_with_gemm};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_fifteen_apps() {
        let apps = all_apps();
        assert_eq!(apps.len(), 15, "the paper evaluates 15 Rodinia benchmarks");
        let mut names: Vec<_> = apps.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 15, "names must be unique");
    }

    #[test]
    fn all_apps_compile() {
        for app in all_apps() {
            compile_app(app.as_ref())
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}", app.name()));
        }
    }
}
