//! Workload and target registries.
//!
//! The daemon serves *registered* workloads — the 15 Rodinia apps — rather
//! than arbitrary CUDA source: a tune measures candidate versions inside
//! the app's full host driver (the paper's composite measurement scope),
//! so the driver must be linked into the server. Each workload is prepared
//! once at startup: compiled through the canonical pipeline, its main
//! kernel resolved, its structural hash (the coalescing key component) and
//! launch geometry precomputed. Requests then reference workloads by name
//! and pay none of the frontend cost on the request path.

use std::collections::HashMap;
use std::sync::Arc;

use respec_bench::{compiled_module, Pipeline};
use respec_ir::{structural_hash, Function, Module};
use respec_rodinia::{all_apps_sized, App, Workload};

/// One workload, fully prepared for tuning.
pub struct PreparedApp {
    /// The application (host driver + source + geometry).
    pub app: Box<dyn App>,
    /// The module compiled through the canonical (`PolygeistNoOpt`)
    /// pipeline — the tune input, shared by every request.
    pub module: Module,
    /// The main kernel (the coarsening target), cloned out of `module`.
    pub func: Function,
    /// Static block dimensions of the main kernel's launch.
    pub block_dims: [i64; 3],
    /// Structural hash of the main kernel — the content half of the
    /// coalescing and cache keys.
    pub input_hash: u64,
}

/// Registry of prepared workloads and known targets.
pub struct Registry {
    apps: HashMap<&'static str, Arc<PreparedApp>>,
    /// Names in registration (popularity-rank) order, for listings and the
    /// load generator's zipf sampling.
    names: Vec<&'static str>,
}

impl Registry {
    /// Prepares every registered workload at the given problem size.
    ///
    /// # Panics
    ///
    /// Panics if a bundled app fails to compile — a build defect, not a
    /// request-time condition.
    pub fn prepare(workload: Workload) -> Registry {
        let mut apps = HashMap::new();
        let mut names = Vec::new();
        for app in all_apps_sized(workload) {
            let module = compiled_module(app.as_ref(), Pipeline::PolygeistNoOpt);
            let name = app.name();
            let func = module
                .function(app.main_kernel())
                .unwrap_or_else(|| panic!("{name}: main kernel missing"))
                .clone();
            let launches = respec_ir::kernel::analyze_function(&func)
                .unwrap_or_else(|e| panic!("{name}: kernel shape: {e}"));
            let dims = &launches[0].block_dims;
            let block_dims = [
                dims.first().copied().unwrap_or(1),
                dims.get(1).copied().unwrap_or(1),
                dims.get(2).copied().unwrap_or(1),
            ];
            let input_hash = structural_hash(&func);
            names.push(name);
            apps.insert(
                name,
                Arc::new(PreparedApp {
                    app,
                    module,
                    func,
                    block_dims,
                    input_hash,
                }),
            );
        }
        Registry { apps, names }
    }

    /// Looks up a prepared workload by name.
    pub fn app(&self, name: &str) -> Option<Arc<PreparedApp>> {
        self.apps.get(name).cloned()
    }

    /// Registered workload names, in registration order.
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }
}

/// Short protocol names of every registered target (GPUs, then CPUs).
pub use respec_sim::targets::TARGET_NAMES;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_prepares_all_fifteen_apps() {
        let registry = Registry::prepare(Workload::Small);
        assert_eq!(registry.names().len(), 15);
        for name in registry.names() {
            let prepared = registry.app(name).expect("registered");
            assert_eq!(prepared.app.name(), *name);
            assert_ne!(prepared.input_hash, 0);
            assert!(prepared.block_dims.iter().all(|&d| d >= 1));
        }
        assert!(registry.app("nonexistent").is_none());
    }
}
