//! Staged replay: drives the same public functions a tune request crosses,
//! in pipeline order, one span per call. The real requests only expose
//! `core.compile` and `core.autotune` from outside; this splits what is
//! inside them into `frontend.*`, `ir.*`, `analyze.*`, `opt.*`, `backend.*`
//! and `cache.*` without touching the program.

use std::collections::BTreeSet;

use super::{Layers, SRC_BYTES, TOTALS};
use crate::adapter::{
    self, App, BackendReport, Cache, CacheKey, CoarsenConfig, Function, Module, TargetKind,
    TargetModel,
};
use crate::spans::{Tracer, ROOT};

/// One candidate version as the engine's prepare stage would build it.
struct Prepared {
    config: CoarsenConfig,
    /// Structural hash of the prepared IR.
    hash: u64,
    /// The governing backend report (absent for a duplicate of an earlier
    /// candidate's IR, which the engine does not compile again).
    report: Option<BackendReport>,
}

/// The engine's prepare step for one configuration: coarsen, clean up, and
/// for CPU targets lower — the version that gets hashed, compiled and run.
pub fn prepare_version(
    func: &Function,
    config: CoarsenConfig,
    target: &dyn TargetModel,
    tracer: &Tracer,
    (parent, req): (u64, u64),
    layers: &mut Layers,
) -> Result<Function, String> {
    let mut version = func.clone();
    if !config.is_identity() {
        let _span = tracer.span("opt.coarsen", parent, req);
        adapter::opt_coarsen(&mut version, config)?;
    }
    layers.add(
        "opt.ops_after_coarsen",
        adapter::ir_live_ops(&version) as f64,
    );
    {
        let _span = tracer.span("opt.optimize", parent, req);
        adapter::opt_optimize(&mut version);
    }
    if target.kind() == TargetKind::Cpu {
        {
            let _span = tracer.span("opt.cpu_lower", parent, req);
            adapter::opt_cpu_lower(&mut version, target);
        }
        layers.add(
            "opt.ops_after_cpu_lower",
            adapter::ir_live_ops(&version) as f64,
        );
    }
    Ok(version)
}

/// `Compiler::compile` taken apart: frontend, then per kernel the analysis
/// gate, the cleanup pipeline, the gate again and the verifier.
pub fn stage_module(
    app: &dyn App,
    tracer: &Tracer,
    req: u64,
    layers: &mut Layers,
) -> Result<Module, String> {
    let root = tracer.span("staged.module", ROOT, req);
    let parent = root.id();
    let mut module = {
        let _span = tracer.span("frontend.compile", parent, req);
        adapter::frontend_compile(app)?
    };
    layers.add(SRC_BYTES, app.source().len() as f64);
    for func in module.functions_mut() {
        layers.add("ir.ops_after_frontend", adapter::ir_live_ops(func) as f64);
        {
            let _span = tracer.span("analyze.function", parent, req);
            adapter::analyze(func);
        }
        {
            let _span = tracer.span("opt.optimize", parent, req);
            adapter::opt_optimize(func);
        }
        {
            let _span = tracer.span("analyze.function", parent, req);
            adapter::analyze(func);
        }
        {
            let _span = tracer.span("ir.verify", parent, req);
            adapter::ir_verify(func)?;
        }
        layers.add("opt.ops_after_optimize", adapter::ir_live_ops(func) as f64);
    }
    Ok(module)
}

/// The engine's prepare and compile phases taken apart, for every candidate
/// of the kernel on the target.
fn stage_candidates(
    func: &Function,
    target: &dyn TargetModel,
    tracer: &Tracer,
    req: u64,
    layers: &mut Layers,
) -> Result<Vec<Prepared>, String> {
    let root = tracer.span("staged.candidates", ROOT, req);
    let ids = (root.id(), req);
    {
        let _span = tracer.span("analyze.function", ids.0, req);
        adapter::analyze(func);
    }
    let configs = adapter::candidate_configs(func, &TOTALS)?;
    layers.add("opt.configs", configs.len() as f64);
    let mut seen = BTreeSet::new();
    let mut prepared = Vec::new();
    for config in configs {
        let Ok(version) = prepare_version(func, config, target, tracer, ids, layers) else {
            layers.add("opt.coarsen_rejected", 1.0);
            continue;
        };
        let Ok(launches) = adapter::ir_launches(&version) else {
            layers.add("opt.coarsen_rejected", 1.0);
            continue;
        };
        {
            let _span = tracer.span("analyze.function", ids.0, req);
            adapter::analyze(&version);
        }
        let hash = {
            let _span = tracer.span("ir.hash", ids.0, req);
            adapter::ir_hash(&version)
        };
        let mut report: Option<BackendReport> = None;
        if seen.insert(hash) {
            for launch in &launches {
                let _span = tracer.span("backend.compile", ids.0, req);
                let r = adapter::backend_compile(&version, launch, target)?;
                if report
                    .as_ref()
                    .is_none_or(|g| r.spill_units > g.spill_units)
                {
                    report = Some(r);
                }
            }
            if report.as_ref().is_some_and(|r| r.spill_units > 0) {
                layers.add("backend.spilling", 1.0);
            }
        }
        prepared.push(Prepared {
            config,
            hash,
            report,
        });
    }
    Ok(prepared)
}

/// The whole staged replay of one tune request key: module, candidates and,
/// when the real request produced a winner, the cache traffic.
pub fn stage_key(
    app: &dyn App,
    target: &dyn TargetModel,
    winner: Option<&Winner>,
    cache: &Cache,
    tracer: &Tracer,
    req: u64,
    layers: &mut Layers,
) -> Result<(), String> {
    let module = stage_module(app, tracer, req, layers)?;
    let func = module
        .function(app.main_kernel())
        .ok_or_else(|| format!("{}: main kernel missing", app.name()))?;
    let prepared = stage_candidates(func, target, tracer, req, layers)?;
    let Some(winner) = winner else { return Ok(()) };
    let configs: Vec<CoarsenConfig> = prepared.iter().map(|p| p.config).collect();
    let key = CacheKey::of(func, target, &configs);
    stage_cache(cache, &key, &prepared, winner, tracer, req, layers)
}

/// A search's winner, as the engine would persist it.
pub struct Winner<'a> {
    /// The winning version.
    pub version: &'a Function,
    /// Its configuration.
    pub config: CoarsenConfig,
    /// Its simulated seconds.
    pub seconds: f64,
}

/// The engine's cache traffic taken apart: every fresh report stored and
/// read back, the winner printed, stored, read back and parsed.
fn stage_cache(
    cache: &Cache,
    key: &CacheKey,
    prepared: &[Prepared],
    winner: &Winner,
    tracer: &Tracer,
    req: u64,
    layers: &mut Layers,
) -> Result<(), String> {
    let root = tracer.span("staged.cache", ROOT, req);
    let parent = root.id();
    for p in prepared {
        let Some(report) = &p.report else { continue };
        {
            let _span = tracer.span("cache.store_report", parent, req);
            cache.store_report(key, p.hash, report)?;
        }
        let _span = tracer.span("cache.load_report", parent, req);
        if !cache.load_report(key, p.hash) {
            return Err(format!("report {:016x} did not read back", p.hash));
        }
    }
    let text = {
        let _span = tracer.span("ir.print", parent, req);
        adapter::ir_print(winner.version)
    };
    {
        let _span = tracer.span("cache.store_winner", parent, req);
        cache.store_winner(key, winner.config, winner.seconds, 32, text)?;
    }
    let stored = {
        let _span = tracer.span("cache.load_winner", parent, req);
        cache.load_winner(key)
    };
    let parsed = stored.and_then(|text| {
        let _span = tracer.span("ir.parse", parent, req);
        adapter::ir_parse(&text).ok()
    });
    let round_trips =
        parsed.is_some_and(|f| adapter::ir_hash(&f) == adapter::ir_hash(winner.version));
    if !round_trips {
        layers.add("ir.roundtrip_fail", 1.0);
    }
    Ok(())
}
