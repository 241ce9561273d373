//! `sim_run`: the figure-regeneration path. One optimized, untuned module
//! per app, simulated on every registry target at the small size and on two
//! targets at the large size; every output checked against the sequential
//! reference. No tuner, no cache.

use std::time::Instant;

use super::{
    digest, run_rounds, set_up_repeatedly, staged, str_word, Env, KeyedLatencies, Layers, Probe,
    Tally, Timed, Traced,
};
use crate::adapter::{self, App, Module, SimSample, Size, Target, TargetKind, REGISTRY_TARGETS};
use crate::spans::{Tracer, ROOT};
use crate::stats::median;

/// Large-size apps: the five whose large run stays under a second, so the
/// size contrast costs a third of the round and not most of it.
const LARGE_APPS: [&str; 5] = ["nn", "particlefilter", "pathfinder", "backprop", "nw"];

/// Targets of the large-size runs: one GPU, one CPU.
const LARGE_TARGETS: [&str; 2] = ["a100", "cpu-server64"];

/// Apps of the smoke run.
const SMOKE_APPS: [&str; 4] = ["nn", "particlefilter", "myocyte", "pathfinder"];

struct Sized {
    app: Box<dyn App>,
    size: Size,
    reference: Vec<f64>,
    /// The GPU-shaped module and, per SIMD width seen, its CPU lowering.
    modules: Vec<(Option<u32>, Module)>,
}

struct Run {
    app: usize,
    target: usize,
    /// Simulated seconds (bit pattern) of the first run; later runs must
    /// repeat it.
    simulated_bits: Option<u64>,
}

struct Ctx {
    apps: Vec<Sized>,
    targets: Vec<Target>,
    runs: Vec<Run>,
}

fn lanes(target: &Target) -> Option<u32> {
    (target.kind() == TargetKind::Cpu).then(|| target.exec_width())
}

impl Ctx {
    fn new(env: &Env) -> Result<Ctx, String> {
        let targets: Vec<Target> = REGISTRY_TARGETS
            .iter()
            .map(|t| adapter::target(t))
            .collect();
        let mut apps = Vec::new();
        let mut runs = Vec::new();
        for size in [Size::Small, Size::Large] {
            for app in adapter::apps_with_gemm(size) {
                let wanted = match (size, env.smoke) {
                    (_, true) => size == Size::Small && SMOKE_APPS.contains(&app.name()),
                    (Size::Small, false) => true,
                    (Size::Large, false) => LARGE_APPS.contains(&app.name()),
                };
                if !wanted {
                    continue;
                }
                let mut modules: Vec<(Option<u32>, Module)> = Vec::new();
                for (t, target) in targets.iter().enumerate() {
                    if size == Size::Large && !LARGE_TARGETS.contains(&REGISTRY_TARGETS[t]) {
                        continue;
                    }
                    if !modules.iter().any(|(l, _)| *l == lanes(target)) {
                        let module = adapter::figure_module(app.as_ref(), target.as_ref())?;
                        modules.push((lanes(target), module));
                    }
                    runs.push(Run {
                        app: apps.len(),
                        target: t,
                        simulated_bits: None,
                    });
                }
                let reference = app.reference();
                apps.push(Sized {
                    app,
                    size,
                    reference,
                    modules,
                });
            }
        }
        Ok(Ctx {
            apps,
            targets,
            runs,
        })
    }

    /// One request: fresh simulator, whole app, output against the
    /// reference. Returns the latency and the sample.
    fn request(
        &mut self,
        run: usize,
        tracer: &Tracer,
        probe: &Probe,
        req: u64,
        tally: &mut Tally,
    ) -> Result<(f64, SimSample), String> {
        let r = &mut self.runs[run];
        let (sized, target) = (&self.apps[r.app], &self.targets[r.target]);
        let module = sized
            .modules
            .iter()
            .find(|(l, _)| *l == lanes(target))
            .map(|(_, m)| m)
            .expect("a module per SIMD width was built in set-up");
        let started = Instant::now();
        let root = tracer.span("req", ROOT, req);
        probe.caused_by(root.id(), req);
        let (output, sample) =
            adapter::sim_run(sized.app.as_ref(), module, target.as_ref(), probe)?;
        let correct = {
            let _span = tracer.span("bench.verify", root.id(), req);
            adapter::within_tolerance(sized.app.as_ref(), &output, &sized.reference)
        };
        drop(root);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        tally.attempted += 1;
        let what = || {
            format!(
                "{} ({}) on {}",
                sized.app.name(),
                sized.size.label(),
                target.name()
            )
        };
        if !correct {
            tally.fail(1, format!("{}: output outside tolerance", what()));
        }
        let bits = sample.simulated_s.to_bits();
        if *r.simulated_bits.get_or_insert(bits) != bits {
            tally.fail(
                1,
                format!("{}: simulated time changed between runs", what()),
            );
        }
        Ok((ms, sample))
    }

    /// One untimed run per target.
    fn warm_up(&mut self, probe: &Probe) -> Result<(), String> {
        let off = Tracer::off();
        let mut unused = Tally::default();
        for run in 0..self.targets.len() {
            self.request(run, &off, probe, 0, &mut unused)?;
        }
        Ok(())
    }
}

fn set_up(env: &Env, probe: &Probe) -> Result<Ctx, String> {
    let mut ctx = Ctx::new(env)?;
    ctx.warm_up(probe)?;
    Ok(ctx)
}

/// The timed run.
pub fn timed(env: &Env, process_start: Instant) -> Result<Timed, String> {
    let off = Tracer::off();
    let probe = Probe::new(&off);
    let repeats = if env.smoke { 1 } else { 3 };
    let (mut ctx, setups_s) =
        set_up_repeatedly(repeats, process_start, |_| set_up(env, &probe), drop)?;
    let mut tally = Tally::default();
    let mut latencies = KeyedLatencies::new(ctx.runs.len());
    run_rounds(env, ctx.runs.len(), |order| {
        for &run in order {
            let (ms, _) = ctx.request(run, &off, &probe, 0, &mut tally)?;
            latencies.observe(run, ms);
        }
        Ok(())
    })?;
    Ok(Timed {
        setups_s,
        req_per_s: latencies.req_per_s(&tally),
        latencies_ms: latencies.into_latencies(),
        // No tuner on this path: every run is the identity configuration,
        // whose speed-up over itself is 1 by definition.
        speedups: vec![1.0],
        tally,
    })
}

/// The traced run: one untraced round, one traced round, then the staged
/// replay of each module's compilation.
pub fn traced(env: &Env) -> Result<Traced, String> {
    let off = Tracer::off();
    let off_probe = Probe::new(&off);
    let mut ctx = set_up(env, &off_probe)?;
    let mut tally = Tally::default();

    let mut untraced_s = Vec::new();
    for _ in 0..if env.smoke { 1 } else { 2 } {
        let round = Instant::now();
        for run in 0..ctx.runs.len() {
            ctx.request(run, &off, &off_probe, 0, &mut tally)?;
        }
        untraced_s.push(round.elapsed().as_secs_f64());
    }

    let tracer = Tracer::on();
    let probe = Probe::new(&tracer);
    let round = Instant::now();
    let mut words = Vec::new();
    for run in 0..ctx.runs.len() {
        let (_, sample) = ctx.request(run, &tracer, &probe, run as u64 + 1, &mut tally)?;
        let r = &ctx.runs[run];
        words.extend([
            str_word(ctx.apps[r.app].app.name()),
            str_word(ctx.apps[r.app].size.label()),
            str_word(ctx.targets[r.target].name()),
            sample.simulated_s.to_bits(),
            sample.kernel_s.to_bits(),
        ]);
    }
    let traced_s = round.elapsed().as_secs_f64();

    let mut layers = Layers::default();
    layers.book_sim(&probe.samples());
    layers.set("sim.digest", digest(words));
    layers.set(
        "bench.trace_overhead_share",
        traced_s / median(&untraced_s) - 1.0,
    );

    // Staged replay of set-up's compilation: frontend and cleanup per app,
    // lowering per CPU width.
    for (i, sized) in ctx.apps.iter().enumerate() {
        let req = (ctx.runs.len() + i) as u64 + 1;
        let module = staged::stage_module(sized.app.as_ref(), &tracer, req, &mut layers)?;
        for (width, _) in &sized.modules {
            let Some(target) = ctx
                .targets
                .iter()
                .find(|t| lanes(t) == *width && width.is_some())
            else {
                continue;
            };
            let root = tracer.span("staged.cpu_lower", ROOT, req);
            for func in module.functions() {
                let mut lowered = func.clone();
                {
                    let _span = tracer.span("opt.cpu_lower", root.id(), req);
                    adapter::opt_cpu_lower(&mut lowered, target.as_ref());
                }
                layers.add(
                    "opt.ops_after_cpu_lower",
                    adapter::ir_live_ops(&lowered) as f64,
                );
            }
        }
    }

    Traced::finish(env, "sim_run", layers, &tracer, tally)
}
