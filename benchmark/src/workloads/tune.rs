//! `cold_tune` and `warm_rebuild`: the facade's compile + pooled autotune,
//! one caller, over every app × two targets — without a cache, and against
//! a store that set-up populated by cold-tuning every key once.

use std::path::PathBuf;
use std::time::Instant;

use super::staged::{self, Winner};
use super::{
    digest, par_map, run_rounds, set_up_repeatedly, str_word, Env, KeyedLatencies, Layers, Probe,
    Tally, Timed, Traced, TOTALS,
};
use crate::adapter::{self, App, Cache, Compiled, Module, Size, Target, TuneResult};
use crate::spans::{Tracer, ROOT};
use crate::stats::median;

/// The data-centre GPU and the large CPU. Two targets, not three: 32 keys
/// make a 5 s round, so a 20 s run sees every key four times, and the
/// fastest of four observations is what keeps the latencies steady.
const TARGETS: [&str; 2] = ["a100", "cpu-server64"];

/// Apps of the smoke run: the four cheapest to tune.
const SMOKE_APPS: [&str; 4] = ["nn", "particlefilter", "myocyte", "pathfinder"];

/// Which of the two workloads runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No cache: every request is a full search.
    Cold,
    /// `.with_cache(dir)` against a populated store.
    Warm,
}

/// The first answer a run got for a key.
struct Answer {
    winner_hash: u64,
    /// The module with the winner installed, for the output check.
    module: Module,
    /// The search result: winner, timing, candidates.
    result: TuneResult,
}

struct Key {
    app: usize,
    target: usize,
    /// Simulated seconds of the identity configuration, from the first full
    /// search seen for the key.
    identity_s: Option<f64>,
    /// Winner timing (bit pattern) and configuration of the first answer
    /// ever seen, set-up included: every later answer must repeat it, which
    /// is also the cold ≡ warm check.
    expected: Option<(u64, String)>,
    answer: Option<Answer>,
    requests: u64,
}

struct Ctx {
    apps: Vec<Box<dyn App>>,
    references: Vec<Vec<f64>>,
    targets: Vec<Target>,
    keys: Vec<Key>,
    cache_dir: Option<PathBuf>,
    workers: usize,
}

/// Adds one request's engine counters and phase timings to `tune.*` and
/// `cache.*`.
fn book_engine(layers: &mut Layers, result: &TuneResult) {
    let (t, s) = (&result.timings, &result.stats);
    for (name, by) in [
        ("tune.wall_s", t.wall_seconds),
        ("tune.prepare_s", t.prepare_seconds),
        ("tune.compile_s", t.compile_seconds),
        ("tune.measure_s", t.measure_seconds),
        ("tune.pool_overhead_s", t.pool_overhead_seconds),
        ("tune.candidates", result.candidates.len() as f64),
        ("tune.pruned", s.pruned as f64),
        ("tune.runner_calls", s.runner_calls as f64),
        ("tune.dedup_hits", s.cache_hits as f64),
        ("cache.persistent_hits", s.persistent_hits as f64),
        ("cache.persistent_misses", s.persistent_misses as f64),
        ("cache.invalidations", s.invalidations as f64),
    ] {
        layers.add(name, by);
    }
}

/// The ratios that follow from the summed phase timings.
fn book_engine_ratios(layers: &mut Layers, workers: usize) {
    let busy =
        layers.get("tune.prepare_s") + layers.get("tune.compile_s") + layers.get("tune.measure_s");
    if busy > 0.0 {
        layers.set("tune.measure_share", layers.get("tune.measure_s") / busy);
    }
    let wall = layers.get("tune.wall_s");
    if wall > 0.0 {
        layers.set("tune.parallel_efficiency", busy / (workers as f64 * wall));
    }
}

impl Ctx {
    /// Everything before the first request: apps, references, targets, keys.
    fn new(env: &Env, mode: Mode, store: &str) -> Ctx {
        let mut apps = adapter::apps_with_gemm(Size::Small);
        if env.smoke {
            apps.retain(|a| SMOKE_APPS.contains(&a.name()));
        }
        let references = apps.iter().map(|a| a.reference()).collect();
        let targets: Vec<Target> = TARGETS.iter().map(|t| adapter::target(t)).collect();
        let keys = (0..apps.len())
            .flat_map(|app| (0..targets.len()).map(move |target| (app, target)))
            .map(|(app, target)| Key {
                app,
                target,
                identity_s: None,
                expected: None,
                answer: None,
                requests: 0,
            })
            .collect();
        Ctx {
            apps,
            references,
            targets,
            keys,
            cache_dir: (mode == Mode::Warm).then(|| env.scratch.join(store)),
            workers: env.nproc,
        }
    }

    /// One request: `Compiler…compile()` then `autotune_pooled` of the main
    /// kernel. Returns the client-side latency and the artifacts.
    fn request(
        &self,
        key: usize,
        tracer: &Tracer,
        probe: &Probe,
        req: u64,
    ) -> Result<(f64, Compiled, TuneResult), String> {
        let k = &self.keys[key];
        let (app, target) = (self.apps[k.app].as_ref(), &self.targets[k.target]);
        let started = Instant::now();
        let root = tracer.span("req", ROOT, req);
        let mut compiled = {
            let _span = tracer.span("core.compile", root.id(), req);
            adapter::core_compile(app, target, self.cache_dir.as_deref())?
        };
        let result = {
            let span = tracer.span("core.autotune", root.id(), req);
            probe.caused_by(span.id(), req);
            let base = compiled.module.clone();
            adapter::core_autotune(&mut compiled, app, self.workers, &TOTALS, || {
                adapter::measure_runner(app, &base, target.as_ref(), probe)
            })?
        };
        drop(root);
        Ok((started.elapsed().as_secs_f64() * 1e3, compiled, result))
    }

    /// Books one answer against its key: it must repeat the first answer
    /// ever seen bit for bit, and the run's first is kept for the checks.
    fn book(&mut self, key: usize, compiled: Compiled, result: TuneResult, tally: &mut Tally) {
        let k = &mut self.keys[key];
        k.requests += 1;
        tally.attempted += 1;
        if k.identity_s.is_none() {
            k.identity_s = result
                .candidates
                .iter()
                .find(|c| c.config.is_identity())
                .and_then(|c| c.seconds);
        }
        let got = (
            result.best_seconds.to_bits(),
            result.best_config.to_string(),
        );
        match &k.expected {
            None => k.expected = Some(got),
            Some(first) if *first != got => {
                let name = self.apps[k.app].name();
                tally.fail(1, format!("{name}: winner changed between requests"));
            }
            Some(_) => {}
        }
        if k.answer.is_none() {
            k.answer = Some(Answer {
                winner_hash: adapter::ir_hash(&result.best),
                module: compiled.module,
                result,
            });
        }
    }

    /// One untimed request per target, so lazy initialisation is paid
    /// before timing starts.
    fn warm_up(&self, probe: &Probe) -> Result<(), String> {
        let off = Tracer::off();
        for key in 0..self.targets.len() {
            self.request(key, &off, probe, 0)?;
        }
        Ok(())
    }

    /// Cold-tunes every key once into the store (`warm_rebuild`'s set-up).
    fn populate(&mut self, probe: &Probe) -> Result<(), String> {
        let off = Tracer::off();
        let mut unused = Tally::default();
        for key in 0..self.keys.len() {
            let (_, compiled, result) = self.request(key, &off, probe, 0)?;
            self.book(key, compiled, result, &mut unused);
            // The output check is for the replayed winner, not this one.
            self.keys[key].answer = None;
            self.keys[key].requests = 0;
        }
        Ok(())
    }

    /// Re-runs every key's winner once, untimed, and checks the app's output
    /// against its sequential reference; a wrong winner fails every request
    /// that returned it.
    fn verify_winners(&self, tally: &mut Tally) {
        let off = Tracer::off();
        let probe = Probe::new(&off);
        let correct = par_map(self.workers, self.keys.len(), |key| {
            let k = &self.keys[key];
            let Some(answer) = &k.answer else { return true };
            let (app, target) = (self.apps[k.app].as_ref(), &self.targets[k.target]);
            adapter::sim_run(app, &answer.module, target.as_ref(), &probe)
                .is_ok_and(|(out, _)| adapter::within_tolerance(app, &out, &self.references[k.app]))
        });
        for (k, _) in self.keys.iter().zip(correct).filter(|(_, ok)| !ok) {
            let (app, target) = (self.apps[k.app].name(), self.targets[k.target].name());
            tally.fail(
                k.requests,
                format!("{app} on {target}: winner fails the reference check"),
            );
        }
    }

    /// Identity / winner simulated seconds, per key in key order.
    fn speedups(&self) -> Vec<f64> {
        self.keys
            .iter()
            .filter_map(|k| Some(k.identity_s? / k.answer.as_ref()?.result.best_seconds))
            .collect()
    }
}

fn set_up(env: &Env, mode: Mode, store: &str, probe: &Probe) -> Result<Ctx, String> {
    let mut ctx = Ctx::new(env, mode, store);
    if mode == Mode::Warm {
        ctx.populate(probe)?;
    }
    ctx.warm_up(probe)?;
    Ok(ctx)
}

/// The timed run.
pub fn timed(env: &Env, mode: Mode, process_start: Instant) -> Result<Timed, String> {
    let off = Tracer::off();
    let probe = Probe::new(&off);
    // Set-up is repeated and its median reported, except that the store is
    // populated once: 32 cold tunes are seconds of CPU-bound work, steadier
    // than any median of short set-ups, and too dear to repeat.
    let repeats = if mode == Mode::Cold && !env.smoke {
        3
    } else {
        1
    };
    let (mut ctx, setups_s) = set_up_repeatedly(
        repeats,
        process_start,
        |i| set_up(env, mode, &format!("store-{i}"), &probe),
        drop,
    )?;
    let mut tally = Tally::default();
    let mut latencies = KeyedLatencies::new(ctx.keys.len());
    run_rounds(env, ctx.keys.len(), |order| {
        for &key in order {
            let (ms, compiled, result) = ctx.request(key, &off, &probe, 0)?;
            latencies.observe(key, ms);
            ctx.book(key, compiled, result, &mut tally);
        }
        Ok(())
    })?;
    ctx.verify_winners(&mut tally);
    Ok(Timed {
        setups_s,
        req_per_s: latencies.req_per_s(&tally),
        latencies_ms: latencies.into_latencies(),
        speedups: ctx.speedups(),
        tally,
    })
}

/// The traced run: untraced rounds for the overhead base, one traced round,
/// then the staged replay of every key.
pub fn traced(env: &Env, mode: Mode, name: &str) -> Result<Traced, String> {
    let off = Tracer::off();
    let off_probe = Probe::new(&off);
    let mut ctx = set_up(env, mode, "store", &off_probe)?;
    let mut tally = Tally::default();

    // Untraced rounds first: their median wall is what the traced round's
    // wall is compared with.
    let mut untraced_s = Vec::new();
    let budget = Instant::now();
    while untraced_s.is_empty()
        || (untraced_s.len() < 3 && budget.elapsed().as_secs_f64() < env.seconds * 0.3)
    {
        let round = Instant::now();
        for key in 0..ctx.keys.len() {
            let (_, compiled, result) = ctx.request(key, &off, &off_probe, 0)?;
            ctx.book(key, compiled, result, &mut tally);
        }
        untraced_s.push(round.elapsed().as_secs_f64());
    }

    let tracer = Tracer::on();
    let probe = Probe::new(&tracer);
    let mut layers = Layers::default();
    // Requests that never called a runner, of those whose key was stored.
    let mut replays = 0u32;
    let round = Instant::now();
    for key in 0..ctx.keys.len() {
        let (_, compiled, result) = ctx.request(key, &tracer, &probe, key as u64 + 1)?;
        book_engine(&mut layers, &result);
        replays += u32::from(result.stats.runner_calls == 0);
        ctx.book(key, compiled, result, &mut tally);
    }
    let traced_s = round.elapsed().as_secs_f64();
    ctx.verify_winners(&mut tally);

    book_engine_ratios(&mut layers, ctx.workers);
    if mode == Mode::Warm {
        let stored = ctx.keys.len() as f64;
        layers.set("cache.replay_share", f64::from(replays) / stored);
    }
    layers.book_sim(&probe.samples());
    layers.set(
        "bench.trace_overhead_share",
        traced_s / median(&untraced_s) - 1.0,
    );
    layers.set("sim.digest", winners_digest(&ctx));

    // Staged replay: the same keys, layer by layer.
    let cache = {
        let _span = tracer.span("cache.open", ROOT, 0);
        Cache::open(&env.scratch.join("staged-store"))?
    };
    for (i, k) in ctx.keys.iter().enumerate() {
        let req = (ctx.keys.len() + i) as u64 + 1;
        let winner = k.answer.as_ref().map(|a| Winner {
            version: &a.result.best,
            config: a.result.best_config,
            seconds: a.result.best_seconds,
        });
        staged::stage_key(
            ctx.apps[k.app].as_ref(),
            ctx.targets[k.target].as_ref(),
            winner.as_ref(),
            &cache,
            &tracer,
            req,
            &mut layers,
        )?;
    }
    let store = match &ctx.cache_dir {
        Some(dir) => Cache::open(dir)?,
        None => cache,
    };
    layers.set("cache.bytes_on_disk", store.bytes_on_disk() as f64);
    Traced::finish(env, name, layers, &tracer, tally)
}

/// Hash of every key's candidate timings (bit patterns) and winner.
fn winners_digest(ctx: &Ctx) -> f64 {
    let words = ctx.keys.iter().flat_map(|k| {
        let answer = k.answer.as_ref();
        let mut words = vec![
            str_word(ctx.apps[k.app].name()),
            str_word(ctx.targets[k.target].name()),
        ];
        if let Some(a) = answer {
            words.extend([
                a.result.best_seconds.to_bits(),
                str_word(&a.result.best_config.to_string()),
                a.winner_hash,
            ]);
            for c in &a.result.candidates {
                words.push(str_word(&c.config.to_string()));
                words.push(c.seconds.map_or(0, f64::to_bits));
            }
        }
        words
    });
    digest(words)
}
