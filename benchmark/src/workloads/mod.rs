//! The four workloads and what they share: the run environment, the probe
//! that observes simulated runs, request-order generation, and the result
//! shapes `main` turns into metrics.

pub mod serve_mixed;
pub mod sim_run;
pub mod staged;
pub mod tune;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::adapter::{SimProbe, SimSample};
use crate::metrics::PER_LAYER;
use crate::spans::{totals_by_name, Tracer, ROOT};
use crate::stats::{stable_sum, Rng};

/// Coarsening totals every tune request explores (Combined strategy: nine
/// candidates). One step shorter than the daemon's default ladder, which
/// would make a round of cold tunes as long as a whole run; factor 4 is
/// kept because that is where spill pruning starts to fire.
pub const TOTALS: [i64; 3] = [1, 2, 4];

/// What a run was asked to do.
pub struct Env {
    /// Cores available, read at run time; every client and worker count
    /// derives from it.
    pub nproc: usize,
    /// Seed of the request order.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// One short round over a reduced request list.
    pub smoke: bool,
    /// This process's scratch directory (cache stores), removed on exit.
    pub scratch: PathBuf,
    /// Where span files go.
    pub out_dir: PathBuf,
}

/// Result of a timed (untraced) run.
pub struct Timed {
    /// Seconds of each set-up performed, process start to first timed request.
    pub setups_s: Vec<f64>,
    /// Requests answered per second, failures not counted.
    pub req_per_s: f64,
    /// The latency distribution the percentiles are read from.
    pub latencies_ms: Vec<f64>,
    /// Identity / winner simulated seconds per key, in key order.
    pub speedups: Vec<f64>,
    /// Requests and checks.
    pub tally: Tally,
}

/// Latencies of a workload made of rounds: every round sends each request
/// key once, so a key is observed once per round.
///
/// The reference box has slow phases — tens of seconds long, up to 10 %
/// deep — that a 20 s run can sit in for most of its length. A pooled
/// percentile or a wall-clock rate moves with them; each key's fastest
/// observation moves only if every round was disturbed. So the run reports
/// the distribution over keys of that fastest observation, and the rate of
/// a round in which every request took its fastest time. The work per round
/// is fixed, so nothing but disturbance is filtered out.
pub struct KeyedLatencies {
    fastest_ms: Vec<f64>,
}

impl KeyedLatencies {
    /// For `keys` request keys.
    pub fn new(keys: usize) -> KeyedLatencies {
        KeyedLatencies {
            fastest_ms: vec![f64::INFINITY; keys],
        }
    }

    /// Books one observation of a key.
    pub fn observe(&mut self, key: usize, ms: f64) {
        self.fastest_ms[key] = self.fastest_ms[key].min(ms);
    }

    /// Keys answered per second when each takes its fastest time, scaled by
    /// the share of requests that passed their checks.
    pub fn req_per_s(&self, tally: &Tally) -> f64 {
        let passed = (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64;
        self.fastest_ms.len() as f64 / (self.fastest_ms.iter().sum::<f64>() / 1e3) * passed
    }

    /// Each key's fastest observation.
    pub fn into_latencies(self) -> Vec<f64> {
        self.fastest_ms
    }
}

/// Result of a traced run: the per-layer metrics by name.
pub struct Traced {
    /// Every per-layer metric the workload could measure.
    pub layers: BTreeMap<&'static str, f64>,
    /// Requests and checks of the traced round.
    pub tally: Tally,
}

impl Traced {
    /// Finishes the per-layer table and writes the spans as a Chrome trace
    /// to `out/trace-<workload>.json`.
    pub fn finish(
        env: &Env,
        workload: &str,
        layers: Layers,
        tracer: &Tracer,
        tally: Tally,
    ) -> Result<Traced, String> {
        let path = env.out_dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, tracer.chrome_trace())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(Traced {
            layers: layers.finish(tracer),
            tally,
        })
    }
}

/// Requests attempted and failed, with the first few reasons.
#[derive(Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed any check.
    pub failed: u64,
    /// Why, for the log.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Books `count` failed requests with one reason.
    pub fn fail(&mut self, count: u64, reason: String) {
        self.failed += count;
        if self.reasons.len() < 8 {
            self.reasons.push(reason);
        }
    }
}

/// Sets up `repeats` times and keeps the last context: `setup_s` is the
/// median of the returned seconds, the first of which counts from process
/// start. Earlier contexts go to `retire`.
pub fn set_up_repeatedly<C>(
    repeats: usize,
    process_start: Instant,
    mut set_up: impl FnMut(usize) -> Result<C, String>,
    mut retire: impl FnMut(C),
) -> Result<(C, Vec<f64>), String> {
    let mut setups_s = Vec::with_capacity(repeats);
    let mut started = process_start;
    let mut kept = None;
    for i in 0..repeats.max(1) {
        let ctx = set_up(i)?;
        setups_s.push(started.elapsed().as_secs_f64());
        if let Some(earlier) = kept.replace(ctx) {
            retire(earlier);
        }
        started = Instant::now();
    }
    Ok((kept.expect("at least one set-up"), setups_s))
}

/// Runs whole rounds until the next one would overshoot `seconds` by more
/// than stopping now undershoots it (one round in smoke mode). `round` gets
/// a freshly shuffled order over `len` requests each time.
pub fn run_rounds(
    env: &Env,
    len: usize,
    mut round: impl FnMut(&[usize]) -> Result<(), String>,
) -> Result<(), String> {
    let mut rng = Rng::new(env.seed);
    let started = Instant::now();
    let mut rounds = 0u32;
    loop {
        let mut order: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut order);
        round(&order)?;
        rounds += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if env.smoke || elapsed + elapsed / f64::from(rounds) / 2.0 >= env.seconds {
            eprintln!("{rounds} round(s) of {len} requests in {elapsed:.2} s");
            return Ok(());
        }
    }
}

/// `f(0..n)` on up to `threads` threads, results in index order. For the
/// untimed checks after a run, which would otherwise idle all cores but one.
pub fn par_map<T: Send>(threads: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                slots.lock().expect("slot lock")[i] = Some(value);
            });
        }
    });
    let slots = slots.into_inner().expect("slot lock");
    slots
        .into_iter()
        .map(|s| s.expect("every index was computed"))
        .collect()
}

/// Observes simulated app runs: a `sim.run` span plus the run's sample when
/// the tracer records, a plain pass-through when it does not.
pub struct Probe<'a> {
    tracer: &'a Tracer,
    parent: AtomicU64,
    req: AtomicU64,
    samples: Mutex<Vec<SimSample>>,
}

impl<'a> Probe<'a> {
    /// A probe recording into `tracer`.
    pub fn new(tracer: &'a Tracer) -> Probe<'a> {
        Probe {
            tracer,
            parent: AtomicU64::new(ROOT),
            req: AtomicU64::new(0),
            samples: Mutex::new(Vec::new()),
        }
    }

    /// Names the span (and request) that the next runs are caused by. One
    /// caller at a time issues requests, so one slot is enough.
    pub fn caused_by(&self, parent: u64, req: u64) {
        self.parent.store(parent, Ordering::SeqCst);
        self.req.store(req, Ordering::SeqCst);
    }

    /// Samples of every run observed while recording.
    pub fn samples(&self) -> Vec<SimSample> {
        self.samples.lock().expect("probe lock").clone()
    }
}

impl SimProbe for Probe<'_> {
    fn observe(
        &self,
        run: &mut dyn FnMut() -> Result<SimSample, String>,
    ) -> Result<SimSample, String> {
        if !self.tracer.is_on() {
            return run();
        }
        let mut span = self.tracer.span(
            "sim.run",
            self.parent.load(Ordering::SeqCst),
            self.req.load(Ordering::SeqCst),
        );
        let sample = run()?;
        span.record("warp_issues", sample.warp_issues as f64);
        span.record("launches", sample.launches as f64);
        drop(span);
        self.samples.lock().expect("probe lock").push(sample);
        Ok(sample)
    }
}

fn fnv1a(seed: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(seed, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the given words (callers feed them in key order, so the
/// digest does not depend on the seed), truncated to 52 bits so it survives
/// a trip through a JSON number. The harness's own hash, so that a change of
/// the program's hashing cannot move it.
pub fn digest(words: impl IntoIterator<Item = u64>) -> f64 {
    let h = words
        .into_iter()
        .fold(FNV_OFFSET, |h, word| fnv1a(h, word.to_le_bytes()));
    (h >> 12) as f64
}

/// FNV-1a of a string, for folding names and configs into [`digest`].
pub fn str_word(s: &str) -> u64 {
    fnv1a(FNV_OFFSET, s.bytes())
}

/// Per-layer metrics under construction: direct counts and values, plus the
/// span-derived times filled in by [`Layers::finish`].
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

/// Source bytes the frontend read: the numerator of `frontend.src_kb_per_s`,
/// not a metric itself.
pub const SRC_BYTES: &str = "frontend.src_bytes";

impl Layers {
    /// A misspelt metric name would silently report 0; the smoke run in
    /// `check.sh` trips this instead.
    fn check(name: &str) {
        assert!(
            name == SRC_BYTES || PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not in the per-layer catalog"
        );
    }

    /// Adds to a count.
    pub fn add(&mut self, name: &'static str, by: f64) {
        Self::check(name);
        *self.values.entry(name).or_insert(0.0) += by;
    }

    /// Sets a value.
    pub fn set(&mut self, name: &'static str, to: f64) {
        Self::check(name);
        self.values.insert(name, to);
    }

    /// A value set so far (0 if none).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Books the `sim.*` counts of the observed runs.
    pub fn book_sim(&mut self, samples: &[SimSample]) {
        let sum = |f: fn(&SimSample) -> u64| samples.iter().map(f).sum::<u64>() as f64;
        let reads = sum(|s| s.read_sectors);
        self.set("sim.launches", sum(|s| s.launches));
        self.set("sim.warp_issues", sum(|s| s.warp_issues));
        self.set("sim.mem_sectors", reads + sum(|s| s.write_sectors));
        let simulated: Vec<f64> = samples.iter().map(|s| s.simulated_s).collect();
        self.set("sim.simulated_s", stable_sum(&simulated));
        if reads > 0.0 {
            self.set("sim.l1_hit_share", sum(|s| s.l1_read_hits) / reads);
        }
    }

    /// Fills every time that is a sum over spans of one name, and the
    /// ratios that follow from them, then returns the finished table.
    pub fn finish(mut self, tracer: &Tracer) -> BTreeMap<&'static str, f64> {
        let records = tracer.records();
        let totals = totals_by_name(&records);
        let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s);
        let count = |name: &str| totals.get(name).map_or(0.0, |t| t.count as f64);
        let mean_us = |name: &str| {
            if count(name) > 0.0 {
                total(name) / count(name) * 1e6
            } else {
                0.0
            }
        };
        for (metric, span) in [
            ("frontend.compile_s", "frontend.compile"),
            ("ir.verify_s", "ir.verify"),
            ("ir.hash_s", "ir.hash"),
            ("ir.print_s", "ir.print"),
            ("ir.parse_s", "ir.parse"),
            ("analyze.s", "analyze.function"),
            ("opt.optimize_s", "opt.optimize"),
            ("opt.coarsen_s", "opt.coarsen"),
            ("opt.cpu_lower_s", "opt.cpu_lower"),
            ("backend.compile_s", "backend.compile"),
            ("sim.run_s", "sim.run"),
            ("cache.open_s", "cache.open"),
            ("core.compile_s", "core.compile"),
            ("core.autotune_s", "core.autotune"),
            ("serve.start_s", "serve.start"),
            ("serve.drain_s", "serve.drain"),
        ] {
            self.set(metric, total(span));
        }
        self.set("frontend.calls", count("frontend.compile"));
        self.set("analyze.calls", count("analyze.function"));
        self.set("backend.calls", count("backend.compile"));
        if self.get("sim.runs") == 0.0 {
            self.set("sim.runs", count("sim.run"));
        }
        self.set(
            "cache.store_s",
            total("cache.store_report") + total("cache.store_winner"),
        );
        self.set("cache.load_report_us", mean_us("cache.load_report"));
        self.set("cache.load_winner_us", mean_us("cache.load_winner"));
        if total("frontend.compile") > 0.0 {
            let kib = self.get(SRC_BYTES) / 1024.0;
            self.set("frontend.src_kb_per_s", kib / total("frontend.compile"));
        }
        self.values.remove(SRC_BYTES);
        let (run_s, issues) = (total("sim.run"), self.get("sim.warp_issues"));
        if run_s > 0.0 && issues > 0.0 {
            self.set("sim.issues_per_s", issues / run_s);
            self.set("sim.ns_per_issue", run_s * 1e9 / issues);
        }
        if let Some(req) = totals.get("req") {
            if req.total_s > 0.0 {
                self.set("core.unattributed_share", req.self_s / req.total_s);
            }
        }
        self.values
    }
}
