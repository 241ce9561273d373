//! The benchmark's catalog: every workload and every metric it can print,
//! with unit, direction and regression bound. `BENCHMARK.json` at the
//! repository root is this table rendered as JSON (a unit test holds the two
//! together), and `compare` reads the bounds from here.

use crate::adapter::{write_f64, write_str};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A workload and the one-line reason it exists.
pub struct WorkloadDef {
    /// Name on the command line.
    pub name: &'static str,
    /// Why the benchmark has it.
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "cold_tune",
        why: "facade compile + pooled autotune with no cache: the simulator under the tuner is ~90 % of the request, so executor and engine changes show here",
    },
    WorkloadDef {
        name: "warm_rebuild",
        why: "the same requests against a pre-populated cache: frontend, opt, IR parse and cache reads are the whole request; the bypass workload for every simulator change",
    },
    WorkloadDef {
        name: "sim_run",
        why: "figure-regeneration path: one untuned variant per app on six targets at two sizes, simulator only, outputs checked against the sequential reference",
    },
    WorkloadDef {
        name: "serve_mixed",
        why: "tune requests over TCP to an in-process respec-serve: zipf app mix, one sharded store taking first-touch writes and replay reads in the same run",
    },
];

/// A metric a user of the system would see.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "req_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.2,
    },
    EndToEnd {
        name: "lat_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "lat_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "winner_speedup_geomean",
        unit: "x",
        better: Better::Higher,
        bound: 0.001,
    },
];

/// A metric of one layer, from the traced run. No bound.
pub struct PerLayer {
    /// `layer.metric`; the layer is the crate's name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, reported by every workload with tracing on (a
/// layer a workload does not cross reports zeros).
pub const PER_LAYER: [PerLayer; 68] = [
    lower("frontend.compile_s", "s"),
    lower("frontend.calls", "count"),
    higher("frontend.src_kb_per_s", "KiB/s"),
    lower("ir.verify_s", "s"),
    lower("ir.hash_s", "s"),
    lower("ir.print_s", "s"),
    lower("ir.parse_s", "s"),
    lower("ir.ops_after_frontend", "ops"),
    lower("ir.roundtrip_fail", "count"),
    lower("analyze.s", "s"),
    lower("analyze.calls", "count"),
    lower("opt.optimize_s", "s"),
    lower("opt.coarsen_s", "s"),
    lower("opt.cpu_lower_s", "s"),
    lower("opt.configs", "count"),
    lower("opt.coarsen_rejected", "count"),
    lower("opt.ops_after_optimize", "ops"),
    lower("opt.ops_after_coarsen", "ops"),
    lower("opt.ops_after_cpu_lower", "ops"),
    lower("backend.compile_s", "s"),
    lower("backend.calls", "count"),
    lower("backend.spilling", "count"),
    lower("sim.run_s", "s"),
    lower("sim.runs", "count"),
    lower("sim.launches", "count"),
    lower("sim.warp_issues", "count"),
    lower("sim.mem_sectors", "count"),
    higher("sim.issues_per_s", "1/s"),
    lower("sim.ns_per_issue", "ns"),
    lower("sim.simulated_s", "s"),
    higher("sim.l1_hit_share", "share"),
    lower("sim.digest", "hash"),
    lower("tune.wall_s", "s"),
    lower("tune.prepare_s", "s"),
    lower("tune.compile_s", "s"),
    lower("tune.measure_s", "s"),
    lower("tune.pool_overhead_s", "s"),
    higher("tune.measure_share", "share"),
    higher("tune.parallel_efficiency", "share"),
    lower("tune.candidates", "count"),
    higher("tune.pruned", "count"),
    lower("tune.runner_calls", "count"),
    higher("tune.dedup_hits", "count"),
    lower("cache.open_s", "s"),
    lower("cache.load_winner_us", "us"),
    lower("cache.load_report_us", "us"),
    lower("cache.store_s", "s"),
    higher("cache.persistent_hits", "count"),
    lower("cache.persistent_misses", "count"),
    lower("cache.invalidations", "count"),
    higher("cache.replay_share", "share"),
    lower("cache.bytes_on_disk", "bytes"),
    lower("core.compile_s", "s"),
    lower("core.autotune_s", "s"),
    lower("core.unattributed_share", "share"),
    lower("serve.start_s", "s"),
    lower("serve.ping_rtt_ms", "ms"),
    lower("serve.overhead_ms_p50", "ms"),
    lower("serve.queue_ms_p50", "ms"),
    lower("serve.tune_ms_p50", "ms"),
    lower("serve.replay_p50_ms", "ms"),
    lower("serve.cold_p50_ms", "ms"),
    higher("serve.coalesced", "count"),
    lower("serve.rejected", "count"),
    lower("serve.tunes_executed", "count"),
    lower("serve.drain_s", "s"),
    lower("bench.trace_overhead_share", "share"),
    lower("bench.peak_rss_mb", "MiB"),
];

/// How long one driver run measures, seconds.
pub const RUN_SECONDS: u64 = 20;

/// The driver's command; it appends `--workload … --seed … --seconds …
/// --trace …`.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

fn quoted(s: &str) -> String {
    let mut out = String::new();
    write_str(&mut out, s);
    out
}

/// One `"key": [ {…}, {…} ]` member, each row an object of already rendered
/// `(key, JSON value)` pairs.
fn member(out: &mut String, key: &str, rows: Vec<Vec<(&str, String)>>, last: bool) {
    out.push_str(&format!("  \"{key}\": [\n"));
    let rendered: Vec<String> = rows
        .iter()
        .map(|row| {
            let fields: Vec<String> = row.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!("    {{{}}}", fields.join(", "))
        })
        .collect();
    out.push_str(&rendered.join(",\n"));
    out.push_str(if last { "\n  ]\n" } else { "\n  ],\n" });
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn manifest() -> String {
    let command: Vec<String> = COMMAND.iter().map(|arg| quoted(arg)).collect();
    let mut out = format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n",
        command.join(", ")
    );
    let workloads = WORKLOADS
        .iter()
        .map(|w| vec![("name", quoted(w.name)), ("why", quoted(w.why))])
        .collect();
    member(&mut out, "workloads", workloads, false);
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            let mut bound = String::new();
            write_f64(&mut bound, m.bound);
            vec![
                ("name", quoted(m.name)),
                ("unit", quoted(m.unit)),
                ("better", quoted(m.better.label())),
                ("bound", bound),
            ]
        })
        .collect();
    member(&mut out, "end_to_end", end_to_end, false);
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            vec![
                ("name", quoted(m.name)),
                ("unit", quoted(m.unit)),
                ("better", quoted(m.better.label())),
            ]
        })
        .collect();
    member(&mut out, "per_layer", per_layer, true);
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Json;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn catalog_obeys_the_manifest_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(valid_name(name), "bad name {name:?}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_unit(m.unit), "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, largest, "set-up carries the largest bound");
        assert!(manifest().len() <= 64 * 1024);
    }

    /// Every workload and metric in `BENCHMARK.json` is one the harness
    /// emits, with the same unit, direction and bound — and vice versa.
    #[test]
    fn benchmark_json_is_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        let rendered = Json::parse(&manifest()).expect("rendered manifest parses");
        assert_eq!(
            on_disk, rendered,
            "BENCHMARK.json drifted from benchmark/src/metrics.rs; regenerate it \
             with `cargo run --release -- manifest > ../BENCHMARK.json`"
        );
        let keys: Vec<&str> = match &on_disk {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("BENCHMARK.json is not an object"),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
