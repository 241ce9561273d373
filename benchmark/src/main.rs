//! The respec benchmark: one harness, four closed-loop workloads, end-to-end
//! metrics from timed runs and per-layer metrics from traced runs.
//!
//! ```text
//! respec-benchmark                      all four workloads, each in a fresh
//!     [--seed N] [--seconds S]          process; prints every end-to-end
//!     [--repeats K] [--traced]          metric by name and unit (and with
//!     [--smoke] [--out FILE]            --traced every per-layer metric)
//! respec-benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]
//!                                       one run; last stdout line is the
//!                                       result object
//! respec-benchmark compare A.json B.json
//! respec-benchmark manifest             BENCHMARK.json from the catalog
//! ```

mod adapter;
mod compare;
mod metrics;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use adapter::{write_f64, write_str, Json};
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use stats::{geomean, median, percentile, samples_beyond, MIN_TAIL_SAMPLES};
use workloads::tune::Mode;
use workloads::{serve_mixed, sim_run, tune, Env, Tally, Timed};

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeats: u64,
    traced: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    "usage: respec-benchmark [--workload W --trace 0|1] [--seed N] [--seconds S] [--smoke] \
     [--repeats K] [--traced] [--out FILE] | compare A.json B.json | manifest"
        .to_string()
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opt = Options {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        repeats: 1,
        traced: false,
        out: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => opt.workload = Some(value()?.clone()),
            "--seed" => opt.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => opt.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--repeats" => opt.repeats = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                opt.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => opt.out = Some(value()?.into()),
            "--smoke" => opt.smoke = true,
            "--traced" => opt.traced = true,
            _ => return Err(usage()),
        }
    }
    if !(opt.seconds > 0.0 && opt.seconds.is_finite()) || opt.repeats == 0 {
        return Err("--seconds and --repeats must be positive".to_string());
    }
    Ok(opt)
}

/// The package directory: where `out/` lives.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The end-to-end metrics of a timed run, by name.
fn end_to_end_metrics(name: &str, timed: &Timed) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut sorted = timed.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() || timed.speedups.is_empty() {
        return Err("the run completed no request".to_string());
    }
    let n = sorted.len();
    let mut m = BTreeMap::new();
    m.insert("setup_s", median(&timed.setups_s));
    m.insert("req_per_s", timed.req_per_s);
    m.insert("lat_p50_ms", percentile(&sorted, 50.0));
    m.insert("lat_p90_ms", percentile(&sorted, 90.0));
    m.insert("lat_p99_ms", percentile(&sorted, 99.0));
    m.insert("winner_speedup_geomean", geomean(&timed.speedups));
    eprintln!(
        "{name}: {} requests, {n} latencies in the distribution, {} set-up(s), {} keys in the \
         geomean, peak RSS {:.1} MiB",
        timed.tally.attempted,
        timed.setups_s.len(),
        timed.speedups.len(),
        peak_rss_mib()?
    );
    for (metric, p) in [
        ("lat_p50_ms", 50.0),
        ("lat_p90_ms", 90.0),
        ("lat_p99_ms", 99.0),
    ] {
        let beyond = samples_beyond(n, p);
        let thin = if beyond < MIN_TAIL_SAMPLES {
            " (thin tail)"
        } else {
            ""
        };
        eprintln!("{name}: {metric} has {beyond} of {n} samples beyond it{thin}");
    }
    Ok(m)
}

/// The last stdout line of a run: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(tally: &Tally, metrics: &[(&str, &str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(&mut out, name);
        out.push_str(": {\"value\": ");
        write_f64(&mut out, *value);
        out.push_str(", \"unit\": ");
        write_str(&mut out, unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// One workload in this process.
fn run_one(name: &str, opt: &Options, process_start: Instant) -> Result<String, String> {
    if !WORKLOADS.iter().any(|w| w.name == name) {
        return Err(format!("unknown workload {name:?}"));
    }
    if let Some((knob, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("RESPEC_"))
    {
        return Err(format!(
            "{} is set: the benchmark measures the program's defaults",
            knob.to_string_lossy()
        ));
    }
    let out_dir = package_dir().join("out");
    let scratch = out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let env = Env {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        seed: opt.seed,
        seconds: opt.seconds,
        smoke: opt.smoke,
        scratch: scratch.clone(),
        out_dir,
    };
    let line = run_in(name, opt.trace, &env, process_start);
    let _ = std::fs::remove_dir_all(&scratch);
    line
}

fn run_in(name: &str, trace: bool, env: &Env, process_start: Instant) -> Result<String, String> {
    let (tally, values) = if trace {
        let mut traced = match name {
            "cold_tune" => tune::traced(env, Mode::Cold, name),
            "warm_rebuild" => tune::traced(env, Mode::Warm, name),
            "sim_run" => sim_run::traced(env),
            _ => serve_mixed::traced(env),
        }?;
        traced.layers.insert("bench.peak_rss_mb", peak_rss_mib()?);
        (traced.tally, traced.layers)
    } else {
        let timed = match name {
            "cold_tune" => tune::timed(env, Mode::Cold, process_start),
            "warm_rebuild" => tune::timed(env, Mode::Warm, process_start),
            "sim_run" => sim_run::timed(env, process_start),
            _ => serve_mixed::timed(env, process_start),
        }?;
        let values = end_to_end_metrics(name, &timed)?;
        (timed.tally, values)
    };
    for reason in &tally.reasons {
        eprintln!("{name}: FAILED {reason}");
    }
    let catalog: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    // A layer the workload does not cross reports 0.
    let metrics: Vec<(&str, &str, f64)> = catalog
        .into_iter()
        .map(|(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect();
    Ok(result_line(&tally, &metrics))
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload, each run in a fresh process of this executable; prints
/// the metric tables and writes the result set `compare` reads.
fn run_all(opt: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut header = String::from("{\"nproc\": ");
    header.push_str(&nproc.to_string());
    for (key, value) in [
        ("rustc", command_output("rustc", &["--version"])),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        (
            "git_rev",
            command_output("git", &["rev-parse", "--short", "HEAD"]),
        ),
    ] {
        header.push_str(&format!(", \"{key}\": "));
        write_str(&mut header, &value);
    }
    header.push_str(&format!(
        ", \"seed\": {}, \"seconds\": {}, \"smoke\": {}}}",
        opt.seed, opt.seconds, opt.smoke
    ));
    println!("header {header}");

    let mut runs = Vec::new();
    let mut correct = true;
    let traces: &[bool] = if opt.traced { &[false, true] } else { &[false] };
    for w in &WORKLOADS {
        for &trace in traces {
            let repeats = if trace { 1 } else { opt.repeats };
            let mut columns: Vec<Json> = Vec::new();
            for r in 0..repeats {
                let seed = opt.seed + r;
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", w.name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &opt.seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }]);
                if opt.smoke {
                    cmd.arg("--smoke");
                }
                let output = cmd
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let line = stdout.lines().last().unwrap_or_default();
                if !output.status.success() || line.is_empty() {
                    return Err(format!("{} (seed {seed}) did not finish", w.name));
                }
                let json = Json::parse(line).map_err(|e| format!("{}: {e}", w.name))?;
                correct &= json.get("correct").and_then(Json::as_bool) == Some(true);
                runs.push(format!(
                    "{{\"workload\": \"{}\", \"seed\": {seed}, \"trace\": {}, {}",
                    w.name,
                    u8::from(trace),
                    &line[1..]
                ));
                columns.push(json);
            }
            print_table(w.name, trace, &columns);
        }
    }
    let path = opt.out.clone().unwrap_or_else(|| {
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        package_dir().join("out").join(format!("run-{stamp}.json"))
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let document = format!(
        "{{\"header\": {header}, \"runs\": [\n  {}\n]}}\n",
        runs.join(",\n  ")
    );
    std::fs::write(&path, document).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("result set written to {}", path.display());
    Ok(correct)
}

/// One workload's metrics, by name and unit, one column per run.
fn print_table(workload: &str, trace: bool, runs: &[Json]) {
    let kind = if trace { "per-layer" } else { "end-to-end" };
    let counts = |key: &str| {
        let all: Vec<String> = runs
            .iter()
            .map(|r| r.get(key).and_then(Json::as_i64).unwrap_or(0).to_string())
            .collect();
        all.join(" ")
    };
    println!(
        "\n{workload} {kind}: attempted {} failed {} fail_share {}",
        counts("attempted"),
        counts("failed"),
        runs.iter()
            .map(|r| {
                let n = |k| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                format!("{}", n("failed") / n("attempted").max(1.0))
            })
            .collect::<Vec<_>>()
            .join(" ")
    );
    let Some(Json::Obj(first)) = runs.first().and_then(|r| r.get("metrics")) else {
        return;
    };
    for (name, metric) in first {
        let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
        let values: Vec<String> = runs
            .iter()
            .map(|r| {
                let v = r
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"));
                format!("{:>14.6}", v.and_then(Json::as_f64).unwrap_or(f64::NAN))
            })
            .collect();
        println!("  {name:<28} {unit:<6} {}", values.join(" "));
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err(usage()),
        },
        _ => parse_options(&args).and_then(|opt| match &opt.workload {
            Some(name) => run_one(name, &opt, process_start).map(|line| {
                println!("{line}");
                true
            }),
            None => run_all(&opt),
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("respec-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let tally = Tally {
            attempted: 7,
            failed: 0,
            reasons: Vec::new(),
        };
        let line = result_line(&tally, &[("lat_p50_ms", "ms", 1.25), ("setup_s", "s", 0.5)]);
        let json = Json::parse(&line).expect("valid JSON");
        let Json::Obj(fields) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(json.get("attempted").and_then(Json::as_i64), Some(7));
        let p50 = json
            .get("metrics")
            .and_then(|m| m.get("lat_p50_ms"))
            .expect("p50");
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn options_parse_the_driver_invocation() {
        let args: Vec<String> = "--workload sim_run --seed 9 --seconds 20 --trace 1"
            .split(' ')
            .map(str::to_string)
            .collect();
        let opt = parse_options(&args).expect("parses");
        assert_eq!(opt.workload.as_deref(), Some("sim_run"));
        assert_eq!((opt.seed, opt.seconds, opt.trace), (9, 20.0, true));
        assert!(parse_options(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_options(&["--bogus".into()]).is_err());
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mib().expect("VmHWM") > 1.0);
    }
}
