//! Load generator for respec-serve: many concurrent clients, zipf-skewed
//! workload popularity, latency/throughput/coalescing report.
//!
//! ```text
//! load_gen (--spawn | --addr HOST:PORT) [--clients N] [--requests N]
//!          [--workers N] [--zipf S] [--seed N] [--shutdown]
//!          [--assert-coalesced] [--cache-dir PATH]
//! ```
//!
//! Every client's *first* request is the same (rank-1 app, first target),
//! fired simultaneously from behind a barrier — a deliberate thundering
//! herd that exercises coalescing. Subsequent requests sample apps from a
//! zipf distribution over the registry's popularity order, so hot keys
//! keep colliding while the tail stays cold.
//!
//! Prints the report as one JSON line on stdout.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use respec_serve::{Json, ServeConfig, Server};
use respec_trace::json::JsonObject;

struct Options {
    addr: Option<String>,
    spawn: bool,
    clients: usize,
    requests: usize,
    workers: usize,
    zipf: f64,
    seed: u64,
    shutdown: bool,
    assert_coalesced: bool,
    cache_dir: Option<PathBuf>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            addr: None,
            spawn: false,
            clients: 8,
            requests: 4,
            workers: 2,
            zipf: 1.0,
            seed: 0x5eed,
            shutdown: false,
            assert_coalesced: false,
            cache_dir: None,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: load_gen (--spawn | --addr HOST:PORT) [--clients N] [--requests N] \
         [--workers N] [--zipf S] [--seed N] [--shutdown] [--assert-coalesced] \
         [--cache-dir PATH]"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut opt = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--addr" => opt.addr = Some(value()),
            "--spawn" => opt.spawn = true,
            "--clients" => opt.clients = value().parse().unwrap_or_else(|_| usage()),
            "--requests" => opt.requests = value().parse().unwrap_or_else(|_| usage()),
            "--workers" => opt.workers = value().parse().unwrap_or_else(|_| usage()),
            "--zipf" => opt.zipf = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => opt.seed = value().parse().unwrap_or_else(|_| usage()),
            "--shutdown" => opt.shutdown = true,
            "--assert-coalesced" => opt.assert_coalesced = true,
            "--cache-dir" => opt.cache_dir = Some(value().into()),
            _ => usage(),
        }
    }
    if opt.spawn == opt.addr.is_some() {
        usage();
    }
    opt
}

/// Deterministic xorshift64 (`Date`-free, seed-driven).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cumulative zipf weights over ranks `1..=n` with exponent `s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|rank| 1.0 / (rank as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

fn sample(cdf: &[f64], u: f64) -> usize {
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

struct Client {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, stream })
    }

    fn request(&mut self, line: &str) -> Result<Json, String> {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| format!("recv: {e}"))?;
        if response.is_empty() {
            return Err("connection closed".to_string());
        }
        Json::parse(response.trim_end()).map_err(|e| format!("bad response: {e}"))
    }
}

#[derive(Default)]
struct Sample {
    latency_ms: f64,
    ok: bool,
    coalesced: bool,
    compiles: i64,
}

fn run_client(
    addr: &str,
    index: usize,
    opt: &Options,
    apps: &[String],
    targets: &[String],
    barrier: &Barrier,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    // Every client reaches the barrier, connected or not: the others wait
    // for all `clients` of them.
    let client = Client::connect(addr);
    barrier.wait();
    let Ok(mut client) = client else {
        return samples;
    };
    let mut rng = Rng(opt.seed ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let cdf = zipf_cdf(apps.len(), opt.zipf);
    for r in 0..opt.requests {
        // Request 0 is the synchronized herd: every client asks for the
        // rank-1 key at the same instant.
        let (app, target) = if r == 0 {
            (apps[0].as_str(), targets[0].as_str())
        } else {
            (
                apps[sample(&cdf, rng.unit())].as_str(),
                targets[(rng.next() % targets.len() as u64) as usize].as_str(),
            )
        };
        let line = format!(
            r#"{{"op":"tune","id":"c{index}-r{r}","client":"client-{index}","app":"{app}","target":"{target}"}}"#
        );
        let started = Instant::now();
        let response = client.request(&line);
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        let mut sample = Sample {
            latency_ms,
            ..Sample::default()
        };
        if let Ok(json) = response {
            sample.ok = json.get("ok").and_then(Json::as_bool) == Some(true);
            sample.coalesced = json.get("coalesced").and_then(Json::as_bool) == Some(true);
            sample.compiles = json.get("compiles").and_then(Json::as_i64).unwrap_or(-1);
        }
        samples.push(sample);
    }
    samples
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() -> ExitCode {
    let opt = parse_options();
    let server = if opt.spawn {
        let cache_dir = opt.cache_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("respec-loadgen-cache-{}", std::process::id()))
        });
        let config = ServeConfig {
            workers: opt.workers,
            cache_dir: Some(cache_dir),
            ..ServeConfig::default()
        };
        match Server::start(config) {
            Ok(server) => Some(server),
            Err(e) => {
                eprintln!("load_gen: spawn failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let addr = server
        .as_ref()
        .map(|s| s.addr().to_string())
        .or_else(|| opt.addr.clone())
        .expect("addr resolved");

    // Discover the served apps (popularity order) and targets.
    let mut control = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("load_gen: cannot connect to {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let listing = match control.request(r#"{"op":"apps","client":"load-gen"}"#) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("load_gen: apps listing failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let split = |key: &str| -> Vec<String> {
        listing
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect()
    };
    let apps = split("apps");
    let targets = split("targets");
    if apps.is_empty() || targets.is_empty() {
        eprintln!("load_gen: server reported no apps/targets");
        return ExitCode::FAILURE;
    }

    let barrier = Arc::new(Barrier::new(opt.clients));
    let opt = Arc::new(opt);
    let apps = Arc::new(apps);
    let targets = Arc::new(targets);
    let wall = Instant::now();
    let handles: Vec<_> = (0..opt.clients)
        .map(|index| {
            let (addr, opt) = (addr.clone(), opt.clone());
            let (apps, targets, barrier) = (apps.clone(), targets.clone(), barrier.clone());
            std::thread::spawn(move || run_client(&addr, index, &opt, &apps, &targets, &barrier))
        })
        .collect();
    let samples: Vec<Sample> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap_or_default())
        .collect();
    let wall_seconds = wall.elapsed().as_secs_f64();

    let stats = control
        .request(r#"{"op":"stats","client":"load-gen"}"#)
        .unwrap_or(Json::Null);
    let stat = |key: &str| stats.get(key).and_then(Json::as_i64).unwrap_or(0);

    let completed = samples.iter().filter(|s| s.ok).count();
    let errors = samples.len() - completed;
    let coalesced_seen = samples.iter().filter(|s| s.coalesced).count();
    let warm_zero_compile = samples.iter().filter(|s| s.ok && s.compiles == 0).count();
    let mut latencies: Vec<f64> = samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.latency_ms)
        .collect();
    latencies.sort_by(f64::total_cmp);

    let tune_requests = stat("tune_requests").max(1);
    let persistent_lookups = stat("persistent_hits") + stat("persistent_misses");
    let report = JsonObject::new()
        .str("benchmark", "respec-serve load_gen")
        .u64("clients", opt.clients as u64)
        .u64("requests_per_client", opt.requests as u64)
        .u64("completed", completed as u64)
        .u64("errors", errors as u64)
        .f64("wall_seconds", wall_seconds)
        .f64("throughput_rps", completed as f64 / wall_seconds.max(1e-9))
        .f64("latency_p50_ms", percentile(&latencies, 50.0))
        .f64("latency_p99_ms", percentile(&latencies, 99.0))
        .f64("latency_max_ms", latencies.last().copied().unwrap_or(0.0))
        .f64("zipf_exponent", opt.zipf)
        .u64("coalesced_responses", coalesced_seen as u64)
        .u64("warm_zero_compile_responses", warm_zero_compile as u64)
        .i64("server_tune_requests", stat("tune_requests"))
        .i64("server_tunes_executed", stat("tunes_executed"))
        .i64("server_coalesced", stat("coalesced"))
        .f64(
            "coalescing_rate",
            stat("coalesced") as f64 / tune_requests as f64,
        )
        .i64("server_compiles", stat("compiles"))
        .i64("server_runner_calls", stat("runner_calls"))
        .i64("server_persistent_hits", stat("persistent_hits"))
        .f64(
            "cache_hit_rate",
            stat("persistent_hits") as f64 / persistent_lookups.max(1) as f64,
        )
        .i64("server_rejected_overload", stat("rejected_overload"))
        .finish();

    println!("{report}");

    if opt.shutdown || server.is_some() {
        match control.request(r#"{"op":"shutdown","client":"load-gen"}"#) {
            Ok(ack) => {
                if ack.get("ok").and_then(Json::as_bool) != Some(true) {
                    eprintln!("load_gen: shutdown not acknowledged");
                }
            }
            Err(e) => eprintln!("load_gen: shutdown request failed: {e}"),
        }
    }
    if let Some(server) = server {
        server.join();
    }

    if opt.assert_coalesced {
        if stat("coalesced") == 0 {
            eprintln!("load_gen: ASSERT FAILED: no request was coalesced");
            return ExitCode::FAILURE;
        }
        if errors > 0 {
            eprintln!("load_gen: ASSERT FAILED: {errors} malformed/failed responses");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;
    use std::sync::mpsc;
    use std::time::Duration;

    use super::*;

    #[test]
    fn a_client_that_cannot_connect_still_reaches_the_barrier() {
        // A port whose listener is gone refuses connections.
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("bind a local port")
            .to_string();
        let barrier = Arc::new(Barrier::new(2));
        let (passed, waited) = mpsc::channel();
        let other = Arc::clone(&barrier);
        let connected = std::thread::spawn(move || {
            other.wait();
            let _ = passed.send(());
        });
        let samples = run_client(
            &addr,
            0,
            &Options::default(),
            &["app".to_string()],
            &["target".to_string()],
            &barrier,
        );
        assert!(samples.is_empty(), "a refused client sends nothing");
        waited
            .recv_timeout(Duration::from_secs(10))
            .expect("the connected client passes the barrier");
        connected.join().expect("the connected client exits");
    }
}
