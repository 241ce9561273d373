//! `serve_mixed`: tune requests over TCP to an in-process `respec-serve`.
//! One connection and one thread per core; each client sets `TCP_NODELAY`
//! and sends a request in a single write, so the daemon is what is measured.
//! The request count is fixed (composition must not depend on the seed or on
//! speed), sized so that a run measures about `--seconds` on the reference
//! box.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

use super::staged::{self, Winner};
use super::{
    digest, par_map, set_up_repeatedly, str_word, Env, Layers, Probe, Tally, Timed, Traced, TOTALS,
};
use crate::adapter::{self, App, Cache, CoarsenConfig, Daemon, Function, Json, Size, Target};
use crate::spans::{Tracer, ROOT};
use crate::stats::{median, zipf_counts, Rng};

/// Workstation GPU of each vendor plus the desktop CPU: with `cold_tune`'s
/// two, five registry targets cross the tuner, and `sim_run` covers all six.
const TARGETS: [&str; 3] = ["a4000", "rx6800", "cpu-desktop8"];

/// Requests each client sends per second of `--seconds`: 300 requests in a
/// 20 s run on two cores, ~14 s at today's speed (44 ms per response, ~7 s of
/// first-touch tunes). Sized by the slow share, not by the clock: the 45
/// first touches are 15 % of the requests (18 % today, while three CPU keys
/// never replay), which keeps `lat_p90_ms` well inside the cold mode and
/// `lat_p50_ms` well inside the replay mode. Near 10 % `lat_p90_ms` would
/// sit on the boundary between the modes and flip between runs.
const REQUESTS_PER_CLIENT_SECOND: f64 = 7.5;

/// Share of the timed run's requests that each pass of the traced run sends.
const TRACED_SHARE: f64 = 0.5;

/// Requests each client sends in the smoke run.
const SMOKE_REQUESTS_PER_CLIENT: usize = 12;

/// Cache shards of the daemon.
const SHARDS: usize = 4;

/// The fixed request multiset and who sends what.
struct Plan {
    apps: Vec<Box<dyn App>>,
    targets: Vec<Target>,
    /// `(app, target)` per key, app-major.
    keys: Vec<(usize, usize)>,
    /// Key indices each client sends, in order.
    lists: Vec<Vec<usize>>,
}

/// The seeded request lists: `per_client × clients` requests, apps by zipf
/// counts over the registry's popularity order, each app's share dealt
/// evenly over the targets; shuffled by the seed and dealt to the clients.
fn request_lists(
    apps: usize,
    targets: usize,
    clients: usize,
    per_client: usize,
    seed: u64,
) -> Vec<Vec<usize>> {
    let total = per_client * clients;
    let mut all = Vec::with_capacity(total);
    for (app, count) in zipf_counts(apps, 1.0, total).into_iter().enumerate() {
        // Rotate the starting target so leftovers spread over all of them.
        all.extend((0..count).map(|i| app * targets + (app + i) % targets));
    }
    Rng::new(seed).shuffle(&mut all);
    (0..clients)
        .map(|c| all.iter().skip(c).step_by(clients).copied().collect())
        .collect()
}

impl Plan {
    fn new(env: &Env, per_client: usize) -> Plan {
        let apps = adapter::serve_apps(Size::Small);
        let targets: Vec<Target> = TARGETS.iter().map(|t| adapter::target(t)).collect();
        let keys = (0..apps.len())
            .flat_map(|a| (0..targets.len()).map(move |t| (a, t)))
            .collect();
        let lists = request_lists(apps.len(), targets.len(), env.nproc, per_client, env.seed);
        Plan {
            apps,
            targets,
            keys,
            lists,
        }
    }

    fn per_client(env: &Env, share: f64) -> usize {
        if env.smoke {
            SMOKE_REQUESTS_PER_CLIENT
        } else {
            ((env.seconds * share * REQUESTS_PER_CLIENT_SECOND) as usize).max(24)
        }
    }
}

/// A well-behaved client connection.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client { stream, reader })
    }

    /// Sends one line in one write and reads the one-line answer.
    fn exchange(&mut self, mut line: String) -> Result<String, String> {
        line.push('\n');
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        self.reader
            .read_line(&mut response)
            .map_err(|e| format!("recv: {e}"))?;
        if response.is_empty() {
            return Err("connection closed".to_string());
        }
        Ok(response)
    }

    fn request(&mut self, line: String) -> Result<Json, String> {
        let response = self.exchange(line)?;
        Json::parse(response.trim_end()).map_err(|e| format!("bad response: {e}"))
    }
}

fn tune_line(client: usize, app: &str, target: &str, totals: &[i64]) -> String {
    let totals: Vec<String> = totals.iter().map(i64::to_string).collect();
    format!(
        r#"{{"op":"tune","client":"client-{client}","app":"{app}","target":"{target}","totals":[{}]}}"#,
        totals.join(",")
    )
}

/// One answered tune request.
struct Reply {
    key: usize,
    latency_ms: f64,
    /// Seconds since the timed phase began when the answer arrived.
    done_s: f64,
    ok: bool,
    coalesced: bool,
    runner_calls: u64,
    candidates: u64,
    persistent_hits: u64,
    persistent_misses: u64,
    queue_ms: f64,
    tune_ms: f64,
    seconds_bits: u64,
    winner_hash: u64,
    input_hash: u64,
    winner_config: String,
}

impl Reply {
    fn parse(key: usize, latency_ms: f64, done_s: f64, json: &Json) -> Reply {
        let num = |k: &str| json.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let hex = |k: &str| {
            json.get(k)
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .unwrap_or(0)
        };
        Reply {
            key,
            latency_ms,
            done_s,
            ok: json.get("ok").and_then(Json::as_bool) == Some(true),
            coalesced: json.get("coalesced").and_then(Json::as_bool) == Some(true),
            runner_calls: num("runner_calls") as u64,
            candidates: num("candidates") as u64,
            persistent_hits: num("persistent_hits") as u64,
            persistent_misses: num("persistent_misses") as u64,
            queue_ms: num("queue_ms"),
            tune_ms: num("tune_ms"),
            seconds_bits: hex("seconds_bits"),
            winner_hash: hex("winner_hash"),
            input_hash: hex("input_hash"),
            winner_config: json
                .get("winner_config")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        }
    }
}

/// A started daemon with one connected client per core.
struct Session {
    daemon: Daemon,
    clients: Vec<Client>,
}

impl Session {
    /// Starts the daemon on a fresh store, connects the clients and sends
    /// one untimed tune per target. The warm-up explores a single candidate
    /// (`totals: [1]`), a different search key, so every timed key stays cold.
    fn start(env: &Env, plan: &Plan, store: &Path, tracer: &Tracer) -> Result<Session, String> {
        let daemon = {
            let _span = tracer.span("serve.start", ROOT, 0);
            Daemon::start(env.nproc, store, SHARDS)?
        };
        let mut clients = (0..env.nproc)
            .map(|_| Client::connect(daemon.addr()))
            .collect::<Result<Vec<_>, _>>()?;
        for (t, target) in TARGETS.iter().enumerate() {
            let line = tune_line(0, plan.apps[0].name(), target, &[1]);
            let n = clients.len();
            let json = clients[t % n].request(line)?;
            if json.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("warm-up tune on {target} was refused"));
            }
        }
        Ok(Session { daemon, clients })
    }

    /// The closed loop: every client sends its list, one request at a time.
    /// Returns the wall seconds and every reply.
    fn run(&mut self, plan: &Plan, tracer: &Tracer) -> Result<(f64, Vec<Reply>), String> {
        let barrier = Barrier::new(self.clients.len() + 1);
        let mut wall_s = 0.0;
        let results: Vec<Result<Vec<Reply>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&plan.lists)
                .enumerate()
                .map(|(c, (client, list))| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        let started = Instant::now();
                        let mut replies = Vec::with_capacity(list.len());
                        for (i, &key) in list.iter().enumerate() {
                            let (a, t) = plan.keys[key];
                            let line = tune_line(c, plan.apps[a].name(), TARGETS[t], &TOTALS);
                            let req = (c * list.len() + i) as u64 + 1;
                            let sent = Instant::now();
                            let root = tracer.span("req", ROOT, req);
                            let mut rtt = tracer.span("serve.rtt", root.id(), req);
                            let response = client.exchange(line)?;
                            let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                            let json = Json::parse(response.trim_end())
                                .map_err(|e| format!("bad response: {e}"))?;
                            let done_s = started.elapsed().as_secs_f64();
                            let reply = Reply::parse(key, latency_ms, done_s, &json);
                            rtt.record("queue_ms", reply.queue_ms);
                            rtt.record("tune_ms", reply.tune_ms);
                            drop(rtt);
                            replies.push(reply);
                        }
                        Ok(replies)
                    })
                })
                .collect();
            barrier.wait();
            let started = Instant::now();
            let results = handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
                .collect();
            wall_s = started.elapsed().as_secs_f64();
            results
        });
        let mut replies = Vec::new();
        for r in results {
            replies.extend(r?);
        }
        Ok((wall_s, replies))
    }

    /// Median round-trip of `n` pings, in ms.
    fn ping_rtt_ms(&mut self, n: usize) -> Result<f64, String> {
        let mut rtts = Vec::with_capacity(n);
        for _ in 0..n {
            let sent = Instant::now();
            self.clients[0].exchange(r#"{"op":"ping"}"#.to_string())?;
            rtts.push(sent.elapsed().as_secs_f64() * 1e3);
        }
        Ok(median(&rtts))
    }
}

/// What the untimed re-run of one key's winner established.
struct Verified {
    /// Identity / winner simulated seconds.
    speedup: f64,
    /// The rebuilt winner, for the staged cache replay.
    version: Function,
    config: CoarsenConfig,
    seconds: f64,
}

/// Checks one key's answers: all replies agree, and the winner — rebuilt
/// from its configuration and matched against the daemon's hash — runs to
/// an output within tolerance of the sequential reference, at exactly the
/// simulated time the daemon reported.
fn check_key(plan: &Plan, key: usize, replies: &[&Reply]) -> Result<Verified, String> {
    let first = replies[0];
    if replies.iter().any(|r| !r.ok) {
        return Err("a response had ok:false".to_string());
    }
    if replies
        .iter()
        .any(|r| r.seconds_bits != first.seconds_bits || r.winner_hash != first.winner_hash)
    {
        return Err("responses disagree on seconds_bits or winner_hash".to_string());
    }
    let (a, t) = plan.keys[key];
    let (app, target) = (plan.apps[a].as_ref(), &plan.targets[t]);
    let off = Tracer::off();
    let probe = Probe::new(&off);
    let mut scratch = Layers::default();
    let compiled = adapter::core_compile(app, target, None)?;
    let func = compiled
        .module
        .function(app.main_kernel())
        .ok_or("main kernel missing")?;
    if adapter::ir_hash(func) != first.input_hash {
        return Err("input_hash is not the compiled kernel's hash".to_string());
    }
    let config = adapter::candidate_configs(func, &TOTALS)?
        .into_iter()
        .find(|c| c.to_string() == first.winner_config)
        .ok_or("winner_config is not a candidate")?;
    let reference = app.reference();
    let mut kernel_s = |config| -> Result<(Function, f64), String> {
        let version =
            staged::prepare_version(func, config, target.as_ref(), &off, (ROOT, 0), &mut scratch)?;
        let mut module = compiled.module.clone();
        module.add_function(version.clone());
        let (out, sample) = adapter::sim_run(app, &module, target.as_ref(), &probe)?;
        if !adapter::within_tolerance(app, &out, &reference) {
            return Err("output outside tolerance of the reference".to_string());
        }
        Ok((version, sample.kernel_s))
    };
    let (version, seconds) = kernel_s(config)?;
    if adapter::ir_hash(&version) != first.winner_hash {
        return Err("winner_hash is not the rebuilt winner's hash".to_string());
    }
    if seconds.to_bits() != first.seconds_bits {
        return Err("the winner does not re-run at the reported time".to_string());
    }
    let identity_s = if config.is_identity() {
        seconds
    } else {
        kernel_s(CoarsenConfig::identity())
            .map_err(|why| format!("identity: {why}"))?
            .1
    };
    Ok(Verified {
        speedup: identity_s / seconds,
        version,
        config,
        seconds,
    })
}

/// Checks every touched key (in parallel, after timing) and books failures;
/// returns what was verified, per key.
fn check_replies(
    env: &Env,
    plan: &Plan,
    replies: &[Reply],
    tally: &mut Tally,
) -> Vec<Option<Verified>> {
    tally.attempted += replies.len() as u64;
    let per_key: Vec<Vec<&Reply>> = (0..plan.keys.len())
        .map(|k| replies.iter().filter(|r| r.key == k).collect())
        .collect();
    let checked = par_map(env.nproc, plan.keys.len(), |k| {
        (!per_key[k].is_empty()).then(|| check_key(plan, k, &per_key[k]))
    });
    checked
        .into_iter()
        .enumerate()
        .map(|(k, c)| match c? {
            Ok(verified) => Some(verified),
            Err(why) => {
                let (a, t) = plan.keys[k];
                tally.fail(
                    per_key[k].len() as u64,
                    format!("{} on {}: {why}", plan.apps[a].name(), TARGETS[t]),
                );
                None
            }
        })
        .collect()
}

/// The timed run.
pub fn timed(env: &Env, process_start: Instant) -> Result<Timed, String> {
    let off = Tracer::off();
    let repeats = if env.smoke { 1 } else { 3 };
    let ((plan, mut session), setups_s) = set_up_repeatedly(
        repeats,
        process_start,
        |i| {
            let plan = Plan::new(env, Plan::per_client(env, 1.0));
            let store = env.scratch.join(format!("serve-{i}"));
            let session = Session::start(env, &plan, &store, &off)?;
            Ok((plan, session))
        },
        |(_, earlier)| earlier.daemon.stop(),
    )?;
    let (wall_s, replies) = session.run(&plan, &off)?;
    session.daemon.stop();
    let mut tally = Tally::default();
    let checked = check_replies(env, &plan, &replies, &mut tally);
    // One pass, and a key is slow on first touch and fast afterwards, so the
    // distribution is over all requests and the rate is over the wall clock.
    Ok(Timed {
        setups_s,
        req_per_s: (tally.attempted - tally.failed) as f64 / wall_s,
        latencies_ms: replies.iter().map(|r| r.latency_ms).collect(),
        speedups: checked.iter().flatten().map(|v| v.speedup).collect(),
        tally,
    })
}

/// The traced run: an untraced pass and a traced pass, each against a fresh
/// daemon and store with [`TRACED_SHARE`] of the timed run's requests, then
/// the staged replay of every key.
pub fn traced(env: &Env) -> Result<Traced, String> {
    let off = Tracer::off();
    let plan = Plan::new(env, Plan::per_client(env, TRACED_SHARE));
    let mut tally = Tally::default();

    let mut session = Session::start(env, &plan, &env.scratch.join("serve-untraced"), &off)?;
    let (untraced_s, _) = session.run(&plan, &off)?;
    session.daemon.stop();

    let tracer = Tracer::on();
    let mut session = Session::start(env, &plan, &env.scratch.join("serve-traced"), &tracer)?;
    let (traced_s, replies) = session.run(&plan, &tracer)?;
    let mut layers = Layers::default();
    layers.set("serve.ping_rtt_ms", session.ping_rtt_ms(21)?);
    let stats = session.clients[0].request(r#"{"op":"stats"}"#.to_string())?;
    let stat = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    layers.set("serve.coalesced", stat("coalesced"));
    layers.set("serve.tunes_executed", stat("tunes_executed"));
    layers.set(
        "serve.rejected",
        stat("rejected_overload") + stat("rejected_shutdown"),
    );
    layers.set("cache.bytes_on_disk", session.daemon.cache_bytes() as f64);
    {
        let _span = tracer.span("serve.drain", ROOT, 0);
        session.daemon.stop();
    }
    layers.set("bench.trace_overhead_share", traced_s / untraced_s - 1.0);

    let p50 = |values: Vec<f64>| {
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    };
    let of = |f: fn(&Reply) -> f64| replies.iter().map(f).collect::<Vec<f64>>();
    layers.set(
        "serve.overhead_ms_p50",
        p50(of(|r| r.latency_ms - r.queue_ms - r.tune_ms)),
    );
    layers.set("serve.queue_ms_p50", p50(of(|r| r.queue_ms)));
    layers.set("serve.tune_ms_p50", p50(of(|r| r.tune_ms)));
    let mode = |replay: bool| {
        replies
            .iter()
            .filter(|r| (r.runner_calls == 0) == replay)
            .map(|r| r.latency_ms)
            .collect::<Vec<f64>>()
    };
    layers.set("serve.replay_p50_ms", p50(mode(true)));
    layers.set("serve.cold_p50_ms", p50(mode(false)));
    let sum = |f: fn(&Reply) -> u64| replies.iter().map(f).sum::<u64>() as f64;
    layers.set("sim.runs", sum(|r| r.runner_calls));
    layers.set("tune.runner_calls", sum(|r| r.runner_calls));
    layers.set("tune.candidates", sum(|r| r.candidates));
    layers.set("cache.persistent_hits", sum(|r| r.persistent_hits));
    layers.set("cache.persistent_misses", sum(|r| r.persistent_misses));

    // A key counts as stored once its first answer has arrived; coalesced
    // answers share an earlier request's search and are left out.
    let mut first_done = vec![f64::INFINITY; plan.keys.len()];
    for r in &replies {
        first_done[r.key] = first_done[r.key].min(r.done_s);
    }
    let later: Vec<&Reply> = replies
        .iter()
        .filter(|r| !r.coalesced && r.done_s - r.latency_ms / 1e3 > first_done[r.key])
        .collect();
    if !later.is_empty() {
        let replays = later.iter().filter(|r| r.runner_calls == 0).count();
        layers.set("cache.replay_share", replays as f64 / later.len() as f64);
    }

    let checked = check_replies(env, &plan, &replies, &mut tally);
    let words = checked.iter().enumerate().flat_map(|(k, c)| {
        let (a, t) = plan.keys[k];
        let mut words = vec![str_word(plan.apps[a].name()), str_word(TARGETS[t])];
        if let Some(v) = c {
            words.extend([str_word(&v.config.to_string()), v.seconds.to_bits()]);
        }
        words
    });
    layers.set("sim.digest", digest(words));

    // Staged replay: the same keys, layer by layer, in this process.
    let cache = {
        let _span = tracer.span("cache.open", ROOT, 0);
        Cache::open(&env.scratch.join("staged-store"))?
    };
    for (k, c) in checked.iter().enumerate() {
        let Some(v) = c else { continue };
        let (a, t) = plan.keys[k];
        let winner = Winner {
            version: &v.version,
            config: v.config,
            seconds: v.seconds,
        };
        staged::stage_key(
            plan.apps[a].as_ref(),
            plan.targets[t].as_ref(),
            Some(&winner),
            &cache,
            &tracer,
            (replies.len() + k) as u64 + 1,
            &mut layers,
        )?;
    }
    Traced::finish(env, "serve_mixed", layers, &tracer, tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lists_repeat_per_seed_and_only_reorder_across_seeds() {
        let a = request_lists(15, 3, 2, 150, 7);
        assert_eq!(a, request_lists(15, 3, 2, 150, 7), "same seed, same lists");
        let b = request_lists(15, 3, 2, 150, 8);
        assert_ne!(a, b, "another seed, another order");
        let multiset = |lists: &[Vec<usize>]| {
            let mut all: Vec<usize> = lists.iter().flatten().copied().collect();
            all.sort_unstable();
            all
        };
        assert_eq!(multiset(&a), multiset(&b), "the work itself is fixed");
        assert!(a.iter().all(|l| l.len() == 150));
        let mut touched = multiset(&a);
        touched.dedup();
        assert_eq!(touched.len(), 45, "a full run touches every key");
    }
}
