//! The daemon: TCP accept loop, per-connection readers, the tune worker
//! pool, and the drain-based shutdown sequence.
//!
//! Threading model:
//!
//! * One **accept** thread hands each connection to its own **reader**
//!   thread.
//! * Readers parse requests and serve the cheap operations inline
//!   (`ping`, `stats`, `apps`, `compile`, `subscribe`); `tune` requests
//!   go through the [`Scheduler`] and the
//!   reader blocks on its waiter channel until a worker answers.
//! * A fixed pool of **worker** threads pops jobs (round-robin across
//!   clients), runs the tune engine inline (`parallelism = 1`) against the
//!   job's cache shard, and fans the single outcome out to every coalesced
//!   waiter.
//! * A **supervisor** thread sleeps until shutdown is requested, then
//!   drains the scheduler, joins the workers (every accepted waiter's
//!   outcome is now in its reader's channel), stops the accept loop,
//!   waits for the readers to flush those responses to their sockets,
//!   and only then disconnects and joins every reader.
//!
//! Shutdown contract: after a `shutdown` request is acknowledged, no new
//! tune work is admitted (`shutting-down` rejections), every previously
//! accepted tune still completes and is answered, and the process exits
//! only after all of that has drained.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use respec_cache::TuningCache;
use respec_rodinia::Workload;
use respec_sim::targets;
use respec_trace::json::JsonObject;
use respec_trace::Trace;
use respec_tune::{candidate_configs, tune_kernel_pooled, TuneOptions};

use crate::events::{ConnWriter, EventHub};
use crate::registry::{Registry, TARGET_NAMES};
use crate::scheduler::{JobKey, Scheduler, Submit, TuneJob, TuneOutcome};
use crate::wire::{
    codes, error_response, hex64, ok_response, parse_request, read_line_capped, Envelope, LineRead,
    Request, WireError,
};

/// How long a reader waits for its tune outcome before giving up. The
/// drain contract answers every waiter, so this only fires if a worker
/// panicked; it turns a wedged connection into a structured error.
const WAITER_TIMEOUT: Duration = Duration::from_secs(600);

/// Poll granularity of the tune wait: between channel polls the reader
/// probes its connection, so a client that disconnected mid-tune releases
/// the thread within one interval instead of pinning it for the full
/// [`WAITER_TIMEOUT`].
const WAITER_POLL: Duration = Duration::from_millis(250);

/// Write timeout on every accepted socket. A peer that stops reading
/// (full socket buffer) fails its next write within this bound instead of
/// blocking the writer forever — load-bearing for the event hub, where a
/// stalled subscriber would otherwise wedge every emitting worker and
/// reader.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// Upper bound on the supervisor's wait for readers to flush accepted
/// tune responses to their sockets before it cuts connections. Generous:
/// a flush needs at most one waiter poll plus one socket write timeout.
const RESPONSE_FLUSH_TIMEOUT: Duration = Duration::from_secs(30);

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port `0` picks an ephemeral port.
    pub addr: String,
    /// Tune worker threads.
    pub workers: usize,
    /// Global bound on queued (not yet started) tune jobs.
    pub queue_cap: usize,
    /// Per-client bound on queued tune jobs.
    pub client_cap: usize,
    /// Persistent-cache shards (ignored without `cache_dir`).
    pub shards: usize,
    /// Root directory for the sharded persistent cache; `None` disables
    /// persistence (tunes still coalesce, nothing survives restart).
    pub cache_dir: Option<PathBuf>,
    /// Problem size the registry prepares.
    pub workload: Workload,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 256,
            client_cap: 32,
            shards: 4,
            cache_dir: None,
            workload: Workload::Small,
        }
    }
}

/// Monotonic server counters, readable via the `stats` operation.
#[derive(Default)]
pub struct ServerStats {
    /// Request lines parsed (valid or not), across all connections.
    pub requests: AtomicU64,
    /// `tune` requests received.
    pub tune_requests: AtomicU64,
    /// Tune jobs actually executed by workers.
    pub tunes_executed: AtomicU64,
    /// Tune requests that attached to an in-flight job.
    pub coalesced: AtomicU64,
    /// Tune requests rejected by admission control.
    pub rejected_overload: AtomicU64,
    /// Tune requests rejected because the daemon was draining.
    pub rejected_shutdown: AtomicU64,
    /// Lines that failed to parse as a request.
    pub bad_requests: AtomicU64,
    /// Oversized request lines.
    pub oversized: AtomicU64,
    /// Persistent-cache hits summed over executed tunes.
    pub persistent_hits: AtomicU64,
    /// Persistent-cache misses summed over executed tunes.
    pub persistent_misses: AtomicU64,
    /// Unique IR versions compiled, summed over executed tunes.
    pub compiles: AtomicU64,
    /// Measurement-runner invocations, summed over executed tunes.
    pub runner_calls: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
}

impl ServerStats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

struct Shared {
    config: ServeConfig,
    registry: Registry,
    scheduler: Scheduler,
    hub: EventHub,
    stats: ServerStats,
    /// Cache shards (empty when persistence is disabled).
    shards: Vec<Arc<TuningCache>>,
    /// Set once a `shutdown` request is acknowledged.
    shutdown_requested: AtomicBool,
    /// Wakes the supervisor exactly once.
    shutdown_tx: Mutex<Option<Sender<()>>>,
    /// Completion sequence numbers (1-based).
    completed_seq: AtomicU64,
    /// Live connection writers, for the final unblock. Registered by the
    /// accept loop *before* the reader thread starts, so by the time the
    /// accept loop is joined every reader's writer is here.
    conns: Mutex<HashMap<u64, Arc<ConnWriter>>>,
    /// Reader-thread handles, joined by the supervisor.
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// Readers holding an accepted tune waiter whose response has not yet
    /// been written to (or abandoned at) the socket. The supervisor waits
    /// for this to reach zero before disconnecting, so joining the
    /// workers (channel delivery) is never mistaken for the response
    /// actually reaching the client (socket delivery).
    inflight_responses: Mutex<u64>,
    responses_flushed: Condvar,
    next_conn: AtomicU64,
    /// Bound listener address, set once at startup (the supervisor's
    /// self-connection needs it).
    addr_cell: Mutex<Option<SocketAddr>>,
}

impl Shared {
    fn request_shutdown(&self) {
        if !self.shutdown_requested.swap(true, Ordering::SeqCst) {
            if let Some(tx) = self.shutdown_tx.lock().expect("shutdown lock").take() {
                let _ = tx.send(());
            }
        }
    }

    /// Marks this reader as owing a socket write for a tune request.
    /// Taken *before* the scheduler submission so the supervisor can
    /// never observe an accepted waiter without its in-flight marker.
    fn begin_response(self: &Arc<Self>) -> ResponseGuard {
        *self.inflight_responses.lock().expect("inflight lock") += 1;
        ResponseGuard {
            shared: self.clone(),
        }
    }

    /// Blocks until every in-flight tune response has been written to (or
    /// abandoned at) its socket, bounded by [`RESPONSE_FLUSH_TIMEOUT`].
    fn await_responses_flushed(&self) {
        let deadline = Instant::now() + RESPONSE_FLUSH_TIMEOUT;
        let mut inflight = self.inflight_responses.lock().expect("inflight lock");
        while *inflight > 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return;
            };
            inflight = self
                .responses_flushed
                .wait_timeout(inflight, left)
                .expect("inflight lock")
                .0;
        }
    }
}

/// RAII marker for one pending tune response; dropping it (response
/// written, client found dead, or the reader unwinding) releases the
/// supervisor's flush wait.
struct ResponseGuard {
    shared: Arc<Shared>,
}

impl Drop for ResponseGuard {
    fn drop(&mut self) {
        let mut inflight = self
            .shared
            .inflight_responses
            .lock()
            .expect("inflight lock");
        *inflight -= 1;
        if *inflight == 0 {
            self.shared.responses_flushed.notify_all();
        }
    }
}

/// Handle to a started server.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    supervisor: JoinHandle<()>,
}

impl Server {
    /// Prepares the registry, opens the cache shards, binds the listener
    /// and starts every thread. Returns once the server is accepting.
    ///
    /// # Errors
    ///
    /// Propagates bind and cache-open failures.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let registry = Registry::prepare(config.workload);
        let mut shards = Vec::new();
        if let Some(dir) = &config.cache_dir {
            for i in 0..config.shards.max(1) {
                shards.push(Arc::new(TuningCache::open(
                    dir.join(format!("shard-{i:02}")),
                )?));
            }
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let (shutdown_tx, shutdown_rx) = channel();
        let scheduler = Scheduler::new(config.queue_cap, config.client_cap);
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            config,
            registry,
            scheduler,
            hub: EventHub::new(),
            stats: ServerStats::default(),
            shards,
            shutdown_requested: AtomicBool::new(false),
            shutdown_tx: Mutex::new(Some(shutdown_tx)),
            completed_seq: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            readers: Mutex::new(Vec::new()),
            inflight_responses: Mutex::new(0),
            responses_flushed: Condvar::new(),
            next_conn: AtomicU64::new(0),
            addr_cell: Mutex::new(Some(addr)),
        });

        let worker_handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|w| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("tune-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name("accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept");

        let sup_shared = shared.clone();
        let supervisor = std::thread::Builder::new()
            .name("supervisor".to_string())
            .spawn(move || {
                // Sleep until shutdown is requested (or every sender is
                // dropped, which cannot happen while Shared lives).
                let _ = shutdown_rx.recv();
                let shared = sup_shared;
                // 1. Stop admitting tune work; let queued jobs finish.
                shared.scheduler.drain();
                // 2. Workers exit once the queue is empty; joining them
                //    guarantees every accepted waiter's outcome has been
                //    delivered into its reader's channel.
                for handle in worker_handles {
                    let _ = handle.join();
                }
                shared
                    .hub
                    .emit("shutdown", JsonObject::new().str("state", "drained"));
                // 3. Stop the accept loop: the flag is already set, a
                //    self-connection unblocks `accept()`.
                let _ = TcpStream::connect(shared.addr());
                let _ = accept.join();
                // 4. Channel delivery (step 2) is not socket delivery:
                //    readers still need to wake and write the response.
                //    Wait for every in-flight tune response to reach its
                //    socket before cutting connections, so no accepted
                //    waiter's answer is lost to the disconnect below.
                shared.await_responses_flushed();
                // 5. Unblock every reader still parked in `read()`; only
                //    idle connections remain.
                for writer in shared.conns.lock().expect("conns lock").values() {
                    writer.disconnect();
                }
                let readers = std::mem::take(&mut *shared.readers.lock().expect("readers lock"));
                for handle in readers {
                    let _ = handle.join();
                }
            })
            .expect("spawn supervisor");

        Ok(Server {
            addr,
            shared,
            supervisor,
        })
    }

    /// The bound address (useful with port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown programmatically (equivalent to the `shutdown`
    /// operation).
    pub fn shutdown(&self) {
        self.shared.request_shutdown();
    }

    /// Blocks until the server has fully drained and every thread exited.
    pub fn join(self) {
        let _ = self.supervisor.join();
    }
}

impl Shared {
    fn addr(&self) -> SocketAddr {
        self.addr_cell
            .lock()
            .expect("addr lock")
            .expect("addr set at startup")
    }
}

// ---------------------------------------------------------------------------
// Accept + reader threads
// ---------------------------------------------------------------------------

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown_requested.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // The timeout applies to the shared socket (responses and
        // events): a peer that stops reading fails its writes within the
        // bound instead of blocking the event hub or a reader forever.
        let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
        // Every write is a whole line; none should wait for an ACK.
        let _ = stream.set_nodelay(true);
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        ServerStats::bump(&shared.stats.connections);
        let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed) + 1;
        let writer = Arc::new(ConnWriter::new(clone));
        // Register before spawning the reader: the shutdown sequence
        // relies on every live reader's writer being visible here once
        // the accept loop has been joined.
        shared
            .conns
            .lock()
            .expect("conns lock")
            .insert(conn_id, writer.clone());
        let conn_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name(format!("conn-{conn_id}"))
            .spawn(move || {
                handle_connection(&conn_shared, stream, &writer, conn_id);
            })
            .expect("spawn reader");
        let mut readers = shared.readers.lock().expect("readers lock");
        // Reap exited readers as new connections arrive, so a long-lived
        // daemon does not accumulate one handle per connection ever
        // served. Dropping a finished handle detaches a thread that has
        // already terminated; shutdown still joins the live remainder.
        readers.retain(|h| !h.is_finished());
        readers.push(handle);
    }
}

fn handle_connection(
    shared: &Arc<Shared>,
    stream: TcpStream,
    writer: &Arc<ConnWriter>,
    conn_id: u64,
) {
    let mut reader = BufReader::new(stream);
    loop {
        match read_line_capped(&mut reader) {
            Err(_) | Ok(LineRead::Eof) => break,
            Ok(LineRead::Oversized) => {
                ServerStats::bump(&shared.stats.oversized);
                let err = WireError::new(
                    codes::OVERSIZED,
                    format!("request line exceeds {} bytes", crate::wire::MAX_LINE_BYTES),
                );
                let _ = writer.send_line(&error_response(None, None, &err));
                break;
            }
            Ok(LineRead::Line(line)) => {
                if line.trim().is_empty() {
                    continue;
                }
                ServerStats::bump(&shared.stats.requests);
                let keep_going = match parse_request(&line) {
                    Err(err) => {
                        ServerStats::bump(&shared.stats.bad_requests);
                        writer.send_line(&error_response(None, None, &err)).is_ok()
                    }
                    Ok(envelope) => dispatch(shared, writer, conn_id, envelope),
                };
                if !keep_going {
                    break;
                }
            }
        }
    }
    shared.hub.unsubscribe(conn_id);
    shared.conns.lock().expect("conns lock").remove(&conn_id);
}

/// Serves one request; `false` closes the connection.
fn dispatch(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, conn_id: u64, env: Envelope) -> bool {
    let id = env.id.as_deref();
    match env.request {
        Request::Ping => writer.send_line(&ok_response("ping", id).finish()).is_ok(),
        Request::Stats => {
            let s = &shared.stats;
            let line = ok_response("stats", id)
                .u64("requests", ServerStats::get(&s.requests))
                .u64("tune_requests", ServerStats::get(&s.tune_requests))
                .u64("tunes_executed", ServerStats::get(&s.tunes_executed))
                .u64("coalesced", ServerStats::get(&s.coalesced))
                .u64("rejected_overload", ServerStats::get(&s.rejected_overload))
                .u64("rejected_shutdown", ServerStats::get(&s.rejected_shutdown))
                .u64("bad_requests", ServerStats::get(&s.bad_requests))
                .u64("oversized", ServerStats::get(&s.oversized))
                .u64("persistent_hits", ServerStats::get(&s.persistent_hits))
                .u64("persistent_misses", ServerStats::get(&s.persistent_misses))
                .u64("compiles", ServerStats::get(&s.compiles))
                .u64("runner_calls", ServerStats::get(&s.runner_calls))
                .u64("connections", ServerStats::get(&s.connections))
                .u64("pending", shared.scheduler.pending() as u64)
                .bool("draining", shared.scheduler.is_draining())
                .u64("workers", shared.config.workers.max(1) as u64)
                .u64("cache_shards", shared.shards.len() as u64)
                .finish();
            writer.send_line(&line).is_ok()
        }
        Request::Apps => {
            let names = shared.registry.names().join(",");
            let line = ok_response("apps", id)
                .u64("count", shared.registry.names().len() as u64)
                .str("apps", &names)
                .str("targets", &TARGET_NAMES.join(","))
                .finish();
            writer.send_line(&line).is_ok()
        }
        Request::Subscribe => {
            shared.hub.subscribe(conn_id, writer.clone());
            writer
                .send_line(&ok_response("subscribe", id).finish())
                .is_ok()
        }
        Request::Shutdown => {
            let sent = writer
                .send_line(&ok_response("shutdown", id).bool("draining", true).finish())
                .is_ok();
            shared.request_shutdown();
            sent
        }
        Request::Compile { app, target } => {
            let Some(prepared) = shared.registry.app(&app) else {
                let err = WireError::new(codes::UNKNOWN_APP, format!("no workload {app:?}"));
                return writer
                    .send_line(&error_response(Some("compile"), id, &err))
                    .is_ok();
            };
            let Some(desc) = targets::by_name(&target) else {
                let err = WireError::new(codes::UNKNOWN_TARGET, format!("no target {target:?}"));
                return writer
                    .send_line(&error_response(Some("compile"), id, &err))
                    .is_ok();
            };
            let line = ok_response("compile", id)
                .str("app", &app)
                .str("target", &target)
                .str("kernel", prepared.app.main_kernel())
                .str("input_hash", &hex64(prepared.input_hash))
                .str("target_fingerprint", &hex64(desc.fingerprint()))
                .i64("block_x", prepared.block_dims[0])
                .i64("block_y", prepared.block_dims[1])
                .i64("block_z", prepared.block_dims[2])
                .finish();
            writer.send_line(&line).is_ok()
        }
        Request::Tune {
            app,
            target,
            totals,
            strategy,
        } => {
            ServerStats::bump(&shared.stats.tune_requests);
            let Some(prepared) = shared.registry.app(&app) else {
                let err = WireError::new(codes::UNKNOWN_APP, format!("no workload {app:?}"));
                return writer
                    .send_line(&error_response(Some("tune"), id, &err))
                    .is_ok();
            };
            let Some(desc) = targets::by_name(&target) else {
                let err = WireError::new(codes::UNKNOWN_TARGET, format!("no target {target:?}"));
                return writer
                    .send_line(&error_response(Some("tune"), id, &err))
                    .is_ok();
            };
            let configs = candidate_configs(strategy, &totals, &prepared.block_dims);
            let key = JobKey {
                input_hash: prepared.input_hash,
                target: desc.fingerprint(),
                search: TuningCache::search_fingerprint(&configs),
            };
            let job = TuneJob {
                key,
                app: prepared,
                target: desc,
                target_name: target.clone(),
                totals,
                strategy,
                configs,
                client: env.client.clone(),
                enqueued: Instant::now(),
            };
            let (tx, rx) = channel();
            // Mark the pending socket write *before* submitting: from the
            // instant the scheduler holds the waiter, the shutdown
            // sequence must not cut sockets until this reader has written
            // (or abandoned) its response. Dropped on every path out of
            // this arm.
            let _pending = shared.begin_response();
            let coalesced = match shared.scheduler.submit(job, tx) {
                Submit::Rejected(err) => {
                    if err.code == codes::SHUTTING_DOWN {
                        ServerStats::bump(&shared.stats.rejected_shutdown);
                    } else {
                        ServerStats::bump(&shared.stats.rejected_overload);
                    }
                    shared.hub.emit(
                        "reject",
                        JsonObject::new()
                            .str("app", &app)
                            .str("target", &target)
                            .str("client", &env.client)
                            .str("error", err.code),
                    );
                    return writer
                        .send_line(&error_response(Some("tune"), id, &err))
                        .is_ok();
                }
                Submit::Enqueued => {
                    shared.hub.emit(
                        "enqueue",
                        JsonObject::new()
                            .str("app", &app)
                            .str("target", &target)
                            .str("client", &env.client)
                            .str("key", &hex64(key.input_hash ^ key.target ^ key.search)),
                    );
                    false
                }
                Submit::Coalesced => {
                    ServerStats::bump(&shared.stats.coalesced);
                    shared.hub.emit(
                        "coalesce",
                        JsonObject::new()
                            .str("app", &app)
                            .str("target", &target)
                            .str("client", &env.client)
                            .str("key", &hex64(key.input_hash ^ key.target ^ key.search)),
                    );
                    true
                }
            };
            // Short polls instead of one long block: each timeout probes
            // the connection, so a client that disconnected mid-tune
            // frees this thread within one poll interval instead of
            // pinning it (and its coalesced waiter slot) for the full
            // WAITER_TIMEOUT. The worker's eventual send to the dropped
            // receiver fails harmlessly.
            let deadline = Instant::now() + WAITER_TIMEOUT;
            let outcome = loop {
                match rx.recv_timeout(WAITER_POLL) {
                    Ok(outcome) => break outcome,
                    Err(RecvTimeoutError::Disconnected) => {
                        let err = WireError::new(codes::TUNE_FAILED, "worker lost");
                        return writer
                            .send_line(&error_response(Some("tune"), id, &err))
                            .is_ok();
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        if Instant::now() >= deadline {
                            let err =
                                WireError::new(codes::TUNE_FAILED, "worker lost or timed out");
                            return writer
                                .send_line(&error_response(Some("tune"), id, &err))
                                .is_ok();
                        }
                        if writer.peer_closed() {
                            return false;
                        }
                    }
                }
            };
            writer
                .send_line(&tune_response(id, coalesced, &outcome))
                .is_ok()
        }
    }
}

fn tune_response(id: Option<&str>, coalesced: bool, outcome: &TuneOutcome) -> String {
    if let Some(error) = &outcome.error {
        return error_response(
            Some("tune"),
            id,
            &WireError::new(codes::TUNE_FAILED, error.clone()),
        );
    }
    ok_response("tune", id)
        .str("app", &outcome.app)
        .str("target", &outcome.target)
        .bool("coalesced", coalesced)
        .str(
            "winner_config",
            outcome.winner_config.as_deref().unwrap_or(""),
        )
        .str("seconds_bits", &hex64(outcome.seconds_bits))
        .f64("best_seconds", f64::from_bits(outcome.seconds_bits))
        .u64("best_regs", u64::from(outcome.best_regs))
        .str("winner_hash", &hex64(outcome.winner_hash))
        .str("input_hash", &hex64(outcome.input_hash))
        .u64("compiles", outcome.compiles as u64)
        .u64("runner_calls", outcome.runner_calls as u64)
        .u64("persistent_hits", outcome.persistent_hits as u64)
        .u64("persistent_misses", outcome.persistent_misses as u64)
        .u64("candidates", outcome.candidates as u64)
        .f64("queue_ms", outcome.queue_ms)
        .f64("tune_ms", outcome.tune_ms)
        .u64("seq", outcome.seq)
        .finish()
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.scheduler.next_job() {
        ServerStats::bump(&shared.stats.tunes_executed);
        let queue_ms = job.enqueued.elapsed().as_secs_f64() * 1e3;
        shared.hub.emit(
            "start",
            JsonObject::new()
                .str("app", job.app.app.name())
                .str("target", &job.target_name)
                .str("client", &job.client)
                .f64("queue_ms", queue_ms),
        );
        // Trace collection costs allocation per event; only pay for it
        // when someone is subscribed to the feed.
        let trace = if shared.hub.has_subscribers() {
            Trace::new()
        } else {
            Trace::disabled()
        };
        let mut outcome = execute_tune(shared, &job, &trace, queue_ms);
        outcome.seq = shared.completed_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if shared.hub.has_subscribers() {
            let key = hex64(job.key.input_hash ^ job.key.target ^ job.key.search);
            for line in shared.trace_lines(&trace) {
                shared.hub.emit(
                    "trace",
                    JsonObject::new().str("key", &key).str("data", &line),
                );
            }
        }
        shared.hub.emit(
            "finish",
            JsonObject::new()
                .str("app", &outcome.app)
                .str("target", &outcome.target)
                .str("winner", outcome.winner_config.as_deref().unwrap_or("-"))
                .u64("compiles", outcome.compiles as u64)
                .f64("tune_ms", outcome.tune_ms)
                .u64("seq", outcome.seq),
        );
        for waiter in shared.scheduler.complete(job.key) {
            // A waiter whose connection died mid-tune is gone; fine.
            let _ = waiter.send(outcome.clone());
        }
    }
}

impl Shared {
    fn trace_lines(&self, trace: &Trace) -> Vec<String> {
        trace.json_lines().lines().map(str::to_string).collect()
    }
}

fn execute_tune(shared: &Arc<Shared>, job: &TuneJob, trace: &Trace, queue_ms: f64) -> TuneOutcome {
    let mut options = TuneOptions::serial()
        .strategy(job.strategy)
        .totals(&job.totals);
    if !shared.shards.is_empty() {
        let shard = job.key.shard(shared.shards.len());
        options = options.cache(shared.shards[shard].clone());
    }
    let started = Instant::now();
    let result = tune_kernel_pooled(
        &job.app.func,
        job.target.as_ref(),
        &job.configs,
        &options,
        || {
            respec_bench::app_runner(
                job.app.app.as_ref(),
                &job.app.module,
                job.target.as_ref(),
                job.app.app.main_kernel(),
            )
        },
        trace,
    );
    let tune_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut outcome = TuneOutcome {
        app: job.app.app.name().to_string(),
        target: job.target_name.clone(),
        input_hash: job.key.input_hash,
        queue_ms,
        tune_ms,
        ..TuneOutcome::default()
    };
    match result {
        Ok(result) => {
            let stats = &result.stats;
            ServerStats::add(&shared.stats.compiles, stats.cache_misses as u64);
            ServerStats::add(&shared.stats.runner_calls, stats.runner_calls as u64);
            ServerStats::add(&shared.stats.persistent_hits, stats.persistent_hits as u64);
            ServerStats::add(
                &shared.stats.persistent_misses,
                stats.persistent_misses as u64,
            );
            outcome.winner_config = Some(result.best_config.to_string());
            outcome.seconds_bits = result.best_seconds.to_bits();
            outcome.best_regs = result.best_regs;
            outcome.winner_hash = respec_ir::structural_hash(&result.best);
            outcome.compiles = stats.cache_misses;
            outcome.runner_calls = stats.runner_calls;
            outcome.persistent_hits = stats.persistent_hits;
            outcome.persistent_misses = stats.persistent_misses;
            outcome.candidates = result.candidates.len();
        }
        Err(err) => outcome.error = Some(err.to_string()),
    }
    outcome
}
