//! Admission control, per-client fairness, and request coalescing.
//!
//! The scheduler is the daemon's front door for tune work:
//!
//! * **Coalescing** — jobs are keyed by `(structural hash of the input
//!   kernel, target fingerprint, search fingerprint)`. While a job with
//!   some key is queued or running, every further request for the same
//!   key *attaches* as a waiter instead of enqueueing a second tune; on
//!   completion all waiters receive clones of one outcome, so their
//!   winners are bit-identical by construction. Attaching is always
//!   admitted (it adds no work), even while draining.
//! * **Fairness** — each client (tenant) has its own FIFO queue; workers
//!   pop round-robin across clients with pending work, so a hot tenant
//!   that enqueues a deep backlog cannot starve a quiet one: the quiet
//!   tenant's next job is served after at most one job per other client.
//! * **Admission control** — a bounded global queue and a bounded
//!   per-client queue; exceeding either yields a structured `overloaded`
//!   rejection rather than unbounded memory growth or head-of-line
//!   collapse.
//! * **Draining** — once draining starts, new jobs are rejected
//!   (`shutting-down`) but queued jobs still run to completion, so every
//!   accepted waiter is answered before the daemon exits.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use respec_opt::CoarsenConfig;
use respec_sim::TargetModel;
use respec_tune::Strategy;

use crate::registry::PreparedApp;
use crate::wire::{codes, WireError};

/// The coalescing / cache key of one tune job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JobKey {
    /// Structural hash of the input kernel.
    pub input_hash: u64,
    /// Target fingerprint.
    pub target: u64,
    /// Search-space fingerprint (digest of the candidate config list).
    pub search: u64,
}

impl JobKey {
    /// Deterministic shard assignment: the same key always lands on the
    /// same cache shard, regardless of which worker runs it.
    pub fn shard(&self, shards: usize) -> usize {
        if shards <= 1 {
            return 0;
        }
        let mixed = self.input_hash ^ self.target.rotate_left(17) ^ self.search.rotate_left(31);
        (mixed % shards as u64) as usize
    }
}

/// One accepted tune job.
pub struct TuneJob {
    /// Coalescing / cache key.
    pub key: JobKey,
    /// The prepared workload.
    pub app: Arc<PreparedApp>,
    /// Concrete target model (GPU descriptor or CPU descriptor).
    pub target: Arc<dyn TargetModel>,
    /// Protocol name of the target (echoed in responses and events).
    pub target_name: String,
    /// Totals ladder for candidate generation.
    pub totals: Vec<i64>,
    /// Candidate-generation strategy.
    pub strategy: Strategy,
    /// The generated candidate set (already fingerprinted into the key).
    pub configs: Vec<CoarsenConfig>,
    /// Owning tenant (the client that first enqueued the key).
    pub client: String,
    /// Enqueue timestamp, for queue-delay accounting.
    pub enqueued: Instant,
}

/// What every waiter of a job receives. Winners are reported as the exact
/// bit patterns (`seconds_bits`, hashes) so "bit-identical for all
/// waiters" is directly checkable as string equality on the wire.
#[derive(Clone, Debug, Default)]
pub struct TuneOutcome {
    /// Workload name.
    pub app: String,
    /// Protocol target name.
    pub target: String,
    /// Winning configuration (display form), when the tune succeeded.
    pub winner_config: Option<String>,
    /// IEEE-754 bits of the winner's measured seconds.
    pub seconds_bits: u64,
    /// Winner's registers per thread.
    pub best_regs: u32,
    /// Structural hash of the winning kernel version.
    pub winner_hash: u64,
    /// Structural hash of the input kernel (the coalescing key half).
    pub input_hash: u64,
    /// Unique IR versions that reached backend compilation.
    pub compiles: usize,
    /// Measurement-runner invocations performed.
    pub runner_calls: usize,
    /// Persistent-cache hits observed by the engine.
    pub persistent_hits: usize,
    /// Persistent-cache misses observed by the engine.
    pub persistent_misses: usize,
    /// Candidate configurations explored.
    pub candidates: usize,
    /// Milliseconds the job waited in the queue before a worker took it.
    pub queue_ms: f64,
    /// Milliseconds the tune itself ran.
    pub tune_ms: f64,
    /// Global completion sequence number (1-based).
    pub seq: u64,
    /// Error description when no winner was produced.
    pub error: Option<String>,
}

/// Channel end a waiting request blocks on.
pub type Waiter = Sender<TuneOutcome>;

/// Outcome of a submission attempt.
pub enum Submit {
    /// A new job was enqueued; the waiter is attached to it.
    Enqueued,
    /// An identical job was already in flight; the waiter attached to it.
    Coalesced,
    /// Admission control or draining rejected the request.
    Rejected(WireError),
}

struct State {
    /// Per-client FIFO queues of not-yet-started jobs.
    queues: HashMap<String, VecDeque<TuneJob>>,
    /// Clients with non-empty queues, in round-robin order.
    rr: VecDeque<String>,
    /// Waiters per in-flight key (queued or running).
    inflight: HashMap<JobKey, Vec<Waiter>>,
    /// Jobs queued but not yet started.
    pending: usize,
    /// Draining: reject new jobs, finish queued ones, then stop workers.
    draining: bool,
}

/// The shared scheduler.
pub struct Scheduler {
    state: Mutex<State>,
    available: Condvar,
    /// Bound on jobs queued across all clients.
    pub queue_cap: usize,
    /// Bound on jobs queued per client.
    pub client_cap: usize,
}

impl Scheduler {
    /// Creates a scheduler with the given admission bounds.
    pub fn new(queue_cap: usize, client_cap: usize) -> Scheduler {
        Scheduler {
            state: Mutex::new(State {
                queues: HashMap::new(),
                rr: VecDeque::new(),
                inflight: HashMap::new(),
                pending: 0,
                draining: false,
            }),
            available: Condvar::new(),
            queue_cap,
            client_cap,
        }
    }

    /// Submits a job, attaching `waiter` to its (possibly pre-existing)
    /// in-flight entry.
    pub fn submit(&self, job: TuneJob, waiter: Waiter) -> Submit {
        let mut s = self.state.lock().expect("scheduler lock");
        if let Some(waiters) = s.inflight.get_mut(&job.key) {
            waiters.push(waiter);
            return Submit::Coalesced;
        }
        if s.draining {
            return Submit::Rejected(WireError::new(
                codes::SHUTTING_DOWN,
                "daemon is draining; no new work accepted",
            ));
        }
        if s.pending >= self.queue_cap {
            return Submit::Rejected(WireError::new(
                codes::OVERLOADED,
                format!("global queue full ({} pending)", s.pending),
            ));
        }
        let client_depth = s.queues.get(&job.client).map_or(0, VecDeque::len);
        if client_depth >= self.client_cap {
            return Submit::Rejected(WireError::new(
                codes::OVERLOADED,
                format!("client queue full ({client_depth} pending)"),
            ));
        }
        if client_depth == 0 {
            s.rr.push_back(job.client.clone());
        }
        s.inflight.insert(job.key, vec![waiter]);
        let client = job.client.clone();
        s.queues.entry(client).or_default().push_back(job);
        s.pending += 1;
        self.available.notify_one();
        Submit::Enqueued
    }

    /// Blocks until a job is available; `None` once draining and empty
    /// (the worker should exit).
    pub fn next_job(&self) -> Option<TuneJob> {
        let mut s = self.state.lock().expect("scheduler lock");
        loop {
            if let Some(job) = State::pop(&mut s) {
                return Some(job);
            }
            if s.draining {
                return None;
            }
            s = self.available.wait(s).expect("scheduler lock");
        }
    }

    /// Non-blocking pop (used by tests).
    pub fn try_next_job(&self) -> Option<TuneJob> {
        State::pop(&mut self.state.lock().expect("scheduler lock"))
    }

    /// Detaches and returns the waiters of a completed key.
    pub fn complete(&self, key: JobKey) -> Vec<Waiter> {
        self.state
            .lock()
            .expect("scheduler lock")
            .inflight
            .remove(&key)
            .unwrap_or_default()
    }

    /// Starts draining: new submissions are rejected, queued jobs still
    /// run, idle workers wake up to observe the drain.
    pub fn drain(&self) {
        let mut s = self.state.lock().expect("scheduler lock");
        s.draining = true;
        self.available.notify_all();
    }

    /// Whether draining has started.
    pub fn is_draining(&self) -> bool {
        self.state.lock().expect("scheduler lock").draining
    }

    /// Jobs queued but not yet started.
    pub fn pending(&self) -> usize {
        self.state.lock().expect("scheduler lock").pending
    }
}

impl State {
    fn pop(s: &mut State) -> Option<TuneJob> {
        while let Some(client) = s.rr.pop_front() {
            if let Some(q) = s.queues.get_mut(&client) {
                if let Some(job) = q.pop_front() {
                    if q.is_empty() {
                        s.queues.remove(&client);
                    } else {
                        s.rr.push_back(client);
                    }
                    s.pending -= 1;
                    return Some(job);
                }
                s.queues.remove(&client);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use respec_rodinia::Workload;
    use std::sync::mpsc::channel;
    use std::sync::OnceLock;

    use crate::registry::Registry;

    fn registry() -> &'static Registry {
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        REGISTRY.get_or_init(|| Registry::prepare(Workload::Small))
    }

    fn job(client: &str, key_salt: u64) -> TuneJob {
        let app = registry().app("gaussian").expect("registered");
        let target = respec_sim::targets::by_name("a100").expect("registered");
        let configs = respec_tune::candidate_configs(Strategy::Combined, &[1, 2], &app.block_dims);
        TuneJob {
            key: JobKey {
                input_hash: app.input_hash,
                target: target.fingerprint(),
                search: key_salt,
            },
            app,
            target,
            target_name: "a100".into(),
            totals: vec![1, 2],
            strategy: Strategy::Combined,
            configs,
            client: client.into(),
            enqueued: Instant::now(),
        }
    }

    #[test]
    fn round_robin_interleaves_clients() {
        let sched = Scheduler::new(64, 16);
        // Hot client enqueues four jobs, then a quiet client enqueues one.
        for i in 0..4 {
            let (tx, _rx) = channel();
            assert!(matches!(sched.submit(job("hot", i), tx), Submit::Enqueued));
        }
        let (tx, _rx) = channel();
        assert!(matches!(
            sched.submit(job("quiet", 100), tx),
            Submit::Enqueued
        ));
        // Pop order must alternate: the quiet client's single job is
        // served after exactly one more hot job, not after the backlog.
        let order: Vec<String> = std::iter::from_fn(|| sched.try_next_job())
            .map(|j| j.client)
            .collect();
        assert_eq!(order, ["hot", "quiet", "hot", "hot", "hot"]);
    }

    #[test]
    fn duplicate_keys_coalesce_onto_one_job() {
        let sched = Scheduler::new(64, 16);
        let (tx1, _rx1) = channel();
        assert!(matches!(sched.submit(job("a", 7), tx1), Submit::Enqueued));
        // Same key from other clients: attach, regardless of tenant.
        let (tx2, _rx2) = channel();
        assert!(matches!(sched.submit(job("b", 7), tx2), Submit::Coalesced));
        let (tx3, _rx3) = channel();
        assert!(matches!(sched.submit(job("c", 7), tx3), Submit::Coalesced));
        assert_eq!(sched.pending(), 1, "one queued job carries three waiters");
        let popped = sched.try_next_job().expect("job queued");
        // Still in flight while running: latecomers keep attaching.
        let (tx4, _rx4) = channel();
        assert!(matches!(sched.submit(job("d", 7), tx4), Submit::Coalesced));
        assert_eq!(sched.complete(popped.key).len(), 4);
        // After completion the key is fresh again.
        let (tx5, _rx5) = channel();
        assert!(matches!(sched.submit(job("e", 7), tx5), Submit::Enqueued));
    }

    #[test]
    fn admission_bounds_are_enforced_per_client_and_globally() {
        let sched = Scheduler::new(3, 2);
        let (tx, _rx) = channel();
        assert!(matches!(sched.submit(job("a", 0), tx), Submit::Enqueued));
        let (tx, _rx) = channel();
        assert!(matches!(sched.submit(job("a", 1), tx), Submit::Enqueued));
        // Per-client cap.
        let (tx, _rx) = channel();
        match sched.submit(job("a", 2), tx) {
            Submit::Rejected(e) => assert_eq!(e.code, codes::OVERLOADED),
            _ => panic!("expected per-client rejection"),
        }
        // Another client still fits…
        let (tx, _rx) = channel();
        assert!(matches!(sched.submit(job("b", 3), tx), Submit::Enqueued));
        // …until the global cap trips.
        let (tx, _rx) = channel();
        match sched.submit(job("c", 4), tx) {
            Submit::Rejected(e) => assert_eq!(e.code, codes::OVERLOADED),
            _ => panic!("expected global rejection"),
        }
        // Coalescing onto in-flight work is always admitted.
        let (tx, _rx) = channel();
        assert!(matches!(sched.submit(job("d", 0), tx), Submit::Coalesced));
    }

    #[test]
    fn draining_rejects_new_work_but_finishes_queued_jobs() {
        let sched = Scheduler::new(8, 8);
        let (tx, _rx) = channel();
        assert!(matches!(sched.submit(job("a", 0), tx), Submit::Enqueued));
        sched.drain();
        let (tx, _rx) = channel();
        match sched.submit(job("a", 1), tx) {
            Submit::Rejected(e) => assert_eq!(e.code, codes::SHUTTING_DOWN),
            _ => panic!("expected shutting-down rejection"),
        }
        // The queued job is still served; attaching to it is still legal.
        let (tx, _rx) = channel();
        assert!(matches!(sched.submit(job("b", 0), tx), Submit::Coalesced));
        assert!(sched.next_job().is_some());
        assert!(sched.next_job().is_none(), "drained and empty");
    }

    #[test]
    fn shard_assignment_is_deterministic_and_in_range() {
        let key = JobKey {
            input_hash: 0xdead_beef,
            target: 42,
            search: 7,
        };
        for shards in 1..=8 {
            let s = key.shard(shards);
            assert!(s < shards);
            assert_eq!(s, key.shard(shards), "same key, same shard");
        }
    }
}
