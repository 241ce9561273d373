//! respec-serve — multi-tenant tuning-as-a-service.
//!
//! The paper's timing-driven optimization makes tuning a *build-time*
//! activity; this crate turns it into a *shared service*: a daemon that
//! owns the tuning engine, the persistent cache and the simulator-backed
//! measurement runners, and serves tune requests from many concurrent
//! clients over a line-delimited JSON protocol on TCP.
//!
//! What the daemon adds over calling the engine directly:
//!
//! * **Request coalescing** ([`scheduler`]): concurrent requests for the
//!   same `(kernel structural hash, target fingerprint, search
//!   fingerprint)` key share one tune; every waiter receives the same
//!   winner, bit-identical (the wire reports `seconds_bits` and hashes as
//!   fixed-width hex precisely so clients can check this by string
//!   equality).
//! * **Fair multi-tenancy**: per-client FIFO queues drained round-robin,
//!   with bounded global and per-client depth (structured `overloaded`
//!   rejections instead of collapse).
//! * **A sharded persistent cache** ([`respec_cache::TuningCache`]): keys
//!   deterministically map to shards, so repeated and restarted daemons
//!   serve warm requests with zero compiles.
//! * **Event streaming**: lifecycle events (enqueue / coalesce / start /
//!   finish / reject / shutdown) and full per-job tune traces broadcast
//!   to `subscribe`d connections.
//! * **Drain-based shutdown**: after `shutdown` is acknowledged no new
//!   work is admitted, but every accepted request is answered before the
//!   process exits.
//!
//! The protocol is specified in DESIGN.md ("Tuning as a service") and
//! pinned by `tests/protocol.rs`; the end-to-end semantics (coalescing,
//! warm cache, drain) are pinned by `tests/serve.rs`.

pub mod events;
pub mod registry;
pub mod scheduler;
pub mod server;
pub mod wire;

pub use registry::{PreparedApp, Registry, TARGET_NAMES};
pub use scheduler::{JobKey, Scheduler, Submit, TuneJob, TuneOutcome};
pub use server::{ServeConfig, Server, ServerStats};
pub use wire::{
    codes, error_response, hex64, ok_response, parse_request, read_line_capped, Envelope, Json,
    LineRead, Request, WireError, DEFAULT_REQUEST_TOTALS, MAX_JSON_DEPTH, MAX_LINE_BYTES,
};
