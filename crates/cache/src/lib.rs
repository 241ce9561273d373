//! Persistent, content-addressed tuning cache.
//!
//! Timing-driven optimization re-pays the full compile+measure cost on
//! every invocation, yet its outputs are durable artifacts: a backend
//! report depends only on the (canonicalized) kernel IR and the target,
//! and a tuning winner depends only on the input IR, the target, and the
//! searched configuration set. "A Few Fit Most" makes the same point from
//! the transfer side — a handful of tuned variants covers many devices —
//! so winners are worth keeping *across* targets too, as the pool a
//! fat-binary mine selects variants from ([`fatbin::mine_variants`]).
//!
//! This crate is the on-disk half of that story. A [`TuningCache`] is a
//! directory of small, versioned, self-describing entries addressed by
//! content keys:
//!
//! * **Compile reports** ([`StoredReport`]) are keyed by
//!   `(target kind, structural IR hash of the prepared version, target
//!   fingerprint)` — plus the pipeline and hash-scheme versions recorded
//!   inside the entry.
//! * **Tuning winners** ([`StoredWinner`]) are keyed by
//!   `(target kind, structural IR hash of the *input* kernel, target
//!   fingerprint, search fingerprint)`, where the target kind is the
//!   family tag (`"gpu"` / `"cpu"`) and the search fingerprint digests the
//!   candidate configuration list and nothing else.
//!
//! # Durability contract
//!
//! * **Writes are atomic**: entries are written to a temp file in the
//!   cache directory and `rename`d into place, so readers never observe a
//!   half-written entry and concurrent writers of the same key settle on
//!   one complete entry.
//! * **Reads are corruption-tolerant**: a truncated, garbled, or
//!   version-stale entry is a [`Lookup::Stale`] — morally a miss with a
//!   reason — never an error. A cache must not be able to fail a build.
//! * **Entries are versioned**: each records the on-disk format version,
//!   the structural-hash scheme version
//!   ([`respec_ir::STRUCTURAL_HASH_VERSION`]) and the pass-pipeline
//!   version ([`respec_opt::PIPELINE_VERSION`]). Bumping any of them
//!   invalidates old entries on read.
//!
//! The tuning engine (`respec-tune`) consults the cache before its
//! compile+measure phase and records hits/misses/invalidations in
//! `TuneStats`; the facade (`respec::Compiler::with_cache`) and the
//! `RESPEC_CACHE_DIR` environment variable wire a cache through the whole
//! pipeline.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use respec_backend::{BackendReport, KernelStats};
use respec_ir::{StableHasher, STRUCTURAL_HASH_VERSION};
use respec_opt::{CoarsenConfig, PIPELINE_VERSION};

pub mod fatbin;

/// On-disk entry format version (the `respec-cache-v<N>` header). Bump on
/// any change to the entry grammar.
///
/// v2 made every key target-**kind**-aware (`gpu`/`cpu` tag in file names
/// and a `target_kind` grammar line): fingerprints of different target
/// families live in disjoint hash domains already, but the kind tag makes
/// the separation structural — a CPU entry can never collide with or
/// replay into a GPU search even if fingerprints were to collide.
pub const FORMAT_VERSION: u32 = 2;

/// File extension of cache entries.
const EXT: &str = "rcache";

/// Outcome of a cache lookup.
#[derive(Clone, Debug, PartialEq)]
pub enum Lookup<T> {
    /// A complete, version-current entry was found.
    Hit(T),
    /// No entry exists under the key.
    Miss,
    /// An entry exists but is unusable — truncated, garbled, or written
    /// by a different format/pipeline/hash version. Semantically a miss;
    /// the reason is surfaced so invalidations are observable.
    Stale(String),
}

impl<T> Lookup<T> {
    /// The hit payload, if any.
    pub fn hit(self) -> Option<T> {
        match self {
            Lookup::Hit(t) => Some(t),
            _ => None,
        }
    }
}

/// Persisted backend feedback for one prepared kernel version on one
/// target: everything the tuning engine's evaluate phase derives from a
/// backend compile, so a hit skips that compile entirely.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredReport {
    /// The governing launch's report (spill decision source).
    pub backend: BackendReport,
    /// Worst-case register demand over all launches.
    pub worst_regs: u32,
    /// Worst-case spill units over all launches.
    pub spill_units: u32,
    /// Registers the engine would launch with.
    pub launch_regs: u32,
}

/// Persisted winner of one tuning search.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredWinner {
    /// Winning coarsening configuration.
    pub config: CoarsenConfig,
    /// Measured time of the winner, as IEEE-754 bits (bit-exact warm
    /// replay is part of the determinism contract).
    pub seconds_bits: u64,
    /// Registers per thread the winner launches with.
    pub regs: u32,
    /// Canonical printed IR of the winning version; `parse(print(f))`
    /// re-prints byte-identically (enforced by the round-trip property
    /// test), so the function is reconstructed exactly.
    pub ir: String,
    /// Fingerprint of the target the winner was measured on.
    pub target: u64,
    /// Kind tag of that target (`TargetKind::tag()`: `"gpu"` / `"cpu"`).
    /// Part of the key — cross-kind lookups always miss.
    pub target_kind: String,
}

impl StoredWinner {
    /// The measured time in seconds.
    pub fn seconds(&self) -> f64 {
        f64::from_bits(self.seconds_bits)
    }
}

/// A persistent tuning cache rooted at one directory.
pub struct TuningCache {
    dir: PathBuf,
    pipeline_version: u32,
}

impl fmt::Debug for TuningCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TuningCache")
            .field("dir", &self.dir)
            .field("pipeline_version", &self.pipeline_version)
            .finish()
    }
}

impl PartialEq for TuningCache {
    fn eq(&self, other: &TuningCache) -> bool {
        self.dir == other.dir && self.pipeline_version == other.pipeline_version
    }
}

impl TuningCache {
    /// Opens (creating if needed) a cache directory, keyed to the current
    /// [`respec_opt::PIPELINE_VERSION`].
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be created, when the path exists
    /// but is not a directory, or when the directory is not writable
    /// (checked with a create-and-delete probe file) — an unusable cache
    /// is a configuration error, unlike a corrupt *entry*, which is a
    /// miss.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<TuningCache> {
        TuningCache::open_versioned(dir, PIPELINE_VERSION)
    }

    /// [`TuningCache::open`] with an explicit pipeline version — the hook
    /// tests use to prove that bumping the pipeline invalidates entries.
    pub fn open_versioned(
        dir: impl Into<PathBuf>,
        pipeline_version: u32,
    ) -> io::Result<TuningCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        // `create_dir_all` succeeds without creating anything when the
        // path already exists — even when it is a regular file on some
        // platforms' error paths, and always when it is an existing
        // directory we cannot write to. Probe both now: an unusable cache
        // must fail at configuration time with a real error, not at the
        // first `store` deep inside a tuning run.
        let meta = fs::metadata(&dir)?;
        if !meta.is_dir() {
            return Err(io::Error::other(format!(
                "{} exists and is not a directory",
                dir.display()
            )));
        }
        let probe = dir.join(format!(".respec-cache-probe-{}", std::process::id()));
        fs::write(&probe, b"probe").map_err(|e| {
            io::Error::new(e.kind(), format!("{} is not writable: {e}", dir.display()))
        })?;
        let _ = fs::remove_file(&probe);
        Ok(TuningCache {
            dir,
            pipeline_version,
        })
    }

    /// Opens the cache named by `RESPEC_CACHE_DIR`, or `None` when the
    /// variable is unset or empty.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures for a set variable.
    pub fn from_env() -> io::Result<Option<TuningCache>> {
        match std::env::var("RESPEC_CACHE_DIR") {
            Ok(dir) if !dir.trim().is_empty() => Ok(Some(TuningCache::open(dir.trim())?)),
            _ => Ok(None),
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The pass-pipeline version entries are validated against.
    pub fn pipeline_version(&self) -> u32 {
        self.pipeline_version
    }

    /// Digests a candidate-configuration list into the search fingerprint
    /// component of winner keys. Deliberately covers the configs only —
    /// not the worker count — so searches that explore the same space
    /// share winners regardless of how they were scheduled.
    pub fn search_fingerprint(configs: &[CoarsenConfig]) -> u64 {
        let mut h = StableHasher::new();
        h.write_u64(configs.len() as u64);
        for c in configs {
            for v in c.block.iter().chain(c.thread.iter()) {
                h.write_i64(*v);
            }
        }
        h.finish()
    }

    // -- reports ----------------------------------------------------------

    /// Looks up the compile report for a prepared version on a target of
    /// the given kind (`"gpu"` / `"cpu"`).
    pub fn load_report(
        &self,
        target_kind: &str,
        version_hash: u64,
        target: u64,
    ) -> Lookup<StoredReport> {
        match self.read_entry(&report_name(target_kind, version_hash, target)) {
            Ok(Some(lines)) => self.parse_report(&lines),
            Ok(None) => Lookup::Miss,
            Err(e) => Lookup::Stale(e),
        }
    }

    /// Stores the compile report for a prepared version on a target of the
    /// given kind.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; callers treat stores as
    /// best-effort.
    pub fn store_report(
        &self,
        target_kind: &str,
        version_hash: u64,
        target: u64,
        report: &StoredReport,
    ) -> io::Result<()> {
        let mut text = self.header("report");
        let b = &report.backend;
        let s = &b.stats;
        text.push_str(&format!("version_hash {version_hash:016x}\n"));
        text.push_str(&format!("target_kind {target_kind}\n"));
        text.push_str(&format!("target {target:016x}\n"));
        text.push_str(&format!("regs_per_thread {}\n", b.regs_per_thread));
        text.push_str(&format!("backend_spill_units {}\n", b.spill_units));
        text.push_str(&format!("inst_count {}\n", b.inst_count));
        text.push_str(&format!("worst_regs {}\n", report.worst_regs));
        text.push_str(&format!("spill_units {}\n", report.spill_units));
        text.push_str(&format!("launch_regs {}\n", report.launch_regs));
        let stat_bits: Vec<String> = [
            s.fp32_ops,
            s.fp64_ops,
            s.int_ops,
            s.special_ops,
            s.loads,
            s.stores,
            s.shared_accesses,
            s.branches,
            s.barriers,
        ]
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect();
        text.push_str(&format!("stats {}\n", stat_bits.join(" ")));
        text.push_str("end\n");
        self.write_atomic(
            &report_name(target_kind, version_hash, target),
            text.as_bytes(),
        )
    }

    fn parse_report(&self, lines: &[String]) -> Lookup<StoredReport> {
        let mut fields = Fields::new(lines);
        match (|| -> Result<StoredReport, String> {
            fields.expect_kind("report")?;
            fields.next_kv("version_hash")?;
            fields.next_kv("target_kind")?;
            fields.next_kv("target")?;
            let regs_per_thread = fields.get_u32("regs_per_thread")?;
            let backend_spill_units = fields.get_u32("backend_spill_units")?;
            let inst_count = fields.get_u64("inst_count")? as usize;
            let worst_regs = fields.get_u32("worst_regs")?;
            let spill_units = fields.get_u32("spill_units")?;
            let launch_regs = fields.get_u32("launch_regs")?;
            let bits = fields.get_hex_list("stats", 9)?;
            let stats = KernelStats {
                fp32_ops: f64::from_bits(bits[0]),
                fp64_ops: f64::from_bits(bits[1]),
                int_ops: f64::from_bits(bits[2]),
                special_ops: f64::from_bits(bits[3]),
                loads: f64::from_bits(bits[4]),
                stores: f64::from_bits(bits[5]),
                shared_accesses: f64::from_bits(bits[6]),
                branches: f64::from_bits(bits[7]),
                barriers: f64::from_bits(bits[8]),
            };
            Ok(StoredReport {
                backend: BackendReport {
                    regs_per_thread,
                    spill_units: backend_spill_units,
                    inst_count,
                    stats,
                },
                worst_regs,
                spill_units,
                launch_regs,
            })
        })() {
            Ok(r) => Lookup::Hit(r),
            Err(e) => Lookup::Stale(e),
        }
    }

    // -- winners ----------------------------------------------------------

    /// Looks up the winner of a search over `(kind, input IR, target,
    /// search)`.
    pub fn load_winner(
        &self,
        target_kind: &str,
        input_hash: u64,
        target: u64,
        search: u64,
    ) -> Lookup<StoredWinner> {
        match self.read_entry(&winner_name(target_kind, input_hash, target, search)) {
            Ok(Some(lines)) => self.parse_winner(&lines),
            Ok(None) => Lookup::Miss,
            Err(e) => Lookup::Stale(e),
        }
    }

    /// Stores the winner of a search.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; callers treat stores as
    /// best-effort.
    pub fn store_winner(
        &self,
        input_hash: u64,
        search: u64,
        winner: &StoredWinner,
    ) -> io::Result<()> {
        let mut text = self.header("winner");
        let c = winner.config;
        text.push_str(&format!("input_hash {input_hash:016x}\n"));
        text.push_str(&format!("target_kind {}\n", winner.target_kind));
        text.push_str(&format!("target {:016x}\n", winner.target));
        text.push_str(&format!("search {search:016x}\n"));
        text.push_str(&format!(
            "config {} {} {} {} {} {}\n",
            c.block[0], c.block[1], c.block[2], c.thread[0], c.thread[1], c.thread[2]
        ));
        text.push_str(&format!("seconds {:016x}\n", winner.seconds_bits));
        text.push_str(&format!("regs {}\n", winner.regs));
        text.push_str(&format!("ir {}\n", winner.ir.len()));
        text.push_str(&winner.ir);
        if !winner.ir.ends_with('\n') {
            text.push('\n');
        }
        text.push_str("end\n");
        self.write_atomic(
            &winner_name(&winner.target_kind, input_hash, winner.target, search),
            text.as_bytes(),
        )
    }

    fn parse_winner(&self, lines: &[String]) -> Lookup<StoredWinner> {
        let mut fields = Fields::new(lines);
        match (|| -> Result<StoredWinner, String> {
            fields.expect_kind("winner")?;
            fields.next_kv("input_hash")?;
            let target_kind = fields.next_kv("target_kind")?.trim().to_string();
            let target = fields.get_hex("target")?;
            fields.next_kv("search")?;
            let cfg = fields.get_i64_list("config", 6)?;
            let seconds_bits = fields.get_hex("seconds")?;
            let regs = fields.get_u32("regs")?;
            let ir = fields.take_blob("ir")?;
            Ok(StoredWinner {
                config: CoarsenConfig {
                    block: [cfg[0], cfg[1], cfg[2]],
                    thread: [cfg[3], cfg[4], cfg[5]],
                },
                seconds_bits,
                regs,
                ir,
                target,
                target_kind,
            })
        })() {
            Ok(w) => Lookup::Hit(w),
            Err(e) => Lookup::Stale(e),
        }
    }

    /// Every readable, version-current winner recorded for `input_hash`
    /// within `target_kind`, across *all* targets of that kind — the pool a
    /// fat-binary mine ([`fatbin::mine_variants`]) selects variants from.
    /// The scan never crosses the GPU/CPU divide: the two families have
    /// opposite preferences (few heavy threads vs many light ones). Results
    /// are ordered by file name, so consumers are deterministic given a
    /// directory state; unreadable entries are skipped (they surface as
    /// invalidations only when looked up directly).
    pub fn winners_for_input(&self, target_kind: &str, input_hash: u64) -> Vec<StoredWinner> {
        let prefix = format!("w-{target_kind}-{input_hash:016x}-");
        let mut names: Vec<String> = match fs::read_dir(&self.dir) {
            Ok(rd) => rd
                .filter_map(|e| e.ok())
                .filter_map(|e| e.file_name().into_string().ok())
                .filter(|n| n.starts_with(&prefix) && n.ends_with(EXT))
                .collect(),
            Err(_) => return Vec::new(),
        };
        names.sort();
        names
            .iter()
            .filter_map(|n| match self.read_entry(n) {
                Ok(Some(lines)) => self.parse_winner(&lines).hit(),
                _ => None,
            })
            // The file-name prefix scopes the scan to one kind, but the
            // name is only an index — a renamed or hand-planted entry can
            // claim a different kind in its body. The body is
            // authoritative: drop any winner whose recorded kind
            // disagrees, so a mixed gpu+cpu store can never leak a variant
            // across the kind divide.
            .filter(|w| w.target_kind == target_kind)
            .collect()
    }

    /// Paths of every entry currently in the cache (sorted). Tooling and
    /// chaos tests use this to pick victims for corruption.
    ///
    /// # Errors
    ///
    /// Propagates directory-read failures.
    pub fn entry_paths(&self) -> io::Result<Vec<PathBuf>> {
        let mut out: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some(EXT))
            .collect();
        out.sort();
        Ok(out)
    }

    // -- plumbing ---------------------------------------------------------

    fn header(&self, kind: &str) -> String {
        format!(
            "respec-cache-v{FORMAT_VERSION}\npipeline {}\nhashver {STRUCTURAL_HASH_VERSION}\nkind {kind}\n",
            self.pipeline_version
        )
    }

    /// Reads an entry and validates its version envelope. `Ok(None)` means
    /// no file; `Err` carries the staleness reason.
    fn read_entry(&self, name: &str) -> Result<Option<Vec<String>>, String> {
        let path = self.dir.join(name);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("unreadable entry: {e}")),
        };
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        if lines.first().map(String::as_str) != Some(concat_header().as_str()) {
            return Err(format!(
                "unrecognized header {:?} (want {:?})",
                lines.first().cloned().unwrap_or_default(),
                concat_header()
            ));
        }
        let expect_kv = |idx: usize, key: &str, want: u32| -> Result<(), String> {
            let line = lines.get(idx).cloned().unwrap_or_default();
            match line.strip_prefix(&format!("{key} ")) {
                Some(v) if v.trim().parse::<u32>() == Ok(want) => Ok(()),
                _ => Err(format!("stale {key} line {line:?} (want {key} {want})")),
            }
        };
        expect_kv(1, "pipeline", self.pipeline_version)?;
        expect_kv(2, "hashver", STRUCTURAL_HASH_VERSION)?;
        if lines.last().map(String::as_str) != Some("end") {
            return Err("truncated entry (missing end marker)".into());
        }
        Ok(Some(lines))
    }

    /// Writes `bytes` to `name` atomically: temp file in the same
    /// directory, flushed, then renamed over the destination.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".{name}.tmp.{}.{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        match fs::rename(&tmp, self.dir.join(name)) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

fn concat_header() -> String {
    format!("respec-cache-v{FORMAT_VERSION}")
}

fn report_name(kind: &str, version_hash: u64, target: u64) -> String {
    format!("r-{kind}-{version_hash:016x}-{target:016x}.{EXT}")
}

fn winner_name(kind: &str, input_hash: u64, target: u64, search: u64) -> String {
    format!("w-{kind}-{input_hash:016x}-{target:016x}-{search:016x}.{EXT}")
}

/// Ordered field reader over an entry's body lines (after the 4-line
/// version envelope). Every accessor fails with a message instead of
/// panicking — parse failures become [`Lookup::Stale`].
struct Fields<'a> {
    lines: &'a [String],
    pos: usize,
}

impl<'a> Fields<'a> {
    fn new(lines: &'a [String]) -> Fields<'a> {
        Fields { lines, pos: 3 }
    }

    fn next_kv(&mut self, key: &str) -> Result<&'a str, String> {
        let line = self
            .lines
            .get(self.pos)
            .ok_or_else(|| format!("missing field {key}"))?;
        self.pos += 1;
        line.strip_prefix(&format!("{key} "))
            .ok_or_else(|| format!("expected field {key}, found {line:?}"))
    }

    fn expect_kind(&mut self, want: &str) -> Result<(), String> {
        let got = self.next_kv("kind")?;
        if got == want {
            Ok(())
        } else {
            Err(format!("entry kind {got:?} where {want:?} was expected"))
        }
    }

    fn get_u32(&mut self, key: &str) -> Result<u32, String> {
        self.next_kv(key)?
            .trim()
            .parse()
            .map_err(|e| format!("field {key}: {e}"))
    }

    fn get_u64(&mut self, key: &str) -> Result<u64, String> {
        self.next_kv(key)?
            .trim()
            .parse()
            .map_err(|e| format!("field {key}: {e}"))
    }

    fn get_hex(&mut self, key: &str) -> Result<u64, String> {
        u64::from_str_radix(self.next_kv(key)?.trim(), 16).map_err(|e| format!("field {key}: {e}"))
    }

    fn get_hex_list(&mut self, key: &str, want: usize) -> Result<Vec<u64>, String> {
        let raw = self.next_kv(key)?;
        let vals: Result<Vec<u64>, _> = raw
            .split_whitespace()
            .map(|t| u64::from_str_radix(t, 16))
            .collect();
        let vals = vals.map_err(|e| format!("field {key}: {e}"))?;
        if vals.len() != want {
            return Err(format!("field {key}: {} values, want {want}", vals.len()));
        }
        Ok(vals)
    }

    fn get_i64_list(&mut self, key: &str, want: usize) -> Result<Vec<i64>, String> {
        let raw = self.next_kv(key)?;
        let vals: Result<Vec<i64>, _> = raw.split_whitespace().map(str::parse).collect();
        let vals = vals.map_err(|e| format!("field {key}: {e}"))?;
        if vals.len() != want {
            return Err(format!("field {key}: {} values, want {want}", vals.len()));
        }
        Ok(vals)
    }

    /// Reads a length-prefixed multi-line blob (`<key> <byte-len>` then the
    /// raw lines). The recorded length must match exactly — a mismatch is
    /// the truncation signal for the one field a trailing marker cannot
    /// fully protect.
    fn take_blob(&mut self, key: &str) -> Result<String, String> {
        let len = self.get_u64(key)? as usize;
        let mut blob = String::new();
        while blob.len() < len {
            let line = self
                .lines
                .get(self.pos)
                .ok_or_else(|| format!("field {key}: blob truncated at {} bytes", blob.len()))?;
            self.pos += 1;
            blob.push_str(line);
            blob.push('\n');
        }
        // The stored length excludes a possibly-added trailing newline.
        while blob.len() > len {
            match blob.pop() {
                Some('\n') => {}
                _ => return Err(format!("field {key}: blob length mismatch")),
            }
        }
        Ok(blob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_cache_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "respec-cache-test-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_report() -> StoredReport {
        StoredReport {
            backend: BackendReport {
                regs_per_thread: 24,
                spill_units: 3,
                inst_count: 120,
                stats: KernelStats {
                    fp32_ops: 64.0,
                    fp64_ops: 0.5,
                    int_ops: 12.0,
                    special_ops: 0.0,
                    loads: 8.25,
                    stores: 4.0,
                    shared_accesses: 16.0,
                    branches: 2.0,
                    barriers: 1.0,
                },
            },
            worst_regs: 40,
            spill_units: 3,
            launch_regs: 32,
        }
    }

    fn sample_winner() -> StoredWinner {
        StoredWinner {
            config: CoarsenConfig {
                block: [2, 1, 1],
                thread: [4, 1, 1],
            },
            seconds_bits: 1.25e-3f64.to_bits(),
            regs: 32,
            ir: "func @k() {\n  return\n}".into(),
            target: 0xfeed,
            target_kind: "gpu".into(),
        }
    }

    #[test]
    fn open_rejects_a_path_that_is_a_regular_file() {
        let path = temp_cache_dir("file-collision");
        std::fs::write(&path, b"not a directory").unwrap();
        let err = TuningCache::open(&path).expect_err("a file is not a cache directory");
        assert!(
            err.to_string().contains("not a directory")
                || err.kind() == io::ErrorKind::AlreadyExists,
            "error must name the misconfiguration: {err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_rejects_a_path_under_a_regular_file() {
        let file = temp_cache_dir("parent-file");
        std::fs::write(&file, b"blocker").unwrap();
        let nested = file.join("cache");
        TuningCache::open(&nested).expect_err("cannot create a directory under a file");
        let _ = std::fs::remove_file(&file);
    }

    #[test]
    fn open_probes_writability_and_leaves_no_probe_behind() {
        let dir = temp_cache_dir("probe");
        let cache = TuningCache::open(&dir).unwrap();
        // The probe file must not linger as a fake cache entry.
        assert_eq!(cache.entry_paths().unwrap(), Vec::<PathBuf>::new());
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "probe file must be removed after the writability check"
        );
    }

    #[test]
    fn report_round_trips_bit_exactly() {
        let cache = TuningCache::open(temp_cache_dir("report")).unwrap();
        assert_eq!(cache.load_report("gpu", 1, 2), Lookup::Miss);
        let report = sample_report();
        cache.store_report("gpu", 1, 2, &report).unwrap();
        assert_eq!(cache.load_report("gpu", 1, 2), Lookup::Hit(report));
        // A different key is an independent entry.
        assert_eq!(cache.load_report("gpu", 1, 3), Lookup::Miss);
    }

    #[test]
    fn winner_round_trips_with_multiline_ir() {
        let cache = TuningCache::open(temp_cache_dir("winner")).unwrap();
        let w = sample_winner();
        cache.store_winner(7, 9, &w).unwrap();
        let got = cache.load_winner("gpu", 7, 0xfeed, 9).hit().expect("hit");
        assert_eq!(got, w);
        assert_eq!(got.seconds().to_bits(), w.seconds_bits);
    }

    #[test]
    fn truncated_and_garbled_entries_are_stale_not_errors() {
        let cache = TuningCache::open(temp_cache_dir("corrupt")).unwrap();
        cache.store_report("gpu", 5, 6, &sample_report()).unwrap();
        cache.store_winner(7, 9, &sample_winner()).unwrap();
        for path in cache.entry_paths().unwrap() {
            let full = fs::read_to_string(&path).unwrap();
            // Truncation: drop the tail (loses the end marker / blob).
            fs::write(&path, &full[..full.len() / 2]).unwrap();
        }
        assert!(matches!(cache.load_report("gpu", 5, 6), Lookup::Stale(_)));
        assert!(matches!(
            cache.load_winner("gpu", 7, 0xfeed, 9),
            Lookup::Stale(_)
        ));
        // Garbage bytes.
        for path in cache.entry_paths().unwrap() {
            fs::write(&path, b"\x00\xff not a cache entry \x00").unwrap();
        }
        assert!(matches!(cache.load_report("gpu", 5, 6), Lookup::Stale(_)));
        assert!(matches!(
            cache.load_winner("gpu", 7, 0xfeed, 9),
            Lookup::Stale(_)
        ));
    }

    #[test]
    fn bumped_pipeline_version_invalidates_entries() {
        let dir = temp_cache_dir("pipeline");
        let old = TuningCache::open_versioned(&dir, 1).unwrap();
        old.store_report("gpu", 5, 6, &sample_report()).unwrap();
        old.store_winner(7, 9, &sample_winner()).unwrap();
        let new = TuningCache::open_versioned(&dir, 2).unwrap();
        match new.load_report("gpu", 5, 6) {
            Lookup::Stale(reason) => assert!(reason.contains("pipeline"), "{reason}"),
            other => panic!("expected stale, got {other:?}"),
        }
        assert!(matches!(
            new.load_winner("gpu", 7, 0xfeed, 9),
            Lookup::Stale(_)
        ));
        // The old version still reads its own entries.
        assert!(matches!(old.load_report("gpu", 5, 6), Lookup::Hit(_)));
    }

    #[test]
    fn cross_kind_lookups_always_miss() {
        // The same fingerprints under a different target kind must be
        // invisible: a CPU search can never replay, preload, or mine a
        // GPU entry (and vice versa).
        let cache = TuningCache::open(temp_cache_dir("kind")).unwrap();
        let w = sample_winner(); // target_kind: "gpu"
        cache.store_winner(7, 9, &w).unwrap();
        cache.store_report("gpu", 1, 2, &sample_report()).unwrap();

        assert_eq!(cache.load_winner("cpu", 7, 0xfeed, 9), Lookup::Miss);
        assert_eq!(cache.load_report("cpu", 1, 2), Lookup::Miss);
        assert!(
            cache.winners_for_input("cpu", 7).is_empty(),
            "winner scans must not cross the gpu/cpu divide"
        );
        // Same-kind lookups still hit.
        assert!(matches!(
            cache.load_winner("gpu", 7, 0xfeed, 9),
            Lookup::Hit(_)
        ));
        assert!(matches!(cache.load_report("gpu", 1, 2), Lookup::Hit(_)));
        assert_eq!(cache.winners_for_input("gpu", 7).len(), 1);

        // A CPU winner under the same hashes coexists as an independent
        // entry rather than clobbering the GPU one.
        let mut cw = sample_winner();
        cw.target_kind = "cpu".into();
        cw.config = CoarsenConfig {
            block: [8, 1, 1],
            thread: [1, 1, 1],
        };
        cache.store_winner(7, 9, &cw).unwrap();
        assert_eq!(cache.load_winner("cpu", 7, 0xfeed, 9), Lookup::Hit(cw));
        assert_eq!(cache.load_winner("gpu", 7, 0xfeed, 9), Lookup::Hit(w));
    }

    #[test]
    fn winner_scans_trust_the_entry_body_over_the_file_name() {
        // A fat-bin mine over a mixed gpu+cpu store must never select a
        // variant across the kind divide — even when an entry *file name*
        // lies about its kind. Plant a winner whose body says "cpu" under a
        // gpu-prefixed name (simulating a renamed or hand-planted entry):
        // the scan must drop it, because the body is authoritative.
        let cache = TuningCache::open(temp_cache_dir("kind-leak")).unwrap();
        let gpu = sample_winner();
        cache.store_winner(7, 9, &gpu).unwrap();
        let mut cpu = sample_winner();
        cpu.target_kind = "cpu".into();
        cpu.target = 0xc0de;
        cpu.config = CoarsenConfig {
            block: [8, 1, 1],
            thread: [1, 1, 1],
        };
        cache.store_winner(7, 9, &cpu).unwrap();
        // Honest mixed store: each kind's scan sees only its own winners.
        let mined_gpu = cache.winners_for_input("gpu", 7);
        assert_eq!(mined_gpu.len(), 1);
        assert!(mined_gpu.iter().all(|w| w.target_kind == "gpu"));
        let mined_cpu = cache.winners_for_input("cpu", 7);
        assert_eq!(mined_cpu.len(), 1);
        assert!(mined_cpu.iter().all(|w| w.target_kind == "cpu"));
        // Dishonest entry: rename the cpu winner's file under a gpu prefix.
        let cpu_path = cache
            .entry_paths()
            .unwrap()
            .into_iter()
            .find(|p| p.file_name().unwrap().to_string_lossy().contains("w-cpu-"))
            .expect("cpu winner entry exists");
        let forged = cpu_path.with_file_name(
            cpu_path
                .file_name()
                .unwrap()
                .to_string_lossy()
                .replacen("w-cpu-", "w-gpu-", 1),
        );
        fs::rename(&cpu_path, &forged).unwrap();
        let mined = cache.winners_for_input("gpu", 7);
        assert_eq!(mined.len(), 1, "forged cpu entry must not leak: {mined:?}");
        assert!(mined.iter().all(|w| w.target_kind == "gpu"));
    }

    #[test]
    fn winners_for_input_returns_the_full_same_kind_pool() {
        let cache = TuningCache::open(temp_cache_dir("pool")).unwrap();
        let mut a = sample_winner();
        a.target = 0xaaaa;
        let mut b = sample_winner();
        b.target = 0xbbbb;
        cache.store_winner(7, 9, &a).unwrap();
        cache.store_winner(7, 9, &b).unwrap();
        // Mining excludes no target…
        assert_eq!(cache.winners_for_input("gpu", 7).len(), 2);
        // …and still scopes by kernel hash.
        assert!(cache.winners_for_input("gpu", 8).is_empty());
    }

    #[test]
    fn search_fingerprint_covers_configs_and_order() {
        let a = CoarsenConfig::identity();
        let b = CoarsenConfig {
            block: [2, 1, 1],
            thread: [1, 1, 1],
        };
        let ab = TuningCache::search_fingerprint(&[a, b]);
        let ba = TuningCache::search_fingerprint(&[b, a]);
        let aa = TuningCache::search_fingerprint(&[a, a]);
        assert_ne!(ab, ba);
        assert_ne!(ab, aa);
        assert_eq!(ab, TuningCache::search_fingerprint(&[a, b]));
    }

    #[test]
    fn writes_leave_no_temp_files_behind() {
        let cache = TuningCache::open(temp_cache_dir("atomic")).unwrap();
        cache.store_report("gpu", 1, 1, &sample_report()).unwrap();
        cache.store_report("gpu", 1, 1, &sample_report()).unwrap();
        let leftovers: Vec<_> = fs::read_dir(cache.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        assert_eq!(cache.entry_paths().unwrap().len(), 1);
    }
}
