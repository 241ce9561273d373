//! Test-side fault injection: a decorator over a tuning runner factory.
//!
//! The library has no fault hooks. The backend and the simulator are
//! deterministic, so no production failure is transient, and the engine
//! evaluates each group of byte-identical versions exactly once. Tests that
//! check how a search degrades wrap the runner factory they pass to
//! `tune_kernel_pooled` in a [`Faulty`] decorator instead. It makes chosen
//! versions fail (an `Err`), panic, or run slow (time × a factor > 1).
//!
//! Each decision is a pure function of `(seed, structural_hash(version))`,
//! never of the schedule, so serial and parallel searches see the same
//! faults. The decorator keeps its own [`Ledger`] of every call it saw.
//!
//! `RESPEC_CHAOS_SEED`, when set, is folded into every seed so a CI matrix
//! can sweep fresh schedules without editing the tests. No library reads it.
//!
//! Shared by several test targets with `#[path]`; each uses a subset.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::sync::Mutex;

use respec_ir::{structural_hash, Function};
use respec_sim::SimError;

/// What the decorator does to one version.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// The runner returns an error without running.
    Fail,
    /// The runner panics without running.
    Panic,
    /// The runner runs and its time is multiplied by the factor (> 1).
    Slow(f64),
}

/// Per-version probabilities of each fault, in `[0, 1]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rates {
    pub fail: f64,
    pub panic: f64,
    pub slow: f64,
}

impl Rates {
    /// Nothing ever fires: the decorator only records calls.
    pub const NONE: Rates = Rates {
        fail: 0.0,
        panic: 0.0,
        slow: 0.0,
    };
}

/// Largest slowdown factor; factors are drawn from `(1, MAX_FACTOR]`.
pub const MAX_FACTOR: f64 = 3.0;

/// One version's entry in the ledger.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Entry {
    /// What the decorator did to the version.
    pub fault: Option<Fault>,
    /// How often the runner was called with it.
    pub calls: usize,
    /// Whether the last call produced a time.
    pub measured: bool,
}

/// Every version the decorated runners were called with, by structural
/// hash.
pub type Ledger = BTreeMap<u64, Entry>;

/// A boxed measurement runner, as the engine calls it.
pub type Runner<'a> = Box<dyn FnMut(&Function, u32) -> Result<f64, SimError> + 'a>;

/// The decorator: a seed, the rates, and the ledger.
pub struct Faulty {
    seed: u64,
    rates: Rates,
    ledger: Mutex<Ledger>,
}

/// `RESPEC_CHAOS_SEED` as a number (0 when unset or unparsable).
pub fn env_seed() -> u64 {
    std::env::var("RESPEC_CHAOS_SEED")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(0)
}

impl Faulty {
    /// A decorator with `seed` (folded with [`env_seed`]) and `rates`.
    pub fn new(seed: u64, rates: Rates) -> Faulty {
        Faulty {
            seed: seed ^ env_seed(),
            rates,
            ledger: Mutex::new(Ledger::new()),
        }
    }

    /// The fault for a version with structural hash `hash`: pure, so the
    /// same version meets the same fate on every thread and every call.
    pub fn decide(&self, hash: u64) -> Option<Fault> {
        let roll = |salt: u64| {
            let h = mix(mix(self.seed ^ mix(salt)) ^ hash);
            (h >> 11) as f64 / (1u64 << 53) as f64
        };
        if roll(1) < self.rates.fail {
            Some(Fault::Fail)
        } else if roll(2) < self.rates.panic {
            Some(Fault::Panic)
        } else if roll(3) < self.rates.slow {
            Some(Fault::Slow(1.0 + (MAX_FACTOR - 1.0) * roll(4).max(0.01)))
        } else {
            None
        }
    }

    /// Wraps a runner factory: every runner it builds passes through the
    /// decorator.
    pub fn decorate<'a, R>(
        &'a self,
        make: impl Fn() -> R + Sync + 'a,
    ) -> impl Fn() -> Runner<'a> + Sync + 'a
    where
        R: FnMut(&Function, u32) -> Result<f64, SimError> + 'a,
    {
        move || {
            let mut inner = make();
            Box::new(move |version: &Function, regs: u32| self.call(&mut inner, version, regs))
        }
    }

    fn call(
        &self,
        inner: &mut impl FnMut(&Function, u32) -> Result<f64, SimError>,
        version: &Function,
        regs: u32,
    ) -> Result<f64, SimError> {
        let hash = structural_hash(version);
        let fault = self.decide(hash);
        let outcome = match fault {
            Some(Fault::Fail) => Err(SimError {
                message: format!("injected failure for {hash:#x}"),
            }),
            Some(Fault::Panic) => {
                self.book(hash, fault, false);
                panic!("injected panic for {hash:#x}");
            }
            Some(Fault::Slow(factor)) => inner(version, regs).map(|s| s * factor),
            None => inner(version, regs),
        };
        self.book(hash, fault, outcome.is_ok());
        outcome
    }

    fn book(&self, hash: u64, fault: Option<Fault>, measured: bool) {
        // The injected panic fires after this guard is dropped, so the
        // lock is never poisoned.
        let mut ledger = self.ledger.lock().expect("ledger lock is never poisoned");
        let entry = ledger.entry(hash).or_insert(Entry {
            fault,
            calls: 0,
            measured,
        });
        entry.calls += 1;
        entry.measured = measured;
    }

    /// A copy of the ledger so far.
    pub fn ledger(&self) -> Ledger {
        self.ledger
            .lock()
            .expect("ledger lock is never poisoned")
            .clone()
    }
}

/// SplitMix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
