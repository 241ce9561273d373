//! Zero-dependency scoped work-stealing pool.
//!
//! The tuning engine fans candidate evaluation out over
//! [`std::thread::scope`] threads. Work distribution is batched
//! work-stealing rather than a shared cursor: the index range `0..n` is
//! split into contiguous per-worker chunks up front (one deque per worker,
//! zero contention while a worker drains its own chunk), and a worker whose
//! deque runs dry *steals half* of a victim's remaining items in one lock
//! acquisition. Stolen items land in the thief's own deque, so they are
//! re-stealable and load keeps balancing until the range is exhausted.
//! Results land in per-index slots, so the output order is always the input
//! order regardless of which worker finished when. The same helper drives
//! the multi-kernel loop in the `respec` facade.
//!
//! Jobs here are compiles and simulator runs — milliseconds each — so the
//! design pushes all synchronization off the per-item path: a worker takes
//! one item per lock of its *own* uncontended deque and only touches a
//! shared lock when stealing, instead of every worker hitting one atomic
//! cursor for every item.
//!
//! Panic isolation: a job that panics must cost exactly its own item, not
//! the whole tune. [`parallel_map_catch_with`] catches the unwind, converts
//! it to an `Err(message)` for that index alone, discards the (possibly
//! corrupted) worker state, and keeps the worker pulling items. Slot writes
//! go through poison-tolerant lock accessors so a panic between `lock()`
//! and the store can never poison its way into a crash of the collector.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Extracts a human-readable message from a caught panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Locks `m` even if a previous holder panicked: every structure we guard
/// (result slots, index deques) stays structurally valid across an unwind,
/// so the poison flag carries no information here.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The index deques, one per worker. Items only ever move from a victim's
/// deque to a thief's, so a worker that finds every deque empty has nothing
/// left to take and leaves; whoever holds the last items finishes them.
struct StealQueues {
    deques: Vec<Mutex<VecDeque<usize>>>,
}

impl StealQueues {
    /// Splits `0..n` into `workers` contiguous chunks, one per deque, so
    /// neighbouring indices stay on one worker until stolen.
    fn new(n: usize, workers: usize) -> StealQueues {
        let deques = (0..workers)
            .map(|w| {
                let lo = w * n / workers;
                let hi = (w + 1) * n / workers;
                Mutex::new((lo..hi).collect())
            })
            .collect();
        StealQueues { deques }
    }

    /// Next item for worker `me`: its own deque's front, else half of the
    /// first non-empty victim's back (deposited into `me`'s deque, minus
    /// the one returned). `None` only when every deque is empty right now.
    fn next(&self, me: usize) -> Option<usize> {
        if let Some(i) = lock_unpoisoned(&self.deques[me]).pop_front() {
            return Some(i);
        }
        let workers = self.deques.len();
        for step in 1..workers {
            let victim = (me + step) % workers;
            let mut stolen = {
                let mut v = lock_unpoisoned(&self.deques[victim]);
                let len = v.len();
                if len == 0 {
                    continue;
                }
                // Steal the back half: the victim keeps the front of its
                // contiguous run, the thief takes the far end.
                v.split_off(len - len.div_ceil(2))
            };
            let first = stolen.pop_front().expect("stole at least one item");
            if !stolen.is_empty() {
                lock_unpoisoned(&self.deques[me]).append(&mut stolen);
            }
            return Some(first);
        }
        None
    }
}

/// Maps `job` over `0..n` on up to `workers` threads, catching panics
/// per item.
///
/// Each worker lazily builds a private state with `init` before its first
/// item (e.g. its own simulator-backed measurement runner) and reuses it for
/// every item it processes. Results are returned in index order: `Ok(out)`
/// for items that completed, `Err(panic message)` for items whose `init` or
/// `job` panicked. After a panic the worker's state is rebuilt before its
/// next item — a panicking job cannot leave half-mutated state behind for
/// an unrelated item.
///
/// With `workers <= 1` or a single item everything runs inline on the
/// calling thread — no threads are spawned, so serial mode has exactly the
/// cost, semantics *and* panic behavior of the parallel mode.
pub fn parallel_map_catch_with<S, T, FS, F>(
    n: usize,
    workers: usize,
    init: FS,
    job: F,
) -> Vec<Result<T, String>>
where
    T: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let run_one = |state: &mut Option<S>, i: usize| -> Result<T, String> {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let state = match state {
                Some(s) => s,
                None => state.insert(init()),
            };
            job(state, i)
        }));
        attempt.map_err(|payload| {
            // The unwind may have torn through a half-updated state; drop it
            // so the next item starts from a freshly built one.
            *state = None;
            panic_message(payload)
        })
    };
    if workers <= 1 || n <= 1 {
        let mut state: Option<S> = None;
        return (0..n).map(|i| run_one(&mut state, i)).collect();
    }
    let workers = workers.min(n);
    let queues = StealQueues::new(n, workers);
    let slots: Vec<Mutex<Option<Result<T, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for me in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let run_one = &run_one;
            scope.spawn(move || {
                let mut state: Option<S> = None;
                // A dry worker exits instead of spinning until the last
                // in-flight item lands: an idle spinner competes for the
                // core a straggler runs on.
                while let Some(i) = queues.next(me) {
                    let out = run_one(&mut state, i);
                    *lock_unpoisoned(&slots[i]) = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .expect("every index is dispatched exactly once")
        })
        .collect()
}

/// Maps `job` over `0..n` on up to `workers` threads.
///
/// Infallible variant of [`parallel_map_catch_with`]: results are returned
/// in index order, and a panic in any job is re-raised on the calling
/// thread — but only after every other item has completed, so one bad item
/// never strands the others mid-flight.
pub fn parallel_map_with<S, T, FS, F>(n: usize, workers: usize, init: FS, job: F) -> Vec<T>
where
    T: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    parallel_map_catch_with(n, workers, init, job)
        .into_iter()
        .map(|r| r.unwrap_or_else(|msg| panic!("pool job panicked: {msg}")))
        .collect()
}

/// [`parallel_map_with`] without worker-local state.
pub fn parallel_map<T, F>(n: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_with(n, workers, || (), |(), i| job(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_input_order() {
        for workers in [1, 2, 4, 9] {
            let out = parallel_map(100, workers, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn worker_state_is_built_at_most_once_per_worker() {
        let builds = AtomicUsize::new(0);
        let out = parallel_map_with(
            64,
            4,
            || {
                builds.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |state, i| {
                *state += 1;
                (i, *state)
            },
        );
        assert!(builds.load(Ordering::SeqCst) <= 4);
        // Every item was processed exactly once.
        let indices: HashSet<usize> = out.iter().map(|&(i, _)| i).collect();
        assert_eq!(indices.len(), 64);
        // Per-worker call counts add up to the item count.
        let total: usize = out
            .iter()
            .map(|&(i, c)| (i, c))
            .fold(std::collections::HashMap::new(), |mut m, (_, c)| {
                // The largest count seen per worker is its item total; since
                // we cannot identify workers, just check the sum of
                // increments equals n via the final counts being positive.
                *m.entry(c).or_insert(0usize) += 1;
                m
            })
            .values()
            .sum::<usize>();
        assert_eq!(total, 64);
    }

    #[test]
    fn empty_and_single_item_run_inline() {
        assert!(parallel_map(0, 8, |i| i).is_empty());
        assert_eq!(parallel_map(1, 8, |i| i + 7), vec![7]);
    }

    #[test]
    fn panicking_item_fails_alone_in_serial_and_parallel() {
        for workers in [1, 2, 4] {
            let out = parallel_map_catch_with(
                16,
                workers,
                || (),
                |(), i| {
                    if i == 5 {
                        panic!("boom on {i}");
                    }
                    i * 10
                },
            );
            for (i, r) in out.iter().enumerate() {
                if i == 5 {
                    let msg = r.as_ref().unwrap_err();
                    assert!(msg.contains("boom on 5"), "workers={workers}: {msg}");
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(i * 10), "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn panic_rebuilds_worker_state_before_the_next_item() {
        // Worker state counts the items it served since (re)build. A panic
        // must reset it: no item after a panic may observe stale state.
        for workers in [1, 3] {
            let out = parallel_map_catch_with(
                32,
                workers,
                || 0usize,
                |served, i| {
                    *served += 1;
                    if i % 7 == 0 {
                        panic!("drop state");
                    }
                    *served
                },
            );
            // An item right after a panicking one on the same worker sees a
            // freshly built state (count restarts at 1). We cannot pin
            // worker identity, but every Ok count must be consistent with
            // *some* schedule where panics reset: in serial mode this is
            // exact — verify it fully there.
            if workers == 1 {
                let mut expect = 0usize;
                for (i, r) in out.iter().enumerate() {
                    if i % 7 == 0 {
                        assert!(r.is_err());
                        expect = 0;
                    } else {
                        expect += 1;
                        assert_eq!(r.as_ref().unwrap(), &expect);
                    }
                }
            } else {
                assert_eq!(out.iter().filter(|r| r.is_err()).count(), 5);
            }
        }
    }

    #[test]
    fn panicking_init_fails_only_items_it_served() {
        // init panics always: every item fails, none crash the pool.
        let out = parallel_map_catch_with(
            8,
            4,
            || -> usize { panic!("init refused") },
            |s: &mut usize, _i| *s,
        );
        assert_eq!(out.len(), 8);
        for r in &out {
            assert!(r.as_ref().unwrap_err().contains("init refused"));
        }
    }

    #[test]
    #[should_panic(expected = "pool job panicked")]
    fn infallible_wrapper_repanics_after_draining() {
        parallel_map(4, 2, |i| {
            if i == 2 {
                panic!("late repanic");
            }
            i
        });
    }

    #[test]
    fn no_poison_escapes_under_heavy_panics() {
        // Half the items panic at 4 workers; the call itself must return
        // normally with every slot filled.
        let out = parallel_map_catch_with(
            64,
            4,
            || (),
            |(), i| {
                if i % 2 == 0 {
                    panic!("even {i}");
                }
                i
            },
        );
        assert_eq!(out.len(), 64);
        assert_eq!(out.iter().filter(|r| r.is_ok()).count(), 32);
        assert_eq!(out.iter().filter(|r| r.is_err()).count(), 32);
    }

    #[test]
    fn stealing_drains_a_skewed_initial_split() {
        // 7 items on 3 workers: chunks are [0,1], [2,3], [4,5,6]. Make one
        // worker's chunk artificially slow so the others must steal across
        // chunk boundaries to finish; every index still completes exactly
        // once and in-order in the output.
        let out = parallel_map(7, 3, |i| {
            if i < 2 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i * 3
        });
        assert_eq!(out, (0..7).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn more_workers_than_items_completes() {
        // workers is clamped to n; no thread may wait forever on an empty
        // deque.
        let out = parallel_map(3, 16, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }
}
