//! Building a simulator must cost the same for every target: a counting
//! global allocator measures `GpuSim::for_model` followed by drop, as a
//! count of allocations and bytes rather than a time.
//!
//! Its own test binary, because the allocator is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use respec_sim::{targets, GpuSim};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the measuring thread counts; the test harness allocates too.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: usize) {
    if COUNTING.with(Cell::get) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn building_and_dropping_a_simulator_allocates_little_on_every_target() {
    for name in targets::TARGET_NAMES {
        let model = targets::by_name(name).expect("registry name");
        let (allocs0, bytes0) = (
            ALLOCS.load(Ordering::Relaxed),
            BYTES.load(Ordering::Relaxed),
        );
        COUNTING.with(|c| c.set(true));
        drop(GpuSim::for_model(model.as_ref()));
        COUNTING.with(|c| c.set(false));
        let allocs = ALLOCS.load(Ordering::Relaxed) - allocs0;
        let bytes = BYTES.load(Ordering::Relaxed) - bytes0;
        assert!(
            allocs < 1_000 && bytes < 1 << 20,
            "{name}: GpuSim::for_model + drop made {allocs} allocations, {bytes} bytes"
        );
    }
}
