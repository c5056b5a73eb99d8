//! Checker snapshots stay heap-free: a session is fixed-size plain data,
//! so cloning a world allocates only its memory image and its thread
//! vector, restoring one allocates nothing, and stepping a warmed-up
//! world allocates nothing — for every subject, mutants included. A
//! whole search reuses its snapshots, so it allocates in proportion to
//! its depth, not to its states.
//!
//! The counts come from a counting global allocator. Its counter is
//! thread-local, so tests running in parallel threads do not disturb one
//! another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hbo_locks::LockKind;
use nuca_modelcheck::{explore, CheckConfig, Subject, World};
use nucasim::SplitMix64;
use nucasim_locks::Session;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the allocations it made on this
/// thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Every subject the checker knows: the verified kinds and the mutants.
fn every_subject() -> impl Iterator<Item = Subject> {
    Subject::verified().iter().copied().chain(Subject::MUTANTS)
}

#[test]
fn sessions_fit_in_two_cache_lines() {
    // Every session lives inline in its driver and in every snapshot; the
    // largest (HBO_GT_SD, with two node masks) must stay within 128 bytes.
    let size = std::mem::size_of::<Session>();
    assert!(size <= 128, "Session is {size} bytes");
}

#[test]
fn snapshots_copy_no_heap() {
    for subject in every_subject() {
        let name = subject.name();
        let mut cfg = CheckConfig::new(subject);
        cfg.cpus = 3;
        let mut world = World::new(&cfg);
        let mut rng = SplitMix64::new(0xA110C);
        // Walk a seeded schedule; at every state, a snapshot costs the
        // memory image and the thread vector, and restoring it into the
        // live world costs nothing. After the first round of
        // acquisitions (which sizes the live world's statistics), a step
        // costs nothing either.
        for at in 0..40 {
            let (snapshot, n) = allocations(|| world.clone());
            assert!(n <= 2, "{name} step {at}: a snapshot made {n} allocations");
            let ((), n) = allocations(|| world.restore(&snapshot));
            assert_eq!(n, 0, "{name} step {at}: a restore allocated");
            assert_eq!(world.state_key(), snapshot.state_key(), "{name} step {at}");
            let enabled: Vec<usize> = (0..world.num_threads())
                .filter(|&t| world.enabled(t))
                .collect();
            if enabled.is_empty() {
                break;
            }
            let t = enabled[rng.next_below(enabled.len() as u64) as usize];
            let warm = (0..world.num_threads()).all(|t| world.acquires(t) > 0);
            let (result, n) = allocations(|| world.step(t));
            if result.is_err() {
                break;
            }
            if warm {
                assert_eq!(n, 0, "{name} step {at}: stepping allocated");
            }
        }
    }
}

#[test]
fn a_search_allocates_by_depth_not_by_states() {
    // CNA at 3 CPUs x 2 iterations branches at tens of thousands of
    // states. The search keeps one snapshot per branching frame on the
    // current path and reuses each buffer once the frame is done, so it
    // clones (two allocations) only past the stack's high-water mark,
    // which is at most `max_depth`. Beyond that come the initial world,
    // the growth of the search's own vectors and of the visited table
    // (each doubling: one allocation, logarithmic in what it holds), and
    // the live world's statistics, sized by the first acquisitions.
    let mut cfg = CheckConfig::new(Subject::Kind(LockKind::Cna));
    cfg.cpus = 3;
    let (_, setup) = allocations(|| World::new(&cfg));
    let ((stats, cex), n) = allocations(|| explore(&cfg));
    assert!(cex.is_none(), "{cex:?}");
    assert!(stats.distinct_states > 50_000, "{stats:?}");
    let doublings = |n: u64| 64 - n.leading_zeros() as usize;
    let bound = setup
        + 4 * stats.max_depth
        + 3 * doublings(stats.max_depth as u64)
        + doublings(stats.distinct_states)
        + 32;
    assert!(
        n <= bound,
        "a search of {} states to depth {} made {n} allocations (bound {bound})",
        stats.distinct_states,
        stats.max_depth
    );
}
