//! Guards that the engine makes no heap allocation per event.  After a
//! warm-up on the same thread, a run of `2N` ops makes exactly as many
//! allocations as a run of `N` ops at the same live window: the
//! scheduler's slabs, heaps and solver state grow to the window once,
//! and every later event — timer expiry, flow completion, fair-share
//! re-solve, fault firing — reuses them.  The ops are delays, transfers
//! and parallel transfers chained with `then`, built inside the
//! completion callback from the thread's free list of program buffers,
//! and capacity faults (a slow disk, a NIC brownout and their restores)
//! fire mid-run.
//!
//! With span recording on, each op adds one span record, so the only
//! allowed difference is the span log's amortised doubling: the `2N`
//! run's log grows through one more doubling than the `N` run's.
//!
//! The counting allocator keeps thread-local counts, so tests running
//! in parallel on other threads do not disturb the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use simkit::{
    run, Bytes, FaultAction, FaultPlan, OpId, ResourceId, Scheduler, SimTime, Step, World,
};

struct Counting;

thread_local! {
    /// Allocations requested on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only during thread teardown, when nothing is
    // being measured
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a plain thread-local `Cell` that never allocates.
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

/// Allocations on this thread while `f` runs.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let n0 = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - n0
}

/// Ops in flight at once.  Below the free list's cap on waiting
/// buffers, so every finished op's buffer is kept for the next.
const WINDOW: u64 = 8;

/// Ops in the shorter measured run.
const N: u64 = 400;

/// Op `i`: a delay, then a transfer over two hops, two transfers in
/// parallel, or a transfer then a delay.
fn op(i: u64, r: [ResourceId; 3]) -> Step {
    let bytes = Bytes(4096.0 * (1 + i % 3) as f64);
    let head = Step::delay(SimTime(500 + 100 * (i % 5)));
    let body = match i % 3 {
        0 => Step::transfer(bytes, [r[0], r[1]]),
        1 => Step::par([Step::transfer(bytes, [r[0]]), Step::transfer(bytes, [r[2]])]),
        _ => Step::transfer(bytes, [r[1]]).then(Step::delay(SimTime(300))),
    };
    Step::span("engine_alloc", "op", bytes.get() as u64, head.then(body))
}

/// Keeps [`WINDOW`] ops in flight until `remaining` more have started.
struct Window {
    res: [ResourceId; 3],
    next: u64,
    remaining: u64,
}

impl World for Window {
    fn on_op_complete(&mut self, _op: OpId, sched: &mut Scheduler) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.submit(op(self.next, self.res), OpId(self.next));
            self.next += 1;
        }
    }
}

/// Allocations made to submit and run `ops` ops on a fresh scheduler,
/// and the span records the run left.
fn run_allocs(ops: u64, spans: bool) -> (u64, usize) {
    let mut sched = Scheduler::new();
    let res = [
        sched.add_resource("disk", 1e9),
        sched.add_resource("nic", 2e9),
        sched.add_resource("md", 5e8),
    ];
    if spans {
        sched.enable_spans();
    }
    // a slow disk and a NIC brownout, both restored, all long before
    // the shorter run ends
    let mut plan = FaultPlan::new();
    let scale = |at_us, action| (SimTime::from_micros(at_us), action);
    for (at, action) in [
        scale(
            10,
            FaultAction::SlowDisk {
                resource: res[0],
                scale: 0.5,
            },
        ),
        scale(
            20,
            FaultAction::NicBrownout {
                resource: res[1],
                scale: 0.3,
            },
        ),
        scale(
            40,
            FaultAction::SlowDisk {
                resource: res[0],
                scale: 1.0,
            },
        ),
        scale(
            60,
            FaultAction::NicBrownout {
                resource: res[1],
                scale: 1.0,
            },
        ),
    ] {
        plan.at(at, action);
    }
    sched
        .install_faults(plan)
        .expect("resources are registered");
    let mut world = Window {
        res,
        next: WINDOW,
        remaining: ops - WINDOW,
    };
    let n = allocs_in(|| {
        for i in 0..WINDOW {
            sched.submit(op(i, res), OpId(i));
        }
        run(&mut sched, &mut world);
    });
    assert_eq!(sched.pending_fault_count(), 0, "every fault fired mid-run");
    assert!(
        sched.now() > SimTime::from_micros(60),
        "the run outlasts its faults"
    );
    (n, sched.spans().records().len())
}

/// `(N-op run, 2N-op run)` after a warm-up, on a thread of its own.
fn short_and_long(spans: bool) -> ((u64, usize), (u64, usize)) {
    std::thread::spawn(move || {
        // the free list's buffers each grow to the largest op shape
        // they meet, so the warm-up takes two runs
        run_allocs(N, spans);
        run_allocs(N, spans);
        (run_allocs(N, spans), run_allocs(2 * N, spans))
    })
    .join()
    .expect("measuring thread panicked")
}

#[test]
fn engine_allocations_do_not_grow_with_run_length() {
    let ((short, _), (long, _)) = short_and_long(false);
    assert!(
        short > 0,
        "counter is live: the scheduler grows to the window"
    );
    assert_eq!(
        short,
        long,
        "a run of {N} ops made {short} allocations, a run of {} ops {long}",
        2 * N
    );
}

#[test]
fn span_recording_adds_only_the_log_doubling() {
    let ((short, short_spans), (long, long_spans)) = short_and_long(true);
    assert_eq!(short_spans as u64, N);
    assert_eq!(long_spans as u64, 2 * N);
    // twice the records cost the span vector one more doubling
    assert_eq!(
        long,
        short + 1,
        "a traced run of {N} ops made {short} allocations, a run of {} ops {long}",
        2 * N
    );
}
