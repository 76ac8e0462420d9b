//! Guards that building one DAOS data op costs the same on any pool
//! size: an `SX` `array_write`, `array_read`, `array_get_size`, `kv_put`
//! and `kv_get`, and the `array_create` and `kv_create` of an `S1`
//! object, make exactly as many heap allocations, of exactly as many
//! bytes, on a 4-server pool as on a 128-server pool.  An `SX` layout
//! has one shard group per target and the pool map one state per
//! target, so any per-op copy of either shows up here as allocations
//! or bytes that grow with the pool; so does an `S1` placement that
//! copies or shuffles every up target to keep one.
//!
//! Both the first and the second op of each kind are compared, so an
//! allocation that grows with the pool on an object's first op only is
//! caught as well as one on every op.  The second op of each of the
//! five data ops makes no heap allocation, bar the key copy a `kv_put`
//! stores: by then the thread's free list of op-program buffers is
//! warm, a data op builds its whole program into one reused buffer, and
//! `array_write` and `array_read` keep the shard groups they touch
//! inline.
//!
//! Last, a warm round of mixed data ops makes exactly as many
//! allocations when its ops are built, submitted and run to completion
//! as when they are only built: programs of different lengths pass
//! through the free list without a buffer being regrown, and the
//! engine runs them without allocating.
//!
//! The counting allocator keeps thread-local counts, so tests running
//! in parallel on other threads do not disturb the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cluster::{ClusterSpec, Payload};
use daos_core::{ContainerProps, DaosSystem, DataMode, ObjectClass};
use simkit::{run, OpId, Scheduler, World};

struct Counting;

thread_local! {
    /// Allocations and bytes requested on this thread.
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // `try_with` fails only during thread teardown, when nothing is
    // being measured
    let _ = ALLOCS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a plain thread-local `Cell` that never allocates.
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
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes requested on this thread while `f` runs.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (u64, u64) {
    let (n0, b0) = ALLOCS.with(Cell::get);
    let r = f();
    let (n1, b1) = ALLOCS.with(Cell::get);
    drop(r);
    (n1 - n0, b1 - b0)
}

/// Allocations and bytes of one op of each kind, in the order of
/// [`OPS`].
type Round = [(u64, u64); 7];

/// The first and the second round of ops on a fresh pool of `servers`
/// engines.  Each call runs on a thread of its own, so the first round
/// starts from an empty free list of program buffers whatever ran
/// before it.
fn op_allocs(servers: usize) -> (Round, Round) {
    std::thread::spawn(move || {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(servers, 1).build(&mut sched);
        let mut sys = DaosSystem::deploy(&topo, &mut sched, servers, DataMode::Sized);
        let (cid, _) = sys.cont_create(0, ContainerProps::default());
        let (arr, _) = sys.array_create(0, cid, ObjectClass::SX, 1 << 20).unwrap();
        let (kv, _) = sys.kv_create(0, cid, ObjectClass::SX).unwrap();
        sys.kv_put(0, cid, kv, b"key", Payload::Sized(4096))
            .unwrap();
        let mut round = || {
            let write = allocs_in(|| {
                sys.array_write(0, cid, arr, 0, Payload::Sized(1 << 20))
                    .unwrap()
            });
            let read = allocs_in(|| sys.array_read(0, cid, arr, 0, 1 << 20).unwrap());
            let size = allocs_in(|| sys.array_get_size(0, cid, arr).unwrap());
            let get = allocs_in(|| sys.kv_get(0, cid, kv, b"key").unwrap());
            let put = allocs_in(|| {
                sys.kv_put(0, cid, kv, b"key", Payload::Sized(4096))
                    .unwrap()
            });
            let create_array =
                allocs_in(|| sys.array_create(0, cid, ObjectClass::S1, 1 << 20).unwrap());
            let create_kv = allocs_in(|| sys.kv_create(0, cid, ObjectClass::S1).unwrap());
            [write, read, size, get, put, create_array, create_kv]
        };
        let cold = round();
        (cold, round())
    })
    .join()
    .expect("measuring thread panicked")
}

const OPS: [&str; 7] = [
    "array_write",
    "array_read",
    "array_get_size",
    "kv_get",
    "kv_put",
    "array_create S1",
    "kv_create S1",
];

#[test]
fn op_allocations_do_not_grow_with_pool_size() {
    let (small_cold, small_warm) = op_allocs(4);
    let (large_cold, large_warm) = op_allocs(128);
    // setup ops already fill the free list, so even a first `kv_get`
    // may make no allocation: probe the counter directly
    assert_eq!(
        allocs_in(|| Vec::<u8>::with_capacity(1)),
        (1, 1),
        "counter is live"
    );
    assert_eq!(
        small_cold, large_cold,
        "(allocations, bytes) of the first op {OPS:?} differ between a 4-server and a 128-server pool"
    );
    assert_eq!(
        small_warm, large_warm,
        "(allocations, bytes) of the second op {OPS:?} differ between a 4-server and a 128-server pool"
    );
}

#[test]
fn warm_data_ops_make_at_most_one_allocation() {
    let (_, warm) = op_allocs(16);
    // only `kv_put` allocates: it copies its key into the store
    let cap = [0, 0, 0, 0, 1];
    for ((op, &(n, _)), cap) in OPS.iter().zip(&warm).zip(cap) {
        assert!(
            n <= cap,
            "{op} made {n} heap allocations, at most {cap} expected: {warm:?}"
        );
    }
}

/// Allocations of a warm round of mixed data ops on a 16-server pool:
/// `(built only, built, submitted and run to completion)`.  The round
/// is an fdb-style archive and retrieve — a 1 MiB `SX` array write and
/// read, then KV puts and gets of three value sizes — so programs of
/// different lengths pass through the free list.
fn mixed_round_allocs() -> (u64, u64) {
    struct Drain;
    impl World for Drain {
        fn on_op_complete(&mut self, _op: OpId, _sched: &mut Scheduler) {}
    }
    std::thread::spawn(|| {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(16, 1).build(&mut sched);
        let mut sys = DaosSystem::deploy(&topo, &mut sched, 16, DataMode::Sized);
        let (cid, _) = sys.cont_create(0, ContainerProps::default());
        let (arr, _) = sys.array_create(0, cid, ObjectClass::SX, 1 << 20).unwrap();
        let (kv, _) = sys.kv_create(0, cid, ObjectClass::S1).unwrap();
        let values = [64u64, 4096, 65536];
        let ops = |sys: &mut DaosSystem| {
            let mut steps = vec![sys
                .array_write(0, cid, arr, 0, Payload::Sized(1 << 20))
                .unwrap()];
            for (i, &v) in values.iter().enumerate() {
                let key = [b'k', b'0' + i as u8];
                steps.push(sys.kv_put(0, cid, kv, &key, Payload::Sized(v)).unwrap());
            }
            steps.push(sys.array_read(0, cid, arr, 0, 1 << 20).unwrap().1);
            for i in 0..values.len() {
                let key = [b'k', b'0' + i as u8];
                steps.push(sys.kv_get(0, cid, kv, &key).unwrap().1);
            }
            steps
        };
        let round = |sys: &mut DaosSystem, sched: &mut Scheduler| {
            for (i, step) in ops(sys).into_iter().enumerate() {
                sched.submit(step, OpId(i as u64));
            }
            run(sched, &mut Drain);
        };
        for _ in 0..3 {
            round(&mut sys, &mut sched);
        }
        let built = allocs_in(|| ops(&mut sys)).0;
        let ran = allocs_in(|| round(&mut sys, &mut sched)).0;
        (built, ran)
    })
    .join()
    .expect("measuring thread panicked")
}

#[test]
fn warm_mixed_ops_allocate_nothing_to_submit_and_run() {
    let (built, ran) = mixed_round_allocs();
    assert_eq!(
        ran, built,
        "a warm round made {built} allocations to build its ops and {ran} to build, submit and run them"
    );
}
