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
//! The counting allocator keeps thread-local counts, so tests running
//! in parallel on other threads do not disturb the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cluster::{ClusterSpec, Payload};
use daos_core::{ContainerProps, DaosSystem, DataMode, ObjectClass};
use simkit::Scheduler;

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

/// Allocations and bytes of one op of each kind on a fresh pool of
/// `servers` engines, in the order of [`OPS`].
fn op_allocs(servers: usize) -> [(u64, u64); 7] {
    let mut sched = Scheduler::new();
    let topo = ClusterSpec::new(servers, 1).build(&mut sched);
    let mut sys = DaosSystem::deploy(&topo, &mut sched, servers, DataMode::Sized);
    let (cid, _) = sys.cont_create(0, ContainerProps::default());
    let (arr, _) = sys.array_create(0, cid, ObjectClass::SX, 1 << 20).unwrap();
    let (kv, _) = sys.kv_create(0, cid, ObjectClass::SX).unwrap();
    sys.kv_put(0, cid, kv, b"key", Payload::Sized(4096))
        .unwrap();
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
    let create_array = allocs_in(|| sys.array_create(0, cid, ObjectClass::S1, 1 << 20).unwrap());
    let create_kv = allocs_in(|| sys.kv_create(0, cid, ObjectClass::S1).unwrap());
    [write, read, size, get, put, create_array, create_kv]
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
    let small = op_allocs(4);
    let large = op_allocs(128);
    assert!(
        small.iter().all(|&(n, _)| n > 0),
        "counter is live: {small:?}"
    );
    assert_eq!(
        small, large,
        "(allocations, bytes) per op {OPS:?} differ between a 4-server and a 128-server pool"
    );
}
