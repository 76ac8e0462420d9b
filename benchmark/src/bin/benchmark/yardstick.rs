//! Host-speed yardstick.
//!
//! Shared machines change speed by tens of percent for a minute at a
//! time, and every host-time sample of a run moves with them.  Before
//! and after each iteration the benchmark times a fixed reference
//! computation: sorting, ordered search and pointer chasing, like the
//! simulator's hot paths, but sharing no code with it.  Host times are
//! reported scaled by `REFERENCE_S / yardstick`, that is, in seconds at a
//! typical speed of the machine the baseline was taken on.
//!
//! The yardstick works in memory of its own, allocated once before any
//! simulator work, and never calls the allocator while it is timed, so
//! the simulator's heap and allocation history cannot reach it.  Its
//! first sample refills the caches the simulator evicted; callers use a
//! median.

use std::time::Instant;

/// A typical yardstick time of the 2-core machine `BASELINE.md` was
/// taken on, in seconds.
pub const REFERENCE_S: f64 = 0.005;

/// Timings per measurement.
pub const SAMPLES: usize = 7;

/// Keys sorted and searched per sample: 512 KiB of them.
const KEYS: usize = 1 << 16;

/// Searches and pointer-chasing steps per sample.
const STEPS: usize = 1 << 16;

/// The reference computation's working set.
pub struct Yardstick {
    keys: Vec<u64>,
    sorted: Vec<u64>,
    /// A single cycle through all slots, in a scattered order.
    next: Vec<u32>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let keys: Vec<u64> = (0..KEYS).map(|_| xorshift(&mut x)).collect();
        // linking the slots in a shuffled order makes one cycle through all
        let mut order: Vec<u32> = (0..KEYS as u32).collect();
        for i in (1..KEYS).rev() {
            let j = (xorshift(&mut x) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut next = vec![0u32; KEYS];
        for i in 0..KEYS {
            next[order[i] as usize] = order[(i + 1) % KEYS];
        }
        Yardstick {
            sorted: keys.clone(),
            keys,
            next,
        }
    }

    /// Times of the reference computation right now, in seconds.
    pub fn samples(&mut self) -> [f64; SAMPLES] {
        let mut t = [0.0; SAMPLES];
        for s in &mut t {
            *s = self.once();
        }
        t
    }

    fn once(&mut self) -> f64 {
        let start = Instant::now();
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut acc = 0usize;
        for _ in 0..STEPS {
            let probe = xorshift(&mut x);
            let (Ok(i) | Err(i)) = self.sorted.binary_search(&probe);
            acc = acc.wrapping_add(i);
        }
        let mut slot = 0usize;
        for _ in 0..STEPS {
            slot = self.next[slot] as usize;
            acc = acc.wrapping_add(slot);
        }
        std::hint::black_box(acc);
        start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// The system allocator, counting each thread's allocations.
    struct Counting;

    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    #[test]
    fn measuring_never_calls_the_allocator() {
        let mut y = Yardstick::new();
        let before = ALLOCATIONS.with(Cell::get);
        let t = y.samples();
        assert_eq!(ALLOCATIONS.with(Cell::get), before);
        assert!(t.iter().all(|&t| t > 0.0));
    }
}
