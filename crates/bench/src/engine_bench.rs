//! Seeded engine-only workloads for the `engine_events_per_sec` bench
//! trajectory.
//!
//! Each family drives the `simkit` Scheduler directly — no interface
//! crates — so its throughput isolates the engine hot path: timer
//! drain, flow completion batches, and the max-min rate recomputation.  Workloads are seeded and the op count
//! per family is fixed, so every run completes the same number of
//! events and folds the same replay digest; `repro bench-engine`
//! re-checks both against the committed `BENCH_engine.json` before
//! comparing throughput.  This module performs no timing itself —
//! callers (the criterion bench, the repro target) own the clock.

use simkit::units::{Bytes, GB, MB};
use simkit::{run, OpId, ResourceId, Scheduler, SimTime, SplitMix64, Step, World};

/// Ops completed per family run; fixed so event counts are comparable
/// across machines and commits.
pub const BENCH_OPS: u64 = 2048;

/// In-flight op window: deep enough to keep many flows sharing
/// resources (exercising the fair-share recompute), shallow enough
/// that the timer heap and flow slab stay realistic.
const WINDOW: u64 = 64;

/// In-flight op window of the `wide` family: about as many live flows
/// as a Fig 1 bulk run keeps (~1000), the regime where every re-solve
/// covers a large flow set and only a handful of flows turn over.
const WIDE_WINDOW: u64 = 1024;

/// Resources in the bench topology.
const RESOURCES: usize = 32;

/// The scenario families, in report order.
pub const FAMILIES: &[&str] = &["fanout", "chain", "timer", "mixed", "wide"];

/// Iterations of the calibration spin per timing probe.
pub const CALIBRATION_ITERS: u64 = 1 << 22;

/// A pure-CPU reference workload (a SplitMix64 stream folded FNV-style)
/// used to normalise events/sec: the trajectory gate compares the ratio
/// of engine throughput to this spin's rate, so a noisy or slower
/// machine rescales both sides and real per-event cost changes still
/// show.  Returns a checksum so the loop cannot be optimised away.
pub fn calibration_spin(iters: u64) -> u64 {
    let mut rng = SplitMix64::new(0xca11_b7a7);
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..iters {
        acc = (acc ^ rng.next_u64()).wrapping_mul(0x100_0000_01b3);
    }
    acc
}

/// Outcome of one deterministic family run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyResult {
    /// Family name (one of [`FAMILIES`]).
    pub name: &'static str,
    /// Events (completed op chains) processed — always the configured
    /// op count when the run drains.
    pub events: u64,
    /// The engine's replay digest over the completion stream.
    pub digest: u64,
}

enum Kind {
    Fanout,
    Chain,
    Timer,
    Mixed,
    Wide,
}

struct Driver {
    rng: SplitMix64,
    kind: Kind,
    resources: Vec<ResourceId>,
    /// Ops not yet submitted (the seed window comes out of this too).
    remaining: u64,
    completed: u64,
    next_id: u64,
}

impl Driver {
    fn path<const HOPS: usize>(&mut self) -> [ResourceId; HOPS] {
        let n = self.resources.len() as u64;
        std::array::from_fn(|_| self.resources[self.rng.next_below(n) as usize])
    }

    fn make_step(&mut self) -> Step {
        let kind = match self.kind {
            Kind::Fanout | Kind::Wide => 0,
            Kind::Chain => 1,
            Kind::Timer => 2,
            Kind::Mixed => self.rng.next_below(3),
        };
        match kind {
            // Wide sharing: one transfer crossing three of the shared
            // resources — recompute-heavy, completion batches overlap.
            0 => {
                let units = Bytes(4096.0 + self.rng.next_below(4096) as f64);
                let path = self.path::<3>();
                Step::transfer(units, path)
            }
            // Deep chains: eight back-to-back transfers — stresses
            // completion advance and the cached next-deadline.
            1 => {
                let hops: Vec<Step> = (0..8)
                    .map(|_| {
                        let units = Bytes(512.0 + self.rng.next_below(512) as f64);
                        let path = self.path::<1>();
                        Step::transfer(units, path)
                    })
                    .collect();
                Step::seq(hops)
            }
            // Timer-heavy: a seeded delay then a small transfer —
            // stresses the timer heap against the flow deadline race.
            _ => {
                let delay = SimTime::from_nanos(1_000 + self.rng.next_below(100_000));
                let units = Bytes(256.0 + self.rng.next_below(256) as f64);
                let path = self.path::<1>();
                Step::delay(delay).then(Step::transfer(units, path))
            }
        }
    }

    fn submit_one(&mut self, sched: &mut Scheduler) {
        let step = self.make_step();
        let op = OpId(self.next_id);
        self.next_id += 1;
        sched.submit(step, op);
    }
}

impl World for Driver {
    fn on_op_complete(&mut self, _op: OpId, sched: &mut Scheduler) {
        self.completed += 1;
        if self.remaining > 0 {
            self.remaining -= 1;
            self.submit_one(sched);
        }
    }
}

/// Run one family to completion with `ops` total ops and return its
/// deterministic event count and replay digest.
pub fn run_family(name: &str, ops: u64) -> FamilyResult {
    let (kind, seed, static_name) = match name {
        "fanout" => (Kind::Fanout, 0x5eed_0001, FAMILIES[0]),
        "chain" => (Kind::Chain, 0x5eed_0002, FAMILIES[1]),
        "timer" => (Kind::Timer, 0x5eed_0003, FAMILIES[2]),
        "mixed" => (Kind::Mixed, 0x5eed_0004, FAMILIES[3]),
        "wide" => (Kind::Wide, 0x5eed_0005, FAMILIES[4]),
        other => panic!("unknown engine bench family `{other}`"),
    };
    let mut sched = Scheduler::new();
    let resources: Vec<ResourceId> = (0..RESOURCES)
        .map(|i| sched.add_resource(format!("r{i}"), GB + i as f64 * 10.0 * MB))
        .collect();
    let window = match kind {
        Kind::Wide => WIDE_WINDOW,
        _ => WINDOW,
    }
    .min(ops);
    let mut driver = Driver {
        rng: SplitMix64::new(seed),
        kind,
        resources,
        remaining: ops,
        completed: 0,
        next_id: 0,
    };
    for _ in 0..window {
        driver.remaining -= 1;
        driver.submit_one(&mut sched);
    }
    run(&mut sched, &mut driver);
    FamilyResult {
        name: static_name,
        events: driver.completed,
        digest: sched.digest(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_are_deterministic_and_complete() {
        for fam in FAMILIES {
            let a = run_family(fam, 256);
            let b = run_family(fam, 256);
            assert_eq!(a, b, "{fam} must replay identically");
            assert_eq!(a.events, 256, "{fam} must drain its op budget");
        }
    }

    #[test]
    fn families_fold_distinct_digests() {
        let digests: Vec<u64> = FAMILIES.iter().map(|f| run_family(f, 256).digest).collect();
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j], "families must differ");
            }
        }
    }
}
