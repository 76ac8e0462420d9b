//! The phase driver: runs a [`ProcWorkload`] on a scheduler and applies
//! the paper's bandwidth definition (§II): bytes moved divided by the
//! wall-clock time between the start of the first I/O operation and the
//! end of the last one.

use cluster::bench::ProcWorkload;
use simkit::{run, FaultEvent, OpId, Scheduler, SimTime, Step, World};

/// Result of one measured phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseResult {
    /// Logical bytes moved in the measured window.
    pub bytes: f64,
    /// Measured window in (simulated) seconds.
    pub seconds: f64,
    /// Total operations completed.
    pub ops: usize,
}

impl PhaseResult {
    /// Bandwidth in bytes/second.
    pub fn bandwidth(&self) -> f64 {
        if self.seconds > 0.0 {
            self.bytes / self.seconds
        } else {
            0.0
        }
    }

    /// Operation rate in ops/second.
    pub fn iops(&self) -> f64 {
        if self.seconds > 0.0 {
            self.ops as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Background work a phase runs beside its foreground ops — the faulted
/// family's crash → rebuild chain and scrubber, the rebalance family's
/// migration — attached to the one closed-loop op loop of [`run_ops`].
/// Every method defaults to a no-op, so `()` is the plain phase.
pub(crate) trait PhaseHooks {
    /// Start background work; runs once the initial ops are submitted.
    fn start(&mut self, _sched: &mut Scheduler) {}

    /// A marker op completed: any op id at or above the process count
    /// belongs to the hooks, never to a process.
    fn on_marker(&mut self, _op: OpId, _sched: &mut Scheduler) {}

    /// A fault fired; capacity scaling is already applied by the engine.
    fn on_fault(&mut self, _event: &FaultEvent, _sched: &mut Scheduler) {}
}

impl PhaseHooks for () {}

/// Counts completions down to zero: the untimed setup and finalize
/// barriers.
struct Barrier {
    remaining: usize,
}
impl World for Barrier {
    fn on_op_complete(&mut self, _op: OpId, _sched: &mut Scheduler) {
        self.remaining -= 1;
    }
}

/// Submit `step(p)` for every process and run until all of them complete.
fn barrier(sched: &mut Scheduler, procs: usize, mut step: impl FnMut(usize) -> Step) {
    let mut world = Barrier { remaining: procs };
    for p in 0..procs {
        sched.submit(step(p), OpId(p as u64));
    }
    run(sched, &mut world);
    assert_eq!(world.remaining, 0, "barrier completions");
}

/// The untimed setup barrier: every process runs its `setup`.
pub(crate) fn setup_barrier<W: ProcWorkload>(sched: &mut Scheduler, wl: &mut W) {
    barrier(sched, wl.procs(), |p| wl.setup(p));
}

struct OpsWorld<'a, W: ProcWorkload, H: PhaseHooks> {
    wl: &'a mut W,
    hooks: &'a mut H,
    /// Next op index to issue, per process.
    next_idx: Vec<usize>,
    /// Ops still in flight, per process.
    inflight: Vec<usize>,
    ops_per_proc: usize,
    remaining: usize,
    last_end: SimTime,
}

impl<W: ProcWorkload, H: PhaseHooks> World for OpsWorld<'_, W, H> {
    fn on_op_complete(&mut self, op: OpId, sched: &mut Scheduler) {
        if op.0 >= self.next_idx.len() as u64 {
            self.hooks.on_marker(op, sched);
            return;
        }
        let proc = op.0 as usize;
        self.last_end = sched.now();
        self.inflight[proc] -= 1;
        let idx = self.next_idx[proc];
        if idx < self.ops_per_proc {
            self.next_idx[proc] += 1;
            self.inflight[proc] += 1;
            let step = self.wl.op(proc, idx);
            sched.submit(step, OpId(proc as u64));
        } else if self.inflight[proc] == 0 {
            self.remaining -= 1;
        }
    }

    fn on_fault(&mut self, event: &FaultEvent, sched: &mut Scheduler) {
        self.hooks.on_fault(event, sched);
    }
}

/// The measured op loop: every process issues its ops back-to-back
/// (queue depth 1 unless the workload asks for more, as IOR and the
/// ECMWF tools do) while `hooks` drive background work beside them.
/// The window runs from the phase start to the last process op's end;
/// setup and finalize are the caller's.
pub(crate) fn run_ops<W: ProcWorkload, H: PhaseHooks>(
    sched: &mut Scheduler,
    wl: &mut W,
    hooks: &mut H,
) -> PhaseResult {
    let procs = wl.procs();
    let ops_per_proc = wl.ops_per_proc();
    let t0 = sched.now();
    let initial = wl.queue_depth().max(1).min(ops_per_proc);
    let mut world = OpsWorld {
        wl,
        hooks,
        next_idx: vec![initial; procs],
        inflight: vec![initial; procs],
        ops_per_proc,
        // a process without ops has finished before it starts
        remaining: if ops_per_proc > 0 { procs } else { 0 },
        last_end: t0,
    };
    for p in 0..procs {
        // Real parallel jobs leave the barrier with jittered start
        // times (MPI barrier exit, first-RPC setup).  A small
        // deterministic stagger reproduces that decorrelation;
        // without it, identical queue-depth-1 processes march in
        // lock-step waves that leave devices idle between waves.
        let stagger = start_stagger(p);
        for i in 0..initial {
            let step = world.wl.op(p, i);
            sched.submit_after(stagger, step, OpId(p as u64));
        }
    }
    world.hooks.start(sched);
    run(sched, &mut world);
    assert_eq!(world.remaining, 0, "all processes finished");
    let total_ops = procs * ops_per_proc;
    PhaseResult {
        bytes: total_ops as f64 * world.wl.bytes_per_op(),
        seconds: world.last_end.secs_since(t0),
        ops: total_ops,
    }
}

/// A background job shipped as a chain of throttled waves under one
/// marker op id: the next wave is emitted only when the previous one
/// completes, so the job never holds more than one wave's worth of the
/// shared resources against the foreground ops.
pub(crate) struct WavePump {
    op: OpId,
    busy: bool,
    /// Waves shipped so far.
    pub(crate) waves: usize,
}

impl WavePump {
    /// An idle pump whose waves complete as `op`.
    pub(crate) fn new(op: OpId) -> WavePump {
        WavePump {
            op,
            busy: false,
            waves: 0,
        }
    }

    /// Whether `op` is this pump's wave completing.
    pub(crate) fn owns(&self, op: OpId) -> bool {
        op == self.op
    }

    /// Whether no wave is in flight.
    pub(crate) fn idle(&self) -> bool {
        !self.busy
    }

    /// Ship the emitter's next `wave`; `None` means the job has drained:
    /// go idle and run `finish`.
    pub(crate) fn ship(
        &mut self,
        sched: &mut Scheduler,
        wave: Option<Step>,
        finish: impl FnOnce(&mut Scheduler),
    ) {
        self.busy = wave.is_some();
        match wave {
            Some(wave) => {
                self.waves += 1;
                sched.submit(wave, self.op);
            }
            None => finish(sched),
        }
    }
}

/// Run one measured phase of `wl` on `sched`.
///
/// 1. Every process runs its `setup` (untimed);
/// 2. barrier;
/// 3. the measured op loop ([`run_ops`]);
/// 4. `finalize` runs (untimed unless the workload buffers, in which
///    case its flushed bytes still count toward volume).
pub fn run_phase<W: ProcWorkload>(sched: &mut Scheduler, wl: &mut W) -> PhaseResult {
    setup_barrier(sched, wl);
    let t0 = sched.now();
    let mut result = run_ops(sched, wl, &mut ());

    // -- finalize --
    let procs = wl.procs();
    let finalize_bytes = wl.finalize_bytes() * procs as f64;
    let in_window = wl.finalize_in_window();
    barrier(sched, procs, |p| wl.finalize(p));
    if in_window || finalize_bytes > 0.0 {
        // buffered writers flush real data during finalize; count it
        result.seconds = sched.now().secs_since(t0);
    }
    result.bytes += finalize_bytes;
    result
}

/// Deterministic per-process start jitter, uniform in [0, 2 ms).
fn start_stagger(proc: usize) -> SimTime {
    let mut z = proc as u64 ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    SimTime::from_nanos((z ^ (z >> 31)) % 2_000_000)
}

/// A trivial workload for driver tests: each process performs `ops`
/// transfers through one shared resource.
#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{Bytes, ResourceId};

    struct Uniform {
        procs: usize,
        ops: usize,
        bytes: f64,
        res: ResourceId,
    }
    impl ProcWorkload for Uniform {
        fn procs(&self) -> usize {
            self.procs
        }
        fn node_of(&self, _p: usize) -> usize {
            0
        }
        fn setup(&mut self, _p: usize) -> Step {
            Step::delay(SimTime(1000))
        }
        fn ops_per_proc(&self) -> usize {
            self.ops
        }
        fn bytes_per_op(&self) -> f64 {
            self.bytes
        }
        fn op(&mut self, _p: usize, _i: usize) -> Step {
            Step::transfer(Bytes(self.bytes), [self.res])
        }
    }

    #[test]
    fn bandwidth_equals_capacity_when_saturated() {
        let mut sched = Scheduler::new();
        let res = sched.add_resource("r", 1000.0);
        let mut wl = Uniform {
            procs: 4,
            ops: 25,
            bytes: 10.0,
            res,
        };
        let r = run_phase(&mut sched, &mut wl);
        assert_eq!(r.ops, 100);
        assert!((r.bytes - 1000.0).abs() < 1e-9);
        // 1000 bytes through 1000 B/s = 1 s, plus up to 2 ms of start
        // stagger
        assert!(
            r.seconds >= 1.0 - 1e-6 && r.seconds < 1.003,
            "{}",
            r.seconds
        );
        assert!((r.bandwidth() - 1000.0).abs() < 5.0);
        assert!((r.iops() - 100.0).abs() < 0.5);
    }

    #[test]
    fn setup_time_is_not_measured() {
        struct SlowSetup {
            res: ResourceId,
        }
        impl ProcWorkload for SlowSetup {
            fn procs(&self) -> usize {
                1
            }
            fn node_of(&self, _p: usize) -> usize {
                0
            }
            fn setup(&mut self, _p: usize) -> Step {
                Step::delay(SimTime(5_000_000_000)) // five slow seconds
            }
            fn ops_per_proc(&self) -> usize {
                1
            }
            fn bytes_per_op(&self) -> f64 {
                100.0
            }
            fn op(&mut self, _p: usize, _i: usize) -> Step {
                Step::transfer(Bytes(100.0), [self.res])
            }
        }
        let mut sched = Scheduler::new();
        let res = sched.add_resource("r", 100.0);
        let r = run_phase(&mut sched, &mut SlowSetup { res });
        assert!(
            r.seconds >= 1.0 - 1e-6 && r.seconds < 1.003,
            "setup excluded: {}",
            r.seconds
        );
    }

    #[test]
    fn zero_ops_is_safe() {
        let mut sched = Scheduler::new();
        let res = sched.add_resource("r", 10.0);
        let mut wl = Uniform {
            procs: 2,
            ops: 0,
            bytes: 1.0,
            res,
        };
        let r = run_phase(&mut sched, &mut wl);
        assert_eq!(r.ops, 0);
        assert_eq!(r.bandwidth(), 0.0);
    }
}
