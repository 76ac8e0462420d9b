//! Integration tests for the engine's performance features: event
//! coalescing, the banded fair-share solver, and their accuracy bounds.

use simkit::{run, Bytes, OpId, Scheduler, SimTime, Step, World};

struct Collect(Vec<(u64, SimTime)>);
impl World for Collect {
    fn on_op_complete(&mut self, op: OpId, sched: &mut Scheduler) {
        self.0.push((op.0, sched.now()));
    }
}

/// A staggered closed-loop workload, run with given engine settings;
/// returns the makespan in seconds.
fn staggered_makespan(quantum_ns: u64, tol: f64) -> f64 {
    struct Loop {
        res: Vec<simkit::ResourceId>,
        left: Vec<u32>,
    }
    impl World for Loop {
        fn on_op_complete(&mut self, op: OpId, sched: &mut Scheduler) {
            let p = op.0 as usize;
            if self.left[p] > 0 {
                self.left[p] -= 1;
                let r = self.res[(p * 7 + self.left[p] as usize) % self.res.len()];
                sched.submit(Step::transfer(Bytes(10.0), [r]), op);
            }
        }
    }
    let mut sched = Scheduler::new();
    sched.set_coalescing(quantum_ns);
    sched.set_fairshare_tolerance(tol);
    let res: Vec<_> = (0..8)
        .map(|i| sched.add_resource(format!("r{i}"), 100.0))
        .collect();
    let mut w = Loop {
        res: res.clone(),
        left: vec![20; 64],
    };
    for p in 0..64usize {
        let r = w.res[(p * 7 + 20) % w.res.len()];
        sched.submit_after(
            SimTime(p as u64 * 1_000),
            Step::transfer(Bytes(10.0), [r]),
            OpId(p as u64),
        );
    }
    run(&mut sched, &mut w);
    sched.now().as_secs_f64()
}

#[test]
fn coalescing_and_band_preserve_makespan_within_percent() {
    let exact = staggered_makespan(0, 0.0);
    let fast = staggered_makespan(100_000, 0.02);
    let err = (fast - exact).abs() / exact;
    assert!(
        err < 0.03,
        "approximations moved the makespan by {:.2}% (exact {exact:.4}s, fast {fast:.4}s)",
        err * 100.0
    );
}

#[test]
fn coalescing_batches_near_simultaneous_completions() {
    // 16 flows whose exact completions differ by < 1 µs all land on one
    // timestamp under a 10 µs quantum.
    let mut sched = Scheduler::new();
    sched.set_coalescing(10_000);
    let r = sched.add_resource("r", 1e6);
    for i in 0..16u64 {
        // sizes differ by 0.001 units -> sub-µs completion differences
        // even at the fair-shared rate
        sched.submit(
            Step::transfer(Bytes(1000.0 + i as f64 * 0.001), [r]),
            OpId(i),
        );
    }
    let mut w = Collect(Vec::new());
    run(&mut sched, &mut w);
    let t0 = w.0[0].1;
    assert!(w.0.iter().all(|&(_, t)| t == t0), "one batch: {:?}", w.0);
}

#[test]
fn zero_quantum_keeps_exact_times() {
    let mut sched = Scheduler::new();
    let r = sched.add_resource("r", 100.0);
    sched.submit(Step::transfer(Bytes(50.0), [r]), OpId(1));
    let mut w = Collect(Vec::new());
    run(&mut sched, &mut w);
    assert_eq!(w.0[0].1.as_nanos(), 500_000_000);
}

#[test]
fn banded_solver_never_exceeds_capacity_grossly() {
    // With a 5% band, aggregate throughput may deviate from exact by at
    // most the band.
    let mut sched = Scheduler::with_monitor();
    sched.set_fairshare_tolerance(0.05);
    let r = sched.add_resource("r", 1000.0);
    for i in 0..32u64 {
        sched.submit(Step::transfer(Bytes(100.0), [r]), OpId(i));
    }
    let mut w = Collect(Vec::new());
    run(&mut sched, &mut w);
    let total_work = 3200.0;
    let ideal = total_work / 1000.0;
    let t = sched.now().as_secs_f64();
    assert!(
        t >= ideal * 0.95 && t <= ideal * 1.05,
        "banded makespan {t:.4}s vs ideal {ideal:.4}s"
    );
}

#[test]
fn deeply_nested_chains_execute_in_order() {
    let mut sched = Scheduler::new();
    let r = sched.add_resource("r", 1000.0);
    // Par( Seq(delay, Par(t, t)), Seq(t, delay) ) completes at the max
    // of both branches.
    let step = Step::par([
        Step::seq([
            Step::delay(SimTime(100_000_000)), // 0.1 s
            Step::par([
                Step::transfer(Bytes(100.0), [r]),
                Step::transfer(Bytes(100.0), [r]),
            ]),
        ]),
        Step::seq([
            Step::transfer(Bytes(300.0), [r]),
            Step::delay(SimTime(50_000_000)),
        ]),
    ]);
    sched.submit(step, OpId(9));
    let mut w = Collect(Vec::new());
    run(&mut sched, &mut w);
    let t = w.0[0].1.as_secs_f64();
    // work conservation: 500 units at 1000/s = 0.5s of transfer, with
    // delays overlapping transfers of the other branch
    assert!(t > 0.4 && t < 0.7, "nested chain finished at {t}");
}

#[test]
fn many_independent_resources_scale() {
    // sanity: a wide submission wave across 256 resources completes in
    // one transfer time
    let mut sched = Scheduler::new();
    sched.set_coalescing(1_000);
    let res: Vec<_> = (0..256)
        .map(|i| sched.add_resource(format!("d{i}"), 100.0))
        .collect();
    for (i, &r) in res.iter().enumerate() {
        sched.submit(Step::transfer(Bytes(100.0), [r]), OpId(i as u64));
    }
    let mut w = Collect(Vec::new());
    run(&mut sched, &mut w);
    assert_eq!(w.0.len(), 256);
    assert!((sched.now().as_secs_f64() - 1.0).abs() < 0.01);
}

#[test]
fn completions_arrive_in_fair_share_order() {
    let mut sched = Scheduler::new();
    let r = sched.add_resource("r", 100.0);
    for i in 0..4u64 {
        sched.submit(Step::transfer(Bytes(10.0 * (i + 1) as f64), [r]), OpId(i));
    }
    let mut w = Collect(Vec::new());
    run(&mut sched, &mut w);
    let evs = &w.0;
    assert_eq!(evs.len(), 4);
    // smaller transfers complete first under fair sharing
    assert_eq!(evs[0].0, 0);
    assert_eq!(evs[3].0, 3);
    assert!(evs.windows(2).all(|w| w[0].1 <= w[1].1));
}
