//! Property tests for the max-min fair-share solver and the fluid engine.

use proptest::prelude::*;
use simkit::fairshare::FairShare;
use simkit::units::{Bytes, Rate};
use simkit::{run, OpId, Path, ResourceId, Scheduler, SimTime, Step, World};

/// Random scenario: capacities plus flows with 1..=4 distinct resources.
fn scenario() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<u32>>)> {
    (2usize..8).prop_flat_map(|nres| {
        let caps = proptest::collection::vec(0.5f64..200.0, nres);
        let flow = proptest::collection::btree_set(0u32..nres as u32, 1..=nres.min(4))
            .prop_map(|s| s.into_iter().collect::<Vec<u32>>());
        let flows = proptest::collection::vec(flow, 1..24);
        (caps, flows)
    })
}

fn solve(caps: &[f64], flows: &[Vec<u32>]) -> Vec<f64> {
    let mut fs = FairShare::new();
    for (i, path) in flows.iter().enumerate() {
        let p: Vec<ResourceId> = path.iter().map(|&r| ResourceId(r)).collect();
        fs.add(i as u32, Path::try_from(&p[..]).unwrap(), Bytes(1.0));
    }
    let caps: Vec<Rate> = caps.iter().map(|&c| Rate(c)).collect();
    fs.solve(&caps, SimTime::ZERO);
    let mut rates = vec![0.0; flows.len()];
    for (k, r) in fs.results() {
        rates[k as usize] = r.get();
    }
    rates
}

proptest! {
    /// No resource is driven above its capacity.
    #[test]
    fn capacities_respected((caps, flows) in scenario()) {
        let rates = solve(&caps, &flows);
        for (r, &cap) in caps.iter().enumerate() {
            let load: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(path, _)| path.contains(&(r as u32)))
                .map(|(_, rate)| *rate)
                .sum();
            prop_assert!(load <= cap * (1.0 + 1e-9) + 1e-9,
                "resource {r} over capacity: {load} > {cap}");
        }
    }

    /// Every flow gets a strictly positive rate (all capacities > 0).
    #[test]
    fn rates_positive((caps, flows) in scenario()) {
        let rates = solve(&caps, &flows);
        for (i, rate) in rates.iter().enumerate() {
            prop_assert!(*rate > 0.0, "flow {i} starved: {rate}");
        }
    }

    /// Max-min condition: every flow crosses a saturated resource on
    /// which it has a maximal rate.  (This characterises the max-min
    /// fair allocation.)
    #[test]
    fn maxmin_bottleneck_condition((caps, flows) in scenario()) {
        let rates = solve(&caps, &flows);
        for (i, path) in flows.iter().enumerate() {
            let ok = path.iter().any(|&r| {
                let load: f64 = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(p, _)| p.contains(&r))
                    .map(|(_, rate)| *rate)
                    .sum();
                let saturated = load >= caps[r as usize] * (1.0 - 1e-6);
                let max_on_r = flows
                    .iter()
                    .zip(&rates)
                    .filter(|(p, _)| p.contains(&r))
                    .map(|(_, rate)| *rate)
                    .fold(0.0f64, f64::max);
                saturated && rates[i] >= max_on_r * (1.0 - 1e-6)
            });
            prop_assert!(ok, "flow {i} has no bottleneck: rate {}", rates[i]);
        }
    }

    /// Work conservation in the engine: pushing N transfers of equal size
    /// through a single resource takes exactly total/capacity seconds, no
    /// matter how arrivals are staggered.
    #[test]
    fn engine_work_conservation(
        n in 1usize..20,
        unit in 1.0f64..50.0,
        cap in 10.0f64..500.0,
        stagger_ns in 0u64..1000,
    ) {
        struct Last(simkit::SimTime);
        impl World for Last {
            fn on_op_complete(&mut self, _op: OpId, sched: &mut Scheduler) {
                self.0 = sched.now();
            }
        }
        let mut s = Scheduler::new();
        let r = s.add_resource("r", cap);
        for i in 0..n {
            s.submit_after(SimTime(i as u64 * stagger_ns), Step::transfer(Bytes(unit), [r]), OpId(i as u64));
        }
        let mut w = Last(simkit::SimTime::ZERO);
        run(&mut s, &mut w);
        // The resource is busy from the first arrival to the end; total
        // elapsed >= work/cap and <= work/cap + total stagger.
        let work = unit * n as f64;
        let t = w.0.as_secs_f64();
        prop_assert!(t >= work / cap - 1e-6, "finished impossibly fast: {t}");
        prop_assert!(
            t <= work / cap + (n as u64 * stagger_ns) as f64 / 1e9 + 1e-6,
            "resource idled: {t} vs {}", work / cap
        );
    }
}
