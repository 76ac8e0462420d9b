//! History independence of the persistent fair-share solver: after any
//! sequence of flow arrivals, departures and solves, a solve returns
//! exactly what a fresh solver returns for the same live flows added in
//! ascending key order — bit-identical rates and deadlines and the same
//! number of filling iterations.  The engine's replay digests rely on
//! this.

use proptest::prelude::*;
use simkit::fairshare::FairShare;
use simkit::slab::Slab;
use simkit::units::{Bytes, Rate};
use simkit::{Path, ResourceId, SimTime};

/// One step of a solver's history.
#[derive(Debug, Clone)]
enum Op {
    /// Start a flow of this many units over these resources (repeats
    /// allowed).
    Add(f64, Vec<u32>),
    /// End the `n % live`-th live flow.
    Remove(u32),
    /// Solve, advancing the solver's epoch.
    Solve,
}

/// Capacities (a quarter of them zero), a tolerance of 0 or 0.02, and a
/// history over them.
fn scenario() -> impl Strategy<Value = (Vec<f64>, f64, Vec<Op>)> {
    (2u32..8).prop_flat_map(|nres| {
        let cap = (0u32..4, 0.5f64..200.0).prop_map(|(z, c)| if z == 0 { 0.0 } else { c });
        let caps = proptest::collection::vec(cap, nres as usize);
        let tol = (0u32..2).prop_map(|t| if t == 0 { 0.0 } else { 0.02 });
        let op = (
            0u32..5,
            any::<u32>(),
            1e-3f64..1e9,
            proptest::collection::vec(0..nres, 1..=5),
        )
            .prop_map(|(kind, n, units, hops)| match kind {
                0 | 1 => Op::Add(units, hops),
                2 | 3 => Op::Remove(n),
                _ => Op::Solve,
            });
        let history = proptest::collection::vec(op, 1..80);
        (caps, tol, history)
    })
}

fn path(hops: &[u32]) -> Path {
    let hops: Vec<ResourceId> = hops.iter().map(|&r| ResourceId(r)).collect();
    Path::try_from(&hops[..]).unwrap()
}

proptest! {
    #[test]
    fn solve_is_independent_of_history((caps, tol, history) in scenario()) {
        let caps: Vec<Rate> = caps.into_iter().map(Rate).collect();
        let mut fs = FairShare::new();
        fs.set_tolerance(tol);
        // Keys come from a slab, so freed keys are reused last-in
        // first-out exactly as the engine reuses them.
        let mut live: Slab<(f64, Vec<u32>)> = Slab::new();
        let mut now = SimTime::ZERO;
        for op in &history {
            match op {
                Op::Add(units, hops) => {
                    let key = live.insert((*units, hops.clone()));
                    fs.add(key, path(hops), Bytes(*units));
                }
                Op::Remove(n) => {
                    if !live.is_empty() {
                        let nth = *n as usize % live.len();
                        let key = live.iter().nth(nth).map(|(k, _)| k).unwrap();
                        let (_, hops) = live.remove(key);
                        prop_assert_eq!(fs.remove(key), path(&hops));
                    }
                }
                Op::Solve => {
                    now += 1_000;
                    fs.solve(&caps, now);
                }
            }
        }
        let (iters, earliest) = fs.solve(&caps, now);

        let mut fresh = FairShare::new();
        fresh.set_tolerance(tol);
        for (key, (units, hops)) in live.iter() {
            fresh.add(key, path(hops), Bytes(*units));
        }
        let (fresh_iters, fresh_earliest) = fresh.solve(&caps, now);

        prop_assert_eq!(iters, fresh_iters, "fill iterations differ");
        prop_assert_eq!(earliest, fresh_earliest, "earliest deadlines differ");
        for (key, _) in live.iter() {
            prop_assert_eq!(fs.deadline(key), fresh.deadline(key), "deadline of flow {}", key);
        }
        prop_assert_eq!(fs.len(), live.len());
        let got: Vec<(u32, u64)> = fs.results().map(|(k, r)| (k, r.get().to_bits())).collect();
        let want: Vec<(u32, u64)> = fresh.results().map(|(k, r)| (k, r.get().to_bits())).collect();
        prop_assert_eq!(got, want, "rates differ from a fresh solve");
    }
}
