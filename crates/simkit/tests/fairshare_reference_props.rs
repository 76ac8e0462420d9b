//! The fused re-solve against a plain reference.  [`Reference`] is the
//! solver as it stood before the solve took over the flow deadlines:
//! a full stamp pass over every live flow, min and freeze passes over
//! every stamped resource, and a separate loop afterwards that gives
//! each flow its deadline, as the engine's `recompute_rates` did, with
//! the engine's settlement loop beside it.  After any history of flow
//! arrivals, departures, settlements and solves, [`FairShare`] must
//! agree with it bit for bit: rates, fill iterations, every deadline,
//! the earliest deadline, residuals and the due flows of a settlement.

use proptest::prelude::*;
use proptest::TestCaseError;
use simkit::fairshare::FairShare;
use simkit::slab::Slab;
use simkit::units::{Bytes, Rate};
use simkit::{Path, ResourceId, SimTime, MAX_HOPS};

/// One flow of the reference, with the engine's former per-flow state.
#[derive(Debug, Clone, Copy)]
struct RefFlow {
    path: Path,
    slots: [u32; MAX_HOPS],
    rate: Rate,
    frozen: u32,
    remaining: Bytes,
    eps: Bytes,
    deadline: SimTime,
}

/// The plain solver: persistent incidence lists, but every pass visits
/// everything it can.
#[derive(Default)]
struct Reference {
    flows: Vec<Option<RefFlow>>,
    entries: Vec<Vec<(u32, usize)>>,
    rem: Vec<Rate>,
    nflows: Vec<u32>,
    stamp: Vec<u32>,
    order: Vec<u32>,
    epoch: u32,
    tolerance: f64,
}

impl Reference {
    fn add(&mut self, key: u32, path: Path, units: Bytes) {
        let k = key as usize;
        if self.flows.len() <= k {
            self.flows.resize(k + 1, None);
        }
        let mut slots = [0; MAX_HOPS];
        for (hop, &ResourceId(r)) in path.iter().enumerate() {
            let ri = r as usize;
            if self.entries.len() <= ri {
                self.entries.resize_with(ri + 1, Vec::new);
                self.rem.resize(ri + 1, Rate::ZERO);
                self.nflows.resize(ri + 1, 0);
                self.stamp.resize(ri + 1, 0);
            }
            slots[hop] = self.entries[ri].len() as u32;
            self.entries[ri].push((key, hop));
        }
        self.flows[k] = Some(RefFlow {
            path,
            slots,
            rate: Rate::ZERO,
            frozen: 0,
            remaining: units,
            eps: Bytes(units.get() * 1e-9),
            deadline: SimTime::NEVER,
        });
    }

    fn remove(&mut self, key: u32) -> Path {
        let k = key as usize;
        let path = self.flows[k].unwrap().path;
        for (hop, &ResourceId(r)) in path.iter().enumerate() {
            let pos = self.flows[k].unwrap().slots[hop] as usize;
            let list = &mut self.entries[r as usize];
            list.swap_remove(pos);
            if let Some(&(moved, moved_hop)) = list.get(pos) {
                self.flows[moved as usize].as_mut().unwrap().slots[moved_hop] = pos as u32;
            }
        }
        self.flows[k] = None;
        path
    }

    fn live(&self) -> impl Iterator<Item = (u32, &RefFlow)> {
        self.flows
            .iter()
            .enumerate()
            .filter_map(|(k, f)| f.as_ref().map(|f| (k as u32, f)))
    }

    /// Progressive filling, then the deadline loop.
    fn solve(&mut self, caps: &[Rate], now: SimTime) -> (usize, SimTime) {
        self.epoch += 1;
        let epoch = self.epoch;
        self.order.clear();
        for f in self.flows.iter().flatten() {
            for &ResourceId(r) in &f.path {
                let ri = r as usize;
                if self.stamp[ri] != epoch {
                    self.stamp[ri] = epoch;
                    self.order.push(r);
                    self.rem[ri] = caps[ri].max(Rate::ZERO);
                    self.nflows[ri] = self.entries[ri].len() as u32;
                }
            }
        }
        let band = 1.0 + self.tolerance + 1e-12;
        let mut iters = 0usize;
        let mut unfrozen = self.live().count();
        while unfrozen > 0 {
            iters += 1;
            let mut best_fair = Rate(f64::INFINITY);
            for &r in &self.order {
                let ri = r as usize;
                let n = self.nflows[ri];
                if n > 0 {
                    let fair = self.rem[ri] / n as f64;
                    if fair < best_fair {
                        best_fair = fair;
                    }
                }
            }
            assert!(
                best_fair.get().is_finite(),
                "unfrozen flow with no live resource"
            );
            let cutoff = best_fair.max(Rate::ZERO) * band;
            for &r in &self.order {
                let ri = r as usize;
                let n = self.nflows[ri];
                if n == 0 {
                    continue;
                }
                let fair = (self.rem[ri] / n as f64).max(Rate::ZERO);
                if fair > cutoff {
                    continue;
                }
                for &(key, _) in &self.entries[ri] {
                    let f = self.flows[key as usize].as_mut().unwrap();
                    if f.frozen == epoch {
                        continue;
                    }
                    f.frozen = epoch;
                    f.rate = fair;
                    unfrozen -= 1;
                    for &ResourceId(p) in &f.path {
                        let pi = p as usize;
                        self.rem[pi] -= fair;
                        self.nflows[pi] -= 1;
                    }
                }
            }
        }
        let mut deadline_min = SimTime::NEVER;
        for f in self.flows.iter_mut().flatten() {
            f.deadline = if f.remaining <= f.eps {
                now
            } else if f.rate <= Rate::ZERO {
                SimTime::NEVER
            } else {
                now + (f.remaining / f.rate).as_nanos()
            };
            deadline_min = deadline_min.min(f.deadline);
        }
        (iters, deadline_min)
    }

    /// The engine's settlement loop: advance every flow `dt` seconds and
    /// return, in key order, the flows due at `t`.
    fn settle(&mut self, dt: f64, t: SimTime) -> Vec<u32> {
        let mut due = Vec::new();
        for (key, slot) in self.flows.iter_mut().enumerate() {
            let Some(f) = slot else { continue };
            if dt > 0.0 && f.rate > Rate::ZERO {
                let moved = f.rate.bytes_in(dt).min(f.remaining);
                f.remaining -= moved;
            }
            if f.deadline <= t || f.remaining <= f.eps {
                due.push(key as u32);
            }
        }
        due
    }
}

/// One step of a history.
#[derive(Debug, Clone)]
enum Op {
    /// Start a flow of this many units over these resources.
    Add(f64, Vec<u32>),
    /// End the `n % live`-th live flow.
    Remove(u32),
    /// Settle then solve at a time this many nanoseconds later.
    Solve(u64),
    /// Settle then solve at the `n % live`-th live flow's deadline minus
    /// `back` nanoseconds, which leaves residuals around its `eps`.
    NearDeadline(u32, u64),
}

/// Capacities (a quarter of them zero), a tolerance of 0 or 0.02, and a
/// history over them.
fn scenario() -> impl Strategy<Value = (Vec<f64>, f64, Vec<Op>)> {
    (2u32..12).prop_flat_map(|nres| {
        let cap = (0u32..4, 0.5f64..200.0).prop_map(|(z, c)| if z == 0 { 0.0 } else { c });
        let caps = proptest::collection::vec(cap, nres as usize);
        let tol = (0u32..2).prop_map(|t| if t == 0 { 0.0 } else { 0.02 });
        let op = (
            0u32..8,
            any::<u32>(),
            0u64..3,
            1e-3f64..1e4,
            proptest::collection::vec(0..nres, 1..=MAX_HOPS),
        )
            .prop_map(|(kind, n, back, units, hops)| match kind {
                0..=2 => Op::Add(units, hops),
                3 | 4 => Op::Remove(n),
                5 => Op::Solve(if n % 4 == 0 {
                    0
                } else {
                    u64::from(n % 2_000_000)
                }),
                _ => Op::NearDeadline(n, back),
            });
        let history = proptest::collection::vec(op, 1..120);
        (caps, tol, history)
    })
}

fn path(hops: &[u32]) -> Path {
    let hops: Vec<ResourceId> = hops.iter().map(|&r| ResourceId(r)).collect();
    Path::try_from(&hops[..]).unwrap()
}

/// Both solvers, driven in lock step the way the engine drives one.
struct Pair {
    caps: Vec<Rate>,
    fs: FairShare,
    reference: Reference,
    keys: Slab<()>,
    now: SimTime,
}

impl Pair {
    /// Settle both to `t` and compare residuals and due flows, then
    /// solve both at `t` and compare everything the solve produced.
    fn settle_and_solve(&mut self, t: SimTime) -> Result<(), TestCaseError> {
        let dt = t.secs_since(self.now);
        let mut due = Vec::new();
        self.fs.settle(dt, t, Some(&mut due), |_, _| {});
        let ref_due = self.reference.settle(dt, t);
        prop_assert_eq!(due, ref_due, "due flows at {}", t);
        self.now = t;
        let got = self.fs.solve(&self.caps, t);
        let want = self.reference.solve(&self.caps, t);
        prop_assert_eq!(got, want, "(fill iterations, earliest deadline) at {}", t);
        for (key, f) in self.reference.live() {
            prop_assert_eq!(self.fs.rate(key).get().to_bits(), f.rate.get().to_bits());
            prop_assert_eq!(
                self.fs.deadline(key),
                f.deadline,
                "deadline of flow {}",
                key
            );
            prop_assert_eq!(
                self.fs.remaining(key).get().to_bits(),
                f.remaining.get().to_bits()
            );
        }
        prop_assert_eq!(self.fs.earliest_deadline(), want.1);
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fused_solve_matches_the_reference((caps, tol, history) in scenario()) {
        let mut fs = FairShare::new();
        fs.set_tolerance(tol);
        let reference = Reference { tolerance: tol, ..Reference::default() };
        let mut pair = Pair {
            caps: caps.into_iter().map(Rate).collect(),
            fs,
            reference,
            keys: Slab::new(),
            now: SimTime::ZERO,
        };
        for op in &history {
            match op {
                Op::Add(units, hops) => {
                    // Slab keys, reused last-in first-out like the engine's.
                    let key = pair.keys.insert(());
                    pair.fs.add(key, path(hops), Bytes(*units));
                    pair.reference.add(key, path(hops), Bytes(*units));
                }
                Op::Remove(n) => {
                    if !pair.keys.is_empty() {
                        let nth = *n as usize % pair.keys.len();
                        let key = pair.keys.iter().nth(nth).map(|(k, _)| k).unwrap();
                        pair.keys.remove(key);
                        prop_assert_eq!(pair.fs.remove(key), pair.reference.remove(key));
                    }
                }
                Op::Solve(ns) => {
                    let t = pair.now + *ns;
                    pair.settle_and_solve(t)?;
                }
                Op::NearDeadline(n, back) => {
                    if !pair.keys.is_empty() {
                        let nth = *n as usize % pair.keys.len();
                        let key = pair.keys.iter().nth(nth).map(|(k, _)| k).unwrap();
                        let d = pair.fs.deadline(key);
                        if d != SimTime::NEVER {
                            let t = SimTime(d.as_nanos().saturating_sub(*back)).max(pair.now);
                            pair.settle_and_solve(t)?;
                        }
                    }
                }
            }
        }
        let t = pair.now;
        pair.settle_and_solve(t)?;
    }
}
