//! The fused re-solve against a plain reference.  [`Reference`] is the
//! solver as it stood before the solve took over the flow deadlines:
//! a full stamp pass over every live flow, min and freeze passes over
//! every stamped resource, and a separate loop afterwards that gives
//! each flow its deadline, as the engine's `recompute_rates` did, with
//! the engine's settlement loop beside it.  After any history of flow
//! arrivals, departures, settlements and solves, [`FairShare`] must
//! agree with it bit for bit: rates, fill iterations, every deadline,
//! the earliest deadline, residuals and the due flows of a settlement.
//! It must also freeze outside its filling passes exactly the resources
//! that only single-hop flows cross.

use proptest::prelude::*;
use proptest::{TestCaseError, TestRng};
use simkit::fairshare::FairShare;
use simkit::slab::Slab;
use simkit::units::{Bytes, Rate};
use simkit::{Path, ResourceId, SimTime, SplitMix64, MAX_HOPS};

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

    /// Per resource: `None` while no flow crosses it, else whether only
    /// single-hop flows do.
    fn purity(&self) -> Vec<Option<bool>> {
        self.entries
            .iter()
            .map(|list| {
                (!list.is_empty()).then(|| {
                    list.iter()
                        .all(|&(key, _)| self.flows[key as usize].unwrap().path.len() == 1)
                })
            })
            .collect()
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

/// Like [`scenario`], but most flows are single-hop on the first half
/// of the resources, and the multi-hop flows that also cross them come
/// and go, so those resources turn pure and back between solves.
fn pure_scenario() -> impl Strategy<Value = (Vec<f64>, f64, Vec<Op>)> {
    (2u32..12).prop_flat_map(|nres| {
        let cap = (0u32..4, 0.5f64..200.0).prop_map(|(z, c)| if z == 0 { 0.0 } else { c });
        let caps = proptest::collection::vec(cap, nres as usize);
        let tol = (0u32..2).prop_map(|t| if t == 0 { 0.0 } else { 0.02 });
        let op = (
            0u32..12,
            any::<u32>(),
            0u64..3,
            1e-3f64..1e4,
            0..nres.div_ceil(2),
            proptest::collection::vec(0..nres, 2..=MAX_HOPS),
        )
            .prop_map(|(kind, n, back, units, single, hops)| match kind {
                0..=3 => Op::Add(units, vec![single]),
                4 => Op::Add(units, hops),
                5..=7 => Op::Remove(n),
                8 | 9 => Op::Solve(if n % 4 == 0 {
                    0
                } else {
                    u64::from(n % 2_000_000)
                }),
                _ => Op::NearDeadline(n, back),
            });
        let history = proptest::collection::vec(op, 1..160);
        (caps, tol, history)
    })
}

fn path(hops: &[u32]) -> Path {
    let hops: Vec<ResourceId> = hops.iter().map(|&r| ResourceId(r)).collect();
    Path::try_from(&hops[..]).unwrap()
}

/// How often the solves of a history met the pure-resource path.
#[derive(Debug, Default)]
struct Seen {
    /// Solves that froze a pure resource outside the filling passes.
    pure: usize,
    /// Those of them in which a resource was pure and had not been at
    /// the last solve that saw it crossed, or the other way round.
    flips: usize,
}

/// Both solvers, driven in lock step the way the engine drives one.
struct Pair {
    caps: Vec<Rate>,
    fs: FairShare,
    reference: Reference,
    keys: Slab<()>,
    now: SimTime,
    /// Each resource's purity at the last solve that saw it crossed.
    purity: Vec<Option<bool>>,
    seen: Seen,
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
        let purity = self.reference.purity();
        let pure = purity.iter().filter(|&&p| p == Some(true)).count();
        prop_assert_eq!(self.fs.pure_resources(), pure, "pure resources at {}", t);
        self.purity.resize(purity.len(), None);
        let mut flipped = false;
        for (last, now) in self.purity.iter_mut().zip(purity) {
            if now.is_some() {
                flipped |= last.is_some() && *last != now;
                *last = now;
            }
        }
        if pure > 0 {
            self.seen.pure += 1;
            self.seen.flips += flipped as usize;
        }
        Ok(())
    }
}

/// Drive both solvers through `history` and compare them at every
/// solve; return how often the pure-resource path was met.
fn run(caps: Vec<f64>, tol: f64, history: &[Op]) -> Result<Seen, TestCaseError> {
    let mut fs = FairShare::new();
    fs.set_tolerance(tol);
    let reference = Reference {
        tolerance: tol,
        ..Reference::default()
    };
    let mut pair = Pair {
        caps: caps.into_iter().map(Rate).collect(),
        fs,
        reference,
        keys: Slab::new(),
        now: SimTime::ZERO,
        purity: Vec::new(),
        seen: Seen::default(),
    };
    for op in history {
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
    Ok(pair.seen)
}

#[test]
fn pure_resources_match_the_reference() {
    // The floors keep the generator honest: a change that stops it from
    // reaching pure resources, or from flipping them, fails here rather
    // than passing on histories that never take the path.  The cases run
    // on a thread of their own, so a solve that never returns (a pure
    // resource that never freezes) fails the test instead of hanging it.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let strategy = pure_scenario();
        let mut seen = Seen::default();
        for case in 0..256u64 {
            let mut rng = TestRng::new(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(case + 1));
            let (caps, tol, history) = strategy.sample(&mut rng);
            match run(caps, tol, &history) {
                Ok(s) => {
                    seen.pure += s.pure;
                    seen.flips += s.flips;
                }
                Err(e) => panic!("case {case}: {}", e.0),
            }
        }
        tx.send(seen).unwrap();
    });
    let seen = rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("every case finishes within a minute");
    assert!(
        seen.pure >= 1_000 && seen.flips >= 200,
        "pure-resource path met too rarely: {seen:?}"
    );
}

/// Capacities from 1e-3 to 1e12 units/s and one of 0, and flows on
/// them: one or two per resource, so rates are whole capacities or
/// halves.  Residuals are 0, random, a whole number of nanoseconds'
/// worth at the flow's rate (the deadline then falls on or next to a
/// rounding of `solved / rate`), or one to a thousand seconds' worth.
fn boundary_case(seed: u64) -> (Vec<Rate>, Vec<(u32, Bytes)>) {
    let mut rng = SplitMix64::new(seed);
    let mut caps = vec![Rate::ZERO];
    for e in -3..=12 {
        caps.push(Rate(10f64.powi(e) * (1.0 + rng.next_f64())));
    }
    let mut flows = Vec::new();
    for (r, &cap) in caps.iter().enumerate() {
        let n = 1 + rng.next_below(2) as usize;
        let rate = cap.get() / n as f64;
        for _ in 0..n {
            let units = match rng.next_below(4) {
                0 => 0.0,
                1 => 10f64.powf(rng.next_f64() * 12.0 - 3.0),
                2 => rate * (rng.range(1, 1_000_000_000) as f64 * 1e-9),
                _ => rate * rng.range(1, 1_000) as f64 * (1.0 + rng.next_f64()),
            };
            flows.push((r as u32, Bytes(units)));
        }
    }
    (caps, flows)
}

/// Both solvers with `flows` registered at time zero, then settled and
/// solved at each of `solves`, compared at every step.
fn solved_pair(caps: &[Rate], flows: &[(u32, Bytes)], solves: &[SimTime]) -> Pair {
    let mut pair = Pair {
        caps: caps.to_vec(),
        fs: FairShare::new(),
        reference: Reference::default(),
        keys: Slab::new(),
        now: SimTime::ZERO,
        purity: Vec::new(),
        seen: Seen::default(),
    };
    for &(r, units) in flows {
        let key = pair.keys.insert(());
        pair.fs.add(key, path(&[r]), units);
        pair.reference.add(key, path(&[r]), units);
    }
    for &t in solves {
        pair.settle_and_solve(t).unwrap();
    }
    pair
}

/// After `solves`, settle fresh copies at 1 ns before, at and 1 ns after
/// every deadline, both without moving the flows (only the deadline
/// test can make them due) and moving them across the elapsed time as
/// the engine does, and compare the due flows with the reference.
fn check_due_boundaries(caps: &[Rate], flows: &[(u32, Bytes)], solves: &[SimTime]) {
    let pair = solved_pair(caps, flows, solves);
    let mut deadlines: Vec<SimTime> = pair
        .keys
        .iter()
        .map(|(k, _)| pair.fs.deadline(k))
        .filter(|&d| d != SimTime::NEVER)
        .collect();
    deadlines.sort();
    deadlines.dedup();
    for d in deadlines {
        for t in [SimTime(d.as_nanos() - 1), d, d + 1] {
            for moving in [false, true] {
                let mut pair = solved_pair(caps, flows, solves);
                let t = t.max(pair.now);
                let dt = if moving { t.secs_since(pair.now) } else { 0.0 };
                let mut due = Vec::new();
                pair.fs.settle(dt, t, Some(&mut due), |_, _| {});
                let want = pair.reference.settle(dt, t);
                assert_eq!(due, want, "due at {t} (deadline {d}, moving {moving})");
            }
        }
    }
}

#[test]
fn due_flows_match_the_reference_at_every_deadline_boundary() {
    let t0 = SimTime(5_000_000_007);
    let mut within_eps = 0;
    for seed in 0..24 {
        let (caps, flows) = boundary_case(seed);
        check_due_boundaries(&caps, &flows, &[t0]);
        // Re-solve just short of each long flow's deadline, where its
        // residual is inside its `eps`: it is finished, so due at once.
        let pair = solved_pair(&caps, &flows, &[t0]);
        for (key, _) in pair.keys.iter() {
            let d = pair.fs.deadline(key);
            if d == SimTime::NEVER || d - t0 < 1_000_000_000 {
                continue;
            }
            let t1 = t0 + ((d - t0) as f64 * (1.0 - 0.5e-9)) as u64;
            let again = solved_pair(&caps, &flows, &[t0, t1]);
            within_eps += (again.fs.deadline(key) == t1) as usize;
            check_due_boundaries(&caps, &flows, &[t0, t1]);
        }
    }
    assert!(
        within_eps >= 24,
        "residuals within eps met too rarely: {within_eps}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fused_solve_matches_the_reference((caps, tol, history) in scenario()) {
        run(caps, tol, &history)?;
    }
}
