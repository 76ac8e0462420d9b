//! Max-min fair rate allocation by progressive filling, over the
//! engine's table of live flows.
//!
//! Given a set of flows, each traversing a list of resources, and a
//! capacity per resource, progressive filling repeatedly finds the most
//! contended resource (minimum `remaining capacity / unfrozen flows`),
//! freezes every flow crossing it at that fair share, subtracts the
//! frozen rates everywhere, and repeats.  The result is the unique
//! max-min fair allocation: no flow's rate can be raised without lowering
//! the rate of a flow that is no better off.
//!
//! [`FairShare`] is also the engine's flow table: each flow's path sits
//! next to its fluid state (units remaining, completion residual, rate,
//! residual at the last solve) under the engine's slab key, in one
//! cache line, so a re-solve, a settlement and the due scan each read
//! one record per flow.  Slab keys are reused, so the table can be
//! mostly vacant after a burst of flows; a bitmap of live keys lets the
//! passes over every flow skip the vacant records in ascending key
//! order.
//!
//! The solver keeps the flow–resource incidence across solves: a flow
//! is registered once with [`FairShare::add`] when it starts and
//! dropped with [`FairShare::remove`] when it ends, both O(hops).  Each resource
//! holds an unsorted list of `(flow key, hop)` entries, one word each,
//! and each flow remembers its position in every hop's list, so removal
//! is a `swap_remove` plus one fix-up.
//!
//! A [`FairShare::solve`] rebuilds only the order in which it visits
//! resources: one pass over the live flows in ascending key order,
//! stamping each resource the first time it appears.  That is enough for
//! the result to equal a from-scratch build bit for bit.  Every flow a
//! resource freezes gets that resource's single `fair` value, so the
//! order of the flows inside a resource's list cannot change any rate,
//! any `rem` subtraction or the iteration count; only the order of the
//! resources matters, and the stamp pass reproduces the first-appearance
//! order a from-scratch build had.
//!
//! After the stamp pass, a solve touches each live flow once more, when
//! it freezes.  These shortcuts keep it equal, bit for bit, to the plain
//! algorithm (full stamp pass, every stamped resource visited by every
//! filling pass, every flow's deadline computed in a separate loop
//! afterwards and tested in every settlement):
//!
//! - **The stamp pass stops early.**  `add` and `remove` count the
//!   resources whose entry list is non-empty, and the pass stops once
//!   it has stamped that many: no later flow can bring a new resource.
//! - **Dead resources leave the visiting list.**  The min pass compacts
//!   `order` in place to the resources that still have unfrozen flows.
//!   A resource's unfrozen count never rises within a solve and both
//!   passes skip empty resources anyway, so the live resources keep
//!   their relative order.
//! - **One deadline per freeze group.**  A flow's deadline depends only
//!   on its settled residual, its new rate and `now`, and every flow a
//!   resource freezes gets the same rate.  The deadline is
//!   nondecreasing in the residual (division, scaling, ceiling and
//!   saturating add are each monotone), so the group's earliest
//!   deadline is the deadline of its least residual: the freeze tracks
//!   that minimum and divides once per resource, not once per flow.
//!   The earliest deadline is a minimum, which no visiting order can
//!   change.
//! - **Per-flow deadlines on demand.**  A flow keeps only its residual
//!   at the solve (`solved`); [`FairShare::deadline`] derives the
//!   deadline from it, the rate and the solve's time with the same
//!   expression, so it reads what a stored one would.
//! - **Settlements test deadlines only when one can have passed.**
//!   Before the last solve's earliest deadline no flow is due by its
//!   deadline.  From there on one multiply, with a relative margin of
//!   `1e-9` over the time since the solve, rules out the flows that are
//!   surely not due; only the few within it take the exact deadline
//!   test.
//! - **Resources only single-hop flows cross stay out of the filling
//!   passes.**  `add` and `remove` count, per resource, the entries of
//!   multi-hop flows, and overall the live single-hop flows.  While
//!   there is a single-hop flow, the solve moves every *pure* resource
//!   (no multi-hop entry) out of `order` after the stamp pass, into a
//!   list of `(share, resource)`.  A pure resource's flows cross nothing
//!   else, so no other freeze touches its `rem` or `nflows`: its share
//!   is the same in every iteration, and freezing it touches no other
//!   resource.  Each iteration folds the smallest pure share into the
//!   bottleneck minimum, and after the freeze pass one scan of the list
//!   freezes the pure resources inside the band, with the same rate and
//!   group-deadline expressions.  Whether a resource freezes in an
//!   iteration therefore does not depend on where it is visited, and the
//!   minimum is the same minimum.

use crate::step::{Path, ResourceId, MAX_HOPS};
use crate::time::SimTime;
use crate::units::{Bytes, Rate};

/// One registered flow, indexed by its key: everything a solve or a
/// settlement reads or writes, in one cache line.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Member {
    /// The flow's resources; empty for a vacant key.
    path: Path,
    /// Epoch of the solve that froze the flow.
    frozen: u32,
    /// Units still to move, as of the last settlement.
    remaining: Bytes,
    /// Residual below which the flow counts as finished: a safety net
    /// against f64 settlement drift, scaled to the flow's size so tiny
    /// transfers are not cut short measurably.
    eps: Bytes,
    /// Rate from the last solve.
    rate: Rate,
    /// Residual at the last solve, 0 when it was within `eps`: with
    /// `rate` and the solve's time it gives the flow's deadline.
    /// Infinite until a solve freezes the flow.
    solved: Bytes,
}

const _: () = assert!(std::mem::size_of::<Member>() == 64);

/// A resource-list entry: a flow key and the hop of the flow's path that
/// crosses the resource, packed into one word.
#[derive(Debug, Clone, Copy)]
struct Entry(u32);

const HOP_BITS: u32 = 3;
const _: () = assert!(MAX_HOPS <= 1 << HOP_BITS);

impl Entry {
    fn new(key: u32, hop: usize) -> Entry {
        assert!(key < 1 << (32 - HOP_BITS), "flow key {key} too large");
        Entry(key << HOP_BITS | hop as u32)
    }

    fn key(self) -> usize {
        (self.0 >> HOP_BITS) as usize
    }

    fn hop(self) -> usize {
        (self.0 & ((1 << HOP_BITS) - 1)) as usize
    }
}

impl Member {
    fn vacant() -> Member {
        Member {
            path: Path::new([]),
            frozen: 0,
            remaining: Bytes::ZERO,
            eps: Bytes::ZERO,
            rate: Rate::ZERO,
            solved: Bytes(f64::INFINITY),
        }
    }
}

/// The residual a deadline is computed from: `remaining`, or 0 once it
/// is at or below `eps` and the flow counts as finished.
#[inline]
fn residual(remaining: Bytes, eps: Bytes) -> Bytes {
    if remaining <= eps {
        Bytes::ZERO
    } else {
        remaining
    }
}

/// Completion time of a flow with `residual` units (0: finished) moving
/// at `rate` from `now`.  Nondecreasing in `residual`: the division, the
/// scaling to nanoseconds, the ceiling and the saturating add are each
/// monotone.  So the earliest deadline of flows that share one rate is
/// the deadline of their smallest residual.
#[inline]
fn deadline(residual: Bytes, rate: Rate, now: SimTime) -> SimTime {
    if residual <= Bytes::ZERO {
        now
    } else if rate <= Rate::ZERO {
        SimTime::NEVER
    } else {
        now + (residual / rate).as_nanos()
    }
}

/// Move every pure resource (no multi-hop entry) out of `order` into
/// `pure` with its share, keeping the others in order; return the
/// smallest share.  Kept out of line so the filling passes compile as
/// they would without it.
#[inline(never)]
fn split_pure(
    order: &mut Vec<u32>,
    multi: &[u32],
    rem: &[Rate],
    nflows: &[u32],
    pure: &mut Vec<(Rate, u32)>,
) -> Rate {
    let mut min = Rate(f64::INFINITY);
    let mut kept = 0;
    for i in 0..order.len() {
        let r = order[i];
        let ri = r as usize;
        if multi[ri] == 0 {
            let share = rem[ri] / nflows[ri] as f64;
            if share < min {
                min = share;
            }
            pure.push((share, r));
        } else {
            order[kept] = r;
            kept += 1;
        }
    }
    order.truncate(kept);
    min
}

/// Freeze the flows of every pure resource whose share lies within
/// `cutoff`, as the freeze pass would, at the solve's `epoch` and
/// `now`, and drop those resources from `pure`; return the smallest
/// share left.
#[inline(never)]
fn freeze_pure(
    pure: &mut Vec<(Rate, u32)>,
    cutoff: Rate,
    entries: &[Vec<Entry>],
    flows: &mut [Member],
    (epoch, now): (u32, SimTime),
    earliest: &mut SimTime,
    unfrozen: &mut usize,
) -> Rate {
    let mut min = Rate(f64::INFINITY);
    let mut i = 0;
    while i < pure.len() {
        let (share, r) = pure[i];
        let fair = share.max(Rate::ZERO);
        if fair > cutoff {
            if share < min {
                min = share;
            }
            i += 1;
            continue;
        }
        let list = &entries[r as usize];
        let mut least = Bytes(f64::INFINITY);
        for &entry in list {
            let f = &mut flows[entry.key()];
            f.frozen = epoch;
            f.rate = fair;
            f.solved = residual(f.remaining, f.eps);
            least = least.min(f.solved);
        }
        *earliest = (*earliest).min(deadline(least, fair, now));
        *unfrozen -= list.len();
        pure.swap_remove(i);
    }
    min
}

/// Max-min fair-share solver over a persistent set of flows, and the
/// fluid state of each.
#[derive(Debug)]
pub struct FairShare {
    /// Per-flow state indexed by key, up to the key high-water mark.
    flows: Vec<Member>,
    /// One bit per key, set while the key is registered: the passes
    /// over every flow visit the live keys only, in ascending order.
    keys: Vec<u64>,
    /// Position of each flow's entry in each hop's resource list, by
    /// key; only `add` and `remove` need it.
    slots: Vec<[u32; MAX_HOPS]>,
    live: usize,
    /// Per-resource `(flow key, hop)` entries, unsorted.
    entries: Vec<Vec<Entry>>,
    /// Number of resources whose entry list is non-empty.
    crossed: usize,
    /// Per-resource number of entries from flows of more than one hop.
    multi: Vec<u32>,
    /// Number of registered flows of one hop.
    single: usize,
    /// During a solve, the `(share, resource)` of every pure resource
    /// that still has unfrozen flows.
    pure: Vec<(Rate, u32)>,
    /// Number of pure resources the last solve froze outside the
    /// filling passes.
    last_pure: usize,
    // Per-resource solve state, valid where `stamp == epoch`.
    rem: Vec<Rate>,
    nflows: Vec<u32>,
    stamp: Vec<u32>,
    /// Resources crossed by a live flow, in first-appearance order;
    /// during a solve, those that still have unfrozen flows.
    order: Vec<u32>,
    epoch: u32,
    /// Time of the last solve.
    solved_at: SimTime,
    /// Earliest deadline from the last solve: no flow is due by its
    /// deadline before it.
    next_due: SimTime,
    tolerance: f64,
}

impl Default for FairShare {
    fn default() -> Self {
        Self::new()
    }
}

impl FairShare {
    /// Fresh solver with no flows.
    pub fn new() -> Self {
        FairShare {
            flows: Vec::new(),
            keys: Vec::new(),
            slots: Vec::new(),
            live: 0,
            entries: Vec::new(),
            crossed: 0,
            multi: Vec::new(),
            single: 0,
            pure: Vec::new(),
            last_pure: 0,
            rem: Vec::new(),
            nflows: Vec::new(),
            stamp: Vec::new(),
            order: Vec::new(),
            epoch: 0,
            solved_at: SimTime::ZERO,
            next_due: SimTime::NEVER,
            tolerance: 0.0,
        }
    }

    /// Number of registered flows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no flow is registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Register the flow `key` (unused until its [`FairShare::remove`])
    /// moving `units` over the resources of `path`.  A path may repeat a
    /// resource.  The flow is stalled until the next solve.  Panics on an
    /// empty path: such a flow would never freeze, and
    /// [`FairShare::solve`] would spin forever.
    pub fn add(&mut self, key: u32, path: Path, units: Bytes) {
        assert!(
            !path.is_empty(),
            "flows must traverse at least one resource"
        );
        let k = key as usize;
        if self.flows.len() <= k {
            self.flows.resize(k + 1, Member::vacant());
            self.slots.resize(k + 1, [0; MAX_HOPS]);
            self.keys.resize(k / 64 + 1, 0);
        }
        self.keys[k / 64] |= 1 << (k % 64);
        debug_assert!(self.flows[k].path.is_empty(), "flow key {key} in use");
        let multi_hop = path.len() > 1;
        let slots = &mut self.slots[k];
        for (hop, &ResourceId(r)) in path.iter().enumerate() {
            let ri = r as usize;
            if self.entries.len() <= ri {
                self.entries.resize_with(ri + 1, Vec::new);
                self.multi.resize(ri + 1, 0);
                self.rem.resize(ri + 1, Rate::ZERO);
                self.nflows.resize(ri + 1, 0);
                self.stamp.resize(ri + 1, 0);
            }
            let list = &mut self.entries[ri];
            if list.is_empty() {
                self.crossed += 1;
            }
            slots[hop] = list.len() as u32;
            list.push(Entry::new(key, hop));
            self.multi[ri] += multi_hop as u32;
        }
        self.single += !multi_hop as usize;
        self.flows[k] = Member {
            path,
            frozen: 0,
            remaining: units,
            eps: Bytes(units.get() * 1e-9),
            rate: Rate::ZERO,
            solved: Bytes(f64::INFINITY),
        };
        self.live += 1;
    }

    /// Unregister the flow `key` and return its path.
    pub fn remove(&mut self, key: u32) -> Path {
        let k = key as usize;
        let path = std::mem::replace(&mut self.flows[k].path, Path::new([]));
        debug_assert!(!path.is_empty(), "flow key {key} not registered");
        self.keys[k / 64] &= !(1 << (k % 64));
        let multi_hop = path.len() > 1;
        for (hop, &ResourceId(r)) in path.iter().enumerate() {
            // Read the slot per hop: an earlier hop's removal may have
            // moved this flow's own entry when the path repeats `r`.
            let pos = self.slots[k][hop] as usize;
            let list = &mut self.entries[r as usize];
            list.swap_remove(pos);
            if let Some(&moved) = list.get(pos) {
                self.slots[moved.key()][moved.hop()] = pos as u32;
            } else if list.is_empty() {
                self.crossed -= 1;
            }
            self.multi[r as usize] -= multi_hop as u32;
        }
        self.single -= !multi_hop as usize;
        self.live -= 1;
        path
    }

    /// Rate of the registered flow `key` from the last solve.
    #[inline]
    pub fn rate(&self, key: u32) -> Rate {
        self.flows[key as usize].rate
    }

    /// Completion time of the registered flow `key` from the last solve
    /// ([`SimTime::NEVER`] while it is stalled or not yet solved).
    #[inline]
    pub fn deadline(&self, key: u32) -> SimTime {
        self.deadline_of(&self.flows[key as usize])
    }

    /// The deadline the last solve implies for `f`: [`SimTime::NEVER`]
    /// unless that solve froze it.  Each solve freezes every live flow,
    /// so only a flow added since then reads `NEVER` for not being
    /// frozen; epoch 0 is the state before the first solve.
    #[inline]
    fn deadline_of(&self, f: &Member) -> SimTime {
        if f.frozen == self.epoch && self.epoch != 0 {
            deadline(f.solved, f.rate, self.solved_at)
        } else {
            SimTime::NEVER
        }
    }

    /// Units the registered flow `key` still has to move.
    #[inline]
    pub fn remaining(&self, key: u32) -> Bytes {
        self.flows[key as usize].remaining
    }

    /// Number of resources the last solve froze outside the filling
    /// passes: those that only single-hop flows cross.
    pub fn pure_resources(&self) -> usize {
        self.last_pure
    }

    /// Earliest deadline the last solve returned ([`SimTime::NEVER`]
    /// before the first solve).  It may belong to a flow removed since
    /// then; [`FairShare::earliest_deadline`] scans the live flows.
    #[inline]
    pub fn next_due(&self) -> SimTime {
        self.next_due
    }

    /// Earliest deadline of any registered flow ([`SimTime::NEVER`] when
    /// there is none).
    pub fn earliest_deadline(&self) -> SimTime {
        self.flows
            .iter()
            .filter(|f| !f.path.is_empty())
            .map(|f| self.deadline_of(f))
            .min()
            .unwrap_or(SimTime::NEVER)
    }

    /// Set the bottleneck tolerance band (relative).  With a non-zero
    /// tolerance, every resource whose fair share lies within
    /// `min × (1 + tol)` freezes its flows in the same pass — each at
    /// its *own* current fair share, so rates stay within `tol` of the
    /// exact max-min allocation while the number of filling iterations
    /// collapses from `O(resources)` to a handful.  Zero (the default)
    /// is the exact algorithm.
    pub fn set_tolerance(&mut self, tol: f64) {
        assert!((0.0..1.0).contains(&tol));
        self.tolerance = tol;
    }

    /// Advance every registered flow `dt` seconds at its rate from the
    /// last solve, handing each flow that moved its path and the units
    /// it moved to `credit`.  With `due`, also push onto it, in key
    /// order, the key of every flow that is due at `t` once advanced
    /// (deadline reached, or residual rounded to nothing).
    pub fn settle(
        &mut self,
        dt: f64,
        t: SimTime,
        mut due: Option<&mut Vec<u32>>,
        mut credit: impl FnMut(&Path, Bytes),
    ) {
        // Before the last solve's earliest deadline no flow is due by
        // its deadline, so only the residual test runs.  From there on
        // one multiply rules out almost every flow before the division
        // of the exact test.  A flow's deadline is at or before `t`
        // only when `solved / rate` is at most the seconds since the
        // solve up to a few roundings, far inside the `1e-9` margin, so
        // a flow past `late` is surely not due.  At `NEVER` every
        // deadline has passed, so `late` rules nothing out.
        let check_deadlines = due.is_some() && t >= self.next_due;
        let screen = t != SimTime::NEVER;
        let late = if check_deadlines {
            t.nanos_since(self.solved_at) as f64 * 1e-9 * (1.0 + 1e-9)
        } else {
            0.0
        };
        // The fluid model moves every live flow across the elapsed
        // interval; the engine's coalescing quantum bounds how often
        // this runs per event batch.
        for (w, &word) in self.keys.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let key = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let f = &mut self.flows[key];
                if dt > 0.0 && f.rate > Rate::ZERO {
                    let moved = f.rate.bytes_in(dt).min(f.remaining);
                    f.remaining -= moved;
                    credit(&f.path, moved);
                }
                if let Some(due) = due.as_deref_mut() {
                    let f = &self.flows[key];
                    if f.remaining <= f.eps
                        || check_deadlines
                            && (!screen || f.solved <= f.rate.bytes_in(late))
                            && self.deadline_of(f) <= t
                    {
                        due.push(key as u32);
                    }
                }
            }
        }
    }

    /// Solve for the registered flows with the given per-resource
    /// capacities (units/second, indexed by resource id), and give every
    /// flow the deadline its new rate implies from `now`.  Residuals
    /// must already be settled to `now`.
    ///
    /// Returns the number of progressive-filling iterations and the
    /// earliest deadline ([`SimTime::NEVER`] when no flow can finish).
    /// Rates and deadlines are then available through
    /// [`FairShare::rate`], [`FairShare::deadline`] and
    /// [`FairShare::results`].
    pub fn solve(&mut self, caps: &[Rate], now: SimTime) -> (usize, SimTime) {
        if self.epoch == u32::MAX {
            // Re-base the epoch stamps instead of letting them wrap.
            self.stamp.fill(0);
            for f in &mut self.flows {
                f.frozen = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.solved_at = now;
        let epoch = self.epoch;
        let band = 1.0 + self.tolerance + 1e-12;
        let mut unfrozen = self.live;
        let FairShare {
            flows,
            keys,
            entries,
            crossed,
            multi,
            single,
            pure,
            last_pure,
            rem,
            nflows,
            stamp,
            order,
            ..
        } = self;
        // Visit resources in the order a from-scratch build met them:
        // live flows by ascending key, hops in path order.  Once every
        // crossed resource is stamped, no later flow can add one.
        order.clear();
        let mut unstamped = *crossed;
        if unstamped > 0 {
            'stamp: for (w, &word) in keys.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let key = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    for &ResourceId(r) in &flows[key].path {
                        let ri = r as usize;
                        if stamp[ri] != epoch {
                            stamp[ri] = epoch;
                            order.push(r);
                            rem[ri] = caps[ri].max(Rate::ZERO);
                            nflows[ri] = entries[ri].len() as u32;
                            unstamped -= 1;
                            if unstamped == 0 {
                                break 'stamp;
                            }
                        }
                    }
                }
            }
        }
        pure.clear();
        let mut pure_min = Rate(f64::INFINITY);
        if *single > 0 {
            pure_min = split_pure(order, multi, rem, nflows, pure);
        }
        *last_pure = pure.len();
        let mut iters = 0usize;
        let mut earliest = SimTime::NEVER;
        while unfrozen > 0 {
            iters += 1;
            // Find the bottleneck fair share, dropping from `order` the
            // resources whose flows have all frozen.
            let mut best_fair = pure_min;
            let mut kept = 0;
            for i in 0..order.len() {
                let r = order[i];
                let n = nflows[r as usize];
                if n > 0 {
                    order[kept] = r;
                    kept += 1;
                    let fair = rem[r as usize] / n as f64;
                    if fair < best_fair {
                        best_fair = fair;
                    }
                }
            }
            order.truncate(kept);
            debug_assert!(
                best_fair.get().is_finite(),
                "unfrozen flow with no live resource"
            );
            let cutoff = best_fair.max(Rate::ZERO) * band;
            // Freeze the flows of every resource inside the band, each at
            // the resource's own current share.  Freezing updates `rem`
            // and `nflows`, so re-check the share as we go; resources
            // pushed above the cutoff by earlier freezes wait for the
            // next iteration.
            for &r in order.iter() {
                let ri = r as usize;
                let n = nflows[ri];
                if n == 0 {
                    continue;
                }
                let fair = (rem[ri] / n as f64).max(Rate::ZERO);
                if fair > cutoff {
                    continue;
                }
                // Every flow frozen here moves at `fair`, so the least
                // residual gives the group's earliest deadline.
                let mut least = Bytes(f64::INFINITY);
                for &entry in &entries[ri] {
                    let f = &mut flows[entry.key()];
                    if f.frozen == epoch {
                        continue;
                    }
                    f.frozen = epoch;
                    f.rate = fair;
                    f.solved = residual(f.remaining, f.eps);
                    least = least.min(f.solved);
                    unfrozen -= 1;
                    for &ResourceId(p) in &f.path {
                        let pi = p as usize;
                        rem[pi] -= fair;
                        nflows[pi] -= 1;
                    }
                }
                earliest = earliest.min(deadline(least, fair, now));
            }
            if !pure.is_empty() {
                pure_min = freeze_pure(
                    pure,
                    cutoff,
                    entries,
                    flows,
                    (epoch, now),
                    &mut earliest,
                    &mut unfrozen,
                );
            }
        }
        self.next_due = earliest;
        (iters, earliest)
    }

    /// `(key, rate)` of every registered flow in ascending key order,
    /// rates from the last solve.
    pub fn results(&self) -> impl Iterator<Item = (u32, Rate)> + '_ {
        self.flows
            .iter()
            .enumerate()
            .filter(|(_, f)| !f.path.is_empty())
            .map(|(k, f)| (k as u32, f.rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(hops: &[u32]) -> Path {
        let hops: Vec<ResourceId> = hops.iter().map(|&r| ResourceId(r)).collect();
        Path::try_from(&hops[..]).unwrap()
    }

    fn solve(caps: &[f64], flows: &[&[u32]]) -> Vec<f64> {
        let mut fs = FairShare::new();
        for (i, hops) in flows.iter().enumerate() {
            fs.add(i as u32, path(hops), Bytes(1.0));
        }
        let caps: Vec<Rate> = caps.iter().map(|&c| Rate(c)).collect();
        fs.solve(&caps, SimTime::ZERO);
        let mut rates = vec![0.0; flows.len()];
        for (k, r) in fs.results() {
            rates[k as usize] = r.get();
        }
        rates
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let rates = solve(&[10.0], &[&[0]]);
        assert!((rates[0] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn equal_split_on_shared_resource() {
        let rates = solve(&[12.0], &[&[0], &[0], &[0]]);
        for r in rates {
            assert!((r - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn classic_maxmin_example() {
        // Two resources: r0 cap 10 shared by f0,f1; r1 cap 3 crossed by f1.
        // f1 is bottlenecked at 3 by r1, f0 takes the slack: 7.
        let rates = solve(&[10.0, 3.0], &[&[0], &[0, 1]]);
        assert!((rates[1] - 3.0).abs() < 1e-12, "f1 pinned at narrow link");
        assert!(
            (rates[0] - 7.0).abs() < 1e-12,
            "f0 takes remaining capacity"
        );
    }

    #[test]
    fn three_link_chain() {
        // Kleinrock's example: links of cap 1; f0 spans both links,
        // f1 on link0 only, f2 on link1 only.  Max-min: all at 0.5.
        let rates = solve(&[1.0, 1.0], &[&[0, 1], &[0], &[1]]);
        for r in &rates {
            assert!((r - 0.5).abs() < 1e-12, "{rates:?}");
        }
    }

    #[test]
    fn zero_capacity_resource_stalls_flows() {
        let rates = solve(&[0.0, 10.0], &[&[0, 1], &[1]]);
        assert_eq!(rates[0], 0.0);
        assert!((rates[1] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_paths() {
        // Flow through two tight resources is limited by the tighter one
        // after sharing.
        let rates = solve(&[6.0, 4.0], &[&[0], &[0, 1], &[1]]);
        // r1: two flows -> fair 2.0 each; r0 then has 6-2=4 for f0.
        assert!((rates[1] - 2.0).abs() < 1e-12);
        assert!((rates[2] - 2.0).abs() < 1e-12);
        assert!((rates[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn flows_come_and_go_between_solves() {
        let caps = [Rate(10.0), Rate(2.0)];
        let mut fs = FairShare::new();
        fs.add(7, path(&[0]), Bytes(1.0));
        fs.add(9, path(&[0, 1]), Bytes(1.0));
        fs.solve(&caps, SimTime::ZERO);
        assert_eq!((fs.rate(7).get(), fs.rate(9).get()), (8.0, 2.0));
        assert_eq!(fs.remove(9), path(&[0, 1]));
        fs.solve(&caps, SimTime::ZERO);
        assert_eq!(fs.rate(7).get(), 10.0);
        fs.add(9, path(&[0]), Bytes(1.0));
        fs.solve(&caps, SimTime::ZERO);
        assert_eq!((fs.rate(7).get(), fs.rate(9).get()), (5.0, 5.0));
        assert_eq!(fs.len(), 2);
        let keys: Vec<u32> = fs.results().map(|(k, _)| k).collect();
        assert_eq!(keys, [7, 9]);
    }

    #[test]
    #[should_panic(expected = "at least one resource")]
    fn empty_paths_are_rejected() {
        FairShare::new().add(0, path(&[]), Bytes(1.0));
    }

    #[test]
    fn removal_keeps_entry_slots_consistent() {
        // Repeated resources in one path and swap-removal fix-ups: every
        // entry must keep pointing back at its own slot.
        let mut fs = FairShare::new();
        fs.add(0, path(&[0, 1, 0]), Bytes(1.0));
        fs.add(1, path(&[1, 0]), Bytes(1.0));
        fs.add(2, path(&[0, 0, 0]), Bytes(1.0));
        fs.remove(0);
        fs.add(0, path(&[1]), Bytes(1.0));
        fs.remove(2);
        for (r, list) in fs.entries.iter().enumerate() {
            for (pos, &entry) in list.iter().enumerate() {
                let f = &fs.flows[entry.key()];
                assert_eq!(f.path[entry.hop()], ResourceId(r as u32));
                assert_eq!(fs.slots[entry.key()][entry.hop()] as usize, pos);
            }
        }
        assert_eq!(fs.entries[0].len(), 1);
        assert_eq!(fs.entries[1].len(), 2);
        assert_eq!(fs.crossed, 2);
        fs.remove(1);
        assert_eq!(fs.crossed, 1, "resource 0 lost its last entry");
        fs.remove(0);
        assert_eq!(fs.crossed, 0);
    }

    #[test]
    fn hop_counts_stay_consistent() {
        // Random add/remove histories with repeated hops: the multi-hop
        // entry count of every resource and the single-hop flow count
        // must match a recount from the entry lists.
        let mut rng = crate::rng::SplitMix64::new(26);
        let mut fs = FairShare::new();
        let mut live: Vec<u32> = Vec::new();
        let mut free: Vec<u32> = Vec::new();
        for _ in 0..2_000 {
            if live.is_empty() || rng.next_below(5) < 3 {
                let len = if rng.next_below(2) == 0 {
                    1
                } else {
                    rng.range(2, MAX_HOPS as u64 + 1) as usize
                };
                let hops: Vec<u32> = (0..len).map(|_| rng.next_below(6) as u32).collect();
                let key = free.pop().unwrap_or(live.len() as u32);
                fs.add(key, path(&hops), Bytes(1.0));
                live.push(key);
            } else {
                let key = live.swap_remove(rng.next_below(live.len() as u64) as usize);
                fs.remove(key);
                free.push(key);
            }
            for (r, list) in fs.entries.iter().enumerate() {
                let multi = list
                    .iter()
                    .filter(|e| fs.flows[e.key()].path.len() > 1)
                    .count();
                assert_eq!(fs.multi[r] as usize, multi, "resource {r}");
            }
            let single = live
                .iter()
                .filter(|&&k| fs.flows[k as usize].path.len() == 1)
                .count();
            assert_eq!(fs.single, single);
        }
    }

    #[test]
    fn solve_sets_deadlines_and_settle_finds_due_flows() {
        // r0 (cap 10) carries f0 (20 units) and f1 (5 units); r1 (cap 0)
        // stalls f2.  At t = 1 s both r0 flows run at 5/s.
        let caps = [Rate(10.0), Rate(0.0)];
        let t0 = SimTime::from_millis(1_000);
        let mut fs = FairShare::new();
        fs.add(0, path(&[0]), Bytes(20.0));
        fs.add(1, path(&[0]), Bytes(5.0));
        fs.add(2, path(&[1]), Bytes(5.0));
        let (iters, earliest) = fs.solve(&caps, t0);
        assert_eq!(iters, 2);
        assert_eq!(fs.deadline(0), SimTime::from_millis(5_000));
        assert_eq!(fs.deadline(1), SimTime::from_millis(2_000));
        assert_eq!(fs.deadline(2), SimTime::NEVER);
        assert_eq!(earliest, fs.deadline(1));
        assert_eq!(fs.earliest_deadline(), earliest);
        // One second later f1 has drained and is due; f0 moved 5 units.
        let t1 = SimTime::from_millis(2_000);
        let mut due = Vec::new();
        let mut moved = Vec::new();
        fs.settle(1.0, t1, Some(&mut due), |p, units| {
            moved.push((p[0].0, units.get()))
        });
        assert_eq!(due, [1]);
        assert_eq!(moved, [(0, 5.0), (0, 5.0)]);
        assert_eq!(fs.remaining(0), Bytes(15.0));
        fs.remove(1);
        let (_, earliest) = fs.solve(&caps, t1);
        assert_eq!(earliest, SimTime::from_millis(3_500), "f0 alone at 10/s");
    }

    #[test]
    fn every_flow_is_due_at_the_end_of_time() {
        // At `NEVER` every deadline has passed, stalled flows and flows
        // added since the solve included.
        let mut fs = FairShare::new();
        fs.add(0, path(&[0]), Bytes(1e9));
        fs.add(1, path(&[1]), Bytes(1e9));
        fs.solve(&[Rate(1.0), Rate(0.0)], SimTime::ZERO);
        fs.add(2, path(&[0]), Bytes(1e9));
        assert_eq!(fs.deadline(1), SimTime::NEVER);
        assert_eq!(fs.deadline(2), SimTime::NEVER);
        let mut due = Vec::new();
        fs.settle(0.0, SimTime::NEVER, Some(&mut due), |_, _| {});
        assert_eq!(due, [0, 1, 2]);
    }

    #[test]
    fn residuals_within_eps_are_due_now() {
        let mut fs = FairShare::new();
        fs.add(0, path(&[0]), Bytes(1e9));
        fs.solve(&[Rate(1e9)], SimTime::ZERO);
        // Leave half an eps behind: the flow is finished, not 1 ns away.
        fs.settle(1.0 - 0.5e-9, SimTime(999_999_999), None, |_, _| {});
        let (_, earliest) = fs.solve(&[Rate(1e9)], SimTime(999_999_999));
        assert_eq!(earliest, SimTime(999_999_999));
    }
}
