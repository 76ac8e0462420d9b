//! Max-min fair rate allocation by progressive filling.
//!
//! Given a set of flows, each traversing a list of resources, and a
//! capacity per resource, progressive filling repeatedly finds the most
//! contended resource (minimum `remaining capacity / unfrozen flows`),
//! freezes every flow crossing it at that fair share, subtracts the
//! frozen rates everywhere, and repeats.  The result is the unique
//! max-min fair allocation: no flow's rate can be raised without lowering
//! the rate of a flow that is no better off.
//!
//! The solver keeps the flow–resource incidence across solves: a flow is
//! registered once with [`FairShare::add`] when it starts and dropped
//! with [`FairShare::remove`] when it ends, both O(hops).  Each resource
//! holds an unsorted list of `(flow key, hop)` entries, one word each,
//! and each flow remembers its position in every hop's list, so removal
//! is a `swap_remove` plus one fix-up.  A [`FairShare::solve`] rebuilds
//! only the order in which it visits resources: one pass over the live
//! flows in ascending key order, stamping each resource the first time
//! it appears.
//!
//! That is enough for the result to equal a from-scratch build bit for
//! bit.  Every flow a resource freezes gets that resource's single
//! `fair` value, so the order of the flows inside a resource's list
//! cannot change any rate, any `rem` subtraction or the iteration count;
//! only the order of the resources matters, and the stamp pass
//! reproduces the first-appearance order a from-scratch build had.

use crate::step::{Path, ResourceId, MAX_HOPS};
use crate::units::Rate;

/// One registered flow, indexed by its key.
#[derive(Debug, Clone, Copy)]
struct Member {
    /// The flow's resources; empty for a vacant key.
    path: Path,
    /// Position of this flow's entry in each hop's resource list.
    slots: [u32; MAX_HOPS],
    /// Rate from the last solve.
    rate: Rate,
    /// Epoch of the solve that froze the flow.
    frozen: u32,
}

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
            slots: [0; MAX_HOPS],
            rate: Rate::ZERO,
            frozen: 0,
        }
    }
}

/// Reusable max-min fair-share solver over a persistent set of flows.
#[derive(Debug, Default)]
pub struct FairShare {
    /// Per-flow state indexed by key, up to the key high-water mark.
    flows: Vec<Member>,
    live: usize,
    /// Per-resource `(flow key, hop)` entries, unsorted.
    entries: Vec<Vec<Entry>>,
    // Per-resource solve state, valid where `stamp == epoch`.
    rem: Vec<Rate>,
    nflows: Vec<u32>,
    stamp: Vec<u32>,
    /// Resources crossed by a live flow, in first-appearance order.
    order: Vec<u32>,
    epoch: u32,
    tolerance: f64,
}

impl FairShare {
    /// Fresh solver with no flows.
    pub fn new() -> Self {
        FairShare::default()
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
    /// over the resources of `path`.  A path may repeat a resource.
    /// Panics on an empty path: such a flow would never freeze, and
    /// [`FairShare::solve`] would spin forever.
    pub fn add(&mut self, key: u32, path: Path) {
        assert!(
            !path.is_empty(),
            "flows must traverse at least one resource"
        );
        let k = key as usize;
        if self.flows.len() <= k {
            self.flows.resize(k + 1, Member::vacant());
        }
        debug_assert!(self.flows[k].path.is_empty(), "flow key {key} in use");
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
            self.entries[ri].push(Entry::new(key, hop));
        }
        self.flows[k] = Member {
            path,
            slots,
            rate: Rate::ZERO,
            frozen: 0,
        };
        self.live += 1;
    }

    /// Unregister the flow `key` and return its path.
    pub fn remove(&mut self, key: u32) -> Path {
        let k = key as usize;
        let path = std::mem::replace(&mut self.flows[k].path, Path::new([]));
        debug_assert!(!path.is_empty(), "flow key {key} not registered");
        for (hop, &ResourceId(r)) in path.iter().enumerate() {
            // Read the slot per hop: an earlier hop's removal may have
            // moved this flow's own entry when the path repeats `r`.
            let pos = self.flows[k].slots[hop] as usize;
            let list = &mut self.entries[r as usize];
            list.swap_remove(pos);
            if let Some(&moved) = list.get(pos) {
                self.flows[moved.key()].slots[moved.hop()] = pos as u32;
            }
        }
        self.live -= 1;
        path
    }

    /// The resources of the registered flow `key`.
    #[inline]
    pub fn path(&self, key: u32) -> &Path {
        &self.flows[key as usize].path
    }

    /// Rate of the registered flow `key` from the last solve.
    #[inline]
    pub fn rate(&self, key: u32) -> Rate {
        self.flows[key as usize].rate
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

    /// Solve for the registered flows with the given per-resource
    /// capacities (units/second, indexed by resource id).
    ///
    /// Returns the number of progressive-filling iterations.  Rates are
    /// then available through [`FairShare::rate`] and
    /// [`FairShare::results`].
    // simlint::hot_root — max-min solver: runs on every rate recomputation
    pub fn solve(&mut self, caps: &[Rate]) -> usize {
        if self.epoch == u32::MAX {
            // Re-base the epoch stamps instead of letting them wrap.
            self.stamp.fill(0);
            for f in &mut self.flows {
                f.frozen = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        let epoch = self.epoch;
        let FairShare {
            flows,
            entries,
            rem,
            nflows,
            stamp,
            order,
            ..
        } = self;
        // Visit resources in the order a from-scratch build met them:
        // live flows by ascending key, hops in path order.
        order.clear();
        for f in flows.iter() {
            for &ResourceId(r) in &f.path {
                let ri = r as usize;
                if stamp[ri] != epoch {
                    stamp[ri] = epoch;
                    order.push(r);
                    rem[ri] = caps[ri].max(Rate::ZERO);
                    nflows[ri] = entries[ri].len() as u32;
                }
            }
        }
        let band = 1.0 + self.tolerance + 1e-12;
        let mut iters = 0usize;
        let mut unfrozen = self.live;
        while unfrozen > 0 {
            iters += 1;
            // Find the bottleneck fair share.
            let mut best_fair = Rate(f64::INFINITY);
            for &r in order.iter() {
                let ri = r as usize;
                let n = nflows[ri];
                if n > 0 {
                    let fair = rem[ri] / n as f64;
                    if fair < best_fair {
                        best_fair = fair;
                    }
                }
            }
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
                for &entry in &entries[ri] {
                    let f = &mut flows[entry.key()];
                    if f.frozen == epoch {
                        continue;
                    }
                    f.frozen = epoch;
                    f.rate = fair;
                    unfrozen -= 1;
                    for &ResourceId(p) in &f.path {
                        let pi = p as usize;
                        rem[pi] -= fair;
                        nflows[pi] -= 1;
                    }
                }
            }
        }
        iters
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
            fs.add(i as u32, path(hops));
        }
        let caps: Vec<Rate> = caps.iter().map(|&c| Rate(c)).collect();
        fs.solve(&caps);
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
        fs.add(7, path(&[0]));
        fs.add(9, path(&[0, 1]));
        fs.solve(&caps);
        assert_eq!((fs.rate(7).get(), fs.rate(9).get()), (8.0, 2.0));
        assert_eq!(fs.remove(9), path(&[0, 1]));
        fs.solve(&caps);
        assert_eq!(fs.rate(7).get(), 10.0);
        fs.add(9, path(&[0]));
        fs.solve(&caps);
        assert_eq!((fs.rate(7).get(), fs.rate(9).get()), (5.0, 5.0));
        assert_eq!(fs.len(), 2);
        let keys: Vec<u32> = fs.results().map(|(k, _)| k).collect();
        assert_eq!(keys, [7, 9]);
    }

    #[test]
    #[should_panic(expected = "at least one resource")]
    fn empty_paths_are_rejected() {
        FairShare::new().add(0, path(&[]));
    }

    #[test]
    fn removal_keeps_entry_slots_consistent() {
        // Repeated resources in one path and swap-removal fix-ups: every
        // entry must keep pointing back at its own slot.
        let mut fs = FairShare::new();
        fs.add(0, path(&[0, 1, 0]));
        fs.add(1, path(&[1, 0]));
        fs.add(2, path(&[0, 0, 0]));
        fs.remove(0);
        fs.add(0, path(&[1]));
        fs.remove(2);
        for (r, list) in fs.entries.iter().enumerate() {
            for (pos, &entry) in list.iter().enumerate() {
                let f = &fs.flows[entry.key()];
                assert_eq!(f.path[entry.hop()], ResourceId(r as u32));
                assert_eq!(f.slots[entry.hop()] as usize, pos);
            }
        }
        assert_eq!(fs.entries[0].len(), 1);
        assert_eq!(fs.entries[1].len(), 2);
    }
}
