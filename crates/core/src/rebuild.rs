//! Rebuild: restoring redundancy after target exclusions.
//!
//! When targets are excluded (`dmg pool exclude` in real DAOS), objects
//! whose shard groups include a down target run *degraded* — replicated
//! reads fail over and erasure-coded reads reconstruct — until a rebuild
//! re-protects them.  [`crate::DaosSystem::rebuild`] scans every
//! container, picks a healthy replacement target for each affected shard
//! (from the object's own placement permutation, preserving fault-domain
//! spread), updates the layout, and returns an op chain that models the
//! server-to-server data movement: surviving data is read on its source
//! targets and written to the replacements.
//!
//! Unprotected shards (plain `S*`/`SX` data on a dead target) cannot be
//! rebuilt; they are reported as lost.

use crate::pool::{PoolMap, TargetId};
use std::collections::BTreeSet;

/// Outcome of a rebuild pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RebuildReport {
    /// Objects examined across all containers.
    pub objects_scanned: usize,
    /// Shards moved to replacement targets.
    pub shards_rebuilt: usize,
    /// Logical bytes reconstructed and rewritten.
    pub bytes_moved: f64,
    /// Shards that had no surviving redundancy (data loss).
    pub shards_lost: usize,
}

impl RebuildReport {
    /// Publish the rebuild outcome into a telemetry registry as
    /// `daos.rebuild.*` counters recorded at `at`.  The wave-by-wave
    /// time series of rebuild traffic flows through the engine's
    /// span-open counters (`span.rebuild.*`); these totals carry the
    /// planning-level facts — shards lost, logical bytes re-protected —
    /// that spans cannot express.  No-op on a disabled registry.
    pub fn publish(&self, tel: &mut simkit::Telemetry, at: simkit::SimTime) {
        tel.add_counters(
            at,
            [
                ("daos.rebuild.objects_scanned", self.objects_scanned as u64),
                ("daos.rebuild.shards_rebuilt", self.shards_rebuilt as u64),
                ("daos.rebuild.bytes_moved", self.bytes_moved as u64),
                ("daos.rebuild.shards_lost", self.shards_lost as u64),
            ],
        );
    }
}

/// Pick a replacement target for a group: up, not already in the group,
/// preferring servers not yet represented in the group (fault domains).
pub(crate) fn pick_replacement(
    pool: &PoolMap,
    group: &[TargetId],
    down: TargetId,
) -> Option<TargetId> {
    let candidates = pool.up_targets();
    // Set lookups instead of `contains` scans inside the candidate loop:
    // the scan is O(candidates) with O(log width) membership tests
    // rather than O(candidates × width).  `down`'s own slot stays
    // re-pickable (it is being replaced), matching the original scan.
    let in_group: BTreeSet<TargetId> = group.iter().copied().filter(|&t| t != down).collect();
    // prefer a server that the group does not already use
    let used_servers: BTreeSet<u16> = group
        .iter()
        .filter(|t| **t != down && pool.is_up(**t))
        .map(|t| t.server)
        .collect();
    candidates
        .iter()
        .find(|t| !in_group.contains(t) && !used_servers.contains(&t.server))
        .or_else(|| candidates.iter().find(|t| !in_group.contains(t)))
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replacement_prefers_fresh_server() {
        let mut pool = PoolMap::new(3, 4);
        let down = TargetId {
            server: 0,
            target: 0,
        };
        pool.exclude(down);
        let group = vec![
            down,
            TargetId {
                server: 1,
                target: 2,
            },
        ];
        let r = pick_replacement(&pool, &group, down).unwrap();
        assert_ne!(r.server, 1, "avoid the surviving replica's server");
        assert!(pool.is_up(r));
    }

    #[test]
    fn replacement_falls_back_when_servers_exhausted() {
        let mut pool = PoolMap::new(2, 2);
        let down = TargetId {
            server: 0,
            target: 0,
        };
        pool.exclude(down);
        // group uses both servers already
        let group = vec![
            down,
            TargetId {
                server: 0,
                target: 1,
            },
            TargetId {
                server: 1,
                target: 0,
            },
        ];
        let r = pick_replacement(&pool, &group, down).unwrap();
        assert!(pool.is_up(r));
        assert!(!group.contains(&r));
    }

    /// The original O(candidates × width) implementation, kept as the
    /// oracle for the set-based rewrite.
    fn pick_replacement_reference(
        pool: &PoolMap,
        group: &[TargetId],
        down: TargetId,
    ) -> Option<TargetId> {
        let candidates = pool.up_targets();
        let in_group = |t: &TargetId| group.contains(t) && *t != down;
        let used_servers: Vec<u16> = group
            .iter()
            .filter(|t| **t != down && pool.is_up(**t))
            .map(|t| t.server)
            .collect();
        candidates
            .iter()
            .find(|t| !in_group(t) && !used_servers.contains(&t.server))
            .or_else(|| candidates.iter().find(|t| !in_group(t)))
            .copied()
    }

    #[test]
    fn set_based_scan_matches_reference_on_large_pool() {
        // 16 servers × 96 targets, a mix of exclusions, and shard groups
        // drawn from real layouts: the optimised scan must pick exactly
        // the replacements the original scan picked.
        use crate::class::ObjectClass;
        use crate::oid::OidAllocator;
        let mut pool = PoolMap::new(16, 96);
        pool.exclude_server(3);
        for i in 0..40u16 {
            pool.exclude(TargetId {
                server: (i * 7) % 16,
                target: (i * 13) % 96,
            });
        }
        let mut alloc = OidAllocator::new();
        let mut checked = 0;
        for class in [ObjectClass::RP_2, ObjectClass::RP_3, ObjectClass::EC_4P2] {
            for _ in 0..32 {
                let oid = alloc.next(class, 0);
                let layout = pool.layout(&oid, class);
                for group in layout.groups() {
                    // treat each member in turn as the down shard
                    // (as rebuild does after further exclusions)
                    for &down in group {
                        let got = pick_replacement(&pool, group, down);
                        let want = pick_replacement_reference(&pool, group, down);
                        assert_eq!(got, want, "group {group:?} down {down:?}");
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 1000, "exercised {checked} cases");
    }

    #[test]
    fn no_replacement_when_pool_exhausted() {
        let mut pool = PoolMap::new(1, 2);
        let down = TargetId {
            server: 0,
            target: 0,
        };
        pool.exclude(down);
        let group = vec![
            down,
            TargetId {
                server: 0,
                target: 1,
            },
        ];
        assert_eq!(pick_replacement(&pool, &group, down), None);
    }
}
