//! Elastic membership: target exclusion and crashes, rebuild, server
//! add and drain, and the background migration engine.
//!
//! When targets are excluded (`dmg pool exclude` in real DAOS), objects
//! whose shard groups include a down target run *degraded* — replicated
//! reads fail over and erasure-coded reads reconstruct — until a rebuild
//! re-protects them.  [`DaosSystem::rebuild`] scans every container,
//! picks a healthy replacement target for each affected shard (from the
//! object's own placement permutation, preserving fault-domain spread),
//! updates the layout, and returns an op chain that models the
//! server-to-server data movement: surviving data is read on its source
//! targets and written to the replacements.  Unprotected shards (plain
//! `S*`/`SX` data on a dead target) cannot be rebuilt; they are reported
//! as lost.
//!
//! Server adds and drains plan shard moves the same way
//! ([`DaosSystem::rebalance_plan`]) and ship them in throttled waves
//! ([`DaosSystem::migration_wave`]).

use super::{DaosSystem, ServerRes};
use crate::class::ObjectClass;
use crate::container::{Container, ContainerId, ObjectEntry};
use crate::data::ObjData;
use crate::oid::Oid;
use crate::pool::{PoolMap, TargetId, TargetState};
use simkit::{Scheduler, Step, StepBuf};
use std::collections::{BTreeMap, BTreeSet};

/// One planned shard move, addressed by `(container, object, group,
/// member)` so re-planning after a crash overwrites rather than
/// duplicates.  The key orders the pending set deterministically, which
/// makes wave emission (and therefore the replay digest) independent of
/// planning order.
type MoveKey = (u32, Oid, usize, usize);

/// Source/destination/bytes of one planned shard move.
#[derive(Debug, Clone)]
struct MovePlan {
    sources: Vec<TargetId>,
    read_each: f64,
    dst: TargetId,
    write_bytes: f64,
}

/// The background data-migration engine's bookkeeping: planned moves not
/// yet shipped, plus progress counters.  Lives inside [`DaosSystem`] and
/// is therefore replay-visible simulation state: waves pop moves in key
/// order, and every wave is validated against the *current* pool map and
/// layouts, so a crash (and the rebuild it triggers) simply invalidates
/// the stale moves — migration resumes with whatever is still correct.
#[derive(Debug, Clone, Default)]
pub(super) struct MigrationState {
    pending: BTreeMap<MoveKey, MovePlan>,
    moves_done: usize,
    moves_dropped: usize,
    moved_bytes: f64,
}

/// Progress of the background migration engine
/// ([`DaosSystem::migration_progress`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MigrationProgress {
    /// Moves shipped in completed waves.
    pub moves_done: usize,
    /// Planned moves dropped at wave time because a crash/rebuild made
    /// them stale (object gone, layout remapped, destination down).
    pub moves_dropped: usize,
    /// Logical bytes shipped by completed waves.
    pub moved_bytes: f64,
}

impl MigrationProgress {
    /// Publish migration progress into a telemetry registry as
    /// `daos.migration.*` counters recorded at `at`.  Wave activity over
    /// time is already visible through the engine's span-open counters
    /// (`span.migration.wave`); these totals add the dropped-move and
    /// shipped-byte bookkeeping only the migration engine knows.  No-op
    /// on a disabled registry.
    pub fn publish(&self, tel: &mut simkit::Telemetry, at: simkit::SimTime) {
        tel.add_counters(
            at,
            [
                ("daos.migration.moves_done", self.moves_done as u64),
                ("daos.migration.moves_dropped", self.moves_dropped as u64),
                ("daos.migration.moved_bytes", self.moved_bytes as u64),
            ],
        );
    }
}

/// Outcome of a rebalance planning pass
/// ([`DaosSystem::rebalance_plan`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RebalanceReport {
    /// Objects examined across all containers.
    pub objects_scanned: usize,
    /// Shard moves planned (layouts already remapped).
    pub moves_planned: usize,
    /// Logical bytes the planned moves will ship.
    pub bytes_planned: f64,
    /// Drained shards left in place because no destination was
    /// available; they are lost when the drain completes.
    pub moves_skipped: usize,
}

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

impl DaosSystem {
    /// Exclude a target: new placements avoid it and reads of its shards
    /// go degraded (replica fail-over / EC reconstruction).
    pub fn exclude_target(&mut self, t: TargetId) {
        self.pool.exclude(t);
    }

    /// Exclude every target of a server node.
    pub fn exclude_server(&mut self, server: u16) {
        self.pool.exclude_server(server);
    }

    /// Reintegrate a target.
    pub fn reintegrate_target(&mut self, t: TargetId) {
        self.pool.reintegrate(t);
    }

    /// A target crashes *mid-run* (fault injection): excluded like
    /// [`DaosSystem::exclude_target`], but the failure is initially
    /// **undetected** — the first data-path operation from each client
    /// node that touches the target fails with
    /// [`DaosError::TargetDown`](super::DaosError::TargetDown), and only
    /// the retry (against the refreshed pool map) takes the degraded
    /// path.
    pub fn crash_target(&mut self, t: TargetId) {
        self.pool.exclude(t);
        self.undetected.entry(t).or_default();
    }

    /// A crashed target returns: reintegrated and no longer reported as
    /// newly-down to any client.
    pub fn restart_target(&mut self, t: TargetId) {
        self.pool.reintegrate(t);
        self.undetected.remove(&t);
    }

    /// Re-protect every object affected by excluded targets: degraded
    /// shard-group members are remapped to healthy replacement targets
    /// and the surviving data is copied/reconstructed onto them,
    /// server-to-server.  Returns the report and the op chain modelling
    /// the data movement (submit it to account for rebuild time; real
    /// DAOS runs this in the background while serving degraded I/O).
    pub fn rebuild(&mut self) -> (RebuildReport, Step) {
        let pool = &self.pool;
        let mut report = RebuildReport::default();
        // remap first (layout edits happen in the walk), cost after
        let mut plans: Vec<MovePlan> = Vec::new();
        report.objects_scanned = walk_members(&mut self.containers, |m| {
            let t = m.group[m.m];
            // repair fully-down members only: drained and reintegrating
            // targets still serve their shards and are the migration
            // engine's responsibility
            if pool.is_servable(t) {
                return None;
            }
            let needed = m.class.data_members();
            let sources: Vec<TargetId> = m
                .group
                .iter()
                .copied()
                .filter(|&x| pool.is_servable(x))
                .take(needed)
                .collect();
            let dst = if sources.len() < needed {
                None
            } else {
                pick_replacement(pool, m.group, t)
            };
            let Some(dst) = dst else {
                report.shards_lost += 1;
                return None;
            };
            report.shards_rebuilt += 1;
            report.bytes_moved += m.bytes;
            if m.bytes > 0.0 {
                plans.push(MovePlan {
                    sources,
                    read_each: m.bytes,
                    dst,
                    write_bytes: m.bytes,
                });
            }
            Some(dst)
        });
        // throttle the background traffic into waves so a mass rebuild
        // does not model as one infinitely-wide burst
        let moved = report.bytes_moved as u64;
        let mut b = StepBuf::new();
        b.span("rebuild", "scan", moved, |b| {
            for wave in plans.chunks(32) {
                b.par(|b| {
                    for p in wave {
                        self.cost
                            .shard_move(b, &p.sources, p.read_each, p.dst, p.write_bytes);
                    }
                });
            }
        });
        (report, b.finish())
    }

    /// Add a server to the pool online (`dmg system join` + extend).
    /// The topology must have spare hardware (deploys over fewer servers
    /// than the topology holds leave room to grow).  The new engine's
    /// service resources are created in `sched`; its targets join in
    /// `Reint` state — they receive migrated shards and serve them, but
    /// new layouts skip them until [`DaosSystem::finish_rebalance`]
    /// promotes them.  Returns the new server's rank.
    pub fn add_server(&mut self, sched: &mut Scheduler) -> u16 {
        let s = self.pool.server_count();
        assert!(
            s < self.cost.topo.server_count(),
            "topology has no spare server hardware to add"
        );
        let rank = self.pool.add_server();
        let res = ServerRes::add(sched, &self.cost.cal, s);
        self.cost.srv_res.push(res);
        rank
    }

    /// Start draining a server (`dmg pool drain`): its targets keep
    /// serving their shards but leave new layouts; plan a rebalance to
    /// move the shards off, then [`DaosSystem::finish_rebalance`]
    /// retires them.
    pub fn drain_server(&mut self, server: u16) {
        self.pool.drain_server(server);
    }

    /// Plan the data migration for the current membership: every shard
    /// on a draining target moves off it, and when reintegrating targets
    /// exist (a newly added server), a proportional share of the shards
    /// on up targets moves onto them — consistent-hashing-style minimal
    /// movement, so growing 4→5 servers relocates ≈1/5th of the data.
    ///
    /// Layouts are remapped at plan time (the same modelling shortcut as
    /// [`DaosSystem::rebuild`]): reads follow the new layout immediately
    /// while the planned moves model the background copy cost.  Ship the
    /// moves with [`DaosSystem::migration_wave`]; a crash between waves
    /// only invalidates the moves it made stale.
    pub fn rebalance_plan(&mut self) -> RebalanceReport {
        let pool = &self.pool;
        let mut report = RebalanceReport::default();
        // migration destinations: reintegrating targets in linear order
        let reint: Vec<TargetId> = (0..pool.total_targets())
            .map(|i| pool.target_at(i))
            .filter(|&t| pool.state(t) == TargetState::Reint)
            .collect();
        let total = pool.total_targets() as u64;
        let pending = &mut self.migration.pending;
        report.objects_scanned = walk_members(&mut self.containers, |m| {
            let from = m.group[m.m];
            let h = move_hash(&m.oid, m.g, m.m);
            let dst = match pool.state(from) {
                // drained shards must leave; prefer the new server's
                // targets, else any up target
                TargetState::Drain => pick_migration_dest(pool, m.group, from, &reint, h),
                // minimal movement onto a new server: member moves iff
                // its hash lands in the added slice
                TargetState::Up if !reint.is_empty() && h % total < reint.len() as u64 => {
                    pick_reint_dest(pool, m.group, from, &reint, h)
                }
                _ => None,
            };
            let Some(dst) = dst else {
                if pool.state(from) == TargetState::Drain {
                    report.moves_skipped += 1;
                }
                return None;
            };
            report.moves_planned += 1;
            report.bytes_planned += m.bytes;
            // re-planning overwrites: the newest layout decision wins
            let plan = MovePlan {
                sources: vec![from],
                read_each: m.bytes,
                dst,
                write_bytes: m.bytes,
            };
            pending.insert((m.cid.0, m.oid, m.g, m.m), plan);
            Some(dst)
        });
        report
    }

    /// Emit the next migration wave: up to `max_moves` pending moves,
    /// validated against the *current* layouts and pool map, as one
    /// parallel step of server-to-server copies competing with
    /// foreground traffic through the same NIC/engine/NVMe resources.
    /// Stale moves (object punched, layout remapped by a crash-triggered
    /// rebuild, destination no longer servable) are dropped and counted
    /// — this is what makes migration resumable after a crash.  Returns
    /// `None` when nothing remains to ship.
    pub fn migration_wave(&mut self, max_moves: usize) -> Option<Step> {
        assert!(max_moves > 0);
        let mut moves = StepBuf::new();
        let mut wave_bytes = 0.0;
        let shipped = moves.par(|b| {
            let mut shipped = 0;
            while shipped < max_moves {
                let Some(((cid, oid, g, m), plan)) = self.migration.pending.pop_first() else {
                    break;
                };
                // validate against the current world: a crash (and the
                // rebuild it triggered) may have invalidated this move
                let group = match self.obj(ContainerId(cid), oid) {
                    Ok(entry) => entry.layout.groups().nth(g),
                    Err(_) => None,
                };
                let group = group
                    .filter(|grp| grp.get(m) == Some(&plan.dst) && self.pool.is_servable(plan.dst));
                let Some(group) = group else {
                    self.migration.moves_dropped += 1;
                    continue;
                };
                // re-source from the surviving group when the planned source
                // died mid-migration (redundant classes can still feed the
                // copy; an unreplicated shard with a dead source is dropped
                // and the durability oracle will name the loss)
                let mut sources: Vec<TargetId> = plan
                    .sources
                    .iter()
                    .copied()
                    .filter(|&t| self.pool.is_servable(t))
                    .collect();
                if sources.is_empty() {
                    sources.extend(
                        group
                            .iter()
                            .copied()
                            .filter(|&t| t != plan.dst && self.pool.is_servable(t))
                            .take(1),
                    );
                }
                if sources.is_empty() {
                    self.migration.moves_dropped += 1;
                    continue;
                }
                wave_bytes += plan.write_bytes;
                self.cost
                    .shard_move(b, &sources, plan.read_each, plan.dst, plan.write_bytes);
                shipped += 1;
                self.migration.moves_done += 1;
                self.migration.moved_bytes += plan.write_bytes;
            }
            shipped
        });
        if shipped == 0 {
            return None;
        }
        Some(Step::span(
            "migrate",
            "wave",
            wave_bytes as u64,
            moves.finish(),
        ))
    }

    /// Planned moves not yet shipped.
    pub fn migration_pending(&self) -> usize {
        self.migration.pending.len()
    }

    /// Progress of the migration engine so far.
    pub fn migration_progress(&self) -> MigrationProgress {
        MigrationProgress {
            moves_done: self.migration.moves_done,
            moves_dropped: self.migration.moves_dropped,
            moved_bytes: self.migration.moved_bytes,
        }
    }

    /// Complete the rebalance: retire fully-drained targets
    /// (`Drain` → `Down`) and promote reintegrating ones (`Reint` →
    /// `Up`).  Call once [`DaosSystem::migration_pending`] reaches zero;
    /// any shard the planner could not move off a drained target becomes
    /// unavailable here, which is exactly what the durability oracles
    /// are watching for.
    pub fn finish_rebalance(&mut self) {
        self.pool.retire_drained();
        self.pool.promote_reint();
    }
}

/// One shard-group member as [`walk_members`] presents it.
struct Member<'a> {
    cid: ContainerId,
    oid: Oid,
    class: ObjectClass,
    /// Logical bytes the member holds ([`member_bytes`]).
    bytes: f64,
    /// Group index within the object's layout.
    g: usize,
    /// Member index within the group.
    m: usize,
    /// The whole group, earlier members already remapped.
    group: &'a [TargetId],
}

/// Visit every shard-group member of every object in container /
/// object / group / member order, moving the member to the target `f`
/// returns, if any.  Returns the number of objects walked.  Rebuild and
/// the rebalance planner both remap layouts this way.
fn walk_members(
    containers: &mut [Option<Container>],
    mut f: impl FnMut(Member<'_>) -> Option<TargetId>,
) -> usize {
    let mut objects = 0;
    for cont in containers.iter_mut().flatten() {
        let cid = cont.id;
        for (&oid, entry) in cont.objects.iter_mut() {
            objects += 1;
            let (class, bytes) = (entry.layout.class, member_bytes(entry));
            for (g, group) in entry.layout.groups_mut().enumerate() {
                for m in 0..group.len() {
                    let member = Member {
                        cid,
                        oid,
                        class,
                        bytes,
                        g,
                        m,
                        group,
                    };
                    if let Some(dst) = f(member) {
                        group[m] = dst;
                    }
                }
            }
        }
    }
    objects
}

/// Logical bytes one member of one of `entry`'s redundancy groups holds:
/// the group's share of the object (KV objects sized at 512 bytes per
/// key), split over the data cells for erasure-coded classes.  Both the
/// rebuild and the rebalance planner move shards of this size.
fn member_bytes(entry: &ObjectEntry) -> f64 {
    let obj_bytes = match &entry.data {
        ObjData::Array(a) => a.size() as f64,
        ObjData::Kv(kv) => kv.len() as f64 * 512.0,
    };
    let group_share = obj_bytes / entry.layout.group_count().max(1) as f64;
    entry.layout.class.member_share(group_share)
}

/// Deterministic per-shard hash deciding whether (and where) a shard
/// moves during a rebalance.  A pure function of the shard's identity,
/// so replanning after a crash reproduces the same decisions.
fn move_hash(oid: &Oid, g: usize, m: usize) -> u64 {
    simkit::SplitMix64::new(oid.placement_hash() ^ ((g as u64) << 20) ^ (m as u64 + 1)).next_u64()
}

/// Destination for a shard leaving a draining target: a reintegrating
/// target on a server the group does not already use, else any up
/// target via the rebuild replacement policy, else `None` (the shard
/// stays and is lost when the drain retires).
fn pick_migration_dest(
    pool: &PoolMap,
    group: &[TargetId],
    from: TargetId,
    reint: &[TargetId],
    hash: u64,
) -> Option<TargetId> {
    pick_reint_dest(pool, group, from, reint, hash).or_else(|| pick_replacement(pool, group, from))
}

/// Destination among the reintegrating targets only, preserving
/// fault-domain spread (no server already used by the group); `None`
/// when every reintegrating target collides with the group's servers.
fn pick_reint_dest(
    pool: &PoolMap,
    group: &[TargetId],
    from: TargetId,
    reint: &[TargetId],
    hash: u64,
) -> Option<TargetId> {
    let used: BTreeSet<u16> = group
        .iter()
        .copied()
        .filter(|&t| t != from && pool.is_servable(t))
        .map(|t| t.server)
        .collect();
    let fresh: Vec<TargetId> = reint
        .iter()
        .copied()
        .filter(|t| !used.contains(&t.server))
        .collect();
    if fresh.is_empty() {
        return None;
    }
    Some(fresh[(hash % fresh.len() as u64) as usize])
}

/// Pick a replacement target for a group: up, not already in the group,
/// preferring servers not yet represented in the group (fault domains).
fn pick_replacement(pool: &PoolMap, group: &[TargetId], down: TargetId) -> Option<TargetId> {
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
