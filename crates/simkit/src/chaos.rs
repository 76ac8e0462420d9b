//! Seeded chaos-schedule generation: random [`FaultPlan`]s over the full
//! [`FaultAction`] space.
//!
//! FoundationDB-style simulation testing needs a *generator*, not just a
//! replayer: instead of hand-writing one curated failure schedule, a
//! swarm samples thousands of random schedules and checks invariants
//! after each.  This module is the sampling half.  A [`ChaosSpace`]
//! enumerates what *can* fail in a deployed topology (crashable target
//! groups, disk and NIC resources, delayable components); a
//! [`ChaosConfig`] bounds *how* it may fail (time window, fault budget,
//! severity range); [`generate`] maps `(space, config, seed)` to a
//! concrete [`FaultPlan`] using only a [`SplitMix64`] stream — the same
//! triple always yields the same plan, so a failing seed is already a
//! repro before its schedule is even saved to disk.
//!
//! Schedules are generated as *incidents*, not independent events: a
//! degraded disk gets a matching restore (`scale: 1.0`), a delayed
//! component gets a matching clear (`extra_ns: 0`), and a crashed group
//! may get a restart.  Unpaired degradations would make every long run
//! end in a trivially-slow steady state and mask real bugs.

use crate::faults::{FaultAction, FaultPlan};
use crate::rng::SplitMix64;
use crate::step::ResourceId;
use crate::time::SimTime;

/// What a chaos schedule is allowed to break: the fault surface of one
/// deployed topology.
///
/// Empty dimensions are simply never sampled, so a space with only
/// `disks`/`nics` populated yields pure engine-level schedules (capacity
/// scaling, no world involvement) that are safe against any scenario.
#[derive(Debug, Clone, Default)]
pub struct ChaosSpace {
    /// Groups of packed target ids that crash (and restart) together —
    /// one group per server, so a sampled crash takes out a whole
    /// fault domain exactly like the hand-written faulted scenarios.
    pub crash_groups: Vec<Vec<u64>>,
    /// Disk resources eligible for [`FaultAction::SlowDisk`].
    pub disks: Vec<ResourceId>,
    /// NIC resources eligible for [`FaultAction::NicBrownout`].
    pub nics: Vec<ResourceId>,
    /// World-interpreted payloads eligible for
    /// [`FaultAction::DelayedCompletion`] (e.g. server ranks).
    pub delay_payloads: Vec<u64>,
    /// Server ranks eligible for [`FaultAction::AddServer`] (spare
    /// hardware the world can bring online).  Each rank is added at most
    /// once per schedule; membership changes land in the first half of
    /// the window so the migration they trigger runs inside it.
    pub add_servers: Vec<u64>,
    /// Server ranks eligible for [`FaultAction::DrainServer`].  Each
    /// rank drains at most once per schedule.
    pub drain_servers: Vec<u64>,
    /// Crash groups fired only in the *second* half of the window — the
    /// crash-during-migration dimension.  They share the
    /// [`ChaosConfig::max_crash_groups`] budget with `crash_groups`, so
    /// a schedule never exceeds the redundancy the object classes
    /// tolerate.
    pub migration_crash_groups: Vec<Vec<u64>>,
    /// Widest redundancy group eligible for [`FaultAction::BitRot`]
    /// (replica count or `k + p`); sampled shards are `< rot_shards`.
    /// Zero disables the bit-rot dimension.  Rot incidents share the
    /// [`ChaosConfig::max_crash_groups`] budget with crashes: one rotten
    /// copy *or* one downed fault domain is what `RP_2`/`EC_2P1`
    /// tolerate — both at once could hit the same unit and turn a
    /// tolerable fault into by-design data loss.
    pub rot_shards: u64,
}

impl ChaosSpace {
    /// True when no dimension can be sampled.
    pub fn is_empty(&self) -> bool {
        self.crash_groups.is_empty()
            && self.disks.is_empty()
            && self.nics.is_empty()
            && self.delay_payloads.is_empty()
            && self.add_servers.is_empty()
            && self.drain_servers.is_empty()
            && self.migration_crash_groups.is_empty()
            && self.rot_shards == 0
    }
}

/// Bounds on a sampled schedule: when faults may fire and how hard they
/// may hit.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Earliest time an incident may start (typically just after the
    /// workload's setup barrier, so faults land inside the I/O phase).
    pub window_start: SimTime,
    /// Width of the incident window in nanoseconds; all incident starts
    /// and their paired recoveries land in
    /// `[window_start, window_start + window_ns]`.
    pub window_ns: u64,
    /// Maximum number of incidents (a degrade/restore or crash/restart
    /// pair counts as one incident, two events).
    pub max_faults: usize,
    /// Maximum distinct crash groups taken down in one schedule.  The
    /// default is 1: `RP_2`/`EC_2P1` tolerate a single fault-domain
    /// failure, so wider blast radii would report data loss that is the
    /// object class working as specified, not a bug.
    pub max_crash_groups: usize,
    /// Probability that a crashed group is restarted within the window
    /// (otherwise it stays down through rebuild and verification).
    pub restart_probability: f64,
    /// Severity floor for capacity scaling (must be `> 0`; the engine
    /// rejects zero-rate flows).
    pub min_scale: f64,
    /// Severity ceiling for capacity scaling (`< 1.0` or the "fault"
    /// is a no-op).
    pub max_scale: f64,
    /// Ceiling for [`FaultAction::DelayedCompletion`] added latency.
    pub max_extra_ns: u64,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            window_start: SimTime(0),
            window_ns: 10_000_000, // 10 ms: inside every scenario's I/O phase
            max_faults: 4,
            max_crash_groups: 1,
            restart_probability: 0.5,
            min_scale: 0.1,
            max_scale: 0.9,
            max_extra_ns: 500_000,
        }
    }
}

/// The incident kinds the sampler chooses between (resolved against the
/// space's non-empty dimensions).
#[derive(Clone, Copy)]
enum IncidentKind {
    Crash,
    SlowDisk,
    NicBrownout,
    Delay,
    AddServer,
    DrainServer,
    MigrationCrash,
    BitRot,
}

/// Sample a deterministic fault schedule: same `(space, cfg, seed)` →
/// same plan, event for event.
///
/// The returned plan's event ids are insertion-sequential, and incidents
/// are emitted start-before-recovery, so the plan is valid input for
/// [`FaultPlan::to_json`] / the shrinker without post-processing.  An
/// empty space or a zero fault budget yields an empty plan.
pub fn generate(space: &ChaosSpace, cfg: &ChaosConfig, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    if space.is_empty() || cfg.max_faults == 0 || cfg.window_ns == 0 {
        return plan;
    }
    let mut rng = SplitMix64::new(seed);
    let n_incidents = 1 + rng.next_below(cfg.max_faults as u64) as usize;
    let mut crashes_used = 0usize;
    // Groups not yet crashed this schedule: crashing the same group twice
    // without a restart in between would be an invalid double-crash.
    let mut crashable: Vec<usize> = (0..space.crash_groups.len()).collect();
    let mut mig_crashable: Vec<usize> = (0..space.migration_crash_groups.len()).collect();
    // Each server rank joins or drains at most once per schedule.
    let mut addable: Vec<u64> = space.add_servers.clone();
    let mut drainable: Vec<u64> = space.drain_servers.clone();

    for _ in 0..n_incidents {
        let mut kinds: Vec<IncidentKind> = Vec::with_capacity(8);
        if crashes_used < cfg.max_crash_groups && !crashable.is_empty() {
            kinds.push(IncidentKind::Crash);
        }
        if !space.disks.is_empty() {
            kinds.push(IncidentKind::SlowDisk);
        }
        if !space.nics.is_empty() {
            kinds.push(IncidentKind::NicBrownout);
        }
        if !space.delay_payloads.is_empty() {
            kinds.push(IncidentKind::Delay);
        }
        // The rebalance dimensions append after the original four, so a
        // space that leaves them empty draws the exact event stream it
        // always did — archived schedule digests stay valid.
        if !addable.is_empty() {
            kinds.push(IncidentKind::AddServer);
        }
        if !drainable.is_empty() {
            kinds.push(IncidentKind::DrainServer);
        }
        if crashes_used < cfg.max_crash_groups && !mig_crashable.is_empty() {
            kinds.push(IncidentKind::MigrationCrash);
        }
        // The rot dimension appends last for the same archived-digest
        // reason: spaces with rot_shards == 0 draw the stream they
        // always did.
        if crashes_used < cfg.max_crash_groups && space.rot_shards > 0 {
            kinds.push(IncidentKind::BitRot);
        }
        let Some(&kind) = kinds.get(rng.next_below(kinds.len() as u64) as usize) else {
            break; // crash budget spent and nothing else to sample
        };

        // Incident start anywhere in the window but its first ns, so a
        // recovery strictly after it still fits inside the window.
        let start_off = rng.next_below(cfg.window_ns);
        let start = SimTime(cfg.window_start.0 + start_off);
        let recover_at = |rng: &mut SplitMix64| {
            let remaining = cfg.window_ns - start_off;
            SimTime(start.0 + 1 + rng.next_below(remaining.max(1)))
        };

        match kind {
            IncidentKind::Crash => {
                let gi = rng.next_below(crashable.len() as u64) as usize;
                let group_idx = crashable.swap_remove(gi);
                crashes_used += 1;
                for &packed in &space.crash_groups[group_idx] {
                    plan.at(start, FaultAction::TargetCrash(packed));
                }
                if rng.next_f64() < cfg.restart_probability {
                    let back = recover_at(&mut rng);
                    for &packed in &space.crash_groups[group_idx] {
                        plan.at(back, FaultAction::TargetRestart(packed));
                    }
                }
            }
            IncidentKind::SlowDisk | IncidentKind::NicBrownout => {
                let pool = if matches!(kind, IncidentKind::SlowDisk) {
                    &space.disks
                } else {
                    &space.nics
                };
                let resource = pool[rng.next_below(pool.len() as u64) as usize];
                let scale = cfg.min_scale + (cfg.max_scale - cfg.min_scale) * rng.next_f64();
                let restore = recover_at(&mut rng);
                let (hit, heal) = if matches!(kind, IncidentKind::SlowDisk) {
                    (
                        FaultAction::SlowDisk { resource, scale },
                        FaultAction::SlowDisk {
                            resource,
                            scale: 1.0,
                        },
                    )
                } else {
                    (
                        FaultAction::NicBrownout { resource, scale },
                        FaultAction::NicBrownout {
                            resource,
                            scale: 1.0,
                        },
                    )
                };
                plan.at(start, hit);
                plan.at(restore, heal);
            }
            IncidentKind::Delay => {
                let payload = space.delay_payloads
                    [rng.next_below(space.delay_payloads.len() as u64) as usize];
                let extra_ns = 1 + rng.next_below(cfg.max_extra_ns.max(1));
                let clear = recover_at(&mut rng);
                plan.at(start, FaultAction::DelayedCompletion { payload, extra_ns });
                plan.at(
                    clear,
                    FaultAction::DelayedCompletion {
                        payload,
                        extra_ns: 0,
                    },
                );
            }
            IncidentKind::AddServer | IncidentKind::DrainServer => {
                // membership changes fire in the first half of the
                // window so the migration they trigger runs (and can be
                // crashed into) before verification
                let early = SimTime(cfg.window_start.0 + start_off % (cfg.window_ns / 2).max(1));
                match kind {
                    IncidentKind::AddServer => {
                        let i = rng.next_below(addable.len() as u64) as usize;
                        let server = addable.swap_remove(i);
                        plan.at(early, FaultAction::AddServer { server });
                    }
                    _ => {
                        let i = rng.next_below(drainable.len() as u64) as usize;
                        let server = drainable.swap_remove(i);
                        plan.at(early, FaultAction::DrainServer { server });
                    }
                }
            }
            IncidentKind::MigrationCrash => {
                // crash-during-migration: fire in the second half of the
                // window, after membership changes have started moving
                // data
                let half = cfg.window_ns / 2;
                let late_off = half + start_off % (cfg.window_ns - half).max(1);
                let late = SimTime(cfg.window_start.0 + late_off);
                let gi = rng.next_below(mig_crashable.len() as u64) as usize;
                let group_idx = mig_crashable.swap_remove(gi);
                crashes_used += 1;
                for &packed in &space.migration_crash_groups[group_idx] {
                    plan.at(late, FaultAction::TargetCrash(packed));
                }
                if rng.next_f64() < cfg.restart_probability {
                    let remaining = cfg.window_ns - late_off;
                    let back = SimTime(late.0 + 1 + rng.next_below(remaining.max(1)));
                    for &packed in &space.migration_crash_groups[group_idx] {
                        plan.at(back, FaultAction::TargetRestart(packed));
                    }
                }
            }
            IncidentKind::BitRot => {
                // Silent corruption has no paired recovery: only a
                // verified read or a scrub pass heals it.
                crashes_used += 1;
                let locus = rng.next_u64();
                let shard = rng.next_below(space.rot_shards);
                plan.at(start, FaultAction::BitRot { locus, shard });
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> ChaosSpace {
        ChaosSpace {
            crash_groups: vec![vec![1 << 16, (1 << 16) | 1], vec![2 << 16, (2 << 16) | 1]],
            disks: vec![ResourceId(10), ResourceId(11)],
            nics: vec![ResourceId(20)],
            delay_payloads: vec![1, 2, 3],
            ..ChaosSpace::default()
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = ChaosConfig::default();
        let s = space();
        for seed in 0..32 {
            assert_eq!(generate(&s, &cfg, seed), generate(&s, &cfg, seed));
        }
        assert_ne!(
            generate(&s, &cfg, 1),
            generate(&s, &cfg, 2),
            "distinct seeds should explore distinct schedules"
        );
    }

    #[test]
    fn events_respect_window_and_budget() {
        let cfg = ChaosConfig {
            window_start: SimTime(5_000_000),
            window_ns: 2_000_000,
            max_faults: 6,
            ..ChaosConfig::default()
        };
        let s = space();
        for seed in 0..64 {
            let events = generate(&s, &cfg, seed).into_events();
            assert!(!events.is_empty());
            // Each incident is ≤ 1 crash-group (2 targets) or an event
            // pair, so 6 incidents cap well below 4 × budget events.
            assert!(events.len() <= 4 * cfg.max_faults);
            for ev in &events {
                assert!(ev.at.0 >= cfg.window_start.0, "seed {seed}: before window");
                assert!(
                    ev.at.0 <= cfg.window_start.0 + cfg.window_ns,
                    "seed {seed}: after window"
                );
            }
        }
    }

    #[test]
    fn at_most_one_crash_group_and_scales_are_safe() {
        let cfg = ChaosConfig {
            max_faults: 8,
            ..ChaosConfig::default()
        };
        let s = space();
        for seed in 0..128 {
            let plan = generate(&s, &cfg, seed);
            let mut crashed = std::collections::BTreeSet::new();
            for ev in plan.events() {
                match ev.action {
                    FaultAction::TargetCrash(p) => {
                        crashed.insert(p >> 16);
                    }
                    FaultAction::SlowDisk { scale, .. }
                    | FaultAction::NicBrownout { scale, .. } => {
                        assert!(
                            scale > 0.0 && scale <= 1.0 && scale.is_finite(),
                            "seed {seed}: unsafe scale {scale}"
                        );
                    }
                    _ => {}
                }
            }
            assert!(crashed.len() <= 1, "seed {seed}: crashed {crashed:?}");
        }
    }

    #[test]
    fn degradations_are_paired_with_recoveries() {
        let cfg = ChaosConfig::default();
        let s = space();
        for seed in 0..64 {
            let plan = generate(&s, &cfg, seed);
            let mut degraded: std::collections::BTreeMap<(u8, u64), i64> =
                std::collections::BTreeMap::new();
            for ev in plan.clone().into_events() {
                match ev.action {
                    FaultAction::SlowDisk { resource, scale } => {
                        let k = (0u8, resource.0 as u64);
                        if scale < 1.0 {
                            *degraded.entry(k).or_default() += 1;
                        } else {
                            *degraded.entry(k).or_default() -= 1;
                        }
                    }
                    FaultAction::NicBrownout { resource, scale } => {
                        let k = (1u8, resource.0 as u64);
                        if scale < 1.0 {
                            *degraded.entry(k).or_default() += 1;
                        } else {
                            *degraded.entry(k).or_default() -= 1;
                        }
                    }
                    FaultAction::DelayedCompletion { payload, extra_ns } => {
                        let k = (2u8, payload);
                        if extra_ns > 0 {
                            *degraded.entry(k).or_default() += 1;
                        } else {
                            *degraded.entry(k).or_default() -= 1;
                        }
                    }
                    _ => {}
                }
            }
            assert!(
                degraded.values().all(|&n| n == 0),
                "seed {seed}: unpaired degradations {degraded:?}"
            );
        }
    }

    #[test]
    fn empty_space_or_budget_yields_empty_plan() {
        let cfg = ChaosConfig::default();
        assert!(generate(&ChaosSpace::default(), &cfg, 1).is_empty());
        let zero = ChaosConfig {
            max_faults: 0,
            ..cfg
        };
        assert!(generate(&space(), &zero, 1).is_empty());
    }

    fn rebalance_space() -> ChaosSpace {
        ChaosSpace {
            add_servers: vec![4, 5],
            drain_servers: vec![0, 1],
            migration_crash_groups: vec![vec![3 << 16, (3 << 16) | 1]],
            ..space()
        }
    }

    #[test]
    fn rebalance_dimensions_sample_with_correct_timing() {
        let cfg = ChaosConfig {
            max_faults: 8,
            ..ChaosConfig::default()
        };
        let s = rebalance_space();
        let half = cfg.window_start.0 + cfg.window_ns / 2;
        let (mut saw_add, mut saw_drain, mut saw_late_crash) = (false, false, false);
        for seed in 0..256 {
            let plan = generate(&s, &cfg, seed);
            let mut added = std::collections::BTreeSet::new();
            let mut drained = std::collections::BTreeSet::new();
            let mut crashed_groups = std::collections::BTreeSet::new();
            for ev in plan.events() {
                match ev.action {
                    FaultAction::AddServer { server } => {
                        saw_add = true;
                        assert!(ev.at.0 < half, "seed {seed}: add in first half");
                        assert!(added.insert(server), "seed {seed}: rank added twice");
                    }
                    FaultAction::DrainServer { server } => {
                        saw_drain = true;
                        assert!(ev.at.0 < half, "seed {seed}: drain in first half");
                        assert!(drained.insert(server), "seed {seed}: rank drained twice");
                    }
                    FaultAction::TargetCrash(p) => {
                        crashed_groups.insert(p >> 16);
                        if p >> 16 == 3 {
                            saw_late_crash = true;
                            assert!(
                                ev.at.0 >= half,
                                "seed {seed}: migration crash must land in the second half"
                            );
                        }
                    }
                    _ => {}
                }
            }
            // migration crashes share the ordinary crash-group budget
            assert!(
                crashed_groups.len() <= cfg.max_crash_groups,
                "seed {seed}: crashed {crashed_groups:?}"
            );
        }
        assert!(
            saw_add && saw_drain && saw_late_crash,
            "dimensions unsampled"
        );
    }

    #[test]
    fn rot_dimension_samples_within_shard_bound_and_crash_budget() {
        let cfg = ChaosConfig {
            max_faults: 8,
            ..ChaosConfig::default()
        };
        let s = ChaosSpace {
            rot_shards: 3,
            ..space()
        };
        let mut saw_rot = false;
        for seed in 0..256 {
            let plan = generate(&s, &cfg, seed);
            let mut crashed = std::collections::BTreeSet::new();
            let mut rots = 0usize;
            for ev in plan.events() {
                match ev.action {
                    FaultAction::BitRot { shard, .. } => {
                        saw_rot = true;
                        rots += 1;
                        assert!(shard < 3, "seed {seed}: shard {shard} out of bounds");
                        assert!(
                            ev.at.0 <= cfg.window_start.0 + cfg.window_ns,
                            "seed {seed}: rot outside window"
                        );
                    }
                    FaultAction::TargetCrash(p) => {
                        crashed.insert(p >> 16);
                    }
                    _ => {}
                }
            }
            // rot shares the crash-group budget: one rotten copy or one
            // downed fault domain, never both
            assert!(
                rots + crashed.len() <= cfg.max_crash_groups,
                "seed {seed}: {rots} rots + {crashed:?} crashes"
            );
        }
        assert!(saw_rot, "rot dimension unsampled");
    }

    #[test]
    fn rot_free_spaces_draw_the_stream_they_always_did() {
        // Archived-digest compatibility: enabling the dimension must not
        // perturb schedules sampled from spaces that leave it off.
        let cfg = ChaosConfig::default();
        let legacy = space();
        for seed in 0..32 {
            assert_eq!(
                generate(&legacy, &cfg, seed),
                generate(
                    &ChaosSpace {
                        rot_shards: 0,
                        ..legacy.clone()
                    },
                    &cfg,
                    seed
                ),
            );
        }
        let rotty = ChaosSpace {
            rot_shards: 2,
            ..space()
        };
        for seed in 0..32 {
            let plan = generate(&rotty, &cfg, seed);
            let back = FaultPlan::from_json(&plan.to_json()).unwrap();
            assert_eq!(back, plan, "seed {seed}");
        }
    }

    #[test]
    fn rebalance_plans_survive_json_round_trip() {
        let cfg = ChaosConfig {
            max_faults: 8,
            ..ChaosConfig::default()
        };
        let s = rebalance_space();
        for seed in 0..32 {
            let plan = generate(&s, &cfg, seed);
            let back = FaultPlan::from_json(&plan.to_json()).unwrap();
            assert_eq!(back, plan, "seed {seed}");
        }
    }

    #[test]
    fn generated_plans_survive_json_round_trip() {
        let cfg = ChaosConfig::default();
        let s = space();
        for seed in 0..32 {
            let plan = generate(&s, &cfg, seed);
            let back = FaultPlan::from_json(&plan.to_json()).unwrap();
            assert_eq!(back, plan, "seed {seed}");
        }
    }
}
