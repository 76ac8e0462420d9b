//! Deterministic fault injection: scheduled events the engine applies at
//! exact simulated times.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultEvent`]s built before (or
//! during) a run and installed on the [`Scheduler`](crate::Scheduler) with
//! [`Scheduler::install_faults`](crate::Scheduler::install_faults).  The
//! run loop fires each event when simulated time reaches it **while work
//! is pending** — a run that drains before a fault's time completes
//! normally and leaves the fault armed for the next run phase, so untimed
//! setup barriers never fast-forward through the failure schedule.
//!
//! Two event kinds are applied by the engine itself (capacity scaling for
//! [`FaultAction::SlowDisk`] and [`FaultAction::NicBrownout`]); the rest
//! are *domain* events the engine only times and digests — the
//! [`World`](crate::World) receives every fired event through
//! [`World::on_fault`](crate::World::on_fault) and maps crash/restart/
//! delay payloads onto its own storage-system state.
//!
//! Every fired event is folded into the replay digest with a tag byte, so
//! a faulted run's digest covers the failure schedule as well as the op
//! completion stream: replaying with a different plan (or the same plan
//! firing at different times) is detected exactly like any other schedule
//! divergence.

use crate::json::{self, Json};
use crate::step::ResourceId;
use crate::time::SimTime;

/// What a fault event does when it fires.
///
/// `TargetCrash`/`TargetRestart`/`DelayedCompletion` carry an opaque
/// `u64` payload interpreted by the [`World`](crate::World) (the DAOS
/// layer packs a `(server, target)` pair; a baseline may pack an OST
/// index).  `SlowDisk`/`NicBrownout` name an engine resource directly and
/// are applied by the scheduler as capacity scaling relative to the
/// resource's registered baseline — `scale: 1.0` restores full capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// A storage target fails: the world should mark it down and route
    /// around it (degraded reads, failover, rebuild).
    TargetCrash(u64),
    /// A previously-crashed target returns (reintegration).
    TargetRestart(u64),
    /// Transient slow disk: scale the resource's capacity to
    /// `baseline × scale`.  Must be `> 0` — a dead device is a
    /// [`FaultAction::TargetCrash`], not a zero-rate flow (which would
    /// stall the run).
    SlowDisk {
        /// The degraded device resource.
        resource: ResourceId,
        /// Fraction of baseline capacity (0 < scale, 1.0 = restored).
        scale: f64,
    },
    /// Network brownout: like [`FaultAction::SlowDisk`] but for a NIC
    /// direction resource.  Kept distinct so plans read like the failure
    /// they model and reports can attribute slowdowns.
    NicBrownout {
        /// The degraded NIC resource.
        resource: ResourceId,
        /// Fraction of baseline capacity (0 < scale, 1.0 = restored).
        scale: f64,
    },
    /// Completions involving `payload` (world-interpreted, e.g. a server
    /// rank) take `extra_ns` longer until cleared with `extra_ns: 0`.
    DelayedCompletion {
        /// World-interpreted locator for the slow component.
        payload: u64,
        /// Added latency in nanoseconds (0 clears the fault).
        extra_ns: u64,
    },
    /// Membership change: a server joins the pool online.  A domain
    /// event like crash/restart — the world maps `server` onto its own
    /// membership state and starts a rebalance.
    AddServer {
        /// World-interpreted server rank to add.
        server: u64,
    },
    /// Membership change: a server starts draining (its targets keep
    /// serving while the world migrates their shards away).
    DrainServer {
        /// World-interpreted server rank to drain.
        server: u64,
    },
    /// Silent data corruption: flip stored bytes in place without any
    /// membership or capacity signal.  `locus` selects which stored unit
    /// rots (world-interpreted, e.g. hashed onto a container/object/
    /// chunk) and `shard` selects which redundant copy of it (replica
    /// index or EC cell).  The world only learns about the damage when a
    /// verified read or scrub recomputes checksums.
    BitRot {
        /// World-interpreted locator for the rotten unit.
        locus: u64,
        /// Which redundant copy of the unit rots.
        shard: u64,
    },
}

impl FaultAction {
    /// The engine resource a capacity action scales, if any.
    pub fn resource(&self) -> Option<ResourceId> {
        match *self {
            FaultAction::SlowDisk { resource, .. } | FaultAction::NicBrownout { resource, .. } => {
                Some(resource)
            }
            FaultAction::TargetCrash(_)
            | FaultAction::TargetRestart(_)
            | FaultAction::DelayedCompletion { .. }
            | FaultAction::AddServer { .. }
            | FaultAction::DrainServer { .. }
            | FaultAction::BitRot { .. } => None,
        }
    }
}

/// One scheduled fault: an action firing at an exact simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated time at which the event fires (or as soon after as work
    /// is pending).
    pub at: SimTime,
    /// Plan-assigned sequence number; tie-breaks simultaneous events and
    /// is folded into the replay digest with the firing time.
    pub id: u64,
    /// What happens.
    pub action: FaultAction,
}

/// A deterministic failure schedule: fault events ordered by `(at, id)`.
///
/// Plans are plain data — building one performs no I/O and consults no
/// clock or RNG, so the same construction code always yields the same
/// schedule.  Randomised schedules seed a
/// [`SplitMix64`](crate::SplitMix64) and derive times from it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedule `action` at absolute sim time `at`; returns the event id.
    pub fn at(&mut self, at: SimTime, action: FaultAction) -> u64 {
        let id = self.events.len() as u64;
        self.events.push(FaultEvent { at, id, action });
        id
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events sorted by `(at, id)` (stable — simultaneous events keep
    /// insertion order).
    pub fn into_events(mut self) -> Vec<FaultEvent> {
        self.events.sort_by_key(|e| (e.at, e.id));
        self.events
    }

    /// The scheduled events in insertion order (not yet sorted).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The same plan with every event time moved `base` later,
    /// preserving ids.  Plans authored relative to a phase boundary
    /// (chaos schedules use offset 0 as the boundary) are anchored onto
    /// the live schedule this way at install time.
    pub fn shifted(&self, base: SimTime) -> FaultPlan {
        FaultPlan {
            events: self
                .events
                .iter()
                .map(|e| FaultEvent {
                    at: SimTime(base.0 + e.at.0),
                    id: e.id,
                    action: e.action,
                })
                .collect(),
        }
    }

    /// Rebuild a plan from explicit events, **preserving their ids**.
    ///
    /// This is the shrinker's constructor: a subset of a failing plan must
    /// replay with the surviving events' original `(at, id)` digest folds,
    /// so ids are kept rather than re-numbered.  [`FaultPlan::at`] must
    /// not be mixed with this (it would reuse low ids); shrunken plans are
    /// data, not builders.
    pub fn from_events(events: Vec<FaultEvent>) -> FaultPlan {
        FaultPlan { events }
    }

    /// Serialize to the schedule-file JSON format (compact, stable field
    /// order; see `from_json` for the schema).
    pub fn to_json(&self) -> String {
        let events = self
            .events
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("at_ns".into(), Json::num_u64(e.at.0)),
                    ("id".into(), Json::num_u64(e.id)),
                    ("action".into(), action_to_json(&e.action)),
                ])
            })
            .collect();
        Json::Obj(vec![("events".into(), Json::Arr(events))]).render()
    }

    /// Parse a plan from the schedule-file JSON format:
    ///
    /// ```json
    /// {"events":[{"at_ns":2000000,"id":0,
    ///             "action":{"kind":"target_crash","payload":65536}}]}
    /// ```
    ///
    /// Action kinds: `target_crash`/`target_restart` (`payload`),
    /// `slow_disk`/`nic_brownout` (`resource`, `scale`),
    /// `delayed_completion` (`payload`, `extra_ns`).  `scale` uses Rust's
    /// shortest round-trip `f64` formatting, so `to_json` → `from_json` is
    /// exact.
    pub fn from_json(input: &str) -> Result<FaultPlan, String> {
        let doc = json::parse(input).map_err(|e| e.to_string())?;
        let events = doc
            .get("events")
            .and_then(Json::as_arr)
            .ok_or("missing \"events\" array")?;
        let mut out = Vec::with_capacity(events.len());
        for (i, ev) in events.iter().enumerate() {
            out.push(event_from_json(ev).map_err(|e| format!("event {i}: {e}"))?);
        }
        Ok(FaultPlan::from_events(out))
    }
}

fn action_to_json(action: &FaultAction) -> Json {
    match action {
        FaultAction::TargetCrash(p) => Json::Obj(vec![
            ("kind".into(), Json::Str("target_crash".into())),
            ("payload".into(), Json::num_u64(*p)),
        ]),
        FaultAction::TargetRestart(p) => Json::Obj(vec![
            ("kind".into(), Json::Str("target_restart".into())),
            ("payload".into(), Json::num_u64(*p)),
        ]),
        FaultAction::SlowDisk { resource, scale } => Json::Obj(vec![
            ("kind".into(), Json::Str("slow_disk".into())),
            ("resource".into(), Json::num_u64(resource.0 as u64)),
            ("scale".into(), Json::num_f64(*scale)),
        ]),
        FaultAction::NicBrownout { resource, scale } => Json::Obj(vec![
            ("kind".into(), Json::Str("nic_brownout".into())),
            ("resource".into(), Json::num_u64(resource.0 as u64)),
            ("scale".into(), Json::num_f64(*scale)),
        ]),
        FaultAction::DelayedCompletion { payload, extra_ns } => Json::Obj(vec![
            ("kind".into(), Json::Str("delayed_completion".into())),
            ("payload".into(), Json::num_u64(*payload)),
            ("extra_ns".into(), Json::num_u64(*extra_ns)),
        ]),
        FaultAction::AddServer { server } => Json::Obj(vec![
            ("kind".into(), Json::Str("add_server".into())),
            ("server".into(), Json::num_u64(*server)),
        ]),
        FaultAction::DrainServer { server } => Json::Obj(vec![
            ("kind".into(), Json::Str("drain_server".into())),
            ("server".into(), Json::num_u64(*server)),
        ]),
        FaultAction::BitRot { locus, shard } => Json::Obj(vec![
            ("kind".into(), Json::Str("bit_rot".into())),
            ("locus".into(), Json::num_u64(*locus)),
            ("shard".into(), Json::num_u64(*shard)),
        ]),
    }
}

fn event_from_json(ev: &Json) -> Result<FaultEvent, String> {
    let at = ev
        .get("at_ns")
        .and_then(Json::as_u64)
        .ok_or("missing u64 \"at_ns\"")?;
    let id = ev
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("missing u64 \"id\"")?;
    let action = ev.get("action").ok_or("missing \"action\"")?;
    let kind = action
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("missing action \"kind\"")?;
    let payload = |name: &str| -> Result<u64, String> {
        action
            .get(name)
            .and_then(Json::as_u64)
            .ok_or(format!("missing u64 \"{name}\""))
    };
    let action = match kind {
        "target_crash" => FaultAction::TargetCrash(payload("payload")?),
        "target_restart" => FaultAction::TargetRestart(payload("payload")?),
        "slow_disk" | "nic_brownout" => {
            let resource = payload("resource")?;
            let resource = ResourceId(
                u32::try_from(resource).map_err(|_| "resource out of range".to_string())?,
            );
            let scale = action
                .get("scale")
                .and_then(Json::as_f64)
                .ok_or("missing f64 \"scale\"")?;
            if !(scale > 0.0 && scale.is_finite()) {
                return Err(format!("scale must be finite and > 0, got {scale}"));
            }
            if kind == "slow_disk" {
                FaultAction::SlowDisk { resource, scale }
            } else {
                FaultAction::NicBrownout { resource, scale }
            }
        }
        "delayed_completion" => FaultAction::DelayedCompletion {
            payload: payload("payload")?,
            extra_ns: payload("extra_ns")?,
        },
        "add_server" => FaultAction::AddServer {
            server: payload("server")?,
        },
        "drain_server" => FaultAction::DrainServer {
            server: payload("server")?,
        },
        "bit_rot" => FaultAction::BitRot {
            locus: payload("locus")?,
            shard: payload("shard")?,
        },
        other => return Err(format!("unknown action kind \"{other}\"")),
    };
    Ok(FaultEvent {
        at: SimTime(at),
        id,
        action,
    })
}

impl FaultEvent {
    /// Append this event's canonical byte encoding (for the schedule
    /// header fold of the replay digest): scheduled time, id, an action
    /// tag byte, and the action's two parameters as little-endian `u64`s
    /// (`f64` scales via `to_bits`, absent parameters as zero).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        let (tag, a, b): (u8, u64, u64) = match self.action {
            FaultAction::TargetCrash(p) => (1, p, 0),
            FaultAction::TargetRestart(p) => (2, p, 0),
            FaultAction::SlowDisk { resource, scale } => (3, resource.0 as u64, scale.to_bits()),
            FaultAction::NicBrownout { resource, scale } => (4, resource.0 as u64, scale.to_bits()),
            FaultAction::DelayedCompletion { payload, extra_ns } => (5, payload, extra_ns),
            FaultAction::AddServer { server } => (6, server, 0),
            FaultAction::DrainServer { server } => (7, server, 0),
            FaultAction::BitRot { locus, shard } => (8, locus, shard),
        };
        out.extend_from_slice(&self.at.0.to_le_bytes());
        out.extend_from_slice(&self.id.to_le_bytes());
        out.push(tag);
        out.extend_from_slice(&a.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_orders_events_by_time_then_id() {
        let mut p = FaultPlan::new();
        let a = p.at(SimTime::from_millis(5), FaultAction::TargetCrash(1));
        let b = p.at(SimTime::from_millis(2), FaultAction::TargetCrash(2));
        let c = p.at(SimTime::from_millis(5), FaultAction::TargetRestart(1));
        assert_eq!((a, b, c), (0, 1, 2));
        let evs = p.into_events();
        assert_eq!(evs[0].id, 1, "earliest time first");
        assert_eq!(evs[1].id, 0, "ties keep insertion order");
        assert_eq!(evs[2].id, 2);
    }

    fn sample_plan() -> FaultPlan {
        let mut p = FaultPlan::new();
        p.at(SimTime::from_millis(2), FaultAction::TargetCrash(1 << 16));
        p.at(
            SimTime::from_millis(3),
            FaultAction::SlowDisk {
                resource: ResourceId(7),
                scale: 0.3,
            },
        );
        p.at(
            SimTime::from_millis(4),
            FaultAction::NicBrownout {
                resource: ResourceId(9),
                scale: 0.1 + 0.2, // not exactly representable: exercises f64 round-trip
            },
        );
        p.at(
            SimTime::from_millis(5),
            FaultAction::DelayedCompletion {
                payload: 3,
                extra_ns: 250_000,
            },
        );
        p.at(SimTime::from_millis(6), FaultAction::TargetRestart(1 << 16));
        p.at(
            SimTime::from_millis(7),
            FaultAction::AddServer { server: 4 },
        );
        p.at(
            SimTime::from_millis(8),
            FaultAction::DrainServer { server: 1 },
        );
        p.at(
            SimTime::from_millis(9),
            FaultAction::BitRot {
                locus: 0xdead_beef,
                shard: 2,
            },
        );
        p
    }

    #[test]
    fn json_round_trip_is_exact() {
        let p = sample_plan();
        let json = p.to_json();
        let back = FaultPlan::from_json(&json).unwrap();
        assert_eq!(back, p);
        // Byte-identical re-serialization: a saved schedule re-emitted
        // after a round trip is the same file.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn json_round_trip_preserves_large_times_and_ids() {
        let mut p = FaultPlan::from_events(vec![FaultEvent {
            at: SimTime(u64::MAX - 5),
            id: u64::MAX - 9,
            action: FaultAction::TargetCrash(u64::MAX),
        }]);
        // from_events preserves ids; at() would have restarted at 0.
        p = FaultPlan::from_json(&p.to_json()).unwrap();
        assert_eq!(p.events()[0].at, SimTime(u64::MAX - 5));
        assert_eq!(p.events()[0].id, u64::MAX - 9);
        assert_eq!(p.events()[0].action, FaultAction::TargetCrash(u64::MAX));
    }

    #[test]
    fn from_json_rejects_malformed_schedules() {
        assert!(FaultPlan::from_json("{}").is_err());
        assert!(FaultPlan::from_json("{\"events\":[{}]}").is_err());
        assert!(FaultPlan::from_json(
            "{\"events\":[{\"at_ns\":1,\"id\":0,\"action\":{\"kind\":\"meteor\"}}]}"
        )
        .is_err());
        // Zero or negative scales would stall the engine; reject at parse.
        assert!(FaultPlan::from_json(
            "{\"events\":[{\"at_ns\":1,\"id\":0,\"action\":{\"kind\":\"slow_disk\",\"resource\":1,\"scale\":0}}]}"
        )
        .is_err());
    }

    #[test]
    fn from_events_preserves_ids_for_subsets() {
        let all = sample_plan().into_events();
        let subset: Vec<FaultEvent> = all.iter().copied().skip(2).collect();
        let plan = FaultPlan::from_events(subset.clone());
        assert_eq!(plan.into_events(), subset);
    }

    #[test]
    fn encode_distinguishes_every_field() {
        let base = FaultEvent {
            at: SimTime(10),
            id: 4,
            action: FaultAction::SlowDisk {
                resource: ResourceId(2),
                scale: 0.5,
            },
        };
        let enc = |e: &FaultEvent| {
            let mut v = Vec::new();
            e.encode(&mut v);
            v
        };
        let mut other = base;
        other.at = SimTime(11);
        assert_ne!(enc(&base), enc(&other));
        other = base;
        other.id = 5;
        assert_ne!(enc(&base), enc(&other));
        other = base;
        other.action = FaultAction::NicBrownout {
            resource: ResourceId(2),
            scale: 0.5,
        };
        assert_ne!(enc(&base), enc(&other), "tag byte separates action kinds");
        other = base;
        other.action = FaultAction::SlowDisk {
            resource: ResourceId(2),
            scale: 0.25,
        };
        assert_ne!(enc(&base), enc(&other));
    }

    #[test]
    fn plan_construction_is_deterministic() {
        let build = || {
            let mut p = FaultPlan::new();
            p.at(
                SimTime::from_millis(1),
                FaultAction::DelayedCompletion {
                    payload: 3,
                    extra_ns: 200_000,
                },
            );
            p.at(
                SimTime::from_millis(4),
                FaultAction::SlowDisk {
                    resource: ResourceId(7),
                    scale: 0.25,
                },
            );
            p.into_events()
        };
        assert_eq!(build(), build());
    }
}
