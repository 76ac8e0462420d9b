//! Pool maps: targets, their states, and object placement.
//!
//! A DAOS pool spans a set of engines (one per server node in the
//! paper's deployments), each exposing 16 targets backed by one NVMe
//! device each.  Objects are placed on targets by a deterministic hash
//! of their OID, in shard groups whose width depends on the object class
//! (1 for plain shards, `r` for replication, `k+p` for erasure coding).
//!
//! The map is **versioned**: every effective state transition (and every
//! membership change) bumps a monotonic map version, exactly like the
//! pool-map revision DAOS distributes to clients.  Two maps at the same
//! version are byte-identical, so layouts computed against an unchanged
//! version are stable; any divergence in placement implies a version
//! step in between.

use crate::class::ObjectClass;
use crate::oid::Oid;
use simkit::json::{self, Json};

/// One DAOS target: `(server rank, target index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TargetId {
    /// Engine rank (server node index within the pool).
    pub server: u16,
    /// Target index within the engine.
    pub target: u16,
}

impl TargetId {
    /// Pack into the opaque `u64` payload carried by
    /// [`simkit::FaultAction`] crash/restart events.
    pub fn pack(self) -> u64 {
        (self.server as u64) << 16 | self.target as u64
    }

    /// Inverse of [`TargetId::pack`].
    pub fn unpack(v: u64) -> TargetId {
        TargetId {
            server: (v >> 16) as u16,
            target: (v & 0xffff) as u16,
        }
    }
}

/// Health / membership state of a target.
///
/// The four states split along two axes: **placement** (do new layouts
/// use it?) and **service** (can it serve I/O for shards it already
/// holds?).  `Up` is both; `Drain` serves but no longer places (its
/// shards are being migrated away before retirement); `Reint` places
/// nothing yet but accepts and serves migrated shards (a reintegrating
/// or newly added target); `Down` is neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetState {
    /// Serving I/O and eligible for new placements.
    Up,
    /// Serving existing shards, excluded from new layouts; the
    /// migration engine is moving its shards away, after which it
    /// retires to `Down`.
    Drain,
    /// Excluded/failed: receives no I/O; its shards are unavailable.
    Down,
    /// Rejoining (or newly added): receives migrated shards and serves
    /// them, but new layouts skip it until it is promoted to `Up`.
    Reint,
}

impl TargetState {
    fn as_str(self) -> &'static str {
        match self {
            TargetState::Up => "up",
            TargetState::Drain => "drain",
            TargetState::Down => "down",
            TargetState::Reint => "reint",
        }
    }

    fn from_str(s: &str) -> Option<TargetState> {
        match s {
            "up" => Some(TargetState::Up),
            "drain" => Some(TargetState::Drain),
            "down" => Some(TargetState::Down),
            "reint" => Some(TargetState::Reint),
            _ => None,
        }
    }
}

/// The pool map: target inventory, health, and a monotonic version.
#[derive(Debug, Clone)]
pub struct PoolMap {
    servers: usize,
    targets_per_server: usize,
    version: u64,
    state: Vec<TargetState>,
    /// Cached `Up` targets in linear order, maintained on every
    /// transition so that placement and lookup paths never rescan or
    /// copy the state vector.
    up: Vec<TargetId>,
    /// Cached number of servers with at least one `Up` target.
    up_servers: usize,
    /// Cached non-`Down` count (targets able to serve I/O).
    servable: usize,
}

/// The placement of one object: shard groups of equal width, stored
/// flat so that a layout over every target of a pool is one allocation.
///
/// * plain (`S*`/`SX`): `group(g) = [target]`;
/// * replication: `group(g) = [replica0, replica1, …]`;
/// * erasure coding: `group(g) = [data0 … data(k-1), parity0 …]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Group members, shard groups in dkey order, `width` per group.
    members: Vec<TargetId>,
    /// Targets per shard group (≥ 1).
    width: usize,
    /// The class the layout was generated for.
    pub class: ObjectClass,
}

impl Layout {
    /// Number of shard groups.
    pub fn group_count(&self) -> usize {
        self.members.len() / self.width
    }

    /// Members of shard group `g`.
    pub fn group(&self, g: usize) -> &[TargetId] {
        &self.members[g * self.width..(g + 1) * self.width]
    }

    /// Shard groups in dkey order.
    pub fn groups(&self) -> std::slice::Chunks<'_, TargetId> {
        self.members.chunks(self.width)
    }

    /// Shard groups in dkey order, for remapping members in place
    /// (rebuild and migration).
    pub fn groups_mut(&mut self) -> std::slice::ChunksMut<'_, TargetId> {
        self.members.chunks_mut(self.width)
    }

    /// Group responsible for a dkey (Array chunk index or KV dkey hash).
    pub fn group_for(&self, dkey_hash: u64) -> &[TargetId] {
        self.group(self.group_index(dkey_hash))
    }

    /// Index of the group responsible for a dkey.
    pub fn group_index(&self, dkey_hash: u64) -> usize {
        (dkey_hash % self.group_count() as u64) as usize
    }
}

impl PoolMap {
    /// A pool over `servers` engines with `targets_per_server` targets
    /// each, all up, at map version 0.
    pub fn new(servers: usize, targets_per_server: usize) -> Self {
        assert!(servers > 0 && targets_per_server > 0);
        let total = servers * targets_per_server;
        PoolMap::with_states(servers, targets_per_server, 0, vec![TargetState::Up; total])
    }

    /// A map over the given per-target states, with its caches built.
    fn with_states(
        servers: usize,
        targets_per_server: usize,
        version: u64,
        state: Vec<TargetState>,
    ) -> Self {
        let mut pm = PoolMap {
            servers,
            targets_per_server,
            version,
            state,
            up: Vec::new(),
            up_servers: 0,
            servable: 0,
        };
        pm.up = (0..pm.state.len())
            .filter(|&i| pm.state[i] == TargetState::Up)
            .map(|i| pm.target_at(i))
            .collect();
        pm.up_servers = (0..servers as u16).filter(|&s| pm.server_has_up(s)).count();
        pm.servable = pm.state.iter().filter(|&&s| s != TargetState::Down).count();
        pm
    }

    /// Engines in the pool.
    pub fn server_count(&self) -> usize {
        self.servers
    }

    /// Targets per engine.
    pub fn targets_per_server(&self) -> usize {
        self.targets_per_server
    }

    /// Total targets, regardless of state.
    pub fn total_targets(&self) -> usize {
        self.state.len()
    }

    /// Monotonic map version: bumped by every effective state
    /// transition and by every membership change.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of `Up` targets (placement-eligible), O(1).
    pub fn up_count(&self) -> usize {
        self.up.len()
    }

    /// Does `server` have an `Up` target?  One search of the cached
    /// list, which keeps each server's targets adjacent.
    fn server_has_up(&self, server: u16) -> bool {
        let first = self.up.partition_point(|t| t.server < server);
        self.up.get(first).is_some_and(|t| t.server == server)
    }

    /// Number of non-`Down` targets (able to serve I/O), O(1).
    pub fn servable_count(&self) -> usize {
        self.servable
    }

    /// Linear index of a target.
    pub fn index(&self, t: TargetId) -> usize {
        t.server as usize * self.targets_per_server + t.target as usize
    }

    /// Target at a linear index.
    pub fn target_at(&self, idx: usize) -> TargetId {
        TargetId {
            server: (idx / self.targets_per_server) as u16,
            target: (idx % self.targets_per_server) as u16,
        }
    }

    /// Health of a target.
    pub fn state(&self, t: TargetId) -> TargetState {
        self.state[self.index(t)]
    }

    /// True when the target is `Up`: serving I/O *and* eligible for new
    /// placements.
    pub fn is_up(&self, t: TargetId) -> bool {
        self.state(t) == TargetState::Up
    }

    /// True when the target can serve I/O for shards it holds (`Up`,
    /// `Drain` or `Reint` — everything but `Down`).
    pub fn is_servable(&self, t: TargetId) -> bool {
        self.state(t) != TargetState::Down
    }

    /// The single transition point: applies the new state, maintains the
    /// cached up list and counts, and bumps the version — only when the
    /// state actually changes, so no-op transitions leave the version
    /// alone.
    fn set_state(&mut self, t: TargetId, new: TargetState) {
        let i = self.index(t);
        let old = self.state[i];
        if old == new {
            return;
        }
        if old == TargetState::Up {
            if let Ok(at) = self.up.binary_search(&t) {
                self.up.remove(at);
            }
            if !self.server_has_up(t.server) {
                self.up_servers -= 1;
            }
        }
        if new == TargetState::Up {
            if !self.server_has_up(t.server) {
                self.up_servers += 1;
            }
            if let Err(at) = self.up.binary_search(&t) {
                self.up.insert(at, t);
            }
        }
        self.servable -= (old != TargetState::Down) as usize;
        self.servable += (new != TargetState::Down) as usize;
        self.state[i] = new;
        self.version += 1;
    }

    /// Mark a target down (failure injection / `dmg pool exclude`).
    pub fn exclude(&mut self, t: TargetId) {
        self.set_state(t, TargetState::Down);
    }

    /// Mark every target of a server down.
    pub fn exclude_server(&mut self, server: u16) {
        for t in 0..self.targets_per_server as u16 {
            self.exclude(TargetId { server, target: t });
        }
    }

    /// Bring a target back up (reintegration completed / restart).
    pub fn reintegrate(&mut self, t: TargetId) {
        self.set_state(t, TargetState::Up);
    }

    /// Start draining a target (`dmg pool drain`): it keeps serving its
    /// shards but new layouts skip it.  Only meaningful for targets that
    /// currently serve (`Up`/`Reint`); draining a `Down` target is a
    /// no-op.
    pub fn drain(&mut self, t: TargetId) {
        if self.is_servable(t) {
            self.set_state(t, TargetState::Drain);
        }
    }

    /// Start draining every target of a server.
    pub fn drain_server(&mut self, server: u16) {
        for t in 0..self.targets_per_server as u16 {
            self.drain(TargetId { server, target: t });
        }
    }

    /// Begin reintegrating a `Down` target: it becomes a migration
    /// destination (`Reint`) but stays out of new layouts until
    /// [`PoolMap::promote_reint`] (or [`PoolMap::reintegrate`]).
    pub fn start_reint(&mut self, t: TargetId) {
        if self.state(t) == TargetState::Down {
            self.set_state(t, TargetState::Reint);
        }
    }

    /// Grow the pool by one server whose targets start in `Reint`
    /// (receiving migrated shards, not yet placement-eligible).
    /// Returns the new server's rank.
    pub fn add_server(&mut self) -> u16 {
        let rank = self.servers as u16;
        self.servers += 1;
        self.state.extend(std::iter::repeat_n(
            TargetState::Reint,
            self.targets_per_server,
        ));
        self.servable += self.targets_per_server;
        self.version += 1;
        rank
    }

    /// Retire every fully-drained target: `Drain` → `Down`.  Called when
    /// the migration engine has moved the last shard off the draining
    /// targets.
    pub fn retire_drained(&mut self) {
        for i in 0..self.state.len() {
            if self.state[i] == TargetState::Drain {
                self.set_state(self.target_at(i), TargetState::Down);
            }
        }
    }

    /// Promote every reintegrating target: `Reint` → `Up`.  Called when
    /// the migration engine has finished populating them.
    pub fn promote_reint(&mut self) {
        for i in 0..self.state.len() {
            if self.state[i] == TargetState::Reint {
                self.set_state(self.target_at(i), TargetState::Up);
            }
        }
    }

    /// Currently-up targets, in linear order.
    pub fn up_targets(&self) -> &[TargetId] {
        &self.up
    }

    /// Serialize to the pool-map JSON format (compact, stable field
    /// order): membership shape, version, and one state string per
    /// target in linear order.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("servers".into(), Json::num_u64(self.servers as u64)),
            (
                "targets_per_server".into(),
                Json::num_u64(self.targets_per_server as u64),
            ),
            ("version".into(), Json::num_u64(self.version)),
            (
                "states".into(),
                Json::Arr(
                    self.state
                        .iter()
                        .map(|s| Json::Str(s.as_str().into()))
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Parse a map serialized by [`PoolMap::to_json`], restoring the
    /// version and every per-target state exactly.
    pub fn from_json(input: &str) -> Result<PoolMap, String> {
        let doc = json::parse(input).map_err(|e| e.to_string())?;
        let num = |name: &str| -> Result<u64, String> {
            doc.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing u64 \"{name}\""))
        };
        let servers = num("servers")? as usize;
        let targets_per_server = num("targets_per_server")? as usize;
        if servers == 0 || targets_per_server == 0 {
            return Err("servers and targets_per_server must be > 0".into());
        }
        let version = num("version")?;
        let states = doc
            .get("states")
            .and_then(Json::as_arr)
            .ok_or("missing \"states\" array")?;
        if states.len() != servers * targets_per_server {
            return Err(format!(
                "states length {} != servers {servers} × targets_per_server {targets_per_server}",
                states.len()
            ));
        }
        let mut state = Vec::with_capacity(states.len());
        for (i, s) in states.iter().enumerate() {
            let name = s
                .as_str()
                .ok_or_else(|| format!("state {i}: not a string"))?;
            state.push(
                TargetState::from_str(name)
                    .ok_or_else(|| format!("state {i}: unknown state \"{name}\""))?,
            );
        }
        Ok(PoolMap::with_states(
            servers,
            targets_per_server,
            version,
            state,
        ))
    }

    /// Generate the layout for an object: a **per-object pseudorandom
    /// permutation** of the up targets (seeded by the OID), cut into
    /// shard groups of the class's width.
    ///
    /// The permutation matters: real DAOS placement maps each object's
    /// shards through an independent pseudorandom layout, so concurrent
    /// sequential writers never march over the targets in correlated
    /// order.  (An earlier rotation-based layout produced convoys of
    /// processes colliding on the same devices and cost half the
    /// cluster's bandwidth at queue depth 1.)
    pub fn layout(&self, oid: &Oid, class: ObjectClass) -> Layout {
        self.layout_salted(oid, class, 0)
    }

    /// Like [`PoolMap::layout`], with an extra seed mixed into the
    /// permutation.  DAOS object ids are only unique within a container,
    /// so placement salts them with container identity; without this,
    /// object `N` of every container would land on the same targets.
    ///
    /// The permutation is a seeded Fisher-Yates pass from the back over
    /// the up targets, and the members are the shuffled targets
    /// interleaved by server (see `interleave`).  When no more members
    /// are needed than there are up servers, the members are the first
    /// target of each of the first servers the pass fixes, so the pass
    /// can stop there (see `first_servers`): it makes the same draws
    /// in the same order, and an `S1` object costs one draw on any pool.
    /// A lazy step costs a scan of the members and swaps so far, so the
    /// lazy pass is taken while at most half of the up servers must be
    /// met; nearer the up-server count the whole pass is cheaper, and
    /// both give the same members.
    pub fn layout_salted(&self, oid: &Oid, class: ObjectClass, salt: u64) -> Layout {
        let up = &self.up;
        assert!(!up.is_empty(), "no targets up");
        let width = class.group_width();
        assert!(
            width <= up.len(),
            "class {class} needs {width} targets, only {} up",
            up.len()
        );
        let need = class.shard_groups(up.len()) * width;
        let mut rng = simkit::SplitMix64::new(
            oid.placement_hash() ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let members = if 2 * need <= self.up_servers {
            first_servers(up, need, &mut rng)
        } else {
            interleave(up, self.servers, need, &mut rng)
        };
        Layout {
            members,
            width,
            class,
        }
    }
}

/// The Fisher-Yates pass of [`PoolMap::layout_salted`], run lazily: step
/// `i` draws `j ≤ i` and fixes position `i` to the target at `j`, and
/// the interleave meets the servers in the order the steps fix them.
/// Returns the first target of each of the first `need` distinct servers
/// fixed, which is the interleave's first round, and stops there.
///
/// Only the positions a swap moved a target into are recorded, so a
/// pass costs no copy of `up`; the caller guarantees that `up` spans at
/// least `need` servers.
fn first_servers(up: &[TargetId], need: usize, rng: &mut simkit::SplitMix64) -> Vec<TargetId> {
    let mut members: Vec<TargetId> = Vec::with_capacity(need);
    let mut moved: Vec<(usize, TargetId)> = Vec::new();
    let at = |moved: &[(usize, TargetId)], k: usize| {
        moved.iter().find(|m| m.0 == k).map_or(up[k], |m| m.1)
    };
    for i in (0..up.len()).rev() {
        let j = if i == 0 {
            0
        } else {
            rng.next_below(i as u64 + 1) as usize
        };
        let t = at(&moved, j);
        if !members.iter().any(|m| m.server == t.server) {
            members.push(t);
            if members.len() == need {
                break;
            }
        }
        // position `i` is never read again; `j` now holds what was at `i`
        if j != i {
            let displaced = at(&moved, i);
            match moved.iter_mut().find(|m| m.0 == j) {
                Some(m) => m.1 = displaced,
                None => moved.push((j, displaced)),
            }
        }
    }
    members
}

/// The whole Fisher-Yates pass over a copy of `up`, then the shuffled
/// targets interleaved by server so that the members of a shard group
/// land on distinct nodes whenever enough nodes are up (replicas and EC
/// cells must survive a node loss).  Member `m` is
/// `interleaved[m % len]`.
fn interleave(
    up: &[TargetId],
    servers: usize,
    need: usize,
    rng: &mut simkit::SplitMix64,
) -> Vec<TargetId> {
    let mut up = up.to_vec();
    for i in (1..up.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        up.swap(i, j);
    }
    let mut per_server: Vec<Vec<TargetId>> = vec![Vec::new(); servers];
    let mut server_order: Vec<usize> = Vec::new();
    for t in up.iter().rev() {
        if per_server[t.server as usize].is_empty() {
            server_order.push(t.server as usize);
        }
        per_server[t.server as usize].push(*t);
    }
    let mut interleaved: Vec<TargetId> = Vec::with_capacity(up.len());
    let mut round = 0;
    while interleaved.len() < up.len() {
        for &s in &server_order {
            if let Some(&t) = per_server[s].get(round) {
                interleaved.push(t);
            }
        }
        round += 1;
    }
    interleaved.iter().copied().cycle().take(need).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oid::OidAllocator;

    #[test]
    fn indexing_round_trips() {
        let pm = PoolMap::new(4, 16);
        for i in 0..pm.total_targets() {
            assert_eq!(pm.index(pm.target_at(i)), i);
        }
    }

    #[test]
    fn exclusion_and_reintegration() {
        let mut pm = PoolMap::new(2, 4);
        let t = TargetId {
            server: 1,
            target: 2,
        };
        assert!(pm.is_up(t));
        pm.exclude(t);
        assert!(!pm.is_up(t));
        assert_eq!(pm.up_targets().len(), 7);
        pm.reintegrate(t);
        assert!(pm.is_up(t));
        pm.exclude_server(0);
        assert_eq!(pm.up_targets().len(), 4);
    }

    #[test]
    fn cached_counts_track_every_transition() {
        let mut pm = PoolMap::new(2, 4);
        assert_eq!((pm.up_count(), pm.servable_count()), (8, 8));
        let t = TargetId {
            server: 0,
            target: 1,
        };
        pm.exclude(t);
        assert_eq!((pm.up_count(), pm.servable_count()), (7, 7));
        pm.start_reint(t);
        assert_eq!((pm.up_count(), pm.servable_count()), (7, 8));
        pm.promote_reint();
        assert_eq!((pm.up_count(), pm.servable_count()), (8, 8));
        pm.drain_server(1);
        assert_eq!((pm.up_count(), pm.servable_count()), (4, 8));
        pm.retire_drained();
        assert_eq!((pm.up_count(), pm.servable_count()), (4, 4));
        // the caches always agree with a fresh scan
        let scan: Vec<TargetId> = (0..pm.total_targets())
            .map(|i| pm.target_at(i))
            .filter(|&t| pm.is_up(t))
            .collect();
        assert_eq!(pm.up_targets(), &scan[..]);
        assert_eq!(pm.up_servers, 1);
    }

    #[test]
    fn version_is_monotonic_under_interleaved_transitions() {
        let mut pm = PoolMap::new(3, 4);
        assert_eq!(pm.version(), 0);
        let mut last = pm.version();
        let targets: Vec<TargetId> = (0..pm.total_targets()).map(|i| pm.target_at(i)).collect();
        // an interleaved exclude/drain/reintegrate storm: the version
        // never decreases and steps on every effective transition
        for (i, &t) in targets.iter().enumerate() {
            match i % 3 {
                0 => pm.exclude(t),
                1 => pm.drain(t),
                _ => pm.reintegrate(t),
            }
            assert!(pm.version() >= last, "version must never decrease");
            last = pm.version();
        }
        for &t in &targets {
            pm.reintegrate(t);
            assert!(pm.version() >= last);
            last = pm.version();
        }
        // no-op transitions do not bump: reintegrating an Up target
        let v = pm.version();
        pm.reintegrate(targets[0]);
        assert_eq!(pm.version(), v, "no-op transition must not bump");
        // draining a Down target is a no-op
        pm.exclude(targets[1]);
        let v = pm.version();
        pm.drain(targets[1]);
        assert_eq!(pm.version(), v);
    }

    #[test]
    fn add_server_grows_membership_and_bumps_version() {
        let mut pm = PoolMap::new(2, 4);
        let v0 = pm.version();
        let rank = pm.add_server();
        assert_eq!(rank, 2);
        assert_eq!(pm.server_count(), 3);
        assert_eq!(pm.total_targets(), 12);
        assert!(pm.version() > v0, "membership change bumps the version");
        // new targets receive migration but are not placement-eligible
        let t = TargetId {
            server: rank,
            target: 0,
        };
        assert_eq!(pm.state(t), TargetState::Reint);
        assert!(pm.is_servable(t) && !pm.is_up(t));
        assert_eq!(pm.up_count(), 8);
        pm.promote_reint();
        assert_eq!(pm.up_count(), 12);
        assert!(pm.is_up(t));
    }

    #[test]
    fn json_round_trip_preserves_version_and_states() {
        let mut pm = PoolMap::new(3, 4);
        pm.exclude(TargetId {
            server: 0,
            target: 1,
        });
        pm.drain_server(1);
        pm.add_server();
        pm.start_reint(TargetId {
            server: 0,
            target: 1,
        });
        let json = pm.to_json();
        let back = PoolMap::from_json(&json).expect("parses");
        assert_eq!(back.version(), pm.version());
        assert_eq!(back.server_count(), pm.server_count());
        assert_eq!(back.total_targets(), pm.total_targets());
        for i in 0..pm.total_targets() {
            let t = pm.target_at(i);
            assert_eq!(back.state(t), pm.state(t), "target {t:?}");
        }
        assert_eq!(back.up_count(), pm.up_count());
        assert_eq!(back.servable_count(), pm.servable_count());
        // byte-identical re-serialization
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn from_json_rejects_malformed_maps() {
        assert!(PoolMap::from_json("{}").is_err());
        assert!(PoolMap::from_json(
            "{\"servers\":1,\"targets_per_server\":2,\"version\":0,\"states\":[\"up\"]}"
        )
        .is_err());
        assert!(PoolMap::from_json(
            "{\"servers\":1,\"targets_per_server\":1,\"version\":0,\"states\":[\"meteor\"]}"
        )
        .is_err());
        assert!(PoolMap::from_json(
            "{\"servers\":0,\"targets_per_server\":1,\"version\":0,\"states\":[]}"
        )
        .is_err());
    }

    #[test]
    fn layouts_are_stable_for_unchanged_versions() {
        let mut pm = PoolMap::new(4, 16);
        pm.exclude(TargetId {
            server: 2,
            target: 3,
        });
        let mut alloc = OidAllocator::new();
        let oid = alloc.next(ObjectClass::RP_2, 0);
        // same version ⇒ identical layout, run after run and across a
        // JSON round trip
        let v = pm.version();
        let l1 = pm.layout(&oid, ObjectClass::RP_2);
        let l2 = pm.layout(&oid, ObjectClass::RP_2);
        assert_eq!(pm.version(), v, "layout generation must not mutate");
        assert_eq!(l1, l2);
        let restored = PoolMap::from_json(&pm.to_json()).unwrap();
        assert_eq!(restored.layout(&oid, ObjectClass::RP_2), l1);
        // a version step (drain) may move placements
        pm.drain_server(0);
        assert!(pm.version() > v);
        let l3 = pm.layout(&oid, ObjectClass::RP_2);
        for g in l3.groups() {
            for t in g {
                assert_ne!(t.server, 0, "drained server excluded from new layouts");
            }
        }
    }

    #[test]
    fn s1_layout_single_target() {
        let pm = PoolMap::new(4, 16);
        let mut alloc = OidAllocator::new();
        let oid = alloc.next(ObjectClass::S1, 0);
        let l = pm.layout(&oid, ObjectClass::S1);
        assert_eq!(l.group_count(), 1);
        assert_eq!(l.group(0).len(), 1);
    }

    #[test]
    fn sx_layout_covers_all_targets() {
        let pm = PoolMap::new(4, 16);
        let mut alloc = OidAllocator::new();
        let oid = alloc.next(ObjectClass::SX, 0);
        let l = pm.layout(&oid, ObjectClass::SX);
        assert_eq!(l.group_count(), 64);
        let mut seen: Vec<TargetId> = l.groups().map(|g| g[0]).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 64, "every target appears exactly once");
    }

    #[test]
    fn ec_groups_have_distinct_members() {
        let pm = PoolMap::new(4, 16);
        let mut alloc = OidAllocator::new();
        let oid = alloc.next(ObjectClass::EC_2P1, 0);
        let l = pm.layout(&oid, ObjectClass::EC_2P1);
        for g in l.groups() {
            assert_eq!(g.len(), 3);
            let mut m = g.to_vec();
            m.sort();
            m.dedup();
            assert_eq!(m.len(), 3, "group members must be distinct targets");
        }
    }

    #[test]
    fn layout_is_deterministic_and_spread() {
        let pm = PoolMap::new(4, 16);
        let mut alloc = OidAllocator::new();
        let mut starts = std::collections::BTreeSet::new();
        for _ in 0..64 {
            let oid = alloc.next(ObjectClass::S1, 0);
            let l1 = pm.layout(&oid, ObjectClass::S1);
            let l2 = pm.layout(&oid, ObjectClass::S1);
            assert_eq!(l1, l2, "deterministic");
            starts.insert(l1.group(0)[0]);
        }
        assert!(
            starts.len() > 32,
            "S1 objects spread over targets: {}",
            starts.len()
        );
    }

    #[test]
    fn layout_avoids_down_targets() {
        let mut pm = PoolMap::new(2, 4);
        pm.exclude_server(0);
        let mut alloc = OidAllocator::new();
        for _ in 0..32 {
            let oid = alloc.next(ObjectClass::RP_2, 0);
            let l = pm.layout(&oid, ObjectClass::RP_2);
            for g in l.groups() {
                for t in g {
                    assert_eq!(t.server, 1, "placement must skip down server");
                }
            }
        }
    }

    #[test]
    fn layout_skips_drain_and_reint_targets() {
        let mut pm = PoolMap::new(3, 4);
        pm.drain_server(0);
        pm.add_server(); // server 3, all Reint
        let mut alloc = OidAllocator::new();
        for _ in 0..16 {
            let oid = alloc.next(ObjectClass::RP_2, 0);
            let l = pm.layout(&oid, ObjectClass::RP_2);
            for g in l.groups() {
                for t in g {
                    assert!(
                        t.server == 1 || t.server == 2,
                        "placement must use Up targets only, got {t:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn group_for_is_stable() {
        let pm = PoolMap::new(2, 8);
        let mut alloc = OidAllocator::new();
        let oid = alloc.next(ObjectClass::SX, 0);
        let l = pm.layout(&oid, ObjectClass::SX);
        assert_eq!(l.group_for(5), l.group_for(5 + 16 * l.group_count() as u64));
        assert_eq!(l.group_index(3), 3 % l.group_count());
    }
}
