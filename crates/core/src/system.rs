//! The deployed DAOS system: pool + engines + the libdaos-style API.
//!
//! [`DaosSystem`] couples three things:
//!
//! 1. **logical state** — containers, objects, their payloads
//!    ([`crate::data`]), placement ([`crate::pool`]);
//! 2. **service resources** — one RPC/data-processing pipe per engine and
//!    one request-service per target, layered on the [`cluster`]
//!    hardware, plus the pool's fixed-size metadata replica group;
//! 3. **the API** — each operation mutates logical state immediately and
//!    returns a [`Step`] op-chain whose execution models the operation's
//!    time: client software overhead, a network round trip, per-target
//!    request service, shared data movement through NIC/engine/NVMe, and
//!    device latency.
//!
//! Benchmarks submit the returned steps to the scheduler; nothing in this
//! crate talks to the engine directly, which keeps all semantics unit
//! testable without simulation.

use crate::class::ObjectClass;
use crate::container::{Container, ContainerId, ContainerProps, ObjectEntry};
use crate::cost::{CostModel, ServerRes};
use crate::data::{
    ArrayData, CellAvailability, CsumMismatch, DataError, DataMode, KvData, ObjData,
};
use crate::ec::ErasureCode;
use crate::ledger::{
    content_digest, AckedValue, DurabilityLedger, OracleKind, OracleReport, Violation,
};
use crate::oid::{Oid, FLAG_KV};
use crate::pool::{PoolMap, TargetId};
use crate::rebuild::{pick_replacement, RebuildReport};
use cluster::payload::{Payload, ReadPayload};
use cluster::{Calibration, Topology};
use simkit::{Bytes, Scheduler, Step, StepBuf};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

/// Errors surfaced by the DAOS API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DaosError {
    /// Unknown container id.
    NoSuchContainer,
    /// Unknown object id.
    NoSuchObject,
    /// KV operation on an Array object (or vice versa).
    WrongObjectType,
    /// Object class not usable for this object kind (e.g. EC Key-Values).
    InvalidClass,
    /// Data lives on down targets and cannot be served.
    // simlint::terminal_error — data loss is final; no retry can serve it
    Unavailable,
    /// Key not found.
    NoSuchKey,
    /// The operation exceeded its per-op timeout budget (transient:
    /// retry with backoff).
    Timeout,
    /// The addressed target crashed and this client had not yet observed
    /// the failure; the pool map is refreshed and a retry takes the
    /// degraded path (replica fail-over / EC reconstruction).
    TargetDown,
    /// A stored checksum failed verification and the rot exceeds the
    /// class redundancy, so the verified read refuses to serve the
    /// bytes.  Classified transient (a scrub repair or rewrite may heal
    /// the extent between attempts), but when nothing heals it the
    /// retry budget exhausts and the failure surfaces loudly — bad
    /// bytes are never returned.
    BadChecksum,
    /// Generic injected transient failure (fault plans).
    Retriable,
}

impl From<DataError> for DaosError {
    fn from(e: DataError) -> Self {
        match e {
            DataError::Unavailable => DaosError::Unavailable,
        }
    }
}

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
    match entry.layout.class {
        ObjectClass::ErasureCoded { k, .. } => group_share / k as f64,
        _ => group_share,
    }
}

/// The background data-migration engine's bookkeeping: planned moves not
/// yet shipped, plus progress counters.  Lives inside [`DaosSystem`] and
/// is therefore replay-visible simulation state: waves pop moves in key
/// order, and every wave is validated against the *current* pool map and
/// layouts, so a crash (and the rebuild it triggers) simply invalidates
/// the stale moves — migration resumes with whatever is still correct.
#[derive(Debug, Clone, Default)]
struct MigrationState {
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

/// Which stored copies of each datum are currently bit-rotten.
///
/// The data layer stores one logical copy per chunk/value, so a rot
/// event flips the physical byte **once** and this registry records
/// which replica shards / EC cells the rot notionally hit.  Verified
/// reads and the scrubber recompute checksums to *detect* the flip,
/// then consult the registry to decide repairability: replication
/// repairs while at least one replica is clean, erasure coding while
/// the distinct rotten cells fit within `p`, and plain sharding never.
/// Repair re-flips the registered byte (xor with `0xFF` is an
/// involution), modelling a rewrite from the reconstructed content,
/// and drops the entry.  Every entry therefore corresponds to exactly
/// one still-flipped physical byte — the invariant that makes repair
/// by re-flip sound.
// simlint::sim_state — replay-visible simulation state
#[derive(Debug, Clone, Default)]
struct RotState {
    /// Array rot: `(container, object)` → flipped byte offset → shard
    /// copies hit (replica index, or derived EC data-cell index).
    extents: BTreeMap<(u32, Oid), BTreeMap<u64, BTreeSet<u64>>>,
    /// EC parity rot: `(container, object)` → set of `(chunk offset,
    /// parity cell index)` flips — parity bytes no logical offset
    /// addresses.
    parity: BTreeMap<(u32, Oid), BTreeSet<(u64, u64)>>,
    /// KV rot: `(container, object)` → key → replica copies hit.
    kv: BTreeMap<(u32, Oid), BTreeMap<Vec<u8>, BTreeSet<u64>>>,
}

impl RotState {
    fn touches(&self, key: &(u32, Oid)) -> bool {
        self.extents.contains_key(key) || self.parity.contains_key(key) || self.kv.contains_key(key)
    }

    /// Forget the rot registered on a KV value that was replaced,
    /// removed or repaired.
    fn clear_kv(&mut self, cid: ContainerId, oid: Oid, key: &[u8]) {
        if let Some(m) = self.kv.get_mut(&(cid.0, oid)) {
            m.remove(key);
            if m.is_empty() {
                self.kv.remove(&(cid.0, oid));
            }
        }
    }
}

/// End-to-end checksum activity counters ([`DaosSystem::csum_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CsumStats {
    /// Chunk/value verifications performed (reads, writes, scrubber).
    pub verified: u64,
    /// Rotten shard copies (replica copies / EC cells) detected.
    pub detected: u64,
    /// Rotten shard copies transparently repaired.
    pub repaired: u64,
    /// Bytes rewritten by transparent repair.
    pub repaired_bytes: u64,
    /// Verification units whose rot exceeded the class redundancy: the
    /// access fails with [`DaosError::BadChecksum`] instead of serving.
    pub unrepairable: u64,
    /// Corrupt payloads served to clients.  **Must stay zero** — the
    /// verified read path refuses rather than serves; the counter
    /// exists so the `CounterCeiling` SLO rule can witness the
    /// invariant in every run report.
    pub served_corrupt: u64,
}

impl CsumStats {
    /// Publish the checksum counters into a telemetry registry as
    /// `daos.csum.*` counters recorded at `at`.  No-op on a disabled
    /// registry.
    pub fn publish(&self, tel: &mut simkit::Telemetry, at: simkit::SimTime) {
        tel.add_counters(
            at,
            [
                ("daos.csum.verified", self.verified),
                ("daos.csum.detected", self.detected),
                ("daos.csum.repaired", self.repaired),
                ("daos.csum.repaired_bytes", self.repaired_bytes),
                ("daos.csum.unrepairable", self.unrepairable),
                ("daos.csum.served_corrupt", self.served_corrupt),
            ],
        );
    }
}

/// Progress of the background scrubber ([`DaosSystem::scrub_progress`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Scan units verified (array chunks and KV values).
    pub units_scanned: u64,
    /// Stored bytes the scan read.
    pub bytes_scanned: u64,
    /// Rotten copies the scrubber detected (before any read hit them).
    pub detected: u64,
    /// Rotten copies the scrubber repaired.
    pub repaired: u64,
    /// Units whose rot exceeded the class redundancy; left in place for
    /// reads to refuse loudly and the durability oracle to name.
    pub unrepairable: u64,
    /// Waves emitted.
    pub waves: u64,
    /// Full passes completed over the scan domain.
    pub passes: u64,
}

impl ScrubReport {
    /// Publish scrubber progress into a telemetry registry as
    /// `daos.scrub.*` counters recorded at `at`.  No-op on a disabled
    /// registry.
    pub fn publish(&self, tel: &mut simkit::Telemetry, at: simkit::SimTime) {
        tel.add_counters(
            at,
            [
                ("daos.scrub.units_scanned", self.units_scanned),
                ("daos.scrub.bytes_scanned", self.bytes_scanned),
                ("daos.scrub.detected", self.detected),
                ("daos.scrub.repaired", self.repaired),
                ("daos.scrub.unrepairable", self.unrepairable),
                ("daos.scrub.waves", self.waves),
                ("daos.scrub.passes", self.passes),
            ],
        );
    }
}

/// The background scrubber's bookkeeping: whether a pass is running,
/// the resume cursor, and cumulative progress.  Replay-visible
/// simulation state — the cursor is exactly what makes a pass resume
/// byte-identically after a mid-scrub crash.
// simlint::sim_state — replay-visible simulation state
#[derive(Debug, Clone, Default)]
struct ScrubState {
    active: bool,
    /// Next unit to scan; `None` while active means start from the
    /// beginning.
    cursor: Option<ScrubCursor>,
    report: ScrubReport,
    /// Map entries (objects and units) the unit walk has visited.
    #[cfg(test)]
    visits: std::cell::Cell<u64>,
}

/// A stored unit's address, the position a scrub wave resumes from.
#[derive(Debug, Clone)]
struct ScrubCursor {
    cont: ContainerId,
    oid: Oid,
    pos: ScrubPos,
}

/// Where inside its object a [`ScrubCursor`] points.
#[derive(Debug, Clone)]
enum ScrubPos {
    /// An array chunk index.
    Chunk(u64),
    /// A KV key anchor, the way DAOS iterators resume: a wave resumes
    /// at the first key `>=` the anchor, so keys inserted or removed
    /// before it between waves cannot shift the scan.
    Key(Vec<u8>),
}

/// One stored unit, borrowed from its object during a unit walk.
enum UnitRef<'a> {
    /// A written array chunk.
    Chunk(&'a ArrayData, u64),
    /// A KV key.
    Key(&'a KvData, &'a [u8]),
}

impl UnitRef<'_> {
    /// This unit's address inside its object.
    // simlint::amortized — one key copy per scrub wave or injected fault, not per event
    fn pos(&self) -> ScrubPos {
        match *self {
            UnitRef::Chunk(_, c) => ScrubPos::Chunk(c),
            UnitRef::Key(_, k) => ScrubPos::Key(k.to_vec()),
        }
    }
}

/// Rot the scan phase of a scrub wave found, repaired in phase 2.
enum ScrubRot {
    Chunk(CsumMismatch),
    Key(Vec<u8>),
}

/// A deployed DAOS pool with its API.
// simlint::sim_state — replay-visible simulation state
pub struct DaosSystem {
    /// The hardware, calibration and engine resources op chains are
    /// built over, apart from the object store so that a data op can
    /// build its chain while it holds its object mutably.
    cost: CostModel,
    pool: PoolMap,
    mode: DataMode,
    containers: Vec<Option<Container>>,
    ec_cache: BTreeMap<(u8, u8), ErasureCode>,
    /// Crashed targets ([`DaosSystem::crash_target`]) mapped to the
    /// client nodes that have already observed the failure.  The first
    /// data-path op from each client node touching such a target fails
    /// with [`DaosError::TargetDown`] — modelling the RPC timeout and
    /// pool-map refresh — after which that client uses degraded paths.
    /// Administrative exclusion ([`DaosSystem::exclude_target`]) is
    /// already propagated through the pool map and triggers no error.
    undetected: BTreeMap<TargetId, BTreeSet<usize>>,
    /// Shadow record of acknowledged writes for the durability oracles
    /// ([`DaosSystem::enable_ledger`]).  `None` (the default) costs
    /// nothing; when enabled it is written by the data paths but never
    /// read by them, so it cannot alter any schedule.
    ledger: Option<DurabilityLedger>,
    /// The background data-migration engine (rebalance after server
    /// add/drain).
    migration: MigrationState,
    /// Which stored copies are currently bit-rotten (see [`RotState`]).
    rot: RotState,
    /// End-to-end checksum activity counters.
    csum: CsumStats,
    /// The background scrubber (cursor + progress).
    scrub: ScrubState,
}

impl DaosSystem {
    /// Deploy a pool over the first `servers` nodes of `topo`, creating
    /// the engine service resources in `sched`.
    pub fn deploy(
        topo: &Topology,
        sched: &mut Scheduler,
        servers: usize,
        mode: DataMode,
    ) -> DaosSystem {
        assert!(servers >= 1 && servers <= topo.server_count());
        let cal = topo.cal.clone();
        let srv_res = (0..servers)
            .map(|s| ServerRes {
                engine_xfer: sched
                    .add_resource(format!("daos{s}.engine"), cal.engine_xfer_bw.get()),
                tgt_svc: (0..cal.targets_per_server)
                    .map(|t| sched.add_resource(format!("daos{s}.tgt{t}"), cal.target_svc_iops))
                    .collect(),
            })
            .collect();
        let pool_md_svc = sched.add_resource("daos.pool_md", cal.pool_md_iops);
        DaosSystem {
            pool: PoolMap::new(servers, cal.targets_per_server),
            cost: CostModel {
                topo: topo.clone(),
                cal,
                srv_res,
                pool_md_svc,
                extra_delay: BTreeMap::new(),
            },
            mode,
            containers: Vec::new(),
            ec_cache: BTreeMap::new(),
            undetected: BTreeMap::new(),
            ledger: None,
            migration: MigrationState::default(),
            rot: RotState::default(),
            csum: CsumStats::default(),
            scrub: ScrubState::default(),
        }
    }

    /// The pool map (health, placement).
    pub fn pool(&self) -> &PoolMap {
        &self.pool
    }

    /// The hardware topology the pool is deployed on.
    pub fn topology(&self) -> &Topology {
        &self.cost.topo
    }

    /// Data mode the system was deployed with.
    pub fn data_mode(&self) -> DataMode {
        self.mode
    }

    /// Calibration in effect.
    pub fn cal(&self) -> &Calibration {
        &self.cost.cal
    }

    /// Number of engines (server nodes) in the pool.
    pub fn server_count(&self) -> usize {
        self.pool.server_count()
    }

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
    /// [`DaosError::TargetDown`], and only the retry (against the
    /// refreshed pool map) takes the degraded path.
    // simlint::panic_root — fault-handling path: must never panic
    pub fn crash_target(&mut self, t: TargetId) {
        self.pool.exclude(t);
        self.undetected.entry(t).or_default();
    }

    /// A crashed target returns: reintegrated and no longer reported as
    /// newly-down to any client.
    // simlint::panic_root — fault-handling path: must never panic
    pub fn restart_target(&mut self, t: TargetId) {
        self.pool.reintegrate(t);
        self.undetected.remove(&t);
    }

    /// Inject (or with `extra_ns == 0` clear) a per-server completion
    /// delay: every data-path op chain touching one of the server's
    /// targets pays `extra_ns` on top of its modelled cost.  Backs the
    /// delayed-completion fault action.
    // simlint::panic_root — fault-handling path: must never panic
    pub fn set_extra_delay(&mut self, server: u16, extra_ns: u64) {
        if extra_ns == 0 {
            self.cost.extra_delay.remove(&server);
        } else {
            self.cost.extra_delay.insert(server, extra_ns);
        }
    }

    /// `n` operations against the pool metadata replica group.
    pub fn pool_md_op(&self, n: f64) -> Step {
        self.cost.pool_md_op(n)
    }

    // ---- containers ---------------------------------------------------------

    /// Create a container.  A collective over all engines plus a pool
    /// metadata transaction — the cost that makes container-per-process
    /// designs expensive at scale.
    pub fn cont_create(&mut self, _client: usize, props: ContainerProps) -> (ContainerId, Step) {
        let id = ContainerId(self.containers.len() as u32);
        self.containers.push(Some(Container::new(id, props)));
        let collective =
            self.cost.cal.cont_collective_ns_per_server * self.pool.server_count() as u64;
        let step = Step::span(
            "libdaos",
            "cont_create",
            0,
            Step::seq([
                self.cost.client_overhead(),
                self.pool_md_op(1.0),
                Step::delay(collective),
            ]),
        );
        (id, step)
    }

    /// Open an existing container (pool metadata transaction).
    pub fn cont_open(&mut self, _client: usize, id: ContainerId) -> Result<Step, DaosError> {
        let c = self.cont_mut(id)?;
        c.open_handles += 1;
        Ok(Step::seq([
            self.cost.client_overhead(),
            self.pool_md_op(1.0),
        ]))
    }

    /// Close a container handle.
    pub fn cont_close(&mut self, _client: usize, id: ContainerId) -> Result<Step, DaosError> {
        let c = self.cont_mut(id)?;
        c.open_handles = c.open_handles.saturating_sub(1);
        Ok(Step::seq([self.cost.client_overhead(), self.cost.rtt()]))
    }

    /// Destroy a container and all its objects.
    pub fn cont_destroy(&mut self, _client: usize, id: ContainerId) -> Result<Step, DaosError> {
        let slot = self
            .containers
            .get_mut(id.0 as usize)
            .ok_or(DaosError::NoSuchContainer)?;
        if slot.take().is_none() {
            return Err(DaosError::NoSuchContainer);
        }
        self.rot.extents.retain(|&(c, _), _| c != id.0);
        self.rot.parity.retain(|&(c, _), _| c != id.0);
        self.rot.kv.retain(|&(c, _), _| c != id.0);
        if let Some(l) = self.ledger.as_mut() {
            l.record_cont_destroy(id);
        }
        Ok(Step::seq([
            self.cost.client_overhead(),
            self.pool_md_op(1.0),
        ]))
    }

    /// Take a container snapshot; returns its epoch.
    pub fn snapshot_create(
        &mut self,
        _client: usize,
        id: ContainerId,
    ) -> Result<(u64, Step), DaosError> {
        let step = Step::seq([self.cost.client_overhead(), self.pool_md_op(1.0)]);
        let c = self.cont_mut(id)?;
        Ok((c.snapshot(), step))
    }

    /// Destroy a container snapshot.
    pub fn snapshot_destroy(
        &mut self,
        _client: usize,
        id: ContainerId,
        epoch: u64,
    ) -> Result<Step, DaosError> {
        let step = Step::seq([self.cost.client_overhead(), self.pool_md_op(1.0)]);
        let c = self.cont_mut(id)?;
        if c.snapshot_destroy(epoch) {
            Ok(step)
        } else {
            Err(DaosError::NoSuchKey)
        }
    }

    /// Snapshot epochs of a container.
    pub fn snapshot_list(&self, id: ContainerId) -> Result<Vec<u64>, DaosError> {
        Ok(self.cont(id)?.snapshots.clone())
    }

    fn cont(&self, id: ContainerId) -> Result<&Container, DaosError> {
        self.containers
            .get(id.0 as usize)
            .and_then(|c| c.as_ref())
            .ok_or(DaosError::NoSuchContainer)
    }

    fn cont_mut(&mut self, id: ContainerId) -> Result<&mut Container, DaosError> {
        self.containers
            .get_mut(id.0 as usize)
            .and_then(|c| c.as_mut())
            .ok_or(DaosError::NoSuchContainer)
    }

    // ---- objects --------------------------------------------------------------

    /// Create an Array object.  Object creation is client-local in DAOS:
    /// the OID is generated and the layout computed without any RPC.
    pub fn array_create(
        &mut self,
        _client: usize,
        cid: ContainerId,
        class: ObjectClass,
        chunk_size: u64,
    ) -> Result<(Oid, Step), DaosError> {
        let c = self.cont_mut(cid)?;
        let oid = c.alloc.next(class, 0);
        let layout = self.pool.layout_salted(&oid, class, cid.0 as u64 + 1);
        let c = self.cont_mut(cid)?;
        c.objects.insert(
            oid,
            ObjectEntry {
                layout,
                data: ObjData::Array(ArrayData::new(chunk_size)),
            },
        );
        Ok((oid, self.cost.client_overhead()))
    }

    /// Create a Key-Value object.
    pub fn kv_create(
        &mut self,
        _client: usize,
        cid: ContainerId,
        class: ObjectClass,
    ) -> Result<(Oid, Step), DaosError> {
        if !class.supports_kv() {
            return Err(DaosError::InvalidClass);
        }
        let c = self.cont_mut(cid)?;
        let oid = c.alloc.next(class, FLAG_KV);
        let layout = self.pool.layout_salted(&oid, class, cid.0 as u64 + 1);
        let c = self.cont_mut(cid)?;
        c.objects.insert(
            oid,
            ObjectEntry {
                layout,
                data: ObjData::Kv(KvData::new()),
            },
        );
        Ok((oid, self.cost.client_overhead()))
    }

    /// Remove an object entirely (`daos_obj_punch`).
    pub fn obj_punch(
        &mut self,
        _client: usize,
        cid: ContainerId,
        oid: Oid,
    ) -> Result<Step, DaosError> {
        let c = self.cont_mut(cid)?;
        c.objects.remove(&oid).ok_or(DaosError::NoSuchObject)?;
        let key = (cid.0, oid);
        self.rot.extents.remove(&key);
        self.rot.parity.remove(&key);
        self.rot.kv.remove(&key);
        if let Some(l) = self.ledger.as_mut() {
            l.record_punch(cid, oid);
        }
        Ok(Step::seq([self.cost.client_overhead(), self.cost.rtt()]))
    }

    /// Number of live objects in a container.
    pub fn object_count(&self, cid: ContainerId) -> Result<usize, DaosError> {
        Ok(self.cont(cid)?.object_count())
    }

    // ---- Key-Value API -----------------------------------------------------------

    /// Insert/update a key.  The value lands on the dkey's shard group;
    /// replicated classes write every replica in parallel.  One object
    /// lookup: the store is updated and the cost chain built from the
    /// same borrow.
    pub fn kv_put(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
        key: &[u8],
        value: Payload,
    ) -> Result<Step, DaosError> {
        let bytes = value.len() as f64;
        let entry = find_obj_mut(&mut self.containers, cid, oid)?;
        let group = entry.layout.group_for(dkey_hash(key));
        check_detection(&mut self.undetected, client, group)?;
        // degraded writes land on the servable members only (drained and
        // reintegrating targets still accept updates for shards they
        // hold); a fully-down group cannot accept the update
        if !group.iter().any(|&t| self.pool.is_servable(t)) {
            return Err(DaosError::Unavailable);
        }
        let ObjData::Kv(kv) = &mut entry.data else {
            return Err(DaosError::WrongObjectType);
        };
        // copy for the ledger before the payload moves into the store
        if let Some(l) = self.ledger.as_mut() {
            l.record_kv_put(cid, oid, key, &value);
        }
        kv.put(key, value);
        // the value (and its checksum) were replaced wholesale: latent
        // rot in the old value is healed, so its registry entry must go
        // before it could mis-direct a later repair re-flip
        self.rot.clear_kv(cid, oid, key);
        let mut b = StepBuf::new();
        b.span("libdaos", "kv_put", bytes as u64, |b| {
            b.push(self.cost.client_overhead());
            b.push(self.cost.rtt());
            b.par(|b| {
                for &t in group.iter().filter(|&&t| self.pool.is_servable(t)) {
                    self.cost.write_to_target(b, client, t, bytes.max(64.0));
                }
            });
        });
        Ok(b.finish())
    }

    /// Fetch a key's value.  Reads from the first up replica.  One
    /// object lookup on the clean path; a repair looks the object up
    /// again after it.
    // simlint::allow(hot-alloc) — returns an owned copy of the value bytes in Full data mode; nothing grows with pool size
    pub fn kv_get(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
        key: &[u8],
    ) -> Result<(ReadPayload, Step), DaosError> {
        let dkey = dkey_hash(key);
        let mut entry = find_obj(&self.containers, cid, oid)?;
        check_detection(&mut self.undetected, client, entry.layout.group_for(dkey))?;
        // verified read: recompute the stored value checksum and
        // transparently repair rot the replication still covers; rot on
        // every replica refuses loudly instead of serving bad bytes
        let ObjData::Kv(kv) = &entry.data else {
            return Err(DaosError::WrongObjectType);
        };
        let verdict = kv.verify(key);
        if verdict.is_some() {
            self.csum.verified += 1;
        }
        let repair = if verdict == Some(false) {
            let repair = self.repair_kv_rot(cid, oid, key)?;
            entry = find_obj(&self.containers, cid, oid)?;
            repair
        } else {
            Step::Noop
        };
        let value = match &entry.data {
            ObjData::Kv(kv) => kv.get(key).ok_or(DaosError::NoSuchKey)?,
            ObjData::Array(_) => return Err(DaosError::WrongObjectType),
        };
        let read = match value {
            Payload::Bytes(b) => ReadPayload::Bytes(b.clone()),
            Payload::Sized(n) => ReadPayload::Sized(*n),
        };
        let t = entry
            .layout
            .group_for(dkey)
            .iter()
            .copied()
            .find(|&t| self.pool.is_servable(t))
            .ok_or(DaosError::Unavailable)?;
        let bytes = (read.len() as f64).max(64.0);
        let mut b = StepBuf::new();
        b.span("libdaos", "kv_get", read.len(), |b| {
            b.push(self.cost.client_overhead());
            b.push(self.cost.rtt());
            b.push(repair);
            self.cost.read_from_target(b, client, t, bytes);
        });
        Ok((read, b.finish()))
    }

    /// Remove a key.
    pub fn kv_remove(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
        key: &[u8],
    ) -> Result<Step, DaosError> {
        let dkey = dkey_hash(key);
        let group = find_obj(&self.containers, cid, oid)?.layout.group_for(dkey);
        check_detection(&mut self.undetected, client, group)?;
        if !group.iter().any(|&t| self.pool.is_servable(t)) {
            return Err(DaosError::Unavailable);
        }
        let entry = self.obj_mut(cid, oid)?;
        let existed = match &mut entry.data {
            ObjData::Kv(kv) => kv.remove(key),
            ObjData::Array(_) => return Err(DaosError::WrongObjectType),
        };
        if !existed {
            return Err(DaosError::NoSuchKey);
        }
        self.rot.clear_kv(cid, oid, key);
        if let Some(l) = self.ledger.as_mut() {
            l.record_kv_remove(cid, oid, key);
        }
        let group = self.obj(cid, oid)?.layout.group_for(dkey);
        let mut b = StepBuf::new();
        b.span("libdaos", "kv_remove", 0, |b| {
            b.push(self.cost.client_overhead());
            b.push(self.cost.rtt());
            b.par(|b| {
                for &t in group.iter().filter(|&&t| self.pool.is_servable(t)) {
                    self.cost.write_to_target(b, client, t, 64.0);
                }
            });
        });
        Ok(b.finish())
    }

    /// List keys with a prefix.  One round trip per shard group plus the
    /// key bytes off one target of each group.
    pub fn kv_list(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
        prefix: &[u8],
    ) -> Result<(Vec<Vec<u8>>, Step), DaosError> {
        let entry = self.obj(cid, oid)?;
        let keys = match &entry.data {
            ObjData::Kv(kv) => kv.list(prefix),
            ObjData::Array(_) => return Err(DaosError::WrongObjectType),
        };
        let key_bytes: f64 = keys.iter().map(|k| k.len() as f64).sum::<f64>().max(64.0);
        let per_group_bytes = key_bytes / entry.layout.group_count() as f64;
        let mut b = StepBuf::new();
        b.span("libdaos", "kv_list", key_bytes as u64, |b| {
            b.push(self.cost.client_overhead());
            b.push(self.cost.rtt());
            b.par(|b| {
                let servers = entry
                    .layout
                    .groups()
                    .filter_map(|g| g.iter().copied().find(|&t| self.pool.is_servable(t)));
                for t in servers {
                    self.cost.read_from_target(b, client, t, per_group_bytes);
                }
            });
        });
        Ok((keys, b.finish()))
    }

    // ---- Array API -------------------------------------------------------------

    /// Write `payload` at `offset`.  Chunks map to shard groups by chunk
    /// index; replication writes every replica, erasure coding writes
    /// `k + p` cells of `chunk/k` bytes each (plus client-side encode
    /// time) — the mechanics behind the paper's ½ and ⅔ redundancy
    /// write bandwidths.
    pub fn array_write(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        payload: Payload,
    ) -> Result<Step, DaosError> {
        let mode = self.mode;
        let len = payload.len();
        if len == 0 {
            return Ok(Step::Noop);
        }
        // group index -> bytes written to that group
        let group_bytes = {
            let entry = self.obj(cid, oid)?;
            let layout = &entry.layout;
            let arr = match &entry.data {
                ObjData::Array(a) => a,
                ObjData::Kv(_) => return Err(DaosError::WrongObjectType),
            };
            let cs = arr.chunk_size();
            let mut gb: BTreeMap<usize, f64> = BTreeMap::new();
            for chunk in arr.chunks_in_range(offset, len) {
                let c_start = chunk * cs;
                let c_end = c_start + cs;
                let seg = (offset + len).min(c_end) - offset.max(c_start);
                *gb.entry(layout.group_index(chunk_dkey_hash(chunk)))
                    .or_default() += seg as f64;
            }
            gb
        };
        // fault detection and write availability, before the mutation:
        // a failing write must leave the store untouched so a retry
        // re-executes cleanly
        let layout = &find_obj(&self.containers, cid, oid)?.layout;
        let class = layout.class;
        for &g in group_bytes.keys() {
            check_detection(&mut self.undetected, client, layout.group(g))?;
        }
        for &g in group_bytes.keys() {
            let group = layout.group(g);
            let up = group.iter().filter(|&&t| self.pool.is_servable(t)).count();
            let writable = match class {
                ObjectClass::Sharded(_) | ObjectClass::ShardedMax => {
                    self.pool.is_servable(group[0])
                }
                ObjectClass::Replicated { .. } => up >= 1,
                ObjectClass::ErasureCoded { k, .. } => up >= k as usize,
            };
            if !writable {
                return Err(DaosError::Unavailable);
            }
        }
        // verified read-modify-write: a partially-overwritten chunk
        // folds its existing bytes into the new chunk, so those bytes
        // must verify (and be repaired) first — rot beyond redundancy
        // fails the write here, before any mutation.  Fully-covered
        // chunks are replaced wholesale, which heals latent rot.
        let repair = self.array_prewrite_integrity(cid, oid, offset, len)?;
        // apply the mutation
        {
            let ec = ec_for(&mut self.ec_cache, class);
            let entry = find_obj_mut(&mut self.containers, cid, oid)?;
            match &mut entry.data {
                ObjData::Array(a) => a.write(offset, &payload, mode, ec),
                ObjData::Kv(_) => return Err(DaosError::WrongObjectType),
            }
        }
        if let Some(l) = self.ledger.as_mut() {
            l.record_array_write(cid, oid, offset, &payload);
        }
        // build the cost chain
        let layout = &self.obj(cid, oid)?.layout;
        let mut encode_bytes = 0.0;
        if let ObjectClass::ErasureCoded { .. } = class {
            for bytes in group_bytes.values() {
                encode_bytes += bytes;
            }
        }
        let mut b = StepBuf::new();
        b.span("libdaos", "array_write", len, |b| {
            b.push(self.cost.client_overhead());
            b.push(self.cost.ec_codec(encode_bytes));
            b.push(self.cost.rtt());
            b.push(repair);
            b.par(|b| {
                for (g, bytes) in group_bytes {
                    let group = layout.group(g);
                    // degraded mode: down replicas (and cells) receive
                    // nothing until rebuild re-protects the group
                    let servable = group.iter().filter(|&&t| self.pool.is_servable(t));
                    match class {
                        ObjectClass::Sharded(_) | ObjectClass::ShardedMax => {
                            self.cost.write_to_target(b, client, group[0], bytes);
                        }
                        ObjectClass::Replicated { .. } => b.par(|b| {
                            for &t in servable {
                                self.cost.write_to_target(b, client, t, bytes);
                            }
                        }),
                        ObjectClass::ErasureCoded { k, .. } => {
                            let cell = bytes / k as f64;
                            b.par(|b| {
                                for &t in servable {
                                    self.cost.write_to_target(b, client, t, cell);
                                }
                            });
                        }
                    }
                }
            });
        });
        Ok(b.finish())
    }

    /// Read `len` bytes at `offset`.  Replicated chunks fail over to an
    /// up replica; erasure-coded chunks with lost cells read `k`
    /// surviving cells and pay a reconstruction delay.
    // simlint::allow(hot-alloc) — collects the cell mask of each touched EC chunk for the data layer; nothing grows with pool size
    pub fn array_read(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        len: u64,
    ) -> Result<(ReadPayload, Step), DaosError> {
        if len == 0 {
            return Ok((ReadPayload::Sized(0), Step::Noop));
        }
        // fault detection: observe crashes on every group this range
        // touches before serving anything
        if !self.undetected.is_empty() {
            let entry = find_obj(&self.containers, cid, oid)?;
            let ObjData::Array(a) = &entry.data else {
                return Err(DaosError::WrongObjectType);
            };
            for c in a.chunks_in_range(offset, len) {
                let group = entry.layout.group_for(chunk_dkey_hash(c));
                check_detection(&mut self.undetected, client, group)?;
            }
        }
        // verified read: recompute stored checksums over the touched
        // chunks and transparently repair what the redundancy still
        // covers; rot beyond redundancy refuses loudly instead of
        // serving bad bytes
        let repair = self.array_verify_repair(cid, oid, offset, len)?;
        let mode = self.mode;
        let class = self.obj(cid, oid)?.layout.class;
        let ec = ec_for(&mut self.ec_cache, class);
        let pool = &self.pool;
        let entry = find_obj(&self.containers, cid, oid)?;
        let layout = &entry.layout;
        let arr = match &entry.data {
            ObjData::Array(a) => a,
            ObjData::Kv(_) => return Err(DaosError::WrongObjectType),
        };
        let cs = arr.chunk_size();
        // availability of a chunk's group, as the data layer sees it
        let avail = |chunk: u64| -> CellAvailability {
            let group = layout.group_for(chunk_dkey_hash(chunk));
            match class {
                ObjectClass::Sharded(_) | ObjectClass::ShardedMax => {
                    if pool.is_servable(group[0]) {
                        CellAvailability::All
                    } else {
                        CellAvailability::Unavailable
                    }
                }
                ObjectClass::Replicated { .. } => {
                    if group.iter().any(|&t| pool.is_servable(t)) {
                        CellAvailability::All
                    } else {
                        CellAvailability::Unavailable
                    }
                }
                ObjectClass::ErasureCoded { .. } => {
                    CellAvailability::Mask(group.iter().map(|&t| pool.is_servable(t)).collect())
                }
            }
        };
        let data = arr.read(offset, len, mode, ec, &avail)?;
        // cost: per touched group, read bytes from the serving target(s)
        let mut gb: BTreeMap<usize, f64> = BTreeMap::new();
        for chunk in arr.chunks_in_range(offset, len) {
            let c_start = chunk * cs;
            let c_end = c_start + cs;
            let seg = (offset + len).min(c_end) - offset.max(c_start);
            *gb.entry(layout.group_index(chunk_dkey_hash(chunk)))
                .or_default() += seg as f64;
        }
        let mut b = StepBuf::new();
        b.span("libdaos", "array_read", len, |b| {
            b.push(self.cost.client_overhead());
            b.push(self.cost.rtt());
            b.push(repair);
            let mut decode_bytes = 0.0;
            b.par(|b| {
                for (g, bytes) in gb {
                    let group = layout.group(g);
                    match class {
                        ObjectClass::Sharded(_) | ObjectClass::ShardedMax => {
                            self.cost.read_from_target(b, client, group[0], bytes);
                        }
                        ObjectClass::Replicated { .. } => {
                            let t = group
                                .iter()
                                .copied()
                                .find(|&t| pool.is_servable(t))
                                .ok_or(DaosError::Unavailable)?;
                            self.cost.read_from_target(b, client, t, bytes);
                        }
                        ObjectClass::ErasureCoded { k, .. } => {
                            let k = k as usize;
                            let data_targets = &group[..k];
                            let healthy = data_targets.iter().all(|&t| pool.is_servable(t));
                            let cell = bytes / k as f64;
                            // degraded: read k surviving cells, reconstruct
                            let survivors = group.iter().filter(|&&t| pool.is_servable(t));
                            if !healthy {
                                if survivors.clone().take(k).count() < k {
                                    return Err(DaosError::Unavailable);
                                }
                                decode_bytes += bytes;
                            }
                            let sources = if healthy { data_targets } else { group };
                            b.par(|b| {
                                let sources =
                                    sources.iter().filter(|&&t| healthy || pool.is_servable(t));
                                for &t in sources.take(k) {
                                    self.cost.read_from_target(b, client, t, cell);
                                }
                            });
                        }
                    }
                }
                Ok(())
            })?;
            b.push(self.cost.ec_codec(decode_bytes));
            Ok::<_, DaosError>(())
        })?;
        Ok((data, b.finish()))
    }

    /// Query the array size (highest written byte + 1).  Costs a round
    /// trip and a request-service op — exactly the per-read overhead
    /// Field I/O pays and fdb-hammer avoids (§III-B).
    pub fn array_get_size(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
    ) -> Result<(u64, Step), DaosError> {
        let entry = self.obj(cid, oid)?;
        let size = match &entry.data {
            ObjData::Array(a) => a.size(),
            ObjData::Kv(_) => return Err(DaosError::WrongObjectType),
        };
        let t = entry
            .layout
            .groups()
            .flatten()
            .copied()
            .find(|&t| self.pool.is_servable(t))
            .ok_or(DaosError::Unavailable)?;
        let mut b = StepBuf::new();
        b.span("libdaos", "array_get_size", 0, |b| {
            b.push(self.cost.client_overhead());
            b.push(self.cost.rtt());
            self.cost.read_from_target(b, client, t, 64.0);
        });
        Ok((size, b.finish()))
    }

    /// Truncate/extend an array.
    pub fn array_set_size(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
        size: u64,
    ) -> Result<Step, DaosError> {
        let entry = self.obj_mut(cid, oid)?;
        let t = entry.layout.group(0)[0];
        let cs = match &mut entry.data {
            ObjData::Array(a) => {
                a.set_size(size);
                a.chunk_size()
            }
            ObjData::Kv(_) => return Err(DaosError::WrongObjectType),
        };
        // truncation drops whole chunks; their rot entries must go with
        // them (the registry only ever names still-flipped bytes)
        let cut = size.div_ceil(cs) * cs;
        let key = (cid.0, oid);
        if let Some(m) = self.rot.extents.get_mut(&key) {
            m.retain(|&o, _| o < cut);
            if m.is_empty() {
                self.rot.extents.remove(&key);
            }
        }
        if let Some(s) = self.rot.parity.get_mut(&key) {
            s.retain(|&(o, _)| o < cut);
            if s.is_empty() {
                self.rot.parity.remove(&key);
            }
        }
        if let Some(l) = self.ledger.as_mut() {
            l.record_truncate(cid, oid, size);
        }
        let mut b = StepBuf::new();
        b.span("libdaos", "array_set_size", 0, |b| {
            b.push(self.cost.client_overhead());
            b.push(self.cost.rtt());
            self.cost.write_to_target(b, client, t, 64.0);
        });
        Ok(b.finish())
    }

    // ---- container attributes -----------------------------------------------

    /// Set a user attribute on a container (`daos cont set-attr`): one
    /// pool-metadata transaction.
    pub fn cont_set_attr(
        &mut self,
        _client: usize,
        id: ContainerId,
        name: &str,
        value: &[u8],
    ) -> Result<Step, DaosError> {
        let step = Step::seq([self.cost.client_overhead(), self.pool_md_op(1.0)]);
        let c = self.cont_mut(id)?;
        c.attrs.insert(name.to_string(), value.to_vec());
        Ok(step)
    }

    /// Read a user attribute.
    pub fn cont_get_attr(
        &mut self,
        _client: usize,
        id: ContainerId,
        name: &str,
    ) -> Result<(Vec<u8>, Step), DaosError> {
        let step = Step::seq([self.cost.client_overhead(), self.pool_md_op(1.0)]);
        let c = self.cont(id)?;
        let v = c.attrs.get(name).cloned().ok_or(DaosError::NoSuchKey)?;
        Ok((v, step))
    }

    /// List a container's user attribute names.
    pub fn cont_list_attrs(
        &mut self,
        _client: usize,
        id: ContainerId,
    ) -> Result<(Vec<String>, Step), DaosError> {
        let step = Step::seq([self.cost.client_overhead(), self.pool_md_op(1.0)]);
        let c = self.cont(id)?;
        Ok((c.attrs.keys().cloned().collect(), step))
    }

    /// Enumerate a container's object ids (`daos cont list-objects`):
    /// one request-service op per engine holding object metadata.
    pub fn obj_list(
        &mut self,
        client: usize,
        cid: ContainerId,
    ) -> Result<(Vec<Oid>, Step), DaosError> {
        let servers = self.pool.server_count();
        let mut b = StepBuf::new();
        b.seq(|b| {
            b.push(self.cost.client_overhead());
            b.push(self.cost.rtt());
            b.par(|b| {
                for server in 0..servers as u16 {
                    let t = TargetId { server, target: 0 };
                    self.cost.read_from_target(b, client, t, 256.0);
                }
            });
        });
        let c = self.cont(cid)?;
        let mut oids: Vec<Oid> = c.objects.keys().copied().collect();
        oids.sort();
        Ok((oids, b.finish()))
    }

    // ---- end-to-end data integrity ----------------------------------------------

    /// Checksum activity counters so far ([`CsumStats::publish`] for
    /// telemetry).
    pub fn csum_stats(&self) -> CsumStats {
        self.csum
    }

    /// Repair a KV value whose checksum failed: re-flip the registered
    /// rot (the xor involution restores the original byte, modelling a
    /// rewrite from a clean replica) and charge the replica-to-replica
    /// copy; refuse with [`DaosError::BadChecksum`] when every replica
    /// is rotten or the damage is unknown to the registry.
    // simlint::panic_root — integrity path runs under injected faults: must never panic
    // simlint::allow(hot-alloc) — repair path: runs only when rot was detected, not per I/O
    fn repair_kv_rot(&mut self, cid: ContainerId, oid: Oid, key: &[u8]) -> Result<Step, DaosError> {
        let group = self
            .obj(cid, oid)?
            .layout
            .group_for(dkey_hash(key))
            .to_vec();
        let rkey = (cid.0, oid);
        let rotten: BTreeSet<u64> = self
            .rot
            .kv
            .get(&rkey)
            .and_then(|m| m.get(key))
            .cloned()
            .unwrap_or_default();
        self.csum.detected += rotten.len().max(1) as u64;
        if rotten.is_empty() || rotten.len() >= group.len() {
            self.csum.unrepairable += 1;
            return Err(DaosError::BadChecksum);
        }
        let bytes = {
            let entry = self.obj_mut(cid, oid)?;
            match &mut entry.data {
                ObjData::Kv(kv) => {
                    kv.corrupt_value(key);
                    kv.get(key).map(|v| v.len()).unwrap_or(0)
                }
                ObjData::Array(_) => return Err(DaosError::WrongObjectType),
            }
        };
        self.rot.clear_kv(cid, oid, key);
        self.csum.repaired += rotten.len() as u64;
        self.csum.repaired_bytes += bytes * rotten.len() as u64;
        // cost: a clean replica feeds a rewrite of each rotten one
        let src = group
            .iter()
            .enumerate()
            .find(|(i, t)| !rotten.contains(&(*i as u64)) && self.pool.is_servable(**t))
            .map(|(_, &t)| t);
        let per_copy = (bytes as f64).max(64.0);
        let mut moves = StepBuf::new();
        if let Some(src) = src {
            moves.par(|b| {
                for &r in &rotten {
                    let dst = group[r as usize % group.len()];
                    self.rebuild_move(b, &[src], per_copy, dst, per_copy);
                }
            });
        }
        Ok(repair_span(bytes * rotten.len() as u64, moves))
    }

    /// Verify stored checksums over every chunk `[offset, offset+len)`
    /// touches and transparently repair what the redundancy covers.
    // simlint::panic_root — integrity path runs under injected faults: must never panic
    fn array_verify_repair(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        len: u64,
    ) -> Result<Step, DaosError> {
        let (checked, bad) = {
            let entry = self.obj(cid, oid)?;
            let a = match &entry.data {
                ObjData::Array(a) => a,
                ObjData::Kv(_) => return Err(DaosError::WrongObjectType),
            };
            let checked = a
                .chunks_in_range(offset, len)
                .filter(|&c| a.chunk_written(c))
                .count() as u64;
            (checked, a.verify_range(offset, len))
        };
        self.csum.verified += checked;
        if bad.is_empty() {
            return Ok(Step::Noop);
        }
        self.repair_array_rot(cid, oid, &bad)
    }

    /// Pre-write verification: partially-overwritten chunks fold their
    /// existing bytes into the new chunk, so they must verify (and be
    /// repaired) first; fully-covered chunks are replaced wholesale,
    /// which heals latent rot — their registry entries are dropped so a
    /// later repair cannot re-flip fresh bytes.
    // simlint::panic_root — integrity path runs under injected faults: must never panic
    fn array_prewrite_integrity(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        len: u64,
    ) -> Result<Step, DaosError> {
        let (cs, full, checked, bad) = {
            let entry = self.obj(cid, oid)?;
            let a = match &entry.data {
                ObjData::Array(a) => a,
                ObjData::Kv(_) => return Err(DaosError::WrongObjectType),
            };
            let cs = a.chunk_size();
            // the chunks the range covers whole are consecutive
            let full = offset.div_ceil(cs)..(offset + len) / cs;
            let mut checked = 0u64;
            let mut bad = Vec::new();
            for c in a.chunks_in_range(offset, len) {
                if full.contains(&c) {
                    continue;
                }
                if a.chunk_written(c) {
                    checked += 1;
                    if let Some(mm) = a.verify_chunk(c) {
                        bad.push(mm);
                    }
                }
            }
            (cs, full, checked, bad)
        };
        self.csum.verified += checked;
        let repair = if bad.is_empty() {
            Step::Noop
        } else {
            self.repair_array_rot(cid, oid, &bad)?
        };
        if !full.is_empty() {
            let rkey = (cid.0, oid);
            if let Some(m) = self.rot.extents.get_mut(&rkey) {
                m.retain(|&o, _| !full.contains(&(o / cs)));
                if m.is_empty() {
                    self.rot.extents.remove(&rkey);
                }
            }
            if let Some(s) = self.rot.parity.get_mut(&rkey) {
                s.retain(|&(o, _)| !full.contains(&(o / cs)));
                if s.is_empty() {
                    self.rot.parity.remove(&rkey);
                }
            }
        }
        Ok(repair)
    }

    /// Repair rotten array chunks: re-flip every registered flip
    /// (restoring the bytes the surviving redundancy reconstructs),
    /// clear the registry, and charge the reconstruction copies through
    /// the rebuild machinery.  Refuses with [`DaosError::BadChecksum`]
    /// when a chunk's rot exceeds its class redundancy — the caller
    /// must not serve (or fold in) its bytes.
    // simlint::panic_root — integrity path runs under injected faults: must never panic
    // simlint::allow(hot-alloc) — repair path: runs only when rot was detected, not per I/O
    fn repair_array_rot(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        mismatches: &[CsumMismatch],
    ) -> Result<Step, DaosError> {
        let (class, cs) = {
            let entry = self.obj(cid, oid)?;
            let cs = match &entry.data {
                ObjData::Array(a) => a.chunk_size(),
                ObjData::Kv(_) => return Err(DaosError::WrongObjectType),
            };
            (entry.layout.class, cs)
        };
        let rkey = (cid.0, oid);
        let mut moves = StepBuf::new();
        let span_bytes = moves.par(|b| {
            let mut span_bytes = 0u64;
            for mm in mismatches {
                let chunk = mm.chunk;
                let lo = chunk * cs;
                let group = self
                    .obj(cid, oid)?
                    .layout
                    .group_for(chunk_dkey_hash(chunk))
                    .to_vec();
                let flips: Vec<u64> = self
                    .rot
                    .extents
                    .get(&rkey)
                    .map(|m| m.range(lo..lo + cs).map(|(&o, _)| o).collect())
                    .unwrap_or_default();
                let parity_flips: Vec<(u64, u64)> = self
                    .rot
                    .parity
                    .get(&rkey)
                    .map(|s| {
                        s.iter()
                            .copied()
                            .filter(|&(o, _)| o / cs == chunk)
                            .collect()
                    })
                    .unwrap_or_default();
                // rotten copy indices: EC trusts the recomputed per-cell
                // verdict; replication derives them from the registry
                let rotten: BTreeSet<u64> = match class {
                    ObjectClass::ErasureCoded { .. } => {
                        mm.cells.iter().map(|&c| c as u64).collect()
                    }
                    _ => self
                        .rot
                        .extents
                        .get(&rkey)
                        .map(|m| {
                            m.range(lo..lo + cs)
                                .flat_map(|(_, s)| s.iter().copied())
                                .collect()
                        })
                        .unwrap_or_default(),
                };
                self.csum.detected += rotten.len().max(1) as u64;
                let known = !flips.is_empty() || !parity_flips.is_empty();
                let repairable = known
                    && match class {
                        ObjectClass::Sharded(_) | ObjectClass::ShardedMax => false,
                        ObjectClass::Replicated { .. } => {
                            !rotten.is_empty() && rotten.len() < group.len()
                        }
                        ObjectClass::ErasureCoded { p, .. } => rotten.len() <= p as usize,
                    };
                if !repairable {
                    self.csum.unrepairable += 1;
                    return Err(DaosError::BadChecksum);
                }
                {
                    let ec = ec_for(&mut self.ec_cache, class);
                    let entry = find_obj_mut(&mut self.containers, cid, oid)?;
                    if let ObjData::Array(a) = &mut entry.data {
                        for &o in &flips {
                            a.corrupt_at(o);
                        }
                        if let Some(ec) = ec {
                            for &(o, pi) in &parity_flips {
                                a.corrupt_parity_at(o, pi as usize, ec);
                            }
                        }
                        debug_assert!(a.verify_chunk(chunk).is_none(), "repair left chunk rotten");
                    }
                }
                if let Some(m) = self.rot.extents.get_mut(&rkey) {
                    for o in &flips {
                        m.remove(o);
                    }
                    if m.is_empty() {
                        self.rot.extents.remove(&rkey);
                    }
                }
                if let Some(s) = self.rot.parity.get_mut(&rkey) {
                    for pf in &parity_flips {
                        s.remove(pf);
                    }
                    if s.is_empty() {
                        self.rot.parity.remove(&rkey);
                    }
                }
                self.csum.repaired += rotten.len() as u64;
                // cost: read enough clean copies, rewrite each rotten shard
                match class {
                    ObjectClass::Sharded(_) | ObjectClass::ShardedMax => {}
                    ObjectClass::Replicated { .. } => {
                        let src = group
                            .iter()
                            .enumerate()
                            .find(|(i, t)| {
                                !rotten.contains(&(*i as u64)) && self.pool.is_servable(**t)
                            })
                            .map(|(_, &t)| t);
                        if let Some(src) = src {
                            for &r in &rotten {
                                let dst = group[r as usize % group.len()];
                                self.rebuild_move(b, &[src], cs as f64, dst, cs as f64);
                                self.csum.repaired_bytes += cs;
                                span_bytes += cs;
                            }
                        }
                    }
                    ObjectClass::ErasureCoded { k, .. } => {
                        let k = k as usize;
                        let cell_bytes = cs.div_ceil(k as u64);
                        let sources: Vec<TargetId> = group
                            .iter()
                            .enumerate()
                            .filter(|(i, t)| {
                                !rotten.contains(&(*i as u64)) && self.pool.is_servable(**t)
                            })
                            .map(|(_, &t)| t)
                            .take(k)
                            .collect();
                        if sources.len() == k {
                            for &r in &rotten {
                                let dst = group[r as usize % group.len()];
                                self.rebuild_move(
                                    b,
                                    &sources,
                                    cell_bytes as f64,
                                    dst,
                                    cell_bytes as f64,
                                );
                                self.csum.repaired_bytes += cell_bytes;
                                span_bytes += cell_bytes;
                            }
                        }
                    }
                }
            }
            Ok(span_bytes)
        })?;
        Ok(repair_span(span_bytes, moves))
    }

    /// Apply a bit-rot fault: deterministically select the `locus`-th
    /// stored unit (written array chunks and KV values, in container /
    /// object / unit order) and flip one stored byte of its `shard`-th
    /// copy (replica index; for EC objects, cell index — parity cells
    /// included).  Re-rotting the same copy is idempotent; rotting
    /// *another* copy of an already-rotten unit extends the damage
    /// toward (and past) the redundancy limit.  Returns `false` when
    /// the pool stores no rot-able bytes (e.g. Sized data mode).
    // simlint::panic_root — fault-handling path: must never panic
    pub fn apply_bit_rot(&mut self, locus: u64, shard: u64) -> bool {
        // rot needs bytes at rest: chunks without any (Sized markers)
        // are not candidates, KV keys always are
        let rottable = |unit: &UnitRef| match *unit {
            UnitRef::Chunk(a, c) => a.chunk_stored_bytes(c) > 0,
            UnitRef::Key(..) => true,
        };
        let mut n = 0u64;
        let _ = self.visit_units(None, |_, _, _, unit| {
            n += rottable(&unit) as u64;
            ControlFlow::Continue(())
        });
        if n == 0 {
            return false;
        }
        let mut skip = locus % n;
        let mut pick = None;
        let _ = self.visit_units(None, |cid, oid, _, unit| {
            if !rottable(&unit) {
                return ControlFlow::Continue(());
            }
            if skip > 0 {
                skip -= 1;
                return ControlFlow::Continue(());
            }
            pick = Some((cid, oid, unit.pos()));
            ControlFlow::Break(())
        });
        match pick {
            Some((cid, oid, ScrubPos::Chunk(c))) => self.plant_chunk_rot(cid, oid, c, locus, shard),
            Some((cid, oid, ScrubPos::Key(k))) => self.plant_kv_rot(cid, oid, &k, shard),
            None => false,
        }
    }

    /// Plant rot on one copy of an array chunk: pick a stored byte of
    /// the addressed replica/cell deterministically from `locus` and
    /// flip it (first copy only — further copies extend the registry's
    /// shard set without flipping again).
    // simlint::panic_root — fault-handling path: must never panic
    fn plant_chunk_rot(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        chunk: u64,
        locus: u64,
        shard: u64,
    ) -> bool {
        let (class, cs, rf) = match self.obj(cid, oid) {
            Ok(entry) => {
                let cs = match &entry.data {
                    ObjData::Array(a) => a.chunk_size(),
                    ObjData::Kv(_) => return false,
                };
                let rf = entry.layout.group_for(chunk_dkey_hash(chunk)).len().max(1) as u64;
                (entry.layout.class, cs, rf)
            }
            Err(_) => return false,
        };
        let lo = chunk * cs;
        match class {
            ObjectClass::Sharded(_) | ObjectClass::ShardedMax => {
                self.plant_extent_rot(cid, oid, lo + chunk_dkey_hash(locus) % cs, 0)
            }
            ObjectClass::Replicated { .. } => {
                self.plant_extent_rot(cid, oid, lo + chunk_dkey_hash(locus) % cs, shard % rf)
            }
            ObjectClass::ErasureCoded { k, p } => {
                let (k, p) = (k as u64, p as u64);
                let cell = shard % (k + p);
                if cell >= k {
                    return self.plant_parity_rot(cid, oid, lo, cell - k);
                }
                let cell_len = cs.div_ceil(k);
                // land inside the addressed data cell, clamped to the
                // chunk's logical bytes (the tail cell carries padding)
                let mut within = cell * cell_len + chunk_dkey_hash(locus) % cell_len;
                if within >= cs {
                    within = cell * cell_len;
                }
                if within >= cs {
                    within = 0;
                }
                self.plant_extent_rot(cid, oid, lo + within, within / cell_len)
            }
        }
    }

    /// Flip the stored byte at `offset` (first copy only) and record
    /// the hit shard copy.  Returns `false` when no real byte backs
    /// the offset.
    // simlint::panic_root — fault-handling path: must never panic
    fn plant_extent_rot(&mut self, cid: ContainerId, oid: Oid, offset: u64, shard: u64) -> bool {
        let rkey = (cid.0, oid);
        let already = self
            .rot
            .extents
            .get(&rkey)
            .and_then(|m| m.get(&offset))
            .is_some();
        if !already {
            let flipped = match self.obj_mut(cid, oid) {
                Ok(entry) => match &mut entry.data {
                    ObjData::Array(a) => a.corrupt_at(offset),
                    ObjData::Kv(_) => false,
                },
                Err(_) => false,
            };
            if !flipped {
                return false;
            }
        }
        self.rot
            .extents
            .entry(rkey)
            .or_default()
            .entry(offset)
            .or_default()
            .insert(shard);
        true
    }

    /// Flip one byte of parity cell `parity_idx` in the chunk holding
    /// `offset` (first hit only) and record it.  Returns `false` for
    /// non-EC objects or out-of-range parity indices.
    // simlint::panic_root — fault-handling path: must never panic
    fn plant_parity_rot(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        parity_idx: u64,
    ) -> bool {
        let rkey = (cid.0, oid);
        let (class, cs) = match self.obj(cid, oid) {
            Ok(entry) => match &entry.data {
                ObjData::Array(a) => (entry.layout.class, a.chunk_size()),
                ObjData::Kv(_) => return false,
            },
            Err(_) => return false,
        };
        let lo = offset / cs * cs;
        if self
            .rot
            .parity
            .get(&rkey)
            .is_some_and(|s| s.contains(&(lo, parity_idx)))
        {
            return true;
        }
        let Some(ec) = ec_for(&mut self.ec_cache, class) else {
            return false;
        };
        let flipped = match find_obj_mut(&mut self.containers, cid, oid) {
            Ok(entry) => match &mut entry.data {
                ObjData::Array(a) => a.corrupt_parity_at(lo, parity_idx as usize, ec),
                ObjData::Kv(_) => false,
            },
            Err(_) => false,
        };
        if !flipped {
            return false;
        }
        self.rot
            .parity
            .entry(rkey)
            .or_default()
            .insert((lo, parity_idx));
        true
    }

    /// Flip a stored KV value byte (first copy only) and record the hit
    /// replica.  Returns `false` for absent or Sized values.
    // simlint::panic_root — fault-handling path: must never panic
    fn plant_kv_rot(&mut self, cid: ContainerId, oid: Oid, key: &[u8], shard: u64) -> bool {
        let rf = match self.obj(cid, oid) {
            Ok(entry) => entry.layout.group_for(dkey_hash(key)).len().max(1) as u64,
            Err(_) => return false,
        };
        let rkey = (cid.0, oid);
        let already = self.rot.kv.get(&rkey).and_then(|m| m.get(key)).is_some();
        if !already {
            let flipped = match self.obj_mut(cid, oid) {
                Ok(entry) => match &mut entry.data {
                    ObjData::Kv(kv) => kv.corrupt_value(key),
                    ObjData::Array(_) => false,
                },
                Err(_) => false,
            };
            if !flipped {
                return false;
            }
        }
        self.rot
            .kv
            .entry(rkey)
            .or_default()
            .entry(key.to_vec())
            .or_default()
            .insert(shard % rf);
        true
    }

    // ---- background scrubber ----------------------------------------------------

    /// Start (or restart) a scrub pass from the beginning of the scan
    /// domain.  Drive it with [`DaosSystem::scrub_wave`].
    pub fn scrub_start(&mut self) {
        self.scrub.active = true;
        self.scrub.cursor = None;
    }

    /// Whether a scrub pass is in progress.
    pub fn scrub_active(&self) -> bool {
        self.scrub.active
    }

    /// Scrubber progress so far ([`ScrubReport::publish`] for
    /// telemetry).
    pub fn scrub_progress(&self) -> ScrubReport {
        self.scrub.report
    }

    /// Emit the next scrub wave: verify up to `max_units` stored units
    /// (array chunks and KV values) in container/object/unit order from
    /// the resume cursor, repairing what the redundancy covers, as one
    /// `scrub.wave` span of target-local disk reads plus any repair
    /// copies — all competing with foreground traffic through the same
    /// fairshare NVMe/engine resources.  Rot beyond redundancy is
    /// counted and **left in place**: reads refuse it loudly and the
    /// durability oracle names it.  Returns `None` when the pass is
    /// complete.  The cursor is replay-visible state, so a pass resumes
    /// byte-identically after a crash.
    // simlint::panic_root — scrub path runs under injected faults: must never panic
    // simlint::allow(hot-alloc) — wave construction: runs once per scrub wave (bounded by max_units), not per engine event
    pub fn scrub_wave(&mut self, max_units: usize) -> Option<Step> {
        assert!(max_units > 0);
        if !self.scrub.active {
            return None;
        }
        // phase 1: scan forward from the cursor, verifying each unit and
        // building its read while the object is borrowed
        let start = self.scrub.cursor.take();
        let mut next = None;
        let (mut units, mut wave_bytes) = (0usize, 0u64);
        let mut wave = StepBuf::new();
        let mut rotten: Vec<(ContainerId, Oid, ScrubRot)> = Vec::new();
        let _ = wave.par(|b| {
            self.visit_units(start.as_ref(), |cont, oid, entry, unit| {
                if units == max_units {
                    let pos = unit.pos();
                    next = Some(ScrubCursor { cont, oid, pos });
                    return ControlFlow::Break(());
                }
                units += 1;
                match unit {
                    UnitRef::Chunk(a, c) => {
                        let bytes = a.chunk_stored_bytes(c);
                        let group = entry.layout.group_for(chunk_dkey_hash(c));
                        let per_member = match entry.layout.class {
                            ObjectClass::ErasureCoded { .. } => {
                                bytes as f64 / group.len().max(1) as f64
                            }
                            _ => bytes as f64,
                        };
                        self.scrub_read_cost(b, group, per_member);
                        wave_bytes += bytes;
                        if let Some(mm) = a.verify_chunk(c) {
                            rotten.push((cont, oid, ScrubRot::Chunk(mm)));
                        }
                    }
                    UnitRef::Key(kv, k) => {
                        let bytes = kv.get(k).map(|v| v.len()).unwrap_or(0);
                        let group = entry.layout.group_for(dkey_hash(k));
                        self.scrub_read_cost(b, group, (bytes as f64).max(64.0));
                        wave_bytes += bytes;
                        if !kv.verify(k).unwrap_or(true) {
                            rotten.push((cont, oid, ScrubRot::Key(k.to_vec())));
                        }
                    }
                }
                ControlFlow::Continue(())
            })
        });
        self.scrub.cursor = next;
        if self.scrub.cursor.is_none() {
            self.scrub.active = false;
            self.scrub.report.passes += 1;
        }
        if units == 0 {
            return None;
        }
        // phase 2: count the scan and apply repairs; beyond-redundancy
        // rot is counted and left in place: reads refuse it, the oracle
        // names it
        self.scrub.report.units_scanned += units as u64;
        self.scrub.report.bytes_scanned += wave_bytes;
        self.csum.verified += units as u64;
        let before = self.csum;
        wave.seq(|b| {
            for (cid, oid, rot) in rotten {
                let repair = match rot {
                    ScrubRot::Chunk(mm) => {
                        self.repair_array_rot(cid, oid, std::slice::from_ref(&mm))
                    }
                    ScrubRot::Key(k) => self.repair_kv_rot(cid, oid, &k),
                };
                b.push(repair.unwrap_or(Step::Noop));
            }
        });
        let after = self.csum;
        self.scrub.report.detected += after.detected - before.detected;
        self.scrub.report.repaired += after.repaired - before.repaired;
        self.scrub.report.unrepairable += after.unrepairable - before.unrepairable;
        self.scrub.report.waves += 1;
        Some(Step::span("scrub", "wave", wave_bytes, wave.finish()))
    }

    /// Walk the stored units (written array chunks and KV keys) in
    /// container / object / unit order from `from` (inclusive; `None`
    /// starts at the beginning) until `f` breaks.  Resuming seeks each
    /// level by range, so a walk never visits an object or unit that
    /// lies before the cursor.
    fn visit_units<'a>(
        &'a self,
        from: Option<&ScrubCursor>,
        mut f: impl FnMut(ContainerId, Oid, &'a ObjectEntry, UnitRef<'a>) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let first = from.map_or(0, |c| c.cont.0 as usize);
        for cont in self.containers.iter().skip(first).flatten() {
            // only the cursor's own container and object resume mid-way
            let here = from.filter(|c| c.cont == cont.id);
            let objects = match here {
                Some(c) => cont.objects.range(c.oid..),
                None => cont.objects.range(..),
            };
            for (&oid, entry) in objects {
                self.count_visit();
                let pos = here.filter(|c| c.oid == oid).map(|c| &c.pos);
                match &entry.data {
                    ObjData::Array(a) => {
                        let first = match pos {
                            Some(ScrubPos::Chunk(c)) => *c,
                            _ => 0,
                        };
                        for c in a.written_chunks_from(first) {
                            self.count_visit();
                            f(cont.id, oid, entry, UnitRef::Chunk(a, c))?;
                        }
                    }
                    ObjData::Kv(kv) => {
                        let anchor = match pos {
                            Some(ScrubPos::Key(k)) => k.as_slice(),
                            _ => &[],
                        };
                        for k in kv.keys_from(anchor) {
                            self.count_visit();
                            f(cont.id, oid, entry, UnitRef::Key(kv, k))?;
                        }
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Count one map entry visited by [`DaosSystem::visit_units`]; the
    /// linear-work test reads the tally.
    fn count_visit(&self) {
        #[cfg(test)]
        self.scrub.visits.set(self.scrub.visits.get() + 1);
    }

    /// Target-local scan cost: each servable group member reads its
    /// share of the stored bytes straight off its NVMe through the
    /// engine — no client or network involvement, but full contention
    /// with foreground traffic on the shared fairshare resources.
    fn scrub_read_cost(&self, b: &mut StepBuf, group: &[TargetId], bytes_each: f64) {
        b.par(|b| {
            for &t in group.iter().filter(|&&t| self.pool.is_servable(t)) {
                let srv = &self.cost.topo.servers[t.server as usize];
                let res = &self.cost.srv_res[t.server as usize];
                let dev = self.cost.dev_for(t);
                b.seq(|b| {
                    b.push(Step::transfer(
                        Bytes(bytes_each),
                        [srv.nvme_r[dev], srv.nvme_r_pool, res.engine_xfer],
                    ));
                    b.push(Step::delay(self.cost.cal.nvme_read_lat_ns));
                });
            }
        });
    }

    // ---- rebuild ---------------------------------------------------------------

    /// Re-protect every object affected by excluded targets: degraded
    /// shard-group members are remapped to healthy replacement targets
    /// and the surviving data is copied/reconstructed onto them,
    /// server-to-server.  Returns the report and the op chain modelling
    /// the data movement (submit it to account for rebuild time; real
    /// DAOS runs this in the background while serving degraded I/O).
    // simlint::panic_root — fault-handling path: must never panic
    // simlint::amortized — rebuild runs once per fault, not per event; its planning cost amortizes across the whole degraded window it repairs
    pub fn rebuild(&mut self) -> (RebuildReport, Step) {
        let pool = self.pool.clone();
        let mut report = RebuildReport::default();
        // collect the per-shard plans first (borrow juggling: layout
        // edits happen in the same pass, costs are built after)
        let mut plans: Vec<MovePlan> = Vec::new();
        for cont in self.containers.iter_mut().flatten() {
            for entry in cont.objects.values_mut() {
                report.objects_scanned += 1;
                let class = entry.layout.class;
                let member = member_bytes(entry);
                for group in entry.layout.groups_mut() {
                    for m in 0..group.len() {
                        let t = group[m];
                        // repair fully-down members only: drained and
                        // reintegrating targets still serve their shards
                        // and are the migration engine's responsibility
                        if pool.is_servable(t) {
                            continue;
                        }
                        let survivors: Vec<TargetId> = group
                            .iter()
                            .copied()
                            .filter(|&x| pool.is_servable(x))
                            .collect();
                        let needed = match class {
                            ObjectClass::Sharded(_) | ObjectClass::ShardedMax => {
                                report.shards_lost += 1;
                                continue;
                            }
                            ObjectClass::Replicated { .. } => 1,
                            ObjectClass::ErasureCoded { k, .. } => k as usize,
                        };
                        if survivors.len() < needed {
                            report.shards_lost += 1;
                            continue;
                        }
                        let Some(dst) = pick_replacement(&pool, group, t) else {
                            report.shards_lost += 1;
                            continue;
                        };
                        group[m] = dst;
                        report.shards_rebuilt += 1;
                        report.bytes_moved += member;
                        if member > 0.0 {
                            plans.push(MovePlan {
                                sources: survivors[..needed].to_vec(),
                                read_each: member,
                                dst,
                                write_bytes: member,
                            });
                        }
                    }
                }
            }
        }
        // throttle the background traffic into waves so a mass rebuild
        // does not model as one infinitely-wide burst
        let moved = report.bytes_moved as u64;
        let mut b = StepBuf::new();
        b.span("rebuild", "scan", moved, |b| {
            for wave in plans.chunks(32) {
                b.par(|b| {
                    for p in wave {
                        self.rebuild_move(b, &p.sources, p.read_each, p.dst, p.write_bytes);
                    }
                });
            }
        });
        (report, b.finish())
    }

    /// Server-to-server shard move: read the surviving cells/replica,
    /// ship them to the destination server, write the rebuilt shard.
    // simlint::panic_root — fault-handling path: must never panic
    fn rebuild_move(
        &self,
        b: &mut StepBuf,
        sources: &[TargetId],
        read_each: f64,
        dst: TargetId,
        write_bytes: f64,
    ) {
        let dsts = &self.cost.topo.servers[dst.server as usize];
        let dres = &self.cost.srv_res[dst.server as usize];
        let ddev = self.cost.dev_for(dst);
        b.span("rebuild", "move", write_bytes as u64, |b| {
            b.push(Step::delay(self.cost.cal.net_rtt_ns));
            b.par(|b| {
                for &src in sources {
                    let ssrv = &self.cost.topo.servers[src.server as usize];
                    let sres = &self.cost.srv_res[src.server as usize];
                    let sdev = self.cost.dev_for(src);
                    b.push(Step::transfer(
                        Bytes(read_each),
                        [
                            ssrv.nvme_r[sdev],
                            ssrv.nvme_r_pool,
                            sres.engine_xfer,
                            ssrv.nic_tx,
                            dsts.nic_rx,
                        ],
                    ));
                }
            });
            b.push(Step::transfer(
                Bytes(write_bytes),
                [dres.engine_xfer, dsts.nvme_w[ddev], dsts.nvme_w_pool],
            ));
            b.push(Step::delay(self.cost.cal.nvme_write_lat_ns));
        });
    }

    // ---- elastic membership & the migration engine ------------------------------

    /// Targets of the current map that cannot serve I/O.  Only these can
    /// hold an undetected crash, so they bound the auditor's retry
    /// budget ([`DaosSystem::verify_durability`]).
    fn down_targets(&self) -> usize {
        self.pool.total_targets() - self.pool.servable_count()
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
        self.cost.srv_res.push(ServerRes {
            engine_xfer: sched.add_resource(
                format!("daos{s}.engine"),
                self.cost.cal.engine_xfer_bw.get(),
            ),
            tgt_svc: (0..self.cost.cal.targets_per_server)
                .map(|t| {
                    sched.add_resource(format!("daos{s}.tgt{t}"), self.cost.cal.target_svc_iops)
                })
                .collect(),
        });
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
    // simlint::panic_root — membership-change path: must never panic
    // simlint::amortized — planning runs once per membership change, not per event; its scan amortizes across the whole rebalance it plans
    pub fn rebalance_plan(&mut self) -> RebalanceReport {
        let pool = self.pool.clone();
        let mut report = RebalanceReport::default();
        // migration destinations: reintegrating targets in linear order
        let reint: Vec<TargetId> = (0..pool.total_targets())
            .map(|i| pool.target_at(i))
            .filter(|&t| pool.state(t) == crate::pool::TargetState::Reint)
            .collect();
        let total = pool.total_targets() as u64;
        let mut plans: Vec<(MoveKey, MovePlan)> = Vec::new();
        for cont in self.containers.iter_mut().flatten() {
            let cid = cont.id;
            for (oid, entry) in cont.objects.iter_mut() {
                report.objects_scanned += 1;
                let member_bytes = member_bytes(entry);
                for (g, group) in entry.layout.groups_mut().enumerate() {
                    for m in 0..group.len() {
                        let from = group[m];
                        let h = move_hash(oid, g, m);
                        let dst = match pool.state(from) {
                            // drained shards must leave; prefer the new
                            // server's targets, else any up target
                            crate::pool::TargetState::Drain => {
                                pick_migration_dest(&pool, group, from, &reint, h)
                            }
                            // minimal movement onto a new server: member
                            // moves iff its hash lands in the added slice
                            crate::pool::TargetState::Up
                                if !reint.is_empty() && h % total < reint.len() as u64 =>
                            {
                                pick_reint_dest(&pool, group, from, &reint, h)
                            }
                            _ => None,
                        };
                        let Some(dst) = dst else {
                            if pool.state(from) == crate::pool::TargetState::Drain {
                                report.moves_skipped += 1;
                            }
                            continue;
                        };
                        group[m] = dst;
                        report.moves_planned += 1;
                        report.bytes_planned += member_bytes;
                        plans.push((
                            (cid.0, *oid, g, m),
                            MovePlan {
                                sources: vec![from],
                                read_each: member_bytes,
                                dst,
                                write_bytes: member_bytes,
                            },
                        ));
                    }
                }
            }
        }
        for (key, plan) in plans {
            // re-planning overwrites: the newest layout decision wins
            self.migration.pending.insert(key, plan);
        }
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
    // simlint::panic_root — migration path runs under injected faults: must never panic
    // simlint::allow(hot-alloc) — wave construction: runs once per migration wave (bounded by max_moves), not per engine event
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
                let cid = ContainerId(cid);
                // validate against the current world: a crash (and the
                // rebuild it triggered) may have invalidated this move
                let valid = match self.obj(cid, oid) {
                    Ok(entry) => {
                        entry.layout.groups().nth(g).and_then(|grp| grp.get(m)) == Some(&plan.dst)
                            && self.pool.is_servable(plan.dst)
                    }
                    Err(_) => false,
                };
                if !valid {
                    self.migration.moves_dropped += 1;
                    continue;
                }
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
                    if let Ok(entry) = self.obj(cid, oid) {
                        sources = entry
                            .layout
                            .group(g)
                            .iter()
                            .copied()
                            .filter(|&t| t != plan.dst && self.pool.is_servable(t))
                            .take(1)
                            .collect();
                    }
                }
                if sources.is_empty() {
                    self.migration.moves_dropped += 1;
                    continue;
                }
                wave_bytes += plan.write_bytes;
                self.rebuild_move(b, &sources, plan.read_each, plan.dst, plan.write_bytes);
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

    // ---- space accounting -------------------------------------------------------

    /// Pool usage summary (`dmg pool query`): logical bytes stored per
    /// object kind and totals.
    pub fn pool_query(&self) -> PoolInfo {
        let mut info = PoolInfo {
            servers: self.pool.server_count(),
            targets_total: self.pool.total_targets(),
            targets_up: self.pool.up_count(),
            containers: 0,
            objects: 0,
            array_bytes: 0.0,
            kv_entries: 0,
        };
        for cont in self.containers.iter().flatten() {
            info.containers += 1;
            info.objects += cont.objects.len();
            for entry in cont.objects.values() {
                match &entry.data {
                    ObjData::Array(a) => info.array_bytes += a.size() as f64,
                    ObjData::Kv(kv) => info.kv_entries += kv.len(),
                }
            }
        }
        info
    }

    // ---- durability oracles ---------------------------------------------------

    /// Start recording acknowledged writes for the durability oracles.
    /// Call once after deploy, before the workload; the ledger is then
    /// maintained by every mutating data path and consumed by
    /// [`DaosSystem::verify_durability`].
    pub fn enable_ledger(&mut self) {
        self.ledger = Some(DurabilityLedger::new());
    }

    /// The acked-write ledger, when enabled.
    pub fn ledger(&self) -> Option<&DurabilityLedger> {
        self.ledger.as_ref()
    }

    /// Read every acknowledged write back through the owning API and
    /// report anything missing, wrong, or unservable.
    ///
    /// The auditor behaves like any client: its reads observe
    /// still-undetected crashes ([`DaosError::TargetDown`]) and retry
    /// against the refreshed pool map, exactly as application reads do.
    /// Content is compared byte-for-byte in Full data mode and by
    /// length in Sized mode.  Returned [`Step`] costs are discarded —
    /// this is an offline audit, run after quiescence, that must not
    /// perturb the simulated schedule.
    pub fn verify_durability(&mut self, client: usize) -> OracleReport {
        let Some(ledger) = self.ledger.clone() else {
            return OracleReport::default();
        };
        let mut report = OracleReport::default();
        for ((cid, oid, key), acked) in ledger.kv_entries() {
            report.checked_kv += 1;
            let subject = format!(
                "cont {} obj {} key {:?}",
                cid.0,
                oid,
                String::from_utf8_lossy(key)
            );
            let mut got = self.kv_get(client, *cid, *oid, key);
            // first touches of crashed targets fail once per client;
            // detection is monotone per (client, target), so the retry
            // budget is the number of down targets in the *current* map,
            // re-read each attempt — membership changes (drained servers
            // retired mid-audit, servers added) neither inflate nor
            // starve it
            let mut detections = 0;
            while matches!(got, Err(DaosError::TargetDown)) && detections < self.down_targets() {
                detections += 1;
                got = self.kv_get(client, *cid, *oid, key);
            }
            match got {
                Ok((read, _step)) => {
                    if let Some(detail) = content_mismatch(acked, &read) {
                        report.violations.push(Violation {
                            oracle: self.mismatch_kind(*cid, *oid),
                            subject,
                            detail,
                        });
                    }
                }
                Err(DaosError::BadChecksum) => report.violations.push(Violation {
                    oracle: OracleKind::Corruption,
                    subject,
                    detail: format!(
                        "acked {} bytes, checksum mismatch with rot beyond redundancy",
                        acked.len()
                    ),
                }),
                Err(e) => report.violations.push(Violation {
                    oracle: OracleKind::AckedDurability,
                    subject,
                    detail: format!("acked {} bytes, read failed: {e:?}", acked.len()),
                }),
            }
        }
        for ((cid, oid), extents) in ledger.extent_entries() {
            for (&offset, acked) in extents {
                report.checked_extents += 1;
                let subject = format!(
                    "cont {} obj {} extent [{}, {})",
                    cid.0,
                    oid,
                    offset,
                    offset + acked.len()
                );
                let mut got = self.array_read(client, *cid, *oid, offset, acked.len());
                // detection is monotone per (client, target): the budget
                // is the down-target count of the *current* map version,
                // recomputed per attempt (see the KV loop above)
                let mut detections = 0;
                while matches!(got, Err(DaosError::TargetDown)) && detections < self.down_targets()
                {
                    detections += 1;
                    got = self.array_read(client, *cid, *oid, offset, acked.len());
                }
                match got {
                    Ok((read, _step)) => {
                        if let Some(detail) = content_mismatch(acked, &read) {
                            report.violations.push(Violation {
                                oracle: self.mismatch_kind(*cid, *oid),
                                subject,
                                detail,
                            });
                        }
                    }
                    Err(DaosError::BadChecksum) => report.violations.push(Violation {
                        oracle: OracleKind::Corruption,
                        subject,
                        detail: format!(
                            "acked {} bytes, checksum mismatch with rot beyond redundancy",
                            acked.len()
                        ),
                    }),
                    Err(e) => report.violations.push(Violation {
                        oracle: OracleKind::AckedDurability,
                        subject,
                        detail: format!("acked {} bytes, read failed: {e:?}", acked.len()),
                    }),
                }
            }
        }
        report
    }

    /// Classify a read-back content mismatch: rot the registry still
    /// names is **Corruption** — bytes silently wrong, not lost; a
    /// mismatch on a redundant class otherwise means fail-over or
    /// reconstruction served bad bytes; on a plain class it is a
    /// straight durability loss.
    fn mismatch_kind(&self, cid: ContainerId, oid: Oid) -> OracleKind {
        if self.rot.touches(&(cid.0, oid)) {
            return OracleKind::Corruption;
        }
        match self.obj(cid, oid).map(|e| e.layout.class) {
            Ok(ObjectClass::Replicated { .. }) | Ok(ObjectClass::ErasureCoded { .. }) => {
                OracleKind::Reconstruction
            }
            _ => OracleKind::AckedDurability,
        }
    }

    /// Check that every shard group of every live object is fully
    /// redundant again (no down members) — the post-rebuild invariant
    /// behind the paper's time-to-redundancy-restored measurements.
    pub fn verify_redundancy(&self) -> OracleReport {
        let mut report = OracleReport::default();
        for cont in self.containers.iter().flatten() {
            for (oid, entry) in &cont.objects {
                for (g, group) in entry.layout.groups().enumerate() {
                    report.checked_groups += 1;
                    let down: Vec<String> = group
                        .iter()
                        .filter(|&&t| !self.pool.is_up(t))
                        .map(|t| format!("{}.{}", t.server, t.target))
                        .collect();
                    if !down.is_empty() {
                        report.violations.push(Violation {
                            oracle: OracleKind::RedundancyRestored,
                            subject: format!("cont {} obj {} group {g}", cont.id.0, oid),
                            detail: format!("down members after rebuild: {}", down.join(", ")),
                        });
                    }
                }
            }
        }
        report
    }

    /// Remove one acked KV entry behind the ledger's back — a
    /// **planted-violation test hook** for the oracle self-tests, never
    /// called by any data path.  Returns `false` when the entry does
    /// not exist.
    pub fn inject_drop_acked_kv(&mut self, cid: ContainerId, oid: Oid, key: &[u8]) -> bool {
        match self.obj_mut(cid, oid) {
            Ok(entry) => match &mut entry.data {
                ObjData::Kv(kv) => kv.remove(key),
                ObjData::Array(_) => false,
            },
            Err(_) => false,
        }
    }

    /// Flip one stored byte — a **planted-rot test hook**; see
    /// [`ArrayData::corrupt_at`].  For Array objects the flip lands at
    /// `offset` (inside one data cell for EC); for Key-Value objects it
    /// lands in the value of the `offset`-th key (sorted order).  The
    /// rot registry records the damage against shard copy 0, so
    /// verified reads detect it and repair it when redundancy allows.
    /// Returns `false` when no real byte backs the offset.
    pub fn inject_corrupt_extent(&mut self, cid: ContainerId, oid: Oid, offset: u64) -> bool {
        let kv_key = match self.obj(cid, oid) {
            Ok(entry) => match &entry.data {
                ObjData::Array(_) => None,
                ObjData::Kv(kv) => {
                    if kv.is_empty() {
                        return false;
                    }
                    let nth = (offset % kv.len() as u64) as usize;
                    kv.keys_from(b"").nth(nth).map(<[u8]>::to_vec)
                }
            },
            Err(_) => return false,
        };
        match kv_key {
            None => self.plant_extent_rot(cid, oid, offset, 0),
            Some(key) => self.plant_kv_rot(cid, oid, &key, 0),
        }
    }

    /// Flip one stored byte of a specific replica/cell copy — the
    /// beyond-redundancy planting hook: calling it for every shard of a
    /// location rots the datum past what repair can recover.
    pub fn inject_corrupt_replica(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        shard: u64,
    ) -> bool {
        self.plant_extent_rot(cid, oid, offset, shard)
    }

    /// Flip one byte of EC parity cell `parity_idx` in the chunk
    /// holding `offset` — the planted-rot hook for cells no logical
    /// byte offset addresses.
    pub fn inject_corrupt_parity(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        parity_idx: u64,
    ) -> bool {
        self.plant_parity_rot(cid, oid, offset, parity_idx)
    }

    /// Flip a stored byte of a KV value's `shard`-th replica copy.
    pub fn inject_corrupt_kv(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        key: &[u8],
        shard: u64,
    ) -> bool {
        self.plant_kv_rot(cid, oid, key, shard)
    }

    fn obj(&self, cid: ContainerId, oid: Oid) -> Result<&ObjectEntry, DaosError> {
        find_obj(&self.containers, cid, oid)
    }

    fn obj_mut(&mut self, cid: ContainerId, oid: Oid) -> Result<&mut ObjectEntry, DaosError> {
        find_obj_mut(&mut self.containers, cid, oid)
    }
}

/// Pool usage summary returned by [`DaosSystem::pool_query`].
#[derive(Debug, Clone, PartialEq)]
pub struct PoolInfo {
    /// Engines in the pool.
    pub servers: usize,
    /// Total targets.
    pub targets_total: usize,
    /// Targets currently serving I/O.
    pub targets_up: usize,
    /// Live containers.
    pub containers: usize,
    /// Live objects across all containers.
    pub objects: usize,
    /// Logical Array bytes stored.
    pub array_bytes: f64,
    /// Key-Value entries stored.
    pub kv_entries: usize,
}

/// Observe crashes: the first op from each client node touching a
/// crashed-but-undetected target fails once with
/// [`DaosError::TargetDown`].  Called by every data-path operation
/// *before* any state mutation, so a retried op re-executes cleanly.
/// Takes the detection map alone so that callers can pass a group
/// borrowed from a layout of the same system.
fn check_detection(
    undetected: &mut BTreeMap<TargetId, BTreeSet<usize>>,
    client: usize,
    group: &[TargetId],
) -> Result<(), DaosError> {
    if undetected.is_empty() {
        return Ok(());
    }
    for t in group {
        if let Some(seen) = undetected.get_mut(t) {
            if seen.insert(client) {
                return Err(DaosError::TargetDown);
            }
        }
    }
    Ok(())
}

/// The erasure code of an EC class (`None` otherwise), built on first
/// use and borrowed from the cache thereafter.  Takes the cache alone
/// so that callers can hold the code while mutating an object.
fn ec_for(cache: &mut BTreeMap<(u8, u8), ErasureCode>, class: ObjectClass) -> Option<&ErasureCode> {
    match class {
        ObjectClass::ErasureCoded { k, p } => Some(
            cache
                .entry((k, p))
                .or_insert_with(|| ErasureCode::new(k as usize, p as usize)),
        ),
        _ => None,
    }
}

/// Object lookup over the container table alone, so that callers can
/// borrow an entry while mutating other fields of the system.
fn find_obj(
    containers: &[Option<Container>],
    cid: ContainerId,
    oid: Oid,
) -> Result<&ObjectEntry, DaosError> {
    containers
        .get(cid.0 as usize)
        .and_then(|c| c.as_ref())
        .ok_or(DaosError::NoSuchContainer)?
        .objects
        .get(&oid)
        .ok_or(DaosError::NoSuchObject)
}

/// Mutable [`find_obj`].
fn find_obj_mut(
    containers: &mut [Option<Container>],
    cid: ContainerId,
    oid: Oid,
) -> Result<&mut ObjectEntry, DaosError> {
    containers
        .get_mut(cid.0 as usize)
        .and_then(|c| c.as_mut())
        .ok_or(DaosError::NoSuchContainer)?
        .objects
        .get_mut(&oid)
        .ok_or(DaosError::NoSuchObject)
}

/// Wrap the parallel repair copies built in `moves` as a `csum.repair`
/// span ([`Step::Noop`] when the repair carried no billable movement,
/// e.g. no servable clean source).
fn repair_span(bytes: u64, moves: StepBuf) -> Step {
    Step::span("csum", "repair", bytes, moves.finish())
}

/// Array chunks use their index as dkey; DAOS hashes it before routing,
/// which is what spreads a sequential writer's consecutive chunks
/// non-contiguously over the targets.
pub fn chunk_dkey_hash(chunk: u64) -> u64 {
    let mut z = chunk ^ 0x9e37_79b9_7f4a_7c15;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Compare an acked value against what a verification read returned:
/// byte-for-byte when both sides carry bytes, by length otherwise
/// (Sized mode tracks no content).  `None` means they agree.
fn content_mismatch(acked: &AckedValue, read: &ReadPayload) -> Option<String> {
    let read_len = read.len();
    if acked.len() != read_len {
        return Some(format!(
            "acked {} bytes, read {} bytes",
            acked.len(),
            read_len
        ));
    }
    match (acked, read) {
        (AckedValue::Bytes(b), ReadPayload::Bytes(rb)) if b != rb => {
            let first = b.iter().zip(rb.iter()).position(|(x, y)| x != y);
            Some(format!(
                "content differs at byte {} of {} (acked digest {:#018x}, read digest {:#018x})",
                first.unwrap_or(0),
                b.len(),
                content_digest(b),
                content_digest(rb),
            ))
        }
        _ => None,
    }
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

/// Distribution key hash (DAOS hashes dkeys to route to shards).
pub fn dkey_hash(key: &[u8]) -> u64 {
    // FNV-1a, then a finaliser mix.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ (h >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::ClusterSpec;
    use simkit::{run, OpId, SimTime, World};

    struct Sink(SimTime);
    impl World for Sink {
        fn on_op_complete(&mut self, _op: OpId, sched: &mut Scheduler) {
            self.0 = sched.now();
        }
    }

    fn system(servers: usize, clients: usize, mode: DataMode) -> (Scheduler, DaosSystem) {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(servers, clients).build(&mut sched);
        let sys = DaosSystem::deploy(&topo, &mut sched, servers, mode);
        (sched, sys)
    }

    fn exec(sched: &mut Scheduler, step: Step) -> f64 {
        let t0 = sched.now();
        sched.submit(step, OpId(0));
        let mut w = Sink(SimTime::ZERO);
        run(sched, &mut w);
        w.0.secs_since(t0)
    }

    #[test]
    fn kv_round_trip_full_mode() {
        let (mut sched, mut sys) = system(2, 1, DataMode::Full);
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let (kv, s) = sys.kv_create(0, cid, ObjectClass::S1).unwrap();
        exec(&mut sched, s);
        let s = sys
            .kv_put(0, cid, kv, b"key1", Payload::Bytes(vec![1, 2, 3]))
            .unwrap();
        exec(&mut sched, s);
        let (v, s) = sys.kv_get(0, cid, kv, b"key1").unwrap();
        exec(&mut sched, s);
        assert_eq!(v.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(
            sys.kv_get(0, cid, kv, b"nope").unwrap_err(),
            DaosError::NoSuchKey
        );
        let (keys, _) = sys.kv_list(0, cid, kv, b"key").unwrap();
        assert_eq!(keys, vec![b"key1".to_vec()]);
        let s = sys.kv_remove(0, cid, kv, b"key1").unwrap();
        exec(&mut sched, s);
        assert_eq!(
            sys.kv_get(0, cid, kv, b"key1").unwrap_err(),
            DaosError::NoSuchKey
        );
    }

    #[test]
    fn ec_kv_rejected() {
        let (mut sched, mut sys) = system(2, 1, DataMode::Full);
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        assert_eq!(
            sys.kv_create(0, cid, ObjectClass::EC_2P1).unwrap_err(),
            DaosError::InvalidClass
        );
    }

    #[test]
    fn array_write_read_full_mode() {
        let (mut sched, mut sys) = system(2, 1, DataMode::Full);
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let (oid, s) = sys.array_create(0, cid, ObjectClass::SX, 1 << 16).unwrap();
        exec(&mut sched, s);
        let mut rng = simkit::SplitMix64::new(1);
        let mut data = vec![0u8; 200_000];
        rng.fill_bytes(&mut data);
        let s = sys
            .array_write(0, cid, oid, 1000, Payload::Bytes(data.clone()))
            .unwrap();
        exec(&mut sched, s);
        let (r, s) = sys.array_read(0, cid, oid, 1000, 200_000).unwrap();
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &data[..]);
        let (size, _) = sys.array_get_size(0, cid, oid).unwrap();
        assert_eq!(size, 201_000);
    }

    #[test]
    fn single_process_write_bandwidth_is_sane() {
        // One client streaming 1 MiB ops to a 1-server pool: bandwidth
        // must be below the server's SSD aggregate and well above zero.
        let (mut sched, mut sys) = system(1, 1, DataMode::Sized);
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let (oid, s) = sys.array_create(0, cid, ObjectClass::SX, 1 << 20).unwrap();
        exec(&mut sched, s);
        let n = 64u64;
        let mib = 1u64 << 20;
        let t0 = sched.now();
        let mut total = 0.0;
        for i in 0..n {
            let s = sys
                .array_write(0, cid, oid, i * mib, Payload::Sized(mib))
                .unwrap();
            total += exec(&mut sched, s);
        }
        let bw = (n * mib) as f64 / sched.now().secs_since(t0);
        let _ = total;
        // A sequential QD1 writer is bound by one NVMe device's burst
        // bandwidth (sustained share × burst headroom) plus fixed per-op
        // latencies.
        let cal = cluster::Calibration::default();
        let dev_bw = (cal.nvme_dev_write_bw() * cal.nvme_dev_burst).get();
        assert!(bw > 0.8 * dev_bw, "bw {} too low", bw / cluster::GIB);
        assert!(
            bw <= dev_bw * 1.01,
            "bw {} exceeds device",
            bw / cluster::GIB
        );
    }

    #[test]
    fn ec_write_amplification_visible_in_time() {
        // Writing with EC_2P1 moves 1.5x the bytes: with everything else
        // equal the sustained stream takes ~1.5x longer than S1 when the
        // device is the bottleneck... but S1 uses ONE device while EC
        // uses three; compare instead against monitor byte accounting.
        let mut sched = Scheduler::with_monitor();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let mut sys = DaosSystem::deploy(&topo, &mut sched, 2, DataMode::Sized);
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let (oid, s) = sys
            .array_create(0, cid, ObjectClass::EC_2P1, 1 << 20)
            .unwrap();
        exec(&mut sched, s);
        let s = sys
            .array_write(0, cid, oid, 0, Payload::Sized(1 << 20))
            .unwrap();
        exec(&mut sched, s);
        // total bytes through all NVMe write resources = 1.5 MiB
        let total: f64 = topo
            .servers
            .iter()
            .flat_map(|s| s.nvme_w.iter())
            .map(|&r| sched.monitor().units(r))
            .sum();
        assert!(
            (total - 1.5 * (1u64 << 20) as f64).abs() < 1.0,
            "EC wrote {total} bytes"
        );
    }

    #[test]
    fn replication_failover_and_ec_reconstruction() {
        let (mut sched, mut sys) = system(3, 1, DataMode::Full);
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        // replicated KV
        let (kv, s) = sys.kv_create(0, cid, ObjectClass::RP_2).unwrap();
        exec(&mut sched, s);
        let s = sys
            .kv_put(0, cid, kv, b"k", Payload::Bytes(vec![9; 100]))
            .unwrap();
        exec(&mut sched, s);
        // EC array
        let (arr, s) = sys.array_create(0, cid, ObjectClass::EC_2P1, 4096).unwrap();
        exec(&mut sched, s);
        let mut rng = simkit::SplitMix64::new(2);
        let mut data = vec![0u8; 8192];
        rng.fill_bytes(&mut data);
        let s = sys
            .array_write(0, cid, arr, 0, Payload::Bytes(data.clone()))
            .unwrap();
        exec(&mut sched, s);

        // kill one entire server
        sys.exclude_server(0);

        let (v, s) = sys.kv_get(0, cid, kv, b"k").unwrap();
        exec(&mut sched, s);
        assert_eq!(v.len(), 100, "replica failover");
        let (r, s) = sys.array_read(0, cid, arr, 0, 8192).unwrap();
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &data[..], "EC reconstruction");
    }

    #[test]
    fn unreplicated_data_unavailable_after_exclusion() {
        let (mut sched, mut sys) = system(1, 1, DataMode::Full);
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let (oid, s) = sys.array_create(0, cid, ObjectClass::S1, 4096).unwrap();
        exec(&mut sched, s);
        let s = sys
            .array_write(0, cid, oid, 0, Payload::Bytes(vec![1; 4096]))
            .unwrap();
        exec(&mut sched, s);
        let t = sys
            .cont(cid)
            .unwrap()
            .objects
            .values()
            .next()
            .unwrap()
            .layout
            .group(0)[0];
        sys.exclude_target(t);
        assert_eq!(
            sys.array_read(0, cid, oid, 0, 4096).unwrap_err(),
            DaosError::Unavailable
        );
    }

    #[test]
    fn rp2_read_fails_over_within_the_group_holding_the_chunk() {
        // RP_2 over the whole pool: chunk `c` lives in group
        // `group_index(chunk_dkey_hash(c))`.  With both replicas of some
        // other group down, the chunk stays readable, and the read is
        // charged to the group that holds it.
        let (mut sched, mut sys) = system(4, 1, DataMode::Full);
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let cs = 1u64 << 16;
        let (oid, s) = sys.array_create(0, cid, ObjectClass::rp_gx(2), cs).unwrap();
        exec(&mut sched, s);
        // a chunk whose raw index names a group disjoint from its own
        let layout = &sys.obj(cid, oid).unwrap().layout;
        let (c, other) = (0..64u64)
            .find_map(|c| {
                let own = layout.group_for(chunk_dkey_hash(c));
                let other = layout.group_for(c);
                own.iter()
                    .all(|t| !other.contains(t))
                    .then(|| (c, other.to_vec()))
            })
            .expect("some chunk index names a group disjoint from its own");
        let data = vec![7u8; cs as usize];
        let s = sys
            .array_write(0, cid, oid, c * cs, Payload::Bytes(data.clone()))
            .unwrap();
        exec(&mut sched, s);
        for t in other {
            sys.exclude_target(t);
        }
        let (r, s) = sys
            .array_read(0, cid, oid, c * cs, cs)
            .expect("the chunk's own group is healthy");
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &data[..]);
    }

    #[test]
    fn snapshots_and_destroy() {
        let (mut sched, mut sys) = system(1, 1, DataMode::Sized);
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let (e1, s) = sys.snapshot_create(0, cid).unwrap();
        exec(&mut sched, s);
        let (e2, s) = sys.snapshot_create(0, cid).unwrap();
        exec(&mut sched, s);
        assert_eq!(sys.snapshot_list(cid).unwrap(), vec![e1, e2]);
        let s = sys.snapshot_destroy(0, cid, e1).unwrap();
        exec(&mut sched, s);
        assert_eq!(sys.snapshot_list(cid).unwrap(), vec![e2]);
        let s = sys.cont_destroy(0, cid).unwrap();
        exec(&mut sched, s);
        assert_eq!(
            sys.snapshot_list(cid).unwrap_err(),
            DaosError::NoSuchContainer
        );
    }

    #[test]
    fn dkey_hash_spreads() {
        let mut buckets = [0u32; 8];
        for i in 0..8000u32 {
            let k = format!("key/{i}");
            buckets[(dkey_hash(k.as_bytes()) % 8) as usize] += 1;
        }
        for &b in &buckets {
            assert!((800..1200).contains(&b), "{buckets:?}");
        }
    }

    #[test]
    fn wrong_type_errors() {
        let (mut sched, mut sys) = system(1, 1, DataMode::Full);
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let (kv, s) = sys.kv_create(0, cid, ObjectClass::S1).unwrap();
        exec(&mut sched, s);
        let (arr, s) = sys.array_create(0, cid, ObjectClass::S1, 4096).unwrap();
        exec(&mut sched, s);
        assert_eq!(
            sys.array_write(0, cid, kv, 0, Payload::Sized(10))
                .unwrap_err(),
            DaosError::WrongObjectType
        );
        assert_eq!(
            sys.kv_put(0, cid, arr, b"k", Payload::Sized(1))
                .unwrap_err(),
            DaosError::WrongObjectType
        );
        assert_eq!(
            sys.array_get_size(0, cid, kv).unwrap_err(),
            DaosError::WrongObjectType
        );
    }

    #[test]
    fn punch_removes_object() {
        let (mut sched, mut sys) = system(1, 1, DataMode::Sized);
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let (oid, s) = sys.array_create(0, cid, ObjectClass::S1, 4096).unwrap();
        exec(&mut sched, s);
        assert_eq!(sys.object_count(cid).unwrap(), 1);
        let s = sys.obj_punch(0, cid, oid).unwrap();
        exec(&mut sched, s);
        assert_eq!(sys.object_count(cid).unwrap(), 0);
        assert!(sys.obj_punch(0, cid, oid).is_err());
    }

    /// A scrub pass resumes each wave from its cursor by range, so the
    /// map entries it visits stay linear in what it scans: every unit
    /// and object once, plus the cursor's object and unit again per
    /// wave.  Re-walking from the start of the pool on every wave
    /// breaks this bound quadratically at wave size 1.
    #[test]
    fn scrub_pass_visits_are_linear_in_stored_units() {
        const ARRAYS: u64 = 4;
        for scale in [1u64, 10, 100] {
            let (_sched, mut sys) = system(4, 1, DataMode::Sized);
            let (cid, _) = sys.cont_create(0, ContainerProps::default());
            let (kv, _) = sys.kv_create(0, cid, ObjectClass::RP_2).unwrap();
            for i in 0..16 * scale {
                let key = format!("key/{i:06}");
                sys.kv_put(0, cid, kv, key.as_bytes(), Payload::Sized(64))
                    .unwrap();
            }
            for class in [ObjectClass::RP_2, ObjectClass::EC_2P1] {
                for _ in 0..ARRAYS / 2 {
                    let (a, _) = sys.array_create(0, cid, class, 4096).unwrap();
                    sys.array_write(0, cid, a, 0, Payload::Sized(4 * scale * 4096))
                        .unwrap();
                }
            }
            let (units, objects) = (16 * scale + ARRAYS * 4 * scale, 1 + ARRAYS);
            sys.scrub.visits.set(0);
            sys.scrub_start();
            while sys.scrub_wave(1).is_some() {}
            let report = sys.scrub_progress();
            assert_eq!(report.units_scanned, units);
            assert_eq!(report.waves, units);
            assert_eq!(report.passes, 1);
            let visits = sys.scrub.visits.get();
            assert!(
                visits <= units + objects + 2 * report.waves,
                "{visits} visits for {units} units in {objects} objects at scale {scale}"
            );
        }
    }
}

#[cfg(test)]
mod attr_tests {
    use super::*;
    use crate::container::ContainerProps;
    use crate::data::DataMode;
    use cluster::ClusterSpec;
    use simkit::{run, OpId, World};

    struct Sink;
    impl World for Sink {
        fn on_op_complete(&mut self, _op: OpId, _sched: &mut Scheduler) {}
    }

    fn exec(sched: &mut Scheduler, step: Step) {
        sched.submit(step, OpId(0));
        run(sched, &mut Sink);
    }

    #[test]
    fn container_attributes_round_trip() {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(1, 1).build(&mut sched);
        let mut sys = DaosSystem::deploy(&topo, &mut sched, 1, DataMode::Sized);
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let s = sys.cont_set_attr(0, cid, "owner", b"ecmwf").unwrap();
        exec(&mut sched, s);
        let s = sys.cont_set_attr(0, cid, "cycle", b"00z").unwrap();
        exec(&mut sched, s);
        let (v, s) = sys.cont_get_attr(0, cid, "owner").unwrap();
        exec(&mut sched, s);
        assert_eq!(v, b"ecmwf");
        let (names, s) = sys.cont_list_attrs(0, cid).unwrap();
        exec(&mut sched, s);
        assert_eq!(names, vec!["cycle", "owner"]);
        assert_eq!(
            sys.cont_get_attr(0, cid, "missing").unwrap_err(),
            DaosError::NoSuchKey
        );
    }

    #[test]
    fn object_listing_enumerates_oids() {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let mut sys = DaosSystem::deploy(&topo, &mut sched, 2, DataMode::Sized);
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let mut created = Vec::new();
        for _ in 0..4 {
            let (oid, s) = sys.array_create(0, cid, ObjectClass::S1, 1 << 20).unwrap();
            exec(&mut sched, s);
            created.push(oid);
        }
        let (kv, s) = sys.kv_create(0, cid, ObjectClass::S1).unwrap();
        exec(&mut sched, s);
        created.push(kv);
        created.sort();
        let (listed, s) = sys.obj_list(0, cid).unwrap();
        exec(&mut sched, s);
        assert_eq!(listed, created);
    }

    /// Deploy over fewer servers than the topology holds, leaving spare
    /// hardware for online adds.
    fn elastic_system(
        topo_servers: usize,
        deploy: usize,
        clients: usize,
        mode: DataMode,
    ) -> (Scheduler, DaosSystem) {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(topo_servers, clients).build(&mut sched);
        let sys = DaosSystem::deploy(&topo, &mut sched, deploy, mode);
        (sched, sys)
    }

    fn drive_migration(sched: &mut Scheduler, sys: &mut DaosSystem) -> usize {
        let mut waves = 0;
        while let Some(step) = sys.migration_wave(16) {
            exec(sched, step);
            waves += 1;
        }
        assert_eq!(sys.migration_pending(), 0);
        waves
    }

    #[test]
    fn online_add_server_rebalances_minimally() {
        let (mut sched, mut sys) = elastic_system(5, 4, 1, DataMode::Full);
        sys.enable_ledger();
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let (oid, s) = sys.array_create(0, cid, ObjectClass::SX, 1 << 16).unwrap();
        exec(&mut sched, s);
        let mut rng = simkit::SplitMix64::new(7);
        let mut data = vec![0u8; 1 << 20];
        rng.fill_bytes(&mut data);
        let s = sys
            .array_write(0, cid, oid, 0, Payload::Bytes(data.clone()))
            .unwrap();
        exec(&mut sched, s);
        let v0 = sys.pool().version();
        let rank = sys.add_server(&mut sched);
        assert_eq!(rank, 4);
        assert!(sys.pool().version() > v0);
        assert_eq!(sys.pool().server_count(), 5);
        // new targets serve but don't place yet
        assert_eq!(sys.pool().up_count(), 4 * sys.cal().targets_per_server);
        let report = sys.rebalance_plan();
        let total_members: usize = 5 * sys.cal().targets_per_server;
        // minimal movement: roughly 1/5th of the shard population moves,
        // certainly not all of it
        assert!(report.moves_planned > 0, "growth must move something");
        assert!(
            report.moves_planned < total_members / 2,
            "moved {} of {} members — not minimal",
            report.moves_planned,
            total_members
        );
        let waves = drive_migration(&mut sched, &mut sys);
        assert!(waves >= 1);
        sys.finish_rebalance();
        assert_eq!(sys.pool().up_count(), 5 * sys.cal().targets_per_server);
        // data survives the move and the new layout serves it
        let (r, s) = sys.array_read(0, cid, oid, 0, 1 << 20).unwrap();
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &data[..]);
        assert!(sys.verify_durability(0).ok());
        assert!(sys.verify_redundancy().ok());
        let progress = sys.migration_progress();
        assert_eq!(progress.moves_done, report.moves_planned);
        assert!(progress.moved_bytes > 0.0);
    }

    #[test]
    fn drain_server_evacuates_and_retires() {
        let (mut sched, mut sys) = elastic_system(3, 3, 1, DataMode::Full);
        sys.enable_ledger();
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let (oid, s) = sys
            .array_create(0, cid, ObjectClass::RP_2, 1 << 16)
            .unwrap();
        exec(&mut sched, s);
        let mut rng = simkit::SplitMix64::new(9);
        let mut data = vec![0u8; 400_000];
        rng.fill_bytes(&mut data);
        let s = sys
            .array_write(0, cid, oid, 0, Payload::Bytes(data.clone()))
            .unwrap();
        exec(&mut sched, s);
        sys.drain_server(1);
        // drained targets still serve while migration runs
        let (r, s) = sys.array_read(0, cid, oid, 0, 400_000).unwrap();
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &data[..]);
        let report = sys.rebalance_plan();
        assert!(report.moves_planned > 0);
        assert_eq!(report.moves_skipped, 0, "2 healthy servers can host RP_2");
        drive_migration(&mut sched, &mut sys);
        sys.finish_rebalance();
        // the drained server is retired and no live layout references it
        assert_eq!(sys.pool().up_count(), 2 * sys.cal().targets_per_server);
        for i in 0..sys.pool().total_targets() {
            let t = sys.pool().target_at(i);
            if t.server == 1 {
                assert!(!sys.pool().is_servable(t));
            }
        }
        assert!(sys.verify_durability(0).ok());
        assert!(sys.verify_redundancy().ok());
        let (r, s) = sys.array_read(0, cid, oid, 0, 400_000).unwrap();
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &data[..]);
    }

    #[test]
    fn destination_crash_mid_migration_loses_unreplicated_shard() {
        let (mut sched, mut sys) = elastic_system(2, 2, 1, DataMode::Full);
        sys.enable_ledger();
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let (oid, s) = sys.array_create(0, cid, ObjectClass::S1, 1 << 16).unwrap();
        exec(&mut sched, s);
        let s = sys
            .array_write(0, cid, oid, 0, Payload::Bytes(vec![42u8; 100_000]))
            .unwrap();
        exec(&mut sched, s);
        let home = sys.containers[cid.0 as usize].as_ref().unwrap().objects[&oid]
            .layout
            .group(0)[0];
        sys.drain_server(home.server);
        let report = sys.rebalance_plan();
        assert!(report.moves_planned >= 1);
        // the migration destination dies before the wave ships
        let dst = sys.containers[cid.0 as usize].as_ref().unwrap().objects[&oid]
            .layout
            .group(0)[0];
        assert_ne!(dst.server, home.server);
        sys.crash_target(dst);
        // every move to the dead destination is dropped as stale
        assert!(sys.migration_wave(16).is_none() || sys.migration_progress().moves_dropped > 0);
        while let Some(step) = sys.migration_wave(16) {
            exec(&mut sched, step);
        }
        sys.finish_rebalance();
        // an unreplicated shard whose destination died is gone — the
        // durability oracle must name the loss
        let audit = sys.verify_durability(0);
        assert!(
            audit
                .violations
                .iter()
                .any(|v| v.oracle == OracleKind::AckedDurability),
            "expected an acked-durability violation, got: {:?}",
            audit.violations
        );
    }

    #[test]
    fn migration_resumes_after_crash_and_rebuild() {
        let (mut sched, mut sys) = elastic_system(4, 3, 1, DataMode::Full);
        sys.enable_ledger();
        let (cid, s) = sys.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let mut rng = simkit::SplitMix64::new(11);
        let mut oids = Vec::new();
        for _ in 0..6 {
            let (oid, s) = sys
                .array_create(0, cid, ObjectClass::RP_2, 1 << 16)
                .unwrap();
            exec(&mut sched, s);
            let mut data = vec![0u8; 200_000];
            rng.fill_bytes(&mut data);
            let s = sys
                .array_write(0, cid, oid, 0, Payload::Bytes(data.clone()))
                .unwrap();
            exec(&mut sched, s);
            oids.push((oid, data));
        }
        sys.add_server(&mut sched);
        sys.drain_server(0);
        let report = sys.rebalance_plan();
        assert!(report.moves_planned > 0);
        // ship one wave, then a target crashes mid-migration
        if let Some(step) = sys.migration_wave(4) {
            exec(&mut sched, step);
        }
        let victim = TargetId {
            server: 1,
            target: 0,
        };
        sys.crash_target(victim);
        let (_rep, step) = sys.rebuild();
        exec(&mut sched, step);
        // migration resumes: stale moves (remapped by the rebuild or
        // aimed at the dead target) drop, the rest ship
        drive_migration(&mut sched, &mut sys);
        sys.finish_rebalance();
        for (oid, data) in &oids {
            // reads may observe the crash once, then go degraded
            let mut got = sys.array_read(0, cid, *oid, 0, data.len() as u64);
            while matches!(got, Err(DaosError::TargetDown)) {
                got = sys.array_read(0, cid, *oid, 0, data.len() as u64);
            }
            let (r, s) = got.unwrap();
            exec(&mut sched, s);
            assert_eq!(r.bytes().unwrap(), &data[..]);
        }
        assert!(sys.verify_durability(0).ok());
    }
}
