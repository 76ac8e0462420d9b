//! End-to-end data integrity: checksum counters, the bit-rot
//! registry, verified reads with transparent repair, the planted-rot
//! test hooks, and the background scrubber.

use super::{chunk_dkey_hash, dkey_hash, ec_for, find_obj_mut, DaosError, DaosSystem};
use crate::class::ObjectClass;
use crate::container::{ContainerId, ObjectEntry};
use crate::data::{ArrayData, CsumMismatch, KvData, ObjData};
use crate::oid::Oid;
use crate::pool::TargetId;
use simkit::{Step, StepBuf};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

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
#[derive(Debug, Clone, Default)]
pub(super) struct RotState {
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

/// Edit the entry of `key` in `map`, if any, and drop it once `edit`
/// reports it empty.
fn prune<K: Ord, V>(map: &mut BTreeMap<K, V>, key: &K, edit: impl FnOnce(&mut V) -> bool) {
    if map.get_mut(key).is_some_and(edit) {
        map.remove(key);
    }
}

impl RotState {
    /// Whether any rot is registered on the object.
    pub(super) fn touches(&self, cid: ContainerId, oid: Oid) -> bool {
        let key = (cid.0, oid);
        self.extents.contains_key(&key)
            || self.parity.contains_key(&key)
            || self.kv.contains_key(&key)
    }

    /// Forget the array and parity rot of an object at every offset
    /// (parity: chunk offset) that `keep` rejects: bytes truncated away,
    /// rewritten whole or repaired.
    pub(super) fn retain_offsets(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        keep: impl Fn(u64) -> bool,
    ) {
        let key = (cid.0, oid);
        prune(&mut self.extents, &key, |m| {
            m.retain(|&o, _| keep(o));
            m.is_empty()
        });
        prune(&mut self.parity, &key, |s| {
            s.retain(|&(o, _)| keep(o));
            s.is_empty()
        });
    }

    /// Forget the rot registered on a KV value that was replaced,
    /// removed or repaired.
    pub(super) fn clear_kv(&mut self, cid: ContainerId, oid: Oid, key: &[u8]) {
        prune(&mut self.kv, &(cid.0, oid), |m| {
            m.remove(key);
            m.is_empty()
        });
    }

    /// Forget all rot of a punched object.
    pub(super) fn forget_object(&mut self, cid: ContainerId, oid: Oid) {
        let key = (cid.0, oid);
        self.extents.remove(&key);
        self.parity.remove(&key);
        self.kv.remove(&key);
    }

    /// Forget all rot of a destroyed container.
    pub(super) fn forget_container(&mut self, cid: ContainerId) {
        self.extents.retain(|&(c, _), _| c != cid.0);
        self.parity.retain(|&(c, _), _| c != cid.0);
        self.kv.retain(|&(c, _), _| c != cid.0);
    }

    /// The rot registered in the chunk at `[lo, lo + cs)`: flipped byte
    /// offsets, `(chunk offset, parity cell)` flips, and the replica
    /// copies the byte flips hit.
    fn in_chunk(
        &self,
        cid: ContainerId,
        oid: Oid,
        lo: u64,
        cs: u64,
    ) -> (Vec<u64>, Vec<(u64, u64)>, BTreeSet<u64>) {
        let key = (cid.0, oid);
        let (mut flips, mut copies) = (Vec::new(), BTreeSet::new());
        for (&o, hit) in self
            .extents
            .get(&key)
            .into_iter()
            .flat_map(|m| m.range(lo..lo + cs))
        {
            flips.push(o);
            copies.extend(hit);
        }
        let parity = self.parity.get(&key).map_or_else(Vec::new, |s| {
            s.iter()
                .copied()
                .filter(|&(o, _)| o / cs == lo / cs)
                .collect()
        });
        (flips, parity, copies)
    }

    /// The replica copies of a KV value registered rotten.
    fn kv_copies(&self, cid: ContainerId, oid: Oid, key: &[u8]) -> BTreeSet<u64> {
        self.kv
            .get(&(cid.0, oid))
            .and_then(|m| m.get(key))
            .cloned()
            .unwrap_or_default()
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
#[derive(Debug, Clone, Default)]
pub(super) struct ScrubState {
    active: bool,
    /// Next unit to scan; `None` while active means start from the
    /// beginning.
    cursor: Option<ScrubCursor>,
    report: ScrubReport,
    /// Map entries (objects and units) the unit walk has visited.
    #[cfg(test)]
    pub(super) visits: std::cell::Cell<u64>,
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

impl DaosSystem {
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
    pub(super) fn repair_kv_rot(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        key: &[u8],
    ) -> Result<Step, DaosError> {
        let layout = &self.obj(cid, oid)?.layout;
        let (class, group) = (layout.class, layout.group_for(dkey_hash(key)).to_vec());
        let rotten = self.rot.kv_copies(cid, oid, key);
        self.csum.detected += rotten.len().max(1) as u64;
        if !class.repairable(rotten.len()) {
            self.csum.unrepairable += 1;
            return Err(DaosError::BadChecksum);
        }
        let kv = self.obj_mut(cid, oid)?.data.kv_mut()?;
        kv.corrupt_value(key);
        let bytes = kv.get(key).map_or(0, |v| v.len());
        self.rot.clear_kv(cid, oid, key);
        self.csum.repaired += rotten.len() as u64;
        self.csum.repaired_bytes += bytes * rotten.len() as u64;
        // cost: a clean replica feeds a rewrite of each rotten one
        let per_copy = (bytes as f64).max(64.0);
        let mut moves = StepBuf::new();
        if let Some(src) = self.clean_sources(&group, &rotten, 1) {
            moves.par(|b| self.rewrite_copies(b, &group, &rotten, &src, per_copy));
        }
        Ok(repair_span(bytes * rotten.len() as u64, moves))
    }

    /// The first `needed` servable members of `group` whose copy is not
    /// `rotten`, or `None` when fewer serve.
    fn clean_sources(
        &self,
        group: &[TargetId],
        rotten: &BTreeSet<u64>,
        needed: usize,
    ) -> Option<Vec<TargetId>> {
        let sources: Vec<TargetId> = (0..group.len())
            .filter(|&i| !rotten.contains(&(i as u64)) && self.pool.is_servable(group[i]))
            .map(|i| group[i])
            .take(needed)
            .collect();
        (sources.len() == needed).then_some(sources)
    }

    /// Rewrite each `rotten` copy of a unit of `group` from `sources`,
    /// `bytes` read from each source and written to each copy.
    fn rewrite_copies(
        &self,
        b: &mut StepBuf,
        group: &[TargetId],
        rotten: &BTreeSet<u64>,
        sources: &[TargetId],
        bytes: f64,
    ) {
        for &r in rotten {
            let dst = group[r as usize % group.len()];
            self.cost.shard_move(b, sources, bytes, dst, bytes);
        }
    }

    /// Verify stored checksums over every chunk `[offset, offset+len)`
    /// touches and transparently repair what the redundancy covers.
    pub(super) fn array_verify_repair(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        len: u64,
    ) -> Result<Step, DaosError> {
        let a = self.obj(cid, oid)?.data.array()?;
        let checked = a
            .chunks_in_range(offset, len)
            .filter(|&c| a.chunk_written(c))
            .count() as u64;
        let bad = a.verify_range(offset, len);
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
    pub(super) fn array_prewrite_integrity(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        len: u64,
    ) -> Result<Step, DaosError> {
        let a = self.obj(cid, oid)?.data.array()?;
        let cs = a.chunk_size();
        // the chunks the range covers whole are consecutive
        let full = offset.div_ceil(cs)..(offset + len) / cs;
        let mut checked = 0u64;
        let mut bad = Vec::new();
        for c in a.chunks_in_range(offset, len) {
            if !full.contains(&c) && a.chunk_written(c) {
                checked += 1;
                bad.extend(a.verify_chunk(c));
            }
        }
        self.csum.verified += checked;
        let repair = if bad.is_empty() {
            Step::Noop
        } else {
            self.repair_array_rot(cid, oid, &bad)?
        };
        if !full.is_empty() {
            self.rot
                .retain_offsets(cid, oid, |o| !full.contains(&(o / cs)));
        }
        Ok(repair)
    }

    /// Repair rotten array chunks: re-flip every registered flip
    /// (restoring the bytes the surviving redundancy reconstructs),
    /// clear the registry, and charge the reconstruction copies as
    /// shard moves.  Refuses with [`DaosError::BadChecksum`] when a
    /// chunk's rot exceeds its class redundancy — the caller must not
    /// serve (or fold in) its bytes.
    fn repair_array_rot(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        mismatches: &[CsumMismatch],
    ) -> Result<Step, DaosError> {
        let entry = self.obj(cid, oid)?;
        let cs = entry.data.array()?.chunk_size();
        let class = entry.layout.class;
        // a rewrite reads one whole copy of a replicated chunk, or `k`
        // cells of an erasure-coded one
        let needed = class.data_members();
        let unit = cs.div_ceil(needed as u64);
        let mut moves = StepBuf::new();
        let span_bytes = moves.par(|b| {
            let mut span_bytes = 0u64;
            for mm in mismatches {
                let chunk = mm.chunk;
                let group = self
                    .obj(cid, oid)?
                    .layout
                    .group_for(chunk_dkey_hash(chunk))
                    .to_vec();
                let (flips, parity_flips, copies) = self.rot.in_chunk(cid, oid, chunk * cs, cs);
                // rotten copy indices: EC trusts the recomputed per-cell
                // verdict; replication derives them from the registry
                let rotten: BTreeSet<u64> = match class {
                    ObjectClass::ErasureCoded { .. } => {
                        mm.cells.iter().map(|&c| c as u64).collect()
                    }
                    _ => copies,
                };
                self.csum.detected += rotten.len().max(1) as u64;
                let known = !flips.is_empty() || !parity_flips.is_empty();
                if !known || !class.repairable(rotten.len()) {
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
                self.rot.retain_offsets(cid, oid, |o| o / cs != chunk);
                self.csum.repaired += rotten.len() as u64;
                // cost: read enough clean copies, rewrite each rotten shard
                if let Some(sources) = self.clean_sources(&group, &rotten, needed) {
                    self.rewrite_copies(b, &group, &rotten, &sources, unit as f64);
                    self.csum.repaired_bytes += unit * rotten.len() as u64;
                    span_bytes += unit * rotten.len() as u64;
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
            Some((cid, oid, ScrubPos::Chunk(c))) => self.rot_chunk(cid, oid, c, locus, shard),
            Some((cid, oid, ScrubPos::Key(k))) => self.inject_corrupt_kv(cid, oid, &k, shard),
            None => false,
        }
    }

    /// Rot one copy of an array chunk: pick a stored byte of the
    /// addressed replica/cell deterministically from `locus` and flip
    /// it (first copy only — further copies extend the registry's shard
    /// set without flipping again).
    fn rot_chunk(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        chunk: u64,
        locus: u64,
        shard: u64,
    ) -> bool {
        let Ok(entry) = self.obj(cid, oid) else {
            return false;
        };
        let Ok(a) = entry.data.array() else {
            return false;
        };
        let (class, cs) = (entry.layout.class, a.chunk_size());
        let lo = chunk * cs;
        let ObjectClass::ErasureCoded { k, p } = class else {
            let copy = shard % class.group_width() as u64;
            return self.inject_corrupt_replica(cid, oid, lo + chunk_dkey_hash(locus) % cs, copy);
        };
        let (k, p) = (k as u64, p as u64);
        let cell = shard % (k + p);
        if cell >= k {
            return self.inject_corrupt_parity(cid, oid, lo, cell - k);
        }
        let cell_len = cs.div_ceil(k);
        // land inside the addressed data cell, clamped to the chunk's
        // logical bytes (the tail cell carries padding)
        let mut within = cell * cell_len + chunk_dkey_hash(locus) % cell_len;
        if within >= cs {
            within = cell * cell_len;
        }
        if within >= cs {
            within = 0;
        }
        self.inject_corrupt_replica(cid, oid, lo + within, within / cell_len)
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
            None => self.inject_corrupt_replica(cid, oid, offset, 0),
            Some(key) => self.inject_corrupt_kv(cid, oid, &key, 0),
        }
    }

    /// Flip the stored byte at `offset` of a specific replica/cell copy
    /// (the byte flips on the first copy hit only) and record the hit
    /// copy — the beyond-redundancy planting hook: calling it for every
    /// shard of a location rots the datum past what repair can recover.
    /// Returns `false` when no real byte backs the offset.
    pub fn inject_corrupt_replica(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        shard: u64,
    ) -> bool {
        let rkey = (cid.0, oid);
        let already = self
            .rot
            .extents
            .get(&rkey)
            .and_then(|m| m.get(&offset))
            .is_some();
        if !already {
            let a = self.obj_mut(cid, oid).and_then(|e| e.data.array_mut());
            if !a.is_ok_and(|a| a.corrupt_at(offset)) {
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

    /// Flip one byte of EC parity cell `parity_idx` in the chunk
    /// holding `offset` (first hit only) and record it — the
    /// planted-rot hook for cells no logical byte offset addresses.
    /// Returns `false` for non-EC objects or out-of-range parity
    /// indices.
    pub fn inject_corrupt_parity(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        parity_idx: u64,
    ) -> bool {
        let rkey = (cid.0, oid);
        let Some((class, cs)) = self.obj(cid, oid).ok().and_then(|entry| {
            let cs = entry.data.array().ok()?.chunk_size();
            Some((entry.layout.class, cs))
        }) else {
            return false;
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
        let a = find_obj_mut(&mut self.containers, cid, oid).and_then(|e| e.data.array_mut());
        if !a.is_ok_and(|a| a.corrupt_parity_at(lo, parity_idx as usize, ec)) {
            return false;
        }
        self.rot
            .parity
            .entry(rkey)
            .or_default()
            .insert((lo, parity_idx));
        true
    }

    /// Flip a stored byte of a KV value's `shard`-th replica copy
    /// (first copy hit only) and record the hit replica.  Returns
    /// `false` for absent or Sized values.
    pub fn inject_corrupt_kv(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        key: &[u8],
        shard: u64,
    ) -> bool {
        let copies = match self.obj(cid, oid) {
            Ok(entry) => entry.layout.class.group_width() as u64,
            Err(_) => return false,
        };
        let rkey = (cid.0, oid);
        let already = self.rot.kv.get(&rkey).and_then(|m| m.get(key)).is_some();
        if !already {
            let kv = self.obj_mut(cid, oid).and_then(|e| e.data.kv_mut());
            if !kv.is_ok_and(|kv| kv.corrupt_value(key)) {
                return false;
            }
        }
        self.rot
            .kv
            .entry(rkey)
            .or_default()
            .entry(key.to_vec())
            .or_default()
            .insert(shard % copies);
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
                        let per_member = entry.layout.class.scan_share(bytes as f64);
                        let servable = group.iter().copied().filter(|&t| self.pool.is_servable(t));
                        self.cost.scan_read(b, servable, per_member);
                        wave_bytes += bytes;
                        if let Some(mm) = a.verify_chunk(c) {
                            rotten.push((cont, oid, ScrubRot::Chunk(mm)));
                        }
                    }
                    UnitRef::Key(kv, k) => {
                        let bytes = kv.get(k).map(|v| v.len()).unwrap_or(0);
                        let group = entry.layout.group_for(dkey_hash(k));
                        let servable = group.iter().copied().filter(|&t| self.pool.is_servable(t));
                        self.cost.scan_read(b, servable, (bytes as f64).max(64.0));
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
}

/// Wrap the parallel repair copies built in `moves` as a `csum.repair`
/// span ([`Step::Noop`] when the repair carried no billable movement,
/// e.g. no servable clean source).
fn repair_span(bytes: u64, moves: StepBuf) -> Step {
    Step::span("csum", "repair", bytes, moves.finish())
}
