//! The Array API: create, write, read, and get or set the size.

use super::{
    check_detection, chunk_dkey_hash, ec_for, find_obj, find_obj_mut, DaosError, DaosSystem,
};
use crate::class::ObjectClass;
use crate::container::ContainerId;
use crate::data::{ArrayData, ObjData};
use crate::oid::Oid;
use crate::pool::Layout;
use cluster::payload::{Payload, ReadPayload};
use simkit::{Step, StepBuf};

impl DaosSystem {
    /// Create an Array object.  Object creation is client-local in DAOS:
    /// the OID is generated and the layout computed without any RPC.
    pub fn array_create(
        &mut self,
        _client: usize,
        cid: ContainerId,
        class: ObjectClass,
        chunk_size: u64,
    ) -> Result<(Oid, Step), DaosError> {
        self.obj_create(cid, class, 0, ObjData::Array(ArrayData::new(chunk_size)))
    }

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
        let entry = find_obj(&self.containers, cid, oid)?;
        let (layout, class) = (&entry.layout, entry.layout.class);
        let group_bytes = GroupBytes::of(entry.data.array()?, layout, offset, len);
        // fault detection and write availability, before the mutation:
        // a failing write must leave the store untouched so a retry
        // re-executes cleanly
        for &(g, _) in group_bytes.entries() {
            check_detection(&mut self.undetected, client, layout.group(g))?;
        }
        for &(g, _) in group_bytes.entries() {
            if !class.serves(layout.group(g), |t| self.pool.is_servable(t)) {
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
            entry.data.array_mut()?.write(offset, &payload, mode, ec);
        }
        if let Some(l) = self.ledger.as_mut() {
            l.record_array_write(cid, oid, offset, &payload);
        }
        // build the cost chain
        let layout = &self.obj(cid, oid)?.layout;
        let mut encode_bytes = 0.0;
        if let ObjectClass::ErasureCoded { .. } = class {
            for &(_, bytes) in group_bytes.entries() {
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
                for &(g, bytes) in group_bytes.entries() {
                    // degraded mode: down replicas (and cells) receive
                    // nothing until rebuild re-protects the group
                    let cell = class.member_share(bytes);
                    b.par(|b| {
                        for &t in layout
                            .group(g)
                            .iter()
                            .filter(|&&t| self.pool.is_servable(t))
                        {
                            self.cost.write_to_target(b, client, t, cell);
                        }
                    });
                }
            });
        });
        Ok(b.finish())
    }

    /// Read `len` bytes at `offset`.  Replicated chunks fail over to an
    /// up replica; erasure-coded chunks with lost cells read `k`
    /// surviving cells and pay a reconstruction delay.
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
            let a = entry.data.array()?;
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
        let arr = entry.data.array()?;
        let avail = |chunk: u64| {
            class.availability(layout.group_for(chunk_dkey_hash(chunk)), |t| {
                pool.is_servable(t)
            })
        };
        let data = arr.read(offset, len, mode, ec, &avail)?;
        // cost: per touched group, read bytes from the serving target(s)
        let group_bytes = GroupBytes::of(arr, layout, offset, len);
        let mut b = StepBuf::new();
        b.span("libdaos", "array_read", len, |b| {
            b.push(self.cost.client_overhead());
            b.push(self.cost.rtt());
            b.push(repair);
            let mut decode_bytes = 0.0;
            b.par(|b| {
                for &(g, bytes) in group_bytes.entries() {
                    let group = layout.group(g);
                    if let ObjectClass::Sharded(_) | ObjectClass::ShardedMax = class {
                        self.cost.read_from_target(b, client, group[0], bytes);
                        continue;
                    }
                    // healthy: read the first `k` cells (the first
                    // replica); degraded: any `k` servable ones, and
                    // erasure coding reconstructs
                    let k = class.data_members();
                    let healthy = group[..k].iter().all(|&t| pool.is_servable(t));
                    if !healthy {
                        if group.iter().filter(|&&t| pool.is_servable(t)).count() < k {
                            return Err(DaosError::Unavailable);
                        }
                        if let ObjectClass::ErasureCoded { .. } = class {
                            decode_bytes += bytes;
                        }
                    }
                    let cell = class.member_share(bytes);
                    let sources = if healthy { &group[..k] } else { group };
                    b.par(|b| {
                        let sources = sources.iter().filter(|&&t| healthy || pool.is_servable(t));
                        for &t in sources.take(k) {
                            self.cost.read_from_target(b, client, t, cell);
                        }
                    });
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
        let size = entry.data.array()?.size();
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
        let a = entry.data.array_mut()?;
        a.set_size(size);
        let cs = a.chunk_size();
        // truncation drops whole chunks; their rot entries must go with
        // them (the registry only ever names still-flipped bytes)
        let cut = size.div_ceil(cs) * cs;
        self.rot.retain_offsets(cid, oid, |o| o < cut);
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
}

/// Shard groups an op on this many or fewer keeps inline.
const INLINE_GROUPS: usize = 8;

/// The bytes an array range puts on each shard group it touches, in
/// ascending group order: the order the op's per-group children start
/// in.  Up to [`INLINE_GROUPS`] groups need no heap allocation.
#[derive(Default)]
struct GroupBytes {
    len: usize,
    inline: [(usize, f64); INLINE_GROUPS],
    /// All entries, once more groups than fit inline are touched.
    spill: Vec<(usize, f64)>,
}

impl GroupBytes {
    /// Sum `[offset, offset + len)` of `arr` per shard group of `layout`.
    fn of(arr: &ArrayData, layout: &Layout, offset: u64, len: u64) -> GroupBytes {
        let mut gb = GroupBytes::default();
        let cs = arr.chunk_size();
        for chunk in arr.chunks_in_range(offset, len) {
            let c_start = chunk * cs;
            let seg = (offset + len).min(c_start + cs) - offset.max(c_start);
            gb.add(layout.group_index(chunk_dkey_hash(chunk)), seg as f64);
        }
        gb
    }

    fn add(&mut self, g: usize, bytes: f64) {
        if self.spill.is_empty() {
            let live = &mut self.inline[..self.len];
            match live.binary_search_by_key(&g, |e| e.0) {
                Ok(i) => return live[i].1 += bytes,
                Err(i) if self.len < INLINE_GROUPS => {
                    self.inline.copy_within(i..self.len, i + 1);
                    self.inline[i] = (g, bytes);
                    self.len += 1;
                    return;
                }
                Err(_) => self.spill.extend_from_slice(live),
            }
        }
        match self.spill.binary_search_by_key(&g, |e| e.0) {
            Ok(i) => self.spill[i].1 += bytes,
            Err(i) => self.spill.insert(i, (g, bytes)),
        }
    }

    /// `(group, bytes)` in ascending group order.
    fn entries(&self) -> &[(usize, f64)] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Past the inline capacity the map spills and keeps its order and
    /// sums: the same entries a `BTreeMap` gives.
    #[test]
    fn group_bytes_match_an_ordered_map() {
        for groups in [1u64, 3, INLINE_GROUPS as u64, 9, 40] {
            let mut gb = GroupBytes::default();
            let mut want: BTreeMap<usize, f64> = BTreeMap::new();
            for c in 0..200u64 {
                let g = (chunk_dkey_hash(c) % groups) as usize;
                let bytes = (c % 7 + 1) as f64 * 0.5;
                gb.add(g, bytes);
                *want.entry(g).or_default() += bytes;
            }
            let want: Vec<(usize, f64)> = want.into_iter().collect();
            assert_eq!(gb.entries(), &want[..], "{groups} groups");
        }
    }
}
