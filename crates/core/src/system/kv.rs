//! The Key-Value API: create, put, get, remove and list.

use super::{check_detection, dkey_hash, find_obj, find_obj_mut, DaosError, DaosSystem};
use crate::class::ObjectClass;
use crate::container::ContainerId;
use crate::data::{KvData, ObjData};
use crate::ledger::DurabilityLedger;
use crate::oid::{Oid, FLAG_KV};
use cluster::payload::{Payload, ReadPayload};
use simkit::{Step, StepBuf};

impl DaosSystem {
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
        self.obj_create(cid, class, FLAG_KV, ObjData::Kv(KvData::new()))
    }

    /// Insert/update a key.  The value lands on the dkey's shard group;
    /// replicated classes write every replica in parallel.
    pub fn kv_put(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
        key: &[u8],
        value: Payload,
    ) -> Result<Step, DaosError> {
        let bytes = value.len() as f64;
        self.kv_update(client, cid, oid, key, ("kv_put", bytes), |kv, ledger| {
            // copy for the ledger before the payload moves into the store
            if let Some(l) = ledger {
                l.record_kv_put(cid, oid, key, &value);
            }
            kv.put(key, value);
            Ok(())
        })
    }

    /// Fetch a key's value.  Reads from the first up replica.  One
    /// object lookup on the clean path; a repair looks the object up
    /// again after it.
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
        let verdict = entry.data.kv()?.verify(key);
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
        let value = entry.data.kv()?.get(key).ok_or(DaosError::NoSuchKey)?;
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
        self.kv_update(client, cid, oid, key, ("kv_remove", 0.0), |kv, ledger| {
            if !kv.remove(key) {
                return Err(DaosError::NoSuchKey);
            }
            if let Some(l) = ledger {
                l.record_kv_remove(cid, oid, key);
            }
            Ok(())
        })
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
        let keys = entry.data.kv()?.list(prefix);
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

    /// Apply `update` to a key's value and build the `(op, bytes)`
    /// span that writes it to every servable replica: one object
    /// lookup, the store updated and the cost chain built from the same
    /// borrow.  Degraded writes land on the servable members only
    /// (drained and reintegrating targets still accept updates for
    /// shards they hold); a fully-down group cannot accept the update.
    /// The value (and its checksum) is replaced wholesale, so latent rot
    /// in the old value is healed: its registry entry goes before it
    /// could mis-direct a later repair re-flip.
    fn kv_update(
        &mut self,
        client: usize,
        cid: ContainerId,
        oid: Oid,
        key: &[u8],
        (op, bytes): (&'static str, f64),
        update: impl FnOnce(&mut KvData, Option<&mut DurabilityLedger>) -> Result<(), DaosError>,
    ) -> Result<Step, DaosError> {
        let entry = find_obj_mut(&mut self.containers, cid, oid)?;
        let group = entry.layout.group_for(dkey_hash(key));
        check_detection(&mut self.undetected, client, group)?;
        if !group.iter().any(|&t| self.pool.is_servable(t)) {
            return Err(DaosError::Unavailable);
        }
        update(entry.data.kv_mut()?, self.ledger.as_mut())?;
        self.rot.clear_kv(cid, oid, key);
        let mut b = StepBuf::new();
        b.span("libdaos", op, bytes as u64, |b| {
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
}
