//! The durability and redundancy oracles: an acked-write ledger read
//! back through the API after quiescence, a post-rebuild redundancy
//! check, and a planted-violation hook the oracle self-tests use.

use super::{DaosError, DaosSystem};
use crate::class::ObjectClass;
use crate::container::ContainerId;
use crate::ledger::{
    content_digest, AckedValue, DurabilityLedger, OracleKind, OracleReport, Violation,
};
use crate::oid::Oid;
use cluster::payload::ReadPayload;
use simkit::Step;

impl DaosSystem {
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
            let v = self.audit(*cid, *oid, subject, acked, |s| {
                s.kv_get(client, *cid, *oid, key)
            });
            report.violations.extend(v);
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
                let v = self.audit(*cid, *oid, subject, acked, |s| {
                    s.array_read(client, *cid, *oid, offset, acked.len())
                });
                report.violations.extend(v);
            }
        }
        report
    }

    /// Read one acked value back with `read` and judge it: the
    /// violation it shows, if any.
    fn audit(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        subject: String,
        acked: &AckedValue,
        mut read: impl FnMut(&mut Self) -> Result<(ReadPayload, Step), DaosError>,
    ) -> Option<Violation> {
        let mut got = read(self);
        // first touches of crashed targets fail once per client;
        // detection is monotone per (client, target), so the retry
        // budget is the number of down targets in the *current* map,
        // re-read each attempt — membership changes (drained servers
        // retired mid-audit, servers added) neither inflate nor starve
        // it
        let mut detections = 0;
        while matches!(got, Err(DaosError::TargetDown)) && detections < self.down_targets() {
            detections += 1;
            got = read(self);
        }
        let (oracle, detail) = match got {
            Ok((read, _step)) => {
                let detail = content_mismatch(acked, &read)?;
                (self.mismatch_kind(cid, oid), detail)
            }
            Err(DaosError::BadChecksum) => (
                OracleKind::Corruption,
                format!(
                    "acked {} bytes, checksum mismatch with rot beyond redundancy",
                    acked.len()
                ),
            ),
            Err(e) => (
                OracleKind::AckedDurability,
                format!("acked {} bytes, read failed: {e:?}", acked.len()),
            ),
        };
        Some(Violation {
            oracle,
            subject,
            detail,
        })
    }

    /// Targets of the current map that cannot serve I/O.  Only these can
    /// hold an undetected crash, so they bound the auditor's retry
    /// budget ([`DaosSystem::verify_durability`]).
    fn down_targets(&self) -> usize {
        self.pool.total_targets() - self.pool.servable_count()
    }

    /// Classify a read-back content mismatch: rot the registry still
    /// names is **Corruption** — bytes silently wrong, not lost; a
    /// mismatch on a redundant class otherwise means fail-over or
    /// reconstruction served bad bytes; on a plain class it is a
    /// straight durability loss.
    fn mismatch_kind(&self, cid: ContainerId, oid: Oid) -> OracleKind {
        if self.rot.touches(cid, oid) {
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
        let kv = self.obj_mut(cid, oid).and_then(|e| e.data.kv_mut());
        kv.is_ok_and(|kv| kv.remove(key))
    }
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
