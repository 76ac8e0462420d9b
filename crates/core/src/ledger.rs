//! Durability ledger + invariant oracle reports.
//!
//! The chaos swarm's correctness contract is simple to state: **every
//! acknowledged write is still readable — with the right content —
//! after crashes, brownouts and rebuild**.  The
//! [`DurabilityLedger`] is the bookkeeping half of that contract: a
//! shadow record of every acknowledged mutation (KV puts/removes, Array
//! extent writes, punches), updated by [`crate::DaosSystem`] at the
//! exact point an operation commits.  After the fault schedule has
//! played out and the pool is rebuilt, the verification half
//! (`DaosSystem::verify_durability` and friends) reads every ledger
//! entry back through the owning interface and files a [`Violation`]
//! for anything missing, wrong, or unservable.
//!
//! The ledger is **not** simulation state: it is an oracle's notebook,
//! disabled by default and never consulted by any data path, so
//! enabling it cannot change a run's schedule or its replay digest.
//! Array extents are kept non-overlapping (later writes trim earlier
//! ones, mirroring last-writer-wins byte semantics), so verification
//! reads exactly the bytes the application was last acknowledged for.

use crate::container::ContainerId;
use crate::oid::Oid;
use cluster::payload::Payload;
use std::collections::BTreeMap;

/// FNV-1a over a byte string: the content digest stored for acked
/// writes in Full data mode (64 bits: guards against accidents, not
/// adversaries — same stance as the replay digest).
pub fn content_digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What the application was last acknowledged for at one ledger slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AckedValue {
    /// Real bytes (Full data mode): verified by content.
    Bytes(Vec<u8>),
    /// Logical length only (Sized mode): verified by readability and
    /// reported length.
    Sized(u64),
}

impl AckedValue {
    /// Logical length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            AckedValue::Bytes(b) => b.len() as u64,
            AckedValue::Sized(n) => *n,
        }
    }

    /// True when the value is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn from_payload(p: &Payload) -> AckedValue {
        match p {
            Payload::Bytes(b) => AckedValue::Bytes(b.clone()),
            Payload::Sized(n) => AckedValue::Sized(*n),
        }
    }
}

/// Shadow record of acknowledged mutations, keyed the way verification
/// reads them back: KV entries by `(container, object, key)`, Array
/// data by `(container, object)` → non-overlapping extents.
#[derive(Debug, Clone, Default)]
pub struct DurabilityLedger {
    kv: BTreeMap<(ContainerId, Oid, Vec<u8>), AckedValue>,
    extents: BTreeMap<(ContainerId, Oid), BTreeMap<u64, AckedValue>>,
}

impl DurabilityLedger {
    /// Empty ledger.
    pub fn new() -> DurabilityLedger {
        DurabilityLedger::default()
    }

    /// Record an acknowledged `kv_put`.
    pub fn record_kv_put(&mut self, cid: ContainerId, oid: Oid, key: &[u8], value: &Payload) {
        self.kv
            .insert((cid, oid, key.to_vec()), AckedValue::from_payload(value));
    }

    /// Record an acknowledged `kv_remove`.
    pub fn record_kv_remove(&mut self, cid: ContainerId, oid: Oid, key: &[u8]) {
        self.kv.remove(&(cid, oid, key.to_vec()));
    }

    /// Record an acknowledged `array_write` of `payload` at `offset`,
    /// trimming any previously-acked extents it overlaps
    /// (last-writer-wins, byte for byte).
    pub fn record_array_write(
        &mut self,
        cid: ContainerId,
        oid: Oid,
        offset: u64,
        payload: &Payload,
    ) {
        let len = payload.len();
        if len == 0 {
            return;
        }
        let map = self.extents.entry((cid, oid)).or_default();
        Self::carve(map, offset, len);
        map.insert(offset, AckedValue::from_payload(payload));
    }

    /// Remove `[offset, offset + len)` from an extent map, splitting
    /// extents that straddle the boundary.
    fn carve(map: &mut BTreeMap<u64, AckedValue>, offset: u64, len: u64) {
        let end = offset + len;
        // Candidate extents: the last one starting at or before `offset`
        // plus everything starting inside the carved range.
        let mut touched: Vec<u64> = map
            .range(..=offset)
            .next_back()
            .map(|(&s, _)| s)
            .into_iter()
            .chain(map.range(offset..end).map(|(&s, _)| s))
            .collect();
        touched.dedup();
        for start in touched {
            let Some(v) = map.get(&start) else { continue };
            let v_end = start + v.len();
            if v_end <= offset || start >= end {
                continue; // no overlap after all
            }
            let v = map.remove(&start).unwrap_or(AckedValue::Sized(0));
            // Left remainder: [start, offset)
            if start < offset {
                let keep = (offset - start) as usize;
                let left = match &v {
                    AckedValue::Bytes(b) => AckedValue::Bytes(b[..keep.min(b.len())].to_vec()),
                    AckedValue::Sized(_) => AckedValue::Sized(keep as u64),
                };
                map.insert(start, left);
            }
            // Right remainder: [end, v_end)
            if v_end > end {
                let skip = (end - start) as usize;
                let right = match &v {
                    AckedValue::Bytes(b) => AckedValue::Bytes(b[skip.min(b.len())..].to_vec()),
                    AckedValue::Sized(_) => AckedValue::Sized(v_end - end),
                };
                map.insert(end, right);
            }
        }
    }

    /// Record an acknowledged `obj_punch`: every acked entry of the
    /// object is forgotten.
    pub fn record_punch(&mut self, cid: ContainerId, oid: Oid) {
        self.kv.retain(|(c, o, _), _| !(*c == cid && *o == oid));
        self.extents.remove(&(cid, oid));
    }

    /// Record an acknowledged `array_set_size` truncation to `size`.
    pub fn record_truncate(&mut self, cid: ContainerId, oid: Oid, size: u64) {
        if let Some(map) = self.extents.get_mut(&(cid, oid)) {
            let tail = map.last_key_value().map(|(&s, v)| s + v.len()).unwrap_or(0);
            if tail > size {
                Self::carve(map, size, tail - size);
            }
        }
    }

    /// Record a container destroy: all its acked entries are forgotten.
    pub fn record_cont_destroy(&mut self, cid: ContainerId) {
        self.kv.retain(|(c, _, _), _| *c != cid);
        self.extents.retain(|(c, _), _| *c != cid);
    }

    /// Acked KV entries, in key order.
    pub fn kv_entries(&self) -> impl Iterator<Item = (&(ContainerId, Oid, Vec<u8>), &AckedValue)> {
        self.kv.iter()
    }

    /// Acked Array extents per object, in offset order.
    pub fn extent_entries(
        &self,
    ) -> impl Iterator<Item = (&(ContainerId, Oid), &BTreeMap<u64, AckedValue>)> {
        self.extents.iter()
    }

    /// Total acked entries (KV entries + extents).
    pub fn len(&self) -> usize {
        self.kv.len() + self.extents.values().map(|m| m.len()).sum::<usize>()
    }

    /// True when nothing has been acknowledged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Oracle reports
// ---------------------------------------------------------------------------

/// Which invariant a violation falls under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// An acknowledged write is gone or unservable.
    AckedDurability,
    /// An acknowledged write reads back with the wrong content
    /// (replication fail-over or EC reconstruction returned bad bytes).
    Reconstruction,
    /// An acknowledged write is silently wrong or unservable because of
    /// bit-rot beyond what the class redundancy can repair — bytes
    /// *corrupted*, as distinct from bytes *lost*.
    Corruption,
    /// A shard group still has down members after rebuild (the pool
    /// never restored full redundancy).
    RedundancyRestored,
    /// Field I/O's KV index disagrees with its Array data.
    FieldIoConsistency,
    /// A DFS inode is unreachable from the root.
    NamespaceConnectivity,
    /// Replaying the same schedule produced a different digest.
    Determinism,
}

impl OracleKind {
    /// Stable lowercase name (used in reports and swarm JSON).
    pub fn name(&self) -> &'static str {
        match self {
            OracleKind::AckedDurability => "acked_durability",
            OracleKind::Reconstruction => "reconstruction",
            OracleKind::Corruption => "corruption",
            OracleKind::RedundancyRestored => "redundancy_restored",
            OracleKind::FieldIoConsistency => "fieldio_consistency",
            OracleKind::NamespaceConnectivity => "namespace_connectivity",
            OracleKind::Determinism => "determinism",
        }
    }
}

/// One invariant violation, precise enough to act on without re-running.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The invariant that failed.
    pub oracle: OracleKind,
    /// Where: human-readable locator (container/object/key or extent).
    pub subject: String,
    /// What went wrong (expected vs observed).
    pub detail: String,
}

/// Outcome of an oracle pass: what was checked and what failed.
#[derive(Debug, Clone, Default)]
pub struct OracleReport {
    /// KV entries read back.
    pub checked_kv: usize,
    /// Array extents read back.
    pub checked_extents: usize,
    /// Shard groups inspected for redundancy.
    pub checked_groups: usize,
    /// Everything that failed.
    pub violations: Vec<Violation>,
}

impl OracleReport {
    /// True when every checked invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fold another report into this one (summing coverage counters and
    /// concatenating violations).
    pub fn merge(&mut self, other: OracleReport) {
        self.checked_kv += other.checked_kv;
        self.checked_extents += other.checked_extents;
        self.checked_groups += other.checked_groups;
        self.violations.extend(other.violations);
    }

    /// Text rendering: a coverage line plus one line per violation.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "oracle pass: {} kv entries, {} extents, {} groups checked — {}",
            self.checked_kv,
            self.checked_extents,
            self.checked_groups,
            if self.ok() {
                "all invariants hold".to_string()
            } else {
                format!("{} violation(s)", self.violations.len())
            }
        );
        for v in &self.violations {
            let _ = writeln!(out, "  [{}] {}: {}", v.oracle.name(), v.subject, v.detail);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cid() -> ContainerId {
        ContainerId(0)
    }

    fn oid() -> Oid {
        Oid { hi: 0, lo: 1 }
    }

    #[test]
    fn kv_ledger_tracks_last_ack() {
        let mut l = DurabilityLedger::new();
        l.record_kv_put(cid(), oid(), b"k", &Payload::Bytes(vec![1]));
        l.record_kv_put(cid(), oid(), b"k", &Payload::Bytes(vec![2]));
        assert_eq!(l.len(), 1);
        let (_, v) = l.kv_entries().next().unwrap();
        assert_eq!(v, &AckedValue::Bytes(vec![2]));
        l.record_kv_remove(cid(), oid(), b"k");
        assert!(l.is_empty());
    }

    #[test]
    fn overlapping_extents_are_trimmed_last_writer_wins() {
        let mut l = DurabilityLedger::new();
        l.record_array_write(cid(), oid(), 0, &Payload::Bytes(vec![1; 100]));
        l.record_array_write(cid(), oid(), 40, &Payload::Bytes(vec![2; 20]));
        let (_, map) = l.extent_entries().next().unwrap();
        let spans: Vec<(u64, u64, u8)> = map
            .iter()
            .map(|(&s, v)| match v {
                AckedValue::Bytes(b) => (s, b.len() as u64, b[0]),
                AckedValue::Sized(n) => (s, *n, 0),
            })
            .collect();
        assert_eq!(spans, vec![(0, 40, 1), (40, 20, 2), (60, 40, 1)]);
    }

    #[test]
    fn carve_handles_full_cover_and_sized_extents() {
        let mut l = DurabilityLedger::new();
        l.record_array_write(cid(), oid(), 10, &Payload::Sized(30));
        l.record_array_write(cid(), oid(), 0, &Payload::Sized(100));
        let (_, map) = l.extent_entries().next().unwrap();
        assert_eq!(map.len(), 1, "the later write covers the earlier one");
        assert_eq!(map.get(&0), Some(&AckedValue::Sized(100)));
    }

    #[test]
    fn punch_and_destroy_forget_entries() {
        let mut l = DurabilityLedger::new();
        l.record_kv_put(cid(), oid(), b"a", &Payload::Sized(1));
        l.record_array_write(cid(), oid(), 0, &Payload::Sized(10));
        l.record_punch(cid(), oid());
        assert!(l.is_empty());
        l.record_kv_put(cid(), oid(), b"a", &Payload::Sized(1));
        l.record_cont_destroy(cid());
        assert!(l.is_empty());
    }

    #[test]
    fn truncate_trims_acked_tail() {
        let mut l = DurabilityLedger::new();
        l.record_array_write(cid(), oid(), 0, &Payload::Bytes(vec![7; 100]));
        l.record_truncate(cid(), oid(), 60);
        let (_, map) = l.extent_entries().next().unwrap();
        assert_eq!(map.get(&0), Some(&AckedValue::Bytes(vec![7; 60])));
    }

    #[test]
    fn content_digest_separates_contents() {
        assert_ne!(content_digest(b"abc"), content_digest(b"abd"));
        assert_ne!(content_digest(b""), content_digest(b"\0"));
        assert_eq!(content_digest(b"abc"), content_digest(b"abc"));
    }

    #[test]
    fn report_render_lists_violations() {
        let mut r = OracleReport {
            checked_kv: 3,
            ..OracleReport::default()
        };
        assert!(r.ok());
        r.violations.push(Violation {
            oracle: OracleKind::AckedDurability,
            subject: "cont 0 obj 1 key \"k\"".into(),
            detail: "acked 2 bytes, read NoSuchKey".into(),
        });
        assert!(!r.ok());
        let text = r.render();
        assert!(text.contains("acked_durability"));
        assert!(text.contains("1 violation"));
        let mut other = OracleReport::default();
        other.merge(r.clone());
        assert_eq!(other.violations.len(), 1);
        assert_eq!(other.checked_kv, 3);
    }
}
