//! The always-on **replay digest** for determinism enforcement.
//!
//! The scheduler folds every op completion into an order-sensitive
//! FNV-1a hash of the `(time, op)` stream, together with each installed
//! fault schedule and each fired fault.  Two runs of the same workload
//! must produce the same digest; any divergence — a reordered
//! completion, a shifted timestamp — changes it.  This is the runtime
//! counterpart of the clippy bans in `crates/clippy.toml`: the lint
//! forbids sources of nondeterminism, the digest catches whatever slips
//! through.  (What a run did is inspected through spans and Chrome
//! traces, see [`crate::span`].)

use crate::engine::OpId;
use crate::time::SimTime;

/// Order-sensitive FNV-1a (64-bit) accumulator over `(time, op)` pairs.
///
/// FNV-1a folds each byte into the running state before multiplying by
/// the prime, so the digest depends on the exact byte *sequence*:
/// swapping two completions, or moving one in time, yields a different
/// value.  Not cryptographic — it guards against accidents, not
/// adversaries — but 64 bits is plenty to make silent schedule drift
/// visible in CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayDigest(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for ReplayDigest {
    fn default() -> Self {
        ReplayDigest(FNV_OFFSET)
    }
}

impl ReplayDigest {
    /// Fresh digest (FNV offset basis).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one completion event into the digest.
    pub fn update(&mut self, at: SimTime, op: OpId) {
        for b in at.0.to_le_bytes().into_iter().chain(op.0.to_le_bytes()) {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold one fired fault event into the digest.  A tag byte separates
    /// the fault stream from op completions, so a fault `(t, id)` can
    /// never collide with a completion `(t, OpId(id))`.
    pub fn update_fault(&mut self, at: SimTime, id: u64) {
        const FAULT_TAG: u8 = 0xFA;
        self.update_tagged(FAULT_TAG, at, id);
    }

    /// Fold a tagged `(time, value)` event.  Tag bytes partition distinct
    /// event streams (faults, span opens/closes/marks) so records from
    /// different streams can never collide byte-for-byte.
    pub(crate) fn update_tagged(&mut self, tag: u8, at: SimTime, v: u64) {
        self.0 = (self.0 ^ tag as u64).wrapping_mul(FNV_PRIME);
        for b in at.0.to_le_bytes().into_iter().chain(v.to_le_bytes()) {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold a raw byte string (length-prefixed, so `"ab" + "c"` and
    /// `"a" + "bc"` hash differently).
    pub(crate) fn update_bytes(&mut self, bytes: &[u8]) {
        for b in (bytes.len() as u64)
            .to_le_bytes()
            .into_iter()
            .chain(bytes.iter().copied())
        {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold an installed fault schedule (a *schedule header*): the plan's
    /// full canonical encoding (times, ids, actions with every parameter)
    /// enters the digest *before* any event fires.  A saved schedule
    /// therefore pins its run — replaying a schedule that differs in any
    /// field, even one that never fires because the run drains first,
    /// yields a different digest.
    pub(crate) fn update_schedule(&mut self, events: &[crate::faults::FaultEvent]) {
        const SCHEDULE_TAG: u8 = 0x5C;
        self.update_tagged(SCHEDULE_TAG, SimTime(0), events.len() as u64);
        let mut bytes = Vec::with_capacity(events.len() * 41);
        for ev in events {
            ev.encode(&mut bytes);
        }
        self.update_bytes(&bytes);
    }

    /// The current digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        let (a, b) = (
            (SimTime::from_millis(1), OpId(1)),
            (SimTime::from_millis(2), OpId(2)),
        );
        let mut fwd = ReplayDigest::new();
        fwd.update(a.0, a.1);
        fwd.update(b.0, b.1);
        let mut rev = ReplayDigest::new();
        rev.update(b.0, b.1);
        rev.update(a.0, a.1);
        assert_ne!(
            fwd.value(),
            rev.value(),
            "swapped completions must change the digest"
        );
        // Shifting a timestamp changes it too.
        let mut shifted = ReplayDigest::new();
        shifted.update(SimTime::from_millis(3), a.1);
        shifted.update(b.0, b.1);
        assert_ne!(fwd.value(), shifted.value());
    }

    #[test]
    fn digest_is_stable_across_runs() {
        let run = || {
            let mut d = ReplayDigest::new();
            for i in 0..1000u64 {
                d.update(SimTime::from_millis(i * 7), OpId(i));
            }
            d.value()
        };
        assert_eq!(
            run(),
            run(),
            "identical event streams must hash identically"
        );
        assert_ne!(run(), ReplayDigest::new().value());
    }
}
