//! Causal span tracing: a per-run log of `(layer, op)` intervals forming
//! a tree per submitted I/O.
//!
//! A span node of an op program ([`Step::span`](crate::step::Step::span))
//! annotates the subtree it heads; when span recording is enabled the
//! engine opens a [`SpanRecord`] on entry and closes it when the wrapped
//! work completes.
//! Parentage follows the *dynamic* nesting of span steps — the nearest
//! enclosing open span at `exec` time — which matches the real call path
//! each interface crate models (IOR → POSIX → DFUSE → DFS → libdaos →
//! target, …), so one completed op yields one causal tree.
//!
//! Ids are allocated deterministically in `exec` order, and every span
//! open/close (plus fault marks) folds into a dedicated FNV-1a **span
//! digest** — the same machinery as the replay digest, kept separate so
//! enabling tracing never perturbs the `(time, op)` completion digest.
//! Two traced runs of the same workload must report identical span
//! digests; a drifting span id, start or end time changes the value.
//!
//! Off by default: with recording disabled a span is one node the
//! engine steps over, and it allocates nothing, mirroring the
//! completion trace.

use crate::time::SimTime;
use crate::trace::ReplayDigest;

/// Identifier of an open or closed span.  `SpanId::NONE` (zero) means
/// "no enclosing span" — the parent of every root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span (parent of roots).
    pub const NONE: SpanId = SpanId(0);

    /// True for [`SpanId::NONE`].
    #[inline]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// One completed (or still-open) span interval.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// This span's id (1-based; index into the log is `id - 1`).
    pub id: SpanId,
    /// Nearest enclosing span at open time; `NONE` for roots.
    pub parent: SpanId,
    /// Root of this span's tree (its own id for roots).
    pub root: SpanId,
    /// Layer that emitted the span ("dfuse", "libdaos", "target", …).
    pub layer: &'static str,
    /// Operation within the layer ("write", "kv_put", "rebuild", …).
    pub op: &'static str,
    /// Payload bytes moved under this span (0 for metadata ops).
    pub bytes: u64,
    /// Retry attempt ordinal (0 = first try; >0 marks retried work).
    pub attempt: u32,
    /// Open time.
    pub start: SimTime,
    /// Close time; [`SimTime::NEVER`] while still open.
    pub end: SimTime,
}

impl SpanRecord {
    /// Duration in nanoseconds (zero while the span is still open).
    #[inline]
    pub fn duration_ns(&self) -> u64 {
        if self.end == SimTime::NEVER {
            0
        } else {
            self.end.nanos_since(self.start)
        }
    }

    /// True once the span has been closed.
    #[inline]
    pub fn is_closed(&self) -> bool {
        self.end != SimTime::NEVER
    }
}

/// An instantaneous event pinned to the span timeline (fired faults).
#[derive(Debug, Clone, Copy)]
pub struct SpanMark {
    /// Firing time.
    pub at: SimTime,
    /// Fault event id (see [`crate::faults::FaultEvent`]).
    pub fault_id: u64,
    /// Enclosing span, if any (faults are global today: `NONE`).
    pub span: SpanId,
}

// Digest tag bytes separating the three span event streams from each
// other and from the completion/fault streams of the replay digest.
const TAG_OPEN: u8 = 0x51;
const TAG_CLOSE: u8 = 0x52;
const TAG_MARK: u8 = 0x53;

/// The per-run span log: records, fault marks, and the span digest.
#[derive(Debug, Default)]
pub struct SpanLog {
    enabled: bool,
    records: Vec<SpanRecord>,
    marks: Vec<SpanMark>,
    digest: ReplayDigest,
}

impl SpanLog {
    /// A log that records nothing (the default; one branch of overhead).
    pub fn disabled() -> SpanLog {
        SpanLog::default()
    }

    /// A recording log.
    pub fn recording() -> SpanLog {
        SpanLog {
            enabled: true,
            ..SpanLog::default()
        }
    }

    /// Whether spans are recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span; returns its id.  Ids are dense and 1-based, so the
    /// record lives at `records[id - 1]` and close is O(1).
    pub(crate) fn open(
        &mut self,
        at: SimTime,
        parent: SpanId,
        layer: &'static str,
        op: &'static str,
        bytes: u64,
        attempt: u32,
    ) -> SpanId {
        debug_assert!(self.enabled, "open() on a disabled SpanLog");
        let id = SpanId(self.records.len() as u64 + 1);
        let root = if parent.is_none() {
            id
        } else {
            self.records[parent.0 as usize - 1].root
        };
        self.digest.update_tagged(TAG_OPEN, at, id.0);
        self.digest.update_bytes(layer.as_bytes());
        self.digest.update_bytes(op.as_bytes());
        self.records.push(SpanRecord {
            id,
            parent,
            root,
            layer,
            op,
            bytes,
            attempt,
            start: at,
            end: SimTime::NEVER,
        });
        id
    }

    /// Close span `id` at `at`.
    pub(crate) fn close(&mut self, at: SimTime, id: SpanId) {
        debug_assert!(!id.is_none());
        self.digest.update_tagged(TAG_CLOSE, at, id.0);
        if let Some(rec) = self.records.get_mut(id.0 as usize - 1) {
            rec.end = at;
        }
    }

    /// Record an instantaneous fault mark on the span timeline.
    pub(crate) fn mark_fault(&mut self, at: SimTime, fault_id: u64, span: SpanId) {
        if !self.enabled {
            return;
        }
        self.digest.update_tagged(TAG_MARK, at, fault_id);
        self.marks.push(SpanMark { at, fault_id, span });
    }

    /// All spans in id order (open spans have `end == SimTime::NEVER`).
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// All fault marks in firing order.
    pub fn marks(&self) -> &[SpanMark] {
        &self.marks
    }

    /// Number of spans opened so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no span has been opened.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Order-sensitive FNV-1a digest of every span open/close and fault
    /// mark.  Separate from the replay digest: enabling tracing changes
    /// this value only, never the `(time, op)` completion digest.
    pub fn digest(&self) -> u64 {
        self.digest.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_is_empty_and_stable() {
        let log = SpanLog::disabled();
        assert!(!log.is_enabled());
        assert!(log.is_empty());
        assert_eq!(log.digest(), SpanLog::disabled().digest());
    }

    #[test]
    fn parentage_and_roots() {
        let mut log = SpanLog::recording();
        let a = log.open(SimTime::ZERO, SpanId::NONE, "ior", "write", 8, 0);
        let b = log.open(SimTime::from_nanos(1), a, "dfuse", "write", 8, 0);
        let c = log.open(SimTime::from_nanos(2), b, "libdaos", "array_write", 8, 0);
        log.close(SimTime::from_nanos(5), c);
        log.close(SimTime::from_nanos(7), b);
        log.close(SimTime::from_nanos(9), a);
        let recs = log.records();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].parent, SpanId::NONE);
        assert_eq!(recs[0].root, a);
        assert_eq!(recs[2].parent, b);
        assert_eq!(recs[2].root, a);
        assert_eq!(recs[2].duration_ns(), 3);
        assert!(recs.iter().all(SpanRecord::is_closed));
    }

    #[test]
    fn digest_tracks_span_stream() {
        let run = |shift: u64| {
            let mut log = SpanLog::recording();
            let a = log.open(SimTime::from_nanos(shift), SpanId::NONE, "l", "o", 0, 0);
            log.close(SimTime::from_nanos(shift + 4), a);
            log.digest()
        };
        assert_eq!(run(0), run(0), "identical span streams hash identically");
        assert_ne!(run(0), run(1), "a shifted span changes the digest");
    }

    #[test]
    fn fault_marks_fold_into_digest() {
        let mut a = SpanLog::recording();
        let mut b = SpanLog::recording();
        a.mark_fault(SimTime::from_nanos(3), 7, SpanId::NONE);
        assert_ne!(a.digest(), b.digest());
        b.mark_fault(SimTime::from_nanos(3), 7, SpanId::NONE);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.marks().len(), 1);
    }
}
