//! Work descriptions: op chains built from delays and shared transfers.

use crate::time::SimTime;
use crate::units::Bytes;
use std::fmt;
use std::ops::Deref;

/// Identifier of a capacity resource registered with the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub u32);

/// The most resources one transfer crosses.  The longest modelled path
/// is a DAOS read: device, device pool, engine, server NIC, client NIC.
pub const MAX_HOPS: usize = 5;

/// The resources of one transfer, held inline: a transfer step and the
/// flow it becomes own no heap memory.  Derefs to `&[ResourceId]`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Path {
    len: u8,
    hops: [ResourceId; MAX_HOPS],
}

impl Path {
    /// A path over `hops`, in order.  A path longer than [`MAX_HOPS`]
    /// does not compile.
    ///
    /// ```compile_fail
    /// simkit::step::Path::new([simkit::ResourceId(0); 6]);
    /// ```
    pub fn new<const N: usize>(hops: [ResourceId; N]) -> Path {
        const {
            assert!(
                N <= MAX_HOPS,
                "a transfer crosses at most MAX_HOPS resources"
            )
        };
        let mut path = Path {
            len: N as u8,
            hops: [ResourceId(0); MAX_HOPS],
        };
        for (slot, hop) in path.hops.iter_mut().zip(hops) {
            *slot = hop;
        }
        path
    }
}

impl TryFrom<&[ResourceId]> for Path {
    type Error = usize;

    /// A path over a runtime-length hop list; `Err(len)` when it is
    /// longer than [`MAX_HOPS`].
    fn try_from(hops: &[ResourceId]) -> Result<Path, usize> {
        if hops.len() > MAX_HOPS {
            return Err(hops.len());
        }
        let mut path = Path::new([]);
        path.len = hops.len() as u8;
        path.hops[..hops.len()].copy_from_slice(hops);
        Ok(path)
    }
}

impl Deref for Path {
    type Target = [ResourceId];

    #[inline]
    fn deref(&self) -> &[ResourceId] {
        &self.hops[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a Path {
    type Item = &'a ResourceId;
    type IntoIter = std::slice::Iter<'a, ResourceId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One node of an op chain.
///
/// Storage clients translate logical operations ("write 1 MiB to Array
/// shard on target 12") into `Step` trees; the engine only ever sees
/// these trees, never storage semantics.
#[derive(Debug, Clone)]
pub enum Step {
    /// Completes immediately.  `Seq`/`Par` of nothing normalise to this.
    Noop,
    /// A fixed latency (CPU overhead, RPC round trip, device latency…).
    /// Not subject to sharing.
    Delay(SimTime),
    /// Move `units` through every resource in `path` simultaneously at
    /// the max-min fair rate.  Units are bytes for bandwidth resources
    /// and operations for service resources.
    Transfer { units: Bytes, path: Path },
    /// Run sub-steps one after the other.
    Seq(Vec<Step>),
    /// Run sub-steps concurrently; completes when all complete.
    Par(Vec<Step>),
    /// Annotate `inner` with a causal span: when span recording is
    /// enabled (see [`crate::span::SpanLog`]) the engine opens a span on
    /// entry and closes it when `inner` completes; parentage follows the
    /// dynamic nesting of span steps.  With recording off this costs one
    /// branch and executes `inner` directly.
    Span {
        /// Emitting layer ("dfuse", "libdaos", …).
        layer: &'static str,
        /// Operation within the layer ("write", "kv_put", …).
        op: &'static str,
        /// Payload bytes covered by the span (0 for metadata ops).
        bytes: u64,
        /// Retry attempt ordinal (0 = first try).
        attempt: u32,
        /// The annotated work.
        inner: Box<Step>,
    },
}

impl Step {
    /// A fixed delay of `d` (no-op when zero).
    ///
    /// Every latency of the simulator funnels through here, so it takes a
    /// [`SimTime`] and nothing else: a raw nanosecond count or a float of
    /// seconds does not compile.
    ///
    /// ```compile_fail
    /// simkit::Step::delay(5_000u64);
    /// ```
    ///
    /// ```compile_fail
    /// simkit::Step::delay(2.5e-6);
    /// ```
    #[inline]
    pub fn delay(d: SimTime) -> Step {
        if d == SimTime::ZERO {
            Step::Noop
        } else {
            Step::Delay(d)
        }
    }

    /// A shared transfer of `units` through `path`.
    ///
    /// Degenerate transfers (no units, or an empty path) normalise to
    /// [`Step::Noop`]: a zero-byte move takes no time, and a move that
    /// touches no modelled resource is a modelling error we make harmless.
    ///
    /// The amount is a [`Bytes`]; a [`Rate`](crate::units::Rate) or a raw
    /// float does not compile.
    ///
    /// ```compile_fail
    /// use simkit::{ResourceId, Rate, Step};
    /// Step::transfer(Rate(1e9), [ResourceId(0)]);
    /// ```
    ///
    /// ```compile_fail
    /// use simkit::{ResourceId, Step};
    /// Step::transfer(4096.0, [ResourceId(0)]);
    /// ```
    ///
    /// The path is an array of at most [`MAX_HOPS`] resources, held
    /// inline; a longer one does not compile.
    ///
    /// ```compile_fail
    /// use simkit::{Bytes, ResourceId, Step};
    /// Step::transfer(Bytes(1.0), [ResourceId(0); 6]);
    /// ```
    pub fn transfer<const N: usize>(units: Bytes, path: [ResourceId; N]) -> Step {
        if units.is_drained() || N == 0 {
            return Step::Noop;
        }
        debug_assert!(units.get().is_finite());
        Step::Transfer {
            units,
            path: Path::new(path),
        }
    }

    /// Sequential composition, dropping no-ops and flattening singletons.
    // simlint::allow(hot-alloc) — Step-tree construction allocates its child list by design; transfer paths are inline, so child lists and span boxes are a tree's only heap nodes
    pub fn seq(steps: impl IntoIterator<Item = Step>) -> Step {
        let mut v: Vec<Step> = steps.into_iter().filter(|s| !s.is_noop()).collect();
        match v.len() {
            0 => Step::Noop,
            1 => v.pop().unwrap_or(Step::Noop),
            _ => Step::Seq(v),
        }
    }

    /// Parallel composition, dropping no-ops and flattening singletons.
    // simlint::allow(hot-alloc) — Step-tree construction allocates its child list by design; transfer paths are inline, so child lists and span boxes are a tree's only heap nodes
    pub fn par(steps: impl IntoIterator<Item = Step>) -> Step {
        let mut v: Vec<Step> = steps.into_iter().filter(|s| !s.is_noop()).collect();
        match v.len() {
            0 => Step::Noop,
            1 => v.pop().unwrap_or(Step::Noop),
            _ => Step::Par(v),
        }
    }

    /// Append `next` after `self`, reusing an existing `Seq` spine.
    // simlint::allow(hot-alloc) — Step-tree construction allocates its Seq spine by design; transfer paths are inline, so child lists and span boxes are a tree's only heap nodes
    pub fn then(self, next: Step) -> Step {
        match (self, next) {
            (Step::Noop, n) => n,
            (s, Step::Noop) => s,
            (Step::Seq(mut v), Step::Seq(w)) => {
                v.extend(w);
                Step::Seq(v)
            }
            (Step::Seq(mut v), n) => {
                v.push(n);
                Step::Seq(v)
            }
            (s, Step::Seq(mut w)) => {
                w.insert(0, s);
                Step::Seq(w)
            }
            (s, n) => Step::Seq(vec![s, n]),
        }
    }

    /// Annotate `inner` with a causal span (see [`Step::Span`]).  A span
    /// around nothing normalises to [`Step::Noop`]: zero-duration spans
    /// would only add noise to traces and reports.
    pub fn span(layer: &'static str, op: &'static str, bytes: u64, inner: Step) -> Step {
        Step::span_attempt(layer, op, bytes, 0, inner)
    }

    /// Like [`Step::span`] with an explicit retry-attempt ordinal
    /// (non-zero marks work re-issued by a retry executor).
    // simlint::allow(hot-alloc) — the span wrapper boxes its inner step by design; transfer paths are inline, so child lists and span boxes are a tree's only heap nodes
    pub fn span_attempt(
        layer: &'static str,
        op: &'static str,
        bytes: u64,
        attempt: u32,
        inner: Step,
    ) -> Step {
        if inner.is_noop() {
            return Step::Noop;
        }
        Step::Span {
            layer,
            op,
            bytes,
            attempt,
            inner: Box::new(inner),
        }
    }

    /// True for steps that complete instantly.
    #[inline]
    pub fn is_noop(&self) -> bool {
        matches!(self, Step::Noop)
    }

    /// Sum of all transferred units in the tree (diagnostics/tests).
    pub fn total_units(&self) -> f64 {
        match self {
            Step::Noop | Step::Delay(_) => 0.0,
            Step::Transfer { units, .. } => units.get(),
            Step::Seq(v) | Step::Par(v) => v.iter().map(Step::total_units).sum(),
            Step::Span { inner, .. } => inner.total_units(),
        }
    }

    /// Sum of all fixed delays when executed sequentially (`Par` counts
    /// the maximum of its branches).  Diagnostics/tests only.
    pub fn critical_delay_ns(&self) -> u64 {
        match self {
            Step::Noop | Step::Transfer { .. } => 0,
            Step::Delay(d) => d.as_nanos(),
            Step::Seq(v) => v.iter().map(Step::critical_delay_ns).sum(),
            Step::Par(v) => v.iter().map(Step::critical_delay_ns).max().unwrap_or(0),
            Step::Span { inner, .. } => inner.critical_delay_ns(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u32) -> ResourceId {
        ResourceId(n)
    }

    #[test]
    fn degenerate_transfers_normalise() {
        assert!(Step::transfer(Bytes(0.0), [r(1)]).is_noop());
        assert!(Step::transfer(Bytes(10.0), []).is_noop());
        assert!(!Step::transfer(Bytes(10.0), [r(1)]).is_noop());
    }

    #[test]
    fn paths_hold_their_hops_inline() {
        let path = Path::new([r(3), r(1), r(4), r(1), r(5)]);
        assert_eq!(&*path, &[r(3), r(1), r(4), r(1), r(5)]);
        assert_eq!(format!("{:?}", Path::new([r(2)])), "[ResourceId(2)]");
        assert_eq!(
            Path::try_from(&[r(3), r(1)][..]),
            Ok(Path::new([r(3), r(1)]))
        );
        assert_eq!(Path::try_from(&[r(0); MAX_HOPS + 1][..]), Err(MAX_HOPS + 1));
        match Step::transfer(Bytes(1.0), [r(7), r(8)]) {
            Step::Transfer { path, .. } => assert_eq!(&*path, &[r(7), r(8)]),
            s => panic!("expected Transfer, got {s:?}"),
        }
    }

    #[test]
    fn seq_par_flatten() {
        assert!(Step::seq([]).is_noop());
        assert!(Step::par([Step::Noop, Step::Noop]).is_noop());
        match Step::seq([Step::delay(SimTime(5))]) {
            Step::Delay(SimTime(5)) => {}
            s => panic!("expected flattened delay, got {s:?}"),
        }
        match Step::seq([Step::delay(SimTime(5)), Step::Noop, Step::delay(SimTime(6))]) {
            Step::Seq(v) => assert_eq!(v.len(), 2),
            s => panic!("expected Seq, got {s:?}"),
        }
    }

    #[test]
    fn then_builds_flat_sequences() {
        let s = Step::delay(SimTime(1))
            .then(Step::delay(SimTime(2)))
            .then(Step::delay(SimTime(3)));
        match &s {
            Step::Seq(v) => assert_eq!(v.len(), 3),
            other => panic!("expected flat Seq, got {other:?}"),
        }
        assert_eq!(s.critical_delay_ns(), 6);
        assert!(Step::Noop.then(Step::Noop).is_noop());
    }

    #[test]
    fn totals() {
        let s = Step::seq([
            Step::transfer(Bytes(10.0), [r(0)]),
            Step::par([
                Step::transfer(Bytes(5.0), [r(1)]),
                Step::delay(SimTime(100)),
            ]),
        ]);
        assert!((s.total_units() - 15.0).abs() < 1e-12);
        assert_eq!(s.critical_delay_ns(), 100);
    }

    #[test]
    fn span_wraps_and_normalises() {
        assert!(Step::span("l", "o", 0, Step::Noop).is_noop());
        let s = Step::span("dfuse", "write", 8, Step::delay(SimTime(5)));
        assert_eq!(s.critical_delay_ns(), 5);
        match &s {
            Step::Span {
                layer,
                op,
                bytes,
                attempt,
                inner,
            } => {
                assert_eq!((*layer, *op, *bytes, *attempt), ("dfuse", "write", 8, 0));
                assert!(matches!(**inner, Step::Delay(SimTime(5))));
            }
            other => panic!("expected Span, got {other:?}"),
        }
        let t = Step::span("l", "o", 0, Step::transfer(Bytes(4.0), [r(1)]));
        assert!((t.total_units() - 4.0).abs() < 1e-12);
    }
}
