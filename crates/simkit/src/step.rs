//! Work descriptions: op programs built from delays and shared transfers.
//!
//! A [`Step`] is nothing ([`Step::Noop`]), one leaf the engine starts
//! directly — a fixed [`Step::Delay`] or a shared [`Step::Transfer`] —
//! or a [`Program`]: one contiguous node buffer holding a whole
//! composition in pre-order.  A `Seq`, `Par` or `Span` node carries the
//! length of its subtree, so its children are the range that follows
//! it; leaves sit inline.  Builders normalise as they go: no-ops vanish,
//! a group of nothing vanishes with them, and a `Seq`/`Par` of one child
//! is that child.
//!
//! Program buffers come from a bounded per-thread free list and go back
//! to it when the program is dropped — by the engine once the op no
//! longer needs it, or by a builder that gave up half way — so a warm
//! op builds and runs its program without a heap allocation whenever
//! the list has a buffer for it (89–99.5% of requests on the benchmark
//! workloads, DESIGN.md §17).  [`StepBuf`] appends a composition
//! straight into one buffer; [`Step::seq`], [`Step::par`],
//! [`Step::then`] and [`Step::span`] compose finished steps, copying a
//! child program once into the new one.

use crate::time::SimTime;
use crate::units::Bytes;
use std::cell::RefCell;
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

/// One leaf of an op program: the work the engine starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Leaf {
    /// A fixed latency (see [`Step::Delay`]).
    Delay(SimTime),
    /// A shared transfer (see [`Step::Transfer`]).
    Transfer {
        /// Units moved: bytes, or operations on a service resource.
        units: Bytes,
        /// Resources crossed, all at once.
        path: Path,
    },
}

impl Leaf {
    /// The leaf as a step of its own.
    fn step(self) -> Step {
        match self {
            Leaf::Delay(d) => Step::Delay(d),
            Leaf::Transfer { units, path } => Step::Transfer { units, path },
        }
    }
}

/// One node of a [`Program`], in pre-order.  A group node's `len`
/// counts the nodes of its subtree after it, so its children are
/// `index + 1 .. index + 1 + len`.  48 bytes: a span keeps its retry
/// attempt in 16 bits, which fits beside the tag.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Node {
    Leaf(Leaf),
    /// Children run one after the other.
    Seq {
        len: u32,
    },
    /// `n` children run concurrently; done when all are.
    Par {
        len: u32,
        n: u32,
    },
    /// One child annotated with a causal span (see [`Step::span`]).
    Span {
        len: u32,
        /// Retry attempt ordinal, saturated at `u16::MAX`.
        attempt: u16,
        bytes: u64,
        layer: &'static str,
        op: &'static str,
    },
}

impl Node {
    /// The head of a span over a subtree of `len` nodes.
    fn span(layer: &'static str, op: &'static str, bytes: u64, attempt: u32, len: u32) -> Node {
        Node::Span {
            len,
            attempt: attempt.min(u16::MAX as u32) as u16,
            bytes,
            layer,
            op,
        }
    }

    /// Nodes in this node's subtree after it (0 for a leaf).
    #[inline]
    fn len(&self) -> u32 {
        match *self {
            Node::Leaf(_) => 0,
            Node::Seq { len } | Node::Par { len, .. } | Node::Span { len, .. } => len,
        }
    }

    fn set_len(&mut self, new: u32) {
        match self {
            Node::Leaf(_) => debug_assert!(false, "a leaf has no subtree"),
            Node::Seq { len } | Node::Par { len, .. } | Node::Span { len, .. } => *len = new,
        }
    }
}

/// The per-thread free list of program buffers.
mod pool {
    use super::{Node, RefCell};

    /// Buffers with more room than this many nodes are freed, not kept:
    /// a scrub or rebuild wave must not pin its size in every later op.
    pub(super) const MAX_NODES: usize = 256;
    /// At most this many buffers wait for reuse.  The list only ever
    /// holds buffers that were live at once, so this caps it when a
    /// phase ends with every process's op released together.  Sixteen
    /// already serves 89–99.5% of requests on the benchmark workloads;
    /// room for every process of a lock-step run (DESIGN.md §17) adds
    /// resident memory, not speed.
    pub(super) const MAX_BUFFERS: usize = 16;

    thread_local! {
        static FREE: RefCell<Vec<Vec<Node>>> = const { RefCell::new(Vec::new()) };
    }

    /// An empty buffer, reused when one is free.
    #[inline]
    pub(super) fn take() -> Vec<Node> {
        // `try_with` fails only during thread teardown
        FREE.try_with(|f| f.borrow_mut().pop())
            .ok()
            .flatten()
            .unwrap_or_default()
    }

    /// Hand `nodes` back for reuse, or free it when it is oversized or
    /// the list is full.
    #[inline]
    pub(super) fn give(mut nodes: Vec<Node>) {
        if nodes.capacity() == 0 || nodes.capacity() > MAX_NODES {
            return;
        }
        nodes.clear();
        let _ = FREE.try_with(|f| {
            let mut free = f.borrow_mut();
            // the list's own growth is amortized: it grows only while
            // more buffers are live at once than ever before
            if free.len() < MAX_BUFFERS {
                free.push(nodes);
            }
        });
    }

    /// Buffers waiting on this thread's free list (tests).
    #[cfg(test)]
    pub(super) fn free_len() -> usize {
        FREE.with(|f| f.borrow().len())
    }
}

/// A composite op: `Seq`/`Par`/`Span` groups over leaves, flattened into
/// one pooled node buffer in pre-order (see the [module docs](self)).
/// Built only through [`StepBuf`] and the [`Step`] combinators, so its
/// first node is always a group whose subtree is the whole buffer, and
/// it holds no no-op and no `Seq`/`Par` of fewer than two children.
pub struct Program {
    nodes: Vec<Node>,
}

impl Program {
    /// The nodes, in pre-order.
    #[inline]
    fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Node `i`, if the program has one.
    #[inline]
    pub(crate) fn node(&self, i: u32) -> Option<Node> {
        self.nodes.get(i as usize).copied()
    }

    /// Index of the sibling after the subtree rooted at node `i`.
    #[inline]
    pub(crate) fn next_sibling(&self, i: u32) -> u32 {
        i + 1 + self.node(i).map_or(0, |n| n.len())
    }

    fn is_seq(&self) -> bool {
        matches!(self.nodes.first(), Some(Node::Seq { .. }))
    }

    /// The nodes after the root: its children's subtrees.
    fn children(&self) -> &[Node] {
        self.nodes.get(1..).unwrap_or_default()
    }

    /// Make the root's subtree the whole buffer again after an edit.
    fn seal(&mut self) {
        let len = self.nodes.len() as u32 - 1;
        if let Some(root) = self.nodes.first_mut() {
            root.set_len(len);
        }
    }
}

impl Drop for Program {
    fn drop(&mut self) {
        pool::give(std::mem::take(&mut self.nodes));
    }
}

impl Clone for Program {
    fn clone(&self) -> Program {
        let mut nodes = pool::take();
        nodes.extend_from_slice(&self.nodes);
        Program { nodes }
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.nodes).finish()
    }
}

/// Work an op does, as the engine runs it.
///
/// Storage clients translate logical operations ("write 1 MiB to Array
/// shard on target 12") into steps; the engine only ever sees these,
/// never storage semantics.
#[derive(Debug, Clone)]
pub enum Step {
    /// Completes immediately.  Builders drop it, so a group of nothing
    /// normalises to this.
    Noop,
    /// A fixed latency (CPU overhead, RPC round trip, device latency…).
    /// Not subject to sharing.
    Delay(SimTime),
    /// Move `units` through every resource in `path` simultaneously at
    /// the max-min fair rate.  Units are bytes for bandwidth resources
    /// and operations for service resources.
    Transfer { units: Bytes, path: Path },
    /// A composition of sequences, parallel groups and spans (see
    /// [`Program`]).
    Program(Program),
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
    pub fn seq(steps: impl IntoIterator<Item = Step>) -> Step {
        let mut b = StepBuf::new();
        b.seq(|b| steps.into_iter().for_each(|s| b.push(s)));
        b.finish()
    }

    /// Parallel composition, dropping no-ops and flattening singletons.
    pub fn par(steps: impl IntoIterator<Item = Step>) -> Step {
        let mut b = StepBuf::new();
        b.par(|b| steps.into_iter().for_each(|s| b.push(s)));
        b.finish()
    }

    /// Append `next` after `self`, reusing an existing sequence: a
    /// sequence on either side takes the other side into its buffer.
    pub fn then(self, next: Step) -> Step {
        match (self, next) {
            (Step::Noop, n) => n,
            (s, Step::Noop) => s,
            (Step::Program(mut p), n) if p.is_seq() => {
                match &n {
                    Step::Program(q) if q.is_seq() => p.nodes.extend_from_slice(q.children()),
                    _ => push_nodes(&mut p.nodes, n),
                }
                p.seal();
                Step::Program(p)
            }
            (s, Step::Program(mut q)) if q.is_seq() => {
                let tail = q.nodes.len();
                push_nodes(&mut q.nodes, s);
                // move the new head in front of the old children
                let moved = q.nodes.len() - tail;
                if let Some(kids) = q.nodes.get_mut(1..) {
                    kids.rotate_right(moved);
                }
                q.seal();
                Step::Program(q)
            }
            (s, n) => {
                // neither side is a sequence or a no-op: a sequence of
                // exactly these two, as `Step::seq` builds it, without
                // the builder's group bookkeeping (a delay then a
                // transfer is the commonest small op)
                let mut nodes = pool::take();
                nodes.push(Node::Seq { len: 0 });
                push_nodes(&mut nodes, s);
                push_nodes(&mut nodes, n);
                let mut p = Program { nodes };
                p.seal();
                Step::Program(p)
            }
        }
    }

    /// Annotate `inner` with a causal span: when span recording is
    /// enabled (see [`crate::span::SpanLog`]) the engine opens a span on
    /// entry and closes it when `inner` completes; parentage follows the
    /// dynamic nesting of spans.  With recording off the span is one
    /// node the engine steps over.  A span around nothing normalises to
    /// [`Step::Noop`]: zero-duration spans would only add noise to
    /// traces and reports.
    pub fn span(layer: &'static str, op: &'static str, bytes: u64, inner: Step) -> Step {
        Step::span_attempt(layer, op, bytes, 0, inner)
    }

    /// Like [`Step::span`] with an explicit retry-attempt ordinal
    /// (non-zero marks work re-issued by a retry executor).
    pub fn span_attempt(
        layer: &'static str,
        op: &'static str,
        bytes: u64,
        attempt: u32,
        inner: Step,
    ) -> Step {
        let head = |len: usize| Node::span(layer, op, bytes, attempt, len as u32);
        match inner {
            Step::Noop => Step::Noop,
            Step::Program(mut p) => {
                let len = p.nodes.len();
                p.nodes.insert(0, head(len));
                Step::Program(p)
            }
            leaf => {
                let mut nodes = pool::take();
                nodes.push(head(1));
                push_nodes(&mut nodes, leaf);
                Step::Program(Program { nodes })
            }
        }
    }

    /// True for steps that complete instantly.
    #[inline]
    pub fn is_noop(&self) -> bool {
        matches!(self, Step::Noop)
    }

    /// Every leaf of the step, in the order the engine starts them when
    /// no group waits on another: a linear scan of the program.
    pub fn leaves(&self) -> impl Iterator<Item = Leaf> + '_ {
        let (own, nodes): (Option<Leaf>, &[Node]) = match self {
            Step::Noop => (None, &[]),
            Step::Delay(d) => (Some(Leaf::Delay(*d)), &[]),
            Step::Transfer { units, path } => (
                Some(Leaf::Transfer {
                    units: *units,
                    path: *path,
                }),
                &[],
            ),
            Step::Program(p) => (None, p.nodes()),
        };
        own.into_iter().chain(nodes.iter().filter_map(|n| match n {
            Node::Leaf(leaf) => Some(*leaf),
            _ => None,
        }))
    }

    /// Sum of all transferred units in the step (diagnostics/tests).
    pub fn total_units(&self) -> f64 {
        self.leaves()
            .map(|leaf| match leaf {
                Leaf::Transfer { units, .. } => units.get(),
                Leaf::Delay(_) => 0.0,
            })
            .sum()
    }

    /// Sum of all fixed delays when executed sequentially (`Par` counts
    /// the maximum of its branches).  One forward scan that folds each
    /// group into its parent when the scan leaves it.  Diagnostics/tests
    /// only.
    pub fn critical_delay_ns(&self) -> u64 {
        let nodes = match self {
            Step::Noop | Step::Transfer { .. } => return 0,
            Step::Delay(d) => return d.as_nanos(),
            Step::Program(p) => p.nodes(),
        };
        // open groups: (end index, is a Par, delay so far)
        let mut open: Vec<(usize, bool, u64)> = Vec::new();
        let mut total = 0;
        let fold =
            |open: &mut Vec<(usize, bool, u64)>, total: &mut u64, d: u64| match open.last_mut() {
                Some((_, true, acc)) => *acc = (*acc).max(d),
                Some((_, false, acc)) => *acc += d,
                None => *total += d,
            };
        for (i, node) in nodes.iter().enumerate() {
            while let Some(&(end, _, acc)) = open.last() {
                if end > i {
                    break;
                }
                open.pop();
                fold(&mut open, &mut total, acc);
            }
            match node {
                Node::Leaf(Leaf::Delay(d)) => fold(&mut open, &mut total, d.as_nanos()),
                Node::Leaf(Leaf::Transfer { .. }) => {}
                Node::Par { len, .. } => open.push((i + 1 + *len as usize, true, 0)),
                Node::Seq { len } | Node::Span { len, .. } => {
                    open.push((i + 1 + *len as usize, false, 0))
                }
            }
        }
        while let Some((_, _, acc)) = open.pop() {
            fold(&mut open, &mut total, acc);
        }
        total
    }
}

/// Append `step`'s nodes to `nodes`; a program's buffer goes back to the
/// free list.
fn push_nodes(nodes: &mut Vec<Node>, step: Step) {
    match step {
        Step::Noop => {}
        Step::Delay(d) => nodes.push(Node::Leaf(Leaf::Delay(d))),
        Step::Transfer { units, path } => nodes.push(Node::Leaf(Leaf::Transfer { units, path })),
        Step::Program(p) => nodes.extend_from_slice(&p.nodes),
    }
}

/// Builds one op program in place: groups open and close around a
/// closure that appends their children, so nested layers of one op
/// write into a single pooled buffer instead of each building a step
/// of its own.  The top level is a sequence: [`StepBuf::finish`] of
/// several pushed steps runs them one after the other.
///
/// ```
/// use simkit::{Bytes, ResourceId, SimTime, Step, StepBuf};
/// let mut b = StepBuf::new();
/// b.span("libdaos", "kv_put", 64, |b| {
///     b.push(Step::delay(SimTime(500)));
///     b.par(|b| {
///         for r in [ResourceId(0), ResourceId(1)] {
///             b.push(Step::transfer(Bytes(64.0), [r]));
///         }
///     });
/// });
/// let step = b.finish();
/// assert_eq!(step.critical_delay_ns(), 500);
/// assert_eq!(step.total_units(), 128.0);
/// ```
pub struct StepBuf {
    nodes: Vec<Node>,
    /// Items at the innermost open level so far.
    count: u32,
}

impl Default for StepBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl StepBuf {
    /// An empty builder over a buffer from the free list.
    #[inline]
    pub fn new() -> StepBuf {
        StepBuf {
            nodes: pool::take(),
            count: 0,
        }
    }

    /// Append `step` at the current level; a no-op adds nothing.
    #[inline]
    pub fn push(&mut self, step: Step) {
        if !step.is_noop() {
            push_nodes(&mut self.nodes, step);
            self.count += 1;
        }
    }

    /// Move the items of `other` to the current level, after those
    /// already there: a layer can build part of a group before it
    /// knows what comes first.
    #[inline]
    pub fn append(&mut self, mut other: StepBuf) {
        self.nodes.extend_from_slice(&other.nodes);
        self.count += std::mem::take(&mut other.count);
    }

    /// A sequence of what `f` appends.
    #[inline]
    pub fn seq<R>(&mut self, f: impl FnOnce(&mut StepBuf) -> R) -> R {
        self.group(Node::Seq { len: 0 }, f)
    }

    /// A parallel group of what `f` appends.
    #[inline]
    pub fn par<R>(&mut self, f: impl FnOnce(&mut StepBuf) -> R) -> R {
        self.group(Node::Par { len: 0, n: 0 }, f)
    }

    /// A span (see [`Step::span`]) around what `f` appends, run in
    /// sequence.
    #[inline]
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        op: &'static str,
        bytes: u64,
        f: impl FnOnce(&mut StepBuf) -> R,
    ) -> R {
        self.span_attempt(layer, op, bytes, 0, f)
    }

    /// [`StepBuf::span`] with a retry-attempt ordinal.
    #[inline]
    pub fn span_attempt<R>(
        &mut self,
        layer: &'static str,
        op: &'static str,
        bytes: u64,
        attempt: u32,
        f: impl FnOnce(&mut StepBuf) -> R,
    ) -> R {
        self.group(Node::span(layer, op, bytes, attempt, 0), |b| b.seq(f))
    }

    fn group<R>(&mut self, head: Node, f: impl FnOnce(&mut StepBuf) -> R) -> R {
        let start = self.nodes.len();
        let outer = std::mem::replace(&mut self.count, 0);
        self.nodes.push(head);
        let r = f(self);
        let n = std::mem::replace(&mut self.count, outer);
        self.close(start, n);
        r
    }

    /// Normalise and seal the group opened at `start` with `n` children
    /// (a span's one child is the sequence of what was appended).
    fn close(&mut self, start: usize, n: u32) {
        let len = (self.nodes.len() - start - 1) as u32;
        match (n, self.nodes.get_mut(start)) {
            (0, _) => {
                self.nodes.truncate(start);
                return;
            }
            (1, Some(Node::Seq { .. } | Node::Par { .. })) => {
                self.nodes.remove(start);
            }
            (_, Some(head)) => {
                if let Node::Par { n: k, .. } = head {
                    *k = n;
                }
                head.set_len(len);
            }
            (_, None) => debug_assert!(false, "closing a group that was never opened"),
        }
        self.count += 1;
    }

    /// The finished step: nothing, one leaf, or a program (a sequence
    /// when several steps were pushed at the top level).
    pub fn finish(mut self) -> Step {
        match self.count {
            0 => Step::Noop,
            1 => match self.nodes.as_slice() {
                &[Node::Leaf(leaf)] => leaf.step(),
                _ => Step::Program(Program {
                    nodes: std::mem::take(&mut self.nodes),
                }),
            },
            _ => {
                let len = self.nodes.len() as u32;
                self.nodes.insert(0, Node::Seq { len });
                Step::Program(Program {
                    nodes: std::mem::take(&mut self.nodes),
                })
            }
        }
    }
}

impl Drop for StepBuf {
    fn drop(&mut self) {
        pool::give(std::mem::take(&mut self.nodes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u32) -> ResourceId {
        ResourceId(n)
    }

    /// The step as a compact string: `seq(..)`/`par(..)` over the
    /// children, `span:op(..)`, `d<ns>` and `t<units>`.
    fn shape(s: &Step) -> String {
        fn node(n: &Node, nodes: &[Node], i: usize) -> String {
            match n {
                Node::Leaf(Leaf::Delay(d)) => format!("d{}", d.as_nanos()),
                Node::Leaf(Leaf::Transfer { units, .. }) => format!("t{}", units.get()),
                Node::Span { op, .. } => {
                    format!("span:{op}({})", node(&nodes[i + 1], nodes, i + 1))
                }
                Node::Seq { len } | Node::Par { len, .. } => {
                    let kind = if matches!(n, Node::Seq { .. }) {
                        "seq"
                    } else {
                        "par"
                    };
                    let mut kids = Vec::new();
                    let mut j = i as u32 + 1;
                    while j < i as u32 + 1 + len {
                        kids.push(node(&nodes[j as usize], nodes, j as usize));
                        j += 1 + nodes[j as usize].len();
                    }
                    format!("{kind}({})", kids.join(","))
                }
            }
        }
        match s {
            Step::Noop => "noop".into(),
            Step::Delay(d) => format!("d{}", d.as_nanos()),
            Step::Transfer { units, .. } => format!("t{}", units.get()),
            Step::Program(p) => {
                assert_eq!(
                    p.nodes[0].len() as usize + 1,
                    p.nodes.len(),
                    "root spans the buffer"
                );
                node(&p.nodes[0], &p.nodes, 0)
            }
        }
    }

    fn d(ns: u64) -> Step {
        Step::delay(SimTime(ns))
    }

    #[test]
    fn nodes_are_48_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 48);
        let s = Step::span_attempt("l", "o", 0, u32::MAX, d(1));
        let Step::Program(p) = &s else {
            panic!("expected a program, got {s:?}")
        };
        assert!(matches!(
            p.nodes()[0],
            Node::Span {
                attempt: u16::MAX,
                ..
            }
        ));
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
        assert_eq!(shape(&Step::seq([d(5)])), "d5");
        assert_eq!(shape(&Step::seq([d(5), Step::Noop, d(6)])), "seq(d5,d6)");
        let inner = Step::par([d(1), d(2)]);
        assert_eq!(shape(&Step::seq([Step::Noop, inner])), "par(d1,d2)");
        assert_eq!(
            shape(&Step::par([
                Step::seq([d(1), d(2)]),
                d(3),
                Step::par([d(4)])
            ])),
            "par(seq(d1,d2),d3,d4)"
        );
    }

    #[test]
    fn then_builds_flat_sequences() {
        let s = d(1).then(d(2)).then(d(3));
        assert_eq!(shape(&s), "seq(d1,d2,d3)");
        assert_eq!(s.critical_delay_ns(), 6);
        assert!(Step::Noop.then(Step::Noop).is_noop());
        let joined = Step::seq([d(1), d(2)]).then(Step::seq([d(3), d(4)]));
        assert_eq!(shape(&joined), "seq(d1,d2,d3,d4)");
        let front = Step::par([d(1), d(2)]).then(Step::seq([d(3), d(4)]));
        assert_eq!(shape(&front), "seq(par(d1,d2),d3,d4)");
        let back = Step::seq([d(1), d(2)]).then(Step::par([d(3), d(4)]));
        assert_eq!(shape(&back), "seq(d1,d2,par(d3,d4))");
        let spanned = Step::span("l", "o", 0, d(1)).then(d(2));
        assert_eq!(shape(&spanned), "seq(span:o(d1),d2)");
        let pars = Step::par([d(1), d(2)]).then(Step::par([d(3), d(4)]));
        assert_eq!(shape(&pars), "seq(par(d1,d2),par(d3,d4))");
        let leaf_first = d(1).then(Step::par([d(2), d(3)]));
        assert_eq!(shape(&leaf_first), "seq(d1,par(d2,d3))");
        let two = d(1).then(Step::transfer(Bytes(8.0), [r(0)]));
        assert_eq!(
            shape(&two),
            shape(&Step::seq([d(1), Step::transfer(Bytes(8.0), [r(0)])]))
        );
    }

    #[test]
    fn totals() {
        let s = Step::seq([
            Step::transfer(Bytes(10.0), [r(0)]),
            Step::par([Step::transfer(Bytes(5.0), [r(1)]), d(100)]),
        ]);
        assert!((s.total_units() - 15.0).abs() < 1e-12);
        assert_eq!(s.critical_delay_ns(), 100);
        let nested = Step::seq([
            d(1),
            Step::par([Step::seq([d(10), d(20)]), Step::span("l", "o", 0, d(25))]),
            d(2),
        ]);
        assert_eq!(nested.critical_delay_ns(), 33);
    }

    #[test]
    fn span_wraps_and_normalises() {
        assert!(Step::span("l", "o", 0, Step::Noop).is_noop());
        let s = Step::span("dfuse", "write", 8, d(5));
        assert_eq!(s.critical_delay_ns(), 5);
        let Step::Program(p) = &s else {
            panic!("expected a program, got {s:?}")
        };
        match p.nodes() {
            [Node::Span {
                len: 1,
                attempt: 0,
                bytes: 8,
                layer: "dfuse",
                op: "write",
            }, Node::Leaf(Leaf::Delay(SimTime(5)))] => {}
            other => panic!("expected span over d5, got {other:?}"),
        }
        let t = Step::span("l", "o", 0, Step::transfer(Bytes(4.0), [r(1)]));
        assert!((t.total_units() - 4.0).abs() < 1e-12);
        let nested = Step::span(
            "a",
            "x",
            0,
            Step::span("b", "y", 0, Step::seq([d(1), d(2)])),
        );
        assert_eq!(shape(&nested), "span:x(span:y(seq(d1,d2)))");
    }

    #[test]
    fn builder_appends_in_place_and_normalises() {
        let mut b = StepBuf::new();
        b.span("libdaos", "kv_put", 64, |b| {
            b.push(d(1));
            b.par(|b| {
                b.push(Step::Noop);
                b.span("target", "write", 64, |b| {
                    b.push(Step::transfer(Bytes(64.0), [r(0)]));
                    b.push(d(2));
                });
            });
            b.par(|_| {});
            b.seq(|b| b.push(d(3)));
        });
        assert_eq!(
            shape(&b.finish()),
            "span:kv_put(seq(d1,span:write(seq(t64,d2)),d3))"
        );
        let mut b = StepBuf::new();
        b.push(d(1));
        b.push(Step::par([d(2), d(3)]));
        assert_eq!(shape(&b.finish()), "seq(d1,par(d2,d3))");
        let mut b = StepBuf::new();
        b.par(|b| b.push(Step::transfer(Bytes(1.0), [r(0)])));
        assert!(matches!(b.finish(), Step::Transfer { .. }));
        let mut tail = StepBuf::new();
        tail.push(d(2));
        tail.push(Step::seq([d(3), d(4)]));
        let mut b = StepBuf::new();
        b.par(|b| {
            b.push(d(1));
            b.append(tail);
        });
        assert_eq!(shape(&b.finish()), "par(d1,d2,seq(d3,d4))");
        assert!(StepBuf::new().finish().is_noop());
    }

    #[test]
    fn leaves_walk_the_program_in_order() {
        let s = Step::seq([
            d(1),
            Step::span(
                "l",
                "o",
                0,
                Step::par([Step::transfer(Bytes(2.0), [r(0)]), d(3)]),
            ),
        ]);
        let leaves: Vec<Leaf> = s.leaves().collect();
        assert_eq!(
            leaves,
            [
                Leaf::Delay(SimTime(1)),
                Leaf::Transfer {
                    units: Bytes(2.0),
                    path: Path::new([r(0)])
                },
                Leaf::Delay(SimTime(3)),
            ]
        );
        assert_eq!(d(4).leaves().count(), 1);
        assert_eq!(Step::Noop.leaves().count(), 0);
    }

    #[test]
    fn buffers_return_to_the_free_list() {
        // a fresh thread starts with an empty list
        std::thread::spawn(|| {
            let s = Step::seq([d(1), d(2)]);
            assert_eq!(pool::free_len(), 0);
            let c = s.clone();
            drop(s);
            drop(c);
            assert_eq!(pool::free_len(), 2, "never more than were live at once");
            let s = Step::par([d(1), d(2)]);
            assert_eq!(pool::free_len(), 1, "built from a free buffer");
            drop(s);
            let big = Step::seq((1..=pool::MAX_NODES as u64 + 1).map(d));
            assert_eq!(pool::free_len(), 1);
            drop(big);
            assert_eq!(pool::free_len(), 1, "oversized buffers are freed");
            let held: Vec<Step> = (0..pool::MAX_BUFFERS + 4)
                .map(|_| Step::seq([d(1), d(2)]))
                .collect();
            drop(held);
            assert_eq!(pool::free_len(), pool::MAX_BUFFERS);
        })
        .join()
        .unwrap();
    }
}
