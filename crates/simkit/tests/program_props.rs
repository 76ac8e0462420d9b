//! Property tests for op programs (vendored proptest shim): random
//! compositions built through `Step::seq`/`par`/`then`/`span` and
//! `StepBuf` — with no-ops, single-child groups and nested spans —
//! run on the engine and are checked against an analytic oracle
//! computed from the generator's own tree:
//!
//! - a delay-only program completes at exactly its critical path (sum
//!   over a sequence, maximum over a parallel group);
//! - a transfer-only program whose transfers each cross a resource of
//!   their own completes at the same critical path over `units / cap`;
//! - a program's replay digest is the same with span recording on and
//!   off.

use proptest::prelude::*;
use simkit::{run, Bytes, OpId, ResourceId, Scheduler, SimTime, SplitMix64, Step, StepBuf, World};

/// A composition as the generator draws it.
#[derive(Debug)]
enum Tree {
    Noop,
    /// A leaf of this weight of work.
    Leaf(u64),
    Seq(Vec<Tree>),
    Par(Vec<Tree>),
    Span(Box<Tree>),
    Then(Box<Tree>, Box<Tree>),
}

/// A random tree at most `depth` groups deep.  Groups have 0–4 children
/// so empty and single-child groups are common.
fn tree(rng: &mut SplitMix64, depth: u32) -> Tree {
    let pick = if depth == 0 { 0 } else { rng.next_below(8) };
    match pick {
        0..=2 => match rng.next_below(6) {
            0 => Tree::Noop,
            _ => Tree::Leaf(1 + rng.next_below(1_000)),
        },
        3 | 4 => {
            let kids = (0..rng.next_below(5))
                .map(|_| tree(rng, depth - 1))
                .collect();
            if pick == 3 {
                Tree::Seq(kids)
            } else {
                Tree::Par(kids)
            }
        }
        5 => Tree::Span(Box::new(tree(rng, depth - 1))),
        6 => Tree::Span(Box::new(Tree::Span(Box::new(tree(rng, depth - 1))))),
        _ => Tree::Then(
            Box::new(tree(rng, depth - 1)),
            Box::new(tree(rng, depth - 1)),
        ),
    }
}

impl Tree {
    /// The oracle: the time from submission to completion, in leaf
    /// weight (nanoseconds for a delay leaf, `TICK_NS` for a transfer).
    fn critical_ns(&self) -> u64 {
        match self {
            Tree::Noop => 0,
            Tree::Leaf(ns) => *ns,
            Tree::Seq(kids) => kids.iter().map(Tree::critical_ns).sum(),
            Tree::Par(kids) => kids.iter().map(Tree::critical_ns).max().unwrap_or(0),
            Tree::Span(inner) => inner.critical_ns(),
            Tree::Then(a, b) => a.critical_ns() + b.critical_ns(),
        }
    }

    /// Build the step, turning each leaf into work through `leaf`; the
    /// rng picks between the `Step` combinators and a `StepBuf`.
    fn build(&self, rng: &mut SplitMix64, leaf: &mut impl FnMut(u64) -> Step) -> Step {
        match self {
            Tree::Noop => Step::Noop,
            Tree::Leaf(ns) => leaf(*ns),
            Tree::Seq(kids) | Tree::Par(kids) => {
                let par = matches!(self, Tree::Par(_));
                let steps: Vec<Step> = kids.iter().map(|k| k.build(rng, leaf)).collect();
                if rng.next_below(2) == 0 {
                    return if par {
                        Step::par(steps)
                    } else {
                        Step::seq(steps)
                    };
                }
                let mut b = StepBuf::new();
                let fill = |b: &mut StepBuf| steps.into_iter().for_each(|s| b.push(s));
                if par {
                    b.par(fill);
                } else {
                    b.seq(fill);
                }
                b.finish()
            }
            Tree::Span(inner) => {
                let inner = inner.build(rng, leaf);
                if rng.next_below(2) == 0 {
                    Step::span("prop", "span", 0, inner)
                } else {
                    let mut b = StepBuf::new();
                    b.span_attempt("prop", "span", 0, 1, |b| b.push(inner));
                    b.finish()
                }
            }
            Tree::Then(a, b) => {
                let a = a.build(rng, leaf);
                a.then(b.build(rng, leaf))
            }
        }
    }
}

struct Done(Option<SimTime>);
impl World for Done {
    fn on_op_complete(&mut self, _op: OpId, sched: &mut Scheduler) {
        self.0 = Some(sched.now());
    }
}

/// Run `step` alone; its completion time and the replay digest.
fn complete(mut sched: Scheduler, step: Step) -> (SimTime, u64) {
    sched.submit(step, OpId(1));
    let mut done = Done(None);
    run(&mut sched, &mut done);
    (done.0.expect("the op completes"), sched.digest())
}

/// Resource capacity in units/s, and the units a transfer moves per
/// unit of leaf weight.  A weight-`w` transfer alone on its resource
/// takes `w × TICK_NS` ns, and every product and quotient the engine
/// forms on the way (seconds, settled units, deadlines) is exact in
/// binary floating point, so the oracle can demand exact times.
const CAP: f64 = (1u64 << 30) as f64;
const UNITS_PER_WEIGHT: f64 = (1u64 << 21) as f64;
/// `2^21 / 2^30` s = 1/512 s.
const TICK_NS: u64 = 1_953_125;

/// The tree of `seed` with its leaves as transfers, and a scheduler
/// with the resources they cross.  `Disjoint` gives each transfer a
/// resource of its own; `Mixed` makes every other leaf a delay and
/// shares three resources among the transfers, so flows contend.  A
/// leaf of weight `w` moves `w × UNITS_PER_WEIGHT` units.
fn program(seed: u64, form: Form, spans: bool) -> (Tree, Scheduler, Step) {
    let mut rng = SplitMix64::new(seed);
    let t = tree(&mut rng, 4);
    let mut sched = Scheduler::new();
    if spans {
        sched.enable_spans();
    }
    let mut leaves = 0u32;
    let mut leaf = |w: u64| {
        leaves += 1;
        let units = Bytes(w as f64 * UNITS_PER_WEIGHT);
        match form {
            Form::Disjoint => Step::transfer(units, [ResourceId(leaves - 1)]),
            Form::Mixed if leaves.is_multiple_of(2) => Step::delay(SimTime(w * TICK_NS / 3)),
            Form::Mixed => Step::transfer(units, [ResourceId(leaves % 3)]),
        }
    };
    let step = t.build(&mut rng, &mut leaf);
    let resources = match form {
        Form::Disjoint => leaves,
        Form::Mixed => 3,
    };
    for i in 0..resources {
        sched.add_resource(format!("r{i}"), CAP);
    }
    (t, sched, step)
}

#[derive(Debug, Clone, Copy)]
enum Form {
    Disjoint,
    Mixed,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn delay_programs_complete_at_their_critical_path(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let t = tree(&mut rng, 4);
        let step = t.build(&mut rng, &mut |ns| Step::delay(SimTime(ns)));
        prop_assert_eq!(step.critical_delay_ns(), t.critical_ns());
        let (at, _) = complete(Scheduler::new(), step);
        prop_assert_eq!(at, SimTime(t.critical_ns()));
    }

    #[test]
    fn disjoint_transfer_programs_complete_at_units_over_cap(seed in any::<u64>()) {
        let (t, sched, step) = program(seed, Form::Disjoint, false);
        prop_assert_eq!(step.critical_delay_ns(), 0);
        let (at, _) = complete(sched, step);
        prop_assert_eq!(at, SimTime(t.critical_ns() * TICK_NS));
    }

    #[test]
    fn span_recording_leaves_the_replay_digest_alone(seed in any::<u64>()) {
        let (_, quiet, step) = program(seed, Form::Mixed, false);
        let (_, traced, traced_step) = program(seed, Form::Mixed, true);
        let (t0, d0) = complete(quiet, step);
        let (t1, d1) = complete(traced, traced_step);
        prop_assert_eq!(t0, t1);
        prop_assert_eq!(d0, d1);
    }
}
