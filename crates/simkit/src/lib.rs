//! # simkit — discrete-event, flow-level I/O cluster simulation engine
//!
//! `simkit` is the substrate every other crate in this workspace is built
//! on.  It simulates a set of **capacity resources** (NVMe devices, NIC
//! directions, metadata services, FUSE request pumps, …) and **flows**
//! traversing them.  Active flows are assigned **max-min fair** rates via
//! progressive filling, the classical fluid approximation used in
//! flow-level network simulators: a transfer occupies every resource on
//! its path simultaneously, and whenever the set of flows changes the
//! fair-share allocation is recomputed.
//!
//! Work is described as [`Step`] chains — sequential/parallel compositions
//! of fixed [`Step::Delay`]s and shared [`Step::Transfer`]s — submitted to
//! the [`Scheduler`] with an opaque [`OpId`].  A [`World`] implementation
//! receives completion callbacks and issues follow-up work, which is how
//! benchmark processes are driven.
//!
//! Design notes:
//!
//! * Time is integer nanoseconds ([`SimTime`]); symmetric processes
//!   complete in lock-step, so completions batch and one fair-share
//!   recomputation serves a whole wave of ops.  This is the property that
//!   makes thousand-process simulations cheap.
//! * The engine is deterministic: identical inputs (including RNG seeds
//!   from [`rng::SplitMix64`]) produce identical schedules.
//! * Storage-system *state* lives outside the engine in plain data
//!   structures; only *time* is simulated here.
//!
//! ```
//! use simkit::{Bytes, Scheduler, Step, World, OpId, run};
//!
//! struct Once(bool);
//! impl World for Once {
//!     fn on_op_complete(&mut self, _op: OpId, _sched: &mut Scheduler) {
//!         self.0 = true;
//!     }
//! }
//!
//! let mut sched = Scheduler::new();
//! let disk = sched.add_resource("disk", 100.0); // 100 units/s
//! sched.submit(Step::transfer(Bytes(50.0), [disk]), OpId(1));
//! let mut world = Once(false);
//! run(&mut sched, &mut world);
//! assert!(world.0);
//! assert_eq!(sched.now().as_secs_f64(), 0.5); // 50 units at 100 units/s
//! ```

pub mod chaos;
pub mod engine;
pub mod fairshare;
pub mod faults;
pub mod json;
pub mod metrics;
pub mod monitor;
pub mod rng;
pub mod shrink;
pub mod slab;
pub mod span;
pub mod step;
pub mod telemetry;
pub mod time;
pub mod trace;
pub mod units;

pub use chaos::{generate, ChaosConfig, ChaosSpace};
pub use engine::{run, run_digest, run_for, OpId, RunOutcome, Scheduler, World};
pub use faults::{FaultAction, FaultEvent, FaultPlan};
pub use json::Json;
pub use metrics::{
    attributed_wall_ns, chrome_trace_json, chrome_trace_json_with_counters, critical_path,
    critical_path_report, layer_histograms, Histogram, PathContribution,
};
pub use monitor::Monitor;
pub use rng::SplitMix64;
pub use shrink::{shrink, ShrinkOutcome};
pub use span::{SpanId, SpanLog, SpanMark, SpanRecord};
pub use step::{Path, ResourceId, Step, MAX_HOPS};
pub use telemetry::{
    evaluate_slos, render_slo_text, MetricId, MetricKind, MetricView, SloInputs, SloKind, SloRule,
    SloVerdict, Telemetry,
};
pub use time::SimTime;
pub use trace::ReplayDigest;
pub use units::{Bytes, Rate, GIB, KIB, MIB};
