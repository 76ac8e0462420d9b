//! Property tests for the Lustre striping math and namespace.

use cluster::payload::Payload;
use cluster::posix::PosixFs;
use cluster::ClusterSpec;
use lustre_sim::{LustreDataMode, LustreSystem, StripeOpts};
use proptest::prelude::*;
use simkit::{ResourceId, Scheduler, Step};

/// Sum the bytes of the transfers that touch an NVMe device (the OST
/// data movements; service ops run on "lustre.*" resources).
fn data_bytes(s: &Step, sched: &Scheduler) -> f64 {
    match s {
        Step::Transfer { units, path }
            if path
                .iter()
                .any(|&r| sched.resource_name(r).contains("nvme")) =>
        {
            units.get()
        }
        Step::Seq(v) | Step::Par(v) => v.iter().map(|s| data_bytes(s, sched)).sum(),
        Step::Span { inner, .. } => data_bytes(inner, sched),
        _ => 0.0,
    }
}

/// Distinct data-carrying device resources in a step tree.
fn touched_devices(s: &Step, out: &mut std::collections::HashSet<ResourceId>, sched: &Scheduler) {
    match s {
        Step::Transfer { path, .. } => {
            for &r in path {
                if sched.resource_name(r).contains("nvme")
                    && !sched.resource_name(r).contains("pool")
                {
                    out.insert(r);
                }
            }
        }
        Step::Seq(v) | Step::Par(v) => v.iter().for_each(|s| touched_devices(s, out, sched)),
        Step::Span { inner, .. } => touched_devices(inner, out, sched),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A write's OST transfers always account for exactly the written
    /// bytes, whatever the offset/length/striping.
    #[test]
    fn stripe_bytes_conserved(
        stripe_count in 1usize..12,
        stripe_mib in 1u64..9,
        off in 0u64..(64 << 20),
        len in 1u64..(32 << 20),
    ) {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let mut fs = LustreSystem::deploy(
            &topo,
            &mut sched,
            2,
            LustreDataMode::Sized,
            StripeOpts { count: stripe_count, size: stripe_mib << 20 },
        );
        let (f, _) = fs.open(0, "/f", true).unwrap();
        let step = fs.write(0, f, off, Payload::Sized(len)).unwrap();
        let moved = data_bytes(&step, &sched);
        prop_assert!((moved - len as f64).abs() < 1.0, "moved {moved} of {len}");
        // and never touches more devices than stripes
        let mut devs = std::collections::HashSet::new();
        touched_devices(&step, &mut devs, &sched);
        // write devices only (read devices unused)
        prop_assert!(devs.len() <= stripe_count, "{} devices for {stripe_count} stripes", devs.len());
    }

    /// Reads return exactly the requested length in Sized mode.
    #[test]
    fn read_lengths_exact(off in 0u64..(8 << 20), len in 1u64..(8 << 20)) {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(1, 1).build(&mut sched);
        let mut fs = LustreSystem::deploy(
            &topo,
            &mut sched,
            1,
            LustreDataMode::Sized,
            StripeOpts { count: 4, size: 1 << 20 },
        );
        let (f, _) = fs.open(0, "/f", true).unwrap();
        let _ = fs.write(0, f, 0, Payload::Sized(off + len)).unwrap();
        let (data, step) = fs.read(0, f, off, len).unwrap();
        prop_assert_eq!(data.len(), len);
        prop_assert!((data_bytes(&step, &sched) - len as f64).abs() < 1.0);
    }
}
