//! `engine_events_per_sec` — throughput of the engine event loop over
//! the seeded workload families in [`bench::engine_bench`].
//!
//! Each iteration runs a family to completion (a fixed op count, so a
//! fixed number of events); throughput trends inversely with the
//! per-event cost, which `simkit`'s `engine_alloc` test keeps free of
//! heap allocations.  `repro bench-engine` runs
//! the same workloads outside criterion and gates CI on the committed
//! `BENCH_engine.json`.

use criterion::{criterion_group, criterion_main, Criterion};

use bench::engine_bench::{run_family, BENCH_OPS, FAMILIES};

fn engine_events_per_sec(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_events_per_sec");
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.sample_size(20);
    for fam in FAMILIES {
        g.bench_function(fam, |b| {
            b.iter(|| {
                let r = run_family(fam, BENCH_OPS);
                assert_eq!(r.events, BENCH_OPS);
                r.digest
            });
        });
    }
    g.finish();
}

criterion_group!(benches, engine_events_per_sec);
criterion_main!(benches);
