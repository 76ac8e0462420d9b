//! Micro-benchmarks of the simulator's hot paths: the max-min fair-share
//! solver, object placement, erasure coding, and the core op chains.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use daos_core::{ErasureCode, ObjectClass, OidAllocator, PoolMap};
use simkit::fairshare::FairShare;
use simkit::units::{GB, MB};
use simkit::{Bytes, Path, Rate, ResourceId, SimTime, SplitMix64};

fn quick(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("micro");
    g.warm_up_time(std::time::Duration::from_millis(300));
    g.measurement_time(std::time::Duration::from_secs(2));
    g.sample_size(20);
    g
}

/// One engine re-solve step on a 16-server-deployment-sized flow set:
/// ~1000 live flows with 5-resource paths over ~800 resources, of which
/// `CHURN` finish and `CHURN` new ones start (reusing the freed keys
/// last-in first-out, as the engine's slab does) before the solve.
fn bench_fairshare(c: &mut Criterion) {
    const FLOWS: u32 = 1000;
    const CHURN: usize = 5;
    let n_res = 800u64;
    let caps: Vec<Rate> = (0..n_res).map(|i| Rate(GB + (i as f64) * MB)).collect();
    let mut group = quick(c);
    for (name, tol) in [("fairshare_exact", 0.0), ("fairshare_banded_2pct", 0.02)] {
        group.bench_function(name, |b| {
            let mut rng = SplitMix64::new(42);
            let mut path = move || {
                Path::new::<5>(std::array::from_fn(|_| {
                    ResourceId(rng.next_below(n_res) as u32)
                }))
            };
            let mut fs = FairShare::new();
            fs.set_tolerance(tol);
            for key in 0..FLOWS {
                fs.add(key, path(), Bytes(MB));
            }
            let mut pick = SplitMix64::new(7);
            let mut freed = Vec::with_capacity(CHURN);
            b.iter(|| {
                freed.clear();
                while freed.len() < CHURN {
                    let key = pick.next_below(FLOWS as u64) as u32;
                    if !freed.contains(&key) {
                        fs.remove(key);
                        freed.push(key);
                    }
                }
                while let Some(key) = freed.pop() {
                    fs.add(key, path(), Bytes(MB));
                }
                fs.solve(&caps, SimTime::ZERO)
            });
        });
    }
    group.finish();
}

/// Per-object layout generation (shuffle + fault-domain interleave).
fn bench_placement(c: &mut Criterion) {
    let pm = PoolMap::new(16, 16);
    let mut alloc = OidAllocator::new();
    let mut g = quick(c);
    g.bench_function("layout_sx_256_targets", |b| {
        b.iter_batched(
            || alloc.next(ObjectClass::SX, 0),
            |oid| pm.layout(&oid, ObjectClass::SX),
            BatchSize::SmallInput,
        );
    });
    g.bench_function("layout_ec2p1_256_targets", |b| {
        b.iter_batched(
            || alloc.next(ObjectClass::EC_2P1, 0),
            |oid| pm.layout(&oid, ObjectClass::EC_2P1),
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

/// Reed-Solomon encode and degraded-decode of a 1 MiB stripe.
fn bench_erasure(c: &mut Criterion) {
    let ec = ErasureCode::new(2, 1);
    let mut rng = SplitMix64::new(7);
    let cell = 512 * 1024;
    let mut d0 = vec![0u8; cell];
    let mut d1 = vec![0u8; cell];
    rng.fill_bytes(&mut d0);
    rng.fill_bytes(&mut d1);
    let mut g = quick(c);
    g.bench_function("ec_2p1_encode_1mib", |b| {
        b.iter(|| ec.encode(&[&d0, &d1]));
    });
    let parity = ec.encode(&[&d0, &d1]);
    let cells = vec![None, Some(d1.clone()), Some(parity[0].clone())];
    g.bench_function("ec_2p1_reconstruct_1mib", |b| {
        b.iter(|| ec.reconstruct(&cells).unwrap());
    });
    g.finish();
}

/// One simulated 1 MiB write op end-to-end (chain build + execution).
fn bench_sim_op(c: &mut Criterion) {
    use cluster::{ClusterSpec, Payload};
    use daos_core::{ContainerProps, DaosSystem, DataMode};
    use simkit::{run, OpId, Scheduler, World};
    struct Sink;
    impl World for Sink {
        fn on_op_complete(&mut self, _op: OpId, _s: &mut Scheduler) {}
    }
    let mut g = quick(c);
    g.bench_function("daos_array_write_1mib_sim", |b| {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(4, 1).build(&mut sched);
        let mut daos = DaosSystem::deploy(&topo, &mut sched, 4, DataMode::Sized);
        let (cid, s) = daos.cont_create(0, ContainerProps::default());
        sched.submit(s, OpId(0));
        run(&mut sched, &mut Sink);
        let (oid, s) = daos.array_create(0, cid, ObjectClass::SX, 1 << 20).unwrap();
        sched.submit(s, OpId(0));
        run(&mut sched, &mut Sink);
        let mut off = 0u64;
        b.iter(|| {
            let step = daos
                .array_write(0, cid, oid, off, Payload::Sized(1 << 20))
                .unwrap();
            off += 1 << 20;
            sched.submit(step, OpId(1));
            run(&mut sched, &mut Sink);
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fairshare,
    bench_placement,
    bench_erasure,
    bench_sim_op
);
criterion_main!(benches);
