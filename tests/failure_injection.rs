//! Failure injection across the stack: target/server exclusion, degraded
//! reads through every interface, reintegration, and engine stalls.

use cluster::posix::PosixFs;
use cluster::{ClusterSpec, Payload};
use daos_core::{ContainerProps, DaosError, DaosSystem, DataMode, ObjectClass, TargetId};
use daos_dfs::{Dfs, DfsOpts};
use simkit::{run, run_for, Bytes, OpId, RunOutcome, Scheduler, SimTime, SplitMix64, Step, World};
use std::cell::RefCell;
use std::rc::Rc;

struct Done(SimTime);
impl World for Done {
    fn on_op_complete(&mut self, _op: OpId, sched: &mut Scheduler) {
        self.0 = sched.now();
    }
}

fn exec(sched: &mut Scheduler, step: Step) -> f64 {
    let t0 = sched.now();
    sched.submit(step, OpId(0));
    let mut w = Done(SimTime::ZERO);
    run(sched, &mut w);
    w.0.secs_since(t0)
}

fn rand_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

#[test]
fn dfs_file_on_ec_survives_server_loss() {
    let mut sched = Scheduler::new();
    let topo = ClusterSpec::new(4, 1).build(&mut sched);
    let mut daos = DaosSystem::deploy(&topo, &mut sched, 4, DataMode::Full);
    let (cid, s) = daos.cont_create(0, ContainerProps::default());
    exec(&mut sched, s);
    let daos = Rc::new(RefCell::new(daos));
    let opts = DfsOpts {
        file_class: ObjectClass::EC_2P1,
        dir_class: ObjectClass::RP_2,
        chunk_size: 1 << 16,
    };
    let (mut dfs, s) = Dfs::format(daos.clone(), 0, cid, opts).unwrap();
    exec(&mut sched, s);

    let data = rand_bytes(10, 200_000);
    exec(&mut sched, dfs.mkdir(0, "/protected").unwrap());
    let (f, s) = dfs.open(0, "/protected/data", true).unwrap();
    exec(&mut sched, s);
    exec(
        &mut sched,
        dfs.write(0, f, 0, Payload::Bytes(data.clone())).unwrap(),
    );

    // lose a whole server: the EC_2P1 file and RP_2 directories survive
    daos.borrow_mut().exclude_server(2);
    let (got, s) = dfs.read(0, f, 0, data.len() as u64).unwrap();
    let degraded_secs = exec(&mut sched, s);
    assert_eq!(got.bytes().unwrap(), &data[..], "reconstructed through DFS");
    // namespace operations keep working through replicated directories
    let (names, s) = dfs.readdir(0, "/protected").unwrap();
    exec(&mut sched, s);
    assert_eq!(names, vec!["data"]);
    assert!(degraded_secs > 0.0);
}

#[test]
fn degraded_reads_cost_more_than_healthy_ones() {
    let mut sched = Scheduler::new();
    let topo = ClusterSpec::new(4, 1).build(&mut sched);
    let mut daos = DaosSystem::deploy(&topo, &mut sched, 4, DataMode::Full);
    let (cid, s) = daos.cont_create(0, ContainerProps::default());
    exec(&mut sched, s);
    let (oid, s) = daos
        .array_create(0, cid, ObjectClass::EC_2P1, 1 << 20)
        .unwrap();
    exec(&mut sched, s);
    let data = rand_bytes(11, 4 << 20);
    exec(
        &mut sched,
        daos.array_write(0, cid, oid, 0, Payload::Bytes(data.clone()))
            .unwrap(),
    );

    let (_, s) = daos.array_read(0, cid, oid, 0, 4 << 20).unwrap();
    let healthy = exec(&mut sched, s);

    daos.exclude_server(1);
    let (got, s) = daos.array_read(0, cid, oid, 0, 4 << 20).unwrap();
    let degraded = exec(&mut sched, s);
    assert_eq!(got.bytes().unwrap(), &data[..]);
    assert!(
        degraded > healthy,
        "reconstruction must cost time: healthy {healthy}, degraded {degraded}"
    );
}

#[test]
fn exclusion_then_reintegration_restores_placement() {
    let mut sched = Scheduler::new();
    let topo = ClusterSpec::new(2, 1).build(&mut sched);
    let mut daos = DaosSystem::deploy(&topo, &mut sched, 2, DataMode::Sized);
    let (cid, s) = daos.cont_create(0, ContainerProps::default());
    exec(&mut sched, s);

    daos.exclude_server(0);
    // every new object lands on server 1 only
    for _ in 0..8 {
        let (oid, s) = daos.array_create(0, cid, ObjectClass::SX, 1 << 20).unwrap();
        exec(&mut sched, s);
        let _ = oid;
    }
    assert_eq!(daos.pool().up_targets().len(), 16);

    for t in 0..16 {
        daos.reintegrate_target(TargetId {
            server: 0,
            target: t,
        });
    }
    assert_eq!(daos.pool().up_targets().len(), 32);
}

#[test]
fn writes_to_fully_down_groups_fail() {
    let mut sched = Scheduler::new();
    let topo = ClusterSpec::new(1, 1).build(&mut sched);
    let mut daos = DaosSystem::deploy(&topo, &mut sched, 1, DataMode::Full);
    let (cid, s) = daos.cont_create(0, ContainerProps::default());
    exec(&mut sched, s);
    let (kv, s) = daos.kv_create(0, cid, ObjectClass::S1).unwrap();
    exec(&mut sched, s);
    exec(
        &mut sched,
        daos.kv_put(0, cid, kv, b"k", Payload::Sized(64)).unwrap(),
    );
    daos.exclude_server(0);
    assert_eq!(
        daos.kv_get(0, cid, kv, b"k").unwrap_err(),
        DaosError::Unavailable
    );
}

#[test]
fn engine_reports_stall_and_recovers_on_capacity_restore() {
    // a flow routed through a zero-capacity resource stalls the run;
    // restoring capacity resumes it — the failure-injection loop the
    // examples use.
    let mut sched = Scheduler::new();
    let r = sched.add_resource("flaky", 100.0);
    sched.submit(Step::transfer(Bytes(100.0), [r]), OpId(7));
    let mut w = Done(SimTime::ZERO);
    // run half the transfer, then fail the device
    let out = run_for(&mut sched, &mut w, SimTime::from_secs_f64(0.5));
    assert_eq!(out, RunOutcome::TimeLimit);
    sched.set_capacity(r, 0.0);
    let out = run_for(&mut sched, &mut w, SimTime::NEVER);
    assert_eq!(out, RunOutcome::Stalled);
    sched.set_capacity(r, 50.0);
    let out = run_for(&mut sched, &mut w, SimTime::NEVER);
    assert_eq!(out, RunOutcome::Completed);
    assert!(
        (w.0.as_secs_f64() - 1.5).abs() < 1e-6,
        "0.5s at 100 + 1.0s at 50"
    );
}

#[test]
fn fieldio_ec_fields_survive_target_loss() {
    let mut sched = Scheduler::new();
    let topo = ClusterSpec::new(4, 1).build(&mut sched);
    let mut daos = DaosSystem::deploy(&topo, &mut sched, 4, DataMode::Full);
    let (cid, s) = daos.cont_create(0, ContainerProps::default());
    exec(&mut sched, s);
    let daos = Rc::new(RefCell::new(daos));
    // the paper's redundancy pairing: EC data, replicated indexes
    let (mut fio, s) = field_io::FieldIo::with_classes(
        daos.clone(),
        0,
        cid,
        ObjectClass::EC_2P1,
        ObjectClass::RP_2,
    )
    .unwrap();
    exec(&mut sched, s);
    let field = rand_bytes(12, 300_000);
    exec(
        &mut sched,
        fio.write_field(0, 0, 0, Payload::Bytes(field.clone()))
            .unwrap(),
    );

    daos.borrow_mut().exclude_server(3);
    let (got, s) = fio.read_field(0, 0, 0).unwrap();
    exec(&mut sched, s);
    assert_eq!(
        got.bytes().unwrap(),
        &field[..],
        "weather field reconstructed"
    );
}
