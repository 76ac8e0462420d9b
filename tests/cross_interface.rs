//! Cross-interface integration: data written through one interface is
//! visible through the others, and every store round-trips real bytes.

use cluster::posix::PosixFs;
use cluster::{ClusterSpec, Payload};
use daos_core::{ContainerProps, DaosSystem, DataMode, ObjectClass};
use daos_dfs::{Dfs, DfsOpts};
use daos_dfuse::{DfuseMount, DfuseOpts};
use fdb_sim::{Fdb, FdbCeph, FdbDaos, FdbPosix, FieldKey};
use simkit::{run, Bytes, OpId, Scheduler, SimTime, SplitMix64, Step, World};
use std::cell::RefCell;
use std::rc::Rc;

struct Done(SimTime);
impl World for Done {
    fn on_op_complete(&mut self, _op: OpId, sched: &mut Scheduler) {
        self.0 = sched.now();
    }
}

fn exec(sched: &mut Scheduler, step: Step) {
    sched.submit(step, OpId(0));
    run(sched, &mut Done(SimTime::ZERO));
}

fn rand_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

#[test]
fn dfuse_write_visible_through_libdaos() {
    // Write through the full POSIX stack (dfuse -> dfs -> daos), read the
    // backing Array straight through libdaos.
    let mut sched = Scheduler::new();
    let topo = ClusterSpec::new(2, 1).build(&mut sched);
    let mut daos = DaosSystem::deploy(&topo, &mut sched, 2, DataMode::Full);
    let (cid, s) = daos.cont_create(0, ContainerProps::default());
    exec(&mut sched, s);
    let daos = Rc::new(RefCell::new(daos));
    let (dfs, s) = Dfs::format(daos.clone(), 0, cid, DfsOpts::default()).unwrap();
    exec(&mut sched, s);
    let mut mount = DfuseMount::mount(dfs, &mut sched, DfuseOpts::default());

    let data = rand_bytes(1, 300_000);
    let (f, s) = mount.open(0, "/through-the-stack", true).unwrap();
    exec(&mut sched, s);
    exec(
        &mut sched,
        mount.write(0, f, 0, Payload::Bytes(data.clone())).unwrap(),
    );

    let oid = mount.dfs().file_object(f).unwrap();
    let (raw, s) = daos
        .borrow_mut()
        .array_read(0, cid, oid, 0, data.len() as u64)
        .unwrap();
    exec(&mut sched, s);
    assert_eq!(raw.bytes().unwrap(), &data[..]);
}

#[test]
fn libdaos_write_visible_through_dfs() {
    let mut sched = Scheduler::new();
    let topo = ClusterSpec::new(2, 1).build(&mut sched);
    let mut daos = DaosSystem::deploy(&topo, &mut sched, 2, DataMode::Full);
    let (cid, s) = daos.cont_create(0, ContainerProps::default());
    exec(&mut sched, s);
    let daos = Rc::new(RefCell::new(daos));
    let (mut dfs, s) = Dfs::format(daos.clone(), 0, cid, DfsOpts::default()).unwrap();
    exec(&mut sched, s);

    let data = rand_bytes(2, 64_000);
    let (f, s) = dfs.open(0, "/native-written", true).unwrap();
    exec(&mut sched, s);
    let oid = dfs.file_object(f).unwrap();
    // write through the raw object API
    let s = daos
        .borrow_mut()
        .array_write(0, cid, oid, 0, Payload::Bytes(data.clone()))
        .unwrap();
    exec(&mut sched, s);
    // read through the file interface
    let (got, s) = dfs.read(0, f, 0, data.len() as u64).unwrap();
    exec(&mut sched, s);
    assert_eq!(got.bytes().unwrap(), &data[..]);
    let (st, s) = dfs.fstat(0, f).unwrap();
    exec(&mut sched, s);
    assert_eq!(st.size, data.len() as u64);
}

#[test]
fn fdb_round_trips_on_all_three_stores() {
    let field = rand_bytes(3, 150_000);
    let key = FieldKey::sequence(0, 0);

    // DAOS backend
    {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let mut daos = DaosSystem::deploy(&topo, &mut sched, 2, DataMode::Full);
        let (cid, s) = daos.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let daos = Rc::new(RefCell::new(daos));
        let (mut fdb, s) = FdbDaos::new(daos, 0, cid, ObjectClass::S1, ObjectClass::S1).unwrap();
        exec(&mut sched, s);
        exec(
            &mut sched,
            fdb.archive(0, 0, &key, Payload::Bytes(field.clone()))
                .unwrap(),
        );
        let (got, s) = fdb.retrieve(0, 0, &key).unwrap();
        exec(&mut sched, s);
        assert_eq!(got.bytes().unwrap(), &field[..], "daos backend");
    }

    // Lustre backend
    {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let fs = lustre_sim::LustreSystem::deploy(
            &topo,
            &mut sched,
            2,
            lustre_sim::LustreDataMode::Full,
            lustre_sim::StripeOpts {
                count: 4,
                size: 1 << 20,
            },
        );
        let mut fdb = FdbPosix::new(fs, Bytes((1u64 << 20) as f64)).unwrap();
        exec(
            &mut sched,
            fdb.archive(0, 0, &key, Payload::Bytes(field.clone()))
                .unwrap(),
        );
        exec(&mut sched, fdb.flush(0, 0).unwrap());
        let (got, s) = fdb.retrieve(0, 0, &key).unwrap();
        exec(&mut sched, s);
        // the posix backend buffers real bytes and flushes them through
        // the Lustre file model
        assert_eq!(got.bytes().unwrap(), &field[..], "lustre backend bytes");
    }

    // Ceph backend
    {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let ceph = ceph_sim::CephSystem::deploy(
            &topo,
            &mut sched,
            2,
            ceph_sim::CephDataMode::Full,
            ceph_sim::CephPoolOpts::default(),
        )
        .unwrap();
        let mut fdb = FdbCeph::new(ceph);
        exec(
            &mut sched,
            fdb.archive(0, 0, &key, Payload::Bytes(field.clone()))
                .unwrap(),
        );
        let (got, s) = fdb.retrieve(0, 0, &key).unwrap();
        exec(&mut sched, s);
        assert_eq!(got.bytes().unwrap(), &field[..], "ceph backend");
    }
}

#[test]
fn hdf5_vfd_on_lustre_round_trips() {
    // the HDF5 POSIX driver is mount-agnostic: drive it over Lustre too
    let mut sched = Scheduler::new();
    let topo = ClusterSpec::new(2, 1).build(&mut sched);
    let mut fs = lustre_sim::LustreSystem::deploy(
        &topo,
        &mut sched,
        2,
        lustre_sim::LustreDataMode::Full,
        lustre_sim::StripeOpts::default(),
    );
    let rt = hdf5_lite::H5Runtime::new(&mut sched, 1, &topo.cal);
    let (mut h5, s) = hdf5_lite::H5PosixFile::create(&rt, &mut fs, 0, "/sim.h5").unwrap();
    exec(&mut sched, s);
    let data = rand_bytes(4, 500_000);
    let s = h5
        .dataset_write(&rt, &mut fs, "u10", Payload::Bytes(data.clone()))
        .unwrap();
    exec(&mut sched, s);
    let (got, s) = h5.dataset_read(&rt, &mut fs, "u10").unwrap();
    exec(&mut sched, s);
    assert_eq!(got.bytes().unwrap(), &data[..]);
}

#[test]
fn dfs_namespace_survives_heavy_mutation() {
    let mut sched = Scheduler::new();
    let topo = ClusterSpec::new(2, 1).build(&mut sched);
    let mut daos = DaosSystem::deploy(&topo, &mut sched, 2, DataMode::Full);
    let (cid, s) = daos.cont_create(0, ContainerProps::default());
    exec(&mut sched, s);
    let daos = Rc::new(RefCell::new(daos));
    let (mut dfs, s) = Dfs::format(daos, 0, cid, DfsOpts::default()).unwrap();
    exec(&mut sched, s);

    exec(&mut sched, dfs.mkdir(0, "/a").unwrap());
    exec(&mut sched, dfs.mkdir(0, "/a/b").unwrap());
    for i in 0..20 {
        let (f, s) = dfs.open(0, &format!("/a/b/f{i}"), true).unwrap();
        exec(&mut sched, s);
        exec(
            &mut sched,
            dfs.write(0, f, 0, Payload::Bytes(vec![i as u8; 100]))
                .unwrap(),
        );
        exec(&mut sched, dfs.close(0, f).unwrap());
    }
    // delete every other file, rename the rest
    for i in (0..20).step_by(2) {
        exec(&mut sched, dfs.unlink(0, &format!("/a/b/f{i}")).unwrap());
    }
    for i in (1..20).step_by(2) {
        exec(
            &mut sched,
            dfs.rename(0, &format!("/a/b/f{i}"), &format!("/a/g{i}"))
                .unwrap(),
        );
    }
    let (names, s) = dfs.readdir(0, "/a/b").unwrap();
    exec(&mut sched, s);
    assert!(names.is_empty(), "all moved or deleted: {names:?}");
    let (names, s) = dfs.readdir(0, "/a").unwrap();
    exec(&mut sched, s);
    assert_eq!(names.len(), 11, "b + 10 renamed files");
    // contents intact after rename
    let (f, s) = dfs.open(0, "/a/g3", false).unwrap();
    exec(&mut sched, s);
    let (got, s) = dfs.read(0, f, 0, 100).unwrap();
    exec(&mut sched, s);
    assert_eq!(got.bytes().unwrap(), &[3u8; 100][..]);
}
