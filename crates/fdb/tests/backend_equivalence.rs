//! Backend equivalence: the same archive/retrieve/list session produces
//! identical logical results on all three storage backends — the
//! abstraction FDB promises its applications (§II-A4: "effectively
//! abstracting [the storage system] away").

use cluster::{ClusterSpec, Payload};
use daos_core::{ContainerProps, DaosSystem, DataMode, ObjectClass};
use fdb_sim::{Fdb, FdbCeph, FdbDaos, FdbPosix, FieldKey, KeyQuery};
use lustre_sim::{LustreDataMode, LustreSystem, StripeOpts};
use simkit::{run, Bytes, OpId, Scheduler, SplitMix64, Step, World};
use std::cell::RefCell;
use std::rc::Rc;

struct Sink;
impl World for Sink {
    fn on_op_complete(&mut self, _op: OpId, _sched: &mut Scheduler) {}
}

fn exec(sched: &mut Scheduler, step: Step) {
    sched.submit(step, OpId(0));
    run(sched, &mut Sink);
}

/// Drive an identical session on a backend; return (listing of member 1,
/// retrieved bytes of a probe key).
fn session<B: Fdb>(sched: &mut Scheduler, fdb: &mut B) -> (Vec<FieldKey>, Vec<u8>) {
    let mut rng = SplitMix64::new(0xfdb);
    let mut probe = Vec::new();
    for member in 0..3usize {
        for i in 0..5usize {
            let key = FieldKey::sequence(member, i);
            let mut field = vec![0u8; 10_000 + i * 100];
            rng.fill_bytes(&mut field);
            if member == 1 && i == 3 {
                probe = field.clone();
            }
            let s = fdb.archive(0, member, &key, Payload::Bytes(field)).unwrap();
            exec(sched, s);
        }
        let s = fdb.flush(0, member).unwrap();
        exec(sched, s);
    }
    let (keys, s) = fdb.list(0, &KeyQuery::member(1)).unwrap();
    exec(sched, s);
    let (data, s) = fdb.retrieve(0, 9, &FieldKey::sequence(1, 3)).unwrap();
    exec(sched, s);
    (keys, probe_check(data.bytes().unwrap(), &probe))
}

fn probe_check(got: &[u8], expect: &[u8]) -> Vec<u8> {
    assert_eq!(got, expect, "retrieved bytes must match archived bytes");
    got.to_vec()
}

#[test]
fn all_backends_agree() {
    // DAOS
    let daos_result = {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let mut daos = DaosSystem::deploy(&topo, &mut sched, 2, DataMode::Full);
        let (cid, s) = daos.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let daos = Rc::new(RefCell::new(daos));
        let (mut fdb, s) = FdbDaos::new(daos, 0, cid, ObjectClass::S1, ObjectClass::S1).unwrap();
        exec(&mut sched, s);
        session(&mut sched, &mut fdb)
    };
    // Lustre (POSIX backend)
    let lustre_result = {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let fs = LustreSystem::deploy(
            &topo,
            &mut sched,
            2,
            LustreDataMode::Full,
            StripeOpts {
                count: 4,
                size: 1 << 20,
            },
        );
        let mut fdb = FdbPosix::new(fs, Bytes((4u64 << 20) as f64)).unwrap();
        session(&mut sched, &mut fdb)
    };
    // Ceph
    let ceph_result = {
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
        session(&mut sched, &mut fdb)
    };

    assert_eq!(
        daos_result.0, lustre_result.0,
        "listings agree (daos vs lustre)"
    );
    assert_eq!(
        daos_result.0, ceph_result.0,
        "listings agree (daos vs ceph)"
    );
    assert_eq!(
        daos_result.1, lustre_result.1,
        "bytes agree (daos vs lustre)"
    );
    assert_eq!(daos_result.1, ceph_result.1, "bytes agree (daos vs ceph)");
    assert_eq!(daos_result.0.len(), 5, "five fields for member 1");
}
