//! Pins one `DataMode::Full` script over every path of `DaosSystem`:
//! the KV and Array APIs on `S1`, `RP_2` and `EC_2P1` objects, a server
//! crash with detection, degraded reads before and after `rebuild`,
//! bit rot on an EC parity cell and on a KV replica repaired by
//! verified reads, rot planted by `apply_bit_rot`, one full scrub pass,
//! and an online add-server plus drain drained by migration waves, then
//! the durability and redundancy oracles.
//!
//! Every step runs through `simkit::run_digest`, and the test folds
//! each replay digest together with what each call returned (read
//! contents, errors) and the `CsumStats`, `ScrubReport`,
//! `RebuildReport`, `RebalanceReport` and `MigrationProgress` it
//! reports.  The folded value is pinned: a change that moves any of
//! these paths by one event, one byte or one counter changes it.

use cluster::{ClusterSpec, Payload, ReadPayload};
use daos_core::{
    content_digest, ContainerProps, DaosError, DaosSystem, DataMode, ObjectClass, Oid, TargetId,
};
use simkit::{run_digest, OpId, Scheduler, SplitMix64, Step, World};

/// The folded value of the whole script.
const SYSTEM_PIN: u64 = 0x0bcf_6361_53b0_6e31;

struct Done;
impl World for Done {
    fn on_op_complete(&mut self, _op: OpId, _sched: &mut Scheduler) {}
}

/// The system under test plus the running fold.
struct Pin {
    sched: Scheduler,
    sys: DaosSystem,
    h: u64,
}

impl Pin {
    fn fold(&mut self, x: u64) {
        self.h = (self.h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        self.h ^= self.h >> 29;
    }

    fn fold_str(&mut self, s: &str) {
        self.fold(content_digest(s.as_bytes()));
    }

    /// Run `step` to completion and fold the replay digest.
    fn exec(&mut self, step: Step) {
        self.sched.submit(step, OpId(0));
        let d = run_digest(&mut self.sched, &mut Done);
        self.fold(d);
    }

    /// Fold an op's outcome: run its step, or fold its error.
    fn op(&mut self, r: Result<Step, DaosError>) {
        match r {
            Ok(step) => self.exec(step),
            Err(e) => self.fold_str(&format!("{e:?}")),
        }
    }

    /// Fold a read's outcome: run its step and fold the content, or
    /// fold its error.
    fn read(&mut self, r: Result<(ReadPayload, Step), DaosError>) {
        match r {
            Ok((data, step)) => {
                self.exec(step);
                self.fold(data.len());
                self.fold(data.bytes().map_or(0, content_digest));
            }
            Err(e) => self.fold_str(&format!("{e:?}")),
        }
    }

    /// A read retried past crash detection, as a client does.
    fn read_retry(&mut self, mut f: impl FnMut(&mut DaosSystem) -> ReadResult) {
        let mut r = f(&mut self.sys);
        while matches!(r, Err(DaosError::TargetDown)) {
            self.fold_str("TargetDown");
            r = f(&mut self.sys);
        }
        self.read(r);
    }

    /// Fold the reports the system keeps.
    fn fold_reports(&mut self) {
        let s = format!(
            "{:?} {:?} {:?}",
            self.sys.csum_stats(),
            self.sys.scrub_progress(),
            self.sys.migration_progress()
        );
        self.fold_str(&s);
    }
}

type ReadResult = Result<(ReadPayload, Step), DaosError>;

fn rand_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix64::new(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

const CHUNK: u64 = 1 << 16;
const LEN: u64 = 5 * CHUNK + 1234;

fn script() -> u64 {
    let mut sched = Scheduler::new();
    // two spare servers of hardware for the online add
    let topo = ClusterSpec::new(6, 2).build(&mut sched);
    let sys = DaosSystem::deploy(&topo, &mut sched, 5, DataMode::Full);
    let mut p = Pin { sched, sys, h: 0 };
    p.sys.enable_ledger();
    let (cid, s) = p.sys.cont_create(0, ContainerProps::default());
    p.exec(s);

    // ---- KV on S1 and RP_2 ----
    let mut kvs: Vec<Oid> = Vec::new();
    for class in [ObjectClass::S1, ObjectClass::RP_2] {
        let (kv, s) = p.sys.kv_create(0, cid, class).unwrap();
        p.exec(s);
        for i in 0..12u64 {
            let key = format!("key/{i:03}");
            let r = p.sys.kv_put(
                (i % 2) as usize,
                cid,
                kv,
                key.as_bytes(),
                Payload::Bytes(rand_bytes(i, 100 + 37 * i as usize)),
            );
            p.op(r);
        }
        let r = p.sys.kv_get(1, cid, kv, b"key/004");
        p.read(r);
        let r = p.sys.kv_remove(0, cid, kv, b"key/005");
        p.op(r);
        let r = p.sys.kv_remove(0, cid, kv, b"key/005");
        p.op(r);
        let (keys, s) = p.sys.kv_list(0, cid, kv, b"key/00").unwrap();
        p.exec(s);
        p.fold(keys.len() as u64);
        kvs.push(kv);
    }
    assert_eq!(
        p.sys.kv_create(0, cid, ObjectClass::EC_2P1).unwrap_err(),
        DaosError::InvalidClass
    );

    // ---- Arrays on S1, RP_2 and EC_2P1 ----
    let mut arrays: Vec<Oid> = Vec::new();
    for (i, class) in [ObjectClass::S1, ObjectClass::RP_2, ObjectClass::EC_2P1]
        .into_iter()
        .enumerate()
    {
        let (a, s) = p.sys.array_create(0, cid, class, CHUNK).unwrap();
        p.exec(s);
        let r = p.sys.array_write(
            0,
            cid,
            a,
            777,
            Payload::Bytes(rand_bytes(50 + i as u64, LEN as usize)),
        );
        p.op(r);
        // a partial overwrite straddling a chunk boundary
        let r = p.sys.array_write(
            1,
            cid,
            a,
            CHUNK - 100,
            Payload::Bytes(rand_bytes(60 + i as u64, 300)),
        );
        p.op(r);
        let r = p.sys.array_read(1, cid, a, 0, LEN + 777);
        p.read(r);
        // truncate inside a chunk, then extend again
        let r = p.sys.array_set_size(0, cid, a, 3 * CHUNK + 5);
        p.op(r);
        let r = p.sys.array_set_size(0, cid, a, LEN + 777);
        p.op(r);
        let (size, s) = p.sys.array_get_size(0, cid, a).unwrap();
        p.exec(s);
        p.fold(size);
        arrays.push(a);
    }

    // ---- crash server 1, degraded reads, rebuild ----
    let tps = p.sys.cal().targets_per_server as u16;
    for target in 0..tps {
        p.sys.crash_target(TargetId { server: 1, target });
    }
    for &a in &arrays {
        for client in [0, 1] {
            p.read_retry(|sys| sys.array_read(client, cid, a, 0, LEN));
        }
    }
    for &kv in &kvs {
        p.read_retry(|sys| sys.kv_get(0, cid, kv, b"key/007"));
    }
    let r = p
        .sys
        .array_write(0, cid, arrays[1], 0, Payload::Bytes(rand_bytes(70, 9000)));
    p.op(r);
    let (report, s) = p.sys.rebuild();
    p.fold_str(&format!("{report:?}"));
    p.exec(s);
    // a second, administrative loss after re-protection: replicas fail
    // over and EC reconstructs
    p.sys.exclude_server(3);
    for &a in &arrays {
        p.read_retry(|sys| sys.array_read(1, cid, a, 100, LEN - 200));
    }
    for &kv in &kvs {
        p.read_retry(|sys| sys.kv_get(1, cid, kv, b"key/002"));
    }
    let (report, s) = p.sys.rebuild();
    p.fold_str(&format!("{report:?}"));
    p.exec(s);
    p.fold_reports();

    // ---- rot: EC parity, a KV replica, and seeded bit rot ----
    let (ec, rp_kv) = (arrays[2], kvs[1]);
    for parity in 0..2 {
        let planted = p.sys.inject_corrupt_parity(cid, ec, CHUNK + 10, parity);
        p.fold(planted as u64);
    }
    let planted = p.sys.inject_corrupt_kv(cid, rp_kv, b"key/003", 1);
    p.fold(planted as u64);
    let planted = p
        .sys
        .inject_corrupt_replica(cid, arrays[1], 2 * CHUNK + 9, 0);
    p.fold(planted as u64);
    p.read_retry(|sys| sys.array_read(0, cid, ec, CHUNK, CHUNK));
    p.read_retry(|sys| sys.kv_get(0, cid, rp_kv, b"key/003"));
    p.fold_reports();
    for locus in 0..9u64 {
        let planted = p.sys.apply_bit_rot(locus * 0x9e37_79b9, locus % 4);
        p.fold(planted as u64);
    }
    let planted = p.sys.inject_corrupt_extent(cid, kvs[0], 3);
    p.fold(planted as u64);

    // ---- one full scrub pass ----
    p.sys.scrub_start();
    while let Some(s) = p.sys.scrub_wave(5) {
        p.exec(s);
    }
    p.fold_reports();
    for &a in &arrays {
        p.read_retry(|sys| sys.array_read(0, cid, a, 0, LEN));
    }

    // ---- add a server, drain another, migrate by waves ----
    let rank = p.sys.add_server(&mut p.sched);
    p.fold(rank as u64);
    p.sys.drain_server(0);
    let plan = p.sys.rebalance_plan();
    p.fold_str(&format!("{plan:?}"));
    while let Some(s) = p.sys.migration_wave(3) {
        p.exec(s);
    }
    p.sys.finish_rebalance();
    p.fold_reports();
    for &a in &arrays {
        p.read_retry(|sys| sys.array_read(1, cid, a, 0, LEN + 777));
    }

    // ---- the oracles ----
    let durability = p.sys.verify_durability(0);
    p.fold_str(&format!("{durability:?}"));
    let redundancy = p.sys.verify_redundancy();
    p.fold_str(&format!("{redundancy:?}"));
    p.fold_str(&format!("{:?}", p.sys.pool_query()));
    p.h
}

#[test]
fn system_script_is_pinned() {
    let h = script();
    assert_eq!(script(), h, "the script replays identically");
    assert_eq!(h, SYSTEM_PIN, "system script fold changed: {h:#018x}");
}
