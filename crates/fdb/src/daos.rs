//! FDB's DAOS backend: one S1 Array per field, S1 Key-Value indexes.
//!
//! Matches the paper's description: fields are stored in a separate
//! Array each; indexing information goes to Key-Values, most exclusive
//! to the archiving process (its index object), some shared by all
//! processes (the catalogue).  An average of ~10 KV operations accompany
//! every field (§III-B).  Unlike Field I/O, fdb-hammer's reader knows
//! field sizes from the index and **skips the per-read size check** —
//! the optimisation the paper credits for its better read scaling.

use crate::backend::{Fdb, FdbError};
use crate::key::{FieldKey, KeyQuery};
use cluster::payload::{Payload, ReadPayload};
use daos_core::{
    ContainerId, DaosError, DaosSystem, DataMode, ObjectClass, Oid, RetryExec, RetryPolicy,
    RetryStats,
};
use simkit::{Step, StepBuf};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::rc::Rc;

/// How often a shared-catalogue KV update accompanies an archive (the
/// catalogue describes databases/indexes, which change rarely).
const CATALOGUE_EVERY: usize = 32;

struct ProcState {
    /// The process's exclusive index KV.
    index_kv: Oid,
    archived: usize,
}

/// FDB over libdaos.
// simlint::sim_state — replay-visible simulation state
pub struct FdbDaos {
    daos: Rc<RefCell<DaosSystem>>,
    cid: ContainerId,
    /// Shared catalogue KVs (all processes update them occasionally).
    catalogue: Vec<Oid>,
    array_class: ObjectClass,
    kv_class: ObjectClass,
    kv_ops_per_field: u32,
    kv_entry_bytes: f64,
    procs: BTreeMap<usize, ProcState>,
    toc: BTreeMap<FieldKey, (Oid, u64)>,
    /// Retry machinery around archive/retrieve (off by default).
    retry: RetryExec,
}

impl FdbDaos {
    /// Create the backend in a fresh container.  The paper found `S1`
    /// optimal for both Arrays and Key-Values in fdb-hammer.
    pub fn new(
        daos: Rc<RefCell<DaosSystem>>,
        node: usize,
        cid: ContainerId,
        array_class: ObjectClass,
        kv_class: ObjectClass,
    ) -> Result<(FdbDaos, Step), FdbError> {
        let (kv_ops_per_field, kv_entry_bytes) = {
            let d = daos.borrow();
            (d.cal().kv_ops_per_field, d.cal().kv_entry_bytes.get())
        };
        let mut steps = Vec::new();
        let mut catalogue = Vec::new();
        for _ in 0..2 {
            let (kv, s) = daos
                .borrow_mut()
                .kv_create(node, cid, kv_class)
                .map_err(map_daos)?;
            catalogue.push(kv);
            steps.push(s);
        }
        Ok((
            FdbDaos {
                daos,
                cid,
                catalogue,
                array_class,
                kv_class,
                kv_ops_per_field,
                kv_entry_bytes,
                procs: BTreeMap::new(),
                toc: BTreeMap::new(),
                retry: RetryExec::disabled(),
            },
            Step::seq(steps),
        ))
    }

    /// Configure retry/timeout/backoff on archive/retrieve (`seed`
    /// drives the deterministic jitter stream).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy, seed: u64) {
        self.retry = RetryExec::new(policy, seed);
    }

    /// Retry counters accumulated so far.
    pub fn retry_stats(&self) -> RetryStats {
        *self.retry.stats()
    }

    fn proc_state(&mut self, node: usize, proc: usize) -> Result<(Oid, Step), FdbError> {
        if let Some(st) = self.procs.get(&proc) {
            return Ok((st.index_kv, Step::Noop));
        }
        let (kv, s) = self
            .daos
            .borrow_mut()
            .kv_create(node, self.cid, self.kv_class)
            .map_err(map_daos)?;
        self.procs.insert(
            proc,
            ProcState {
                index_kv: kv,
                archived: 0,
            },
        );
        Ok((kv, s))
    }

    fn entry_payload(&self, oid: Oid, len: u64) -> Payload {
        match self.daos.borrow().data_mode() {
            DataMode::Full => {
                let mut v = Vec::with_capacity(self.kv_entry_bytes as usize);
                v.extend_from_slice(&oid.hi.to_le_bytes());
                v.extend_from_slice(&oid.lo.to_le_bytes());
                v.extend_from_slice(&len.to_le_bytes());
                v.resize(self.kv_entry_bytes as usize, 0);
                Payload::Bytes(v)
            }
            DataMode::Sized => Payload::Sized(self.kv_entry_bytes as u64),
        }
    }
}

/// Replace `buf` with axis key `i` of a field, `axis/{i}/{key}`.
fn axis_key(buf: &mut String, i: u32, key: &FieldKey) {
    buf.clear();
    let _ = write!(buf, "axis/{i}/{key}");
}

fn map_daos(e: DaosError) -> FdbError {
    match e {
        DaosError::NoSuchKey | DaosError::NoSuchObject => FdbError::FieldNotFound,
        // the retriable face of a backend fault (see `FdbError`'s
        // `daos_core::retry::Retriable` impl)
        DaosError::Timeout | DaosError::TargetDown | DaosError::Retriable => {
            FdbError::Backend("transient")
        }
        _ => FdbError::Backend("daos"),
    }
}

impl FdbDaos {
    fn archive_inner(
        &mut self,
        node: usize,
        proc: usize,
        key: &FieldKey,
        data: Payload,
    ) -> Result<Step, FdbError> {
        let len = data.len();
        let (index_kv, setup) = self.proc_state(node, proc)?;
        let mut daos = self.daos.borrow_mut();
        let (oid, s1) = daos
            .array_create(node, self.cid, self.array_class, 1 << 20)
            .map_err(map_daos)?;
        let s2 = daos
            .array_write(node, self.cid, oid, 0, data)
            .map_err(map_daos)?;
        drop(daos);
        self.toc.insert(*key, (oid, len));
        // index updates: the key entry plus axis/metadata puts, all on
        // the process's exclusive index KV …
        let entry = self.entry_payload(oid, len);
        let mut b = StepBuf::new();
        b.seq(|b| {
            b.push(setup);
            b.push(s1);
            b.push(s2);
            b.par(|b| {
                // every key of the field is built into this one buffer
                let mut kbuf = String::new();
                {
                    let mut daos = self.daos.borrow_mut();
                    let _ = write!(kbuf, "{key}");
                    let s = daos
                        .kv_put(node, self.cid, index_kv, kbuf.as_bytes(), entry)
                        .map_err(map_daos)?;
                    b.push(s);
                    for i in 1..self.kv_ops_per_field.saturating_sub(1) {
                        axis_key(&mut kbuf, i, key);
                        let p = match daos.data_mode() {
                            DataMode::Full => Payload::Bytes(vec![0; 64]),
                            DataMode::Sized => Payload::Sized(64),
                        };
                        let s = daos
                            .kv_put(node, self.cid, index_kv, kbuf.as_bytes(), p)
                            .map_err(map_daos)?;
                        b.push(s);
                    }
                }
                // … plus an occasional shared catalogue update
                let st = self.procs.entry(proc).or_insert(ProcState {
                    index_kv,
                    archived: 0,
                });
                st.archived += 1;
                if st.archived % CATALOGUE_EVERY == 1 {
                    let cat = self.catalogue[proc % self.catalogue.len()];
                    let p = self.entry_payload(oid, len);
                    let s = self
                        .daos
                        .borrow_mut()
                        .kv_put(node, self.cid, cat, key.index_group().as_bytes(), p)
                        .map_err(map_daos)?;
                    b.push(s);
                }
                Ok(())
            })
        })?;
        Ok(b.finish())
    }

    fn retrieve_inner(
        &mut self,
        node: usize,
        key: &FieldKey,
    ) -> Result<(ReadPayload, Step), FdbError> {
        let &(oid, len) = self.toc.get(key).ok_or(FdbError::FieldNotFound)?;
        // find the owner's index KV (catalogue lookup happens client-side
        // against cached catalogue state, so only KV gets + data read)
        let owner = key.member as usize;
        let index_kv = self
            .procs
            .get(&owner)
            .map(|s| s.index_kv)
            .ok_or(FdbError::FieldNotFound)?;
        let mut kbuf = String::new();
        let _ = write!(kbuf, "{key}");
        let mut daos = self.daos.borrow_mut();
        let (_, s1) = daos
            .kv_get(node, self.cid, index_kv, kbuf.as_bytes())
            .map_err(map_daos)?;
        // axis/metadata gets, overlapped with the data read; the length
        // comes from the index entry — no array_get_size round trip.
        let mut gets = StepBuf::new();
        for i in 1..self.kv_ops_per_field.saturating_sub(1) {
            axis_key(&mut kbuf, i, key);
            let (_, s) = daos
                .kv_get(node, self.cid, index_kv, kbuf.as_bytes())
                .map_err(map_daos)?;
            gets.push(s);
        }
        let (data, s2) = daos
            .array_read(node, self.cid, oid, 0, len)
            .map_err(map_daos)?;
        drop(daos);
        let mut b = StepBuf::new();
        b.seq(|b| {
            b.push(s1);
            b.par(|b| {
                b.push(s2);
                b.append(gets);
            });
        });
        Ok((data, b.finish()))
    }
}

impl Fdb for FdbDaos {
    fn archive(
        &mut self,
        node: usize,
        proc: usize,
        key: &FieldKey,
        data: Payload,
    ) -> Result<Step, FdbError> {
        // Take the executor out so the retried closure can borrow `self`.
        let bytes = data.len();
        let mut retry = std::mem::replace(&mut self.retry, RetryExec::disabled());
        let r = retry.run_step(|| self.archive_inner(node, proc, key, data.clone()));
        self.retry = retry;
        Ok(Step::span("fdb", "archive", bytes, r?))
    }

    fn flush(&mut self, _node: usize, _proc: usize) -> Result<Step, FdbError> {
        // DAOS writes are transactional per operation; nothing buffered.
        Ok(Step::Noop)
    }

    fn list(&mut self, node: usize, query: &KeyQuery) -> Result<(Vec<FieldKey>, Step), FdbError> {
        // catalogue scan + a key enumeration on every index KV whose
        // owner could match
        let mut steps = Vec::new();
        for &cat in &self.catalogue {
            let (_, s) = self
                .daos
                .borrow_mut()
                .kv_list(node, self.cid, cat, b"")
                .map_err(map_daos)?;
            steps.push(s);
        }
        for (owner, st) in &self.procs {
            if query.member.is_some_and(|m| m as usize != *owner) {
                continue;
            }
            let (_, s) = self
                .daos
                .borrow_mut()
                .kv_list(node, self.cid, st.index_kv, b"")
                .map_err(map_daos)?;
            steps.push(s);
        }
        let mut keys: Vec<FieldKey> = self
            .toc
            .keys()
            .filter(|k| query.matches(k))
            .copied()
            .collect();
        keys.sort();
        Ok((keys, Step::span("fdb", "list", 0, Step::par(steps))))
    }

    fn retrieve(
        &mut self,
        node: usize,
        _proc: usize,
        key: &FieldKey,
    ) -> Result<(ReadPayload, Step), FdbError> {
        let mut retry = std::mem::replace(&mut self.retry, RetryExec::disabled());
        let r = retry.run(|| self.retrieve_inner(node, key));
        self.retry = retry;
        let (data, s) = r?;
        let bytes = data.len();
        Ok((data, Step::span("fdb", "retrieve", bytes, s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::ClusterSpec;
    use daos_core::ContainerProps;
    use simkit::{run, Leaf, OpId, Scheduler, SimTime, World};

    struct Sink(SimTime);
    impl World for Sink {
        fn on_op_complete(&mut self, _op: OpId, sched: &mut Scheduler) {
            self.0 = sched.now();
        }
    }

    fn exec(sched: &mut Scheduler, step: Step) {
        sched.submit(step, OpId(0));
        run(sched, &mut Sink(SimTime::ZERO));
    }

    fn fixture(mode: DataMode) -> (Scheduler, FdbDaos) {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let mut daos = DaosSystem::deploy(&topo, &mut sched, 2, mode);
        let (cid, s) = daos.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let daos = Rc::new(RefCell::new(daos));
        let (fdb, s) = FdbDaos::new(daos, 0, cid, ObjectClass::S1, ObjectClass::S1).unwrap();
        exec(&mut sched, s);
        (sched, fdb)
    }

    #[test]
    fn archive_retrieve_full_mode() {
        let (mut sched, mut fdb) = fixture(DataMode::Full);
        let k = FieldKey::sequence(0, 0);
        let mut rng = simkit::SplitMix64::new(6);
        let mut field = vec![0u8; 100_000];
        rng.fill_bytes(&mut field);
        exec(
            &mut sched,
            fdb.archive(0, 0, &k, Payload::Bytes(field.clone()))
                .unwrap(),
        );
        let (data, s) = fdb.retrieve(0, 0, &k).unwrap();
        exec(&mut sched, s);
        assert_eq!(data.bytes().unwrap(), &field[..]);
        assert_eq!(
            fdb.retrieve(0, 0, &FieldKey::sequence(5, 5)).unwrap_err(),
            FdbError::FieldNotFound
        );
    }

    #[test]
    fn one_array_per_field_plus_index_kvs() {
        let (mut sched, mut fdb) = fixture(DataMode::Sized);
        for i in 0..10 {
            let k = FieldKey::sequence(0, i);
            exec(
                &mut sched,
                fdb.archive(0, 0, &k, Payload::Sized(1 << 20)).unwrap(),
            );
        }
        // 10 field arrays + 1 proc index KV + 2 catalogue KVs
        let count = fdb.daos.borrow().object_count(fdb.cid).unwrap();
        assert_eq!(count, 13);
    }

    #[test]
    fn kv_ops_per_field_matches_calibration() {
        let (mut sched, mut fdb) = fixture(DataMode::Sized);
        let k = FieldKey::sequence(0, 0);
        let step = fdb.archive(0, 0, &k, Payload::Sized(1 << 20)).unwrap();
        // count the KV puts: entry + (kv_ops-2) axis + 1 catalogue on the
        // first archive = kv_ops_per_field total
        fn count_svc_ops(s: &Step) -> f64 {
            s.leaves()
                .map(|leaf| match leaf {
                    Leaf::Transfer { units, path } if units.get() == 1.0 && path.len() == 1 => 1.0,
                    _ => 0.0,
                })
                .sum()
        }
        // 10 kv puts => 10 target-service ops (the bulk array write's
        // request service is folded into a fixed delay)
        assert_eq!(count_svc_ops(&step) as u32, 10);
        exec(&mut sched, step);
    }

    #[test]
    fn retrieve_skips_size_check() {
        // fdb-hammer's key property: no get-size round trip on read.
        let (mut sched, mut fdb) = fixture(DataMode::Sized);
        let k = FieldKey::sequence(0, 0);
        exec(
            &mut sched,
            fdb.archive(0, 0, &k, Payload::Sized(1 << 20)).unwrap(),
        );
        let (data, s) = fdb.retrieve(0, 0, &k).unwrap();
        assert_eq!(data.len(), 1 << 20);
        exec(&mut sched, s);
    }
}

#[cfg(test)]
mod list_tests {
    use super::*;
    use cluster::ClusterSpec;
    use daos_core::ContainerProps;
    use simkit::{run, OpId, Scheduler, SimTime, World};

    struct Sink;
    impl World for Sink {
        fn on_op_complete(&mut self, _op: OpId, _sched: &mut Scheduler) {}
    }

    fn exec(sched: &mut Scheduler, step: Step) {
        sched.submit(step, OpId(0));
        run(sched, &mut Sink);
    }

    #[test]
    fn partial_key_listing() {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let mut daos = daos_core::DaosSystem::deploy(&topo, &mut sched, 2, DataMode::Sized);
        let (cid, s) = daos.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let daos = std::rc::Rc::new(std::cell::RefCell::new(daos));
        let (mut fdb, s) = FdbDaos::new(daos, 0, cid, ObjectClass::S1, ObjectClass::S1).unwrap();
        exec(&mut sched, s);
        for member in 0..3usize {
            for i in 0..6usize {
                let k = FieldKey::sequence(member, i);
                exec(
                    &mut sched,
                    fdb.archive(0, member, &k, Payload::Sized(1024)).unwrap(),
                );
            }
        }
        let (all, s) = fdb.list(0, &KeyQuery::all()).unwrap();
        exec(&mut sched, s);
        assert_eq!(all.len(), 18);
        let (one, s) = fdb.list(0, &KeyQuery::member(1)).unwrap();
        exec(&mut sched, s);
        assert_eq!(one.len(), 6);
        assert!(one.iter().all(|k| k.member == 1));
        // compound query
        let q = KeyQuery {
            member: Some(2),
            param: Some(one[0].param),
            ..Default::default()
        };
        let (few, s) = fdb.list(0, &q).unwrap();
        exec(&mut sched, s);
        assert!(!few.is_empty() && few.len() < 6);
        let _ = SimTime::ZERO;
    }
}
