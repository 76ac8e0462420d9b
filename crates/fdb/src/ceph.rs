//! FDB's Ceph backend: one RADOS object per field, index objects for
//! the TOC.
//!
//! Matches §III-F: fdb-hammer on librados stores every 1 MiB field in a
//! separate object, which spreads load across placement groups and lets
//! it reach much higher bandwidth than IOR's object-per-process pattern
//! on the same cluster.

use crate::backend::{Fdb, FdbError};
use crate::key::{FieldKey, KeyQuery};
use ceph_sim::{CephSystem, RadosError};
use cluster::payload::{Payload, ReadPayload};
use daos_core::{RetryExec, RetryPolicy, RetryStats};
use simkit::Step;
use std::collections::BTreeMap;

/// Size of one packed index entry.
const INDEX_ENTRY_BYTES: u64 = 512;

/// FDB over librados.
pub struct FdbCeph {
    ceph: CephSystem,
    toc: BTreeMap<FieldKey, u64>,
    /// Retry machinery around archive/retrieve (off by default).
    retry: RetryExec,
}

fn map_rados(e: RadosError) -> FdbError {
    match e {
        RadosError::NoSuchObject => FdbError::FieldNotFound,
        _ => FdbError::Backend("rados"),
    }
}

impl FdbCeph {
    /// Create the backend over a deployed Ceph cluster.
    pub fn new(ceph: CephSystem) -> FdbCeph {
        FdbCeph {
            ceph,
            toc: BTreeMap::new(),
            retry: RetryExec::disabled(),
        }
    }

    /// The wrapped cluster.
    pub fn ceph_mut(&mut self) -> &mut CephSystem {
        &mut self.ceph
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

    fn archive_inner(
        &mut self,
        node: usize,
        key: &FieldKey,
        data: Payload,
    ) -> Result<Step, FdbError> {
        let len = data.len();
        let s1 = self
            .ceph
            .write(node, &Self::field_object(key), 0, data)
            .map_err(map_rados)?;
        let s2 = self
            .ceph
            .append(
                node,
                &Self::index_object(key),
                Payload::Sized(INDEX_ENTRY_BYTES),
            )
            .map_err(map_rados)?;
        self.toc.insert(*key, len);
        Ok(Step::seq([s1, s2]))
    }

    fn retrieve_inner(
        &mut self,
        node: usize,
        key: &FieldKey,
    ) -> Result<(ReadPayload, Step), FdbError> {
        let len = *self.toc.get(key).ok_or(FdbError::FieldNotFound)?;
        let (_, s1) = self
            .ceph
            .read(node, &Self::index_object(key), 0, INDEX_ENTRY_BYTES)
            .map_err(map_rados)?;
        let (data, s2) = self
            .ceph
            .read(node, &Self::field_object(key), 0, len)
            .map_err(map_rados)?;
        Ok((data, Step::seq([s1, s2])))
    }

    fn field_object(key: &FieldKey) -> String {
        format!("fdb/field/{key}")
    }

    fn index_object(key: &FieldKey) -> String {
        format!("fdb/index/{}", key.index_group())
    }
}

impl Fdb for FdbCeph {
    fn archive(
        &mut self,
        node: usize,
        _proc: usize,
        key: &FieldKey,
        data: Payload,
    ) -> Result<Step, FdbError> {
        // Take the executor out so the retried closure can borrow `self`.
        let bytes = data.len();
        let mut retry = std::mem::replace(&mut self.retry, RetryExec::disabled());
        let r = retry.run_step(|| self.archive_inner(node, key, data.clone()));
        self.retry = retry;
        Ok(Step::span("fdb", "archive", bytes, r?))
    }

    fn flush(&mut self, _node: usize, _proc: usize) -> Result<Step, FdbError> {
        Ok(Step::Noop)
    }

    fn list(&mut self, node: usize, query: &KeyQuery) -> Result<(Vec<FieldKey>, Step), FdbError> {
        // read every matching index-group object
        let mut groups: Vec<String> = self
            .toc
            .keys()
            .filter(|k| query.matches(k))
            .map(Self::index_object)
            .collect();
        groups.sort();
        groups.dedup();
        let mut steps = Vec::new();
        for g in groups {
            let (_, s) = self
                .ceph
                .read(node, &g, 0, INDEX_ENTRY_BYTES)
                .map_err(map_rados)?;
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
    use ceph_sim::{CephDataMode, CephPoolOpts};
    use cluster::ClusterSpec;
    use simkit::{run, OpId, Scheduler, SimTime, World};

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

    fn fixture() -> (Scheduler, FdbCeph) {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let ceph = CephSystem::deploy(
            &topo,
            &mut sched,
            2,
            CephDataMode::Full,
            CephPoolOpts::default(),
        )
        .unwrap();
        (sched, FdbCeph::new(ceph))
    }

    #[test]
    fn archive_retrieve_round_trip() {
        let (mut sched, mut fdb) = fixture();
        let k = FieldKey::sequence(0, 0);
        let mut rng = simkit::SplitMix64::new(7);
        let mut field = vec![0u8; 50_000];
        rng.fill_bytes(&mut field);
        exec(
            &mut sched,
            fdb.archive(0, 0, &k, Payload::Bytes(field.clone()))
                .unwrap(),
        );
        let (data, s) = fdb.retrieve(0, 0, &k).unwrap();
        exec(&mut sched, s);
        assert_eq!(data.bytes().unwrap(), &field[..]);
    }

    #[test]
    fn object_per_field() {
        let (mut sched, mut fdb) = fixture();
        for i in 0..8 {
            let k = FieldKey::sequence(0, i);
            exec(
                &mut sched,
                fdb.archive(0, 0, &k, Payload::Sized(1 << 20)).unwrap(),
            );
        }
        // 8 field objects + 1 shared index-group object (same member)
        assert_eq!(fdb.ceph.object_count(), 9);
    }

    #[test]
    fn missing_field_errors() {
        let (_sched, mut fdb) = fixture();
        assert_eq!(
            fdb.retrieve(0, 0, &FieldKey::sequence(1, 1)).unwrap_err(),
            FdbError::FieldNotFound
        );
    }
}
