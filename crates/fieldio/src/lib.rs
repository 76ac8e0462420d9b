//! # field-io — ECMWF's Field I/O benchmark (§II-A3)
//!
//! A standalone tool that measures what DAOS can provide for numerical
//! weather prediction I/O without the full operational stack: a set of
//! independent processes, each writing a sequence of weather fields as
//! **S1 Arrays** (one Array per field) and indexing them through
//! **SX Key-Values** — some exclusive to the process, some shared by all
//! processes (~10 KV operations per field).
//!
//! In read mode the processes retrieve the same sequence by querying the
//! Key-Values, then — unlike fdb-hammer — performing an
//! **`array_get_size` check before every read**, the extra round trip
//! the paper identifies as the cause of Field I/O's merely linear read
//! scaling (§III-B).

use cluster::payload::{Payload, ReadPayload};
use daos_core::{
    ContainerId, DaosError, DaosSystem, DataMode, ObjectClass, Oid, OracleKind, OracleReport,
    Retriable, RetryExec, RetryPolicy, RetryStats, Violation,
};
use simkit::{Step, StepBuf};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::rc::Rc;

/// Errors surfaced by the benchmark library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldIoError {
    /// Field index out of range / never written.
    NoSuchField,
    /// Underlying DAOS failure.
    Daos(DaosError),
}

impl From<DaosError> for FieldIoError {
    fn from(e: DaosError) -> Self {
        FieldIoError::Daos(e)
    }
}

impl Retriable for FieldIoError {
    fn is_retriable(&self) -> bool {
        match self {
            FieldIoError::NoSuchField => false,
            FieldIoError::Daos(e) => e.is_retriable(),
        }
    }
}

/// Field I/O client state over one container.
// simlint::sim_state — replay-visible simulation state
pub struct FieldIo {
    daos: Rc<RefCell<DaosSystem>>,
    cid: ContainerId,
    array_class: ObjectClass,
    kv_class: ObjectClass,
    /// Shared SX Key-Values, updated by every process.
    shared_kvs: Vec<Oid>,
    /// Exclusive per-process Key-Values.
    proc_kvs: BTreeMap<usize, Oid>,
    fields: BTreeMap<(usize, usize), (Oid, u64)>,
    kv_ops_per_field: u32,
    kv_entry_bytes: f64,
    /// Whether reads perform the size check (on by default, as in the
    /// real tool; switchable for the ablation experiment).
    pub size_check_on_read: bool,
    /// Retry machinery around whole field operations (off by default).
    retry: RetryExec,
}

/// Shared KV updates per field (the rest go to the exclusive KV).
const SHARED_KV_OPS: u32 = 3;

/// Replace `buf` with index key `i` of field `idx` of process `proc`,
/// `f/{proc}/{idx}/{i}`: one buffer serves every key of a field.
fn index_key(buf: &mut String, proc: usize, idx: usize, i: u32) {
    buf.clear();
    let _ = write!(buf, "f/{proc}/{idx}/{i}");
}

impl FieldIo {
    /// Set up the benchmark in `cid`.  The paper's optimal classes:
    /// `SX` for Key-Values, `S1` for Arrays.
    pub fn new(
        daos: Rc<RefCell<DaosSystem>>,
        node: usize,
        cid: ContainerId,
    ) -> Result<(FieldIo, Step), FieldIoError> {
        Self::with_classes(daos, node, cid, ObjectClass::S1, ObjectClass::SX)
    }

    /// Set up with explicit object classes — the §III-D redundancy runs
    /// pair erasure-coded Arrays with replicated Key-Values.
    pub fn with_classes(
        daos: Rc<RefCell<DaosSystem>>,
        node: usize,
        cid: ContainerId,
        array_class: ObjectClass,
        kv_class: ObjectClass,
    ) -> Result<(FieldIo, Step), FieldIoError> {
        let (kv_ops_per_field, kv_entry_bytes) = {
            let d = daos.borrow();
            (d.cal().kv_ops_per_field, d.cal().kv_entry_bytes.get())
        };
        let mut steps = Vec::new();
        let mut shared_kvs = Vec::new();
        for _ in 0..2 {
            let (kv, s) = daos.borrow_mut().kv_create(node, cid, kv_class)?;
            shared_kvs.push(kv);
            steps.push(s);
        }
        Ok((
            FieldIo {
                daos,
                cid,
                array_class,
                kv_class,
                shared_kvs,
                proc_kvs: BTreeMap::new(),
                fields: BTreeMap::new(),
                kv_ops_per_field,
                kv_entry_bytes,
                size_check_on_read: true,
                retry: RetryExec::disabled(),
            },
            Step::seq(steps),
        ))
    }

    /// Use a different Array object class (the redundancy experiments
    /// switch to `EC_2P1`).
    pub fn set_array_class(&mut self, class: ObjectClass) {
        self.array_class = class;
    }

    /// The backing store.
    pub fn daos(&self) -> &Rc<RefCell<DaosSystem>> {
        &self.daos
    }

    /// The container the benchmark writes into.
    pub fn container(&self) -> ContainerId {
        self.cid
    }

    /// Configure retry/timeout/backoff on field operations (`seed`
    /// drives the deterministic jitter stream).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy, seed: u64) {
        self.retry = RetryExec::new(policy, seed);
    }

    /// Retry counters accumulated so far.
    pub fn retry_stats(&self) -> RetryStats {
        *self.retry.stats()
    }

    /// Per-process preparation: create the exclusive index Key-Value.
    /// Benchmark harnesses run this outside the measured window.
    pub fn setup_proc(&mut self, node: usize, proc: usize) -> Result<Step, FieldIoError> {
        let (_, s) = self.proc_kv(node, proc)?;
        Ok(s)
    }

    fn proc_kv(&mut self, node: usize, proc: usize) -> Result<(Oid, Step), FieldIoError> {
        if let Some(&kv) = self.proc_kvs.get(&proc) {
            return Ok((kv, Step::Noop));
        }
        let kv_class = self.kv_class;
        let (kv, s) = self.daos.borrow_mut().kv_create(node, self.cid, kv_class)?;
        self.proc_kvs.insert(proc, kv);
        Ok((kv, s))
    }

    fn index_entry(&self, mode: DataMode) -> Payload {
        match mode {
            DataMode::Full => Payload::Bytes(vec![0xfe; self.kv_entry_bytes as usize]),
            DataMode::Sized => Payload::Sized(self.kv_entry_bytes as u64),
        }
    }

    /// Write field `idx` of process `proc`: one S1 Array plus the index
    /// Key-Value updates.
    pub fn write_field(
        &mut self,
        node: usize,
        proc: usize,
        idx: usize,
        data: Payload,
    ) -> Result<Step, FieldIoError> {
        // Take the executor out so the retried closure can borrow `self`.
        let bytes = data.len();
        let mut retry = std::mem::replace(&mut self.retry, RetryExec::disabled());
        let r = retry.run_step(|| self.write_field_inner(node, proc, idx, data.clone()));
        self.retry = retry;
        Ok(Step::span("fieldio", "write_field", bytes, r?))
    }

    fn write_field_inner(
        &mut self,
        node: usize,
        proc: usize,
        idx: usize,
        data: Payload,
    ) -> Result<Step, FieldIoError> {
        let len = data.len();
        let (own_kv, setup) = self.proc_kv(node, proc)?;
        let array_class = self.array_class;
        let mut daos = self.daos.borrow_mut();
        let (oid, s1) = daos.array_create(node, self.cid, array_class, 1 << 20)?;
        let s2 = daos.array_write(node, self.cid, oid, 0, data)?;
        let mode = daos.data_mode();
        let mut b = StepBuf::new();
        b.seq(|b| {
            b.push(setup);
            b.push(s1);
            b.push(s2);
            b.par(|b| {
                let mut key = String::new();
                for i in 0..self.kv_ops_per_field {
                    index_key(&mut key, proc, idx, i);
                    let value = self.index_entry(mode);
                    let target = if i < SHARED_KV_OPS {
                        self.shared_kvs[i as usize % self.shared_kvs.len()]
                    } else {
                        own_kv
                    };
                    b.push(daos.kv_put(node, self.cid, target, key.as_bytes(), value)?);
                }
                Ok::<_, FieldIoError>(())
            })
        })?;
        drop(daos);
        self.fields.insert((proc, idx), (oid, len));
        Ok(b.finish())
    }

    /// Read field `idx` of process `proc`: index queries, then (in the
    /// real tool's fashion) a size check, then the Array read.
    pub fn read_field(
        &mut self,
        node: usize,
        proc: usize,
        idx: usize,
    ) -> Result<(ReadPayload, Step), FieldIoError> {
        let mut retry = std::mem::replace(&mut self.retry, RetryExec::disabled());
        let r = retry.run(|| self.read_field_inner(node, proc, idx));
        self.retry = retry;
        let (data, s) = r?;
        let bytes = data.len();
        Ok((data, Step::span("fieldio", "read_field", bytes, s)))
    }

    fn read_field_inner(
        &mut self,
        node: usize,
        proc: usize,
        idx: usize,
    ) -> Result<(ReadPayload, Step), FieldIoError> {
        let &(oid, len) = self
            .fields
            .get(&(proc, idx))
            .ok_or(FieldIoError::NoSuchField)?;
        let own_kv = *self.proc_kvs.get(&proc).ok_or(FieldIoError::NoSuchField)?;
        let mut daos = self.daos.borrow_mut();
        let mut b = StepBuf::new();
        let data = b.seq(|b| {
            // index lookups mirror the write-side distribution
            b.par(|b| {
                let mut key = String::new();
                for i in 0..self.kv_ops_per_field {
                    index_key(&mut key, proc, idx, i);
                    let target = if i < SHARED_KV_OPS {
                        self.shared_kvs[i as usize % self.shared_kvs.len()]
                    } else {
                        own_kv
                    };
                    let (_, s) = daos.kv_get(node, self.cid, target, key.as_bytes())?;
                    b.push(s);
                }
                Ok::<_, FieldIoError>(())
            })?;
            // the size check: a serial round trip before the data read
            if self.size_check_on_read {
                let (size, s) = daos.array_get_size(node, self.cid, oid)?;
                debug_assert_eq!(size, len);
                b.push(s);
            }
            let (data, s_read) = daos.array_read(node, self.cid, oid, 0, len)?;
            b.push(s_read);
            Ok::<_, FieldIoError>(data)
        })?;
        drop(daos);
        Ok((data, b.finish()))
    }

    /// Number of fields stored.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }

    /// Cross-check the KV index against the Array data: every field ever
    /// written must still have all of its index entries (shared and
    /// exclusive), an `array_get_size` matching the written length, and
    /// a servable Array read.  An index entry without data (or data
    /// without its index) is exactly the torn state a crash mid-
    /// `write_field` could leave behind.
    ///
    /// Offline audit for the chaos oracles: returned `Step` costs are
    /// discarded and the simulated schedule is not perturbed.
    pub fn verify_consistency(&mut self, node: usize) -> OracleReport {
        let mut report = OracleReport::default();
        let mut daos = self.daos.borrow_mut();
        // detection is monotone per (client, target), so one retry per
        // pool target bounds the TargetDown absorption loop
        let budget = daos.pool().total_targets();
        let mut key = String::new();
        for (&(proc, idx), &(oid, len)) in &self.fields {
            report.checked_kv += 1;
            for i in 0..self.kv_ops_per_field {
                index_key(&mut key, proc, idx, i);
                let target = if i < SHARED_KV_OPS {
                    self.shared_kvs[i as usize % self.shared_kvs.len()]
                } else {
                    match self.proc_kvs.get(&proc) {
                        Some(&kv) => kv,
                        None => {
                            report.violations.push(Violation {
                                oracle: OracleKind::FieldIoConsistency,
                                subject: format!("field {proc}/{idx}"),
                                detail: "field recorded but its process index KV was never created"
                                    .into(),
                            });
                            continue;
                        }
                    }
                };
                let mut got = daos.kv_get(node, self.cid, target, key.as_bytes());
                let mut left = budget;
                while matches!(got, Err(DaosError::TargetDown)) && left > 0 {
                    left -= 1;
                    got = daos.kv_get(node, self.cid, target, key.as_bytes());
                }
                if let Err(e) = got {
                    report.violations.push(Violation {
                        oracle: OracleKind::FieldIoConsistency,
                        subject: format!("field {proc}/{idx} index key {key}"),
                        detail: format!("index entry unreadable: {e:?}"),
                    });
                }
            }
            report.checked_extents += 1;
            let mut got = daos.array_get_size(node, self.cid, oid);
            let mut left = budget;
            while matches!(got, Err(DaosError::TargetDown)) && left > 0 {
                left -= 1;
                got = daos.array_get_size(node, self.cid, oid);
            }
            match got {
                Ok((size, _s)) if size != len => report.violations.push(Violation {
                    oracle: OracleKind::FieldIoConsistency,
                    subject: format!("field {proc}/{idx}"),
                    detail: format!("index records {len} bytes, array reports {size}"),
                }),
                Err(e) => report.violations.push(Violation {
                    oracle: OracleKind::FieldIoConsistency,
                    subject: format!("field {proc}/{idx}"),
                    detail: format!("size check failed: {e:?}"),
                }),
                Ok(_) => {
                    let mut got = daos.array_read(node, self.cid, oid, 0, len);
                    let mut left = budget;
                    while matches!(got, Err(DaosError::TargetDown)) && left > 0 {
                        left -= 1;
                        got = daos.array_read(node, self.cid, oid, 0, len);
                    }
                    match got {
                        Ok((data, _s)) if data.len() != len => report.violations.push(Violation {
                            oracle: OracleKind::FieldIoConsistency,
                            subject: format!("field {proc}/{idx}"),
                            detail: format!("read returned {} of {len} bytes", data.len()),
                        }),
                        Err(e) => report.violations.push(Violation {
                            oracle: OracleKind::FieldIoConsistency,
                            subject: format!("field {proc}/{idx}"),
                            detail: format!("field data unreadable: {e:?}"),
                        }),
                        Ok(_) => {}
                    }
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::ClusterSpec;
    use daos_core::ContainerProps;
    use simkit::{run, OpId, Scheduler, SimTime, World};

    struct Sink(SimTime);
    impl World for Sink {
        fn on_op_complete(&mut self, _op: OpId, sched: &mut Scheduler) {
            self.0 = sched.now();
        }
    }

    fn exec(sched: &mut Scheduler, step: Step) -> f64 {
        let t0 = sched.now();
        sched.submit(step, OpId(0));
        let mut w = Sink(SimTime::ZERO);
        run(sched, &mut w);
        w.0.secs_since(t0)
    }

    fn fixture(mode: DataMode) -> (Scheduler, FieldIo) {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let mut daos = DaosSystem::deploy(&topo, &mut sched, 2, mode);
        let (cid, s) = daos.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let daos = Rc::new(RefCell::new(daos));
        let (fio, s) = FieldIo::new(daos, 0, cid).unwrap();
        exec(&mut sched, s);
        (sched, fio)
    }

    #[test]
    fn write_read_round_trip() {
        let (mut sched, mut fio) = fixture(DataMode::Full);
        let mut rng = simkit::SplitMix64::new(8);
        let mut field = vec![0u8; 80_000];
        rng.fill_bytes(&mut field);
        exec(
            &mut sched,
            fio.write_field(0, 0, 0, Payload::Bytes(field.clone()))
                .unwrap(),
        );
        let (data, s) = fio.read_field(0, 0, 0).unwrap();
        exec(&mut sched, s);
        assert_eq!(data.bytes().unwrap(), &field[..]);
        assert_eq!(
            fio.read_field(0, 0, 9).unwrap_err(),
            FieldIoError::NoSuchField
        );
    }

    #[test]
    fn array_per_field_and_kv_objects() {
        let (mut sched, mut fio) = fixture(DataMode::Sized);
        for p in 0..2 {
            for i in 0..5 {
                exec(
                    &mut sched,
                    fio.write_field(0, p, i, Payload::Sized(1 << 20)).unwrap(),
                );
            }
        }
        assert_eq!(fio.field_count(), 10);
        // 10 arrays + 2 shared KVs + 2 proc KVs
        let count = fio.daos().borrow().object_count(fio.container()).unwrap();
        assert_eq!(count, 14);
    }

    #[test]
    fn size_check_adds_a_round_trip() {
        let (mut sched, mut fio) = fixture(DataMode::Sized);
        exec(
            &mut sched,
            fio.write_field(0, 0, 0, Payload::Sized(1 << 20)).unwrap(),
        );
        let (_, with_check) = fio.read_field(0, 0, 0).unwrap();
        let t_with = exec(&mut sched, with_check);
        fio.size_check_on_read = false;
        let (_, without) = fio.read_field(0, 0, 0).unwrap();
        let t_without = exec(&mut sched, without);
        assert!(
            t_with > t_without,
            "size check must cost time: {t_with} vs {t_without}"
        );
    }

    #[test]
    fn consistency_oracle_catches_torn_index() {
        let (mut sched, mut fio) = fixture(DataMode::Full);
        for i in 0..3 {
            let mut rng = simkit::SplitMix64::new(20 + i as u64);
            let mut field = vec![0u8; 10_000];
            rng.fill_bytes(&mut field);
            exec(
                &mut sched,
                fio.write_field(0, 0, i, Payload::Bytes(field)).unwrap(),
            );
        }
        let report = fio.verify_consistency(0);
        assert!(
            report.ok(),
            "healthy index must audit clean:\n{}",
            report.render()
        );
        assert_eq!(report.checked_kv, 3);
        // Tear field 1: drop one of its exclusive index entries behind
        // the benchmark's back (i = 3 is past the shared ops).
        let cid = fio.container();
        let own_kv = *fio.proc_kvs.get(&0).unwrap();
        let s = fio
            .daos()
            .borrow_mut()
            .kv_remove(0, cid, own_kv, b"f/0/1/3")
            .unwrap();
        exec(&mut sched, s);
        let report = fio.verify_consistency(0);
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.oracle, OracleKind::FieldIoConsistency);
        assert!(v.subject.contains("f/0/1/3"), "{}", v.subject);
        assert!(v.detail.contains("NoSuchKey"), "{}", v.detail);
    }

    #[test]
    fn ec_arrays_supported() {
        let (mut sched, mut fio) = fixture(DataMode::Full);
        fio.set_array_class(ObjectClass::EC_2P1);
        let mut rng = simkit::SplitMix64::new(9);
        let mut field = vec![0u8; 40_000];
        rng.fill_bytes(&mut field);
        exec(
            &mut sched,
            fio.write_field(0, 0, 0, Payload::Bytes(field.clone()))
                .unwrap(),
        );
        let (data, s) = fio.read_field(0, 0, 0).unwrap();
        exec(&mut sched, s);
        assert_eq!(data.bytes().unwrap(), &field[..]);
    }
}
