//! FDB's POSIX backend: per-writer file pairs with client-side buffering.
//!
//! Mirrors the behaviour §II-A4 describes: each writer process creates an
//! **index file** and a **data file**; small field writes accumulate in
//! client memory and are persisted in large sequential blocks (to avoid
//! throttling the weather model), which is why fdb-hammer writes reach
//! IOR-class bandwidth on Lustre.  Readers, conversely, *open and read
//! the two files for every field*, producing the metadata storm that the
//! centralised Lustre MDS cannot absorb (Fig. 7).

use crate::backend::{Fdb, FdbError};
use crate::key::{FieldKey, KeyQuery};
use cluster::payload::{Payload, ReadPayload};
use cluster::posix::{FsError, PosixFs};
use daos_core::{RetryExec, RetryPolicy, RetryStats};
use simkit::{Bytes, SimTime, Step};
use std::collections::BTreeMap;

/// Size of one packed index entry on disk.
const INDEX_ENTRY_BYTES: u64 = 512;

#[derive(Debug, Clone, Copy)]
struct TocEntry {
    owner: usize,
    offset: u64,
    len: u64,
    index_slot: u64,
}

struct WriterState {
    data_path: String,
    index_path: String,
    /// Buffered-but-unflushed bytes.
    buffered: f64,
    /// The actual buffered data when payloads carry bytes (Full mode);
    /// `None` once any sized payload degrades the buffer to lengths.
    buf: Option<Vec<u8>>,
    /// Pending index entries to persist with the next flush.
    pending_entries: u64,
    /// Next data-file offset.
    data_off: u64,
    /// Next index slot.
    index_slot: u64,
}

/// FDB over any [`PosixFs`] (a DFUSE mount or the Lustre client).
pub struct FdbPosix<P: PosixFs> {
    fs: P,
    flush_bytes: f64,
    writers: BTreeMap<usize, WriterState>,
    toc: BTreeMap<FieldKey, TocEntry>,
    /// Retry machinery around the (idempotent) retrieve path (off by
    /// default).
    retry: RetryExec,
}

impl<P: PosixFs> FdbPosix<P> {
    /// Create the backend over a mounted file system.  `flush_bytes` is
    /// the client-side buffer size (the calibration default is 64 MiB).
    pub fn new(mut fs: P, flush_bytes: Bytes) -> Result<FdbPosix<P>, FdbError> {
        fs.mkdir(0, "/fdb").map_err(map_fs)?;
        Ok(FdbPosix {
            fs,
            flush_bytes: flush_bytes.get(),
            writers: BTreeMap::new(),
            toc: BTreeMap::new(),
            retry: RetryExec::disabled(),
        })
    }

    /// The wrapped file system.
    pub fn fs_mut(&mut self) -> &mut P {
        &mut self.fs
    }

    /// Configure retry/timeout/backoff on the retrieve path (`seed`
    /// drives the deterministic jitter stream).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy, seed: u64) {
        self.retry = RetryExec::new(policy, seed);
    }

    /// Retry counters accumulated so far.
    pub fn retry_stats(&self) -> RetryStats {
        *self.retry.stats()
    }

    fn writer(&mut self, node: usize, proc: usize) -> Result<(&mut WriterState, Step), FdbError> {
        let mut setup = Step::Noop;
        if let std::collections::btree_map::Entry::Vacant(slot) = self.writers.entry(proc) {
            let data_path = format!("/fdb/p{proc}.data");
            let index_path = format!("/fdb/p{proc}.index");
            // create both files once; handles are kept open while writing
            let (fd, s1) = self.fs.open(node, &data_path, true).map_err(map_fs)?;
            let s2 = self.fs.close(node, fd).map_err(map_fs)?;
            let (fi, s3) = self.fs.open(node, &index_path, true).map_err(map_fs)?;
            let s4 = self.fs.close(node, fi).map_err(map_fs)?;
            setup = Step::seq([s1, s2, s3, s4]);
            slot.insert(WriterState {
                data_path,
                index_path,
                buffered: 0.0,
                buf: Some(Vec::new()),
                pending_entries: 0,
                data_off: 0,
                index_slot: 0,
            });
        }
        let w = self
            .writers
            .get_mut(&proc)
            .ok_or(FdbError::Backend("writer state missing"))?;
        Ok((w, setup))
    }

    fn flush_writer(&mut self, node: usize, proc: usize) -> Result<Step, FdbError> {
        let (buffered, payload, entries, data_off, data_path, index_path, index_slot) = {
            let w = match self.writers.get_mut(&proc) {
                Some(w) => w,
                None => return Ok(Step::Noop),
            };
            if w.buffered <= 0.0 {
                return Ok(Step::Noop);
            }
            let payload = match w.buf.take() {
                Some(bytes) if bytes.len() as f64 == w.buffered => Payload::Bytes(bytes),
                _ => Payload::Sized(w.buffered as u64),
            };
            let out = (
                w.buffered,
                payload,
                w.pending_entries,
                w.data_off,
                w.data_path.clone(),
                w.index_path.clone(),
                w.index_slot,
            );
            w.buffered = 0.0;
            w.pending_entries = 0;
            w.buf = Some(Vec::new());
            out
        };
        // one large sequential data write + the index entries
        let (fd, s1) = self.fs.open(node, &data_path, false).map_err(map_fs)?;
        let s2 = self
            .fs
            .write(node, fd, data_off - buffered as u64, payload)
            .map_err(map_fs)?;
        let s3 = self.fs.close(node, fd).map_err(map_fs)?;
        let (fi, s4) = self.fs.open(node, &index_path, false).map_err(map_fs)?;
        let idx_bytes = entries * INDEX_ENTRY_BYTES;
        let s5 = self
            .fs
            .write(
                node,
                fi,
                (index_slot - entries) * INDEX_ENTRY_BYTES,
                Payload::Sized(idx_bytes),
            )
            .map_err(map_fs)?;
        let s6 = self.fs.close(node, fi).map_err(map_fs)?;
        Ok(Step::seq([s1, s2, s3, s4, s5, s6]))
    }
}

fn map_fs(e: FsError) -> FdbError {
    match e {
        FsError::NotFound => FdbError::FieldNotFound,
        // the retriable face of a mount/OST fault (see `FdbError`'s
        // `daos_core::retry::Retriable` impl)
        FsError::Unavailable => FdbError::Backend("transient"),
        _ => FdbError::Backend("posix"),
    }
}

impl<P: PosixFs> Fdb for FdbPosix<P> {
    fn setup_proc(&mut self, node: usize, proc: usize) -> Result<Step, FdbError> {
        let (_, setup) = self.writer(node, proc)?;
        Ok(setup)
    }

    fn archive(
        &mut self,
        node: usize,
        proc: usize,
        key: &FieldKey,
        data: Payload,
    ) -> Result<Step, FdbError> {
        let len = data.len();
        let flush_at = self.flush_bytes;
        let (w, setup) = self.writer(node, proc)?;
        let entry = TocEntry {
            owner: proc,
            offset: w.data_off,
            len,
            index_slot: w.index_slot,
        };
        w.data_off += len;
        w.index_slot += 1;
        w.buffered += len as f64;
        w.pending_entries += 1;
        match (&mut w.buf, data.bytes()) {
            (Some(buf), Some(bytes)) => buf.extend_from_slice(bytes),
            // a sized payload degrades this buffer to length tracking
            (buf, None) => *buf = None,
            (None, _) => {}
        }
        let need_flush = w.buffered >= flush_at;
        self.toc.insert(*key, entry);
        let flush = if need_flush {
            self.flush_writer(node, proc)?
        } else {
            Step::Noop
        };
        // buffering is a memcpy; charge a token client-side cost
        Ok(Step::span(
            "fdb",
            "archive",
            len,
            Step::seq([setup, Step::delay(SimTime::from_micros(2)), flush]),
        ))
    }

    fn flush(&mut self, node: usize, proc: usize) -> Result<Step, FdbError> {
        Ok(Step::span(
            "fdb",
            "flush",
            0,
            self.flush_writer(node, proc)?,
        ))
    }

    fn list(&mut self, node: usize, query: &KeyQuery) -> Result<(Vec<FieldKey>, Step), FdbError> {
        // scan the index file of every writer whose member could match:
        // open + bulk index read + close per file (metadata-heavy on
        // Lustre, like everything in the fdb read path)
        let owners: Vec<usize> = self
            .writers
            .keys()
            .copied()
            .filter(|o| query.member.is_none_or(|m| m as usize == *o))
            .collect();
        let mut steps = Vec::new();
        for owner in owners {
            let (index_path, slots) = {
                let w = &self.writers[&owner];
                (w.index_path.clone(), w.index_slot)
            };
            let (fi, s1) = self.fs.open(node, &index_path, false).map_err(map_fs)?;
            let (_, s2) = self
                .fs
                .read(node, fi, 0, slots * INDEX_ENTRY_BYTES)
                .map_err(map_fs)?;
            let s3 = self.fs.close(node, fi).map_err(map_fs)?;
            steps.push(Step::seq([s1, s2, s3]));
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
        // Take the executor out so the retried closure can borrow `self`.
        let mut retry = std::mem::replace(&mut self.retry, RetryExec::disabled());
        let r = retry.run(|| self.retrieve_inner(node, key));
        self.retry = retry;
        let (data, s) = r?;
        let bytes = data.len();
        Ok((data, Step::span("fdb", "retrieve", bytes, s)))
    }
}

impl<P: PosixFs> FdbPosix<P> {
    fn retrieve_inner(
        &mut self,
        node: usize,
        key: &FieldKey,
    ) -> Result<(ReadPayload, Step), FdbError> {
        let entry = *self.toc.get(key).ok_or(FdbError::FieldNotFound)?;
        let (index_path, data_path) = {
            let w = self
                .writers
                .get(&entry.owner)
                .ok_or(FdbError::FieldNotFound)?;
            (w.index_path.clone(), w.data_path.clone())
        };
        // exactly the paper's reader pattern: open index, read the
        // entry, open data, read the field, close both
        let (fi, s1) = self.fs.open(node, &index_path, false).map_err(map_fs)?;
        let (_, s2) = self
            .fs
            .read(
                node,
                fi,
                entry.index_slot * INDEX_ENTRY_BYTES,
                INDEX_ENTRY_BYTES,
            )
            .map_err(map_fs)?;
        let s3 = self.fs.close(node, fi).map_err(map_fs)?;
        let (fd, s4) = self.fs.open(node, &data_path, false).map_err(map_fs)?;
        let (data, s5) = self
            .fs
            .read(node, fd, entry.offset, entry.len)
            .map_err(map_fs)?;
        let s6 = self.fs.close(node, fd).map_err(map_fs)?;
        Ok((data, Step::seq([s1, s2, s3, s4, s5, s6])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::units;
    use cluster::ClusterSpec;
    use lustre_sim::{LustreDataMode, LustreSystem, StripeOpts};
    use simkit::{run, Leaf, OpId, Scheduler, World};

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

    fn lustre_fdb() -> (Scheduler, FdbPosix<LustreSystem>) {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let fs = LustreSystem::deploy(
            &topo,
            &mut sched,
            2,
            LustreDataMode::Sized,
            StripeOpts {
                count: 8,
                size: 8 << 20,
            },
        );
        let fdb = FdbPosix::new(fs, Bytes(4.0 * units::MIB)).unwrap();
        (sched, fdb)
    }

    #[test]
    fn archive_buffers_until_flush_threshold() {
        let (mut sched, mut fdb) = lustre_fdb();
        let mib = 1u64 << 20;
        // first three 1 MiB fields stay buffered (threshold 4 MiB)
        let mut flushed = 0;
        for i in 0..8 {
            let k = FieldKey::sequence(0, i);
            let s = fdb.archive(0, 0, &k, Payload::Sized(mib)).unwrap();
            // a flush moves megabytes; file-creation setup only moves a
            // handful of metadata service ops
            if s.total_units() > 1024.0 {
                flushed += 1;
            }
            exec(&mut sched, s);
        }
        assert_eq!(flushed, 2, "8 MiB at a 4 MiB threshold = 2 flushes");
        let s = fdb.flush(0, 0).unwrap();
        assert!(s.is_noop(), "nothing left to flush");
    }

    #[test]
    fn retrieve_round_trip_and_missing() {
        let (mut sched, mut fdb) = lustre_fdb();
        let k = FieldKey::sequence(0, 0);
        exec(
            &mut sched,
            fdb.archive(0, 0, &k, Payload::Sized(1 << 20)).unwrap(),
        );
        exec(&mut sched, fdb.flush(0, 0).unwrap());
        let (data, s) = fdb.retrieve(0, 0, &k).unwrap();
        exec(&mut sched, s);
        assert_eq!(data.len(), 1 << 20);
        let missing = FieldKey::sequence(9, 9);
        assert_eq!(
            fdb.retrieve(0, 0, &missing).unwrap_err(),
            FdbError::FieldNotFound
        );
    }

    #[test]
    fn cross_process_retrieval() {
        let (mut sched, mut fdb) = lustre_fdb();
        let k = FieldKey::sequence(3, 7);
        exec(
            &mut sched,
            fdb.archive(0, 3, &k, Payload::Sized(1 << 20)).unwrap(),
        );
        exec(&mut sched, fdb.flush(0, 3).unwrap());
        // another process reads it
        let (data, s) = fdb.retrieve(0, 11, &k).unwrap();
        exec(&mut sched, s);
        assert_eq!(data.len(), 1 << 20);
    }

    #[test]
    fn reads_hammer_the_mds() {
        // Per-field retrieval costs 4 MDS transactions (2 opens + 2
        // closes); verify the chain touches the MDS that many times.
        let (mut sched, mut fdb) = lustre_fdb();
        let k = FieldKey::sequence(0, 0);
        exec(
            &mut sched,
            fdb.archive(0, 0, &k, Payload::Sized(1 << 20)).unwrap(),
        );
        exec(&mut sched, fdb.flush(0, 0).unwrap());
        let (_, step) = fdb.retrieve(0, 0, &k).unwrap();
        let mds_cap = 180_000.0;
        fn mds_ops(s: &Step, sched: &Scheduler, cap: f64) -> f64 {
            s.leaves()
                .map(|leaf| match leaf {
                    Leaf::Transfer { units, path }
                        if path.iter().any(|&r| (sched.capacity(r) - cap).abs() < 1.0) =>
                    {
                        units.get()
                    }
                    _ => 0.0,
                })
                .sum()
        }
        assert!(mds_ops(&step, &sched, mds_cap) >= 4.0, "open+close x2");
        exec(&mut sched, step);
    }
}
