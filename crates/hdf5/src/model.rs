//! HDF5 file model, POSIX VFD and DAOS VOL connector.

use cluster::payload::{Payload, ReadPayload};
use cluster::posix::{FileId, FsError, PosixFs};
use cluster::Calibration;
use daos_core::{
    ContainerId, ContainerProps, DaosError, DaosSystem, ObjectClass, Oid, Retriable, RetryExec,
    RetryPolicy, RetryStats,
};
use simkit::{Bytes, ResourceId, Scheduler, Step};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Errors surfaced by the HDF5 layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hdf5Error {
    /// Unknown dataset name.
    NoSuchDataset,
    /// Underlying file-system error.
    Fs(FsError),
    /// Underlying DAOS error.
    Daos(DaosError),
}

impl From<FsError> for Hdf5Error {
    fn from(e: FsError) -> Self {
        Hdf5Error::Fs(e)
    }
}
impl From<DaosError> for Hdf5Error {
    fn from(e: DaosError) -> Self {
        Hdf5Error::Daos(e)
    }
}

impl Retriable for Hdf5Error {
    fn is_retriable(&self) -> bool {
        match self {
            Hdf5Error::NoSuchDataset => false,
            Hdf5Error::Fs(e) => e.is_retriable(),
            Hdf5Error::Daos(e) => e.is_retriable(),
        }
    }
}

/// Shared library state: the per-client-node HDF5 processing ceiling.
// simlint::sim_state — replay-visible simulation state
pub struct H5Runtime {
    node_bw: Vec<ResourceId>,
    cal: Calibration,
    /// Library-wide retry machinery for dataset I/O (off by default).
    /// A `RefCell` so dataset ops can take `&H5Runtime` unchanged.
    retry: RefCell<RetryExec>,
}

impl H5Runtime {
    /// Create the per-node library resources.
    pub fn new(sched: &mut Scheduler, client_nodes: usize, cal: &Calibration) -> H5Runtime {
        let node_bw = (0..client_nodes)
            .map(|c| sched.add_resource(format!("hdf5.cli{c}"), cal.hdf5_client_bw.get()))
            .collect();
        H5Runtime {
            node_bw,
            cal: cal.clone(),
            retry: RefCell::new(RetryExec::disabled()),
        }
    }

    /// Configure retry/timeout/backoff on dataset I/O (`seed` drives
    /// the deterministic jitter stream).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy, seed: u64) {
        self.retry = RefCell::new(RetryExec::new(policy, seed));
    }

    /// Retry counters accumulated so far.
    pub fn retry_stats(&self) -> RetryStats {
        *self.retry.borrow().stats()
    }

    /// Library-side processing of `bytes` on a node.
    fn lib_step(&self, node: usize, bytes: f64) -> Step {
        Step::transfer(Bytes(bytes), [self.node_bw[node]])
    }
}

// ---------------------------------------------------------------------------
// POSIX VFD
// ---------------------------------------------------------------------------

/// Superblock + header region size at the front of the file.  Metadata
/// updates stay inside this region; dataset data starts after it.
const H5_HEADER_BYTES: u64 = 64 * 1024;
/// Index records live in the upper half of the header: 64-byte packed
/// entries `[name_len u16][name ≤38][offset u64][len u64]`, so a file
/// re-opened in Full data mode can recover its dataset index — the
/// role the real object-header messages play.
const H5_INDEX_BASE: u64 = H5_HEADER_BYTES / 2;
const H5_INDEX_ENTRY: u64 = 64;
const H5_INDEX_NAME_MAX: usize = 38;

fn pack_index_entry(name: &str, off: u64, len: u64) -> Vec<u8> {
    let name = name.as_bytes();
    assert!(
        name.len() <= H5_INDEX_NAME_MAX,
        "dataset name too long for index"
    );
    let mut v = vec![0u8; H5_INDEX_ENTRY as usize];
    v[0..2].copy_from_slice(&(name.len() as u16).to_le_bytes());
    v[2..2 + name.len()].copy_from_slice(name);
    v[40..48].copy_from_slice(&off.to_le_bytes());
    v[48..56].copy_from_slice(&len.to_le_bytes());
    v
}

fn unpack_index_entry(buf: &[u8]) -> Option<(String, u64, u64)> {
    let le_u64 = |at: usize| -> Option<u64> {
        let mut b = [0u8; 8];
        b.copy_from_slice(buf.get(at..at + 8)?);
        Some(u64::from_le_bytes(b))
    };
    let name_len = u16::from_le_bytes([*buf.first()?, *buf.get(1)?]) as usize;
    if name_len == 0 || name_len > H5_INDEX_NAME_MAX {
        return None;
    }
    let name = String::from_utf8(buf.get(2..2 + name_len)?.to_vec()).ok()?;
    let off = le_u64(40)?;
    let len = le_u64(48)?;
    Some((name, off, len))
}

/// An HDF5 file on a POSIX mount (the VFD driver).
///
/// Layout: `[header | data heap …]`; the chunk index and object headers
/// are updated in the header region alongside every dataset write.
// simlint::sim_state — replay-visible simulation state
pub struct H5PosixFile {
    handle: FileId,
    node: usize,
    heap_end: u64,
    /// dataset name -> (offset, len)
    index: BTreeMap<String, (u64, u64)>,
}

impl H5PosixFile {
    /// `H5Fcreate`: create the file and write the superblock.
    pub fn create<P: PosixFs + ?Sized>(
        rt: &H5Runtime,
        fs: &mut P,
        node: usize,
        path: &str,
    ) -> Result<(H5PosixFile, Step), Hdf5Error> {
        let _ = rt;
        let (handle, s1) = fs.open(node, path, true)?;
        let s2 = fs.write(node, handle, 0, Payload::Sized(H5_HEADER_BYTES))?;
        Ok((
            H5PosixFile {
                handle,
                node,
                heap_end: H5_HEADER_BYTES,
                index: BTreeMap::new(),
            },
            Step::span("hdf5", "create", 0, Step::seq([s1, s2])),
        ))
    }

    /// `H5Fopen` for reading an existing file.
    pub fn open<P: PosixFs + ?Sized>(
        rt: &H5Runtime,
        fs: &mut P,
        node: usize,
        path: &str,
    ) -> Result<(H5PosixFile, Step), Hdf5Error> {
        let (handle, s1) = fs.open(node, path, false)?;
        // superblock + root header reads; in Full data mode the packed
        // index records are parsed back into the dataset index
        let (header, s2) = fs.read(node, handle, 0, H5_HEADER_BYTES)?;
        let _ = rt;
        let mut index = BTreeMap::new();
        let mut heap_end = H5_HEADER_BYTES;
        if let Some(bytes) = header.bytes() {
            let mut off = H5_INDEX_BASE as usize;
            while off + H5_INDEX_ENTRY as usize <= bytes.len() {
                if let Some((name, doff, dlen)) =
                    unpack_index_entry(&bytes[off..off + H5_INDEX_ENTRY as usize])
                {
                    heap_end = heap_end.max(doff + dlen);
                    index.insert(name, (doff, dlen));
                }
                off += H5_INDEX_ENTRY as usize;
            }
        }
        Ok((
            H5PosixFile {
                handle,
                node,
                heap_end,
                index,
            },
            Step::span("hdf5", "open", H5_HEADER_BYTES, Step::seq([s1, s2])),
        ))
    }

    /// Write one dataset: data fragments into chunk-sized POSIX writes,
    /// plus the metadata updates (object header, chunk index) in the
    /// header region.
    pub fn dataset_write<P: PosixFs + ?Sized>(
        &mut self,
        rt: &H5Runtime,
        fs: &mut P,
        name: &str,
        data: Payload,
    ) -> Result<Step, Hdf5Error> {
        let bytes = data.len();
        let mut retry = rt.retry.borrow_mut();
        let s = retry.run_step(|| self.dataset_write_inner(rt, fs, name, data.clone()))?;
        Ok(Step::span("hdf5", "dataset_write", bytes, s))
    }

    fn dataset_write_inner<P: PosixFs + ?Sized>(
        &mut self,
        rt: &H5Runtime,
        fs: &mut P,
        name: &str,
        data: Payload,
    ) -> Result<Step, Hdf5Error> {
        let len = data.len();
        let off = self.heap_end;
        self.heap_end += len;
        self.index.insert(name.to_string(), (off, len));
        let frag = rt.cal.hdf5_fragment_bytes.get() as u64;
        let mut steps = vec![rt.lib_step(self.node, len as f64)];
        // fragmented data writes (sequential in the VFD)
        match data {
            Payload::Bytes(bytes) => {
                let mut pos = 0u64;
                while pos < len {
                    let take = frag.min(len - pos) as usize;
                    let chunk = bytes[pos as usize..pos as usize + take].to_vec();
                    steps.push(fs.write(
                        self.node,
                        self.handle,
                        off + pos,
                        Payload::Bytes(chunk),
                    )?);
                    pos += take as u64;
                }
            }
            Payload::Sized(_) => {
                let mut pos = 0u64;
                while pos < len {
                    let take = frag.min(len - pos);
                    steps.push(fs.write(
                        self.node,
                        self.handle,
                        off + pos,
                        Payload::Sized(take),
                    )?);
                    pos += take;
                }
            }
        }
        // metadata updates: a persisted index record plus the object
        // header/chunk-index touches (all inside the header region)
        let slot = self.index.len() as u64 - 1;
        let rec_off = H5_INDEX_BASE
            + (slot % ((H5_HEADER_BYTES - H5_INDEX_BASE) / H5_INDEX_ENTRY)) * H5_INDEX_ENTRY;
        steps.push(fs.write(
            self.node,
            self.handle,
            rec_off,
            Payload::Bytes(pack_index_entry(name, off, len)),
        )?);
        let md_span = H5_INDEX_BASE
            .saturating_sub(rt.cal.hdf5_md_bytes.get() as u64)
            .max(1);
        for i in 1..rt.cal.hdf5_md_ops_per_write {
            let md_off = (self.index.len() as u64 * 64 + i as u64 * 8) % md_span;
            steps.push(fs.write(
                self.node,
                self.handle,
                md_off,
                Payload::Sized(rt.cal.hdf5_md_bytes.get() as u64),
            )?);
        }
        Ok(Step::seq(steps))
    }

    /// Read one dataset back: chunk-index lookup plus fragmented reads.
    pub fn dataset_read<P: PosixFs + ?Sized>(
        &mut self,
        rt: &H5Runtime,
        fs: &mut P,
        name: &str,
    ) -> Result<(ReadPayload, Step), Hdf5Error> {
        let mut retry = rt.retry.borrow_mut();
        let (data, s) = retry.run(|| self.dataset_read_inner(rt, fs, name))?;
        let bytes = data.len();
        Ok((data, Step::span("hdf5", "dataset_read", bytes, s)))
    }

    fn dataset_read_inner<P: PosixFs + ?Sized>(
        &mut self,
        rt: &H5Runtime,
        fs: &mut P,
        name: &str,
    ) -> Result<(ReadPayload, Step), Hdf5Error> {
        let &(off, len) = self.index.get(name).ok_or(Hdf5Error::NoSuchDataset)?;
        let mut steps = vec![rt.lib_step(self.node, len as f64)];
        // chunk index lookup
        let (_, s) = fs.read(self.node, self.handle, 0, rt.cal.hdf5_md_bytes.get() as u64)?;
        steps.push(s);
        let frag = rt.cal.hdf5_fragment_bytes.get() as u64;
        let mut out: Option<Vec<u8>> = None;
        let mut sized = 0u64;
        let mut pos = 0u64;
        while pos < len {
            let take = frag.min(len - pos);
            let (piece, s) = fs.read(self.node, self.handle, off + pos, take)?;
            steps.push(s);
            match piece {
                ReadPayload::Bytes(b) => out.get_or_insert_with(Vec::new).extend_from_slice(&b),
                ReadPayload::Sized(n) => sized += n,
            }
            pos += take;
        }
        let data = match out {
            Some(b) => ReadPayload::Bytes(b),
            None => ReadPayload::Sized(sized),
        };
        Ok((data, Step::seq(steps)))
    }

    /// Names of stored datasets.
    pub fn datasets(&self) -> Vec<String> {
        let mut v: Vec<String> = self.index.keys().cloned().collect();
        v.sort();
        v
    }

    /// `H5Fclose`: flush metadata and close.
    pub fn close<P: PosixFs + ?Sized>(self, rt: &H5Runtime, fs: &mut P) -> Result<Step, Hdf5Error> {
        let s1 = fs.write(
            self.node,
            self.handle,
            0,
            Payload::Sized(rt.cal.hdf5_md_bytes.get() as u64),
        )?;
        let s2 = fs.close(self.node, self.handle)?;
        Ok(Step::span("hdf5", "close", 0, Step::seq([s1, s2])))
    }
}

// ---------------------------------------------------------------------------
// DAOS VOL connector
// ---------------------------------------------------------------------------

/// An HDF5 "file" stored through the DAOS VOL connector: a container of
/// its own, a metadata KV, and one Array object per dataset write.
// simlint::sim_state — replay-visible simulation state
pub struct H5DaosFile {
    daos: Rc<RefCell<DaosSystem>>,
    node: usize,
    cid: ContainerId,
    md_kv: Oid,
    index: BTreeMap<String, (Oid, u64)>,
    oclass: ObjectClass,
}

impl H5DaosFile {
    /// `H5Fcreate` through the VOL: creates a dedicated container (the
    /// design decision the paper calls out) plus the file metadata KV.
    pub fn create(
        rt: &H5Runtime,
        daos: &Rc<RefCell<DaosSystem>>,
        node: usize,
        oclass: ObjectClass,
    ) -> Result<(H5DaosFile, Step), Hdf5Error> {
        let _ = rt;
        let (cid, s1) = daos
            .borrow_mut()
            .cont_create(node, ContainerProps::default());
        let (md_kv, s2) = daos.borrow_mut().kv_create(node, cid, ObjectClass::S1)?;
        Ok((
            H5DaosFile {
                daos: daos.clone(),
                node,
                cid,
                md_kv,
                index: BTreeMap::new(),
                oclass,
            },
            Step::span("hdf5", "create", 0, Step::seq([s1, s2])),
        ))
    }

    /// The backing container.
    pub fn container(&self) -> ContainerId {
        self.cid
    }

    /// Write one dataset: a fresh Array object for the data, an index
    /// entry in the file's KV, and a container-metadata transaction
    /// against the pool metadata service (dataset creation updates
    /// container-level metadata).
    pub fn dataset_write(
        &mut self,
        rt: &H5Runtime,
        name: &str,
        data: Payload,
    ) -> Result<Step, Hdf5Error> {
        let bytes = data.len();
        let mut retry = rt.retry.borrow_mut();
        let s = retry.run_step(|| self.dataset_write_inner(rt, name, data.clone()))?;
        Ok(Step::span("hdf5", "dataset_write", bytes, s))
    }

    fn dataset_write_inner(
        &mut self,
        rt: &H5Runtime,
        name: &str,
        data: Payload,
    ) -> Result<Step, Hdf5Error> {
        let len = data.len();
        let mut daos = self.daos.borrow_mut();
        let (oid, s1) = daos.array_create(self.node, self.cid, self.oclass, 1 << 20)?;
        let s2 = daos.array_write(self.node, self.cid, oid, 0, data)?;
        let entry = match daos.data_mode() {
            daos_core::DataMode::Full => {
                let mut v = Vec::with_capacity(24);
                v.extend_from_slice(&oid.hi.to_le_bytes());
                v.extend_from_slice(&oid.lo.to_le_bytes());
                v.extend_from_slice(&len.to_le_bytes());
                Payload::Bytes(v)
            }
            daos_core::DataMode::Sized => Payload::Sized(24),
        };
        let s3 = daos.kv_put(self.node, self.cid, self.md_kv, name.as_bytes(), entry)?;
        let s4 = daos.pool_md_op(1.0);
        drop(daos);
        self.index.insert(name.to_string(), (oid, len));
        Ok(Step::seq([
            rt.lib_step(self.node, len as f64),
            s1,
            s2,
            s3,
            s4,
        ]))
    }

    /// Read one dataset: container-metadata lookup, KV index fetch, then
    /// the Array data.
    pub fn dataset_read(
        &mut self,
        rt: &H5Runtime,
        name: &str,
    ) -> Result<(ReadPayload, Step), Hdf5Error> {
        let mut retry = rt.retry.borrow_mut();
        let (data, s) = retry.run(|| self.dataset_read_inner(rt, name))?;
        let bytes = data.len();
        Ok((data, Step::span("hdf5", "dataset_read", bytes, s)))
    }

    fn dataset_read_inner(
        &mut self,
        rt: &H5Runtime,
        name: &str,
    ) -> Result<(ReadPayload, Step), Hdf5Error> {
        let &(oid, len) = self.index.get(name).ok_or(Hdf5Error::NoSuchDataset)?;
        let mut daos = self.daos.borrow_mut();
        let s0 = daos.pool_md_op(1.0);
        let (_, s1) = daos.kv_get(self.node, self.cid, self.md_kv, name.as_bytes())?;
        let (data, s2) = daos.array_read(self.node, self.cid, oid, 0, len)?;
        drop(daos);
        Ok((
            data,
            Step::seq([rt.lib_step(self.node, len as f64), s0, s1, s2]),
        ))
    }

    /// Names of stored datasets.
    pub fn datasets(&self) -> Vec<String> {
        let mut v: Vec<String> = self.index.keys().cloned().collect();
        v.sort();
        v
    }

    /// `H5Fclose`: closes the container.
    pub fn close(self) -> Result<Step, Hdf5Error> {
        let s = self.daos.borrow_mut().cont_close(self.node, self.cid)?;
        Ok(Step::span("hdf5", "close", 0, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::ClusterSpec;
    use daos_core::DataMode;
    use daos_dfs::{Dfs, DfsOpts};
    use daos_dfuse::{DfuseMount, DfuseOpts};
    use simkit::{run, Leaf, OpId, SimTime, World, MAX_HOPS};

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

    fn daos_fixture() -> (Scheduler, Rc<RefCell<DaosSystem>>, H5Runtime) {
        let mut sched = Scheduler::new();
        let spec = ClusterSpec::new(2, 1);
        let topo = spec.build(&mut sched);
        let rt = H5Runtime::new(&mut sched, 1, &topo.cal);
        let daos = DaosSystem::deploy(&topo, &mut sched, 2, DataMode::Full);
        (sched, Rc::new(RefCell::new(daos)), rt)
    }

    #[test]
    fn posix_vfd_round_trip_on_dfuse() {
        let (mut sched, daos, rt) = daos_fixture();
        let (cid, s) = daos.borrow_mut().cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let (dfs, s) = Dfs::format(daos.clone(), 0, cid, DfsOpts::default()).unwrap();
        exec(&mut sched, s);
        let mut mount = DfuseMount::mount(dfs, &mut sched, DfuseOpts::with_interception());

        let (mut h5, s) = H5PosixFile::create(&rt, &mut mount, 0, "/out.h5").unwrap();
        exec(&mut sched, s);
        let mut rng = simkit::SplitMix64::new(4);
        let mut data = vec![0u8; 700_000];
        rng.fill_bytes(&mut data);
        let s = h5
            .dataset_write(&rt, &mut mount, "temp_000", Payload::Bytes(data.clone()))
            .unwrap();
        exec(&mut sched, s);
        let (r, s) = h5.dataset_read(&rt, &mut mount, "temp_000").unwrap();
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &data[..]);
        assert_eq!(h5.datasets(), vec!["temp_000"]);
        let s = h5.close(&rt, &mut mount).unwrap();
        exec(&mut sched, s);
    }

    #[test]
    fn posix_vfd_fragments_and_adds_metadata_ops() {
        let (mut sched, daos, rt) = daos_fixture();
        let (cid, s) = daos.borrow_mut().cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let (mut dfs, s) = Dfs::format(daos.clone(), 0, cid, DfsOpts::default()).unwrap();
        exec(&mut sched, s);
        let (mut h5, s) = H5PosixFile::create(&rt, &mut dfs, 0, "/f.h5").unwrap();
        exec(&mut sched, s);
        // 1 MiB = 4 × 256 KiB fragments + 2 metadata writes: the lib
        // issues 6 dfs writes, observable beside the lib step's own
        // transfer as one client-to-target data transfer each.
        let step = h5
            .dataset_write(&rt, &mut dfs, "d", Payload::Sized(1 << 20))
            .unwrap();
        let lib_pipe = rt.node_bw[0];
        let moves = step
            .leaves()
            .filter(|leaf| match leaf {
                Leaf::Transfer { path, .. } => path[0] == lib_pipe || path.len() == MAX_HOPS,
                Leaf::Delay(_) => false,
            })
            .count();
        assert!(moves >= 7, "lib step + 4 fragments + 2 md: {step:?}");
        exec(&mut sched, step);
    }

    #[test]
    fn daos_vol_round_trip() {
        let (mut sched, daos, rt) = daos_fixture();
        let (mut h5, s) = H5DaosFile::create(&rt, &daos, 0, ObjectClass::SX).unwrap();
        exec(&mut sched, s);
        let mut rng = simkit::SplitMix64::new(5);
        let mut data = vec![0u8; 300_000];
        rng.fill_bytes(&mut data);
        let s = h5
            .dataset_write(&rt, "press_850", Payload::Bytes(data.clone()))
            .unwrap();
        exec(&mut sched, s);
        let (r, s) = h5.dataset_read(&rt, "press_850").unwrap();
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &data[..]);
        assert!(matches!(
            h5.dataset_read(&rt, "missing").unwrap_err(),
            Hdf5Error::NoSuchDataset
        ));
        exec(&mut sched, h5.close().unwrap());
    }

    #[test]
    fn daos_vol_uses_container_per_file_and_object_per_write() {
        let (mut sched, daos, rt) = daos_fixture();
        let (mut a, s) = H5DaosFile::create(&rt, &daos, 0, ObjectClass::SX).unwrap();
        exec(&mut sched, s);
        let (b, s) = H5DaosFile::create(&rt, &daos, 0, ObjectClass::SX).unwrap();
        exec(&mut sched, s);
        assert_ne!(a.container(), b.container(), "container per file");
        for i in 0..4 {
            let s = a
                .dataset_write(&rt, &format!("d{i}"), Payload::Sized(1024))
                .unwrap();
            exec(&mut sched, s);
        }
        // 4 data objects + 1 metadata KV
        assert_eq!(daos.borrow().object_count(a.container()).unwrap(), 5);
        let _ = b;
    }

    #[test]
    fn vol_write_charges_pool_metadata_service() {
        let (mut sched, daos, rt) = daos_fixture();
        let (mut h5, s) = H5DaosFile::create(&rt, &daos, 0, ObjectClass::SX).unwrap();
        exec(&mut sched, s);
        let step = h5.dataset_write(&rt, "d", Payload::Sized(1 << 20)).unwrap();
        // the chain must include a pool-md transfer (capacity = pool_md_iops)
        let md_cap = daos.borrow().cal().pool_md_iops;
        fn has_cap(s: &Step, sched: &Scheduler, cap: f64) -> bool {
            s.leaves().any(|leaf| match leaf {
                Leaf::Transfer { path, .. } => {
                    path.iter().any(|&r| (sched.capacity(r) - cap).abs() < 1e-6)
                }
                Leaf::Delay(_) => false,
            })
        }
        assert!(
            has_cap(&step, &sched, md_cap),
            "dataset write must hit pool md"
        );
        exec(&mut sched, step);
    }
}

#[cfg(test)]
mod reopen_tests {
    use super::*;
    use cluster::ClusterSpec;
    use daos_core::DataMode;
    use daos_dfs::{Dfs, DfsOpts};
    use simkit::{run, OpId, World};
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

    #[test]
    fn reopened_file_recovers_dataset_index() {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let mut daos = daos_core::DaosSystem::deploy(&topo, &mut sched, 2, DataMode::Full);
        let (cid, s) = daos.cont_create(0, daos_core::ContainerProps::default());
        exec(&mut sched, s);
        let daos = Rc::new(RefCell::new(daos));
        let (mut dfs, s) = Dfs::format(daos, 0, cid, DfsOpts::default()).unwrap();
        exec(&mut sched, s);
        let rt = H5Runtime::new(&mut sched, 1, &topo.cal);

        let mut rng = simkit::SplitMix64::new(10);
        let mut payloads = Vec::new();
        {
            let (mut h5, s) = H5PosixFile::create(&rt, &mut dfs, 0, "/sim.h5").unwrap();
            exec(&mut sched, s);
            for i in 0..3 {
                let mut data = vec![0u8; 50_000 + i * 1000];
                rng.fill_bytes(&mut data);
                let s = h5
                    .dataset_write(
                        &rt,
                        &mut dfs,
                        &format!("var{i}"),
                        Payload::Bytes(data.clone()),
                    )
                    .unwrap();
                exec(&mut sched, s);
                payloads.push(data);
            }
            let s = h5.close(&rt, &mut dfs).unwrap();
            exec(&mut sched, s);
        }

        // a fresh handle recovers the index from the persisted records
        let (mut h5, s) = H5PosixFile::open(&rt, &mut dfs, 0, "/sim.h5").unwrap();
        exec(&mut sched, s);
        assert_eq!(h5.datasets(), vec!["var0", "var1", "var2"]);
        for (i, expect) in payloads.iter().enumerate() {
            let (got, s) = h5.dataset_read(&rt, &mut dfs, &format!("var{i}")).unwrap();
            exec(&mut sched, s);
            assert_eq!(got.bytes().unwrap(), &expect[..], "var{i}");
        }
        // appending continues past the recovered heap end
        let s = h5
            .dataset_write(&rt, &mut dfs, "var3", Payload::Bytes(vec![9; 100]))
            .unwrap();
        exec(&mut sched, s);
        let (got, s) = h5.dataset_read(&rt, &mut dfs, "var3").unwrap();
        exec(&mut sched, s);
        assert_eq!(got.bytes().unwrap(), &[9u8; 100][..]);
    }

    #[test]
    fn index_entry_pack_round_trip() {
        let e = pack_index_entry("temperature_850hPa", 123456, 789);
        let (name, off, len) = unpack_index_entry(&e).unwrap();
        assert_eq!(name, "temperature_850hPa");
        assert_eq!((off, len), (123456, 789));
        assert_eq!(unpack_index_entry(&[0u8; 64]), None, "empty slot");
    }
}
