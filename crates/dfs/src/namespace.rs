//! The libdfs-style POSIX namespace encoded on DAOS objects.
//!
//! Exactly like libdfs, the namespace lives *in* the object store:
//! every directory is a Key-Value object mapping entry names to packed
//! dirents (object id + kind), every regular file is an Array object,
//! and symbolic links are dirents carrying their target path.  A mount
//! wraps one container; the superblock/root directory is created on
//! format.
//!
//! Every operation issues the corresponding KV/Array operations against
//! [`DaosSystem`] and returns their combined cost [`Step`].  An in-memory
//! inode table caches the directory tree — the same role the real
//! libdfs object-handle cache plays — while the authoritative dirent
//! bytes live in the KV objects (verifiable in Full data mode).

use cluster::payload::{Payload, ReadPayload};
use cluster::posix::{components, FileId, FileStat, FsError, PosixFs};
use daos_core::{
    ContainerId, DaosError, DaosSystem, ObjectClass, Oid, OracleKind, OracleReport, RetryExec,
    RetryPolicy, RetryStats, Violation,
};
use simkit::{SimTime, Step};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Mount options.
#[derive(Debug, Clone)]
pub struct DfsOpts {
    /// Object class for regular files (paper: `SX` performed best).
    pub file_class: ObjectClass,
    /// Object class for directories (paper: `SX`; `RP_2` in the
    /// redundancy experiments).
    pub dir_class: ObjectClass,
    /// Array chunk size for file data.
    pub chunk_size: u64,
}

impl Default for DfsOpts {
    fn default() -> Self {
        DfsOpts {
            file_class: ObjectClass::SX,
            dir_class: ObjectClass::SX,
            chunk_size: 1 << 20,
        }
    }
}

/// Inode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InodeId(pub u32);

#[derive(Debug)]
enum InodeKind {
    Dir {
        kv: Oid,
        entries: BTreeMap<String, InodeId>,
    },
    File {
        arr: Oid,
    },
    Symlink {
        target: String,
    },
}

#[derive(Debug)]
struct Inode {
    kind: InodeKind,
    nlink: u32,
}

/// A mounted DFS namespace.
pub struct Dfs {
    daos: Rc<RefCell<DaosSystem>>,
    cid: ContainerId,
    opts: DfsOpts,
    inodes: Vec<Inode>,
    handles: BTreeMap<u64, InodeId>,
    next_handle: u64,
    op_overhead_ns: SimTime,
    /// Retry machinery for the data path (off by default).
    retry: RetryExec,
}

/// Maximum symlink traversals before `SymlinkLoop`.
const MAX_SYMLINKS: u32 = 8;

fn pack_dirent(oid: Oid, kind: u8, target: &str) -> Vec<u8> {
    let mut v = Vec::with_capacity(17 + target.len());
    v.push(kind);
    v.extend_from_slice(&oid.hi.to_le_bytes());
    v.extend_from_slice(&oid.lo.to_le_bytes());
    v.extend_from_slice(target.as_bytes());
    v
}

impl Dfs {
    /// Format and mount a DFS namespace in `cid`.  Returns the mount and
    /// the cost of creating the superblock/root directory.
    pub fn format(
        daos: Rc<RefCell<DaosSystem>>,
        client: usize,
        cid: ContainerId,
        opts: DfsOpts,
    ) -> Result<(Dfs, Step), FsError> {
        let op_overhead_ns = daos.borrow().cal().dfs_op_ns;
        let (root_kv, step) = daos
            .borrow_mut()
            .kv_create(client, cid, opts.dir_class)
            .map_err(map_daos)?;
        let dfs = Dfs {
            daos,
            cid,
            opts,
            inodes: vec![Inode {
                kind: InodeKind::Dir {
                    kv: root_kv,
                    entries: BTreeMap::new(),
                },
                nlink: 1,
            }],
            handles: BTreeMap::new(),
            next_handle: 1,
            op_overhead_ns,
            retry: RetryExec::disabled(),
        };
        Ok((dfs, Step::delay(op_overhead_ns).then(step)))
    }

    /// The root inode.
    pub fn root(&self) -> InodeId {
        InodeId(0)
    }

    /// The backing store (for cross-interface tests/examples).
    pub fn daos(&self) -> &Rc<RefCell<DaosSystem>> {
        &self.daos
    }

    /// The container this namespace lives in.
    pub fn container(&self) -> ContainerId {
        self.cid
    }

    /// Configure retry/timeout/backoff on the data path (`seed` drives
    /// the deterministic jitter stream).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy, seed: u64) {
        self.retry = RetryExec::new(policy, seed);
    }

    /// Retry counters accumulated so far.
    pub fn retry_stats(&self) -> RetryStats {
        *self.retry.stats()
    }

    fn overhead(&self) -> Step {
        Step::delay(self.op_overhead_ns)
    }

    fn inode(&self, id: InodeId) -> &Inode {
        &self.inodes[id.0 as usize]
    }

    fn dirent_payload(&self, oid: Oid, kind: u8, target: &str) -> Payload {
        match self.daos.borrow().data_mode() {
            daos_core::DataMode::Full => Payload::Bytes(pack_dirent(oid, kind, target)),
            daos_core::DataMode::Sized => Payload::Sized(17 + target.len() as u64),
        }
    }

    /// Walk `path` from the root.  `follow_last` resolves a trailing
    /// symlink.  Returns the inode and the lookup cost (one KV get per
    /// component, exactly libdfs's `dfs_lookup`).
    pub fn resolve(
        &mut self,
        client: usize,
        path: &str,
        follow_last: bool,
    ) -> Result<(InodeId, Step), FsError> {
        let mut hops = 0u32;
        let mut step = self.overhead();
        let mut cur = self.root();
        let mut stack: Vec<String> = components(path)
            .iter()
            .rev()
            .map(|s| s.to_string())
            .collect();
        while let Some(name) = stack.pop() {
            let (kv, next) = match &self.inode(cur).kind {
                InodeKind::Dir { kv, entries } => {
                    let next = *entries.get(&name).ok_or(FsError::NotFound)?;
                    (*kv, next)
                }
                _ => return Err(FsError::NotDir),
            };
            // charge the dirent fetch
            let (_, s) = self
                .daos
                .borrow_mut()
                .kv_get(client, self.cid, kv, name.as_bytes())
                .map_err(map_daos)?;
            step = step.then(s);
            // follow symlinks
            if let InodeKind::Symlink { target } = &self.inode(next).kind {
                let is_last = stack.is_empty();
                if is_last && !follow_last {
                    cur = next;
                    continue;
                }
                hops += 1;
                if hops > MAX_SYMLINKS {
                    return Err(FsError::SymlinkLoop);
                }
                let target = target.clone();
                if target.starts_with('/') {
                    cur = self.root();
                }
                for c in components(&target).iter().rev() {
                    stack.push(c.to_string());
                }
                continue;
            }
            cur = next;
        }
        Ok((cur, step))
    }

    fn resolve_parent<'p>(
        &mut self,
        client: usize,
        path: &'p str,
    ) -> Result<(InodeId, &'p str, Step), FsError> {
        let comps = components(path);
        let (name, parents) = comps.split_last().ok_or(FsError::Exists)?;
        let parent_path = parents.join("/");
        let (pid, step) = self.resolve(client, &parent_path, true)?;
        match &self.inode(pid).kind {
            InodeKind::Dir { .. } => Ok((pid, name, step)),
            _ => Err(FsError::NotDir),
        }
    }

    #[allow(clippy::too_many_arguments)] // dirent updates carry full identity
    fn insert_dirent(
        &mut self,
        client: usize,
        parent: InodeId,
        name: &str,
        child: InodeId,
        oid: Oid,
        kind: u8,
        target: &str,
    ) -> Result<Step, FsError> {
        let payload = self.dirent_payload(oid, kind, target);
        let kv = match &mut self.inodes[parent.0 as usize].kind {
            InodeKind::Dir { kv, entries } => {
                entries.insert(name.to_string(), child);
                *kv
            }
            _ => return Err(FsError::NotDir),
        };
        self.daos
            .borrow_mut()
            .kv_put(client, self.cid, kv, name.as_bytes(), payload)
            .map_err(map_daos)
    }

    /// Open (or create) `name` directly under an already-resolved parent
    /// directory — the parent-relative form the real `dfs_open` exposes,
    /// which lets callers (like the kernel dentry cache above DFUSE)
    /// skip the per-component path walk.
    pub fn open_at(
        &mut self,
        client: usize,
        parent: InodeId,
        name: &str,
        create: bool,
    ) -> Result<(FileId, Step), FsError> {
        let kv = self.dir_kv(parent)?;
        match self.child_of(parent, name) {
            Some(id) => {
                if matches!(self.inode(id).kind, InodeKind::Dir { .. }) {
                    return Err(FsError::IsDir);
                }
                // one dirent fetch on the parent's KV
                let (_, s) = self
                    .daos
                    .borrow_mut()
                    .kv_get(client, self.cid, kv, name.as_bytes())
                    .map_err(map_daos)?;
                let h = self.next_handle;
                self.next_handle += 1;
                self.handles.insert(h, id);
                Ok((FileId(h), self.overhead().then(s)))
            }
            None if create => {
                let (file_class, chunk) = (self.opts.file_class, self.opts.chunk_size);
                let (arr, s1) = self
                    .daos
                    .borrow_mut()
                    .array_create(client, self.cid, file_class, chunk)
                    .map_err(map_daos)?;
                let id = InodeId(self.inodes.len() as u32);
                self.inodes.push(Inode {
                    kind: InodeKind::File { arr },
                    nlink: 1,
                });
                let s2 = self.insert_dirent(client, parent, name, id, arr, 0, "")?;
                let h = self.next_handle;
                self.next_handle += 1;
                self.handles.insert(h, id);
                Ok((FileId(h), Step::seq([self.overhead(), s1, s2])))
            }
            None => Err(FsError::NotFound),
        }
    }

    /// Create a symbolic link at `path` pointing to `target`.
    pub fn symlink(&mut self, client: usize, target: &str, path: &str) -> Result<Step, FsError> {
        let (pid, name, step) = self.resolve_parent(client, path)?;
        if self.child_of(pid, name).is_some() {
            return Err(FsError::Exists);
        }
        let id = InodeId(self.inodes.len() as u32);
        self.inodes.push(Inode {
            kind: InodeKind::Symlink {
                target: target.to_string(),
            },
            nlink: 1,
        });
        // symlinks need no object of their own; the dirent carries the target
        let oid = Oid::encode(0, ObjectClass::S1, 0);
        let s = self.insert_dirent(client, pid, name, id, oid, 2, target)?;
        Ok(step.then(s))
    }

    /// Read a symlink's target.
    pub fn readlink(&mut self, client: usize, path: &str) -> Result<(String, Step), FsError> {
        let (id, step) = self.resolve(client, path, false)?;
        match &self.inode(id).kind {
            InodeKind::Symlink { target } => Ok((target.clone(), step)),
            _ => Err(FsError::Other("not a symlink")),
        }
    }

    /// Rename an entry (same-directory or cross-directory).
    pub fn rename(&mut self, client: usize, from: &str, to: &str) -> Result<Step, FsError> {
        let (from_pid, from_name, s1) = self.resolve_parent(client, from)?;
        let child = self
            .child_of(from_pid, from_name)
            .ok_or(FsError::NotFound)?;
        let (to_pid, to_name, s2) = self.resolve_parent(client, to)?;
        // remove source dirent
        let from_kv = self.dir_kv(from_pid)?;
        let s3 = self
            .daos
            .borrow_mut()
            .kv_remove(client, self.cid, from_kv, from_name.as_bytes())
            .map_err(map_daos)?;
        if let InodeKind::Dir { entries, .. } = &mut self.inodes[from_pid.0 as usize].kind {
            entries.remove(from_name);
        }
        // overwrite destination if present
        if let Some(old) = self.child_of(to_pid, to_name) {
            let _ = old;
            let to_kv = self.dir_kv(to_pid)?;
            let _ = self
                .daos
                .borrow_mut()
                .kv_remove(client, self.cid, to_kv, to_name.as_bytes());
            if let InodeKind::Dir { entries, .. } = &mut self.inodes[to_pid.0 as usize].kind {
                entries.remove(to_name);
            }
        }
        let oid = self.inode_oid(child);
        let s4 = self.insert_dirent(
            client,
            to_pid,
            to_name,
            child,
            oid,
            self.kind_byte(child),
            "",
        )?;
        Ok(Step::seq([s1, s2, s3, s4]))
    }

    fn child_of(&self, dir: InodeId, name: &str) -> Option<InodeId> {
        match &self.inode(dir).kind {
            InodeKind::Dir { entries, .. } => entries.get(name).copied(),
            _ => None,
        }
    }

    fn dir_kv(&self, dir: InodeId) -> Result<Oid, FsError> {
        match &self.inode(dir).kind {
            InodeKind::Dir { kv, .. } => Ok(*kv),
            _ => Err(FsError::NotDir),
        }
    }

    fn inode_oid(&self, id: InodeId) -> Oid {
        match &self.inode(id).kind {
            InodeKind::Dir { kv, .. } => *kv,
            InodeKind::File { arr } => *arr,
            InodeKind::Symlink { .. } => Oid::encode(0, ObjectClass::S1, 0),
        }
    }

    fn kind_byte(&self, id: InodeId) -> u8 {
        match &self.inode(id).kind {
            InodeKind::Dir { .. } => 1,
            InodeKind::File { .. } => 0,
            InodeKind::Symlink { .. } => 2,
        }
    }

    /// Number of live inodes (diagnostics).
    pub fn inode_count(&self) -> usize {
        self.inodes.iter().filter(|i| i.nlink > 0).count()
    }

    /// The Array object backing an open file — lets tests read a file
    /// written through DFS back through raw libdaos, the cross-interface
    /// visibility the paper relies on.
    pub fn file_object(&self, f: FileId) -> Result<Oid, FsError> {
        let id = self.handles.get(&f.0).ok_or(FsError::BadHandle)?;
        match &self.inode(*id).kind {
            InodeKind::File { arr } => Ok(*arr),
            _ => Err(FsError::IsDir),
        }
    }

    /// Audit namespace connectivity: walk every directory from the root
    /// and check that each dirent is still readable from its directory
    /// KV object (and, in Full data mode, still decodes to the child it
    /// names), that each file's backing Array object answers a size
    /// query, and that no live inode has become unreachable from the
    /// root.  Any failure is the namespace equivalent of a torn write —
    /// a name that resolves in the cache but not in the store.
    ///
    /// Offline audit for the chaos oracles: returned `Step` costs are
    /// discarded and the simulated schedule is not perturbed.
    pub fn verify_connectivity(&mut self, client: usize) -> OracleReport {
        let mut report = OracleReport::default();
        let mut daos = self.daos.borrow_mut();
        // detection is monotone per (client, target), so one retry per
        // pool target bounds the TargetDown absorption loop
        let budget = daos.pool().total_targets();
        let full = daos.data_mode() == daos_core::DataMode::Full;
        let mut reached = vec![false; self.inodes.len()];
        reached[self.root().0 as usize] = true;
        // (inode, path) breadth-first over the in-memory tree
        let mut queue = vec![(self.root(), String::from("/"))];
        while let Some((dir, path)) = queue.pop() {
            let (kv, entries) = match &self.inode(dir).kind {
                InodeKind::Dir { kv, entries } => (*kv, entries.clone()),
                _ => continue,
            };
            for (name, child) in entries {
                let child_path = format!("{}{}", path, name);
                report.checked_kv += 1;
                if let Some(r) = reached.get_mut(child.0 as usize) {
                    *r = true;
                }
                let mut got = daos.kv_get(client, self.cid, kv, name.as_bytes());
                let mut left = budget;
                while matches!(got, Err(DaosError::TargetDown)) && left > 0 {
                    left -= 1;
                    got = daos.kv_get(client, self.cid, kv, name.as_bytes());
                }
                match got {
                    Ok((dirent, _s)) => {
                        if full {
                            if let Some(detail) = dirent_mismatch(
                                dirent.bytes(),
                                self.kind_byte(child),
                                self.inode_oid(child),
                            ) {
                                report.violations.push(Violation {
                                    oracle: OracleKind::NamespaceConnectivity,
                                    subject: format!("dirent {child_path}"),
                                    detail,
                                });
                            }
                        }
                    }
                    Err(e) => report.violations.push(Violation {
                        oracle: OracleKind::NamespaceConnectivity,
                        subject: format!("dirent {child_path}"),
                        detail: format!("entry resolves in cache but store read failed: {e:?}"),
                    }),
                }
                match &self.inode(child).kind {
                    InodeKind::File { arr } => {
                        report.checked_extents += 1;
                        let mut got = daos.array_get_size(client, self.cid, *arr);
                        let mut left = budget;
                        while matches!(got, Err(DaosError::TargetDown)) && left > 0 {
                            left -= 1;
                            got = daos.array_get_size(client, self.cid, *arr);
                        }
                        if let Err(e) = got {
                            report.violations.push(Violation {
                                oracle: OracleKind::NamespaceConnectivity,
                                subject: format!("file {child_path}"),
                                detail: format!("backing Array object lost: {e:?}"),
                            });
                        }
                    }
                    InodeKind::Dir { .. } => queue.push((child, format!("{child_path}/"))),
                    InodeKind::Symlink { .. } => {}
                }
            }
        }
        for (i, inode) in self.inodes.iter().enumerate() {
            if inode.nlink > 0 && !reached[i] {
                report.violations.push(Violation {
                    oracle: OracleKind::NamespaceConnectivity,
                    subject: format!("inode {i}"),
                    detail: "live inode unreachable from the root".into(),
                });
            }
        }
        report
    }
}

/// Full-mode dirent content check: the packed bytes must name the same
/// child the in-memory tree does.
fn dirent_mismatch(bytes: Option<&[u8]>, kind: u8, oid: Oid) -> Option<String> {
    let Some(b) = bytes else {
        return Some("dirent payload not materialised in Full mode".into());
    };
    if b.len() < 17 {
        return Some(format!("dirent truncated: {} bytes", b.len()));
    }
    if b[0] != kind {
        return Some(format!("dirent kind {} but inode kind {kind}", b[0]));
    }
    let hi = u64::from_le_bytes(b[1..9].try_into().expect("sliced to 8"));
    let lo = u64::from_le_bytes(b[9..17].try_into().expect("sliced to 8"));
    if (Oid { hi, lo }) != oid {
        return Some(format!(
            "dirent points at {:x}.{:x} but inode holds {:x}.{:x}",
            hi, lo, oid.hi, oid.lo
        ));
    }
    None
}

/// The POSIX face of a DAOS error.  Every variant is classified here, so
/// a new one cannot slip through untriaged: a retriable DAOS error maps
/// to `FsError::Unavailable`, the POSIX layer's one retriable error (see
/// `daos_core::retry::Retriable`), and a terminal one to a terminal
/// error.
pub fn map_daos(e: DaosError) -> FsError {
    match e {
        // BadChecksum is retriable like TargetDown: a scrub repair or a
        // rewrite may heal the extent between attempts.
        DaosError::Timeout
        | DaosError::TargetDown
        | DaosError::BadChecksum
        | DaosError::Retriable => FsError::Unavailable,
        // data on down targets beyond the class redundancy is lost: no
        // retry can serve it
        DaosError::Unavailable => FsError::Other("data unavailable"),
        DaosError::NoSuchKey | DaosError::NoSuchObject => FsError::NotFound,
        DaosError::NoSuchContainer => FsError::Other("container gone"),
        DaosError::WrongObjectType => FsError::Other("object type mismatch"),
        DaosError::InvalidClass => FsError::Other("invalid class"),
    }
}

impl PosixFs for Dfs {
    fn mkdir(&mut self, client: usize, path: &str) -> Result<Step, FsError> {
        let (pid, name, s1) = self.resolve_parent(client, path)?;
        if self.child_of(pid, name).is_some() {
            return Err(FsError::Exists);
        }
        let dir_class = self.opts.dir_class;
        let (kv, s2) = self
            .daos
            .borrow_mut()
            .kv_create(client, self.cid, dir_class)
            .map_err(map_daos)?;
        let id = InodeId(self.inodes.len() as u32);
        self.inodes.push(Inode {
            kind: InodeKind::Dir {
                kv,
                entries: BTreeMap::new(),
            },
            nlink: 1,
        });
        let s3 = self.insert_dirent(client, pid, name, id, kv, 1, "")?;
        Ok(Step::span("libdfs", "mkdir", 0, Step::seq([s1, s2, s3])))
    }

    fn open(&mut self, client: usize, path: &str, create: bool) -> Result<(FileId, Step), FsError> {
        let existing = self.resolve(client, path, true);
        let (id, step) = match existing {
            Ok((id, s)) => {
                if matches!(self.inode(id).kind, InodeKind::Dir { .. }) {
                    return Err(FsError::IsDir);
                }
                (id, s)
            }
            Err(FsError::NotFound) if create => {
                let (pid, name, s1) = self.resolve_parent(client, path)?;
                let (file_class, chunk) = (self.opts.file_class, self.opts.chunk_size);
                let (arr, s2) = self
                    .daos
                    .borrow_mut()
                    .array_create(client, self.cid, file_class, chunk)
                    .map_err(map_daos)?;
                let id = InodeId(self.inodes.len() as u32);
                self.inodes.push(Inode {
                    kind: InodeKind::File { arr },
                    nlink: 1,
                });
                let s3 = self.insert_dirent(client, pid, name, id, arr, 0, "")?;
                (id, Step::seq([s1, s2, s3]))
            }
            Err(e) => return Err(e),
        };
        let h = self.next_handle;
        self.next_handle += 1;
        self.handles.insert(h, id);
        Ok((FileId(h), Step::span("libdfs", "open", 0, step)))
    }

    fn write(
        &mut self,
        client: usize,
        f: FileId,
        offset: u64,
        data: Payload,
    ) -> Result<Step, FsError> {
        let arr = self.file_object(f)?;
        let cid = self.cid;
        let retry = &mut self.retry;
        let daos = &self.daos;
        let bytes = data.len();
        let s = retry.run_step(|| {
            daos.borrow_mut()
                .array_write(client, cid, arr, offset, data.clone())
                .map_err(map_daos)
        })?;
        Ok(Step::span(
            "libdfs",
            "write",
            bytes,
            self.overhead().then(s),
        ))
    }

    fn read(
        &mut self,
        client: usize,
        f: FileId,
        offset: u64,
        len: u64,
    ) -> Result<(ReadPayload, Step), FsError> {
        let arr = self.file_object(f)?;
        let cid = self.cid;
        let retry = &mut self.retry;
        let daos = &self.daos;
        let (data, s) = retry.run(|| {
            daos.borrow_mut()
                .array_read(client, cid, arr, offset, len)
                .map_err(map_daos)
        })?;
        let s = Step::span("libdfs", "read", len, self.overhead().then(s));
        Ok((data, s))
    }

    fn fstat(&mut self, client: usize, f: FileId) -> Result<(FileStat, Step), FsError> {
        let arr = self.file_object(f)?;
        let (size, s) = self
            .daos
            .borrow_mut()
            .array_get_size(client, self.cid, arr)
            .map_err(map_daos)?;
        Ok((
            FileStat {
                size,
                is_dir: false,
            },
            Step::span("libdfs", "fstat", 0, self.overhead().then(s)),
        ))
    }

    fn stat(&mut self, client: usize, path: &str) -> Result<(FileStat, Step), FsError> {
        let (id, s1) = self.resolve(client, path, true)?;
        match &self.inode(id).kind {
            InodeKind::Dir { .. } => Ok((
                FileStat {
                    size: 0,
                    is_dir: true,
                },
                s1,
            )),
            InodeKind::File { arr } => {
                let arr = *arr;
                let (size, s2) = self
                    .daos
                    .borrow_mut()
                    .array_get_size(client, self.cid, arr)
                    .map_err(map_daos)?;
                Ok((
                    FileStat {
                        size,
                        is_dir: false,
                    },
                    Step::span("libdfs", "stat", 0, s1.then(s2)),
                ))
            }
            InodeKind::Symlink { .. } => Ok((
                FileStat {
                    size: 0,
                    is_dir: false,
                },
                s1,
            )),
        }
    }

    fn close(&mut self, _client: usize, f: FileId) -> Result<Step, FsError> {
        self.handles.remove(&f.0).ok_or(FsError::BadHandle)?;
        Ok(self.overhead())
    }

    fn unlink(&mut self, client: usize, path: &str) -> Result<Step, FsError> {
        let (pid, name, s1) = self.resolve_parent(client, path)?;
        let id = self.child_of(pid, name).ok_or(FsError::NotFound)?;
        // directories must be empty
        if let InodeKind::Dir { entries, .. } = &self.inode(id).kind {
            if !entries.is_empty() {
                return Err(FsError::NotEmpty);
            }
        }
        let kv = self.dir_kv(pid)?;
        let s2 = self
            .daos
            .borrow_mut()
            .kv_remove(client, self.cid, kv, name.as_bytes())
            .map_err(map_daos)?;
        if let InodeKind::Dir { entries, .. } = &mut self.inodes[pid.0 as usize].kind {
            entries.remove(name);
        }
        // punch the backing object (files and dirs have one)
        let oid = self.inode_oid(id);
        let s3 = if self.kind_byte(id) != 2 {
            self.daos
                .borrow_mut()
                .obj_punch(client, self.cid, oid)
                .unwrap_or(Step::Noop)
        } else {
            Step::Noop
        };
        self.inodes[id.0 as usize].nlink = 0;
        Ok(Step::span("libdfs", "unlink", 0, Step::seq([s1, s2, s3])))
    }

    fn readdir(&mut self, client: usize, path: &str) -> Result<(Vec<String>, Step), FsError> {
        let (id, s1) = self.resolve(client, path, true)?;
        let kv = self.dir_kv(id)?;
        let (_keys, s2) = self
            .daos
            .borrow_mut()
            .kv_list(client, self.cid, kv, b"")
            .map_err(map_daos)?;
        // the inode table names are authoritative for ordering
        let names = match &self.inode(id).kind {
            InodeKind::Dir { entries, .. } => entries.keys().cloned().collect(),
            _ => return Err(FsError::NotDir),
        };
        Ok((names, Step::span("libdfs", "readdir", 0, s1.then(s2))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::ClusterSpec;
    use daos_core::{ContainerProps, DataMode};
    use simkit::{run, OpId, Scheduler, World};

    struct Sink;
    impl World for Sink {
        fn on_op_complete(&mut self, _op: OpId, _sched: &mut Scheduler) {}
    }

    fn exec(sched: &mut Scheduler, step: Step) {
        sched.submit(step, OpId(0));
        run(sched, &mut Sink);
    }

    fn mount(mode: DataMode) -> (Scheduler, Dfs) {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(2, 1).build(&mut sched);
        let mut daos = DaosSystem::deploy(&topo, &mut sched, 2, mode);
        let (cid, s) = daos.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let daos = Rc::new(RefCell::new(daos));
        let (dfs, s) = Dfs::format(daos, 0, cid, DfsOpts::default()).unwrap();
        exec(&mut sched, s);
        (sched, dfs)
    }

    #[test]
    fn mkdir_create_write_read() {
        let (mut sched, mut dfs) = mount(DataMode::Full);
        exec(&mut sched, dfs.mkdir(0, "/data").unwrap());
        let (f, s) = dfs.open(0, "/data/file.bin", true).unwrap();
        exec(&mut sched, s);
        let payload = Payload::Bytes((0..=255u8).collect());
        exec(&mut sched, dfs.write(0, f, 100, payload).unwrap());
        let (r, s) = dfs.read(0, f, 100, 256).unwrap();
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &(0..=255u8).collect::<Vec<_>>()[..]);
        let (st, s) = dfs.fstat(0, f).unwrap();
        exec(&mut sched, s);
        assert_eq!(st.size, 356);
        exec(&mut sched, dfs.close(0, f).unwrap());
    }

    #[test]
    fn connectivity_oracle_catches_lost_dirent_and_object() {
        let (mut sched, mut dfs) = mount(DataMode::Full);
        exec(&mut sched, dfs.mkdir(0, "/data").unwrap());
        exec(&mut sched, dfs.mkdir(0, "/data/sub").unwrap());
        let (f, s) = dfs.open(0, "/data/sub/file.bin", true).unwrap();
        exec(&mut sched, s);
        exec(
            &mut sched,
            dfs.write(0, f, 0, Payload::Bytes(vec![7u8; 4096])).unwrap(),
        );
        let report = dfs.verify_connectivity(0);
        assert!(
            report.ok(),
            "healthy namespace must audit clean:\n{}",
            report.render()
        );
        assert_eq!(report.checked_kv, 3, "three dirents walked");
        assert_eq!(report.checked_extents, 1, "one file object probed");

        // Plant a torn namespace: drop the dirent for /data/sub from the
        // store, leaving the in-memory cache believing it exists.
        let cid = dfs.container();
        let data_kv = dfs
            .dir_kv(dfs.child_of(dfs.root(), "data").unwrap())
            .unwrap();
        let s = dfs
            .daos()
            .borrow_mut()
            .kv_remove(0, cid, data_kv, b"sub")
            .unwrap();
        exec(&mut sched, s);
        let report = dfs.verify_connectivity(0);
        assert_eq!(report.violations.len(), 1);
        let v = &report.violations[0];
        assert_eq!(v.oracle, OracleKind::NamespaceConnectivity);
        assert!(v.subject.contains("/data/sub"), "{}", v.subject);
        assert!(
            v.detail.contains("NotFound") || v.detail.contains("NoSuchKey"),
            "{}",
            v.detail
        );

        // Plant a lost file object: punch the Array behind the namespace.
        let arr = dfs.file_object(f).unwrap();
        let s = dfs.daos().borrow_mut().obj_punch(0, cid, arr).unwrap();
        exec(&mut sched, s);
        let report = dfs.verify_connectivity(0);
        assert!(report
            .violations
            .iter()
            .any(|v| v.subject.contains("file.bin") && v.detail.contains("lost")));
    }

    #[test]
    fn namespace_errors() {
        let (mut sched, mut dfs) = mount(DataMode::Full);
        assert_eq!(
            dfs.open(0, "/missing", false).unwrap_err(),
            FsError::NotFound
        );
        assert_eq!(
            dfs.mkdir(0, "/a/b").unwrap_err(),
            FsError::NotFound,
            "parent missing"
        );
        exec(&mut sched, dfs.mkdir(0, "/a").unwrap());
        assert_eq!(dfs.mkdir(0, "/a").unwrap_err(), FsError::Exists);
        let (f, s) = dfs.open(0, "/a/f", true).unwrap();
        exec(&mut sched, s);
        exec(&mut sched, dfs.close(0, f).unwrap());
        assert_eq!(dfs.unlink(0, "/a").unwrap_err(), FsError::NotEmpty);
        assert_eq!(dfs.open(0, "/a", false).unwrap_err(), FsError::IsDir);
        assert_eq!(dfs.open(0, "/a/f/g", false).unwrap_err(), FsError::NotDir);
    }

    #[test]
    fn readdir_lists_sorted() {
        let (mut sched, mut dfs) = mount(DataMode::Sized);
        exec(&mut sched, dfs.mkdir(0, "/d").unwrap());
        for name in ["zz", "aa", "mm"] {
            let (f, s) = dfs.open(0, &format!("/d/{name}"), true).unwrap();
            exec(&mut sched, s);
            exec(&mut sched, dfs.close(0, f).unwrap());
        }
        let (names, s) = dfs.readdir(0, "/d").unwrap();
        exec(&mut sched, s);
        assert_eq!(names, vec!["aa", "mm", "zz"]);
    }

    #[test]
    fn unlink_removes_and_frees_object() {
        let (mut sched, mut dfs) = mount(DataMode::Sized);
        let (f, s) = dfs.open(0, "/f", true).unwrap();
        exec(&mut sched, s);
        exec(&mut sched, dfs.close(0, f).unwrap());
        let cid = dfs.container();
        let before = dfs.daos().borrow().object_count(cid).unwrap();
        exec(&mut sched, dfs.unlink(0, "/f").unwrap());
        let after = dfs.daos().borrow().object_count(cid).unwrap();
        assert_eq!(after, before - 1);
        assert_eq!(dfs.open(0, "/f", false).unwrap_err(), FsError::NotFound);
    }

    #[test]
    fn symlinks_resolve_and_loop_detect() {
        let (mut sched, mut dfs) = mount(DataMode::Full);
        exec(&mut sched, dfs.mkdir(0, "/real").unwrap());
        let (f, s) = dfs.open(0, "/real/data", true).unwrap();
        exec(&mut sched, s);
        exec(
            &mut sched,
            dfs.write(0, f, 0, Payload::Bytes(vec![7; 10])).unwrap(),
        );
        exec(&mut sched, dfs.close(0, f).unwrap());
        exec(&mut sched, dfs.symlink(0, "/real", "/link").unwrap());
        let (f2, s) = dfs.open(0, "/link/data", false).unwrap();
        exec(&mut sched, s);
        let (r, s) = dfs.read(0, f2, 0, 10).unwrap();
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &[7; 10]);
        let (t, _) = dfs.readlink(0, "/link").unwrap();
        assert_eq!(t, "/real");
        // loop
        exec(&mut sched, dfs.symlink(0, "/loop2", "/loop1").unwrap());
        exec(&mut sched, dfs.symlink(0, "/loop1", "/loop2").unwrap());
        assert_eq!(
            dfs.open(0, "/loop1/x", false).unwrap_err(),
            FsError::SymlinkLoop
        );
    }

    #[test]
    fn rename_moves_entries() {
        let (mut sched, mut dfs) = mount(DataMode::Full);
        exec(&mut sched, dfs.mkdir(0, "/src").unwrap());
        exec(&mut sched, dfs.mkdir(0, "/dst").unwrap());
        let (f, s) = dfs.open(0, "/src/f", true).unwrap();
        exec(&mut sched, s);
        exec(
            &mut sched,
            dfs.write(0, f, 0, Payload::Bytes(vec![1, 2, 3])).unwrap(),
        );
        exec(&mut sched, dfs.close(0, f).unwrap());
        exec(&mut sched, dfs.rename(0, "/src/f", "/dst/g").unwrap());
        assert_eq!(dfs.open(0, "/src/f", false).unwrap_err(), FsError::NotFound);
        let (f2, s) = dfs.open(0, "/dst/g", false).unwrap();
        exec(&mut sched, s);
        let (r, s) = dfs.read(0, f2, 0, 3).unwrap();
        exec(&mut sched, s);
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn cross_interface_visibility() {
        // A file written through DFS is readable through raw libdaos.
        let (mut sched, mut dfs) = mount(DataMode::Full);
        let (f, s) = dfs.open(0, "/shared", true).unwrap();
        exec(&mut sched, s);
        exec(
            &mut sched,
            dfs.write(0, f, 0, Payload::Bytes(vec![0xab; 64])).unwrap(),
        );
        let oid = dfs.file_object(f).unwrap();
        let cid = dfs.container();
        let (data, s) = dfs
            .daos()
            .borrow_mut()
            .array_read(0, cid, oid, 0, 64)
            .unwrap();
        exec(&mut sched, s);
        assert_eq!(data.bytes().unwrap(), &[0xab; 64]);
    }
}
