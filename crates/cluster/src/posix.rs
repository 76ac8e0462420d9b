//! A minimal POSIX-like file interface shared by every file-system-shaped
//! store in the workspace (DFUSE, DFUSE+IL, Lustre).
//!
//! The benchmarks that the paper runs through "POSIX" backends (IOR,
//! fdb-hammer's file backend, HDF5's POSIX VFD) program against this
//! trait, so the same benchmark code drives DAOS-through-FUSE and Lustre
//! identically — mirroring how the real IOR POSIX backend is pointed at
//! different mounts.

use crate::payload::{Payload, ReadPayload};
use simkit::Step;

/// An open-file handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(pub u64);

/// File-system errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// Path component missing.
    NotFound,
    /// Create of an existing entry without overwrite.
    Exists,
    /// A non-directory appeared where a directory was needed.
    NotDir,
    /// A directory appeared where a file was needed.
    IsDir,
    /// Directory not empty on removal.
    NotEmpty,
    /// Too many levels of symbolic links.
    SymlinkLoop,
    /// Backing storage unavailable (failed targets).
    Unavailable,
    /// Invalid handle.
    BadHandle,
    /// Anything else.
    Other(&'static str),
}

/// File metadata, as `stat` would return it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    /// Size in bytes.
    pub size: u64,
    /// True for directories.
    pub is_dir: bool,
}

/// The operations the paper's POSIX-backend benchmarks need.  Every
/// method returns a [`Step`] modelling the call's cost alongside its
/// result; implementations mutate their state eagerly.
pub trait PosixFs {
    /// Create a directory (parents must exist).
    fn mkdir(&mut self, client: usize, path: &str) -> Result<Step, FsError>;

    /// Open a file; `create` makes it (parents must exist).
    fn open(&mut self, client: usize, path: &str, create: bool) -> Result<(FileId, Step), FsError>;

    /// Write at an offset.
    fn write(
        &mut self,
        client: usize,
        f: FileId,
        offset: u64,
        data: Payload,
    ) -> Result<Step, FsError>;

    /// Read from an offset.
    fn read(
        &mut self,
        client: usize,
        f: FileId,
        offset: u64,
        len: u64,
    ) -> Result<(ReadPayload, Step), FsError>;

    /// Stat an open file.
    fn fstat(&mut self, client: usize, f: FileId) -> Result<(FileStat, Step), FsError>;

    /// Stat by path.
    fn stat(&mut self, client: usize, path: &str) -> Result<(FileStat, Step), FsError>;

    /// Close a handle.
    fn close(&mut self, client: usize, f: FileId) -> Result<Step, FsError>;

    /// Remove a file.
    fn unlink(&mut self, client: usize, path: &str) -> Result<Step, FsError>;

    /// List a directory.
    fn readdir(&mut self, client: usize, path: &str) -> Result<(Vec<String>, Step), FsError>;
}

/// Split a path into components, ignoring empty segments.
pub fn components(path: &str) -> Vec<&str> {
    path.split('/')
        .filter(|c| !c.is_empty() && *c != ".")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_normalise() {
        assert_eq!(components("/a/b/c"), vec!["a", "b", "c"]);
        assert_eq!(components("a//b/"), vec!["a", "b"]);
        assert_eq!(components("/"), Vec::<&str>::new());
        assert_eq!(components("./a/./b"), vec!["a", "b"]);
    }
}
