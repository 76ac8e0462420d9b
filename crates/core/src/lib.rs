//! # daos-core — a DAOS-like distributed object store
//!
//! The paper's primary subject re-implemented as a simulation-backed
//! library: pools of engines with per-NVMe targets, containers with
//! isolated object namespaces and snapshots, 128-bit OIDs with
//! user-managed bits and encoded object classes, **Key-Value** and
//! **Array** objects, and the full redundancy matrix — plain sharding
//! (`S1`/`SX`), replication (`RP_*`) and erasure coding (`EC_kPp`, with
//! real GF(256) Reed-Solomon parity and degraded-read reconstruction).
//!
//! The programming model mirrors libdaos: create a container in a pool,
//! create objects with a class, then `kv_put`/`kv_get` or
//! `array_write`/`array_read`.  Every API call mutates the store
//! immediately and returns a [`simkit::Step`] describing the operation's
//! cost, which callers submit to the simulation scheduler.
//!
//! Fallible calls return [`DaosError`]; the transient variants
//! ([`DaosError::Timeout`], [`DaosError::TargetDown`],
//! [`DaosError::Retriable`]) are what a [`RetryExec`] retries with
//! deterministic backoff — propagate them with `?` rather than
//! unwrapping:
//!
//! ```
//! use cluster::{ClusterSpec, Payload};
//! use daos_core::{DaosError, DaosSystem, DataMode, ObjectClass, ContainerProps};
//! use simkit::Scheduler;
//!
//! fn demo() -> Result<(), DaosError> {
//!     let mut sched = Scheduler::new();
//!     let topo = ClusterSpec::new(4, 1).build(&mut sched);
//!     let mut daos = DaosSystem::deploy(&topo, &mut sched, 4, DataMode::Full);
//!     let (cid, _step) = daos.cont_create(0, ContainerProps::default());
//!     let (oid, _step) = daos.array_create(0, cid, ObjectClass::SX, 1 << 20)?;
//!     let _step = daos.array_write(0, cid, oid, 0, Payload::Bytes(vec![42; 1024]))?;
//!     let (data, _step) = daos.array_read(0, cid, oid, 0, 1024)?;
//!     assert_eq!(data.bytes().ok_or(DaosError::Unavailable)?[0], 42);
//!     Ok(())
//! }
//! demo().expect("healthy pool serves the round trip");
//! ```

pub mod class;
pub mod container;
mod cost;
pub mod csum;
pub mod data;
pub mod ec;
pub mod ledger;
pub mod oid;
pub mod pool;
pub mod retry;
pub mod system;

pub use class::ObjectClass;
pub use container::{Container, ContainerId, ContainerProps, ObjectEntry};
pub use csum::{CsumCodec, DEFAULT_CSUM_SEED};
pub use data::{ArrayData, CellAvailability, CsumMismatch, DataError, DataMode, KvData, ObjData};
pub use ec::ErasureCode;
pub use ledger::{
    content_digest, AckedValue, DurabilityLedger, OracleKind, OracleReport, Violation,
};
pub use oid::{Oid, OidAllocator, FLAG_KV};
pub use pool::{Layout, PoolMap, TargetId, TargetState};
pub use retry::{Retriable, RetryExec, RetryPolicy, RetryStats};
pub use system::{
    dkey_hash, CsumStats, DaosError, DaosSystem, MigrationProgress, PoolInfo, RebalanceReport,
    RebuildReport, ScrubReport,
};
