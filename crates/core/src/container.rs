//! Containers: isolated object namespaces with properties and snapshots.

use crate::class::ObjectClass;
use crate::data::ObjData;
use crate::oid::{Oid, OidAllocator};
use crate::pool::Layout;
use std::collections::BTreeMap;

/// Handle to a container within a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContainerId(pub u32);

/// Properties fixed at container create time.
#[derive(Debug, Clone)]
pub struct ContainerProps {
    /// Optional human-readable label.
    pub label: Option<String>,
    /// Default object class for Arrays created without an explicit one.
    pub array_class: ObjectClass,
    /// Default object class for Key-Values.
    pub kv_class: ObjectClass,
    /// Default Array chunk size in bytes.
    pub chunk_size: u64,
}

impl Default for ContainerProps {
    fn default() -> Self {
        ContainerProps {
            label: None,
            array_class: ObjectClass::SX,
            kv_class: ObjectClass::S1,
            chunk_size: 1 << 20,
        }
    }
}

/// One stored object: its placement and its payload.
#[derive(Debug, Clone)]
pub struct ObjectEntry {
    /// Placement across targets, fixed at create time.
    pub layout: Layout,
    /// KV or Array payload.
    pub data: ObjData,
}

/// A container: object namespace, OID allocator, snapshots.
#[derive(Debug)]
pub struct Container {
    /// User attributes (`daos cont set-attr`).
    pub attrs: std::collections::BTreeMap<String, Vec<u8>>,
    /// This container's id.
    pub id: ContainerId,
    /// Creation properties.
    pub props: ContainerProps,
    /// Live objects.
    pub objects: BTreeMap<Oid, ObjectEntry>,
    /// Snapshot epochs, ascending.
    pub snapshots: Vec<u64>,
    /// Epoch counter (advances on snapshot).
    pub next_epoch: u64,
    /// Open handle count (diagnostics; DAOS tracks these pool-side).
    pub open_handles: u32,
    /// Per-container OID allocator.
    pub alloc: OidAllocator,
}

impl Container {
    /// New empty container.
    pub fn new(id: ContainerId, props: ContainerProps) -> Self {
        Container {
            id,
            props,
            attrs: std::collections::BTreeMap::new(),
            objects: BTreeMap::new(),
            snapshots: Vec::new(),
            next_epoch: 1,
            open_handles: 0,
            alloc: OidAllocator::new(),
        }
    }

    /// Record a snapshot; returns its epoch.
    pub fn snapshot(&mut self) -> u64 {
        let e = self.next_epoch;
        self.next_epoch += 1;
        self.snapshots.push(e);
        e
    }

    /// Destroy a snapshot; true if it existed.
    pub fn snapshot_destroy(&mut self, epoch: u64) -> bool {
        let before = self.snapshots.len();
        self.snapshots.retain(|&e| e != epoch);
        self.snapshots.len() != before
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_are_monotonic() {
        let mut c = Container::new(ContainerId(0), ContainerProps::default());
        let e1 = c.snapshot();
        let e2 = c.snapshot();
        assert!(e2 > e1);
        assert_eq!(c.snapshots, vec![e1, e2]);
        assert!(c.snapshot_destroy(e1));
        assert!(!c.snapshot_destroy(e1));
        assert_eq!(c.snapshots, vec![e2]);
    }

    #[test]
    fn default_props_match_paper_defaults() {
        let p = ContainerProps::default();
        assert_eq!(p.chunk_size, 1 << 20, "1 MiB chunks as in the IOR runs");
        assert_eq!(p.array_class, ObjectClass::SX);
    }
}
