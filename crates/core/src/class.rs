//! Object classes: sharding, replication and erasure-coding policies.
//!
//! DAOS object classes are chosen at object-create time and control how
//! an object is laid out across targets.  The paper exercises:
//!
//! * `S1` — a single shard, no redundancy (Arrays/KVs of Field I/O and
//!   fdb-hammer);
//! * `SX` — sharded across *all* pool targets (IOR Arrays, dfs files);
//! * `RP_2` — two-way replication (directories/KVs in the redundancy
//!   tests);
//! * `EC_2P1` — 2 data + 1 parity erasure coding (Fig. 6).

use crate::data::CellAvailability;
use crate::pool::TargetId;
use std::fmt;

/// Layout policy of an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectClass {
    /// `S<n>`: sharded over `n` targets, no redundancy.
    Sharded(u16),
    /// `SX`: sharded over every target in the pool, no redundancy.
    ShardedMax,
    /// `RP_<r>`: every shard group holds `r` full replicas.
    Replicated {
        /// Number of replicas (≥ 2).
        replicas: u8,
        /// Shard groups (`None` = all targets, like `GX`).
        shards: Option<u16>,
    },
    /// `EC_<k>P<p>`: stripes of `k` data plus `p` parity cells.
    ErasureCoded {
        /// Data cells per stripe.
        k: u8,
        /// Parity cells per stripe.
        p: u8,
    },
}

impl ObjectClass {
    /// Single-shard class `S1`.
    pub const S1: ObjectClass = ObjectClass::Sharded(1);
    /// Max-sharded class `SX`.
    pub const SX: ObjectClass = ObjectClass::ShardedMax;
    /// Two-way replication, `RP_2`.
    pub const RP_2: ObjectClass = ObjectClass::Replicated {
        replicas: 2,
        shards: Some(1),
    };
    /// Three-way replication, `RP_3`.
    pub const RP_3: ObjectClass = ObjectClass::Replicated {
        replicas: 3,
        shards: Some(1),
    };
    /// 2 + 1 erasure coding, `EC_2P1`.
    pub const EC_2P1: ObjectClass = ObjectClass::ErasureCoded { k: 2, p: 1 };
    /// 4 + 2 erasure coding, `EC_4P2`.
    pub const EC_4P2: ObjectClass = ObjectClass::ErasureCoded { k: 4, p: 2 };

    /// Replication factor `r` with all-target sharding (`RP_<r>GX`).
    pub fn rp_gx(replicas: u8) -> ObjectClass {
        ObjectClass::Replicated {
            replicas,
            shards: None,
        }
    }

    /// Number of shard groups given the pool's target count.
    pub fn shard_groups(&self, pool_targets: usize) -> usize {
        let g = match self {
            ObjectClass::Sharded(n) => *n as usize,
            ObjectClass::ShardedMax => pool_targets,
            ObjectClass::Replicated { replicas, shards } => match shards {
                Some(n) => *n as usize,
                // all targets divided into groups of `replicas`
                None => (pool_targets / *replicas as usize).max(1),
            },
            ObjectClass::ErasureCoded { k, p } => {
                (pool_targets / (*k as usize + *p as usize)).max(1)
            }
        };
        g.clamp(1, pool_targets.max(1))
    }

    /// Targets per shard group (1, `r`, or `k + p`).
    pub fn group_width(&self) -> usize {
        match self {
            ObjectClass::Sharded(_) | ObjectClass::ShardedMax => 1,
            ObjectClass::Replicated { replicas, .. } => *replicas as usize,
            ObjectClass::ErasureCoded { k, p } => *k as usize + *p as usize,
        }
    }

    /// Bytes physically written per logical byte (1.0, `r`, or
    /// `(k+p)/k` — the paper's ½ and ⅔ write-bandwidth results).
    pub fn write_amplification(&self) -> f64 {
        match self {
            ObjectClass::Sharded(_) | ObjectClass::ShardedMax => 1.0,
            ObjectClass::Replicated { replicas, .. } => *replicas as f64,
            ObjectClass::ErasureCoded { k, p } => (*k as f64 + *p as f64) / *k as f64,
        }
    }

    /// How many target losses per group the class tolerates.
    pub fn redundancy(&self) -> usize {
        match self {
            ObjectClass::Sharded(_) | ObjectClass::ShardedMax => 0,
            ObjectClass::Replicated { replicas, .. } => *replicas as usize - 1,
            ObjectClass::ErasureCoded { p, .. } => *p as usize,
        }
    }

    /// Servable members a shard group needs to take a write, serve a
    /// read or feed a rebuild: one for plain and replicated classes,
    /// the `k` data cells for erasure coding.
    pub(crate) fn data_members(&self) -> usize {
        self.group_width() - self.redundancy()
    }

    /// Bytes each member stores of `bytes` put on its group: all of
    /// them for plain and replicated classes, one `bytes / k` cell for
    /// erasure coding.
    pub(crate) fn member_share(&self, bytes: f64) -> f64 {
        bytes / self.data_members() as f64
    }

    /// Bytes each member reads of `bytes` stored in its group when the
    /// scrubber scans it: all of them on every replica, a `1 / (k + p)`
    /// share on each erasure-coded cell.
    pub(crate) fn scan_share(&self, bytes: f64) -> f64 {
        match self {
            ObjectClass::ErasureCoded { .. } => bytes / self.group_width() as f64,
            _ => bytes,
        }
    }

    /// Whether enough of `group`'s members serve (as `servable` says)
    /// for it to take a write or, for plain and replicated classes,
    /// serve a read.
    pub(crate) fn serves(&self, group: &[TargetId], servable: impl Fn(TargetId) -> bool) -> bool {
        group.iter().filter(|&&t| servable(t)).count() >= self.data_members()
    }

    /// Availability of `group` to a read, as the data layer sees it:
    /// plain and replicated groups serve whole or not at all, an
    /// erasure-coded group reports which of its cells serve.
    pub(crate) fn availability(
        &self,
        group: &[TargetId],
        servable: impl Fn(TargetId) -> bool,
    ) -> CellAvailability {
        if let ObjectClass::ErasureCoded { .. } = self {
            CellAvailability::Mask(group.iter().map(|&t| servable(t)).collect())
        } else if self.serves(group, servable) {
            CellAvailability::All
        } else {
            CellAvailability::Unavailable
        }
    }

    /// Whether a unit with `rotten` copies known to be bad can be
    /// repaired from the rest.  Erasure coding trusts its recomputed
    /// per-cell verdicts, so it repairs up to `p` bad cells, zero
    /// included; a replicated unit repairs while at least one copy is
    /// named bad and one is clean; plain sharding never repairs.
    pub(crate) fn repairable(&self, rotten: usize) -> bool {
        match self {
            ObjectClass::ErasureCoded { .. } => rotten <= self.redundancy(),
            _ => rotten > 0 && rotten <= self.redundancy(),
        }
    }

    /// Whether this class may be used for Key-Value objects.  DAOS
    /// erasure-codes only byte-array extents; KV redundancy uses
    /// replication (the paper makes the same distinction in §III-D).
    pub fn supports_kv(&self) -> bool {
        !matches!(self, ObjectClass::ErasureCoded { .. })
    }

    /// Numeric id embedded in the OID's reserved bits.
    pub fn encode(&self) -> u16 {
        match self {
            ObjectClass::Sharded(n) => *n, // 1..=0x7fff
            ObjectClass::ShardedMax => 0x8000,
            ObjectClass::Replicated { replicas, shards } => {
                0x9000 | ((*replicas as u16) << 8) | shards.map_or(0xff, |s| s.min(0xfe)) & 0x00ff
            }
            ObjectClass::ErasureCoded { k, p } => 0xa000 | ((*k as u16) << 4) | *p as u16,
        }
    }

    /// Inverse of [`ObjectClass::encode`].
    pub fn decode(bits: u16) -> Option<ObjectClass> {
        match bits {
            0 => None,
            n if n < 0x8000 => Some(ObjectClass::Sharded(n)),
            0x8000 => Some(ObjectClass::ShardedMax),
            n if n & 0xf000 == 0x9000 => {
                let replicas = ((n >> 8) & 0xf) as u8;
                let s = n & 0xff;
                let shards = if s == 0xff { None } else { Some(s) };
                (replicas >= 2).then_some(ObjectClass::Replicated { replicas, shards })
            }
            n if n & 0xf000 == 0xa000 => {
                let k = ((n >> 4) & 0xff) as u8;
                let p = (n & 0xf) as u8;
                (k >= 1 && p >= 1).then_some(ObjectClass::ErasureCoded { k, p })
            }
            _ => None,
        }
    }
}

impl fmt::Display for ObjectClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectClass::Sharded(n) => write!(f, "S{n}"),
            ObjectClass::ShardedMax => write!(f, "SX"),
            ObjectClass::Replicated {
                replicas,
                shards: Some(1),
            } => write!(f, "RP_{replicas}"),
            ObjectClass::Replicated {
                replicas,
                shards: None,
            } => write!(f, "RP_{replicas}GX"),
            ObjectClass::Replicated {
                replicas,
                shards: Some(s),
            } => {
                write!(f, "RP_{replicas}G{s}")
            }
            ObjectClass::ErasureCoded { k, p } => write!(f, "EC_{k}P{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_groups_respect_pool_size() {
        assert_eq!(ObjectClass::S1.shard_groups(256), 1);
        assert_eq!(ObjectClass::SX.shard_groups(256), 256);
        assert_eq!(ObjectClass::Sharded(8).shard_groups(256), 8);
        // clamped to pool size
        assert_eq!(ObjectClass::Sharded(300).shard_groups(16), 16);
        assert_eq!(ObjectClass::EC_2P1.shard_groups(256), 85);
        assert_eq!(ObjectClass::rp_gx(2).shard_groups(256), 128);
    }

    #[test]
    fn widths_and_amplification() {
        assert_eq!(ObjectClass::S1.group_width(), 1);
        assert_eq!(ObjectClass::RP_2.group_width(), 2);
        assert_eq!(ObjectClass::EC_2P1.group_width(), 3);
        assert_eq!(ObjectClass::S1.write_amplification(), 1.0);
        assert_eq!(ObjectClass::RP_2.write_amplification(), 2.0);
        assert!((ObjectClass::EC_2P1.write_amplification() - 1.5).abs() < 1e-12);
        assert_eq!(ObjectClass::EC_2P1.redundancy(), 1);
        assert_eq!(ObjectClass::RP_3.redundancy(), 2);
    }

    #[test]
    fn redundancy_rules_keep_their_edge_cases() {
        assert_eq!(ObjectClass::SX.data_members(), 1);
        assert_eq!(ObjectClass::RP_3.data_members(), 1);
        assert_eq!(ObjectClass::EC_4P2.data_members(), 4);
        assert_eq!(ObjectClass::EC_4P2.member_share(8.0), 2.0);
        assert_eq!(ObjectClass::EC_2P1.scan_share(6.0), 2.0);
        assert_eq!(ObjectClass::RP_2.scan_share(6.0), 6.0);
        // a replicated unit needs a copy named bad; EC repairs on its
        // recomputed cell verdicts alone
        assert!(!ObjectClass::RP_2.repairable(0));
        assert!(ObjectClass::RP_2.repairable(1));
        assert!(!ObjectClass::RP_2.repairable(2));
        assert!(ObjectClass::EC_2P1.repairable(0));
        assert!(ObjectClass::EC_2P1.repairable(1));
        assert!(!ObjectClass::EC_2P1.repairable(2));
        assert!(!ObjectClass::S1.repairable(1));
        let t = |server| TargetId { server, target: 0 };
        let group = [t(0), t(1), t(2)];
        let up = |x: TargetId| x.server != 1;
        assert!(ObjectClass::EC_2P1.serves(&group, up));
        assert!(!ObjectClass::EC_2P1.serves(&group, |x| x.server == 0));
        assert!(matches!(
            ObjectClass::EC_2P1.availability(&group, up),
            CellAvailability::Mask(m) if m == [true, false, true]
        ));
        assert!(matches!(
            ObjectClass::S1.availability(&group[1..2], up),
            CellAvailability::Unavailable
        ));
    }

    #[test]
    fn kv_support() {
        assert!(ObjectClass::S1.supports_kv());
        assert!(ObjectClass::RP_2.supports_kv());
        assert!(!ObjectClass::EC_2P1.supports_kv());
    }

    #[test]
    fn encode_decode_round_trip() {
        for class in [
            ObjectClass::S1,
            ObjectClass::SX,
            ObjectClass::Sharded(12),
            ObjectClass::RP_2,
            ObjectClass::RP_3,
            ObjectClass::rp_gx(2),
            ObjectClass::EC_2P1,
            ObjectClass::EC_4P2,
        ] {
            assert_eq!(ObjectClass::decode(class.encode()), Some(class), "{class}");
        }
        assert_eq!(ObjectClass::decode(0), None);
    }

    #[test]
    fn display_names_match_daos() {
        assert_eq!(ObjectClass::S1.to_string(), "S1");
        assert_eq!(ObjectClass::SX.to_string(), "SX");
        assert_eq!(ObjectClass::RP_2.to_string(), "RP_2");
        assert_eq!(ObjectClass::EC_2P1.to_string(), "EC_2P1");
        assert_eq!(ObjectClass::rp_gx(2).to_string(), "RP_2GX");
    }
}
