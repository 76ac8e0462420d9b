//! Pins object placement to a digest, so that a change to how a
//! `Layout` is stored cannot silently move an object to other targets.
//!
//! The digest folds every member of every shard group that
//! `layout_salted` produces for five object classes, three pool sizes,
//! a healthy and a degraded pool map, and a few hundred (oid, salt)
//! pairs. The expected constant was computed from the nested
//! `Vec<Vec<TargetId>>` layout that preceded the flat one; a deliberate
//! placement change must update it and say why.
//!
//! A second digest covers the boundary of the shuffle's early exit:
//! classes whose member count lies between one and the number of up
//! servers, up to exactly that number and past it, on pools with whole
//! servers excluded, draining or reintegrating.

use daos_core::{ObjectClass, OidAllocator, PoolMap, TargetId};

const EXPECTED: u64 = 0x07cf_5074_5f98_88ec;

const TARGETS_PER_SERVER: usize = 16;
const OIDS: usize = 100;
const SALTS: [u64; 4] = [0, 1, 7, 0x5eed_f00d];

fn fnv(h: u64, v: u64) -> u64 {
    v.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn placement_digest() -> u64 {
    let classes = [
        ObjectClass::S1,
        ObjectClass::SX,
        ObjectClass::RP_2,
        ObjectClass::RP_3,
        ObjectClass::EC_2P1,
    ];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for servers in [4usize, 16, 128] {
        for degraded in [false, true] {
            let mut pm = PoolMap::new(servers, TARGETS_PER_SERVER);
            if degraded {
                pm.exclude(TargetId {
                    server: 1,
                    target: 3,
                });
            }
            for class in classes {
                let mut alloc = OidAllocator::new();
                for _ in 0..OIDS {
                    let oid = alloc.next(class, 0);
                    for salt in SALTS {
                        let l = pm.layout_salted(&oid, class, salt);
                        h = fnv(h, l.group_count() as u64);
                        for group in l.groups() {
                            h = fnv(h, group.len() as u64);
                            for t in group {
                                h = fnv(h, t.pack());
                            }
                        }
                    }
                }
            }
        }
    }
    h
}

#[test]
fn layout_salted_placement_is_pinned() {
    assert_eq!(
        placement_digest(),
        EXPECTED,
        "object placement moved; if intended, update EXPECTED and say why"
    );
}

/// Placement of classes whose member count lies between one and the
/// server count, where `layout_salted` may stop its shuffle as soon as
/// it has seen enough distinct servers.  Computed with the full shuffle
/// that preceded the early exit.
const EXPECTED_PARTIAL: u64 = 0x10c0_4b50_1b1e_04eb;

/// The pool maps of [`partial_digest`]: healthy pools; pools with one or
/// two whole servers excluded, so that some classes need more members
/// than there are up servers; a server with a single target left up; a
/// draining server and a reintegrating one; and one target per server,
/// where even `SX`, `RP_2GX` and the EC classes need no more members
/// than there are servers.
fn partial_pools() -> Vec<PoolMap> {
    let mut pools = Vec::new();
    for (servers, tps) in [(4usize, 16usize), (16, 16), (128, 16), (8, 1)] {
        pools.push(PoolMap::new(servers, tps));
        let mut one_out = PoolMap::new(servers, tps);
        one_out.exclude_server(1);
        pools.push(one_out);
    }
    let mut two_out = PoolMap::new(4, 16);
    two_out.exclude_server(1);
    two_out.exclude_server(2);
    pools.push(two_out);
    let mut last_target = PoolMap::new(16, 16);
    for target in 1..16 {
        last_target.exclude(TargetId { server: 2, target });
    }
    pools.push(last_target);
    let mut churn = PoolMap::new(16, 16);
    churn.drain_server(3);
    churn.add_server();
    pools.push(churn);
    pools
}

fn partial_digest() -> u64 {
    let classes = [
        ObjectClass::Sharded(2),
        ObjectClass::Sharded(8),
        ObjectClass::Sharded(15),
        ObjectClass::Sharded(16),
        ObjectClass::Replicated {
            replicas: 2,
            shards: Some(4),
        },
        ObjectClass::Replicated {
            replicas: 3,
            shards: Some(2),
        },
        ObjectClass::SX,
        ObjectClass::rp_gx(2),
        ObjectClass::EC_2P1,
        ObjectClass::EC_4P2,
    ];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for pm in partial_pools() {
        for class in classes {
            if class.group_width() > pm.up_count() {
                continue;
            }
            let mut alloc = OidAllocator::new();
            for _ in 0..OIDS {
                let oid = alloc.next(class, 0);
                for salt in SALTS {
                    let l = pm.layout_salted(&oid, class, salt);
                    h = fnv(h, l.group_count() as u64);
                    for group in l.groups() {
                        for t in group {
                            h = fnv(h, t.pack());
                        }
                    }
                }
            }
        }
    }
    h
}

#[test]
fn partial_placement_is_pinned() {
    assert_eq!(
        partial_digest(),
        EXPECTED_PARTIAL,
        "placement of partial-width classes moved; if intended, update EXPECTED_PARTIAL and say why"
    );
}
