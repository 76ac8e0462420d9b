//! Pins object placement to a digest, so that a change to how a
//! `Layout` is stored cannot silently move an object to other targets.
//!
//! The digest folds every member of every shard group that
//! `layout_salted` produces for five object classes, three pool sizes,
//! a healthy and a degraded pool map, and a few hundred (oid, salt)
//! pairs. The expected constant was computed from the nested
//! `Vec<Vec<TargetId>>` layout that preceded the flat one; a deliberate
//! placement change must update it and say why.

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
