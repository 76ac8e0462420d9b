//! Property tests for the end-to-end integrity layer: the checksum
//! codec detects every single bit flip, verified reads round-trip over
//! hole/sized/EC layouts without false positives, bit rot anywhere is
//! either transparently repaired or refused loudly (never served), and
//! a scrub pass resumes byte-identically after a mid-pass crash of the
//! driving loop and from its key anchor when keys change between waves.

use std::collections::{BTreeMap, BTreeSet};

use cluster::{ClusterSpec, Payload};
use daos_core::{ContainerId, ContainerProps, DaosSystem, DataMode, ObjectClass, Oid, OracleKind};
use proptest::prelude::*;
use simkit::{run, OpId, Scheduler, SplitMix64, Step, World};

struct Sink;
impl World for Sink {
    fn on_op_complete(&mut self, _op: OpId, _sched: &mut Scheduler) {}
}

fn exec(sched: &mut Scheduler, step: Step) {
    sched.submit(step, OpId(0));
    run(sched, &mut Sink);
}

fn rand_bytes(rng: &mut SplitMix64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

const CHUNK: u64 = 4096;

/// Keys in the fixture's KV object: enough that every wave size from 1
/// to 6 resumes inside it more than once, through its key anchor.
const KV_KEYS: u64 = 24;

/// Deploy a 4-server pool with the ledger on and write a KV object of
/// [`KV_KEYS`] keys plus one array per class, seeded deterministically
/// so two calls with the same seed build byte-identical systems.
fn fixture(seed: u64) -> (Scheduler, DaosSystem, ContainerId, Oid, Oid, Oid) {
    let mut sched = Scheduler::new();
    let topo = ClusterSpec::new(4, 1).build(&mut sched);
    let mut daos = DaosSystem::deploy(&topo, &mut sched, 4, DataMode::Full);
    daos.enable_ledger();
    let (cid, s) = daos.cont_create(0, ContainerProps::default());
    exec(&mut sched, s);
    let (kv, s) = daos.kv_create(0, cid, ObjectClass::RP_2).unwrap();
    exec(&mut sched, s);
    let (rp2, s) = daos
        .array_create(0, cid, ObjectClass::RP_2, 1 << 16)
        .unwrap();
    exec(&mut sched, s);
    let (ec, s) = daos
        .array_create(0, cid, ObjectClass::EC_2P1, 1 << 16)
        .unwrap();
    exec(&mut sched, s);
    let mut rng = SplitMix64::new(seed);
    for i in 0..4u64 {
        let key = format!("k/{i:04}");
        let val = rand_bytes(&mut rng, 96);
        exec(
            &mut sched,
            daos.kv_put(0, cid, kv, key.as_bytes(), Payload::Bytes(val))
                .unwrap(),
        );
        let b = rand_bytes(&mut rng, CHUNK as usize);
        exec(
            &mut sched,
            daos.array_write(0, cid, rp2, i * CHUNK, Payload::Bytes(b))
                .unwrap(),
        );
        let b = rand_bytes(&mut rng, CHUNK as usize);
        exec(
            &mut sched,
            daos.array_write(0, cid, ec, i * CHUNK, Payload::Bytes(b))
                .unwrap(),
        );
    }
    for i in 4..KV_KEYS {
        let key = format!("k/{i:04}");
        let val = rand_bytes(&mut rng, 96);
        exec(
            &mut sched,
            daos.kv_put(0, cid, kv, key.as_bytes(), Payload::Bytes(val))
                .unwrap(),
        );
    }
    (sched, daos, cid, kv, rp2, ec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any single bit flip — in the protected bytes or in the stored
    /// checksum itself — is detected, for any codec seed and payload.
    #[test]
    fn any_single_bit_flip_is_detected(
        data in proptest::collection::vec(any::<u8>(), 1..256),
        flip in any::<usize>(),
        sum_bit in 0u32..64,
        seed in any::<u64>(),
    ) {
        let codec = daos_core::CsumCodec::new(seed);
        let stored = codec.sum(&data);
        let byte = flip % data.len();
        let bit = (flip / data.len()) % 8;
        let mut rotten = data.clone();
        rotten[byte] ^= 1 << bit;
        prop_assert!(
            !codec.verify(&rotten, stored),
            "flip at {byte}:{bit} undetected under seed {seed:#x}"
        );
        prop_assert!(
            !codec.verify(&data, stored ^ (1 << sum_bit)),
            "stored-sum flip at bit {sum_bit} undetected"
        );
        prop_assert!(codec.verify(&data, stored), "clean bytes must verify");
    }

    /// Verified reads round-trip arbitrary sparse layouts — holes
    /// between extents, replicated or erasure-coded — with zero false
    /// checksum positives: every byte written comes back, and nothing
    /// the checksum layer sees looks corrupt.
    #[test]
    fn verified_roundtrip_over_hole_and_ec_layouts(
        class_idx in 0usize..2,
        writes in proptest::collection::vec((0u64..16, 1usize..5000, any::<u64>()), 1..8),
    ) {
        let class = [ObjectClass::RP_2, ObjectClass::EC_2P1][class_idx];
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(4, 1).build(&mut sched);
        let mut daos = DaosSystem::deploy(&topo, &mut sched, 4, DataMode::Full);
        daos.enable_ledger();
        let (cid, s) = daos.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let (oid, s) = daos.array_create(0, cid, class, CHUNK).unwrap();
        exec(&mut sched, s);
        // replay the writes into a sparse model keyed by byte offset
        let mut model: BTreeMap<u64, u8> = BTreeMap::new();
        for (chunk, len, seed) in &writes {
            let off = chunk * CHUNK;
            let mut rng = SplitMix64::new(*seed);
            let data = rand_bytes(&mut rng, *len);
            for (i, b) in data.iter().enumerate() {
                model.insert(off + i as u64, *b);
            }
            exec(
                &mut sched,
                daos.array_write(0, cid, oid, off, Payload::Bytes(data)).unwrap(),
            );
        }
        let high = model.keys().next_back().unwrap() + 1;
        let (got, s) = daos.array_read(0, cid, oid, 0, high).unwrap();
        exec(&mut sched, s);
        let bytes = got.bytes().unwrap();
        prop_assert_eq!(bytes.len() as u64, high);
        for (off, want) in &model {
            prop_assert_eq!(bytes[*off as usize], *want, "byte at {}", off);
        }
        let report = daos.verify_durability(0);
        prop_assert!(report.ok(), "{}", report.render());
        let stats = daos.csum_stats();
        prop_assert!(stats.verified > 0, "reads went through the verifier");
        prop_assert_eq!(stats.detected, 0, "no false positives through holes");
        prop_assert_eq!(stats.served_corrupt, 0);
    }

    /// Sized (hole-backed) extents verify too: the protected quantity
    /// is the length, and the audit stays clean.
    #[test]
    fn sized_layouts_verify_cleanly(
        class_idx in 0usize..2,
        lens in proptest::collection::vec(1u64..(1 << 20), 1..6),
    ) {
        let class = [ObjectClass::RP_2, ObjectClass::EC_2P1][class_idx];
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(4, 1).build(&mut sched);
        let mut daos = DaosSystem::deploy(&topo, &mut sched, 4, DataMode::Sized);
        daos.enable_ledger();
        let (cid, s) = daos.cont_create(0, ContainerProps::default());
        exec(&mut sched, s);
        let (oid, s) = daos.array_create(0, cid, class, 1 << 16).unwrap();
        exec(&mut sched, s);
        let mut off = 0u64;
        for len in &lens {
            exec(
                &mut sched,
                daos.array_write(0, cid, oid, off, Payload::Sized(*len)).unwrap(),
            );
            // leave a hole between sized extents
            off += len + (1 << 16);
        }
        let report = daos.verify_durability(0);
        prop_assert!(report.ok(), "{}", report.render());
        prop_assert_eq!(daos.csum_stats().detected, 0);
        prop_assert_eq!(daos.csum_stats().served_corrupt, 0);
    }

    /// Bit rot landing anywhere — any locus, any shard — is always
    /// detected, and corrupt bytes are never served: the read either
    /// repairs transparently (audit clean, `repaired` counts it) or
    /// refuses loudly with a Corruption violation.
    #[test]
    fn rot_anywhere_is_repaired_or_refused_never_served(
        locus in any::<u64>(),
        shard in 0u64..4,
        seed in any::<u64>(),
    ) {
        let (_sched, mut daos, _cid, _kv, _rp2, _ec) = fixture(seed);
        prop_assert!(daos.apply_bit_rot(locus, shard), "fixture has stored units");
        let report = daos.verify_durability(0);
        daos.scrub_start();
        while daos.scrub_wave(16).is_some() {}
        let stats = daos.csum_stats();
        prop_assert!(stats.detected >= 1, "the rot was seen by read or scrub");
        prop_assert_eq!(stats.served_corrupt, 0, "bad bytes are never served");
        if report.ok() {
            prop_assert!(stats.repaired >= 1, "clean audit means a repair happened");
        } else {
            prop_assert!(report
                .violations
                .iter()
                .all(|v| v.oracle == OracleKind::Corruption));
        }
        // after read-repair plus a full scrub pass, a second audit is
        // clean whenever the rot was within redundancy
        if report.ok() {
            let again = daos.verify_durability(0);
            prop_assert!(again.ok(), "{}", again.render());
        }
    }

    /// A scrub pass resumes byte-identically after a mid-pass crash of
    /// the driving loop: the cursor is replay-visible state, so one
    /// uninterrupted pass and one interrupted-then-resumed pass (with a
    /// different wave size after the crash) scan the same units, make
    /// the same repairs, and leave identical stored bytes.
    #[test]
    fn scrub_resumes_byte_identically_after_mid_scrub_crash(
        seed in any::<u64>(),
        locus in any::<u64>(),
        wave_a in 1usize..7,
        wave_b in 1usize..7,
    ) {
        let scrub_all = |daos: &mut DaosSystem, first: usize, rest: usize| {
            daos.scrub_start();
            if daos.scrub_wave(first).is_some() {
                while daos.scrub_wave(rest).is_some() {}
            }
        };
        // run A: one uninterrupted pass
        let (mut sa, mut da, cid, _kv, rp2, ec) = fixture(seed);
        prop_assert!(da.apply_bit_rot(locus, 0));
        scrub_all(&mut da, wave_a, wave_a);
        // run B: same system, same rot; the driver "crashes" after the
        // first wave and resumes from the persisted cursor with a
        // different wave size
        let (mut sb, mut db, _cid, _kv, _rp2, _ec) = fixture(seed);
        prop_assert!(db.apply_bit_rot(locus, 0));
        scrub_all(&mut db, wave_a, wave_b);
        // `waves` counts driver segmentation and legitimately differs;
        // everything the pass *did* must match exactly
        let (pa, pb) = (da.scrub_progress(), db.scrub_progress());
        prop_assert_eq!(pa.units_scanned, pb.units_scanned);
        prop_assert_eq!(pa.bytes_scanned, pb.bytes_scanned);
        prop_assert_eq!(pa.detected, pb.detected);
        prop_assert_eq!(pa.repaired, pb.repaired);
        prop_assert_eq!(pa.unrepairable, pb.unrepairable);
        prop_assert_eq!(pa.passes, pb.passes);
        prop_assert_eq!(da.csum_stats(), db.csum_stats());
        // stored bytes are identical after both passes
        for oid in [rp2, ec] {
            let (pa, s) = da.array_read(0, cid, oid, 0, 4 * CHUNK).unwrap();
            exec(&mut sa, s);
            let (pb, s) = db.array_read(0, cid, oid, 0, 4 * CHUNK).unwrap();
            exec(&mut sb, s);
            prop_assert_eq!(pa.bytes().unwrap(), pb.bytes().unwrap());
        }
        let ra = da.verify_durability(0);
        let rb = db.verify_durability(0);
        prop_assert_eq!(ra.ok(), rb.ok());
        prop_assert_eq!(ra.violations.len(), rb.violations.len());
    }

    /// A pass resumes a KV object from a key anchor, so keys inserted
    /// or removed between waves never make it skip or repeat a key:
    /// every key present for the whole pass is scanned exactly once, a
    /// removed key is never scanned after its removal, and the pass
    /// still ends.  Every value has its own power-of-two size, so the
    /// growth of `bytes_scanned` over a wave names exactly the keys it
    /// read.
    #[test]
    fn scrub_resumes_from_its_key_anchor_across_inserts_and_removes(
        wave in 1usize..7,
        // fewer edits than keys, so the object never empties
        edits in proptest::collection::vec((any::<bool>(), any::<u16>()), 1..KV_KEYS as usize),
    ) {
        let mut sched = Scheduler::new();
        let topo = ClusterSpec::new(4, 1).build(&mut sched);
        let mut daos = DaosSystem::deploy(&topo, &mut sched, 4, DataMode::Sized);
        let (cid, _) = daos.cont_create(0, ContainerProps::default());
        let (kv, _) = daos.kv_create(0, cid, ObjectClass::RP_2).unwrap();
        // key -> the bit its value size sets
        let mut live: BTreeMap<Vec<u8>, u32> = BTreeMap::new();
        let mut next_bit = 0u32;
        let mut put = |daos: &mut DaosSystem, live: &mut BTreeMap<_, _>, key: Vec<u8>| {
            daos.kv_put(0, cid, kv, &key, Payload::Sized(1 << next_bit))
                .unwrap();
            live.insert(key, next_bit);
            next_bit += 1;
        };
        for i in 0..KV_KEYS {
            put(&mut daos, &mut live, format!("k/{i:04}").into_bytes());
        }
        let whole_pass: BTreeSet<u32> = live.values().copied().collect();
        let mut removed: BTreeSet<u32> = BTreeSet::new();
        let mut scans: BTreeMap<u32, u32> = BTreeMap::new();
        let mut edits = edits.into_iter();
        daos.scrub_start();
        loop {
            let before = daos.scrub_progress().bytes_scanned;
            if daos.scrub_wave(wave).is_none() {
                break;
            }
            let read = daos.scrub_progress().bytes_scanned - before;
            for bit in (0..64).filter(|b| read >> b & 1 == 1) {
                prop_assert!(
                    !removed.contains(&bit),
                    "key of bit {} scanned after its removal",
                    bit
                );
                *scans.entry(bit).or_default() += 1;
            }
            match edits.next() {
                // a new key right after an existing one, ahead of or
                // behind the anchor
                Some((true, pick)) => {
                    let after = live.keys().nth(pick as usize % live.len()).unwrap();
                    let mut key = after.clone();
                    key.push(b'+');
                    if !live.contains_key(&key) {
                        put(&mut daos, &mut live, key);
                    }
                }
                Some((false, pick)) => {
                    let key = live.keys().nth(pick as usize % live.len()).unwrap().clone();
                    daos.kv_remove(0, cid, kv, &key).unwrap();
                    let bit = live.remove(&key).unwrap();
                    removed.insert(bit);
                }
                None => {}
            }
        }
        for bit in whole_pass.difference(&removed) {
            prop_assert_eq!(
                scans.get(bit).copied(),
                Some(1),
                "key of bit {} not scanned exactly once",
                bit
            );
        }
        prop_assert!(scans.values().all(|&n| n == 1), "no key is scanned twice");
        prop_assert!(!daos.scrub_active());
        prop_assert_eq!(daos.scrub_progress().passes, 1);
    }
}
