//! Property tests: placement balance, EC round trips, array semantics.

use cluster::payload::Payload;
use daos_core::data::{ArrayData, CellAvailability, DataMode};
use daos_core::{ErasureCode, ObjectClass, OidAllocator, PoolMap};
use proptest::prelude::*;

proptest! {
    /// Any k-subset of EC cells reconstructs the stripe.
    #[test]
    fn ec_any_k_of_n_recovers(
        k in 2usize..6,
        p in 1usize..4,
        cell_len in 1usize..64,
        seed in any::<u64>(),
    ) {
        let ec = ErasureCode::new(k, p);
        let mut rng = simkit::SplitMix64::new(seed);
        let data: Vec<Vec<u8>> = (0..k).map(|_| {
            let mut c = vec![0u8; cell_len];
            rng.fill_bytes(&mut c);
            c
        }).collect();
        let refs: Vec<&[u8]> = data.iter().map(|c| c.as_slice()).collect();
        let parity = ec.encode(&refs);
        // choose p cells to drop, pseudo-randomly
        let mut cells: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some)
            .chain(parity.into_iter().map(Some)).collect();
        let mut dropped = 0;
        while dropped < p {
            let i = (rng.next_below((k + p) as u64)) as usize;
            if cells[i].is_some() {
                cells[i] = None;
                dropped += 1;
            }
        }
        let rec = ec.reconstruct(&cells).expect("k cells survive");
        prop_assert_eq!(rec, data);
    }

    /// S1 objects spread evenly over pool targets.
    #[test]
    fn placement_is_balanced(
        servers in 2usize..8,
        tps in 4usize..16,
        objects in 200usize..400,
    ) {
        let pm = PoolMap::new(servers, tps);
        let mut alloc = OidAllocator::new();
        let n = pm.total_targets();
        let mut counts = vec![0usize; n];
        for _ in 0..objects {
            let oid = alloc.next(ObjectClass::S1, 0);
            let l = pm.layout(&oid, ObjectClass::S1);
            counts[pm.index(l.group(0)[0])] += 1;
        }
        let mean = objects as f64 / n as f64;
        let max = *counts.iter().max().unwrap() as f64;
        prop_assert!(max < mean * 4.0 + 8.0, "hot target: max {max}, mean {mean:.1}");
    }

    /// Array write-then-read returns exactly what was written, for any
    /// offsets/lengths/chunk sizes, plain or EC.
    #[test]
    fn array_rw_roundtrip(
        chunk in 1u64..200,
        writes in proptest::collection::vec((0u64..500, 1usize..300, any::<u8>()), 1..12),
        use_ec in any::<bool>(),
    ) {
        let ec = use_ec.then(|| ErasureCode::new(2, 1));
        let mut a = ArrayData::new(chunk);
        let mut model = vec![0u8; 1024];
        let mut high = 0u64;
        for (off, len, byte) in &writes {
            let data = vec![*byte; *len];
            a.write(*off, &Payload::Bytes(data.clone()), DataMode::Full, ec.as_ref());
            model[*off as usize..*off as usize + len].copy_from_slice(&data);
            high = high.max(off + *len as u64);
        }
        prop_assert_eq!(a.size(), high);
        let all = |_c: u64| CellAvailability::All;
        let r = a.read(0, high, DataMode::Full, ec.as_ref(), &all).unwrap();
        prop_assert_eq!(r.bytes().unwrap(), &model[..high as usize]);
    }

    /// EC arrays survive the loss of any single cell per group.
    #[test]
    fn ec_array_degraded_read(
        chunk in 8u64..100,
        len in 1usize..512,
        lost in 0usize..3,
        seed in any::<u64>(),
    ) {
        let ec = ErasureCode::new(2, 1);
        let mut rng = simkit::SplitMix64::new(seed);
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        let mut a = ArrayData::new(chunk);
        a.write(0, &Payload::Bytes(data.clone()), DataMode::Full, Some(&ec));
        let mask: Vec<bool> = (0..3).map(|i| i != lost).collect();
        let avail = move |_c: u64| CellAvailability::Mask(mask.clone());
        let r = a.read(0, len as u64, DataMode::Full, Some(&ec), &avail).unwrap();
        prop_assert_eq!(r.bytes().unwrap(), &data[..]);
    }
}
