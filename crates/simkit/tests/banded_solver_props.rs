//! Property tests for the banded (tolerance > 0) fair-share solver:
//! its allocation must stay close to the exact max-min allocation and
//! must never violate capacities by more than the band.

use proptest::prelude::*;
use simkit::fairshare::FairShare;
use simkit::units::{Bytes, Rate};
use simkit::{Path, ResourceId, SimTime};

fn scenario() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<u32>>)> {
    (2usize..10).prop_flat_map(|nres| {
        let caps = proptest::collection::vec(0.5f64..200.0, nres);
        let flow = proptest::collection::btree_set(0u32..nres as u32, 1..=nres.min(4))
            .prop_map(|s| s.into_iter().collect::<Vec<u32>>());
        let flows = proptest::collection::vec(flow, 1..32);
        (caps, flows)
    })
}

fn solve_with(caps: &[f64], flows: &[Vec<u32>], tol: f64) -> Vec<f64> {
    let mut fs = FairShare::new();
    fs.set_tolerance(tol);
    for (i, path) in flows.iter().enumerate() {
        let p: Vec<ResourceId> = path.iter().map(|&r| ResourceId(r)).collect();
        fs.add(i as u32, Path::try_from(&p[..]).unwrap(), Bytes(1.0));
    }
    let caps: Vec<Rate> = caps.iter().map(|&c| Rate(c)).collect();
    fs.solve(&caps, SimTime::ZERO);
    let mut rates = vec![0.0; flows.len()];
    for (k, r) in fs.results() {
        rates[k as usize] = r.get();
    }
    rates
}

proptest! {
    /// Banded capacities stay within (1 + tol) of nominal.
    #[test]
    fn banded_respects_capacity_within_band((caps, flows) in scenario()) {
        let tol = 0.02;
        let rates = solve_with(&caps, &flows, tol);
        for (r, &cap) in caps.iter().enumerate() {
            let load: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(path, _)| path.contains(&(r as u32)))
                .map(|(_, rate)| *rate)
                .sum();
            prop_assert!(
                load <= cap * (1.0 + tol) + 1e-9,
                "resource {r} load {load} vs cap {cap}"
            );
        }
    }

    /// Total allocated throughput deviates from the exact solution by at
    /// most the order of the band.
    #[test]
    fn banded_total_close_to_exact((caps, flows) in scenario()) {
        let exact: f64 = solve_with(&caps, &flows, 0.0).iter().sum();
        let banded: f64 = solve_with(&caps, &flows, 0.02).iter().sum();
        let err = (banded - exact).abs() / exact.max(1e-9);
        prop_assert!(err < 0.05, "total deviates {:.2}% (exact {exact}, banded {banded})", err * 100.0);
    }

    /// No flow is starved by the band.
    #[test]
    fn banded_rates_positive((caps, flows) in scenario()) {
        let rates = solve_with(&caps, &flows, 0.02);
        for (i, r) in rates.iter().enumerate() {
            prop_assert!(*r > 0.0, "flow {i} starved");
        }
    }
}
