//! Clean fixture: simulation state kept in ordered collections, no
//! wall clock, no ambient RNG, no environment reads, no unwraps.

use std::collections::BTreeMap;

pub struct Counter {
    pub ticks: BTreeMap<u64, f64>,
}

impl Counter {
    pub fn tick(&mut self, at: u64) -> f64 {
        let v = self.ticks.entry(at).or_insert(0.0);
        *v += 1.0;
        self.ticks.values().sum()
    }
}
