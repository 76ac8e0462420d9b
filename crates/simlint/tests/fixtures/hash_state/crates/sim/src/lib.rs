//! Hash-ordered simulation state: iterating the map makes the sum's
//! rounding depend on hash seeding.

use std::collections::HashMap;

pub struct Counter {
    pub ticks: HashMap<u64, u64>,
}

impl Counter {
    pub fn total(&self) -> u64 {
        self.ticks.values().sum()
    }
}
