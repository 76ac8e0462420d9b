//! Runtime determinism harness: the enforcement half of the clippy bans
//! in `crates/clippy.toml`.
//!
//! The simulator's contract is that identical inputs produce identical
//! schedules.  The lint forbids the usual ways of breaking that contract
//! (hash-ordered state, wall clocks, host reads); this module *checks*
//! it end to end by executing every paper scenario twice from fresh
//! state and comparing the replay digests (order-sensitive FNV-1a over
//! the `(time, op)` completion stream, see [`simkit::trace::ReplayDigest`])
//! and the reported bandwidths, which must be bit-identical.

use crate::scenarios::{run_scenario_digest, RunSpec, Scenario};
use cluster::Calibration;

/// The two-run comparison for one scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReplay {
    pub scenario: Scenario,
    /// Replay digest of each run.
    pub digests: [u64; 2],
    /// (write, read) bandwidth in bytes/s of each run.
    pub bandwidths: [(f64, f64); 2],
}

impl ScenarioReplay {
    /// Did both runs replay identically? Bandwidths are compared with
    /// exact equality on purpose: determinism means bit-identical
    /// floats, not merely close ones.
    pub fn deterministic(&self) -> bool {
        self.digests[0] == self.digests[1] && self.bandwidths[0] == self.bandwidths[1]
    }
}

/// Run `scen` twice from fresh state and report both runs.
pub fn replay_scenario(spec: &RunSpec, scen: Scenario, cal: &Calibration) -> ScenarioReplay {
    let runs: Vec<(u64, (f64, f64))> = (0..2)
        .map(|_| {
            let (result, digest) = run_scenario_digest(spec, scen, cal);
            (digest, (result.write.bandwidth(), result.read.bandwidth()))
        })
        .collect();
    ScenarioReplay {
        scenario: scen,
        digests: [runs[0].0, runs[1].0],
        bandwidths: [runs[0].1, runs[1].1],
    }
}

/// Replay every paper scenario twice and report each comparison, in
/// [`Scenario::ALL`] order.  A scenario with differing digests or
/// bandwidths indicates a determinism regression somewhere under it.
pub fn replay_all(spec: &RunSpec, cal: &Calibration) -> Vec<ScenarioReplay> {
    Scenario::ALL
        .iter()
        .map(|&s| replay_scenario(spec, s, cal))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_scenario_replays_identically() {
        let mut spec = RunSpec::new(1, 1, 2);
        spec.ops_per_proc = 8;
        let r = replay_scenario(&spec, Scenario::IorDaos, &Calibration::default());
        assert!(r.deterministic(), "{r:?}");
        // The digest covers real completions, not the FNV offset basis.
        assert_ne!(r.digests[0], simkit::ReplayDigest::new().value());
    }

    #[test]
    fn different_scenarios_have_different_digests() {
        let mut spec = RunSpec::new(1, 1, 2);
        spec.ops_per_proc = 8;
        let cal = Calibration::default();
        let a = replay_scenario(&spec, Scenario::IorDaos, &cal);
        let b = replay_scenario(&spec, Scenario::IorDfs, &cal);
        assert_ne!(a.digests[0], b.digests[0]);
    }
}
