//! Helpers shared by the chaos acceptance tests.

use benchkit::chaos::SwarmReport;

/// FNV-1a over every case's replay digest and plan JSON, in run order:
/// pinning it catches a behaviour change in any case's plan or run.
pub fn fold_cases(report: &SwarmReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in &report.verdicts {
        let bytes = v.digest.to_le_bytes();
        for &b in bytes.iter().chain(v.plan.to_json().as_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
