//! Helpers shared by the acceptance tests.

use benchkit::chaos::SwarmReport;

/// FNV-1a over the concatenation of `chunks`.
pub fn fnv1a<B: AsRef<[u8]>>(chunks: impl IntoIterator<Item = B>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for chunk in chunks {
        for &b in chunk.as_ref() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over every case's replay digest and plan JSON, in run order:
/// pinning it catches a behaviour change in any case's plan or run.
#[allow(dead_code)] // the builtin-digest pin folds plain digests only
pub fn fold_cases(report: &SwarmReport) -> u64 {
    fnv1a(report.verdicts.iter().flat_map(|v| {
        [
            v.digest.to_le_bytes().to_vec(),
            v.plan.to_json().into_bytes(),
        ]
    }))
}
