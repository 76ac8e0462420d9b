//! # bench — the `repro` figure regenerator and the engine bench
//!
//! * `src/bin/repro.rs` regenerates every paper table/figure (see
//!   `repro --help`);
//! * [`engine_bench`] holds the seeded engine-only workload families
//!   that `repro bench-engine` times against the committed
//!   `BENCH_engine.json`.

pub mod engine_bench;
