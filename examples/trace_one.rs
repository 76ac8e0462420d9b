//! Trace one scenario and print where the time goes.
//!
//! ```text
//! cargo run --release --example trace_one [scenario]
//! ```
//!
//! Runs the scenario (default `ior-dfuse`) once at the `repro report`
//! spec with spans, telemetry and a windowed monitor on, then prints
//! the top-3 critical-path contributors of every layer plus the full
//! critical-path report, and drops the Chrome trace JSON in the
//! working directory — load it in Perfetto (ui.perfetto.dev) or
//! `chrome://tracing` to browse the causal tree interactively.  The
//! trace includes telemetry counter tracks (queue depth, in-flight
//! flows, per-layer op counters) rendered under the span tree, and the
//! run's SLO verdicts print alongside the critical path.

use benchkit::runreport::{default_slo_rules, report_spec, run_reported};
use benchkit::scenarios::Scenario;
use cluster::Calibration;

fn parse(name: &str) -> Option<Scenario> {
    match name {
        "ior-daos" => Some(Scenario::IorDaos),
        "ior-dfs" => Some(Scenario::IorDfs),
        "ior-dfuse" => Some(Scenario::IorDfuse),
        "ior-dfuse-il" => Some(Scenario::IorDfuseIl),
        "ior-hdf5-dfuse-il" => Some(Scenario::IorHdf5DfuseIl),
        "ior-hdf5-daos" => Some(Scenario::IorHdf5Daos),
        "fieldio" => Some(Scenario::FieldIo),
        "fdb-daos" => Some(Scenario::FdbDaos),
        "ior-lustre" => Some(Scenario::IorLustre),
        "fdb-lustre" => Some(Scenario::FdbLustre),
        "ior-ceph" => Some(Scenario::IorCeph),
        "fdb-ceph" => Some(Scenario::FdbCeph),
        _ => None,
    }
}

fn main() {
    let arg = std::env::args().nth(1).unwrap_or("ior-dfuse".to_string());
    let Some(scen) = parse(&arg) else {
        eprintln!(
            "unknown scenario '{arg}'; one of: ior-daos ior-dfs ior-dfuse ior-dfuse-il \
             ior-hdf5-dfuse-il ior-hdf5-daos fieldio fdb-daos ior-lustre fdb-lustre \
             ior-ceph fdb-ceph"
        );
        std::process::exit(2);
    };
    let r = run_reported(
        &report_spec(),
        scen,
        &Calibration::default(),
        &default_slo_rules(),
    );
    println!(
        "{}: write {:.2} GiB/s, read {:.2} GiB/s, {} spans",
        scen.name(),
        r.report.write_gib,
        r.report.read_gib,
        r.exports.span_count
    );
    println!("\ntop-3 critical-path contributors per layer:");
    for layer in r.exports.layers() {
        println!("  {layer}:");
        for c in r.exports.top_of_layer(layer, 3) {
            println!("    {:<20} {} ns", c.op, c.self_ns);
        }
    }
    println!("\n{}", r.exports.critical_path);
    println!("slo:");
    for v in &r.report.verdicts {
        println!(
            "  {:<32} {}",
            v.rule,
            if v.pass { "ok" } else { "VIOLATED" }
        );
    }
    let path = format!("{arg}.trace.json");
    match std::fs::write(&path, &r.exports.chrome_json) {
        Ok(()) => println!("wrote {path} (spans + counter tracks) — open it in ui.perfetto.dev"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}
