//! The chaos harness: seeded schedule generation × invariant oracles ×
//! automatic shrinking, one copy for every fault family.
//!
//! One **case** is `(scenario, seed)`: the seed picks a [`FaultPlan`]
//! for the scenario, the scenario runs under it twice from fresh state,
//! and the verdict combines the run's invariant oracles with a
//! determinism check over the two replay digests, judged by the
//! family's case-ok predicate.  A **swarm** is a seed block over a
//! family's scenarios.  Any case archives to a self-contained JSON
//! schedule ([`schedule_json`]) from which [`replay`] reruns it
//! exactly; [`archive_case`] writes a failing case's schedule, a traced
//! replay and the minimal reproducer [`shrink_case`] delta-debugs it
//! down to.
//!
//! A family implements [`Family`]: its scenarios, its sweep point, the
//! plan for a seed, one run under a plan and its case-ok predicate.
//! There are four, listed in [`FAMILIES`]:
//!
//! * **faulted** ([`FaultedFamily`]): the full fault surface (server
//!   crashes, restarts, slow disks, NIC brownouts, delayed completions,
//!   bit rot) with the durability ledger recording every acked write in
//!   `Full` data mode and every oracle auditing after quiescence;
//! * **engine** ([`EngineFamily`]): capacity-weather schedules (slow
//!   disks / NIC brownouts only — safe against drivers with no
//!   fault-aware world) over every generic scenario, where the
//!   invariant is that the run completes and replays bit-identically;
//! * **rebalance** ([`crate::rebalance::RebalanceFamily`]): live
//!   membership churn layered over the faulted surface;
//! * **integrity** ([`crate::integrity::IntegrityFamily`]): bit-rot
//!   races against the checksum and scrub machinery.
//!
//! Scenario names are unique across the families, so an archive's
//! `scenario` field names its family too.

use crate::faulted::{try_run_faulted_with, FaultedOpts, FaultedScenario, PlanSource};
use crate::integrity::IntegrityFamily;
use crate::par::par_map;
use crate::rebalance::RebalanceFamily;
use crate::report::{save_trace, slug};
use crate::runreport::SpanExports;
use crate::scenarios::{run_scenario_chaos, RunSpec, Scenario};
use cluster::{Calibration, ClusterSpec, Topology};
use daos_core::{CsumStats, DataMode, OracleKind, OracleReport, ScrubReport, TargetId, Violation};
use simkit::{generate, shrink, ChaosConfig, ChaosSpace, FaultPlan, Scheduler, ShrinkOutcome};
use std::path::{Path, PathBuf};

/// The sweep point the chaos swarm runs at: the faulted family's
/// deployment shape with a reduced op count and transfer size, because
/// `Full` data mode materialises (and the ledger re-reads) every byte.
pub fn default_chaos_spec() -> RunSpec {
    let mut spec = crate::faulted::default_faulted_spec();
    spec.ops_per_proc = 16;
    spec.transfer = 256 << 10;
    spec
}

/// A scratch build of a `servers`-server deployment: resource ids
/// depend only on registration order, so the ids it enumerates match
/// the real run's topology build exactly.
pub(crate) fn scratch_topology(servers: usize, spec: &RunSpec, cal: &Calibration) -> Topology {
    let mut sched = Scheduler::new();
    ClusterSpec::new(servers, spec.client_nodes)
        .with_cal(cal.clone())
        .build(&mut sched)
}

/// Enumerate the fault surface of the deployment `spec` describes:
/// whole-server crash groups, every NVMe read/write device, both NIC
/// directions, and per-server delayed-completion payloads.
pub fn chaos_space(spec: &RunSpec, cal: &Calibration) -> ChaosSpace {
    let mut space = engine_space(&scratch_topology(spec.servers, spec, cal));
    space.crash_groups = (0..spec.servers as u16)
        .map(|server| {
            (0..cal.targets_per_server as u16)
                .map(|target| TargetId { server, target }.pack())
                .collect()
        })
        .collect();
    space.delay_payloads = (0..spec.servers as u64).collect();
    // bit-rot dimension: the widest redundancy group the families
    // deploy is EC_2P1 (k + p = 3); a single sampled rot is always
    // within redundancy, so swarm cases stay green by transparent
    // repair (the sampler shares the crash budget to guarantee it)
    space.rot_shards = 3;
    space
}

/// The engine-level slice of the fault surface: disk and NIC resources
/// only.  Schedules drawn from this space are safe against *any*
/// scenario because the engine applies capacity scaling itself — no
/// world cooperation needed.
pub fn engine_space(topo: &Topology) -> ChaosSpace {
    let mut space = ChaosSpace::default();
    for srv in &topo.servers {
        space.disks.extend(srv.nvme_r.iter().copied());
        space.disks.extend(srv.nvme_w.iter().copied());
        space.nics.push(srv.nic_tx);
        space.nics.push(srv.nic_rx);
    }
    space
}

/// What one run of a family scenario under a plan observed.
#[derive(Debug, Clone, Default)]
pub struct CaseRun {
    /// Post-quiescence invariant audit.
    pub oracle: OracleReport,
    /// Replay digest.
    pub digest: u64,
    /// Checksum activity, for families judged on it.
    pub csum: Option<CsumStats>,
    /// Scrubber progress, for scenarios that scrub.
    pub scrub: Option<ScrubReport>,
    /// The causal trace, when one was asked for and the family's runner
    /// records spans.
    pub exports: Option<SpanExports>,
}

/// A scenario family the harness can swarm, archive, replay and shrink.
/// Implementors supply only what differs between families.
pub trait Family {
    /// The family's scenario type.
    type Scenario: Copy + Send + Sync + 'static;
    /// The `repro swarm --family` name and artifact-stem prefix.
    const NAME: &'static str;
    /// Every scenario an archive may name.
    const ALL: &'static [Self::Scenario];
    /// The scenarios a swarm runs.
    const SWARM: &'static [Self::Scenario] = Self::ALL;

    /// Display name of `scen`, unique across every family.
    fn scenario_name(scen: Self::Scenario) -> &'static str;
    /// The sweep point a swarm runs at.
    fn default_spec() -> RunSpec;
    /// The schedule `seed` picks for `scen`.
    fn seed_plan(spec: &RunSpec, cal: &Calibration, scen: Self::Scenario, seed: u64) -> FaultPlan;
    /// One run of `scen` under `plan` from fresh state, span-traced when
    /// `traced` (an observer: the digest must not change).  Fails when
    /// the plan does not install on the scenario's deployment.
    fn run_under(
        spec: &RunSpec,
        scen: Self::Scenario,
        cal: &Calibration,
        plan: &FaultPlan,
        traced: bool,
    ) -> Result<CaseRun, String>;
    /// Whether [`Family::run_under`] records spans for `scen`.
    fn traces(_scen: Self::Scenario) -> bool {
        true
    }
    /// Whether a case is green.
    fn case_ok(_scen: Self::Scenario, v: &ChaosVerdict) -> bool {
        v.oracle.ok()
    }
}

/// The faulted family: every [`FaultedScenario`] under schedules drawn
/// from [`chaos_space`], full oracle suite.
pub struct FaultedFamily;

impl Family for FaultedFamily {
    type Scenario = FaultedScenario;
    const NAME: &'static str = "faulted";
    const ALL: &'static [FaultedScenario] = &FaultedScenario::ALL;

    fn scenario_name(scen: FaultedScenario) -> &'static str {
        scen.name()
    }

    fn default_spec() -> RunSpec {
        default_chaos_spec()
    }

    fn seed_plan(spec: &RunSpec, cal: &Calibration, _: FaultedScenario, seed: u64) -> FaultPlan {
        generate(&chaos_space(spec, cal), &ChaosConfig::default(), seed)
    }

    fn run_under(
        spec: &RunSpec,
        scen: FaultedScenario,
        cal: &Calibration,
        plan: &FaultPlan,
        traced: bool,
    ) -> Result<CaseRun, String> {
        let opts = FaultedOpts {
            plan: PlanSource::Fixed(plan.clone()),
            mode: DataMode::Full,
            oracles: true,
            traced,
            ..FaultedOpts::default()
        };
        let (report, exports) = try_run_faulted_with(spec, scen, cal, &opts)?;
        Ok(CaseRun {
            oracle: report.oracles.unwrap_or_default(),
            digest: report.digest,
            exports,
            ..CaseRun::default()
        })
    }
}

/// The engine family: every generic [`Scenario`] under capacity weather
/// drawn from [`engine_space`], determinism as the invariant.
pub struct EngineFamily;

impl Family for EngineFamily {
    type Scenario = Scenario;
    const NAME: &'static str = "engine";
    const ALL: &'static [Scenario] = &Scenario::ALL;

    fn scenario_name(scen: Scenario) -> &'static str {
        scen.name()
    }

    fn default_spec() -> RunSpec {
        let mut spec = RunSpec::new(4, 2, 4);
        spec.ops_per_proc = 16;
        spec
    }

    fn seed_plan(spec: &RunSpec, cal: &Calibration, _: Scenario, seed: u64) -> FaultPlan {
        let topo = scratch_topology(spec.servers, spec, cal);
        generate(&engine_space(&topo), &ChaosConfig::default(), seed)
    }

    /// The generic drivers record no spans under a fault plan.
    fn traces(_: Scenario) -> bool {
        false
    }

    fn run_under(
        spec: &RunSpec,
        scen: Scenario,
        cal: &Calibration,
        plan: &FaultPlan,
        _traced: bool,
    ) -> Result<CaseRun, String> {
        let (_, digest) = run_scenario_chaos(spec, scen, cal, plan)?;
        let mut oracle = OracleReport::default();
        oracle.checked_groups += 1;
        Ok(CaseRun {
            oracle,
            digest,
            ..CaseRun::default()
        })
    }
}

/// One chaos case verdict.
#[derive(Debug, Clone)]
pub struct ChaosVerdict {
    /// Scenario display name.
    pub scenario: &'static str,
    /// The generating seed.
    pub seed: u64,
    /// The schedule (event times relative to the family's anchor).
    pub plan: FaultPlan,
    /// Oracle report of the first run plus the determinism check.
    pub oracle: OracleReport,
    /// Replay digest of the first run.
    pub digest: u64,
    /// Checksum activity of the first run, for families judged on it.
    pub csum: Option<CsumStats>,
    /// Scrubber progress of the first run, for scenarios that scrub.
    pub scrub: Option<ScrubReport>,
    ok: bool,
}

impl ChaosVerdict {
    /// The family's case-ok predicate held.
    pub fn passed(&self) -> bool {
        self.ok
    }

    /// One status line: `seed 0x0017 IOR-easy/RP_2+crash 3 faults ok`,
    /// with the checksum counters appended when the family reports them.
    pub fn render_line(&self) -> String {
        let mut line = format!(
            "seed {:#06x}  {:<24} {} faults  digest {:#018x}  {}",
            self.seed,
            self.scenario,
            self.plan.len(),
            self.digest,
            if self.ok {
                "ok".to_string()
            } else {
                format!("FAILED ({} violations)", self.oracle.violations.len())
            }
        );
        if let Some(c) = &self.csum {
            line.push_str(&format!(
                "  detected {} repaired {} unrepairable {} served_corrupt {}",
                c.detected, c.repaired, c.unrepairable, c.served_corrupt
            ));
        }
        line
    }
}

/// Run one case under an explicit schedule: twice from fresh state,
/// with a determinism check folded over the two digests, judged by
/// [`Family::case_ok`].  Fails when the plan does not install.
pub fn run_case<F: Family>(
    spec: &RunSpec,
    scen: F::Scenario,
    cal: &Calibration,
    seed: u64,
    plan: FaultPlan,
) -> Result<ChaosVerdict, String> {
    let first = F::run_under(spec, scen, cal, &plan, false)?;
    let rerun = F::run_under(spec, scen, cal, &plan, false)?.digest;
    Ok(judge::<F>(scen, seed, plan, first, Some(rerun)))
}

/// The verdict on `run`: a determinism violation when the digest of a
/// `rerun` diverges from it, then the family's case-ok predicate.
fn judge<F: Family>(
    scen: F::Scenario,
    seed: u64,
    plan: FaultPlan,
    run: CaseRun,
    rerun: Option<u64>,
) -> ChaosVerdict {
    let scenario = F::scenario_name(scen);
    let mut oracle = run.oracle;
    if let Some(rerun) = rerun.filter(|&d| d != run.digest) {
        oracle.violations.push(Violation {
            oracle: OracleKind::Determinism,
            subject: scenario.to_string(),
            detail: format!(
                "replay digests diverge: {:#018x} vs {rerun:#018x}",
                run.digest
            ),
        });
    }
    let mut v = ChaosVerdict {
        scenario,
        seed,
        plan,
        oracle,
        digest: run.digest,
        csum: run.csum,
        scrub: run.scrub,
        ok: false,
    };
    v.ok = F::case_ok(scen, &v);
    v
}

/// Run one case under the schedule `seed` picks.
pub fn run_seed<F: Family>(
    spec: &RunSpec,
    scen: F::Scenario,
    cal: &Calibration,
    seed: u64,
) -> Result<ChaosVerdict, String> {
    run_case::<F>(spec, scen, cal, seed, F::seed_plan(spec, cal, scen, seed))
}

/// A swarm's collected verdicts.
#[derive(Debug, Clone, Default)]
pub struct SwarmReport {
    /// One verdict per case, in run order.
    pub verdicts: Vec<ChaosVerdict>,
}

impl SwarmReport {
    /// Every case green.
    pub fn passed(&self) -> bool {
        self.verdicts.iter().all(|v| v.passed())
    }

    /// The failing cases.
    pub fn failures(&self) -> Vec<&ChaosVerdict> {
        self.verdicts.iter().filter(|v| !v.passed()).collect()
    }

    /// Per-case lines plus a summary footer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.verdicts {
            out.push_str(&v.render_line());
            out.push('\n');
        }
        out.push_str(&format!(
            "swarm: {} cases, {} failed\n",
            self.verdicts.len(),
            self.failures().len()
        ));
        out
    }
}

/// Swarm a family: every scenario in [`Family::SWARM`] under every seed
/// in `seeds`, the cases spread over every core by [`par_map`] and
/// reported in (seed, scenario) order.  Fails with the first case, in
/// that order, whose plan does not install.
pub fn swarm<F: Family>(
    spec: &RunSpec,
    cal: &Calibration,
    seeds: &[u64],
) -> Result<SwarmReport, String> {
    let cases: Vec<(u64, F::Scenario)> = seeds
        .iter()
        .flat_map(|&seed| F::SWARM.iter().map(move |&scen| (seed, scen)))
        .collect();
    let verdicts = par_map(&cases, |&(seed, scen)| run_seed::<F>(spec, scen, cal, seed))
        .into_iter()
        .collect::<Result<_, _>>()?;
    Ok(SwarmReport { verdicts })
}

/// Shrink a failing schedule to a minimal reproducer: a candidate
/// subset "fails" when its case is not green or it does not install.
/// Probes run once (no determinism rerun); re-establish the final
/// verdict with [`run_case`].
pub fn shrink_case<F: Family>(
    spec: &RunSpec,
    scen: F::Scenario,
    cal: &Calibration,
    seed: u64,
    plan: &FaultPlan,
) -> ShrinkOutcome {
    shrink(plan, |candidate| {
        F::run_under(spec, scen, cal, candidate, false).map_or(true, |run| {
            !judge::<F>(scen, seed, candidate.clone(), run, None).passed()
        })
    })
}

/// Serialize a case to a self-contained schedule artifact: scenario,
/// seed, deployment shape, the plan itself, and the exact replay
/// command.  [`parse_schedule`] inverts it.
pub fn schedule_json(scenario: &str, seed: u64, spec: &RunSpec, plan: &FaultPlan) -> String {
    format!(
        concat!(
            "{{\"scenario\": \"{}\", \"seed\": {}, ",
            "\"spec\": {{\"servers\": {}, \"client_nodes\": {}, \"ppn\": {}, ",
            "\"ops_per_proc\": {}, \"transfer\": {}, \"queue_depth\": {}, \"seed\": {}}}, ",
            "\"replay\": \"cargo run --release --bin repro -- replay --schedule <this file>\", ",
            "\"plan\": {}}}"
        ),
        scenario,
        seed,
        spec.servers,
        spec.client_nodes,
        spec.ppn,
        spec.ops_per_proc,
        spec.transfer,
        spec.queue_depth,
        spec.seed,
        plan.to_json(),
    )
}

/// A parsed schedule artifact.
#[derive(Debug, Clone)]
pub struct ArchivedSchedule {
    /// Scenario display name (names the family too).
    pub scenario: String,
    /// The generating seed (provenance; the plan is authoritative).
    pub seed: u64,
    /// Deployment shape to rerun at.
    pub spec: RunSpec,
    /// The schedule.
    pub plan: FaultPlan,
}

/// Parse a schedule artifact produced by [`schedule_json`].
pub fn parse_schedule(input: &str) -> Result<ArchivedSchedule, String> {
    let doc = simkit::json::parse(input).map_err(|e| e.to_string())?;
    let scenario = doc
        .get("scenario")
        .and_then(|v| v.as_str())
        .ok_or("missing scenario")?
        .to_string();
    let seed = doc
        .get("seed")
        .and_then(|v| v.as_u64())
        .ok_or("missing seed")?;
    let s = doc.get("spec").ok_or("missing spec")?;
    let field = |name: &str| -> Result<u64, String> {
        s.get(name)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("missing spec.{name}"))
    };
    let mut spec = RunSpec::new(
        field("servers")? as usize,
        field("client_nodes")? as usize,
        field("ppn")? as usize,
    );
    spec.ops_per_proc = field("ops_per_proc")? as usize;
    spec.transfer = field("transfer")?;
    spec.queue_depth = field("queue_depth")? as usize;
    spec.seed = field("seed")?;
    spec.check()?;
    let plan = FaultPlan::from_json(&doc.get("plan").ok_or("missing plan")?.render())?;
    Ok(ArchivedSchedule {
        scenario,
        seed,
        spec,
        plan,
    })
}

/// One family's harness entry points, for choosing a family at run
/// time (see [`FAMILIES`]).
#[derive(Clone, Copy)]
pub struct FamilyOps {
    /// [`Family::NAME`].
    pub name: &'static str,
    /// [`Family::default_spec`].
    pub default_spec: fn() -> RunSpec,
    /// [`swarm`] over this family.
    pub swarm: fn(&RunSpec, &Calibration, &[u64]) -> Result<SwarmReport, String>,
    /// [`archive_case`] a failing case of this family.
    pub archive: fn(&ChaosVerdict, &RunSpec, &Calibration, &Path) -> std::io::Result<Archive>,
    /// Every scenario name in [`Family::ALL`].
    pub scenario_names: fn() -> Vec<&'static str>,
    replay: fn(&ArchivedSchedule, &Calibration) -> Option<Result<ChaosVerdict, String>>,
}

const fn ops<F: Family>() -> FamilyOps {
    FamilyOps {
        name: F::NAME,
        default_spec: F::default_spec,
        swarm: swarm::<F>,
        archive: archive_case::<F>,
        scenario_names: || F::ALL.iter().map(|&s| F::scenario_name(s)).collect(),
        replay: |arch, cal| {
            let scen = find_scenario::<F>(&arch.scenario)?;
            Some(run_case::<F>(
                &arch.spec,
                scen,
                cal,
                arch.seed,
                arch.plan.clone(),
            ))
        },
    }
}

/// Every chaos family.
pub const FAMILIES: [FamilyOps; 4] = [
    ops::<FaultedFamily>(),
    ops::<EngineFamily>(),
    ops::<RebalanceFamily>(),
    ops::<IntegrityFamily>(),
];

/// The family called `name`.
pub fn family(name: &str) -> Option<FamilyOps> {
    FAMILIES.into_iter().find(|f| f.name == name)
}

/// The family whose [`Family::ALL`] holds `scenario`.
pub fn family_of(scenario: &str) -> Option<FamilyOps> {
    FAMILIES
        .into_iter()
        .find(|f| (f.scenario_names)().contains(&scenario))
}

fn find_scenario<F: Family>(scenario: &str) -> Option<F::Scenario> {
    F::ALL
        .iter()
        .copied()
        .find(|&s| F::scenario_name(s) == scenario)
}

/// Rerun an archived schedule byte-for-byte: resolve the scenario by
/// name in whichever family holds it and replay the stored plan at the
/// stored deployment shape.  Fails on an unknown scenario or a plan
/// that does not install.
pub fn replay(arch: &ArchivedSchedule, cal: &Calibration) -> Result<ChaosVerdict, String> {
    family_of(&arch.scenario)
        .and_then(|f| (f.replay)(arch, cal))
        .ok_or_else(|| format!("unknown scenario {:?}", arch.scenario))?
}

/// What [`archive_case`] wrote for a failing case.
#[derive(Debug, Clone)]
pub struct Archive {
    /// The schedule artifact, `<stem>.json` with stem
    /// `<family>-<scenario>-seed<N>`; the minimal reproducer, when the
    /// shrinker reproduced the failure, is `<stem>.min.json` beside it.
    pub path: PathBuf,
    /// The shrinker's result; `None` when a single run of the case
    /// passes (only the determinism check failed), which the shrinker's
    /// single-run probes could never reproduce.
    pub shrunk: Option<ShrinkOutcome>,
}

/// Archive a failing case of family `F` under `out/`: its schedule, a
/// traced replay through the same family run under the same stem (when
/// the runner records spans; a trace that cannot be saved is only
/// warned about), and the shrunken minimal reproducer.
pub fn archive_case<F: Family>(
    v: &ChaosVerdict,
    spec: &RunSpec,
    cal: &Calibration,
    out: &Path,
) -> std::io::Result<Archive> {
    let scen = find_scenario::<F>(v.scenario).ok_or_else(|| {
        let msg = format!("{} is not a {} scenario", v.scenario, F::NAME);
        std::io::Error::new(std::io::ErrorKind::InvalidInput, msg)
    })?;
    let stem = format!("{}-{}-seed{:#06x}", F::NAME, slug(v.scenario), v.seed);
    let path = out.join(format!("{stem}.json"));
    std::fs::create_dir_all(out)?;
    std::fs::write(&path, schedule_json(v.scenario, v.seed, spec, &v.plan))?;
    if let Some(exports) = F::traces(scen)
        .then(|| F::run_under(spec, scen, cal, &v.plan, true).ok())
        .flatten()
        .and_then(|run| run.exports)
    {
        if let Err(e) = save_trace(&exports, out, &stem) {
            eprintln!("warning: could not save the {stem} trace: {e}");
        }
    }
    let mut single_run = v.clone();
    let violations = &mut single_run.oracle.violations;
    violations.retain(|x| x.oracle != OracleKind::Determinism);
    let shrunk = (!F::case_ok(scen, &single_run))
        .then(|| shrink_case::<F>(spec, scen, cal, v.seed, &v.plan));
    if let Some(s) = shrunk.as_ref().filter(|s| s.reproduced) {
        let min_json = schedule_json(v.scenario, v.seed, spec, &s.plan);
        std::fs::write(path.with_extension("min.json"), min_json)?;
    }
    Ok(Archive { path, shrunk })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> RunSpec {
        let mut spec = default_chaos_spec();
        spec.ops_per_proc = 8;
        spec
    }

    #[test]
    fn chaos_case_is_deterministic_and_green() {
        let spec = tiny_spec();
        let cal = Calibration::default();
        let a = run_seed::<FaultedFamily>(&spec, FaultedScenario::IorEasyRp2, &cal, 7).unwrap();
        assert!(a.passed(), "seed 7 must be green:\n{}", a.oracle.render());
        let b = run_seed::<FaultedFamily>(&spec, FaultedScenario::IorEasyRp2, &cal, 7).unwrap();
        assert_eq!(a.digest, b.digest, "same seed, same case digest");
        assert_eq!(a.plan.to_json(), b.plan.to_json());
        // different seed, different schedule
        let c = run_seed::<FaultedFamily>(&spec, FaultedScenario::IorEasyRp2, &cal, 8).unwrap();
        assert_ne!(a.plan.to_json(), c.plan.to_json());
    }

    #[test]
    fn engine_case_covers_generic_scenarios() {
        let mut spec = RunSpec::new(2, 1, 2);
        spec.ops_per_proc = 8;
        let cal = Calibration::default();
        let v = run_seed::<EngineFamily>(&spec, Scenario::IorDaos, &cal, 11).unwrap();
        assert!(v.passed(), "{}", v.oracle.render());
        assert!(!v.plan.is_empty(), "engine space must sample something");
        // a failure of the determinism check alone is archived unshrunk:
        // the shrinker's single runs never diverge
        let run = EngineFamily::run_under(&spec, Scenario::IorDaos, &cal, &v.plan, false).unwrap();
        let diverged = judge::<EngineFamily>(Scenario::IorDaos, 11, v.plan, run, Some(!v.digest));
        assert!(!diverged.passed());
        let out = std::env::temp_dir().join(format!("chaos-unit-{}", std::process::id()));
        let archive = archive_case::<EngineFamily>(&diverged, &spec, &cal, &out);
        std::fs::remove_dir_all(&out).expect("removes the archive");
        assert!(archive.expect("archives").shrunk.is_none());
    }

    #[test]
    fn a_serverless_schedule_is_rejected() {
        let serverless = RunSpec::new(0, 1, 2);
        let json = schedule_json("IOR/libdaos", 9, &serverless, &FaultPlan::new());
        let err = parse_schedule(&json).unwrap_err();
        assert_eq!(err, "spec.servers must be at least 1");
    }
}
