//! Stage-3 **cost pass**: hot-path cost analyses over the stage-2 item
//! index and call graph ([`crate::flow`]).
//!
//! ROADMAP item 2 makes the simulator engine the bottleneck gating
//! million-user runs; this pass finds — and then *guards* — the three
//! cost patterns that dominate a discrete-event hot loop, the same way
//! the flow pass guards determinism:
//!
//! * **`hot-alloc`** — a heap allocation (`Vec::new`, `vec!`,
//!   `Box::new`, `format!`, `String::from`, `.clone()`, `.to_vec()`,
//!   `.collect()`) in a function reachable from a registered *hot root*
//!   runs once per simulated event.  Error in the engine crate
//!   (`simkit`), Warn elsewhere.  Amortized setup paths opt out with
//!   the `amortized` marker (see below).
//! * **`double-lookup`** — `contains_key` + `get`/`insert`/`remove`,
//!   or repeated `get`, on the same map and key within one function
//!   body: each access hashes the key again; `entry()` (or keeping the
//!   first `get` result) does the work once.  Body-local, so it runs
//!   even when no hot root is registered.
//! * **`hot-state-scan`** — iteration over a collection field of a
//!   registered `sim_state` type inside a hot-reachable function:
//!   O(all-entries) work per event is exactly the scaling cliff the
//!   engine bench trajectory (`BENCH_engine.json`) watches for.
//!
//! # Registration markers
//!
//! ```text
//! // simlint::hot_root — the engine event loop: every line here runs per event
//! pub fn run_for(&mut self, …) { … }
//!
//! // simlint::amortized — grows a reused buffer; allocation is not per-event
//! fn reserve_lane(&mut self, …) { … }
//! ```
//!
//! `hot_root` seeds the reachability walk.  `amortized` cuts it: the
//! marked function's own allocation sites are exempt and the walk does
//! not continue into its callees — use it for setup/grow paths whose
//! cost is amortized across many events, and give the reason in the
//! marker comment.
//!
//! # Approximations (deliberate)
//!
//! Like stage 2 this is name-based, not type-checked: `.clone()` on an
//! `Rc` or a `Copy` type still counts (it is at worst a refcount bump
//! the hot path does not need), a `get` on two *different* maps bound
//! to the same receiver name in disjoint branches can pair up, and
//! scans are only recognised on `self.<field>` of `sim_state` types.
//! Over-approximation is the safe direction for a perf lint: findings
//! are suppressed, with a written reason, via the same
//! `simlint::allow(rule) — reason` directives as every other rule.

use std::collections::BTreeMap;
use std::path::Path;

use crate::flow::{read_sources, run_passes, Emitter, FlowRule, Graph, Index};
use crate::{Finding, Severity};

/// The crate whose hot-path allocations are errors, not warnings: the
/// engine executes every simulated event, so a per-event allocation
/// there taxes every scenario in the sweep.
const ENGINE_PATH_PREFIX: &str = "crates/simkit/";

/// The stage-3 rule registry.
pub fn cost_rules() -> &'static [FlowRule] {
    &[
        FlowRule {
            id: "hot-alloc",
            severity: Severity::Error,
            summary: "heap allocation reachable from a hot root runs per simulated event (Error in the engine crate, Warn elsewhere); reuse a buffer or mark the path amortized",
        },
        FlowRule {
            id: "double-lookup",
            severity: Severity::Warn,
            summary: "the same map key is hashed twice in one function body (contains_key+get/insert or repeated get); use the entry API or keep the first lookup",
        },
        FlowRule {
            id: "hot-state-scan",
            severity: Severity::Warn,
            summary: "a hot-reachable function scans a sim-state collection: O(all-entries) work per event",
        },
    ]
}

/// BFS over the forward call graph from the hot roots, refusing to step
/// into `amortized`-marked functions.  Returns, per function, the root
/// it was first reached from (`usize::MAX` = not hot).
fn reach_hot(index: &Index, out: &[Vec<usize>], roots: &[usize]) -> Vec<usize> {
    let amortized: Vec<bool> = index
        .fns
        .iter()
        .map(|f| f.markers.contains("amortized"))
        .collect();
    let mut origin = vec![usize::MAX; out.len()];
    let mut queue = std::collections::VecDeque::new();
    for &s in roots {
        if !amortized[s] && origin[s] == usize::MAX {
            origin[s] = s;
            queue.push_back(s);
        }
    }
    while let Some(n) = queue.pop_front() {
        let from = origin[n];
        for &m in &out[n] {
            if origin[m] == usize::MAX && !amortized[m] {
                origin[m] = from;
                queue.push_back(m);
            }
        }
    }
    origin
}

/// Run the three cost analyses over a built index and its call graph.
pub(crate) fn analyze(index: &Index, graph: &Graph, em: &mut Emitter) {
    // ---- hot-alloc + hot-state-scan (reachability-driven) -----------------
    let hot_roots: Vec<usize> = index
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.markers.contains("hot_root"))
        .map(|(i, _)| i)
        .collect();
    if !hot_roots.is_empty() {
        let reached = reach_hot(index, &graph.out, &hot_roots);
        for (i, f) in index.fns.iter().enumerate() {
            if reached[i] == usize::MAX {
                continue;
            }
            let via = &index.fns[reached[i]].qual;
            let severity = if f.file.starts_with(ENGINE_PATH_PREFIX) {
                Severity::Error
            } else {
                Severity::Warn
            };
            // One finding per function (anchored at the first site): the
            // function is the unit a buffer-reuse fix or a function-level
            // allow applies to, so per-site findings would only repeat it.
            if let Some((first_line, _)) = f.allocs.first() {
                let mut kinds: Vec<&str> = f.allocs.iter().map(|(_, k)| k.as_str()).collect();
                kinds.dedup();
                em.emit(
                    "hot-alloc",
                    severity,
                    &f.file,
                    *first_line,
                    Some(f.line),
                    format!(
                        "{} allocation site{} ({}) in `{}` on a path reachable from hot root `{via}`: this runs per simulated event — reuse a scratch buffer, or mark the function `simlint::amortized` with a reason",
                        f.allocs.len(),
                        if f.allocs.len() == 1 { "" } else { "s" },
                        kinds.join(", "),
                        f.qual,
                    ),
                );
            }
            for (line, what) in &f.state_loops {
                em.emit(
                    "hot-state-scan",
                    Severity::Warn,
                    &f.file,
                    *line,
                    Some(f.line),
                    format!(
                        "`{what}` in `{}` scans a sim-state collection on a path reachable from hot root `{via}`: O(all-entries) work per event; keep incremental bookkeeping instead",
                        f.qual,
                    ),
                );
            }
        }
    }

    // ---- double-lookup (body-local) ---------------------------------------
    for f in &index.fns {
        // Group accesses by (receiver, key); one finding per group.
        let mut groups: BTreeMap<(&str, &str), Vec<(&str, u32)>> = BTreeMap::new();
        for (recv, key, method, line) in &f.map_ops {
            groups
                .entry((recv.as_str(), key.as_str()))
                .or_default()
                .push((method.as_str(), *line));
        }
        for ((recv, key), ops) in groups {
            let probe = ops.iter().find(|(m, _)| *m == "contains_key");
            let paired = ops.iter().find(|(m, _)| *m != "contains_key");
            let gets: Vec<u32> = ops
                .iter()
                .filter(|(m, _)| matches!(*m, "get" | "get_mut"))
                .map(|(_, l)| *l)
                .collect();
            if let (Some((_, probe_line)), Some((method, line))) = (probe, paired) {
                let report = (*line).max(*probe_line);
                em.emit(
                    "double-lookup",
                    Severity::Warn,
                    &f.file,
                    report,
                    Some(f.line),
                    format!(
                        "`{recv}` is probed with `contains_key({key})` and accessed again with `{method}` in `{}`: the key is hashed twice — use the entry API (or match on the first lookup)",
                        f.qual,
                    ),
                );
            } else if gets.len() >= 2 && gets.iter().any(|l| *l != gets[0]) {
                em.emit(
                    "double-lookup",
                    Severity::Warn,
                    &f.file,
                    gets[gets.len() - 1],
                    Some(f.line),
                    format!(
                        "`{recv}` is looked up {} times with the same key `{key}` in `{}`: keep the first result instead of re-hashing",
                        gets.len(),
                        f.qual,
                    ),
                );
            }
        }
    }
}

/// Convenience: read sources, build the index and run the cost pass.
pub fn analyze_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    Ok(run_passes(&read_sources(root)?, &[analyze]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn srcs(files: &[(&str, &str)]) -> BTreeMap<String, String> {
        files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        run_passes(&srcs(files), &[analyze])
    }

    #[test]
    fn hot_alloc_flags_reachable_allocation_and_spares_cold_code() {
        let findings = run(&[(
            "crates/simkit/src/lib.rs",
            "// simlint::hot_root — event loop\n\
             pub fn pump() { tick(); }\n\
             fn tick() { let v: Vec<u32> = Vec::new(); drop(v); }\n\
             fn cold() { let v: Vec<u32> = Vec::new(); drop(v); }\n",
        )]);
        let hits: Vec<&Finding> = findings.iter().filter(|f| f.rule == "hot-alloc").collect();
        assert_eq!(hits.len(), 1, "{findings:#?}");
        assert!(hits[0].message.contains("`tick`"), "{:?}", hits[0]);
        assert_eq!(hits[0].severity, Severity::Error);
    }

    #[test]
    fn hot_alloc_warns_outside_engine_crate() {
        let findings = run(&[(
            "crates/other/src/lib.rs",
            "// simlint::hot_root\n\
             pub fn pump() { let s = format!(\"x\"); drop(s); }\n",
        )]);
        let hits: Vec<&Finding> = findings.iter().filter(|f| f.rule == "hot-alloc").collect();
        assert_eq!(hits.len(), 1, "{findings:#?}");
        assert_eq!(hits[0].severity, Severity::Warn);
    }

    #[test]
    fn amortized_marker_cuts_the_walk() {
        let findings = run(&[(
            "crates/simkit/src/lib.rs",
            "// simlint::hot_root\n\
             pub fn pump() { grow(); }\n\
             // simlint::amortized — doubles a reused buffer\n\
             fn grow() { helper(); }\n\
             fn helper() { let v: Vec<u32> = Vec::new(); drop(v); }\n",
        )]);
        assert!(
            findings.iter().all(|f| f.rule != "hot-alloc"),
            "{findings:#?}"
        );
    }

    #[test]
    fn double_lookup_flags_probe_then_access() {
        let findings = run(&[(
            "crates/x/src/lib.rs",
            "use std::collections::BTreeMap;\n\
             pub fn put(m: &mut BTreeMap<u32, u32>, k: u32) {\n\
                 if !m.contains_key(&k) {\n\
                     m.insert(k, 0);\n\
                 }\n\
             }\n",
        )]);
        let hits: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "double-lookup")
            .collect();
        assert_eq!(hits.len(), 1, "{findings:#?}");
        assert!(hits[0].message.contains("entry API"), "{:?}", hits[0]);
    }

    #[test]
    fn double_lookup_ignores_different_keys_and_single_access() {
        let findings = run(&[(
            "crates/x/src/lib.rs",
            "use std::collections::BTreeMap;\n\
             pub fn ok(m: &BTreeMap<u32, u32>, a: u32, b: u32) -> u32 {\n\
                 m.get(&a).copied().unwrap_or(0) + m.get(&b).copied().unwrap_or(0)\n\
             }\n",
        )]);
        assert!(
            findings.iter().all(|f| f.rule != "double-lookup"),
            "{findings:#?}"
        );
    }

    #[test]
    fn repeated_get_on_same_key_is_flagged() {
        let findings = run(&[(
            "crates/x/src/lib.rs",
            "use std::collections::BTreeMap;\n\
             pub fn twice(m: &BTreeMap<u32, u32>, k: u32) -> u32 {\n\
                 let a = m.get(&k).copied().unwrap_or(0);\n\
                 let b = m.get(&k).copied().unwrap_or(1);\n\
                 a + b\n\
             }\n",
        )]);
        let hits: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "double-lookup")
            .collect();
        assert_eq!(hits.len(), 1, "{findings:#?}");
        assert!(hits[0].message.contains("2 times"), "{:?}", hits[0]);
    }

    #[test]
    fn hot_state_scan_flags_reachable_scan_only() {
        let findings = run(&[(
            "crates/simkit/src/lib.rs",
            "// simlint::sim_state\n\
             pub struct Sched { flows: Vec<u32> }\n\
             impl Sched {\n\
                 // simlint::hot_root\n\
                 pub fn pump(&mut self) { self.settle(); }\n\
                 fn settle(&mut self) { for f in self.flows.iter_mut() { *f += 1; } }\n\
                 fn report(&self) { for f in self.flows.iter() { drop(f); } }\n\
             }\n",
        )]);
        let hits: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "hot-state-scan")
            .collect();
        assert_eq!(hits.len(), 1, "{findings:#?}");
        assert!(hits[0].message.contains("`Sched::settle`"), "{:?}", hits[0]);
        assert_eq!(hits[0].severity, Severity::Warn);
    }

    #[test]
    fn for_loop_over_self_field_is_a_scan() {
        let findings = run(&[(
            "crates/simkit/src/lib.rs",
            "// simlint::sim_state\n\
             pub struct Sched { flows: Vec<u32> }\n\
             impl Sched {\n\
                 // simlint::hot_root\n\
                 pub fn pump(&mut self) { for f in &self.flows { drop(f); } }\n\
             }\n",
        )]);
        assert!(
            findings.iter().any(|f| f.rule == "hot-state-scan"),
            "{findings:#?}"
        );
    }

    #[test]
    fn allow_with_reason_suppresses_cost_findings() {
        let findings = run(&[(
            "crates/simkit/src/lib.rs",
            "// simlint::hot_root\n\
             // simlint::allow(hot-alloc) — drained once per fault, not per event\n\
             pub fn pump() { let v: Vec<u32> = Vec::new(); drop(v); }\n",
        )]);
        assert!(
            findings.iter().all(|f| f.rule != "hot-alloc"),
            "{findings:#?}"
        );
    }

    #[test]
    fn no_hot_roots_means_no_reachability_findings() {
        let findings = run(&[(
            "crates/simkit/src/lib.rs",
            "pub fn pump() { let v: Vec<u32> = Vec::new(); drop(v); }\n",
        )]);
        assert!(findings.is_empty(), "{findings:#?}");
    }
}
