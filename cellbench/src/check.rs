//! Correctness checks on each cell's campaign log.

use crate::derive;
use crate::workloads::{Workload, BENCH, DEFAULT_SEED, SETUPS};
use difi::prelude::*;

/// Checks one process's log against the masks it was given: golden output
/// and cycles, every mask classified exactly once, and — for the default
/// workload seed — the class counts recorded for round `k`, if any. Returns one
/// line per problem.
pub fn check_log(
    w: &Workload,
    setup: usize,
    seed: u64,
    k: u64,
    masks: &[InjectionSpec],
    log: &CampaignLog,
) -> Vec<String> {
    let cell = format!("{}/{} round {k}", w.name, SETUPS[setup].injector);
    let mut problems = Vec::new();
    if log.golden.output != reference_output(BENCH) {
        problems.push(format!("{cell}: golden output differs from the reference"));
    }
    if log.golden.cycles != Some(SETUPS[setup].golden_cycles) {
        problems.push(format!(
            "{cell}: golden cycles {:?}, recorded {}",
            log.golden.cycles, SETUPS[setup].golden_cycles
        ));
    }
    let mut seen = std::collections::HashMap::new();
    for run in &log.runs {
        *seen.entry(run.spec.id).or_insert(0u32) += 1;
    }
    let once = masks.iter().filter(|m| seen.get(&m.id) == Some(&1)).count();
    if log.runs.len() != masks.len() || once != masks.len() {
        problems.push(format!(
            "{cell}: {} runs for {} masks, {once} classified exactly once",
            log.runs.len(),
            masks.len()
        ));
    }
    let recorded = w.expected.get(k as usize).map(|e| e[setup]);
    if let (DEFAULT_SEED, Some(recorded)) = (seed, recorded) {
        if derive::class_counts(log) != recorded {
            problems.push(format!(
                "{cell}: class counts {:?}, recorded {recorded:?}",
                derive::class_counts(log)
            ));
        }
    }
    problems
}

/// Checks that a resumed campaign classified every mask as the journaled
/// one did.
pub fn check_resume(
    w: &Workload,
    setup: usize,
    journaled: &CampaignLog,
    resumed: &CampaignLog,
) -> Vec<String> {
    if derive::classes(journaled) == derive::classes(resumed) {
        Vec::new()
    } else {
        vec![format!(
            "{}/{}: resumed classification differs from the journaled one",
            w.name, SETUPS[setup].injector
        )]
    }
}
