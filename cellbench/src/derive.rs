//! Metric derivations shared by the untraced and traced runs.

use difi::prelude::*;
use difi::util::json::{self, Json};

/// Reads a phase gauge (nanoseconds) from a `campaign --metrics-out`
/// document.
///
/// # Errors
///
/// Fails when the document is not JSON or lacks the gauge.
pub fn phase_ns(metrics_doc: &str, gauge: &str) -> Result<u64, String> {
    let doc = json::parse(metrics_doc).map_err(|e| format!("metrics JSON: {e}"))?;
    doc.get("metrics")
        .and_then(|m| m.get("gauges"))
        .and_then(|g| g.get(gauge))
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("metrics JSON lacks gauge {gauge}"))
}

/// One process's set-up seconds: its wall time minus the runner's
/// injection and classify phases, which are the only phases spent on the
/// masks themselves. Everything else — process start, program build, every
/// golden pass, residency, snapshot capture, partition, journal load — is
/// time a user waits before any mask is injected.
///
/// # Errors
///
/// Fails when either gauge is missing from `metrics_doc`.
pub fn setup_s(wall_s: f64, metrics_doc: &str) -> Result<f64, String> {
    let injection = phase_ns(metrics_doc, "phase.injection_ns")?;
    let classify = phase_ns(metrics_doc, "phase.classify_ns")?;
    Ok(wall_s - (injection + classify) as f64 * 1e-9)
}

/// True for a run the campaign runner converted from a host panic.
pub fn is_worker_panic(status: &RunStatus) -> bool {
    matches!(status, RunStatus::SimulatorCrash(m) if m.starts_with("worker panic:"))
}

/// Failed masks of one process. A mask fails when its process exits
/// non-zero (then every mask fails), when no run of the log carries it, or
/// when its run is a worker panic. Nothing is dropped: every mask is
/// either failed or accounted for by a run of its own.
pub fn failed_masks(exit_ok: bool, masks: &[InjectionSpec], runs: &[RunLog]) -> u64 {
    if !exit_ok {
        return masks.len() as u64;
    }
    let by_id: std::collections::HashMap<u64, &RunLog> =
        runs.iter().map(|r| (r.spec.id, r)).collect();
    masks
        .iter()
        .filter(|m| match by_id.get(&m.id) {
            Some(run) => run.spec != **m || is_worker_panic(&run.result.status),
            None => true,
        })
        .count() as u64
}

/// `failed / attempted`, 0 when nothing was attempted.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    crate::stats::ratio(failed as f64, attempted as f64)
}

/// Per-run outcome classes of a log, in run order.
pub fn classes(log: &CampaignLog) -> Vec<Outcome> {
    let c = Classifier::from_golden(&log.golden);
    log.runs.iter().map(|r| c.classify(&r.result)).collect()
}

/// Class counts in [`Outcome::ALL`] order.
pub fn class_counts(log: &CampaignLog) -> [u64; 6] {
    let mut counts = [0u64; 6];
    for class in classes(log) {
        if let Some(k) = Outcome::ALL.iter().position(|&o| o == class) {
            counts[k] += 1;
        }
    }
    counts
}
