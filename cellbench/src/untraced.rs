//! The end-to-end run: the real `campaign` binary, one child at a time.

use crate::adapter;
use crate::check;
use crate::derive;
use crate::host;
use crate::report::Report;
use crate::rusage::{self, kb_to_mb};
use crate::stats::{median, Summary};
use crate::workloads::{campaign_seed, Process, Workload, BENCH, CHECKPOINTS, SETUPS};
use difi::prelude::*;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Work files of the current process, under the work directory.
const OUT: &str = "out.jsonl";
const METRICS: &str = "metrics.json";
const JOURNAL: &str = "journal.jsonl";

/// The `campaign` command line of one process of `w`.
fn campaign_args(
    w: &Workload,
    injector: &str,
    seed: u64,
    process: Process,
    work: &Path,
) -> Vec<String> {
    let path = |name: &str| work.join(name).display().to_string();
    let mut args: Vec<String> = vec![
        "--injector".into(),
        injector.into(),
        "--bench".into(),
        BENCH.name().into(),
        "--structure".into(),
        w.structure.into(),
        "--injections".into(),
        w.masks.to_string(),
        "--seed".into(),
        seed.to_string(),
        "--metrics-out".into(),
        path(METRICS),
        "--out".into(),
        path(OUT),
    ];
    if w.collapse {
        args.push("--collapse".into());
    }
    args.extend(["--checkpoints".into(), CHECKPOINTS.to_string()]);
    match process {
        Process::Plain => {}
        Process::Journal => args.extend(["--journal".into(), path(JOURNAL)]),
        Process::Resume => args.extend(["--resume".into(), path(JOURNAL)]),
    }
    args
}

/// Reads one quantity of a [`Sample`].
type Field = fn(&Sample) -> f64;

/// One reaped `campaign` process.
#[derive(Debug, Clone, Copy)]
struct Sample {
    wall_s: f64,
    setup_s: f64,
    cpu_s: f64,
    rss_kb: u64,
    /// [`host::scale`] of the probes around the process.
    scale: f64,
}

/// Runs rounds of `w` — every process of the workload once per round —
/// until `seconds` have passed, checking every log. Each time is rescaled
/// to the reference host by the probes around its process
/// ([`host::scale`]). Each end-to-end metric takes, for every process of
/// the round, the median over rounds, and sums those medians over the
/// round (the peak RSS takes their maximum).
/// A slow spell then costs only the samples it overlaps, not a whole
/// round.
///
/// # Errors
///
/// Fails when a child cannot be spawned or reaped, or the work directory
/// cannot be written.
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    campaign: &Path,
    work: &Path,
) -> Result<Report, String> {
    let structure = StructureId::from_name(w.structure).ok_or("unknown structure")?;
    let (out, metrics, journal) = (work.join(OUT), work.join(METRICS), work.join(JOURNAL));
    let mut report = Report::default();
    let mut rounds: Vec<Vec<(usize, Sample)>> = Vec::new();
    let mut cells = Vec::new();
    let start = Instant::now();
    let mut probe = host::probe();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let mut round = Vec::new();
        let mut positions = 0;
        for (si, setup) in SETUPS.iter().enumerate() {
            let k = rounds.len() as u64;
            let cseed = campaign_seed(seed, k);
            let mut journaled: Option<CampaignLog> = None;
            for &process in w.processes {
                let position = positions;
                positions += 1;
                if process == Process::Journal {
                    let _ = std::fs::remove_file(&journal);
                }
                for f in [&out, &metrics] {
                    let _ = std::fs::remove_file(f);
                }

                let args = campaign_args(w, setup.injector, cseed, process, work);
                let t0 = Instant::now();
                let child = Command::new(campaign)
                    .args(&args)
                    .stdout(Stdio::null())
                    .spawn()
                    .map_err(|e| format!("spawn {}: {e}", campaign.display()))?;
                let usage = rusage::wait_child(&child).map_err(|e| format!("wait4: {e}"))?;
                let wall_s = t0.elapsed().as_secs_f64();
                let before = std::mem::replace(&mut probe, host::probe());
                let scale = host::scale(before, probe);
                report.attempted += w.masks;

                let cell = format!("{}/{} seed {cseed} {process:?}", w.name, setup.injector);
                if !usage.succeeded() {
                    report.failed += w.masks;
                    report
                        .problems
                        .push(format!("{cell}: exited with {:?}", usage.exit_code));
                    continue;
                }
                let doc = std::fs::read_to_string(&metrics).map_err(|e| e.to_string())?;
                let setup_s = derive::setup_s(wall_s, &doc)?;
                let log = CampaignLog::load(&out).map_err(|e| format!("{cell}: {e}"))?;
                let golden_cycles = log.golden.cycles.unwrap_or(setup.golden_cycles);
                let masks = adapter::masks_for(
                    adapter::dispatcher(setup).as_ref(),
                    structure,
                    cseed,
                    golden_cycles,
                    w.masks,
                )?;
                report.failed += derive::failed_masks(true, &masks, &log.runs);
                report
                    .problems
                    .extend(check::check_log(w, si, seed, k, &masks, &log));
                if rounds.is_empty() {
                    cells.push(format!(
                        "{cell}: golden {golden_cycles} cycles, classes {:?}",
                        derive::class_counts(&log)
                    ));
                }
                match &journaled {
                    Some(j) => report.problems.extend(check::check_resume(w, si, j, &log)),
                    None if process == Process::Journal => journaled = Some(log),
                    None => {}
                }
                round.push((
                    position,
                    Sample {
                        wall_s,
                        setup_s,
                        cpu_s: usage.cpu_s(),
                        rss_kb: usage.max_rss_kb,
                        scale,
                    },
                ));
            }
        }
        rounds.push(round);
    }

    // Position in the round → that process's samples over rounds.
    let mut by_position: std::collections::BTreeMap<usize, Vec<Sample>> = Default::default();
    for &(p, sample) in rounds.iter().flatten() {
        by_position.entry(p).or_default().push(sample);
    }
    let medians = |f: Field| -> Vec<f64> {
        by_position
            .values()
            .map(|v| median(&v.iter().map(f).collect::<Vec<_>>()))
            .collect()
    };
    let per_round = |f: Field| -> Vec<f64> {
        rounds
            .iter()
            .map(|r| r.iter().map(|(_, s)| f(s)).sum())
            .collect()
    };
    let rss_mb = |s: &Sample| kb_to_mb(s.rss_kb);
    report.lines.push(format!(
        "workload {} (seed {seed}): {} rounds of {} processes in {:.1} s; each metric \
         combines the {} per-process medians over rounds",
        w.name,
        rounds.len(),
        w.processes_per_round(),
        start.elapsed().as_secs_f64(),
        by_position.len()
    ));
    let sums: [(&str, Field, Field); 3] = [
        ("campaign_s", |s| s.wall_s * s.scale, |s| s.wall_s),
        ("setup_s", |s| s.setup_s * s.scale, |s| s.setup_s),
        ("cpu_s", |s| s.cpu_s * s.scale, |s| s.cpu_s),
    ];
    for (name, scaled, raw) in sums {
        let value: f64 = medians(scaled).iter().sum();
        report.metric(name, "s", value);
        report.lines.push(format!(
            "{name:<12} {value:.4} s (sum, rescaled; {:.4} s as measured); per round {}",
            medians(raw).iter().sum::<f64>(),
            Summary::of(&per_round(scaled)).describe("s")
        ));
    }
    let scales: Vec<f64> = rounds.iter().flatten().map(|(_, s)| s.scale).collect();
    report.lines.push(format!(
        "{:<12} {} (probe {} s at scale 1)",
        "host scale",
        Summary::of(&scales).describe("x"),
        host::PROBE_NOMINAL_S
    ));
    let peak = medians(rss_mb).into_iter().fold(0.0, f64::max);
    report.metric("peak_rss_mb", "MB", peak);
    report
        .lines
        .push(format!("{:<12} {peak:.4} MB (max)", "peak_rss_mb"));
    let procs: Vec<f64> = rounds.iter().flatten().map(|(_, s)| s.wall_s).collect();
    report.lines.push(format!(
        "{:<12} {}",
        "process",
        Summary::of(&procs).describe("s")
    ));
    report.lines.push(format!(
        "failed_share {:.4} ({} of {} masks failed)",
        derive::failed_share(report.failed, report.attempted),
        report.failed,
        report.attempted
    ));
    report.lines.extend(cells);
    Ok(report)
}
