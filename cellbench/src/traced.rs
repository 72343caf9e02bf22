//! The per-layer run: every `campaign` process replicated in-process, once
//! through the span-recording adapter and once without it, plus direct
//! calls timing what no span isolates (partition, journal load, restore).

use crate::adapter::{self, Kind, Span, Traced, Tracer};
use crate::cell::{self, CellRun};
use crate::check;
use crate::derive;
use crate::report::Report;
use crate::stats::{beyond, median, pct, percentile, ratio, Summary};
use crate::workloads::{Process, Workload, BENCH, CHECKPOINTS, SETUPS};
use difi::prelude::*;
use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Restores timed per setup by the restore probe.
const RESTORES: usize = 20;

/// What the rounds measured besides the spans.
#[derive(Default)]
struct Rounds {
    /// Per round: traced wall seconds per setup.
    traced: Vec<[f64; 3]>,
    /// Per round: untraced wall seconds, all setups.
    untraced: Vec<f64>,
    /// Per round: the runner's phase gauges summed over the round's cells.
    phases: Vec<[u64; 4]>,
    /// Per traced cell: (cell injection ns, masks).
    cells: Vec<(u64, u64)>,
    /// Journal bytes written, all rounds.
    journal_bytes: u64,
}

/// Runs traced and untraced rounds of `w` alternately until `seconds`
/// have passed, then reports the per-layer metrics and writes the spans to
/// `work/spans.jsonl`. Every round repeats the untraced run's round 0 (the
/// workload seed itself), so the per-round counts — `uarch.sim_cycles`,
/// `dispatch.{cold,warm}_runs`, `journal.bytes` — are exact and repeat
/// from run to run.
///
/// # Errors
///
/// Fails when a replicated process fails or the span file cannot be
/// written.
pub fn run(w: &Workload, seed: u64, seconds: f64, work: &Path) -> Result<Report, String> {
    let tracer = Tracer::new();
    let dispatchers: Vec<_> = SETUPS.iter().map(adapter::dispatcher).collect();
    let journal = work.join("journal.jsonl");
    let mut report = Report::default();
    let mut rounds = Rounds::default();
    let start = Instant::now();
    while rounds.untraced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        // Alternate which side runs first, so drift hits both alike.
        let traced_first = rounds.untraced.len() % 2 == 0;
        let mut traced = [0.0; 3];
        let mut untraced = 0.0;
        let mut phases = [0u64; 4];
        for traced_pass in [traced_first, !traced_first] {
            for (si, d) in dispatchers.iter().enumerate() {
                let wrapped = Traced::new(d.as_ref(), &tracer);
                let mut journaled: Option<CellRun> = None;
                for &process in w.processes {
                    let run = if traced_pass {
                        tracer.scope(Kind::Cell, si, || {
                            cell::run_process(&wrapped, Some(&tracer), w, seed, process, &journal)
                        })?
                    } else {
                        cell::run_process(d.as_ref(), None, w, seed, process, &journal)?
                    };
                    report.attempted += w.masks;
                    report.failed += derive::failed_masks(true, &run.masks, &run.log.runs);
                    report
                        .problems
                        .extend(check::check_log(w, si, seed, 0, &run.masks, &run.log));
                    if let Some(j) = &journaled {
                        report
                            .problems
                            .extend(check::check_resume(w, si, &j.log, &run.log));
                    }
                    if !traced_pass {
                        untraced += run.wall_s;
                    } else {
                        traced[si] += run.wall_s;
                        for (sum, ns) in phases.iter_mut().zip(run.phase_ns) {
                            *sum += ns;
                        }
                        rounds.cells.push((run.phase_ns[2], w.masks));
                        if process == Process::Journal {
                            rounds.journal_bytes +=
                                std::fs::metadata(&journal).map_or(0, |m| m.len());
                            tracer
                                .scope(Kind::Probe, si, || {
                                    tracer.time(Kind::JournalLoad, || load_journal(&journal))
                                })
                                .map_err(|e| e.to_string())?;
                        }
                    }
                    if process == Process::Journal {
                        journaled = Some(run);
                    }
                }
            }
        }
        rounds.traced.push(traced);
        rounds.untraced.push(untraced);
        rounds.phases.push(phases);
    }
    for (si, d) in dispatchers.iter().enumerate() {
        let wrapped = Traced::new(d.as_ref(), &tracer);
        let program = build(BENCH, adapter::isa(d.as_ref())).map_err(|e| e.to_string())?;
        tracer.scope(Kind::Probe, si, || {
            adapter::restore_probe(
                &wrapped,
                &program,
                SETUPS[si].golden_cycles,
                CHECKPOINTS,
                RESTORES,
            );
        });
    }

    let spans = tracer.spans();
    write_spans(&spans, &work.join("spans.jsonl"))?;
    aggregate(&mut report, &spans, &rounds);
    report.lines.insert(
        0,
        format!(
            "workload {} (seed {seed}), traced: {} rounds, {} spans in {:.1} s",
            w.name,
            rounds.untraced.len(),
            spans.len(),
            start.elapsed().as_secs_f64()
        ),
    );
    Ok(report)
}

fn write_spans(spans: &[Span], path: &Path) -> Result<(), String> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path).map_err(|e| e.to_string())?);
    for s in spans {
        writeln!(f, "{}", s.to_json()).map_err(|e| e.to_string())?;
    }
    f.flush().map_err(|e| e.to_string())
}

fn ms(ns: u64) -> f64 {
    ns as f64 * 1e-6
}

/// Derives every per-layer metric from the spans and round totals.
fn aggregate(report: &mut Report, spans: &[Span], rounds: &Rounds) {
    let n_rounds = rounds.untraced.len() as f64;
    let cells: HashSet<u64> = spans
        .iter()
        .filter(|s| s.kind == Kind::Cell)
        .map(|s| s.id)
        .collect();
    let in_cells = |kind: Kind| -> Vec<&Span> {
        spans
            .iter()
            .filter(|s| s.kind == kind && cells.contains(&s.parent))
            .collect()
    };
    let in_probes = |kind: Kind| -> Vec<&Span> {
        spans
            .iter()
            .filter(|s| s.kind == kind && !cells.contains(&s.parent))
            .collect()
    };
    let durations_ms = |v: &[&Span]| -> Vec<f64> { v.iter().map(|s| ms(s.ns())).collect() };

    for (si, setup) in SETUPS.iter().enumerate() {
        let xs: Vec<f64> = rounds.traced.iter().map(|r| r[si]).collect();
        timing(report, &format!("cell_s.{}", setup.key), "s", xs, None);
    }
    timing(
        report,
        "workloads.build_ms",
        "ms",
        durations_ms(&in_cells(Kind::Build)),
        None,
    );

    // Golden passes per cell, and capture against the same cell's golden.
    let mut per_cell: HashMap<u64, (u64, Option<u64>, Option<u64>)> = HashMap::new();
    for s in spans.iter().filter(|s| cells.contains(&s.parent)) {
        let e = per_cell.entry(s.parent).or_default();
        if s.kind.is_golden_pass() {
            e.0 += 1;
        }
        match s.kind {
            Kind::Golden => e.1 = e.1.or(Some(s.ns())),
            Kind::Capture => e.2 = e.2.or(Some(s.ns())),
            _ => {}
        }
    }
    for &id in &cells {
        per_cell.entry(id).or_default();
    }
    let passes: Vec<f64> = per_cell.values().map(|c| c.0 as f64).collect();
    report.metric("dispatch.golden_passes", "count", median(&passes));
    report.lines.push(format!(
        "{:<34} {}",
        "dispatch.golden_passes",
        Summary::of(&passes).describe("per cell")
    ));
    let golden = in_cells(Kind::Golden);
    timing(
        report,
        "dispatch.golden_ms",
        "ms",
        durations_ms(&golden),
        None,
    );
    timing(
        report,
        "dispatch.residency_ms",
        "ms",
        durations_ms(&in_cells(Kind::Residency)),
        None,
    );
    let captures = in_cells(Kind::Capture);
    timing(
        report,
        "dispatch.capture_ms",
        "ms",
        durations_ms(&captures),
        None,
    );
    let overhead: Vec<f64> = per_cell
        .values()
        .filter_map(|&(_, g, c)| Some(ms(c?) - ms(g?)))
        .collect();
    timing(report, "dispatch.capture_overhead_ms", "ms", overhead, None);
    let snaps: Vec<f64> = captures.iter().map(|s| s.snapshots as f64).collect();
    report.metric("dispatch.snapshots", "count", median(&snaps));
    timing(
        report,
        "dispatch.restore_ms",
        "ms",
        durations_ms(&in_probes(Kind::Warm)),
        None,
    );

    let cold = in_cells(Kind::Cold);
    let warm = in_cells(Kind::Warm);
    report.metric("dispatch.cold_runs", "count", cold.len() as f64 / n_rounds);
    timing(
        report,
        "dispatch.cold_ms_p50",
        "ms",
        durations_ms(&cold),
        None,
    );
    timing(
        report,
        "dispatch.cold_ms_p99",
        "ms",
        durations_ms(&cold),
        Some(0.99),
    );
    let early = cold.iter().filter(|s| s.early_stop).count();
    report.metric(
        "dispatch.early_stop_share",
        "ratio",
        ratio(early as f64, cold.len() as f64),
    );
    report.metric("dispatch.warm_runs", "count", warm.len() as f64 / n_rounds);
    timing(
        report,
        "dispatch.warm_ms_p50",
        "ms",
        durations_ms(&warm),
        None,
    );
    timing(
        report,
        "dispatch.warm_ms_p99",
        "ms",
        durations_ms(&warm),
        Some(0.99),
    );

    for (si, setup) in SETUPS.iter().enumerate() {
        let xs: Vec<f64> = golden
            .iter()
            .filter(|s| s.setup == si && s.ns() > 0)
            .map(|s| s.cycles as f64 * 1e3 / s.ns() as f64)
            .collect();
        timing(
            report,
            &format!("uarch.golden_mcyc_per_s.{}", setup.key),
            "Mcyc/s",
            xs,
            None,
        );
    }
    let dispatched: Vec<&Span> = cold.iter().chain(&warm).copied().collect();
    let dispatch_ns: u64 = dispatched.iter().map(|s| s.ns()).sum();
    let dispatch_cycles: u64 = dispatched.iter().map(|s| s.cycles).sum();
    report.metric(
        "uarch.dispatch_ns_per_cycle",
        "ns",
        ratio(dispatch_ns as f64, dispatch_cycles as f64),
    );
    let sim_cycles: u64 = spans
        .iter()
        .filter(|s| cells.contains(&s.parent))
        .map(|s| s.cycles)
        .sum();
    report.metric("uarch.sim_cycles", "count", sim_cycles as f64 / n_rounds);

    timing(
        report,
        "ace.partition_ms",
        "ms",
        durations_ms(&in_cells(Kind::Partition)),
        None,
    );
    let masks: u64 = rounds.cells.iter().map(|c| c.1).sum();
    report.metric(
        "ace.dispatch_share",
        "ratio",
        ratio(dispatched.len() as f64, masks as f64),
    );

    for (k, name) in ["golden", "snapshots", "injection"].iter().enumerate() {
        let xs: Vec<f64> = rounds.phases.iter().map(|p| ms(p[k])).collect();
        timing(report, &format!("campaign.phase_{name}_ms"), "ms", xs, None);
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let injection_ns: u64 = rounds.cells.iter().map(|c| c.0).sum();
    report.metric(
        "campaign.worker_busy_share",
        "ratio",
        ratio(dispatch_ns as f64, (injection_ns * workers) as f64),
    );

    let sink: Vec<f64> = in_cells(Kind::SinkRun)
        .iter()
        .map(|s| s.ns() as f64 * 1e-3)
        .collect();
    timing(
        report,
        "sink.journal_on_run_us_p50",
        "us",
        sink.clone(),
        None,
    );
    timing(report, "sink.journal_on_run_us_p99", "us", sink, Some(0.99));
    report.metric("journal.bytes", "B", rounds.journal_bytes as f64 / n_rounds);
    timing(
        report,
        "journal.load_ms",
        "ms",
        durations_ms(&in_probes(Kind::JournalLoad)),
        None,
    );

    let traced: Vec<f64> = rounds.traced.iter().map(|r| r.iter().sum()).collect();
    let (t, u) = (median(&traced), median(&rounds.untraced));
    timing(report, "trace.campaign_s", "s", traced, None);
    timing(
        report,
        "trace.untraced_campaign_s",
        "s",
        rounds.untraced.clone(),
        None,
    );
    let overhead = ratio(t, u) - 1.0;
    report.metric("trace.overhead_share", "ratio", overhead);
    report.lines.push(format!(
        "{:<34} {overhead:+.4} (traced vs untraced campaign_s, medians)",
        "trace.overhead_share"
    ));
}

/// Reports the median of `xs` (or its `q` percentile) as `name`, with a
/// human-readable line that gives the sample count.
fn timing(report: &mut Report, name: &str, unit: &'static str, xs: Vec<f64>, q: Option<f64>) {
    let (v, line) = match q {
        None => (median(&xs), Summary::of(&xs).describe(unit)),
        Some(q) => {
            let v = percentile(&xs, q);
            let line = format!(
                "p{} {v:.4} {unit} (n={}, {} beyond)",
                pct(q),
                xs.len(),
                beyond(xs.len(), q)
            );
            (v, line)
        }
    };
    report.lines.push(format!("{name:<34} {line}"));
    report.metric(name, unit, v);
}
