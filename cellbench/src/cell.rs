//! One `campaign` process replicated in-process, call for call, so the
//! traced run can time each layer of the same work the binary does.

use crate::adapter::{self, Kind, TimedSink, Tracer};
use crate::workloads::{Process, Workload, BENCH, CHECKPOINTS};
use difi::prelude::*;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The `campaign` binary's golden cycle ceiling.
pub const GOLDEN_MAX_CYCLES: u64 = 200_000_000;

/// What one replicated process produced.
#[derive(Debug)]
pub struct CellRun {
    /// The campaign log (what `--out` would save).
    pub log: CampaignLog,
    /// The masks the process drew.
    pub masks: Vec<InjectionSpec>,
    /// Wall seconds of the whole process body.
    pub wall_s: f64,
    /// The runner's phase gauges: golden, snapshots, injection, classify.
    pub phase_ns: [u64; 4],
}

/// The phase gauges the runner stamps, in [`CellRun::phase_ns`] order.
pub const PHASES: [&str; 4] = [
    "phase.golden_ns",
    "phase.snapshots_ns",
    "phase.injection_ns",
    "phase.classify_ns",
];

/// Replicates one `campaign` process of `w` on `d`. With a tracer, the
/// direct calls (build, partition) are timed and the journal sink is
/// wrapped; `d` is then expected to be an [`adapter::Traced`] over the
/// same tracer.
///
/// # Errors
///
/// Fails on journal I/O, a rejected resume, or an uninjectable structure.
pub fn run_process(
    d: &dyn InjectorDispatcher,
    tracer: Option<&Tracer>,
    w: &Workload,
    seed: u64,
    process: Process,
    journal: &Path,
) -> Result<CellRun, String> {
    let t0 = Instant::now();
    let structure = StructureId::from_name(w.structure).ok_or("unknown structure")?;

    let program =
        timed(tracer, Kind::Build, || build(BENCH, adapter::isa(d))).map_err(|e| e.to_string())?;
    let golden = golden_run(d, &program, GOLDEN_MAX_CYCLES);
    let masks = adapter::masks_for(d, structure, seed, golden.cycles_measured(), w.masks)?;

    let profile = if w.collapse {
        let log = adapter::residency_log(d, &program, structure, GOLDEN_MAX_CYCLES);
        // AceProfile::new plus the partition the binary derives for its
        // collapse summary, timed together as the ACE layer.
        timed(tracer, Kind::Partition, || {
            let profile = log.and_then(AceProfile::new);
            if let Some(p) = &profile {
                std::hint::black_box(partition_equivalence(&masks, p));
            }
            profile
        })
    } else {
        None
    };

    let cfg = CampaignConfig {
        threads: 0,
        early_stop: true,
        golden_max_cycles: GOLDEN_MAX_CYCLES,
    };
    let registry = Arc::new(MetricsRegistry::new());
    let runner =
        CampaignRunner::new(d, &program, structure, seed, &cfg).with_metrics(Arc::clone(&registry));
    let runner = match &profile {
        Some(profile) => runner.with_strategy(Strategy::Collapsed {
            profile,
            checkpoints: CHECKPOINTS,
        }),
        None => runner.with_strategy(Strategy::Checkpointed {
            checkpoints: CHECKPOINTS,
        }),
    };

    let log = match process {
        Process::Plain => runner.run(&masks),
        Process::Journal => {
            let sink = JournalSink::create(journal).map_err(|e| e.to_string())?;
            let log = match tracer {
                Some(t) => runner.run_with_sinks(&masks, &[&TimedSink::new(&sink, t)]),
                None => runner.run_with_sinks(&masks, &[&sink]),
            };
            sink.finish().map_err(|e| e.to_string())?;
            log
        }
        Process::Resume => runner
            .resume(&masks, journal, &[])
            .map_err(|e| e.to_string())?,
    };
    let phase_ns = PHASES.map(|g| registry.value(g).unwrap_or(0));
    Ok(CellRun {
        log,
        masks,
        wall_s: t0.elapsed().as_secs_f64(),
        phase_ns,
    })
}

fn timed<T>(tracer: Option<&Tracer>, kind: Kind, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.time(kind, f),
        None => f(),
    }
}
