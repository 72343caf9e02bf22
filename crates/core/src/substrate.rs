//! The simulator-backed injector dispatcher, implemented once.
//!
//! Both injectors of the paper are *configurations*, not codebases: MaFIN
//! and GeFIN differ in their Table-II core parameters and policy bits, while
//! the mask→engine translation and the run loop are identical. A backend
//! therefore only names its [`CoreSpec`] through [`CoreBacked`]; the one
//! [`InjectorDispatcher`] implementation here serves every trait method
//! from three private shapes — a run (cold or restored, with the
//! observation the method asks for), a snapshot capture, and a residency
//! pass. Keeping that code here keeps the dependency graph honest:
//! `difi-mars` and `difi-gem` both depend on `difi-core`, and neither
//! depends on the other.

use crate::dispatch::{GoldenSnapshot, InjectorDispatcher};
use crate::model::{
    EarlyStop, FaultDuration, InjectTime, InjectionSpec, RawRunResult, RunLimits, RunStatus,
    ScenarioKind,
};
use difi_isa::program::{Isa, Program};
use difi_obs::trace::{FaultTrace, TraceEvent, TraceEventKind};
use difi_uarch::fault::{StructureDesc, StructureId};
use difi_uarch::pipeline::engine::{
    EarlyWhy, EngineFault, EngineLimits, EngineScenario, ScenarioTrigger,
};
use difi_uarch::pipeline::{CoreConfig, OoOCore, SimExit, SimRun};
use difi_uarch::residency::ResidencyLog;
use difi_uarch::ProfileCounters;
use std::sync::Arc;

/// Everything that distinguishes one simulator-backed injector from
/// another: its name, the ISA it simulates, and its core configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreSpec {
    /// Human-readable injector name (`"MaFIN-x86"`, `"GeFIN-ARM"`, …).
    pub name: &'static str,
    /// The ISA this injector simulates.
    pub isa: Isa,
    /// The `OoOCore` configuration every run boots.
    pub cfg: CoreConfig,
}

/// An injector that is one [`CoreSpec`] over the shared `OoOCore` engine.
/// Implementing it yields the full [`InjectorDispatcher`] — cold and warm
/// runs, snapshot capture, residency tracing, signature recording, fault
/// tracing and profiling.
pub trait CoreBacked: Sync {
    /// The injector's name, ISA and core configuration.
    fn core_spec(&self) -> &CoreSpec;
}

impl<T: CoreBacked> InjectorDispatcher for T {
    fn name(&self) -> &str {
        self.core_spec().name
    }

    fn isa(&self) -> Isa {
        self.core_spec().isa
    }

    fn structures(&self) -> Vec<StructureDesc> {
        OoOCore::structures(&self.core_spec().cfg)
    }

    fn run(&self, program: &Program, spec: &InjectionSpec, limits: &RunLimits) -> RawRunResult {
        let core = start(self.core_spec(), program, None);
        simulate(core, spec, limits, Observe::Nothing).0
    }

    fn golden_residency(
        &self,
        program: &Program,
        structures: &[StructureId],
        max_cycles: u64,
    ) -> Vec<ResidencyLog> {
        residency(
            start(self.core_spec(), program, None),
            structures,
            max_cycles,
        )
    }

    fn golden_snapshots(
        &self,
        program: &Program,
        at_cycles: &[u64],
        limits: &RunLimits,
    ) -> Option<Vec<GoldenSnapshot>> {
        let core = start(self.core_spec(), program, None);
        Some(capture(core, at_cycles, limits, false))
    }

    fn run_from(
        &self,
        snap: &GoldenSnapshot,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> RawRunResult {
        let core = start(self.core_spec(), program, Some(snap));
        simulate(core, spec, limits, Observe::Nothing).0
    }

    fn golden_run_recording(
        &self,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> (RawRunResult, Option<Arc<Vec<u64>>>) {
        let core = start(self.core_spec(), program, None);
        let (result, seen) = simulate(core, spec, limits, Observe::Signature);
        (result, seen.signature)
    }

    fn run_traced(
        &self,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
        golden_sig: Option<&Arc<Vec<u64>>>,
    ) -> (RawRunResult, Option<FaultTrace>) {
        let core = start(self.core_spec(), program, None);
        let (result, seen) = simulate(core, spec, limits, Observe::Trace(golden_sig));
        (result, seen.trace)
    }

    fn run_from_traced(
        &self,
        snap: &GoldenSnapshot,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
        golden_sig: Option<&Arc<Vec<u64>>>,
    ) -> (RawRunResult, Option<FaultTrace>) {
        let core = start(self.core_spec(), program, Some(snap));
        let (result, seen) = simulate(core, spec, limits, Observe::Trace(golden_sig));
        (result, seen.trace)
    }

    fn run_profiled(
        &self,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> (RawRunResult, Option<ProfileCounters>) {
        let core = start(self.core_spec(), program, None);
        let (result, seen) = simulate(core, spec, limits, Observe::Profile);
        (result, seen.profile)
    }

    fn run_from_profiled(
        &self,
        snap: &GoldenSnapshot,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> (RawRunResult, Option<ProfileCounters>) {
        let core = start(self.core_spec(), program, Some(snap));
        let (result, seen) = simulate(core, spec, limits, Observe::Profile);
        (result, seen.profile)
    }

    fn golden_snapshots_profiled(
        &self,
        program: &Program,
        at_cycles: &[u64],
        limits: &RunLimits,
    ) -> Option<Vec<GoldenSnapshot>> {
        let core = start(self.core_spec(), program, None);
        Some(capture(core, at_cycles, limits, true))
    }
}

/// The core one run starts from: a clone of `snap`'s paused golden core
/// when it was captured under this configuration, otherwise a freshly
/// booted one. A foreign snapshot — another engine's state, or an `OoOCore`
/// of another configuration — thus falls back to the always-correct cold
/// path.
fn start(core: &CoreSpec, program: &Program, snap: Option<&GoldenSnapshot>) -> OoOCore {
    assert_eq!(
        program.isa, core.isa,
        "{} simulates {} programs",
        core.name, core.isa
    );
    match snap.and_then(|s| s.state.downcast_ref::<OoOCore>()) {
        Some(paused) if *paused.config() == core.cfg => paused.clone(),
        _ => OoOCore::new(core.cfg, program),
    }
}

/// What one run observes besides its result.
#[derive(Clone, Copy)]
enum Observe<'a> {
    Nothing,
    /// Record the per-commit architectural signature (golden runs).
    Signature,
    /// Trace the fault lifecycle against the golden signature.
    Trace(Option<&'a Arc<Vec<u64>>>),
    /// Run the stall/occupancy profiler.
    Profile,
}

/// The observations one run returned; only the requested one is `Some`.
#[derive(Default)]
struct Observed {
    signature: Option<Arc<Vec<u64>>>,
    trace: Option<FaultTrace>,
    profile: Option<ProfileCounters>,
}

/// Arms the mask's faults on a booted or restored `core` and simulates it
/// to a terminal state. Every observation only reads pipeline state, so the
/// result is byte-identical whatever `observe` asks for. A restored core
/// from a profiled snapshot already carries its prefix counters (enabling
/// here only raises the gate), so its final counters equal a cold profiled
/// run's.
fn simulate(
    mut core: OoOCore,
    spec: &InjectionSpec,
    limits: &RunLimits,
    observe: Observe<'_>,
) -> (RawRunResult, Observed) {
    match observe {
        Observe::Nothing => {}
        Observe::Signature => core.enable_signature_recording(),
        Observe::Trace(golden_sig) => core.enable_fault_tracing(golden_sig.cloned()),
        Observe::Profile => core.enable_profiling(),
    }
    let faults = to_engine_faults(spec);
    let run = core.run_scenario(&faults, to_engine_scenario(spec), &to_engine_limits(limits));
    let result = to_raw_result(&core, run);
    let seen = match observe {
        Observe::Nothing => Observed::default(),
        Observe::Signature => Observed {
            signature: Some(Arc::new(core.take_signature())),
            ..Observed::default()
        },
        Observe::Trace(_) => Observed {
            trace: assemble_trace(&core, spec),
            ..Observed::default()
        },
        Observe::Profile => Observed {
            profile: core.profile_counters(),
            ..Observed::default()
        },
    };
    (result, seen)
}

/// Drives a fresh `core` through the fault-free prefix, pausing at each
/// cycle of `at_cycles` (sorted ascending) and snapshotting via `Clone`.
/// Capture stops early if the program terminates before a requested cycle.
/// With `profiled`, the profiler runs from reset, so each snapshot holds the
/// stall/occupancy counters of its prefix.
fn capture(
    mut core: OoOCore,
    at_cycles: &[u64],
    limits: &RunLimits,
    profiled: bool,
) -> Vec<GoldenSnapshot> {
    if profiled {
        core.enable_profiling();
    }
    let elim = to_engine_limits(limits);
    let mut snaps = Vec::with_capacity(at_cycles.len());
    for &cycle in at_cycles {
        if core.run_until(&[], &elim, Some(cycle)).is_some() {
            break; // terminal state before this checkpoint — stop capturing
        }
        snaps.push(GoldenSnapshot {
            cycle,
            state: Box::new(core.clone()),
        });
    }
    snaps
}

/// One fault-free run with residency tracing enabled on `structures`,
/// feeding the ACE analysis.
fn residency(mut core: OoOCore, structures: &[StructureId], max_cycles: u64) -> Vec<ResidencyLog> {
    core.enable_residency(structures);
    let elim = EngineLimits {
        max_cycles,
        early_stop: false,
        deadlock_window: RunLimits::golden(max_cycles).deadlock_window,
    };
    core.run(&[], &elim);
    core.take_residency()
}

/// Translates campaign fault records into engine coordinates.
fn to_engine_faults(spec: &InjectionSpec) -> Vec<EngineFault> {
    spec.faults()
        .iter()
        .map(|f| EngineFault {
            structure: f.structure,
            entry: f.entry,
            bit: f.bit,
            kind: f.kind.into(),
            at_cycle: match f.at {
                InjectTime::Cycle(c) => Some(c),
                InjectTime::Instruction(_) => None,
            },
            at_instruction: match f.at {
                InjectTime::Instruction(n) => Some(n),
                InjectTime::Cycle(_) => None,
            },
            duration_cycles: match f.duration {
                FaultDuration::Intermittent { cycles } => Some(cycles),
                _ => None,
            },
        })
        .collect()
}

/// Translates the campaign's scenario into engine coordinates. Bit-flip
/// scenarios carry no control-flow payload ([`EngineScenario::None`]); their
/// sites go through [`to_engine_faults`].
fn to_engine_scenario(spec: &InjectionSpec) -> EngineScenario {
    let at = |t: InjectTime| match t {
        InjectTime::Cycle(c) => ScenarioTrigger::Cycle(c),
        InjectTime::Instruction(n) => ScenarioTrigger::Instruction(n),
    };
    match spec.scenario {
        ScenarioKind::BitFlips { .. } => EngineScenario::None,
        ScenarioKind::InstructionSkip { at: t, count } => {
            EngineScenario::InstructionSkip { at: at(t), count }
        }
        ScenarioKind::OpcodeCorrupt { at: t, xor } => {
            EngineScenario::OpcodeCorrupt { at: at(t), xor }
        }
        ScenarioKind::BranchInvert { at: t, count } => {
            EngineScenario::BranchInvert { at: at(t), count }
        }
    }
}

/// Translates campaign limits into engine limits.
fn to_engine_limits(limits: &RunLimits) -> EngineLimits {
    EngineLimits {
        max_cycles: limits.max_cycles,
        early_stop: limits.early_stop,
        deadlock_window: limits.deadlock_window,
    }
}

/// Converts an engine exit into the campaign's raw status vocabulary.
fn to_run_status(core: &OoOCore, exit: SimExit) -> RunStatus {
    match exit {
        SimExit::Exited(code) => RunStatus::Completed { exit_code: code },
        SimExit::ProcessCrash(f) => RunStatus::ProcessCrash(f.to_string()),
        SimExit::SystemCrash(m) => RunStatus::SystemCrash(m.to_string()),
        SimExit::SimAssert(m) => RunStatus::SimulatorAssert(m),
        SimExit::SimCrash(m) => RunStatus::SimulatorCrash(m),
        SimExit::Timeout => RunStatus::Timeout,
        SimExit::EarlyMasked => RunStatus::EarlyStopMasked(match core.early_reason() {
            EarlyWhy::DeadEntry => EarlyStop::DeadEntry,
            EarlyWhy::Overwritten => EarlyStop::OverwrittenBeforeRead,
        }),
    }
}

/// Assembles a finished engine run into the campaign's raw-result record.
fn to_raw_result(core: &OoOCore, run: SimRun) -> RawRunResult {
    RawRunResult {
        status: to_run_status(core, run.exit),
        output: run.output,
        exceptions: Some(run.exceptions),
        cycles: Some(run.stats.cycles),
        instructions: Some(run.stats.committed_instructions),
        fault_consumed: run.fault_consumed,
    }
}

/// Assembles the event stream of one traced run from the core's raw
/// observations. Events are ordered by cycle; construction order (injected,
/// then watch lifecycles in arm order, then divergence) breaks ties
/// deterministically via the stable sort.
fn assemble_trace(core: &OoOCore, spec: &InjectionSpec) -> Option<FaultTrace> {
    let report = core.trace_report()?;
    let mut events = Vec::new();
    for ev in &report.injected {
        events.push(TraceEvent {
            cycle: ev.cycle,
            kind: TraceEventKind::Injected,
            detail: format!("{} entry {} bit {}", ev.structure.name(), ev.entry, ev.bit),
        });
    }
    // Control-flow scenarios have no storage injection hook; synthesize the
    // injection event from the engine's first-fire stamp so every trace
    // carries its scenario identity.
    if !matches!(spec.scenario, ScenarioKind::BitFlips { .. }) {
        if let Some(cycle) = core.scenario_fired_at() {
            events.push(TraceEvent {
                cycle,
                kind: TraceEventKind::Injected,
                detail: spec.scenario.name().to_string(),
            });
        }
    }
    for (s, w) in &report.watches {
        // The hook keeps the two stamps mutually exclusive: a read blocks
        // the overwritten transition and vice versa.
        if let Some(cycle) = w.first_read_at {
            events.push(TraceEvent {
                cycle,
                kind: TraceEventKind::FirstConsumed,
                detail: format!("{} entry {} bit {}", s.name(), w.entry, w.bit),
            });
        } else if let Some(cycle) = w.overwritten_at {
            events.push(TraceEvent {
                cycle,
                kind: TraceEventKind::OverwrittenDead,
                detail: format!("{} entry {} bit {}", s.name(), w.entry, w.bit),
            });
        }
    }
    if let Some(d) = report.divergence {
        events.push(TraceEvent {
            cycle: d.cycle,
            kind: TraceEventKind::ArchDivergence,
            detail: format!("commit #{}", d.commit_index),
        });
    }
    events.sort_by_key(|e| e.cycle);
    Some(FaultTrace {
        id: spec.id,
        structure: match &spec.scenario {
            ScenarioKind::BitFlips { faults } => faults
                .first()
                .map(|f| f.structure.name())
                .unwrap_or("none")
                .to_string(),
            other => other.name().to_string(),
        },
        scenario: spec.scenario.name().to_string(),
        events,
    })
}
