//! The one place that knows the injector-dispatcher trait.
//!
//! [`Traced`] forwards every `InjectorDispatcher` method to the wrapped
//! dispatcher and records a [`Span`] per call. It overrides all of them: a
//! method left to its trait default would silently change the strategy
//! (a default `run_from` turns every warm run cold). [`TimedSink`] does the
//! same for a `RunSink`. The remaining helpers are the direct calls the
//! traced run makes into dispatchers. When the dispatcher API changes, this
//! file is the adapter to rewrite.

use crate::workloads::Setup;
use difi::core::dispatch::structure_desc;
use difi::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One replicated `campaign` process.
    Cell,
    /// Direct calls made outside any campaign process.
    Probe,
    /// `workloads::build`.
    Build,
    /// A fault-free full run (plain, recording or profiled).
    Golden,
    /// `golden_residency`.
    Residency,
    /// `golden_snapshots` or `golden_snapshots_profiled`.
    Capture,
    /// A faulty run from reset.
    Cold,
    /// A run restored from a golden snapshot.
    Warm,
    /// `RunSink::on_run` of the journal sink.
    SinkRun,
    /// `AceProfile::new` plus `partition_equivalence`.
    Partition,
    /// `load_journal`.
    JournalLoad,
}

impl Kind {
    /// Stable lowercase name for the span file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Cell => "cell",
            Kind::Probe => "probe",
            Kind::Build => "build",
            Kind::Golden => "golden",
            Kind::Residency => "residency",
            Kind::Capture => "capture",
            Kind::Cold => "cold",
            Kind::Warm => "warm",
            Kind::SinkRun => "sink_on_run",
            Kind::Partition => "partition",
            Kind::JournalLoad => "journal_load",
        }
    }

    /// True for the golden passes a campaign process makes.
    pub fn is_golden_pass(self) -> bool {
        matches!(self, Kind::Golden | Kind::Residency | Kind::Capture)
    }
}

/// One timed call. Spans of one cell share `parent`, the cell span's id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// Id of the enclosing cell or probe span; 0 for those spans.
    pub parent: u64,
    /// What was timed.
    pub kind: Kind,
    /// Index of the setup in [`crate::workloads::SETUPS`].
    pub setup: usize,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Cycles this call simulated (a warm run counts only its remainder).
    pub cycles: u64,
    /// Snapshots a capture returned.
    pub snapshots: u64,
    /// True for a run the early-stop rules ended.
    pub early_stop: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// One JSON line for the span file.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"setup\":{},\"start_ns\":{},\"end_ns\":{},\"cycles\":{},\"snapshots\":{},\"early_stop\":{}}}",
            self.id,
            self.parent,
            self.kind.name(),
            self.setup,
            self.start_ns,
            self.end_ns,
            self.cycles,
            self.snapshots,
            self.early_stop
        )
    }
}

/// In-memory span store. Spans are written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    /// The open cell (0 = none) and its setup.
    cell: Mutex<(u64, usize)>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            cell: Mutex::new((0, 0)),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span store").push(span);
    }

    /// Runs `f` as one cell (`Kind::Cell`) or probe (`Kind::Probe`) of
    /// `setup`; every span recorded meanwhile gets it as parent.
    pub fn scope<T>(&self, kind: Kind, setup: usize, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let prev = std::mem::replace(&mut *self.cell.lock().expect("cell"), (id, setup));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        *self.cell.lock().expect("cell") = prev;
        self.push(Span {
            id,
            parent: prev.0,
            kind,
            setup,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            cycles: 0,
            snapshots: 0,
            early_stop: false,
        });
        out
    }

    /// Records a span of the open cell that started at `start` and ends now.
    pub fn record(&self, kind: Kind, start: Instant, cycles: u64, snapshots: u64, early: bool) {
        let end = Instant::now();
        let (parent, setup) = *self.cell.lock().expect("cell");
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            kind,
            setup,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            cycles,
            snapshots,
            early_stop: early,
        });
    }

    /// Times `f` as a span of `kind` in the open cell.
    pub fn time<T>(&self, kind: Kind, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(kind, start, 0, 0, false);
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store").clone()
    }
}

/// A dispatcher that forwards every call and records a span per call.
pub struct Traced<'a> {
    inner: &'a dyn InjectorDispatcher,
    tracer: &'a Tracer,
}

impl<'a> Traced<'a> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: &'a dyn InjectorDispatcher, tracer: &'a Tracer) -> Traced<'a> {
        Traced { inner, tracer }
    }

    /// Records one run; `from` is the snapshot cycle of a warm run.
    fn run_span(&self, spec: &InjectionSpec, start: Instant, r: &RawRunResult, from: Option<u64>) {
        let kind = match (from, spec.is_fault_free()) {
            (Some(_), _) => Kind::Warm,
            (None, true) => Kind::Golden,
            (None, false) => Kind::Cold,
        };
        let early = matches!(
            r.status,
            RunStatus::EarlyStopMasked(EarlyStop::DeadEntry | EarlyStop::OverwrittenBeforeRead)
        );
        let cycles = r.cycles.unwrap_or(0).saturating_sub(from.unwrap_or(0));
        self.tracer.record(kind, start, cycles, 0, early);
    }

    fn capture_span(&self, start: Instant, snaps: Option<&Vec<GoldenSnapshot>>) {
        let (cycles, n) = snaps.map_or((0, 0), |s| {
            (s.last().map_or(0, |l| l.cycle), s.len() as u64)
        });
        self.tracer.record(Kind::Capture, start, cycles, n, false);
    }
}

impl InjectorDispatcher for Traced<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn isa(&self) -> Isa {
        self.inner.isa()
    }

    fn structures(&self) -> Vec<StructureDesc> {
        self.inner.structures()
    }

    fn run(&self, program: &Program, spec: &InjectionSpec, limits: &RunLimits) -> RawRunResult {
        let t = Instant::now();
        let r = self.inner.run(program, spec, limits);
        self.run_span(spec, t, &r, None);
        r
    }

    fn golden_residency(
        &self,
        program: &Program,
        structures: &[StructureId],
        max_cycles: u64,
    ) -> Vec<ResidencyLog> {
        let t = Instant::now();
        let logs = self.inner.golden_residency(program, structures, max_cycles);
        let cycles = logs.first().map_or(0, |l| l.cycles);
        self.tracer.record(Kind::Residency, t, cycles, 0, false);
        logs
    }

    fn golden_snapshots(
        &self,
        program: &Program,
        at_cycles: &[u64],
        limits: &RunLimits,
    ) -> Option<Vec<GoldenSnapshot>> {
        let t = Instant::now();
        let snaps = self.inner.golden_snapshots(program, at_cycles, limits);
        self.capture_span(t, snaps.as_ref());
        snaps
    }

    fn run_from(
        &self,
        snap: &GoldenSnapshot,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> RawRunResult {
        let t = Instant::now();
        let r = self.inner.run_from(snap, program, spec, limits);
        self.run_span(spec, t, &r, Some(snap.cycle));
        r
    }

    fn golden_run_recording(
        &self,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> (RawRunResult, Option<Arc<Vec<u64>>>) {
        let t = Instant::now();
        let out = self.inner.golden_run_recording(program, spec, limits);
        self.run_span(spec, t, &out.0, None);
        out
    }

    fn run_traced(
        &self,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
        golden_sig: Option<&Arc<Vec<u64>>>,
    ) -> (RawRunResult, Option<FaultTrace>) {
        let t = Instant::now();
        let out = self.inner.run_traced(program, spec, limits, golden_sig);
        self.run_span(spec, t, &out.0, None);
        out
    }

    fn run_from_traced(
        &self,
        snap: &GoldenSnapshot,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
        golden_sig: Option<&Arc<Vec<u64>>>,
    ) -> (RawRunResult, Option<FaultTrace>) {
        let t = Instant::now();
        let out = self
            .inner
            .run_from_traced(snap, program, spec, limits, golden_sig);
        self.run_span(spec, t, &out.0, Some(snap.cycle));
        out
    }

    fn run_profiled(
        &self,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> (RawRunResult, Option<ProfileCounters>) {
        let t = Instant::now();
        let out = self.inner.run_profiled(program, spec, limits);
        self.run_span(spec, t, &out.0, None);
        out
    }

    fn run_from_profiled(
        &self,
        snap: &GoldenSnapshot,
        program: &Program,
        spec: &InjectionSpec,
        limits: &RunLimits,
    ) -> (RawRunResult, Option<ProfileCounters>) {
        let t = Instant::now();
        let out = self.inner.run_from_profiled(snap, program, spec, limits);
        self.run_span(spec, t, &out.0, Some(snap.cycle));
        out
    }

    fn golden_snapshots_profiled(
        &self,
        program: &Program,
        at_cycles: &[u64],
        limits: &RunLimits,
    ) -> Option<Vec<GoldenSnapshot>> {
        let t = Instant::now();
        let snaps = self
            .inner
            .golden_snapshots_profiled(program, at_cycles, limits);
        self.capture_span(t, snaps.as_ref());
        snaps
    }
}

/// A sink that forwards every call and times `on_run`.
pub struct TimedSink<'a> {
    inner: &'a dyn RunSink,
    tracer: &'a Tracer,
}

impl<'a> TimedSink<'a> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: &'a dyn RunSink, tracer: &'a Tracer) -> TimedSink<'a> {
        TimedSink { inner, tracer }
    }
}

impl RunSink for TimedSink<'_> {
    fn on_start(&self, header: &CampaignHeader) {
        self.inner.on_start(header);
    }

    fn on_run(&self, index: usize, log: &RunLog) {
        let t = Instant::now();
        self.inner.on_run(index, log);
        self.tracer.record(Kind::SinkRun, t, 0, 0, false);
    }

    fn on_trace(&self, index: usize, trace: &FaultTrace) {
        self.inner.on_trace(index, trace);
    }

    fn on_profile(&self, index: usize, prof: &ProfileCounters) {
        self.inner.on_profile(index, prof);
    }

    fn on_end(&self) {
        self.inner.on_end();
    }
}

/// A fresh dispatcher for `setup`.
pub fn dispatcher(setup: &Setup) -> Box<dyn InjectorDispatcher + Send> {
    match setup.injector {
        "GeFIN-x86" => Box::new(GeFin::x86()),
        "GeFIN-ARM" => Box::new(GeFin::arm()),
        _ => Box::new(MaFin::new()),
    }
}

/// The ISA `d` simulates.
pub fn isa(d: &dyn InjectorDispatcher) -> Isa {
    d.isa()
}

/// The masks the `campaign` binary draws for a random-transient cell.
///
/// # Errors
///
/// Fails when `structure` is not injectable on `d`.
pub fn masks_for(
    d: &dyn InjectorDispatcher,
    structure: StructureId,
    seed: u64,
    golden_cycles: u64,
    n: u64,
) -> Result<Vec<InjectionSpec>, String> {
    let desc = structure_desc(d, structure)
        .ok_or_else(|| format!("{} is not injectable on {}", structure.name(), d.name()))?;
    Ok(MaskGenerator::new(seed).transient(&desc, golden_cycles, n))
}

/// The golden residency log of `structure`, as `campaign --collapse`
/// records it.
pub fn residency_log(
    d: &dyn InjectorDispatcher,
    program: &Program,
    structure: StructureId,
    max_cycles: u64,
) -> Option<ResidencyLog> {
    d.golden_residency(program, &[structure], max_cycles).pop()
}

/// Restore cost: captures `checkpoints` golden snapshots, then restores
/// the middle one `times` times with a one-cycle limit. Returns nothing;
/// the spans carry the timings.
pub fn restore_probe(
    d: &dyn InjectorDispatcher,
    program: &Program,
    golden_cycles: u64,
    checkpoints: usize,
    times: usize,
) {
    let k = checkpoints as u64;
    let at: Vec<u64> = (1..=k).map(|i| golden_cycles * i / (k + 1)).collect();
    let limits = RunLimits::golden(golden_cycles.saturating_mul(3));
    let Some(snaps) = d.golden_snapshots(program, &at, &limits) else {
        return;
    };
    let Some(mid) = snaps.get(snaps.len() / 2) else {
        return;
    };
    let spec = InjectionSpec::fault_free(u64::MAX);
    let one_cycle = RunLimits {
        max_cycles: mid.cycle + 1,
        ..limits
    };
    for _ in 0..times {
        d.run_from(mid, program, &spec, &one_cycle);
    }
}
