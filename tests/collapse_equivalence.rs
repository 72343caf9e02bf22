//! Collapse-equivalence differential oracle: statically collapsing the mask
//! space may change *how much* is simulated, never *what is concluded*.
//!
//! (a) Per-mask identity: on two workloads × the paper's three setups, a
//!     collapsed campaign must classify every individual mask exactly as
//!     the full campaign does — not just matching totals.
//! (b) Savings + provenance: collapsing dispatches strictly fewer simulator
//!     runs, the collapse ratio beats 1×, every logged run carries the
//!     equivalence-class provenance of its partition, and replicated
//!     members never report fabricated measurements.
//! (c) Journal/resume: a collapsed journaled campaign interrupted mid-run
//!     resumes to the identical log (composed with the warm-start engine).

use difi::prelude::*;
use std::sync::Arc;

const STRUCTURE: StructureId = StructureId::IntRegFile;
const MAX_CYCLES: u64 = 200_000_000;

fn profile_for(dispatcher: &dyn InjectorDispatcher, program: &Program) -> AceProfile {
    let logs = dispatcher.golden_residency(program, &[STRUCTURE], MAX_CYCLES);
    let log = logs.into_iter().next().expect("residency trace recorded");
    AceProfile::new(log).expect("int_prf is a data plane")
}

/// A dense per-cycle sweep inside real inter-event gaps of the golden
/// residency trace — the shape that provably forms multi-member classes
/// (every cycle between two consecutive events resolves to the same first
/// covering access) — plus a seeded random tail covering the rest of the
/// space.
fn sweep_masks(
    profile: &AceProfile,
    desc: &StructureDesc,
    cycles: u64,
    seed: u64,
) -> Vec<InjectionSpec> {
    let points: u64 = if cfg!(debug_assertions) { 6 } else { 24 };
    let tail: u64 = if cfg!(debug_assertions) { 8 } else { 20 };
    let mut masks = MaskGenerator::new(seed).transient(desc, cycles, tail);
    let mut id = tail;
    let log = profile.log();
    let mut sites = 0u32;
    'entries: for entry in 0..desc.entries {
        for w in log.events_for(entry).windows(2) {
            let (a, b) = (&w[0], &w[1]);
            let bit = b.bit_lo;
            // Consecutive events with a cycle gap: every injection in
            // (a.cycle, b.cycle] meets `b` as its first covering access.
            if b.cycle > a.cycle + 2 && b.covers(bit) {
                let lo = a.cycle + 1;
                for k in 0..points.min(b.cycle - lo + 1) {
                    masks.push(InjectionSpec::single_transient(
                        id,
                        STRUCTURE,
                        entry,
                        bit,
                        lo + k,
                    ));
                    id += 1;
                }
                sites += 1;
                if sites >= 3 {
                    break 'entries;
                }
                break;
            }
        }
    }
    assert!(sites > 0, "no inter-event gap found to sweep");
    masks
}

fn cfg() -> CampaignConfig {
    CampaignConfig {
        threads: 2,
        early_stop: true,
        golden_max_cycles: MAX_CYCLES,
    }
}

/// A collapsed campaign with cold representatives, plus the partition it
/// collapsed through and the representatives the runner dispatched.
struct Collapsed {
    log: CampaignLog,
    partition: MaskPartition,
    dispatched: usize,
}

fn collapsed_campaign(
    dispatcher: &dyn InjectorDispatcher,
    program: &Program,
    seed: u64,
    masks: &[InjectionSpec],
    profile: &AceProfile,
) -> Collapsed {
    let metrics = Arc::new(MetricsRegistry::new());
    let log = CampaignRunner::new(dispatcher, program, STRUCTURE, seed, &cfg())
        .with_strategy(Strategy::Collapsed {
            profile,
            checkpoints: 0,
        })
        .with_metrics(Arc::clone(&metrics))
        .run(masks);
    let dispatched = metrics
        .value("campaign.collapse.dispatched")
        .expect("collapse counter") as usize;
    Collapsed {
        log,
        partition: partition_equivalence(masks, profile),
        dispatched,
    }
}

#[test]
fn collapsed_campaign_classifies_every_mask_like_the_full_campaign() {
    // Debug builds check one workload to keep `cargo test` fast; the
    // release oracle (scripts/check.sh) covers the full 2×3 matrix.
    let benches: &[Bench] = if cfg!(debug_assertions) {
        &[Bench::Fft]
    } else {
        &[Bench::Sha, Bench::Fft]
    };
    for dispatcher in setups::all() {
        let d = dispatcher.as_ref();
        for &bench in benches {
            let program = build(bench, d.isa()).expect("assembles");
            let golden = golden_run(d, &program, MAX_CYCLES);
            let desc = difi::core::dispatch::structure_desc(d, STRUCTURE).expect("injectable");
            let profile = profile_for(d, &program);
            let masks = sweep_masks(&profile, &desc, golden.cycles_measured(), 2015);
            let full = run_campaign(d, &program, STRUCTURE, 2015, &masks, &cfg());
            let collapsed = collapsed_campaign(d, &program, 2015, &masks, &profile);
            assert!(
                collapsed.dispatched < masks.len(),
                "{} {}: a dense sweep must collapse",
                d.name(),
                bench.name()
            );
            assert_eq!(full.runs.len(), collapsed.log.runs.len());
            let classifier = Classifier::from_golden(&full.golden);
            for (a, b) in full.runs.iter().zip(&collapsed.log.runs) {
                assert_eq!(a.spec.id, b.spec.id);
                assert_eq!(
                    classifier.classify(&a.result),
                    classifier.classify(&b.result),
                    "{} {} mask {}: collapsing changed the verdict \
                     (full {:?} vs collapsed {:?}, provenance {:?})",
                    d.name(),
                    bench.name(),
                    a.spec.id,
                    a.result.status,
                    b.result.status,
                    b.provenance
                );
            }
        }
    }
}

#[test]
fn collapse_saves_dispatches_with_sound_provenance() {
    let mafin = MaFin::new();
    let bench = if cfg!(debug_assertions) {
        Bench::Fft
    } else {
        Bench::Sha
    };
    let program = build(bench, mafin.isa()).expect("assembles");
    let golden = golden_run(&mafin, &program, MAX_CYCLES);
    let desc = difi::core::dispatch::structure_desc(&mafin, STRUCTURE).expect("injectable");
    let profile = profile_for(&mafin, &program);
    let masks = sweep_masks(&profile, &desc, golden.cycles_measured(), 99);
    let collapsed = collapsed_campaign(&mafin, &program, 99, &masks, &profile);
    let part = &collapsed.partition;
    assert!(
        part.collapse_ratio() > 1.0,
        "dense sweep must yield a ratio above 1x, got {:.3}",
        part.collapse_ratio()
    );
    assert_eq!(collapsed.dispatched, part.dispatch_count());
    assert!(collapsed.dispatched < masks.len());

    // Every run's provenance matches the partition's own record.
    let prov = part.provenance(&masks);
    for (i, run) in collapsed.log.runs.iter().enumerate() {
        assert_eq!(
            run.provenance,
            Some(prov[i]),
            "mask index {i}: journaled provenance disagrees with the partition"
        );
    }

    for class in &part.classes {
        if class.proof == ProofKind::DeadInterval {
            // Dead classes resolve statically — logged, never dispatched.
            for &i in &class.members {
                assert!(
                    matches!(
                        collapsed.log.runs[i].result.status,
                        RunStatus::EarlyStopMasked(EarlyStop::StaticallyPruned)
                    ),
                    "dead-class member {i} was not statically resolved"
                );
            }
        } else {
            // One representative ran; members inherit its classification
            // fields but no fabricated measurements.
            let rep = &collapsed.log.runs[class.representative()].result;
            for &i in &class.members {
                if i == class.representative() {
                    continue;
                }
                let m = &collapsed.log.runs[i].result;
                assert_eq!(m.status, rep.status);
                assert_eq!(m.output, rep.output);
                assert_eq!(m.exceptions, rep.exceptions);
                assert_eq!(m.fault_consumed, rep.fault_consumed);
                assert_eq!(m.cycles, None, "member {i} never executed");
                assert_eq!(m.instructions, None, "member {i} never executed");
            }
        }
    }
}

#[test]
fn collapsed_journal_interrupted_resumes_identically() {
    let mafin = MaFin::new();
    let program = build(Bench::Fft, mafin.isa()).expect("assembles");
    let golden = golden_run(&mafin, &program, MAX_CYCLES);
    let desc = difi::core::dispatch::structure_desc(&mafin, STRUCTURE).expect("injectable");
    let profile = profile_for(&mafin, &program);
    let masks = sweep_masks(&profile, &desc, golden.cycles_measured(), 7);
    let c = cfg();
    let dir = std::env::temp_dir().join("difi_collapse_oracle");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("collapsed.journal");
    std::fs::remove_file(&path).ok();

    // Collapse composed with the warm-start engine, as the campaign bin
    // does for `--collapse --checkpoints N`.
    let strategy = || Strategy::Collapsed {
        profile: &profile,
        checkpoints: 2,
    };
    let full = CampaignRunner::new(&mafin, &program, STRUCTURE, 7, &c)
        .with_strategy(strategy())
        .run_journaled(&masks, &path, &[])
        .expect("journaled campaign");
    for run in &full.runs {
        assert!(run.provenance.is_some(), "provenance on every run");
    }

    // Interrupt: keep the header and the first half of the run lines.
    let text = std::fs::read_to_string(&path).expect("read journal");
    let keep = 1 + (text.lines().count() - 1) / 2;
    let kept: String = text.lines().take(keep).map(|l| format!("{l}\n")).collect();
    std::fs::write(&path, kept).expect("truncate journal");

    let resumed = CampaignRunner::new(&mafin, &program, STRUCTURE, 7, &c)
        .with_strategy(strategy())
        .resume(&masks, &path, &[])
        .expect("resume campaign");
    assert_eq!(full, resumed, "resume after interruption diverged");

    // The completed journal reloads to the same runs, provenance included.
    let back = load_journal(&path).expect("journal reloads");
    assert_eq!(back.runs.len(), masks.len());
    std::fs::remove_file(&path).ok();
}
