//! The benchmark's metric derivations, checked on hand-made inputs.

use cellbench::derive::{failed_masks, failed_share, setup_s};
use cellbench::rusage::{exit_code, kb_to_mb, timeval_s, wait_child};
use cellbench::stats::{beyond, median, percentile, supported_tail, Summary};
use difi::prelude::*;

#[test]
fn median_and_nearest_rank_percentiles() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 0.5), 50.0);
    assert_eq!(percentile(&xs, 0.99), 99.0);
    assert_eq!(percentile(&xs, 1.0), 100.0);
    assert_eq!(percentile(&[7.0], 0.99), 7.0);
    assert_eq!(percentile(&[], 0.99), 0.0);
}

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    assert_eq!(supported_tail(0), None);
    assert_eq!(supported_tail(99), None);
    assert_eq!(supported_tail(100), Some(0.9));
    assert_eq!(supported_tail(999), Some(0.9));
    assert_eq!(beyond(100, 0.9), 10);
    assert_eq!(beyond(999, 0.99), 9);
    assert_eq!(supported_tail(1000), Some(0.99));
    assert_eq!(supported_tail(10_000), Some(0.999));
    assert_eq!(beyond(1000, 0.99), 10);

    let few = Summary::of(&[1.0, 5.0, 3.0]);
    assert_eq!((few.n, few.p50, few.tail_q, few.tail), (3, 3.0, None, 5.0));
    let xs: Vec<f64> = (1..=200).map(f64::from).collect();
    let many = Summary::of(&xs);
    assert_eq!((many.n, many.tail_q, many.tail), (200, Some(0.9), 180.0));
    assert!(many.describe("ms").contains("p90 180.0000 ms (n=200)"));
}

#[test]
fn setup_time_is_wall_minus_injection_and_classify() {
    let doc = r#"{"metrics":{"counters":{},"gauges":{"phase.classify_ns":500000000,"phase.golden_ns":300000000,"phase.injection_ns":2000000000,"phase.snapshots_ns":400000000},"histograms":{}}}"#;
    let s = setup_s(5.0, doc).expect("gauges present");
    assert!((s - 2.5).abs() < 1e-9, "{s}");

    let no_injection = r#"{"metrics":{"gauges":{"phase.classify_ns":1}}}"#;
    assert!(setup_s(5.0, no_injection).is_err());
    assert!(setup_s(5.0, "not json").is_err());
}

#[test]
fn rusage_units_convert_to_seconds_and_mib() {
    assert_eq!(timeval_s(1, 500_000), 1.5);
    assert_eq!(timeval_s(0, 0), 0.0);
    assert_eq!(kb_to_mb(2048), 2.0);
    assert_eq!(kb_to_mb(512), 0.5);
    // wait status words: normal exits carry the code in bits 8..16,
    // signal deaths the signal number in the low 7 bits.
    assert_eq!(exit_code(0), Some(0));
    assert_eq!(exit_code(3 << 8), Some(3));
    assert_eq!(exit_code(9), None);
}

#[test]
// `wait_child` reaps the child through wait4, which the lint cannot see.
#[allow(clippy::zombie_processes)]
fn wait4_reports_one_childs_exit_code_and_usage() {
    let child = std::process::Command::new("sh")
        .args(["-c", "exit 3"])
        .spawn()
        .expect("spawn sh");
    let usage = wait_child(&child).expect("wait4");
    assert_eq!(usage.exit_code, Some(3));
    assert!(!usage.succeeded());
    assert!(usage.cpu_s() >= 0.0);
    assert!(usage.max_rss_kb > 0, "a running shell has a resident set");
}

fn masks(n: u64) -> Vec<InjectionSpec> {
    (0..n)
        .map(|id| InjectionSpec::single_transient(id, StructureId::L1dData, id, 1, 100 + id))
        .collect()
}

fn run(spec: &InjectionSpec, status: RunStatus) -> RunLog {
    RunLog {
        spec: spec.clone(),
        result: RawRunResult::unexecuted(status),
        provenance: None,
    }
}

#[test]
fn failed_masks_follow_the_three_rules() {
    let ms = masks(4);
    let ok = RunStatus::Completed { exit_code: 0 };
    let all: Vec<RunLog> = ms.iter().map(|m| run(m, ok.clone())).collect();
    assert_eq!(failed_masks(true, &ms, &all), 0);

    // A process that exits non-zero fails every mask it was given.
    assert_eq!(failed_masks(false, &ms, &all), 4);

    // A mask missing from the log fails.
    assert_eq!(failed_masks(true, &ms, &all[1..]), 1);

    // A host panic fails; a simulated crash is a fault effect, not a failure.
    let mut runs = all.clone();
    runs[2] = run(
        &ms[2],
        RunStatus::SimulatorCrash("worker panic: index out of bounds".into()),
    );
    runs[3] = run(&ms[3], RunStatus::ProcessCrash("segfault".into()));
    assert_eq!(failed_masks(true, &ms, &runs), 1);

    // A run carrying a different mask under the same id does not count.
    let mut swapped = all.clone();
    swapped[0].spec = InjectionSpec::single_transient(0, StructureId::L1dData, 9, 9, 9);
    assert_eq!(failed_masks(true, &ms, &swapped), 1);

    assert_eq!(failed_share(1, 4), 0.25);
    assert_eq!(failed_share(0, 0), 0.0);
}

#[test]
fn pinning_leaves_one_cpu() {
    use cellbench::affinity::{first_cpu, pin_to_first_cpu};
    assert_eq!(first_cpu(&[0, 0]), None);
    assert_eq!(first_cpu(&[0b1100]), Some(2));
    assert_eq!(first_cpu(&[0, 1 << 5]), Some(69));
    // The test runs on a thread of its own, so only this thread is pinned.
    pin_to_first_cpu().unwrap();
    assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
}

#[test]
fn probe_rescales_times_to_the_reference_host() {
    use cellbench::host::{probe, scale, PROBE_NOMINAL_S};
    assert_eq!(scale(PROBE_NOMINAL_S, PROBE_NOMINAL_S), 1.0);
    // A host twice as slow as the reference halves the times.
    assert_eq!(scale(0.15, 0.25), 0.5);
    assert!(probe() > 0.0);
}
