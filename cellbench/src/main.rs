//! `cellbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Run from the workspace root. Builds the `campaign` binary, measures the
//! workload for `S` seconds, prints a human-readable summary and, as the
//! last line, one JSON result. Exits 1 when a correctness check fails and
//! 2 on a usage or environment error.

use cellbench::workloads::Workload;
use cellbench::{affinity, traced, untraced};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const USAGE: &str = "usage: cellbench --workload collapse_warm_prf|warm_journal_l2 \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}\n{USAGE}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|e| format!("{flag}: {e}\n{USAGE}"))
    };
    let name = get("--workload")?;
    Ok(Args {
        workload: Workload::by_name(name)
            .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?,
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace: number("--trace")? != 0,
    })
}

/// Builds the `campaign` binary from the workspace at `root` and returns
/// its path.
fn build_campaign(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "difi-bench",
            "--bin",
            "campaign",
        ])
        .current_dir(root)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the campaign binary failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |t| root.join(t));
    Ok(target.join("release").join("campaign"))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates").is_dir() {
        return Err(format!("run from the workspace root\n{USAGE}"));
    }
    let work = root.join("cellbench").join("work").join(args.workload.name);
    std::fs::create_dir_all(&work).map_err(|e| e.to_string())?;
    // Build with every CPU, then pin before anything is measured.
    let campaign = (!args.trace).then(|| build_campaign(&root)).transpose()?;
    let cpu = affinity::pin_to_first_cpu()?;
    println!("pinned to CPU {cpu}: one campaign worker");
    let report = match &campaign {
        None => traced::run(args.workload, args.seed, args.seconds, &work)?,
        Some(campaign) => untraced::run(args.workload, args.seed, args.seconds, campaign, &work)?,
    };
    for line in &report.lines {
        println!("{line}");
    }
    for problem in &report.problems {
        println!("INCORRECT: {problem}");
    }
    println!("{}", report.json_line());
    Ok(report.correct())
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("cellbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
