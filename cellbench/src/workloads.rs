//! The benchmark's workloads: which campaign cells each one runs, and the
//! values recorded for the default seed.

use difi::prelude::Bench;

/// One of the paper's three setups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Setup {
    /// `--injector` name.
    pub injector: &'static str,
    /// Metric-name suffix.
    pub key: &'static str,
    /// Golden cycles of sha on this setup (seed-independent).
    pub golden_cycles: u64,
}

/// The three setups, in the paper's order.
pub const SETUPS: [Setup; 3] = [
    Setup {
        injector: "MaFIN-x86",
        key: "mafin_x86",
        golden_cycles: 253_820,
    },
    Setup {
        injector: "GeFIN-x86",
        key: "gefin_x86",
        golden_cycles: 193_591,
    },
    Setup {
        injector: "GeFIN-ARM",
        key: "gefin_arm",
        golden_cycles: 235_245,
    },
];

/// The benchmark every workload runs.
pub const BENCH: Bench = Bench::Sha;

/// The seed the recorded class counts belong to (the `campaign` default).
pub const DEFAULT_SEED: u64 = 2015;

/// A seed never used while the benchmark was written, for checking a
/// later claim on unseen input.
pub const HELD_OUT_SEED: u64 = 60607;

/// Golden-run checkpoints (`--checkpoints`) of every workload.
pub const CHECKPOINTS: usize = 8;

/// One `campaign` process of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Process {
    /// A campaign without journal.
    Plain,
    /// `--journal PATH`.
    Journal,
    /// `--resume PATH` of a completed journal.
    Resume,
}

/// One benchmark workload: campaign cells run on all three setups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// `--workload` name.
    pub name: &'static str,
    /// Target structure.
    pub structure: &'static str,
    /// Masks per cell.
    pub masks: u64,
    /// `--collapse`.
    pub collapse: bool,
    /// The `campaign` processes of one cell, in order: one plain process,
    /// or `--journal` then `--resume` of the completed journal.
    pub processes: &'static [Process],
    /// Recorded `[masked, sdc, due, timeout, crash, assert]` counts for
    /// [`DEFAULT_SEED`], indexed `[round][setup]` (see [`campaign_seed`]);
    /// rounds past the recorded ones are not compared.
    pub expected: &'static [[[u64; 6]; 3]],
}

/// All workloads.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "collapse_warm_prf",
        structure: "int_prf",
        masks: 100,
        collapse: true,
        processes: &[Process::Plain],
        expected: &[
            [
                [97, 2, 0, 1, 0, 0],
                [99, 0, 0, 1, 0, 0],
                [100, 0, 0, 0, 0, 0],
            ],
            [
                [98, 1, 0, 0, 1, 0],
                [98, 1, 0, 0, 1, 0],
                [100, 0, 0, 0, 0, 0],
            ],
            [
                [97, 3, 0, 0, 0, 0],
                [99, 1, 0, 0, 0, 0],
                [97, 2, 0, 1, 0, 0],
            ],
        ],
    },
    Workload {
        name: "warm_journal_l2",
        structure: "l2_data",
        masks: 100,
        collapse: false,
        processes: &[Process::Journal, Process::Resume],
        expected: &[[
            [100, 0, 0, 0, 0, 0],
            [100, 0, 0, 0, 0, 0],
            [100, 0, 0, 0, 0, 0],
        ]],
    },
];

/// The `--seed` of round `k` of a workload seeded with `seed`: the seed
/// itself for `k = 0`. Each round draws new masks, and a metric takes the
/// median of a process's cost over rounds, so a cell whose masks happen to
/// be costly (a few runs that time out at 3x the golden length, say)
/// moves it little.
pub fn campaign_seed(seed: u64, k: u64) -> u64 {
    seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// `campaign` processes in one round.
    pub fn processes_per_round(&self) -> usize {
        SETUPS.len() * self.processes.len()
    }
}
