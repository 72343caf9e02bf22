//! Host-speed probe.
//!
//! On a shared host the speed of one pinned thread drifts by up to 1.5x
//! over minutes as other tenants load the caches and cores it shares, so
//! no run length or median removes the drift from an absolute time. The
//! probe is a fixed computation of this package, which no change to the
//! workspace alters. It runs right after every `campaign` process, on the
//! same CPU, and each process's times are rescaled by [`PROBE_NOMINAL_S`]
//! over the mean of the probes before and after it: they then read what
//! they would on a host where the probe takes [`PROBE_NOMINAL_S`].
//!
//! The probe is a table-driven loop with data-dependent branches and
//! loads over a table the size of a private L2, a mix like the simulator's
//! inner loop. Of the kernels tried (an integer ALU chain, this loop over
//! 32 KiB, 256 KiB, 2 MiB, 8 MiB and 32 MiB tables, pointer chases over
//! 2 MiB and 8 MiB), it followed the campaign binary's drift most closely
//! on a shared 2-vCPU Xeon VM: over nine minutes of alternating runs the
//! spread of 20-s-window medians fell from 0.23 to 0.07 of the median. It
//! does not follow every slowdown: in other spells it narrowed the spread
//! by only a fifth to a half.

use std::time::Instant;

/// The probe's seconds on the reference host: a round number near its time
/// on a 2-vCPU Xeon VM. It sets only the scale of the rescaled times; their
/// ratio between two commits does not depend on it.
pub const PROBE_NOMINAL_S: f64 = 0.1;

/// Steps of one probe.
const STEPS: u64 = 12_000_000;

/// Words of the probe's table (256 KiB).
const TABLE_WORDS: usize = 1 << 16;

/// Runs the probe once and returns its wall seconds.
pub fn probe() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut table: Vec<u32> = (0..TABLE_WORDS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    let mask = TABLE_WORDS - 1;
    let (mut acc, mut i) = (x, 0usize);
    for _ in 0..STEPS {
        let v = table[i];
        match v & 7 {
            0 => acc = acc.wrapping_mul(31).wrapping_add(u64::from(v)),
            1 | 2 => acc ^= u64::from(v) << 7,
            3 => table[i] = v.wrapping_add(acc as u32),
            _ => acc = acc.wrapping_add(1),
        }
        i = (v as usize ^ acc as usize) & mask;
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// The factor that rescales a time taken between two probes of `before`
/// and `after` seconds to the reference host.
pub fn scale(before: f64, after: f64) -> f64 {
    PROBE_NOMINAL_S / ((before + after) / 2.0)
}
