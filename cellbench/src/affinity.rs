//! Pins the benchmark, and every process and thread it starts after, to
//! one CPU.
//!
//! On a shared 2-vCPU host the second vCPU comes and goes with the other
//! tenants: for minutes at a time, two busy threads run at the speed of
//! one. A `campaign` process with one worker per CPU then takes up to
//! twice as long: over 30-s windows of a 13-minute trace its time spread
//! by 40% of the median, against 11–13% for the same process pinned to
//! one CPU. Pinned, the binary finds one CPU and runs one worker, in the
//! untraced and the traced run alike. The workspace is std-only, so the
//! calls are declared here.

use std::os::raw::c_int;

/// Words of a `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// The lowest CPU set in `mask`.
pub fn first_cpu(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .find(|(_, &w)| w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
}

/// Restricts the calling thread to the lowest CPU it may run on, and
/// returns that CPU. Threads and processes started from it afterwards
/// inherit the restriction.
///
/// # Errors
///
/// Fails when the kernel refuses either call.
pub fn pin_to_first_cpu() -> Result<usize, String> {
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = first_cpu(&mask).ok_or("sched_getaffinity: empty CPU set")?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
