//! Per-child resource usage from `wait4(2)`.
//!
//! `getrusage(RUSAGE_CHILDREN)` sums CPU over all reaped children and keeps
//! `ru_maxrss` as a running maximum over them, so it cannot attribute a
//! peak to one workload. `wait4` returns the usage of exactly the child it
//! reaps. The workspace is std-only, so the call is declared here.

use std::os::raw::{c_int, c_long};
use std::process::Child;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as laid out by Linux: two timevals, then 14 longs of
/// which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    _rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, wstatus: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// What one reaped child used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildUsage {
    /// Exit code, or `None` when the child was killed by a signal.
    pub exit_code: Option<i32>,
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Peak resident set, kilobytes.
    pub max_rss_kb: u64,
}

impl ChildUsage {
    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// True when the child exited normally with code 0.
    pub fn succeeded(&self) -> bool {
        self.exit_code == Some(0)
    }
}

/// Seconds in a `timeval` split into whole seconds and microseconds.
pub fn timeval_s(sec: c_long, usec: c_long) -> f64 {
    sec as f64 + usec as f64 * 1e-6
}

/// Linux reports `ru_maxrss` in kilobytes; the benchmark reports MiB.
pub fn kb_to_mb(kb: u64) -> f64 {
    kb as f64 / 1024.0
}

/// Decodes a `wait` status word: the exit code of a normal exit, `None`
/// for a signal death.
pub fn exit_code(wstatus: i32) -> Option<i32> {
    (wstatus & 0x7f == 0).then_some((wstatus >> 8) & 0xff)
}

/// Blocks until `child` exits and returns its own resource usage. Reaps
/// the child, so `Child::wait` must not be called on it afterwards.
///
/// # Errors
///
/// Returns the OS error of a failed `wait4` (other than `EINTR`, which is
/// retried).
pub fn wait_child(child: &Child) -> std::io::Result<ChildUsage> {
    let pid = c_int::try_from(child.id()).map_err(std::io::Error::other)?;
    let mut status: c_int = 0;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: both pointers are to live, properly sized locals, and
        // `pid` names a child of this process that nothing else reaps.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(ChildUsage {
        exit_code: exit_code(status),
        user_s: timeval_s(ru.ru_utime.tv_sec, ru.ru_utime.tv_usec),
        sys_s: timeval_s(ru.ru_stime.tv_sec, ru.ru_stime.tv_usec),
        max_rss_kb: u64::try_from(ru.ru_maxrss).unwrap_or(0),
    })
}
