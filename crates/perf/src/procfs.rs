//! CPU and memory readings from Linux `/proc`.
//!
//! Process CPU comes from `/proc/self/stat` (`utime + stime`, which
//! include threads that have already exited — every wave's shard thread
//! is gone by the time the wave is accounted). Per-thread CPU comes from
//! `/proc/thread-self/schedstat`, whose first field is the thread's
//! on-CPU time in nanoseconds. Peak memory is `VmHWM` from
//! `/proc/self/status`.

use std::fs;

/// Clock ticks per second of `utime`/`stime` (`USER_HZ`). Linux fixes
/// the user-visible value at 100 on every mainstream architecture.
pub const USER_HZ: u64 = 100;

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
///
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the *last* `)`: `utime` and `stime` are
/// fields 14 and 15 of the line, the 12th and 13th after the name.
#[must_use]
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// On-CPU nanoseconds (the first field) from the text of a
/// `schedstat` file.
#[must_use]
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// `VmHWM` (peak resident set) in KiB from the text of
/// `/proc/<pid>/status`.
#[must_use]
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn read(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

fn parsed<T>(path: &str, parse: impl Fn(&str) -> Option<T>) -> Result<T, String> {
    parse(&read(path)?).ok_or_else(|| format!("unexpected format in {path}"))
}

/// CPU the whole process has used so far, in nanoseconds (resolution
/// one clock tick, 10 ms).
///
/// # Errors
///
/// When `/proc/self/stat` is missing or malformed (not Linux).
pub fn process_cpu_ns() -> Result<u64, String> {
    Ok(parsed("/proc/self/stat", parse_stat_cpu_ticks)? * (1_000_000_000 / USER_HZ))
}

/// CPU the calling thread has used so far, in nanoseconds.
///
/// # Errors
///
/// When `/proc/thread-self/schedstat` is missing or malformed.
pub fn thread_cpu_ns() -> Result<u64, String> {
    parsed("/proc/thread-self/schedstat", parse_schedstat_ns)
}

/// Peak resident set size of the process, in KiB.
///
/// # Errors
///
/// When `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_kib() -> Result<u64, String> {
    parsed("/proc/self/status", parse_vm_hwm_kib)
}
