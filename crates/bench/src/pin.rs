//! One CPU for a timing run.
//!
//! A latency gate needs timings that repeat, and on a small virtualised
//! host they do not while the scheduler moves the process between vCPUs.
//! The standard library cannot set an affinity mask, so a timing target
//! (`kernel_latency` and every bench that serves through the runtime and
//! gates a `_ms` or `wall_ms` time) asks `taskset` to pin it before its
//! first forward; every thread it spawns later inherits the mask. Pinning
//! changes no result: every op runs on its caller's thread whatever the
//! core count, so it exists only so that timings repeat. (The end-to-end benchmark under `e2e/` pins itself
//! the same way; it is its own workspace and shares no code with this
//! crate.)

use std::process::{Command, Stdio};

/// The last CPU of a `Cpus_allowed_list` value such as `0-1` or `0,2-3`:
/// the one furthest from CPU 0, where interrupts and housekeeping land.
fn last_cpu(list: &str) -> Option<usize> {
    list.trim().rsplit([',', '-']).next()?.parse().ok()
}

fn allowed_cpus() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    Some(line.trim().to_owned())
}

/// Pins this process to the last CPU it is allowed on and returns that
/// CPU, or `None` when it cannot (no `/proc`, no `taskset`, or the mask
/// may not be changed): the run then measures unpinned and says so.
pub(crate) fn pin_to_last_cpu() -> Option<usize> {
    let cpu = last_cpu(&allowed_cpus()?)?;
    let pinned = Command::new("taskset")
        .args(["-cp", &cpu.to_string(), &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .ok()?
        .success();
    (pinned && allowed_cpus()? == cpu.to_string()).then_some(cpu)
}

/// Pins this process as `pin_to_last_cpu` does and describes the
/// outcome for a timing target's first line: the CPU, or that the run is
/// unpinned and its timings will not repeat.
pub fn pin_for_timing() -> String {
    match pin_to_last_cpu() {
        Some(cpu) => format!("pinned to cpu {cpu}"),
        None => "UNPINNED (no /proc or taskset): timings spread beyond the 20 % gate".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_cpu_of_ranges_and_lists() {
        assert_eq!(last_cpu("0-1"), Some(1));
        assert_eq!(last_cpu("0"), Some(0));
        assert_eq!(last_cpu("0,2-3\n"), Some(3));
        assert_eq!(last_cpu("0-3,8"), Some(8));
        assert_eq!(last_cpu(""), None);
    }

    #[test]
    fn this_process_has_an_allowed_cpu() {
        assert!(last_cpu(&allowed_cpus().expect("Cpus_allowed_list in /proc/self/status")).is_some());
    }
}
