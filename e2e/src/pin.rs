//! One CPU for the whole run.
//!
//! On the 2-vCPU nested-virtualised box this benchmark was built on, a
//! wake-up that crosses vCPUs costs about 20 µs against 2.4 µs on one
//! vCPU, and the guest scheduler flips, for seconds at a time, between
//! stacking the runtime's threads on one vCPU and spreading them over
//! both. Saturated throughput flips with it (about 1050 against 680
//! requests a second on `edge_local`), and with it every timing metric
//! of a run. Pinned to one CPU the runtime has one mode. The standard
//! library cannot set an affinity mask, so a measuring run asks `taskset`
//! to pin it before it spawns its first thread; every thread the runtime
//! spawns later inherits the mask.

use std::process::{Command, Stdio};

/// The last CPU of a `Cpus_allowed_list` value such as `0-1` or `0,2-3`:
/// the one furthest from CPU 0, where interrupts and housekeeping land.
pub fn last_cpu(list: &str) -> Option<usize> {
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
pub fn pin_to_last_cpu() -> Option<usize> {
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
