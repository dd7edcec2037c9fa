//! Process CPU time and memory from `/proc/self`, read from outside the
//! program under test.

/// Kernel clock ticks per second in `/proc/self/stat`. `USER_HZ` is 100 on
/// every Linux ABI this benchmark runs on; reading `sysconf` would need
/// libc, which the offline build does not have.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds the process (all threads, dead ones included) has used.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CpuTime {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

impl CpuTime {
    /// User plus kernel seconds.
    pub fn total_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// CPU time used since `earlier`.
    pub fn since(&self, earlier: &CpuTime) -> CpuTime {
        CpuTime { user_s: self.user_s - earlier.user_s, sys_s: self.sys_s - earlier.sys_s }
    }
}

/// Parses `utime` and `stime` (fields 14 and 15) out of a
/// `/proc/<pid>/stat` line. The command name (field 2) may itself hold
/// spaces and parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<CpuTime> {
    let rest = &line[line.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is 11 fields further on.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTime { user_s: utime / TICKS_PER_S, sys_s: stime / TICKS_PER_S })
}

/// Parses a `kB` field such as `VmHWM` or `VmRSS` out of
/// `/proc/<pid>/status`, in MiB.
pub fn parse_status_mib(status: &str, field: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time of this process so far.
///
/// # Panics
///
/// Panics when `/proc/self/stat` is missing or malformed: the benchmark
/// cannot report its energy proxy without it.
pub fn cpu_time() -> CpuTime {
    let line = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat(&line).expect("utime and stime in /proc/self/stat")
}

/// A memory field of `/proc/self/status` in MiB (`VmHWM`: peak resident
/// set; `VmRSS`: current).
///
/// # Panics
///
/// Panics when the field is missing.
pub fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_mib(&status, field).unwrap_or_else(|| panic!("{field} in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_survive_a_hostile_command_name() {
        let line = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 1234 0 0 0 731 42 0 0 20 0 3 0 99 1000 200 \
                    18446744073709551615 0 0 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        let cpu = parse_stat(line).expect("parses");
        assert_eq!(cpu, CpuTime { user_s: 7.31, sys_s: 0.42 });
        assert!((cpu.total_s() - 7.73).abs() < 1e-12);
    }

    #[test]
    fn truncated_stat_is_rejected() {
        assert_eq!(parse_stat("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat("no parenthesis"), None);
    }

    #[test]
    fn cpu_delta_subtracts_both_modes() {
        let a = CpuTime { user_s: 1.0, sys_s: 0.5 };
        let b = CpuTime { user_s: 1.75, sys_s: 0.75 };
        assert_eq!(b.since(&a), CpuTime { user_s: 0.75, sys_s: 0.25 });
    }

    #[test]
    fn status_fields_parse_in_mib_and_do_not_match_prefixes() {
        let status = "Name:\tmea-e2e\nVmPeak:\t  999999 kB\nVmHWM:\t   71680 kB\nVmRSS:\t   51200 kB\n";
        assert_eq!(parse_status_mib(status, "VmHWM"), Some(70.0));
        assert_eq!(parse_status_mib(status, "VmRSS"), Some(50.0));
        assert_eq!(parse_status_mib(status, "Vm"), None);
        assert_eq!(parse_status_mib(status, "VmSwap"), None);
    }

    #[test]
    fn this_process_has_cpu_time_and_memory() {
        assert!(cpu_time().total_s() >= 0.0);
        assert!(status_mib("VmHWM") >= status_mib("VmRSS") * 0.5);
    }
}
