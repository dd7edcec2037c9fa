//! `--repeat-check N`: runs every workload in two sets of N runs of this
//! same binary, each run on its own seed, and holds the two sets against
//! the benchmark's own bounds — the acceptance check, runnable locally.

use crate::report::{correct_in_result, value_in_result, MetricSpec, END_TO_END, RUN_SECONDS};
use crate::stats::{median, quartiles, spread};
use crate::workload::WORKLOADS;
use std::process::{Command, ExitCode};

/// One end-to-end run as a child process; the values of `END_TO_END` in
/// table order, or a description of what went wrong.
fn one_run(workload: &str, seed: u64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} seed {seed}: exit {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or_else(|| format!("{workload} seed {seed}: no output"))?;
    if !correct_in_result(line) {
        return Err(format!("{workload} seed {seed}: not correct: {line}"));
    }
    END_TO_END
        .iter()
        .map(|m| value_in_result(line, m.name).ok_or_else(|| format!("{workload} seed {seed}: no {}", m.name)))
        .collect()
}

/// What one metric's two sets say: the line to print and whether a bound
/// was crossed.
fn judge(spec: &MetricSpec, first: &[f64], second: &[f64]) -> (String, bool) {
    let (m1, m2) = (median(first), median(second));
    let (q1, q2) = (quartiles(first), quartiles(second));
    let worse = spec.better.worse_by(m1, m2);
    let all: Vec<f64> = first.iter().chain(second).copied().collect();
    let all_spread = spread(&all);
    let fails = worse > spec.bound || all_spread > spec.bound;
    let line = format!(
        "  {:<22} set1 {:>11.4} [{:>11.4} {:>11.4}]  set2 {:>11.4} [{:>11.4} {:>11.4}]  second worse by {:>+7.2} % \
         (bound {:>5.1} %)  spread {:>6.2} %{}",
        spec.name,
        m1,
        q1[0],
        q1[2],
        m2,
        q2[0],
        q2[2],
        100.0 * worse,
        100.0 * spec.bound,
        100.0 * all_spread,
        if fails { "  <-- PAST BOUND" } else { "" }
    );
    (line, fails)
}

/// Runs the check with `n` runs per set; non-zero exit past any bound.
pub fn check(n: usize) -> ExitCode {
    let mut failures = 0usize;
    for w in &WORKLOADS {
        let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        for (s, set) in sets.iter_mut().enumerate() {
            for i in 0..n {
                let seed = (s * n + i + 1) as u64;
                match one_run(w.name, seed) {
                    Ok(values) => set.push(values),
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
                eprintln!("{} set {} run {}/{n} done", w.name, s + 1, i + 1);
            }
        }
        println!("{} ({n} runs per set, medians [q1 q3]; spread = IQR/median of all {} runs):", w.name, 2 * n);
        for (k, spec) in END_TO_END.iter().enumerate() {
            let column = |set: &Vec<Vec<f64>>| set.iter().map(|run| run[k]).collect::<Vec<f64>>();
            let (line, fails) = judge(spec, &column(&sets[0]), &column(&sets[1]));
            println!("{line}");
            failures += usize::from(fails);
        }
    }
    if failures == 0 {
        println!("repeat check passed: every metric of every workload within its bound");
        ExitCode::SUCCESS
    } else {
        println!("repeat check FAILED: {failures} metric/workload pairs past their bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Better;

    const LOWER: MetricSpec = MetricSpec { name: "cloud_p50_ms", unit: "ms", better: Better::Lower, bound: 0.10 };

    #[test]
    fn sets_that_agree_pass() {
        let (line, fails) = judge(&LOWER, &[10.0, 10.2, 9.9], &[10.1, 10.3, 10.0]);
        assert!(!fails, "{line}");
        assert!(line.contains("second worse by"));
    }

    #[test]
    fn a_second_set_past_the_bound_fails() {
        let (line, fails) = judge(&LOWER, &[10.0, 10.1, 9.9], &[11.5, 11.6, 11.4]);
        assert!(fails && line.contains("PAST BOUND"), "{line}");
        // Better in the second set is never a failure of the median rule.
        let (_, fails) = judge(&LOWER, &[11.5, 11.6, 11.4], &[11.0, 11.1, 10.9]);
        assert!(!fails);
    }

    #[test]
    fn a_wide_spread_fails_even_when_the_medians_agree() {
        let noisy = [8.0, 10.0, 12.0];
        assert!(judge(&LOWER, &noisy, &noisy).1);
    }
}
