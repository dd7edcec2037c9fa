//! End-to-end serving benchmark of the MEANet edge-cloud runtime.
//!
//! ```text
//! mea-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mea-e2e --repeat-check <runs-per-set>
//! mea-e2e --print-benchmark-json
//! ```
//!
//! One run pins itself to one CPU (`pin`), sets the system up, serves a
//! warm-up chunk and twelve rounds of (saturated chunk, paced window)
//! through `mea_edgecloud::serve::Fleet`, checks every record against the
//! offline Algorithm-2 sweep, and prints the metrics by name followed by
//! one JSON result line. `--trace 1` reports the per-layer metrics instead
//! and writes the span file.

mod alloc;
mod layers;
mod measure;
mod pin;
mod procfs;
mod repeat;
mod report;
mod spans;
mod stats;
mod system;
#[cfg(test)]
mod tests;
mod traffic;
mod verify;
mod workload;

use report::{Values, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Arguments of one benchmark run.
struct RunArgs {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: mea-e2e --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         mea-e2e --repeat-check <runs-per-set>\n       mea-e2e --print-benchmark-json",
        names.join("|")
    )
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn run(args: &RunArgs) {
    let w = args.workload;
    // Before the first thread is spawned, so that every thread inherits it.
    let pinned = match pin::pin_to_last_cpu() {
        Some(cpu) => format!("pinned to cpu {cpu}"),
        None => "NOT pinned: timings flip between scheduler modes".to_owned(),
    };
    println!(
        "workload {} seed {} seconds {} trace {} ({} cores, {pinned})",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let t0 = Instant::now();
    let (mut system, mut fleet) = system::set_up(w);
    let setup_s = t0.elapsed().as_secs_f64();
    let reference = verify::Reference::sweep(&mut system, w);
    let rss_before_mib = procfs::status_mib("VmRSS");

    let mut m = measure::run(w, &system, &mut fleet, &reference, args.seed, args.seconds, args.trace);
    for (phase, c) in [("warm", m.warm), ("saturated", m.saturated), ("paced", m.paced)] {
        println!("phase {phase:<10} attempted {:>7} failed {:>5}", c.attempted, c.failed);
    }
    println!(
        "saturated throughput is {:.0} % of the frozen {} 1/s; paced at {} Hz = {:.0} % of it",
        100.0 * m.throughput_rps() / w.frozen_rps,
        w.frozen_rps,
        w.paced_hz,
        100.0 * w.paced_hz / m.throughput_rps()
    );
    let attempted = m.warm.attempted + m.measured_attempted();
    let failed = m.warm.failed + m.saturated.failed + m.paced.failed;

    // The end-to-end metrics are computed on every run; a traced run lists
    // them for orientation only (its saturated chunks ran with allocation
    // counting on) and reports the per-layer table.
    let mut e2e = Values::default();
    let measured = m.measured_attempted() as f64;
    e2e.set("throughput_rps", m.throughput_rps());
    e2e.set("cpu_ms_per_req", m.cpu_ms_per_req());
    for (name, exit, pool) in [
        ("main_p50_ms", "main", &mut m.main),
        ("extension_p50_ms", "extension", &mut m.extension),
        ("cloud_p50_ms", "cloud", &mut m.cloud),
    ] {
        e2e.set(name, pool.percentile_ms(0.50, exit));
        println!("{name}: {} samples", pool.count());
    }
    e2e.set("slo_met_share", m.slo_met as f64 / m.paced.attempted as f64);
    let uplink = m.sat_stats.bytes_to_cloud + m.paced_stats.bytes_to_cloud;
    e2e.set("uplink_bytes_per_req", uplink as f64 / measured);
    e2e.set("accuracy_share", m.correct_records as f64 / measured);
    e2e.set("setup_s", setup_s);

    let layer_values = args.trace.then(|| {
        let (values, spans) = layers::profile(w, &mut system, &mut m, rss_before_mib, args.seed);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target/e2e-trace")
            .join(format!("{}-seed{}.json", w.name, args.seed));
        match spans::write_span_file(&path, w.name, args.seed, &spans) {
            Ok(()) => println!("span file {} ({} spans)", path.display(), spans.len()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
        values
    });
    e2e.set("peak_rss_mib", procfs::status_mib("VmHWM"));
    let (values, table) = match layer_values {
        Some(values) => {
            print!("end-to-end metrics of this traced run (not reported):\n{}", e2e.listing(&END_TO_END));
            (values, &PER_LAYER[..])
        }
        None => (e2e, &END_TO_END[..]),
    };
    print!("{}", values.listing(table));
    println!("{}", values.result_line(table, attempted, failed));
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--print-benchmark-json") if args.len() == 1 => {
            print!("{}", report::benchmark_json());
            ExitCode::SUCCESS
        }
        Some("--repeat-check") if args.len() == 2 => match args[1].parse::<usize>() {
            Ok(n) if n >= 2 => repeat::check(n),
            _ => {
                eprintln!("--repeat-check needs a set size of at least 2\n{}", usage());
                ExitCode::from(2)
            }
        },
        _ => match parse_run(&args) {
            Ok(run_args) => {
                run(&run_args);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}\n{}", usage());
                ExitCode::from(2)
            }
        },
    }
}
