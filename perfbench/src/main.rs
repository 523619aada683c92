//! `rtx-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--size tiny|full]`
//!
//! Prints one line per metric, then one JSON object as the last line of
//! standard output. Exits 1 without a result if an argument is bad or an
//! output check fails.

use std::path::PathBuf;
use std::process::ExitCode;

use rtx_perfbench::bench::{self, Config};
use rtx_perfbench::workloads::Which;

const USAGE: &str =
    "usage: rtx-perfbench --workload <cca_burst|shared_burst|disk_steady|serve_day> \
--seed <n> --seconds <s> --trace <0|1> [--size tiny|full]";

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut which, mut seed, mut seconds, mut trace, mut tiny) = (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => which = Some(Which::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--size" => {
                tiny = match value.as_str() {
                    "tiny" => true,
                    "full" => false,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let which = which.ok_or("missing --workload")?;
    let seed = seed.ok_or("missing --seed")?;
    let spans_out = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.spans.csv", which.name()));
    Ok(Config {
        which,
        seed,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        tiny,
        spans_out,
    })
}

/// Pin glibc's allocation thresholds to their initial values. By
/// default glibc raises them the first time a large block is freed, and
/// whether later engines' multi-MB pair caches then come fresh from
/// `mmap` or recycled from the heap depends on the allocation history:
/// the same set-up took 0.085 s in one run and 0.023 s in another, with
/// 28 MB against 36 MB peak RSS. Pinned, every large block is mapped
/// fresh, in every run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    for param in [M_TRIM_THRESHOLD, M_MMAP_THRESHOLD] {
        // SAFETY: `mallopt` takes two integers, reads no memory of ours,
        // and is called before this process starts any other thread.
        let ok = unsafe { mallopt(param, 128 * 1024) };
        assert_eq!(ok, 1, "mallopt({param}) failed");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_thresholds() {}

fn main() -> ExitCode {
    pin_malloc_thresholds();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let report = match bench::run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: output check failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# {} seed={} trace={} cycles={} host_cores={cores}",
        cfg.which.name(),
        cfg.seed,
        u8::from(cfg.trace),
        report.cycles
    );
    for (name, value, unit) in &report.metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
