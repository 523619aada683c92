//! Tiny-size self-test of the benchmark: every workload runs in both
//! modes, passes its output checks (a failed check exits non-zero with
//! no result line) and prints every metric of its mode with its unit;
//! `BENCHMARK.json` and `record.json` list the same metrics.

use std::path::Path;
use std::process::{Command, Output};

use rtx_perfbench::metrics::{self, Metric};
use rtx_perfbench::workloads::Which;

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rtx-perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

/// The unit printed for `name` in a result line, if the metric is there.
fn unit_of<'a>(result: &'a str, name: &str) -> Option<&'a str> {
    let at = result.find(&format!("\"{name}\": {{\"value\": "))?;
    let rest = &result[at..];
    let unit = &rest[rest.find("\"unit\": \"")? + 9..];
    Some(&unit[..unit.find('"')?])
}

#[test]
fn every_workload_passes_its_checks_and_prints_every_metric() {
    for which in Which::ALL {
        for trace in ["0", "1"] {
            let args = [
                "--workload",
                which.name(),
                "--seed",
                "3",
                "--seconds",
                "0.2",
                "--trace",
                trace,
                "--size",
                "tiny",
            ];
            let out = bench(&args);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{args:?} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = stdout.lines().last().expect("a result line");
            assert!(
                result.starts_with("{\"correct\": true, \"attempted\": ")
                    && result.contains("\"failed\": 0,"),
                "{args:?}: {result}"
            );
            let table = metrics::for_mode(trace == "1");
            for m in table {
                assert_eq!(
                    unit_of(result, m.name),
                    Some(m.unit),
                    "{args:?}: {}",
                    m.name
                );
            }
            assert_eq!(
                result.matches("\"unit\": ").count(),
                table.len(),
                "{args:?}: extra metrics"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "cca_burst", "--seed", "1", "--seconds", "1"][..],
        &[
            "--workload",
            "cca_burst",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "cca_burst",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = bench(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

fn all_metrics() -> impl Iterator<Item = &'static Metric> {
    metrics::END_TO_END.iter().chain(metrics::PER_LAYER)
}

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn benchmark_json_lists_every_metric_and_workload() {
    let json = read("../BENCHMARK.json");
    for m in all_metrics() {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            m.name,
            m.unit,
            m.better.as_str()
        );
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(json.matches("\"unit\": ").count(), all_metrics().count());
    for which in Which::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", which.name())));
    }
}

#[test]
fn record_json_maps_every_metric_to_its_layer_and_workloads() {
    let record = read("record.json");
    for m in all_metrics() {
        let entry = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"layer\": \"{}\", \"moves\": \"{}\", \"on\": \"{}\"",
            m.name, m.unit, m.layer, m.moves, m.on
        );
        assert!(record.contains(&entry), "record.json lacks {entry}");
    }
    assert_eq!(record.matches("\"layer\": ").count(), all_metrics().count());
}
