//! Self-test: a tiny-scale run of every workload completes, passes its
//! correctness checks, and prints every metric `BENCHMARK.json` names.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Values of every `"name": "..."` entry inside the `key` array of the
/// benchmark description (a flat scan: the file has no nested names).
fn names_in(key: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let rest = &BENCHMARK_JSON[start..];
    let end = rest.find(']').expect("array closes");
    rest[..end]
        .split("\"name\"")
        .skip(1)
        .map(|chunk| {
            let open = chunk.find('"').expect("name value") + 1;
            let close = open + chunk[open..].find('"').expect("name value ends");
            chunk[open..close].to_string()
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "2",
            "--trace",
            if trace { "1" } else { "0" },
            "--scale",
            "tiny",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str, trace: bool, names: &[String]) -> String {
    let line = run(workload, trace);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    for name in names {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{workload} trace={trace} did not print {name}: {line}"
        );
    }
    let printed = line.matches("{\"value\": ").count();
    assert_eq!(
        printed,
        names.len(),
        "{workload} trace={trace} printed extra metrics: {line}"
    );
    line
}

#[test]
fn every_workload_prints_every_metric() {
    let workloads = names_in("workloads");
    assert_eq!(workloads, ["chat_cold", "serve_shared"]);
    let end_to_end = names_in("end_to_end");
    let per_layer = names_in("per_layer");
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    // `session_growth` is a diagnostic workload outside BENCHMARK.json; it
    // reports the same metrics.
    for w in workloads
        .iter()
        .map(String::as_str)
        .chain(["session_growth"])
    {
        check(w, false, &end_to_end);
        let traced = check(w, true, &per_layer);
        if w != "serve_shared" {
            assert!(
                traced.contains("\"trace.counters_repeat\": {\"value\": 1,"),
                "{w}: exact counters differ between the plain and traced pass: {traced}"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--workload", "chat_cold", "--trace", "2"],
        vec!["--seconds", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
