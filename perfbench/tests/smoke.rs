//! Smoke test of the benchmark harness: every workload at toy size, in
//! both trace modes, must pass its correctness checks and report exactly
//! the metric names and units `BENCHMARK.json` declares; a planted wrong
//! decision or wrong repair plan must make the workload fail.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` pairs of one `BENCHMARK.json` section, or the workload
/// names (unit empty) for `"workloads"`. A small scanner over the known
/// file layout: one object per line.
fn section(spec: &str, key: &str) -> Vec<(String, String)> {
    let start = spec.find(&format!("\"{key}\"")).expect("section present");
    let body = &spec[start..];
    let end = body.find(']').expect("section closes");
    body[..end]
        .lines()
        .filter_map(|line| {
            let field = |f: &str| {
                let at = line.find(&format!("\"{f}\": \""))? + f.len() + 5;
                Some(line[at..at + line[at..].find('"')?].to_string())
            };
            Some((field("name")?, field("unit").unwrap_or_default()))
        })
        .collect()
}

fn run(workload: &str, trace: bool, plant: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dfi-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            if trace { "1" } else { "0" },
            "--size",
            "toy",
            "--plant",
            plant,
        ])
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 report"),
    )
}

/// `(name, unit)` pairs of the result line's metrics, in order.
fn reported(stdout: &str) -> Vec<(String, String)> {
    let last = stdout.lines().last().expect("a result line");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    let metrics = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
    metrics
        .split("}, ")
        .map(|m| {
            let name = m.trim_start_matches('{');
            let name = &name[1..name[1..].find('"').expect("quoted name") + 1];
            let unit = &m[m.find("\"unit\": \"").expect("unit") + 9..];
            (
                name.to_string(),
                unit[..unit.find('"').expect("unit ends")].to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_reports_the_declared_metrics() {
    let spec =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let workloads = section(&spec, "workloads");
    let names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["fleet", "enterprise", "audit"]);
    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = section(&spec, key);
        for w in &names {
            let (ok, stdout) = run(w, trace, "none");
            assert!(ok, "{w} (trace {trace}) failed:\n{stdout}");
            assert_eq!(reported(&stdout), want, "{w} (trace {trace})");
            let prov = stdout.lines().rev().nth(1).expect("provenance line");
            for field in [
                "\"seed\": 3",
                "\"nproc\"",
                "\"cpu_model\"",
                "\"git_revision\"",
                "\"samples\"",
            ] {
                assert!(
                    prov.contains(field),
                    "{w}: provenance lacks {field}: {prov}"
                );
            }
        }
    }
}

#[test]
fn planted_defects_fail_the_workload() {
    for (w, plant) in [
        ("fleet", "wrong-decision"),
        ("enterprise", "wrong-decision"),
        ("audit", "wrong-plan"),
    ] {
        let (ok, stdout) = run(w, false, plant);
        assert!(!ok, "{w} with a planted {plant} still reported:\n{stdout}");
        assert!(
            !stdout.contains("\"correct\""),
            "{w}: a failed check printed a result"
        );
    }
}
