//! A held-out seed run: every workload, timed and traced, at a short run
//! length and a seed other than the default 42, must pass its output
//! checks and print exactly the metrics `BENCHMARK.json` declares, with
//! the declared units.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build of the simulator makes this test take minutes).

use attache_perfbench::jobs::Workload;
use attache_perfbench::report::valid_name;
use attache_perfbench::{run_with, Args};

const HELD_OUT_SEED: u64 = 7;

/// `(name, unit)` of every metric object in `section` of BENCHMARK.json.
/// The file is written by hand in a fixed layout: each metric is one
/// `{"name": ..., "unit": ..., ...}` object inside its section's array.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section} in BENCHMARK.json"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section array closes")];
    let field = |obj: &str, key: &str| -> String {
        let tag = format!("\"{key}\": \"");
        let at = obj.find(&tag).unwrap_or_else(|| panic!("{key} in {obj}")) + tag.len();
        obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn run_short(workload: Workload, trace: bool) -> Vec<(String, String)> {
    let mut setting = workload.setting(HELD_OUT_SEED);
    setting.instructions = 2_000;
    setting.warmup = 400;
    setting.replay_events = 300;
    let args = Args {
        workload,
        seed: HELD_OUT_SEED,
        seconds: 0.01,
        trace,
        part: None,
    };
    let exe = std::path::Path::new(env!("CARGO_BIN_EXE_attache-perfbench"));
    let outcome = run_with(&args, &setting, exe);
    assert!(
        outcome.correct(),
        "{} trace={trace}: {:?}",
        workload.name(),
        outcome.problems
    );
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted > 0);
    outcome
        .metrics
        .items()
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_declared_metric_is_produced_for_a_held_out_seed() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for (name, _) in end_to_end.iter().chain(&per_layer) {
        assert!(valid_name(name), "invalid metric name {name:?}");
    }
    for workload in Workload::ALL {
        assert_eq!(
            run_short(workload, false),
            end_to_end,
            "{}",
            workload.name()
        );
        assert_eq!(run_short(workload, true), per_layer, "{}", workload.name());
    }
}
