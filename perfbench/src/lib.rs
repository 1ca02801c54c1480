//! The repository benchmark for the Attaché simulator.
//!
//! One command runs one of four workloads (`stream`, `chase`, `rand`,
//! `sweep`) for a fixed number of seconds and prints one JSON result line.
//! With `--trace 0` it reports the end-to-end metrics (host throughput,
//! set-up time, memory); with `--trace 1` it reports per-layer metrics from
//! a traced run that times each crate from outside through its public
//! functions. See `perfbench/README.md` for the metrics and why each
//! workload exists.

pub(crate) mod calib;
pub mod jobs;
pub mod replay;
pub mod report;
pub mod spans;
pub mod timed;
pub mod traced;

use std::path::Path;
use std::sync::Once;

use jobs::{Setting, Workload};
use report::Metrics;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Seconds the run measures for.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: the traced per-layer run.
    pub trace: bool,
    /// Set (by `--part <instructions>:<warm-up>:<set-up rounds>`) in a
    /// child process running one part of a timed run at that run length.
    pub part: Option<PartArgs>,
}

/// The run length and set-up rounds of one part of a timed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartArgs {
    /// Measured instructions per core.
    pub instructions: u64,
    /// Warm-up instructions per core.
    pub warmup: u64,
    /// Set-up rounds.
    pub setup_rounds: usize,
}

impl Args {
    /// The workload's setting for this run: its benchmark setting, at the
    /// run length `--part` names, if any.
    pub fn setting(&self) -> Setting {
        let mut setting = self.workload.setting(self.seed);
        if let Some(part) = self.part {
            setting.instructions = part.instructions;
            setting.warmup = part.warmup;
        }
        setting
    }
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`, and
/// the `--part` a timed run gives its child processes.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut part = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    format!("unknown workload {value:?} (expected stream, chase, rand or sweep)")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--part" => {
                let bad = || format!("bad --part {value:?}");
                let fields: Vec<&str> = value.split(':').collect();
                let [instructions, warmup, setup_rounds] = fields[..] else {
                    return Err(bad());
                };
                part = Some(PartArgs {
                    instructions: instructions.parse().map_err(|_| bad())?,
                    warmup: warmup.parse().map_err(|_| bad())?,
                    setup_rounds: setup_rounds.parse().map_err(|_| bad())?,
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
        part,
    })
}

/// What a run measured and whether its outputs were correct.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted: simulation jobs, plus replay and engine checks
    /// in the traced run.
    pub attempted: u64,
    /// Operations that panicked or failed an output check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// The reported metrics.
    pub metrics: Metrics,
}

/// Counts operations and their failures while a run goes.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Records one operation; it failed if it left any problem.
    pub(crate) fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        self.failed += u64::from(!problems.is_empty());
        self.problems.extend(problems);
    }

    /// The run's outcome with `metrics`.
    pub(crate) fn finish(self, metrics: Metrics) -> Outcome {
        Outcome {
            attempted: self.attempted,
            failed: self.failed,
            problems: self.problems,
            metrics,
        }
    }
}

impl Outcome {
    /// Whether every operation passed and every metric is a number.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.non_finite().is_empty()
    }

    /// The JSON result line.
    pub fn json(&self) -> String {
        report::result_json(self.correct(), self.attempted, self.failed, &self.metrics)
    }
}

/// Makes the simulator's environment knobs hermetic: every `ATTACHE_*`
/// variable inherited from the caller is dropped, then the grid's report
/// cache is disabled (every job simulates) and its pool gets one worker
/// per host core. Runs once per process, before any knob is read.
pub fn prepare_env() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("ATTACHE_") {
                std::env::remove_var(&key);
            }
        }
        std::env::set_var("ATTACHE_NO_CACHE", "1");
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::set_var("ATTACHE_WORKERS", cores.to_string());
    });
}

/// Runs `args.workload` under `setting` (its run length and seed). `exe`
/// is the benchmark's own binary, which a timed run starts its parts
/// with.
pub fn run_with(args: &Args, setting: &Setting, exe: &Path) -> Outcome {
    prepare_env();
    if args.trace {
        traced::run(args.workload, setting, args.seconds)
    } else {
        timed::run(args.workload, setting, args.seconds, exe)
    }
}

/// Runs `args.workload` at its benchmark setting.
pub fn run(args: &Args, exe: &Path) -> Outcome {
    run_with(args, &args.setting(), exe)
}
