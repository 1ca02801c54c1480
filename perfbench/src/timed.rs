//! The timed run: the end-to-end metrics.
//!
//! A run is split into a few parts, each a child process of the benchmark
//! run one after another. A part measures a reference run (see
//! [`crate::calib`]), a few set-up rounds, then whole passes over the
//! workload's fixed job set for its share of the seconds, with every
//! job's output checked, and prints its samples. The parent pools every
//! part's samples into the metrics. Every host time is scaled to the
//! reference host speed.
//!
//! Why parts: each process gets its own randomized address layout, and the
//! layout alone moves a whole process's speed. On the 2-vCPU host this was
//! tuned on, five `rand` runs of one process each spread 0.09 (quartile
//! distance ÷ median of `wall_s`) with address-space randomization on and
//! 0.045 with it off, at the same median. Turning it off would fix one
//! layout per build and bias every comparison; pooling several processes
//! averages over layouts instead.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::calib::{Reference, REF_S};
use crate::jobs::{Job, JobResult, Setting, Workload};
use crate::report::{median, quantile, Metrics};
use crate::{Outcome, Tally};

/// Set-up rounds per part; `setup_s` is the median over every part's.
/// The first two or three rounds of a process run cold (three to six
/// times a warm round), so a part runs many more than that.
const SETUP_ROUNDS: usize = 24;
/// Host seconds of jobs between two reference runs, so a part's reference
/// runs are spread over its whole length.
const SEGMENT_S: f64 = 0.5;

/// One pass over the job set.
#[derive(Debug)]
pub(crate) struct Pass {
    /// Every job's result, in job order.
    pub results: Vec<JobResult>,
    /// Host time of the whole pass, reference runs included.
    pub host: Duration,
}

/// One pass over the job set, back to back on one thread, with a
/// reference run after every [`SEGMENT_S`] of jobs and at the end; each
/// reference run's seconds are appended to `reference_s`. One thread keeps
/// the jobs from contending with each other for the host's caches and
/// memory bandwidth, which made two-worker passes several times less
/// steady from run to run on a 2-core host.
pub(crate) fn pass(
    jobs: &[Job],
    setting: &Setting,
    reference: &mut Reference,
    reference_s: &mut Vec<f64>,
) -> Pass {
    let start = Instant::now();
    let mut results: Vec<JobResult> = Vec::with_capacity(jobs.len());
    let mut segment_s = 0.0;
    for (i, job) in jobs.iter().enumerate() {
        let result = job.run_checked(setting);
        segment_s += result.elapsed.as_secs_f64();
        results.push(result);
        if segment_s >= SEGMENT_S || i + 1 == jobs.len() {
            reference_s.push(reference.time());
            segment_s = 0.0;
        }
    }
    Pass {
        results,
        host: start.elapsed(),
    }
}

/// Child processes a timed run of `workload` is split into. A `sweep`
/// pass takes about 8 s, so it gets fewer parts, each of one pass.
pub fn parts(workload: Workload) -> usize {
    match workload {
        Workload::Sweep => 3,
        _ => 4,
    }
}

/// What one pass measured, in host seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassStats {
    /// The pass's jobs, summed (reference runs excluded).
    pub jobs_s: f64,
    /// The median job.
    pub p50_s: f64,
    /// The 90th-percentile job.
    pub p90_s: f64,
    /// The whole pass, reference runs included.
    pub host_s: f64,
}

/// What one part of a timed run measured, as its child process prints it.
/// Times are host seconds, not yet scaled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Part {
    /// Jobs run (set-up rounds included).
    pub attempted: u64,
    /// Jobs that panicked or failed an output check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Every reference run, in order.
    pub reference_s: Vec<f64>,
    /// Every set-up round.
    pub setup_s: Vec<f64>,
    /// Every pass, in order.
    pub passes: Vec<PassStats>,
    /// Measured-region bus cycles summed over the job set.
    pub bus_cycles: u64,
    /// Retired instructions summed over the job set.
    pub instructions: u64,
    /// A digest of each job's `report_io` text, in job order.
    pub digests: Vec<u64>,
    /// Peak resident memory of the process in MB after set-up and the
    /// first pass, less the reference kernel's arrays.
    pub peak_rss_mb: f64,
}

impl Part {
    /// The factor that scales this part's host seconds to the reference
    /// host speed: from the median of its reference runs, which spans the
    /// part's seconds-long drift without adding any one run's noise.
    pub fn scale(&self) -> f64 {
        if self.reference_s.is_empty() {
            f64::NAN
        } else {
            REF_S / median(&self.reference_s)
        }
    }
}

/// One part of a timed run, in this process: `setup_rounds` set-up
/// rounds, then passes while the next one is expected to end within
/// `seconds` (at least one), with reference runs before, between and
/// after.
pub fn part(workload: Workload, setting: &Setting, seconds: f64, setup_rounds: usize) -> Part {
    let clock = Instant::now();
    let jobs = crate::jobs::jobs(workload, &workload.strategies());
    let mut tally = Tally::default();
    let mut reference = Reference::new();
    let mut out = Part::default();

    // Set-up: every job at one instruction per core.
    let tiny = setting.setup_only();
    out.reference_s.push(reference.time());
    for _ in 0..setup_rounds {
        let start = Instant::now();
        for job in &jobs {
            tally.record(job.run_checked(&tiny).problems);
        }
        out.setup_s.push(start.elapsed().as_secs_f64());
    }
    out.reference_s.push(reference.time());

    // Measurement. Job percentiles are taken over each pass's jobs (110
    // samples for the sweep, so its p90 has 11 beyond it).
    let mut first_texts: Vec<String> = Vec::new();
    loop {
        let Pass { results, host } = pass(&jobs, setting, &mut reference, &mut out.reference_s);
        let job_s: Vec<f64> = results.iter().map(|r| r.elapsed.as_secs_f64()).collect();
        out.passes.push(PassStats {
            jobs_s: job_s.iter().sum(),
            p50_s: median(&job_s),
            p90_s: quantile(&job_s, 0.9),
            host_s: host.as_secs_f64(),
        });
        let first = first_texts.is_empty();
        if first {
            // Peak memory grows over the first passes of a process, and
            // how many passes a part fits depends on the host's speed, so
            // the peak is read after a fixed amount of work.
            out.peak_rss_mb = peak_rss_mb() - reference.resident_bytes() as f64 / (1024.0 * 1024.0);
        }
        for (i, r) in results.into_iter().enumerate() {
            let mut bad = r.problems;
            if first {
                if let Some(rep) = &r.report {
                    out.bus_cycles += rep.bus_cycles;
                    out.instructions += rep.total_instructions();
                }
                out.digests.push(digest(&r.text));
                first_texts.push(r.text);
            } else if bad.is_empty() && r.text != first_texts[i] {
                bad.push(format!(
                    "{}: report differs from the first pass",
                    jobs[i].label
                ));
            }
            tally.record(bad);
        }
        let host_s: Vec<f64> = out.passes.iter().map(|p| p.host_s).collect();
        if clock.elapsed().as_secs_f64() + median(&host_s) > seconds {
            break;
        }
    }

    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.problems = tally.problems;
    out
}

/// FNV-1a digest of a report's text.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Prefix of every line a part prints; other lines are ignored.
const PART_PREFIX: &str = "part ";

impl Part {
    /// The part as the lines its child process prints.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut line = |body: String| {
            let _ = writeln!(out, "{PART_PREFIX}{body}");
        };
        line(format!("tally {} {}", self.attempted, self.failed));
        for p in &self.problems {
            line(format!("problem {}", p.replace('\n', " ")));
        }
        for s in &self.reference_s {
            line(format!("reference {s:?}"));
        }
        for s in &self.setup_s {
            line(format!("setup {s:?}"));
        }
        for p in &self.passes {
            line(format!(
                "pass {:?} {:?} {:?} {:?}",
                p.jobs_s, p.p50_s, p.p90_s, p.host_s
            ));
        }
        line(format!("work {} {}", self.bus_cycles, self.instructions));
        for d in &self.digests {
            line(format!("report {d:016x}"));
        }
        line(format!("rss {:?}", self.peak_rss_mb));
        out
    }

    /// Parses what [`to_text`](Self::to_text) printed, ignoring lines
    /// without the part prefix.
    pub fn parse(text: &str) -> Result<Part, String> {
        let mut part = Part::default();
        let mut seen_tally = false;
        for line in text.lines() {
            let Some(body) = line.strip_prefix(PART_PREFIX) else {
                continue;
            };
            let (key, rest) = body.split_once(' ').unwrap_or((body, ""));
            let bad = || format!("malformed part line {line:?}");
            let nums = |n: usize| -> Result<Vec<f64>, String> {
                let v: Vec<f64> = rest
                    .split(' ')
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad())?;
                if v.len() == n {
                    Ok(v)
                } else {
                    Err(bad())
                }
            };
            let ints = || -> Result<(u64, u64), String> {
                let (a, b) = rest.split_once(' ').ok_or_else(bad)?;
                Ok((a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?))
            };
            match key {
                "tally" => {
                    (part.attempted, part.failed) = ints()?;
                    seen_tally = true;
                }
                "problem" => part.problems.push(rest.to_string()),
                "reference" => part.reference_s.push(nums(1)?[0]),
                "setup" => part.setup_s.push(nums(1)?[0]),
                "pass" => {
                    let v = nums(4)?;
                    part.passes.push(PassStats {
                        jobs_s: v[0],
                        p50_s: v[1],
                        p90_s: v[2],
                        host_s: v[3],
                    });
                }
                "work" => (part.bus_cycles, part.instructions) = ints()?,
                "report" => part
                    .digests
                    .push(u64::from_str_radix(rest, 16).map_err(|_| bad())?),
                "rss" => part.peak_rss_mb = nums(1)?[0],
                _ => return Err(bad()),
            }
        }
        if !seen_tally || part.passes.is_empty() || part.reference_s.is_empty() {
            return Err("part printed no tally, pass or reference run".to_string());
        }
        Ok(part)
    }
}

/// Runs one part as a child process of `exe`, the benchmark's own binary,
/// and waits for it.
fn spawn_part(
    exe: &Path,
    workload: Workload,
    setting: &Setting,
    seconds: f64,
    setup_rounds: usize,
) -> Result<Part, String> {
    let output = Command::new(exe)
        .args([
            "--workload",
            workload.name(),
            "--seed",
            &setting.seed.to_string(),
            "--seconds",
            &seconds.max(1e-3).to_string(),
            "--trace",
            "0",
            "--part",
            &format!("{}:{}:{setup_rounds}", setting.instructions, setting.warmup),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("could not start {}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!("exited with {}", output.status));
    }
    Part::parse(&String::from_utf8_lossy(&output.stdout))
}

/// The timed run of `workload`: [`parts`] child processes of `exe` one
/// after another, each given an equal share of the seconds left, pooled.
pub fn run(workload: Workload, setting: &Setting, seconds: f64, exe: &Path) -> Outcome {
    let clock = Instant::now();
    let n = parts(workload);
    let mut tally = Tally::default();
    let mut done = Vec::with_capacity(n);
    for k in 0..n {
        let share = (seconds - clock.elapsed().as_secs_f64()) / (n - k) as f64;
        match spawn_part(exe, workload, setting, share, SETUP_ROUNDS) {
            Ok(part) => done.push(part),
            Err(e) => tally.record(vec![format!("timed part {k}: {e}")]),
        }
    }
    pool(workload, &done, tally)
}

/// The end-to-end metrics from every part's samples, each part's scaled
/// by its own [`Part::scale`]: medians over all passes and set-up rounds,
/// and the largest peak memory. Every part must produce the same reports
/// as the first.
pub(crate) fn pool(workload: Workload, parts: &[Part], mut tally: Tally) -> Outcome {
    let mut setup = Vec::new();
    let mut wall = Vec::new();
    let mut p50 = Vec::new();
    let mut p90 = Vec::new();
    let mut peak = f64::NAN;
    for (k, part) in parts.iter().enumerate() {
        tally.attempted += part.attempted;
        tally.failed += part.failed;
        tally.problems.extend(part.problems.iter().cloned());
        if k > 0 {
            let same = part.digests == parts[0].digests;
            tally.record(if same {
                Vec::new()
            } else {
                vec![format!("timed part {k}: reports differ from part 0's")]
            });
        }
        let scale = part.scale();
        setup.extend(part.setup_s.iter().map(|s| s * scale));
        wall.extend(part.passes.iter().map(|p| p.jobs_s * scale));
        p50.extend(part.passes.iter().map(|p| p.p50_s * scale));
        p90.extend(part.passes.iter().map(|p| p.p90_s * scale));
        peak = peak.max(part.peak_rss_mb);
        let host: Vec<f64> = part.passes.iter().map(|p| p.jobs_s).collect();
        eprintln!(
            "[perfbench] {} part {k}: {} passes, host seconds {host:.4?}, \
             reference median {:.4} s over {} runs",
            workload.name(),
            host.len(),
            REF_S / scale,
            part.reference_s.len(),
        );
    }
    let med = |v: &[f64]| if v.is_empty() { f64::NAN } else { median(v) };
    let wall = med(&wall);
    let (bus_cycles, instructions) = parts
        .first()
        .map_or((0, 0), |p| (p.bus_cycles, p.instructions));
    let mut metrics = Metrics::default();
    metrics.push("wall_s", wall, "s");
    metrics.push("sim_mcyc_per_s", bus_cycles as f64 / 1e6 / wall, "Mcyc/s");
    metrics.push(
        "sim_minstr_per_s",
        instructions as f64 / 1e6 / wall,
        "Minstr/s",
    );
    metrics.push("peak_rss_mb", peak, "MB");
    metrics.push("setup_s", med(&setup), "s");
    metrics.push("job_p50_s", med(&p50), "s");
    metrics.push("job_p90_s", med(&p90), "s");
    tally.finish(metrics)
}

/// Peak resident set size of this process in MB (`VmHWM`), or NaN where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(scale: f64) -> Part {
        Part {
            attempted: 7,
            failed: 1,
            problems: vec!["STREAM/Cram: energy NaN pJ is not finite and positive".into()],
            reference_s: vec![0.5 * REF_S / scale, REF_S / scale, 2.0 * REF_S / scale],
            setup_s: vec![0.0011, 0.00093],
            passes: vec![
                PassStats {
                    jobs_s: 2.5,
                    p50_s: 0.8,
                    p90_s: 0.9,
                    host_s: 3.1,
                },
                PassStats {
                    jobs_s: 2.7,
                    p50_s: 0.85,
                    p90_s: 0.95,
                    host_s: 3.3,
                },
            ],
            bus_cycles: 1_000_000,
            instructions: 6_000_000,
            digests: vec![digest("a"), digest("b")],
            peak_rss_mb: 21.5 * scale,
        }
    }

    #[test]
    fn parts_round_trip_through_their_text() {
        let part = sample(1.0 / 3.0);
        let text = format!("noise a job printed\n{}", part.to_text());
        assert_eq!(Part::parse(&text), Ok(part));
        assert!(Part::parse("part tally 1 0\n").is_err(), "no pass");
        assert!(Part::parse("part pass 1 2 3\npart tally 1 0\n").is_err());
    }

    #[test]
    fn pooling_takes_medians_over_every_part() {
        let outcome = pool(
            Workload::Stream,
            &[sample(1.0), sample(2.0)],
            Tally::default(),
        );
        let value = |name: &str| {
            outcome
                .metrics
                .items()
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .unwrap()
        };
        // Passes 2.5, 2.7, 5.0, 5.4: median 3.85.
        assert!((value("wall_s") - 3.85).abs() < 1e-12);
        assert!((value("sim_mcyc_per_s") - 1.0 / 3.85).abs() < 1e-12);
        assert_eq!(value("peak_rss_mb"), 43.0);
        // Two parts' tallies plus one cross-part report check.
        assert_eq!((outcome.attempted, outcome.failed), (15, 2));
        assert!(!outcome.correct());

        let mut other = sample(1.0);
        other.digests[1] = digest("c");
        other.failed = 0;
        let mut first = sample(1.0);
        first.failed = 0;
        let outcome = pool(Workload::Stream, &[first, other], Tally::default());
        assert_eq!(outcome.failed, 1, "{:?}", outcome.problems);
    }
}
