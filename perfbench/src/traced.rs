//! The traced run: per-layer metrics, measured from outside the simulator.
//!
//! One run does, in order:
//!
//! 1. every job of the set untraced and again with one span around its
//!    `System::run_rate_mode` (or `JobSpec::execute`) call; the two runs
//!    must serialize byte-identically, and their time difference is the
//!    tracing overhead. For `sweep`, the whole grid then runs once more
//!    through `Grid::run` on one worker per host core, and must reproduce
//!    every report;
//! 2. any of MetadataCache / Attache / Cram the job set lacks, so every
//!    workload reports a speed-up for each against Baseline;
//! 3. the slow checks on one Attache job: cycle engine against event
//!    engine (byte-identical reports), the mirror oracle, and an epoch
//!    observer (byte-identical reports, and its cost);
//! 4. the per-layer replay ([`crate::replay`]) of the workload's own
//!    trace and data, repeated while the run's seconds last.
//!
//! Spans are kept in memory and written to
//! `perfbench/out/spans-<workload>-seed<n>.jsonl` at the end.

use std::time::Instant;

use attache_bench::results::ResultSet;
use attache_bench::runner::geo_mean;
use attache_sim::report_io;
use attache_sim::{EngineKind, MetadataStrategyKind, RunReport, System, BUS_CYCLE_NS};

use crate::jobs::{self, core_profiles, Job, JobKind, JobResult, Setting, Workload};
use crate::replay::{replay, ReplayCounts, ReplayInput};
use crate::report::{median, Metrics};
use crate::spans::{self_time_by_name, Recorder};
use crate::{Outcome, Tally};

use MetadataStrategyKind as S;

/// Bus cycles between epoch-observer samples in the observer-cost check.
const EPOCH_TICKS: u64 = 10_000;
/// Rounds of the engine, mirror and observer checks.
const ENGINE_ROUNDS: usize = 3;

/// Strategies every workload reports a speed-up for.
const SPEEDUP_STRATEGIES: [MetadataStrategyKind; 3] = [S::MetadataCache, S::Attache, S::Cram];

/// The traced run of `workload`.
pub fn run(workload: Workload, setting: &Setting, seconds: f64) -> Outcome {
    let clock = Instant::now();
    let mut rec = Recorder::new();
    let mut tally = Tally::default();
    let set = jobs::jobs(workload, &workload.strategies());

    let (pairs, pass_wall) = paired_pass(&mut rec, &set, setting);
    let (untraced, traced): (Vec<JobResult>, Vec<JobResult>) = pairs.into_iter().unzip();
    for (i, (u, t)) in untraced.iter().zip(&traced).enumerate() {
        let mut bad = u.problems.clone();
        bad.extend(t.problems.iter().cloned());
        if bad.is_empty() && u.text != t.text {
            bad.push(format!(
                "{}: traced report differs from untraced",
                set[i].label
            ));
        }
        tally.record(bad);
    }
    let reports: Vec<&RunReport> = untraced.iter().filter_map(|r| r.report.as_ref()).collect();
    let untraced_s: Vec<f64> = untraced.iter().map(|r| r.elapsed.as_secs_f64()).collect();
    let traced_sum: f64 = traced.iter().map(|r| r.elapsed.as_secs_f64()).sum();
    let untraced_sum: f64 = untraced_s.iter().sum();
    // Worker-pool use: the grid's pool for the sweep, the one thread of
    // the paired pass otherwise.
    let (workers, busy, pool_wall) = if workload == Workload::Sweep {
        let (workers, wall) = grid_run(&mut rec, &set, &untraced, setting, &mut tally);
        (workers, untraced_sum, wall)
    } else {
        (1, untraced_sum + traced_sum, pass_wall)
    };

    // Speed-ups against Baseline, filling in strategies the set lacks.
    let missing: Vec<MetadataStrategyKind> = SPEEDUP_STRATEGIES
        .into_iter()
        .filter(|s| !workload.strategies().contains(s))
        .collect();
    let extra_jobs = jobs::jobs(workload, &missing);
    let extra: Vec<JobResult> = extra_jobs
        .iter()
        .enumerate()
        .map(|(k, job)| {
            let id = (set.len() + k) as u64;
            let r = rec.span(span_name(job), id, |_| job.run_checked(setting));
            tally.record(r.problems.clone());
            r
        })
        .collect();
    let mut all: Vec<&RunReport> = reports.clone();
    all.extend(extra.iter().filter_map(|r| r.report.as_ref()));
    let speedups = speedups(&all);

    // Engine, mirror and observer checks on one Attache job.
    let check = check_job(&set);
    let reference = set
        .iter()
        .position(|j| j.label == check.label)
        .map_or("", |i| untraced[i].text.as_str());
    let engine = engine_checks(&mut rec, check, setting, reference, &mut tally);

    // The per-layer replay, one unit per distinct workload of the set,
    // repeated while the next round is expected to end within `seconds`.
    let inputs: Vec<ReplayInput> = replay_units(&set, &untraced)
        .into_iter()
        .map(|(job, report)| ReplayInput {
            profiles: core_profiles(&job.kind, attache_sim::CoreConfig::table2().cores),
            seed: job.seed(setting.seed),
            requests_per_cycle: report.mem.total_requests() as f64 / report.bus_cycles as f64,
            events_per_core: setting.replay_events,
        })
        .collect();
    let mut counts = ReplayCounts::default();
    let mut rounds = 0u32;
    loop {
        let start = Instant::now();
        rec.span("bench.replay", u64::MAX, |rec| {
            for (unit, input) in inputs.iter().enumerate() {
                let mut bad = Vec::new();
                counts.add(&replay(rec, unit as u64, input, &mut bad));
                tally.record(bad);
            }
        });
        rounds += 1;
        let round = start.elapsed().as_secs_f64();
        if clock.elapsed().as_secs_f64() + round > seconds {
            break;
        }
    }
    eprintln!("[perfbench] {}: {rounds} replay round(s)", workload.name());

    let ns = self_time_by_name(rec.spans());
    let per_op = |span: &str, ops: u64| {
        let t = ns.get(span).copied().unwrap_or(0) as f64;
        if ops == 0 {
            0.0
        } else {
            t / ops as f64
        }
    };
    let layer = LayerCosts {
        trace_ns: per_op("workloads.next_event", counts.events),
        block_ns: per_op("workloads.block_for", counts.blocks),
        llc_ns: per_op("cache.llc_access", counts.llc_accesses),
        mdc_ns: per_op("cache.mdc_lookup", counts.requests),
        decompress_ns: per_op("compress.decompress", counts.decompressions),
        memo_ns: per_op("core.memo_compress", counts.blocks),
        copr_ns: per_op("core.copr_predict", counts.reads),
        blem_write_ns: per_op("core.blem_write", counts.distinct_lines),
        blem_read_ns: per_op("core.blem_read", counts.reads),
        cram_write_ns: per_op("core.cram_write", counts.distinct_lines),
        cram_read_ns: per_op("core.cram_read", counts.reads),
        dram_request_ns: per_op("dram.replay", counts.requests),
    };

    let mut m = Metrics::default();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>();

    // dram
    m.push("dram.ns_per_request", layer.dram_request_ns, "ns");
    m.push(
        "dram.ns_per_tick",
        per_op("dram.replay", counts.dram_ticks),
        "ns",
    );
    m.push(
        "dram.queue_full_frac",
        ratio(counts.dram_rejects, counts.dram_attempts),
        "ratio",
    );
    m.push(
        "dram.row_hit_rate",
        ratio(
            sum(&|r| r.mem.row_hits),
            sum(&|r| r.mem.row_hits + r.mem.row_misses),
        ),
        "ratio",
    );
    let dram = attache_dram::DramConfig::table2();
    let subrank_cycles = sum(&|r| r.bus_cycles) * (dram.channels * dram.subranks) as u64;
    m.push(
        "dram.bus_util",
        ratio(sum(&|r| r.mem.busy_bus_cycles), subrank_cycles),
        "ratio",
    );
    m.push(
        "dram.avg_read_latency_ns",
        ratio(
            sum(&|r| r.mem.read_latency_sum),
            sum(&|r| r.mem.read_latency_count),
        ) * BUS_CYCLE_NS,
        "ns",
    );
    m.push(
        "dram.demand_reads",
        sum(&|r| r.mem.demand_reads) as f64,
        "count",
    );
    m.push(
        "dram.corrective_reads",
        sum(&|r| r.mem.corrective_reads) as f64,
        "count",
    );
    m.push(
        "dram.metadata_reads",
        sum(&|r| r.mem.metadata_reads) as f64,
        "count",
    );
    m.push("dram.activates", sum(&|r| r.mem.activates) as f64, "count");
    m.push(
        "dram.drain_episodes",
        sum(&|r| r.mem.drain_episodes) as f64,
        "count",
    );

    // compress
    m.push(
        "compress.compress_ns",
        per_op("compress.compress", counts.blocks),
        "ns",
    );
    m.push("compress.decompress_ns", layer.decompress_ns, "ns");
    m.push(
        "compress.fits_subrank_ns",
        per_op("compress.fits_subrank", counts.blocks),
        "ns",
    );
    m.push(
        "compress.fits_frac",
        ratio(counts.fits, counts.blocks),
        "ratio",
    );

    // core
    m.push(
        "core.memo_hit_ratio",
        ratio(counts.memo_hits, counts.memo_hits + counts.memo_misses),
        "ratio",
    );
    m.push("core.memo_compress_ns", layer.memo_ns, "ns");
    m.push("core.copr_predict_ns", layer.copr_ns, "ns");
    m.push("core.blem_write_ns", layer.blem_write_ns, "ns");
    m.push("core.blem_read_ns", layer.blem_read_ns, "ns");
    m.push("core.cram_write_ns", layer.cram_write_ns, "ns");
    m.push("core.cram_read_ns", layer.cram_read_ns, "ns");
    let copr = all.iter().filter_map(|r| r.copr);
    let (correct, predictions) = copr.fold((0, 0), |(c, p), s| (c + s.correct, p + s.predictions));
    m.push("core.copr.accuracy", ratio(correct, predictions), "ratio");
    // A Cram read is an implicit hit when the marker alone resolves it:
    // the half-width read found a compressed line.
    let cram = all
        .iter()
        .filter(|r| r.strategy == S::Cram)
        .map(|r| r.strategy_stats);
    let (hits, reads) = cram.fold((0, 0), |(h, n), s| (h + s.compressed_reads, n + s.reads));
    m.push("core.cram.implicit_hit_rate", ratio(hits, reads), "ratio");

    // cache
    m.push("cache.llc_access_ns", layer.llc_ns, "ns");
    m.push("cache.mdc_lookup_ns", layer.mdc_ns, "ns");
    m.push(
        "cache.llc.hit_rate",
        ratio(sum(&|r| r.llc.hits), sum(&|r| r.llc.accesses)),
        "ratio",
    );
    let mdc = all.iter().filter_map(|r| r.metadata_cache.map(|(s, _)| s));
    let (hits, accesses) = mdc.fold((0, 0), |(h, a), s| (h + s.hits, a + s.accesses));
    m.push("cache.mdc.hit_rate", ratio(hits, accesses), "ratio");

    // workloads
    m.push("workloads.trace_ns_per_event", layer.trace_ns, "ns");
    m.push("workloads.block_ns", layer.block_ns, "ns");

    // sim
    m.push("sim.event_vs_cycle", engine.cycle_s / engine.event_s, "x");
    let scale = (setting.instructions + setting.warmup) as f64 / setting.instructions as f64;
    let covered_ns: f64 = reports.iter().map(|r| layer.in_situ_ns(r)).sum::<f64>() * scale;
    m.push(
        "sim.residual_share",
        1.0 - covered_ns / (untraced_sum * 1e9),
        "ratio",
    );
    m.push("sim.bus_cycles", sum(&|r| r.bus_cycles) as f64, "count");
    let ipc: Vec<f64> = reports.iter().map(|r| r.ipc()).collect();
    m.push(
        "sim.ipc",
        ipc.iter().sum::<f64>() / ipc.len().max(1) as f64,
        "instr/cycle",
    );
    for s in SPEEDUP_STRATEGIES {
        m.push(format!("sim.speedup.{s}"), speedups.get(s), "x");
    }

    // bench
    m.push(
        "bench.worker_busy_share",
        busy / (workers as f64 * pool_wall),
        "ratio",
    );
    let max = untraced_s.iter().copied().fold(0.0, f64::max);
    m.push("bench.job_tail_ratio", max / median(&untraced_s), "x");

    // metrics
    m.push(
        "metrics.epoch_overhead",
        engine.epoch_s / engine.event_s - 1.0,
        "ratio",
    );

    // tracing itself
    m.push(
        "trace.overhead_share",
        traced_sum / untraced_sum - 1.0,
        "ratio",
    );

    print_paper_comparison(workload, &speedups);
    write_spans(workload, setting.seed, &rec);
    tally.finish(m)
}

/// Runs every job of the set twice, untraced and inside a span, one after
/// the other; which of the two goes first alternates from job to job so
/// warm-up and drift cancel out of the tracing overhead. Returns the
/// (untraced, traced) pairs in job order and the pass's host seconds.
fn paired_pass(
    rec: &mut Recorder,
    set: &[Job],
    setting: &Setting,
) -> (Vec<(JobResult, JobResult)>, f64) {
    let start = Instant::now();
    let pairs = rec.span("bench.paired_pass", u64::MAX, |rec| {
        set.iter()
            .enumerate()
            .map(|(i, job)| {
                let first = (i % 2 == 0).then(|| job.run_checked(setting));
                let traced = rec.span(span_name(job), i as u64, |_| job.run_checked(setting));
                let untraced = first.unwrap_or_else(|| job.run_checked(setting));
                (untraced, traced)
            })
            .collect()
    });
    (pairs, start.elapsed().as_secs_f64())
}

/// Runs the whole grid once through `Grid::run` on the harness's worker
/// pool (one worker per host core), checking each report against the
/// job-by-job run. Returns the workers and the host seconds it took.
fn grid_run(
    rec: &mut Recorder,
    set: &[Job],
    untraced: &[JobResult],
    setting: &Setting,
    tally: &mut Tally,
) -> (usize, f64) {
    let cfg = setting.experiment();
    let start = Instant::now();
    let outcome = rec.span("bench.grid_run", u64::MAX, |_| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ResultSet::grid().run(&cfg)))
    });
    let wall = start.elapsed().as_secs_f64();
    let mut bad = Vec::new();
    match outcome {
        Ok(reports) if reports.len() == set.len() => {
            for ((job, u), r) in set.iter().zip(untraced).zip(&reports) {
                if u.ok() && report_io::to_text(r, &job.label) != u.text {
                    bad.push(format!(
                        "{}: Grid::run report differs from the job's own run",
                        job.label
                    ));
                }
            }
        }
        Ok(reports) => bad.push(format!(
            "Grid::run returned {} of {} reports",
            reports.len(),
            set.len()
        )),
        Err(p) => bad.push(format!("Grid::run panicked: {}", jobs::panic_message(&p))),
    }
    tally.record(bad);
    (cfg.workers(), wall)
}

fn span_name(job: &Job) -> &'static str {
    match job.kind {
        JobKind::Direct(_) => "sim.run_rate_mode",
        JobKind::Grid(_) => "bench.job_execute",
    }
}

/// The job the slow checks run on: the set's Attache job (for `sweep`,
/// the mcf grid point, the ROADMAP's reference workload).
fn check_job(set: &[Job]) -> &Job {
    let attache = || set.iter().filter(|j| j.strategy == S::Attache);
    attache()
        .find(|j| j.label == "mcf/Attache")
        .or_else(|| attache().next())
        .expect("every workload runs an Attache job")
}

/// Host seconds of the engine checks' runs.
struct EngineTimes {
    event_s: f64,
    cycle_s: f64,
    epoch_s: f64,
}

/// Runs `job` directly through `System::run_rate_mode` on the event and
/// cycle engines, with the mirror oracle, and with an epoch observer.
/// Every report must serialize identically to `reference`, the job's
/// report from the set's own run (for a grid job, through
/// `JobSpec::execute`). The four runs repeat in [`ENGINE_ROUNDS`] rounds;
/// each variant's time is its median.
fn engine_checks(
    rec: &mut Recorder,
    job: &Job,
    setting: &Setting,
    reference: &str,
    tally: &mut Tally,
) -> EngineTimes {
    let profile = core_profiles(&job.kind, 1).remove(0);
    let seed = job.seed(setting.seed);
    let base = setting.sim(job.strategy, EngineKind::Event);
    let variants = [
        ("check.event_engine", base.clone()),
        (
            "check.cycle_engine",
            setting.sim(job.strategy, EngineKind::Cycle),
        ),
        ("check.mirror", base.clone().with_mirror(true)),
        ("metrics.epoch_observer", base.with_epoch(Some(EPOCH_TICKS))),
    ];
    let mut times: [Vec<f64>; 4] = Default::default();
    for _ in 0..ENGINE_ROUNDS {
        for (k, (name, cfg)) in variants.iter().enumerate() {
            let start = Instant::now();
            let outcome = rec.span(name, u64::MAX, |_| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    System::run_rate_mode(cfg, profile.clone(), seed)
                }))
            });
            times[k].push(start.elapsed().as_secs_f64());
            let mut bad = Vec::new();
            match outcome {
                Ok(report) => {
                    bad.extend(jobs::check_report(&report, job, setting));
                    if report_io::to_text(&report, &job.label) != reference {
                        bad.push(format!(
                            "{}: {name} report differs from the set's run",
                            job.label
                        ));
                    }
                }
                Err(p) => bad.push(format!(
                    "{}: {name} panicked: {}",
                    job.label,
                    jobs::panic_message(&p)
                )),
            }
            tally.record(bad);
        }
    }
    EngineTimes {
        event_s: median(&times[0]),
        cycle_s: median(&times[1]),
        epoch_s: median(&times[3]),
    }
}

/// One replay unit per distinct workload of the set, replaying the
/// Baseline job's trace at the Baseline job's offered load.
fn replay_units<'a>(set: &'a [Job], results: &'a [JobResult]) -> Vec<(&'a Job, &'a RunReport)> {
    set.iter()
        .zip(results)
        .filter(|(j, _)| j.strategy == S::Baseline)
        .filter_map(|(j, r)| r.report.as_ref().map(|rep| (j, rep)))
        .collect()
}

/// Speed-ups against Baseline per strategy: the bus-cycle ratio for one
/// workload, the geometric mean across workloads for a grid.
struct Speedups(Vec<(MetadataStrategyKind, f64)>);

impl Speedups {
    fn get(&self, s: MetadataStrategyKind) -> f64 {
        self.0
            .iter()
            .find(|(k, _)| *k == s)
            .map_or(f64::NAN, |(_, v)| *v)
    }
}

fn speedups(reports: &[&RunReport]) -> Speedups {
    let mut out = Vec::new();
    for s in MetadataStrategyKind::ALL
        .into_iter()
        .filter(|s| *s != S::Baseline)
    {
        let ratios: Vec<f64> = reports
            .iter()
            .filter(|r| r.strategy == s)
            .filter_map(|r| {
                reports
                    .iter()
                    .find(|b| b.strategy == S::Baseline && b.name == r.name)
                    .map(|b| b.bus_cycles as f64 / r.bus_cycles as f64)
            })
            .collect();
        if !ratios.is_empty() {
            out.push((s, geo_mean(&ratios)));
        }
    }
    Speedups(out)
}

/// Host time per operation of each layer, from the replay.
struct LayerCosts {
    trace_ns: f64,
    block_ns: f64,
    llc_ns: f64,
    mdc_ns: f64,
    decompress_ns: f64,
    memo_ns: f64,
    copr_ns: f64,
    blem_write_ns: f64,
    blem_read_ns: f64,
    cram_write_ns: f64,
    cram_read_ns: f64,
    dram_request_ns: f64,
}

impl LayerCosts {
    /// Estimated host ns a job spent in the replayed layers: each layer's
    /// replay cost per operation times the job's own operation counts
    /// from its report (measured region only).
    fn in_situ_ns(&self, r: &RunReport) -> f64 {
        let f = |n: u64| n as f64;
        let s = &r.strategy_stats;
        let mut ns = f(r.llc.accesses) * (self.trace_ns + self.llc_ns)
            + f(s.reads + s.writes) * self.block_ns
            + f(r.mem.total_requests()) * self.dram_request_ns;
        if r.strategy != S::Baseline {
            ns += f(s.writes) * self.memo_ns + f(s.compressed_reads) * self.decompress_ns;
        }
        if let Some((mdc, _)) = r.metadata_cache {
            ns += f(mdc.accesses) * self.mdc_ns;
        }
        if let Some(c) = r.copr {
            ns += f(c.predictions) * self.copr_ns;
        }
        if let Some(b) = r.blem {
            ns += f(b.writes) * self.blem_write_ns + f(b.reads) * self.blem_read_ns;
        }
        if let Some(c) = r.cram {
            ns += f(c.writes) * self.cram_write_ns + f(c.reads) * self.cram_read_ns;
        }
        ns
    }
}

/// The paper's speed-ups where the repository holds them (EXPERIMENTS.md:
/// RAND in Fig. 12, and the Fig. 12 geometric means), printed beside the
/// simulated ones. Other workloads have no reference.
fn print_paper_comparison(workload: Workload, speedups: &Speedups) {
    let paper: &[(MetadataStrategyKind, f64)] = match workload {
        Workload::Rand => &[(S::MetadataCache, 0.83), (S::Attache, 1.0)],
        Workload::Sweep => &[
            (S::MetadataCache, 1.08),
            (S::Attache, 1.153),
            (S::Oracle, 1.17),
        ],
        _ => &[],
    };
    for (s, v) in &speedups.0 {
        match paper.iter().find(|(k, _)| k == s) {
            Some((_, p)) => eprintln!(
                "[perfbench] {} speedup {s}: {v:.4}x, paper {p}x, error {:+.1}%",
                workload.name(),
                (v / p - 1.0) * 100.0
            ),
            None => eprintln!(
                "[perfbench] {} speedup {s}: {v:.4}x (no paper reference for this workload)",
                workload.name()
            ),
        }
    }
}

/// Writes the spans as JSON lines under the benchmark package's `out/`
/// directory; a failure to write is reported, not fatal.
fn write_spans(workload: Workload, seed: u64, rec: &Recorder) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.to_jsonl())) {
        Ok(()) => eprintln!(
            "[perfbench] wrote {} spans to {}",
            rec.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!(
            "[perfbench] could not write spans to {}: {e}",
            path.display()
        ),
    }
}
