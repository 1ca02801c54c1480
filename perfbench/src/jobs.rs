//! The four benchmark workloads, their fixed job sets, and the output
//! checks every job must pass.
//!
//! Every job runs 8-core rate mode (or one of the two 8-core mixes) on the
//! cycle-level DRAM backend with the event engine. `stream`, `chase` and
//! `rand` call [`System::run_rate_mode`] directly; `sweep` runs the jobs of
//! the shared figure grid ([`ResultSet::grid`]) through
//! [`JobSpec::execute`], the per-job call inside `Grid::run`, so each
//! job's host time can be read from outside.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use attache_bench::grid::{try_find_mix, JobSpec, WorkloadRef};
use attache_bench::results::ResultSet;
use attache_bench::runner::ExperimentConfig;
use attache_sim::report_io;
use attache_sim::{EngineKind, MetadataStrategyKind, RunReport, SimConfig, System};
use attache_workloads::Profile;

use MetadataStrategyKind as S;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// STREAM × {Baseline, Attache, Cram}: the bandwidth-bound extreme.
    Stream,
    /// CHASE × {Baseline, MetadataCache, Attache}: one outstanding miss
    /// per core, so the core model and event bookkeeping dominate.
    Chase,
    /// RAND × {Baseline, MetadataCache, Attache}: incompressible random
    /// traffic that thrashes the Metadata-Cache.
    Rand,
    /// The 22-workload × 5-strategy figure grid.
    Sweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [Self::Stream, Self::Chase, Self::Rand, Self::Sweep];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Stream => "stream",
            Self::Chase => "chase",
            Self::Rand => "rand",
            Self::Sweep => "sweep",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The rate-mode profile of a single-profile workload.
    pub fn profile(self) -> Option<Profile> {
        match self {
            Self::Stream => Some(Profile::stream()),
            Self::Chase => Some(Profile::chase()),
            Self::Rand => Some(Profile::rand()),
            Self::Sweep => None,
        }
    }

    /// The strategies of the timed job set.
    pub fn strategies(self) -> Vec<MetadataStrategyKind> {
        match self {
            Self::Stream => vec![S::Baseline, S::Attache, S::Cram],
            Self::Chase | Self::Rand => vec![S::Baseline, S::MetadataCache, S::Attache],
            Self::Sweep => MetadataStrategyKind::ALL.to_vec(),
        }
    }

    /// The benchmark setting for `seed`. Run lengths are sized so one pass
    /// over the job set takes 2-4 s on a 2-core host and a run repeats it
    /// several times; the sweep runs at half the figure bins' quick length.
    pub fn setting(self, seed: u64) -> Setting {
        let (instructions, warmup, replay_events) = match self {
            Self::Stream => (240_000, 40_000, 25_000),
            Self::Chase => (300_000, 60_000, 25_000),
            Self::Rand => (120_000, 24_000, 25_000),
            Self::Sweep => (20_000, 4_000, 1_500),
        };
        Setting {
            instructions,
            warmup,
            seed,
            replay_events,
        }
    }
}

/// How one job is executed.
#[derive(Debug, Clone)]
pub enum JobKind {
    /// [`System::run_rate_mode`] on a profile.
    Direct(Profile),
    /// [`JobSpec::execute`] of a figure-grid point.
    Grid(JobSpec),
}

/// One simulation job of a workload's fixed job set.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display label (`workload/strategy`).
    pub label: String,
    /// The strategy under test.
    pub strategy: MetadataStrategyKind,
    /// How it runs.
    pub kind: JobKind,
}

/// Everything a job needs besides its own description: the run length
/// and the base seed; plus the traced run's replay length.
#[derive(Debug, Clone)]
pub struct Setting {
    /// Measured instructions per core.
    pub instructions: u64,
    /// Warm-up instructions per core.
    pub warmup: u64,
    /// Base seed (from `--seed`).
    pub seed: u64,
    /// Trace events per core in each replay unit of the traced run.
    pub replay_events: usize,
}

impl Setting {
    /// The grid harness configuration for this setting: report cache off,
    /// cycle backend, serial channels.
    pub fn experiment(&self) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::from_env();
        cfg.instructions = self.instructions;
        cfg.warmup = self.warmup;
        cfg.seed = self.seed;
        cfg
    }

    /// The simulator configuration of a direct job.
    pub fn sim(&self, strategy: MetadataStrategyKind, engine: EngineKind) -> SimConfig {
        SimConfig::table2_baseline()
            .with_strategy(strategy)
            .with_instructions(self.instructions, self.warmup)
            .with_engine(engine)
    }

    /// The same setting at one instruction per core and no warm-up: a
    /// job at this length is almost all construction and reporting.
    pub fn setup_only(&self) -> Setting {
        Setting {
            instructions: 1,
            warmup: 0,
            ..self.clone()
        }
    }

    /// The total retired-instruction target of one job.
    pub fn instruction_target(&self, cores: usize) -> u64 {
        self.instructions * cores as u64
    }
}

/// The fixed job set of `workload` for the strategies given.
pub fn jobs(workload: Workload, strategies: &[MetadataStrategyKind]) -> Vec<Job> {
    match workload.profile() {
        Some(profile) => strategies
            .iter()
            .map(|&strategy| Job {
                label: format!("{}/{strategy}", profile.name),
                strategy,
                kind: JobKind::Direct(profile.clone()),
            })
            .collect(),
        None => ResultSet::grid()
            .jobs()
            .iter()
            .filter(|spec| strategies.contains(&spec.strategy))
            .map(|spec| Job {
                label: spec.label(),
                strategy: spec.strategy,
                kind: JobKind::Grid(spec.clone()),
            })
            .collect(),
    }
}

/// The per-core profiles a job's trace generators run (for the replay).
pub fn core_profiles(kind: &JobKind, cores: usize) -> Vec<Profile> {
    match kind {
        JobKind::Direct(p) => vec![p.clone(); cores],
        JobKind::Grid(spec) => match &spec.workload {
            WorkloadRef::Rate(name) => {
                vec![Profile::by_name(name).expect("grid profile exists"); cores]
            }
            WorkloadRef::Mix(name) => try_find_mix(name).expect("grid mix exists").cores,
        },
    }
}

impl Job {
    /// The simulation seed: the base seed for direct jobs (so every
    /// strategy replays the same trace), the grid's per-job derivation
    /// otherwise.
    pub fn seed(&self, base: u64) -> u64 {
        match &self.kind {
            JobKind::Direct(_) => base,
            JobKind::Grid(spec) => spec.seed(base),
        }
    }

    /// Runs the job once on the event engine.
    pub fn run(&self, setting: &Setting) -> RunReport {
        match &self.kind {
            JobKind::Direct(profile) => System::run_rate_mode(
                &setting.sim(self.strategy, EngineKind::Event),
                profile.clone(),
                setting.seed,
            ),
            JobKind::Grid(spec) => spec.execute(&setting.experiment()),
        }
    }

    /// Runs the job as [`run`](Self::run) does, times it, and checks its
    /// report. A panic is caught and returned as a failure.
    pub fn run_checked(&self, setting: &Setting) -> JobResult {
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| self.run(setting)));
        let elapsed = start.elapsed();
        match outcome {
            Ok(report) => {
                let problems = check_report(&report, self, setting);
                JobResult {
                    elapsed,
                    text: report_io::to_text(&report, &self.label),
                    report: Some(report),
                    problems,
                }
            }
            Err(panic) => JobResult {
                elapsed,
                text: String::new(),
                report: None,
                problems: vec![format!(
                    "{}: panicked: {}",
                    self.label,
                    panic_message(&panic)
                )],
            },
        }
    }
}

/// The outcome of one timed job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Host time of the job.
    pub elapsed: Duration,
    /// The report, unless the job panicked.
    pub report: Option<RunReport>,
    /// The report's `report_io` serialization (empty on panic).
    pub text: String,
    /// Failed output checks; empty when the job passed.
    pub problems: Vec<String>,
}

impl JobResult {
    /// Whether the job ran and passed every check.
    pub fn ok(&self) -> bool {
        self.problems.is_empty()
    }
}

/// A panic payload as text.
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The output checks of one job's report; each violation is one line.
///
/// * the measured region retired at least its instruction target, and
///   the report names the job's workload and strategy;
/// * every completed request is attributed to exactly one origin: the
///   per-origin counts add up to the CAS count (row hits + misses), and
///   the per-origin reads to the reads with a recorded latency;
/// * Baseline issues no corrective, metadata or Replacement-Area reads,
///   and Cram no metadata reads;
/// * the energy total is finite and positive.
pub fn check_report(r: &RunReport, job: &Job, setting: &Setting) -> Vec<String> {
    let mut bad = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            bad.push(format!("{}: {what}", job.label));
        }
    };
    let target = setting.instruction_target(attache_sim::CoreConfig::table2().cores);
    check(
        r.instructions >= target,
        format!("retired {} of {target} instructions", r.instructions),
    );
    check(
        r.strategy == job.strategy,
        format!("report strategy {} differs", r.strategy),
    );
    check(
        job.label.starts_with(&format!("{}/", r.name)),
        format!("report workload {} differs", r.name),
    );
    let m = &r.mem;
    check(
        m.total_requests() == m.row_hits + m.row_misses,
        format!(
            "origins sum to {} requests but {} CAS commands completed",
            m.total_requests(),
            m.row_hits + m.row_misses
        ),
    );
    check(
        m.total_reads() == m.read_latency_count,
        format!(
            "origins sum to {} reads but {} read latencies were recorded",
            m.total_reads(),
            m.read_latency_count
        ),
    );
    if job.strategy == S::Baseline {
        check(
            m.corrective_reads == 0 && m.metadata_reads == 0 && m.replacement_area_reads == 0,
            format!(
                "Baseline issued corrective/metadata/RA reads {}/{}/{}",
                m.corrective_reads, m.metadata_reads, m.replacement_area_reads
            ),
        );
    }
    if job.strategy == S::Cram {
        check(
            m.metadata_reads == 0,
            format!("Cram issued {} metadata reads", m.metadata_reads),
        );
    }
    let energy = r.energy.total_pj();
    check(
        energy.is_finite() && energy > 0.0,
        format!("energy {energy} pJ is not finite and positive"),
    );
    bad
}
