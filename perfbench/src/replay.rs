//! The per-layer replay: a workload's own trace and data, pushed through
//! each layer's public functions in turn, one span per layer operation.
//!
//! The trace generators are seeded the way the simulator seeds its cores,
//! so the replay sees the workload's address stream and line contents. The
//! LLC turns the trace into the miss stream (demand reads plus dirty
//! writebacks) that every layer below it consumes, and the DRAM replay
//! offers that stream at the rate the simulated job drew it.

use std::hint::black_box;

use attache_cache::{Llc, LlcConfig, MetadataCache, MetadataCacheConfig};
use attache_compress::{Block, CompressionEngine, CompressionOutcome};
use attache_core::{Blem, Copr, CoprConfig, Cram, MemoizedEngine};
use attache_dram::{
    new_backend, AccessKind, AccessWidth, BackendKind, DramConfig, MemRequest, Origin, PowerParams,
};
use attache_workloads::{DataSynthesizer, Profile, TraceGenerator};

use crate::spans::Recorder;

/// One replay: per-core profiles, the seed, and the offered DRAM load.
#[derive(Debug, Clone)]
pub struct ReplayInput {
    /// One profile per core.
    pub profiles: Vec<Profile>,
    /// The simulation seed of the job being replayed.
    pub seed: u64,
    /// Memory requests per bus cycle the simulated job offered.
    pub requests_per_cycle: f64,
    /// Trace events drawn per core.
    pub events_per_core: usize,
}

/// Operation counts of one replay, per layer operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ReplayCounts {
    /// `TraceGenerator::next_event` calls.
    pub events: u64,
    /// `Llc::access_line` calls.
    pub llc_accesses: u64,
    /// Miss-stream requests (demand reads + writebacks).
    pub requests: u64,
    /// Demand reads in the miss stream.
    pub reads: u64,
    /// `DataSynthesizer::block_for` calls.
    pub blocks: u64,
    /// Blocks that fit one sub-rank.
    pub fits: u64,
    /// `CompressionEngine::decompress` calls.
    pub decompressions: u64,
    /// `MemoizedEngine` memo hits and misses.
    pub memo_hits: u64,
    /// See [`memo_hits`](Self::memo_hits).
    pub memo_misses: u64,
    /// Distinct lines written through BLEM and CRAM.
    pub distinct_lines: u64,
    /// DRAM enqueue attempts, including retries after a full queue.
    pub dram_attempts: u64,
    /// DRAM enqueues refused with a full queue.
    pub dram_rejects: u64,
    /// `tick_event` calls the DRAM replay executed.
    pub dram_ticks: u64,
}

impl ReplayCounts {
    /// Adds `o` into `self`.
    pub fn add(&mut self, o: &ReplayCounts) {
        self.events += o.events;
        self.llc_accesses += o.llc_accesses;
        self.requests += o.requests;
        self.reads += o.reads;
        self.blocks += o.blocks;
        self.fits += o.fits;
        self.decompressions += o.decompressions;
        self.memo_hits += o.memo_hits;
        self.memo_misses += o.memo_misses;
        self.distinct_lines += o.distinct_lines;
        self.dram_attempts += o.dram_attempts;
        self.dram_rejects += o.dram_rejects;
        self.dram_ticks += o.dram_ticks;
    }
}

#[derive(Debug, Clone, Copy)]
struct Request {
    line: u64,
    core: usize,
    write: bool,
    /// Index into the distinct-line list.
    slot: usize,
}

/// Replays `input` through every layer, recording one span per layer
/// operation under the innermost open span of `rec`. Output mismatches
/// (a decode that does not return the stored block, a read that never
/// completes) are returned as problems.
pub fn replay(
    rec: &mut Recorder,
    job: u64,
    input: &ReplayInput,
    problems: &mut Vec<String>,
) -> ReplayCounts {
    let mut counts = ReplayCounts::default();
    let cores = input.profiles.len();
    let mut bases = Vec::with_capacity(cores);
    let mut next_base = 0u64;
    for p in &input.profiles {
        bases.push(next_base);
        next_base += p.footprint_lines;
    }
    let total_lines = next_base;

    // workloads: the trace, round-robin across cores.
    let mut gens: Vec<TraceGenerator> = input
        .profiles
        .iter()
        .enumerate()
        .map(|(i, p)| TraceGenerator::new(p, input.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9)))
        .collect();
    let mut events = Vec::with_capacity(cores * input.events_per_core);
    rec.span("workloads.next_event", job, |_| {
        for _ in 0..input.events_per_core {
            for (core, gen) in gens.iter_mut().enumerate() {
                let ev = gen.next_event();
                events.push((core, bases[core] + ev.line_offset, ev.is_write));
            }
        }
    });
    counts.events = events.len() as u64;

    // cache: the LLC filters the trace into the miss stream.
    let mut llc = Llc::new(LlcConfig::table2());
    let mut stream: Vec<Request> = Vec::with_capacity(events.len());
    rec.span("cache.llc_access", job, |_| {
        for &(core, line, write) in &events {
            let access = llc.access_line(line, write);
            if !access.hit {
                stream.push(Request {
                    line,
                    core,
                    write: false,
                    slot: 0,
                });
            }
            if let Some(victim) = access.writeback {
                let core = bases.partition_point(|&b| b <= victim) - 1;
                stream.push(Request {
                    line: victim,
                    core,
                    write: true,
                    slot: 0,
                });
            }
        }
    });
    counts.llc_accesses = events.len() as u64;
    counts.requests = stream.len() as u64;
    counts.reads = stream.iter().filter(|r| !r.write).count() as u64;

    // workloads: the contents of every line the miss stream touches.
    let synth = DataSynthesizer::new(input.seed);
    let mut blocks: Vec<Block> = Vec::with_capacity(stream.len());
    rec.span("workloads.block_for", job, |_| {
        for r in &stream {
            blocks.push(synth.block_for(&input.profiles[r.core].data, r.line));
        }
    });
    counts.blocks = blocks.len() as u64;
    let mut distinct: Vec<usize> = Vec::new();
    {
        let mut seen = std::collections::HashMap::with_capacity(stream.len());
        for (i, r) in stream.iter_mut().enumerate() {
            r.slot = *seen.entry(r.line).or_insert_with(|| {
                distinct.push(i);
                distinct.len() - 1
            });
        }
    }
    counts.distinct_lines = distinct.len() as u64;

    // compress: the raw kernels.
    let engine = CompressionEngine::new();
    let mut outcomes: Vec<CompressionOutcome> = Vec::with_capacity(blocks.len());
    rec.span("compress.compress", job, |_| {
        for b in &blocks {
            outcomes.push(engine.compress(b));
        }
    });
    counts.fits = outcomes.iter().filter(|o| o.fits_subrank()).count() as u64;
    let compressed: Vec<usize> = (0..outcomes.len())
        .filter(|&i| outcomes[i].algorithm().is_some())
        .collect();
    let mut decoded: Vec<Block> = Vec::with_capacity(compressed.len());
    rec.span("compress.decompress", job, |_| {
        for &i in &compressed {
            decoded.push(engine.decompress(&outcomes[i]));
        }
    });
    counts.decompressions = compressed.len() as u64;
    if compressed
        .iter()
        .zip(&decoded)
        .any(|(&i, d)| *d != blocks[i])
    {
        problems.push("replay: decompress did not return the compressed block".into());
    }
    rec.span("compress.fits_subrank", job, |_| {
        for b in &blocks {
            black_box(engine.fits_subrank(b));
        }
    });

    // core: the memoized engine over the replayed line order.
    let memo = MemoizedEngine::with_enabled(true);
    rec.span("core.memo_compress", job, |_| {
        for b in &blocks {
            black_box(memo.compress(b));
        }
    });
    counts.memo_hits = memo.stats().hits;
    counts.memo_misses = memo.stats().misses;

    // core: COPR trained on the first half of the reads, then asked for
    // every read.
    let reads: Vec<usize> = (0..stream.len()).filter(|&i| !stream[i].write).collect();
    let mut copr = Copr::new(CoprConfig::paper_default(total_lines.max(1)));
    for &i in &reads[..reads.len() / 2] {
        copr.train(stream[i].line, outcomes[i].fits_subrank());
    }
    rec.span("core.copr_predict", job, |_| {
        for &i in &reads {
            black_box(copr.predict(stream[i].line));
        }
    });

    // core: BLEM and CRAM write every distinct line once, then decode
    // every demand read.
    let mut blem = Blem::new(input.seed);
    let mut images = Vec::with_capacity(distinct.len());
    rec.span("core.blem_write", job, |_| {
        for &i in &distinct {
            images.push(blem.write_line(stream[i].line, &blocks[i]).image);
        }
    });
    let mut wrong = 0usize;
    rec.span("core.blem_read", job, |_| {
        for &i in &reads {
            let (data, _) = blem.read_line(stream[i].line, &images[stream[i].slot]);
            wrong += usize::from(data != blocks[i]);
        }
    });
    if wrong > 0 {
        problems.push(format!("replay: BLEM decoded {wrong} reads wrongly"));
    }
    let mut cram = Cram::new(input.seed);
    images.clear();
    rec.span("core.cram_write", job, |_| {
        for &i in &distinct {
            images.push(cram.write_line(stream[i].line, &blocks[i]).image);
        }
    });
    let mut wrong = 0usize;
    rec.span("core.cram_read", job, |_| {
        for &i in &reads {
            let (data, _) = cram.read_line(stream[i].line, &images[stream[i].slot]);
            wrong += usize::from(data != blocks[i]);
        }
    });
    if wrong > 0 {
        problems.push(format!("replay: CRAM decoded {wrong} reads wrongly"));
    }

    // cache: Metadata-Cache lookups for reads, updates for writebacks.
    let mut mdc = MetadataCache::new(MetadataCacheConfig::paper_1mb());
    rec.span("cache.mdc_lookup", job, |_| {
        for r in &stream {
            black_box(if r.write {
                mdc.update(r.line)
            } else {
                mdc.lookup(r.line)
            });
        }
    });

    // dram: the miss stream at the simulated job's offered load.
    let (attempts, rejects, ticks, completed) = rec.span("dram.replay", job, |_| {
        dram_replay(&stream, input.requests_per_cycle)
    });
    counts.dram_attempts = attempts;
    counts.dram_rejects = rejects;
    counts.dram_ticks = ticks;
    if completed != counts.reads {
        problems.push(format!(
            "replay: {completed} of {} DRAM reads completed",
            counts.reads
        ));
    }
    counts
}

/// Offers `stream` to the cycle-level DRAM backend, request `k` due at bus
/// cycle `k / rate`, and runs it dry the way the event engine does: one
/// `tick_event` per cycle with work, bulk `advance_noop` across idle
/// spans. A refused request is retried at the backend's next event.
/// Returns (enqueue attempts, refusals, executed ticks, reads completed).
fn dram_replay(stream: &[Request], rate: f64) -> (u64, u64, u64, u64) {
    let mut mem = new_backend(
        BackendKind::Cycle,
        DramConfig::table2(),
        PowerParams::ddr4_1600(),
    );
    let due = |k: usize| (k as f64 / rate.max(1e-9)) as u64;
    let (mut attempts, mut rejects, mut ticks, mut completed) = (0u64, 0u64, 0u64, 0u64);
    let mut done = Vec::new();
    let mut k = 0usize;
    while k < stream.len() || !mem.is_idle() {
        let now = mem.now();
        let mut blocked = false;
        while k < stream.len() && due(k) <= now {
            let r = stream[k];
            attempts += 1;
            let req = MemRequest {
                id: k as u64,
                line_addr: r.line,
                kind: if r.write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                width: AccessWidth::Full,
                origin: if r.write {
                    Origin::Writeback
                } else {
                    Origin::Demand { core: r.core as u8 }
                },
                arrival: now,
            };
            if mem.enqueue(req).is_err() {
                rejects += 1;
                blocked = true;
                break;
            }
            k += 1;
        }
        mem.tick_event();
        ticks += 1;
        mem.drain_completions_into(&mut done);
        completed += done
            .iter()
            .filter(|c| c.request.kind == AccessKind::Read)
            .count() as u64;
        done.clear();
        let now = mem.now();
        let mut horizon = mem.next_event_cached();
        // A refused request waits for the backend's next event: until
        // then every enqueue outcome is unchanged.
        if k < stream.len() && !blocked {
            horizon = horizon.min(due(k).max(now + 1));
        }
        if horizon != u64::MAX && horizon > now + 1 {
            mem.advance_noop(horizon - now - 1);
        }
    }
    (attempts, rejects, ticks, completed)
}
