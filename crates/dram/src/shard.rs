//! Channel-sharded execution of the cycle-level memory model.
//!
//! [`ShardedMemory`] partitions a [`MemorySystem`](crate::MemorySystem)'s
//! channels across worker threads — shard `s` of `n` owns every channel
//! `c` with `c % n == s` — while presenting the exact same
//! [`MemoryBackend`] face to the simulator. Shard 0 is hosted inline on
//! the calling thread; shards `1..n` each run on their own hand-rolled
//! worker thread (plain `std::thread` + `std::sync::mpsc`, no crates.io
//! dependencies) that owns its channels outright, so no locking guards
//! any model state.
//!
//! # The horizon barrier
//!
//! Channels never interact with each other: within one bus cycle each
//! channel's scheduler, retires and enqueue outcomes depend only on its
//! own queues and banks. All cross-channel coupling flows through the
//! simulator frontend (completions out, requests in), which already
//! serializes at tick granularity. The facade therefore advances shards
//! to a shared **synchronization horizon** — the next executed tick —
//! and rendezvous with every active shard before any completion is
//! observed: commands fan out, one reply per shard fans in, and the
//! merged completion stream is re-assembled in canonical **global
//! channel-index order**, exactly the order the serial model drains.
//!
//! Quiescent shards are not woken at all: each reply carries the shard's
//! event bound (the same per-channel
//! `bound == 0 ? now + 1 : min(bound, next_retire)` formula the serial
//! [`next_event_cached`](crate::MemorySystem::next_event_cached) uses),
//! and while that bound lies beyond the horizon the facade merely
//! accrues an owed `advance_noop` span, flushed with the next command.
//! That is *provably* the serial behavior: a shard bound beyond `now + 1`
//! means every owned channel takes the `advance_noop(1)` arm of
//! [`tick_event`](crate::MemorySystem::tick_event), and
//! `Channel::advance_noop` is span-additive.
//!
//! # Determinism argument (the short form)
//!
//! * **Completions** are tagged with their global channel index and
//!   emitted channel-major — byte-identical to the serial drain order.
//! * **Stats and energy** are aggregated in global channel-index order
//!   (energy sums `f64`s, so order is part of bit-identity).
//! * **Enqueues** are routed by the facade's own address mapping and
//!   applied after flushing the owed no-op span, so the owning channel
//!   observes them at the same logical cycle as the serial model.
//! * **`mutation_gen`** is change-equivalent rather than value-equal: a
//!   shard reports *whether* its scheduler acted and the facade bumps
//!   once per mutating reply. Callers only compare generations for
//!   equality across ticks, and a generation changes here if and only
//!   if it changes serially.
//! * **Derate windows** are owned by the facade; set/clear commands are
//!   clock-independent (they gate only future enqueue outcomes), so
//!   deferred shards receive them eagerly without a flush.
//! * **Trace rings** are shared (`Arc<Mutex<_>>`): cross-shard event
//!   interleaving in the ring is the one thing that may vary between
//!   runs. The ring is a failure-context observer — `RunReport`s are
//!   unaffected.
//!
//! Worker panics (e.g. a conformance auditor firing) are re-raised on
//! the facade thread with their original payload via
//! [`std::panic::resume_unwind`], so typed panic payloads survive the
//! thread hop.

use std::cell::RefCell;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use crate::backend::{BackendKind, MemoryBackend};
use crate::channel::{Channel, ChannelStats, QueueFull};
use crate::config::{AddressMapping, DramConfig, Timing};
use crate::conformance::ConformanceStats;
use crate::power::{EnergyBreakdown, PowerParams};
use crate::request::{AccessKind, Completion, MemRequest};

/// Which tick flavor an `Advance` command executes.
#[derive(Debug, Clone, Copy)]
enum TickKind {
    /// Full per-cycle tick ([`Channel::tick`]), the cycle engine's path.
    Cycle,
    /// Bound-gated tick (the serial `tick_event` per-channel logic).
    Event,
}

/// A contiguous group of channels owned by one shard, together with the
/// per-channel cached scheduling bounds. The facade's inline shard and
/// every worker run this same code, so the per-channel logic cannot
/// drift between the local and remote paths.
#[derive(Debug)]
struct ChannelGroup {
    channels: Vec<Channel>,
    /// Global channel index of each entry in `channels`.
    global: Vec<usize>,
    /// Cached `Channel::next_sched_event` bounds (`0` = unknown), the
    /// per-shard slice of the serial model's `sched_bounds`.
    bounds: Vec<u64>,
}

impl ChannelGroup {
    fn new(channels: Vec<Channel>, global: Vec<usize>) -> Self {
        let n = channels.len();
        Self {
            channels,
            global,
            bounds: vec![0; n],
        }
    }

    /// One full cycle on every owned channel (cycle-engine path; bounds
    /// untouched, exactly like the serial `MemorySystem::tick`). Returns
    /// whether any scheduler acted.
    fn tick(&mut self) -> bool {
        let mut mutated = false;
        for ch in &mut self.channels {
            mutated |= ch.tick();
        }
        mutated
    }

    /// One bound-gated cycle on every owned channel — the serial
    /// `tick_event` body restricted to this shard's channels. Returns
    /// whether any scheduler acted (the shard-level mutation flag).
    fn tick_event(&mut self) -> bool {
        let mut mutated = false;
        for (ch, bound) in self.channels.iter_mut().zip(&mut self.bounds) {
            let soon = ch.now() + 1;
            if *bound > soon {
                if ch.next_retire() <= soon {
                    ch.tick_retire_only();
                } else {
                    ch.advance_noop(1);
                }
            } else {
                let (changed, b) = ch.tick_with_bound();
                if changed {
                    *bound = 0;
                    mutated = true;
                } else {
                    *bound = b;
                }
            }
        }
        mutated
    }

    /// Serial enqueue restricted to one owned channel: on acceptance the
    /// cached bound is tightened in O(1), and the caller learns the
    /// request was accepted (a mutation).
    fn enqueue(&mut self, local: usize, req: MemRequest) -> (Result<(), QueueFull>, bool) {
        let r = self.channels[local].enqueue(req);
        if r.is_ok() {
            let b = self.bounds[local];
            if b != 0 {
                self.bounds[local] = self.channels[local].bound_with_enqueued(b, &req);
            }
        }
        let accepted = r.is_ok();
        (r, accepted)
    }

    fn advance_noop(&mut self, span: u64) {
        for ch in &mut self.channels {
            ch.advance_noop(span);
        }
    }

    /// The shard-local event bound: the serial `next_event_cached`
    /// formula restricted to the owned channels. Absolute, so it stays
    /// valid for as long as the shard is quiescent.
    fn min_bound(&self) -> u64 {
        let mut min = u64::MAX;
        for (ch, bound) in self.channels.iter().zip(&self.bounds) {
            let b = if *bound == 0 {
                ch.now() + 1
            } else {
                (*bound).min(ch.next_retire())
            };
            min = min.min(b);
        }
        min
    }

    /// Drains owned channels' completions tagged with their global
    /// channel index (only non-empty channels appear).
    fn drain_tagged(&mut self) -> Vec<(usize, Vec<Completion>)> {
        let mut out = Vec::new();
        for (i, ch) in self.channels.iter_mut().enumerate() {
            let mut buf = Vec::new();
            ch.drain_completions_into(&mut buf);
            if !buf.is_empty() {
                out.push((self.global[i], buf));
            }
        }
        out
    }
}

/// A command from the facade to a shard worker. Every command first
/// flushes the owed no-op span (`noop`), then executes `op`; exactly one
/// [`Reply`] comes back per command.
#[derive(Debug)]
struct Cmd {
    noop: u64,
    op: Op,
}

#[derive(Debug)]
enum Op {
    /// Flush only (`tick: None`) or flush-then-tick; the reply carries
    /// the tick's completions.
    Advance { tick: Option<TickKind> },
    /// Enqueue `req` on the `local`-indexed owned channel.
    Enqueue { local: usize, req: MemRequest },
    /// `advance_idle_to(target)` on every owned channel.
    AdvanceIdleTo(u64),
    /// Set (`Some`) or clear (`None`) the read derate cap.
    SetDerate(Option<usize>),
    /// Share the event-trace ring with every owned channel.
    SetTrace(attache_metrics::SharedTraceRing),
    /// Attach protocol auditors validating against `Timing`.
    EnableConformance(Timing),
    /// Reset statistics and energy on every owned channel.
    ResetStats,
    Query(Query),
    Shutdown,
    /// Chaos hook: panic on the worker thread with the given message
    /// before any reply is sent, exercising the facade's hung-worker
    /// path end-to-end (see [`ShardedMemory::chaos_panic`]).
    ChaosPanic(String),
}

#[derive(Debug, Clone, Copy)]
enum Query {
    Stats,
    Energy,
    QueueDepths,
    Subrank,
    IsIdle,
    NextEvent,
    Conformance,
    CanAccept { local: usize, kind: AccessKind },
}

/// One reply per command: the shard's fresh event bound, whether the
/// command mutated queue/bank state, and the operation's payload.
#[derive(Debug)]
struct Reply {
    min_bound: u64,
    mutated: bool,
    payload: Payload,
}

#[derive(Debug)]
enum Payload {
    None,
    Completions(Vec<(usize, Vec<Completion>)>),
    Enqueue(Result<(), QueueFull>),
    Stats(Vec<ChannelStats>),
    Energy(Vec<EnergyBreakdown>),
    Depths(Vec<(usize, usize)>),
    Subrank(Vec<(Vec<u64>, Vec<u64>)>),
    Bool(bool),
    U64(u64),
    Conformance(Vec<Option<ConformanceStats>>),
}

fn worker_loop(mut group: ChannelGroup, rx: Receiver<Cmd>, tx: Sender<Reply>) {
    while let Ok(cmd) = rx.recv() {
        if cmd.noop > 0 {
            group.advance_noop(cmd.noop);
        }
        let mut mutated = false;
        let payload = match cmd.op {
            Op::Shutdown => return,
            Op::ChaosPanic(msg) => panic!("{msg}"),
            Op::Advance { tick } => {
                match tick {
                    Some(TickKind::Cycle) => mutated = group.tick(),
                    Some(TickKind::Event) => mutated = group.tick_event(),
                    None => {}
                }
                Payload::Completions(group.drain_tagged())
            }
            Op::Enqueue { local, req } => {
                let (r, accepted) = group.enqueue(local, req);
                mutated = accepted;
                Payload::Enqueue(r)
            }
            Op::AdvanceIdleTo(target) => {
                for ch in &mut group.channels {
                    ch.advance_idle_to(target);
                }
                Payload::None
            }
            Op::SetDerate(cap) => {
                for ch in &mut group.channels {
                    ch.set_read_derate(cap);
                }
                Payload::None
            }
            Op::SetTrace(ring) => {
                for ch in &mut group.channels {
                    ch.set_trace(ring.clone());
                }
                Payload::None
            }
            Op::EnableConformance(timing) => {
                for ch in &mut group.channels {
                    ch.attach_auditor(timing);
                }
                Payload::None
            }
            Op::ResetStats => {
                for ch in &mut group.channels {
                    ch.reset_stats();
                }
                Payload::None
            }
            Op::Query(q) => match q {
                Query::Stats => Payload::Stats(group.channels.iter().map(Channel::stats).collect()),
                Query::Energy => {
                    Payload::Energy(group.channels.iter().map(Channel::energy).collect())
                }
                Query::QueueDepths => {
                    Payload::Depths(group.channels.iter().map(Channel::queue_depths).collect())
                }
                Query::Subrank => Payload::Subrank(
                    group
                        .channels
                        .iter()
                        .map(|ch| (ch.subrank_busy().to_vec(), ch.subrank_cas().to_vec()))
                        .collect(),
                ),
                Query::IsIdle => Payload::Bool(group.channels.iter().all(Channel::is_idle)),
                Query::NextEvent => Payload::U64(
                    group
                        .channels
                        .iter()
                        .map(Channel::next_event)
                        .min()
                        .unwrap_or(u64::MAX),
                ),
                Query::Conformance => Payload::Conformance(
                    group
                        .channels
                        .iter()
                        .map(Channel::conformance_stats)
                        .collect(),
                ),
                Query::CanAccept { local, kind } => Payload::Bool(match kind {
                    AccessKind::Read => group.channels[local].can_accept_read(),
                    AccessKind::Write => group.channels[local].can_accept_write(),
                }),
            },
        };
        let reply = Reply {
            min_bound: group.min_bound(),
            mutated,
            payload,
        };
        if tx.send(reply).is_err() {
            return; // facade dropped — shut down
        }
    }
}

#[derive(Debug)]
struct WorkerHandle {
    tx: Sender<Cmd>,
    rx: Receiver<Reply>,
    join: Option<JoinHandle<()>>,
}

/// Everything mutable behind the facade. Lives in a `RefCell` because
/// several `&self` trait methods (`stats`, `next_event`, `is_idle`, …)
/// must flush owed no-op spans to the workers before answering.
#[derive(Debug)]
struct Inner {
    /// Shard 0, hosted inline on the calling thread.
    local: ChannelGroup,
    /// Shards `1..n`, one worker thread each.
    workers: Vec<WorkerHandle>,
    /// The global bus clock (all channels advance in lockstep; worker
    /// channels may lag by their owed no-op span).
    now: u64,
    mutation_gen: u64,
    derate: Option<(usize, u64)>,
    /// Owed `advance_noop` span per worker, flushed with the next
    /// command sent to it.
    pending_noop: Vec<u64>,
    /// Cached shard event bound per worker (absolute; refreshed by
    /// every reply). Valid while the shard is quiescent because bounds
    /// and retire times are absolute cycles.
    shard_next: Vec<u64>,
    /// Per-global-channel completion stash, re-merged channel-major.
    stash: Vec<Vec<Completion>>,
}

impl Inner {
    /// Sends `op` to worker `s` with the owed no-op span folded in.
    fn send(&mut self, s: usize, op: Op) {
        let noop = std::mem::take(&mut self.pending_noop[s]);
        if self.workers[s].tx.send(Cmd { noop, op }).is_err() {
            // The worker is gone; surface its panic payload.
            self.join_panicked(s);
        }
    }

    /// Receives worker `s`'s reply, refreshing its cached bound and
    /// folding its mutation flag into the facade generation.
    fn recv(&mut self, s: usize) -> Payload {
        match self.workers[s].rx.recv() {
            Ok(reply) => {
                self.shard_next[s] = reply.min_bound;
                if reply.mutated {
                    self.mutation_gen += 1;
                }
                reply.payload
            }
            Err(_) => self.join_panicked(s),
        }
    }

    /// The worker hung up: join it and re-raise its panic payload on
    /// this thread (preserving typed payloads for downstream catchers).
    fn join_panicked(&mut self, s: usize) -> ! {
        if let Some(handle) = self.workers[s].join.take() {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
        panic!("shard worker {} exited without a panic", s + 1);
    }

    /// Round-trips `op` to every worker (fan-out first, then fan-in, so
    /// workers run concurrently) and returns the payloads in shard
    /// order.
    fn broadcast(&mut self, mk: impl Fn() -> Op) -> Vec<Payload> {
        for s in 0..self.workers.len() {
            self.send(s, mk());
        }
        (0..self.workers.len()).map(|s| self.recv(s)).collect()
    }

    /// Stashes a worker tick's completions for the channel-major merge.
    fn stash_completions(&mut self, tagged: Payload) {
        if let Payload::Completions(tagged) = tagged {
            for (global, mut buf) in tagged {
                self.stash[global].append(&mut buf);
            }
        }
    }

    /// Serial `expire_derate`: at the top of both tick paths, lift an
    /// elapsed derate on every channel at exactly cycle `until`.
    fn expire_derate(&mut self) {
        if let Some((_, until)) = self.derate {
            if self.now >= until {
                for ch in &mut self.local.channels {
                    ch.set_read_derate(None);
                }
                let replies = self.broadcast(|| Op::SetDerate(None));
                drop(replies);
                self.derate = None;
                self.mutation_gen += 1;
            }
        }
    }

    fn clamp_to_derate_expiry(&self, bound: u64) -> u64 {
        match self.derate {
            Some((_, until)) => bound.min(until.max(self.now + 1)),
            None => bound,
        }
    }
}

/// The cycle-level memory model with its channels sharded across worker
/// threads — a drop-in [`MemoryBackend`] whose observable behavior is
/// **bit-identical** to [`MemorySystem`](crate::MemorySystem) (pinned by
/// `crates/sim/tests/sharded.rs`); only the wall-clock cost differs.
///
/// Construct through
/// [`new_backend_with_shards`](crate::backend::new_backend_with_shards),
/// which falls back to the serial model when fewer than two shards
/// would carry channels.
#[derive(Debug)]
pub struct ShardedMemory {
    cfg: DramConfig,
    mapping: AddressMapping,
    /// Effective shard count: `min(requested, channels)`, at least 2.
    shards: usize,
    inner: RefCell<Inner>,
}

// The experiment grid moves backends across worker threads; the facade
// owns its mpsc endpoints outright, so `Send` holds (and is required by
// the `MemoryBackend` supertrait — this fails to compile otherwise).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ShardedMemory>();
};

impl ShardedMemory {
    /// Creates an idle sharded memory system with `shards` shards
    /// (clamped to `2..=cfg.channels`). Channels are constructed on the
    /// calling thread in global index order — identically to the serial
    /// model — then moved to their owning shard.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.channels < 2` (one channel leaves nothing to
    /// shard; use the serial model).
    pub fn new(cfg: DramConfig, power: PowerParams, shards: usize) -> Self {
        assert!(
            cfg.channels >= 2,
            "sharding requires at least two channels"
        );
        let n = shards.clamp(2, cfg.channels);
        let mut per_shard: Vec<(Vec<Channel>, Vec<usize>)> = (0..n).map(|_| Default::default()).collect();
        for c in 0..cfg.channels {
            let (chans, globals) = &mut per_shard[c % n];
            chans.push(Channel::new(c, cfg, power));
            globals.push(c);
        }
        let mut groups = per_shard
            .into_iter()
            .map(|(chans, globals)| ChannelGroup::new(chans, globals));
        let local = groups.next().expect("n >= 2");
        let workers = groups
            .enumerate()
            .map(|(i, group)| {
                let (cmd_tx, cmd_rx) = channel::<Cmd>();
                let (reply_tx, reply_rx) = channel::<Reply>();
                let join = std::thread::Builder::new()
                    .name(format!("attache-shard-{}", i + 1))
                    .spawn(move || worker_loop(group, cmd_rx, reply_tx))
                    .expect("spawn shard worker");
                WorkerHandle {
                    tx: cmd_tx,
                    rx: reply_rx,
                    join: Some(join),
                }
            })
            .collect::<Vec<_>>();
        let n_workers = workers.len();
        Self {
            cfg,
            mapping: AddressMapping::new(cfg),
            shards: n,
            inner: RefCell::new(Inner {
                local,
                workers,
                now: 0,
                mutation_gen: 0,
                derate: None,
                pending_noop: vec![0; n_workers],
                shard_next: vec![0; n_workers],
                stash: vec![Vec::new(); cfg.channels],
            }),
        }
    }

    /// The effective shard count (after clamping to the channel count).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Chaos-test hook: makes the worker owning shard `shard` (in
    /// `1..shard_count()`; shard 0 runs inline and has no worker) panic
    /// with exactly `msg`. The facade joins the dead worker and re-raises
    /// its payload here via `resume_unwind`, so this call never returns —
    /// callers pin the behavior with `std::panic::catch_unwind`.
    ///
    /// # Panics
    ///
    /// Always — with the worker's own panic payload (`msg`).
    pub fn chaos_panic(&mut self, shard: usize, msg: &str) -> ! {
        assert!(
            (1..self.shards).contains(&shard),
            "chaos_panic targets a worker shard (1..{})",
            self.shards
        );
        let inner = self.inner.get_mut();
        let s = shard - 1;
        inner.send(s, Op::ChaosPanic(msg.to_string()));
        // The worker dies before replying; recv joins it and re-raises.
        inner.recv(s);
        unreachable!("recv from a chaos-panicked worker must diverge")
    }

    /// Which shard owns global channel `c`.
    fn shard_of(&self, c: usize) -> usize {
        c % self.shards
    }

    /// The owning shard's local index for global channel `c`.
    fn local_of(&self, c: usize) -> usize {
        c / self.shards
    }

    /// One tick (either flavor) across all shards: fan the tick out to
    /// every active worker, run the inline shard, fan the replies in.
    /// With `defer` (event engine), workers whose cached bound lies
    /// beyond the horizon accrue an owed no-op instead — the proven
    /// all-`advance_noop(1)` serial path.
    fn tick_all(&mut self, kind: TickKind, defer: bool) {
        let inner = self.inner.get_mut();
        inner.expire_derate();
        let soon = inner.now + 1;
        let n_workers = inner.workers.len();
        let mut awaiting = Vec::with_capacity(n_workers);
        for s in 0..n_workers {
            if defer && inner.shard_next[s] > soon {
                inner.pending_noop[s] += 1;
            } else {
                inner.send(s, Op::Advance { tick: Some(kind) });
                awaiting.push(s);
            }
        }
        let mutated = match kind {
            TickKind::Cycle => inner.local.tick(),
            TickKind::Event => inner.local.tick_event(),
        };
        if mutated {
            inner.mutation_gen += 1;
        }
        for s in awaiting {
            let payload = inner.recv(s);
            inner.stash_completions(payload);
        }
        inner.now += 1;
    }

    /// Round-trips a query to every worker after flushing owed no-op
    /// spans, returning payloads in shard order (shard 0 is handled
    /// inline by the caller).
    fn query_workers(&self, q: Query) -> Vec<Payload> {
        self.inner.borrow_mut().broadcast(|| Op::Query(q))
    }

    /// Assembles a per-global-channel view from the inline shard and the
    /// worker payloads, in global channel-index order — the aggregation
    /// order bit-identity requires.
    fn per_channel<T>(
        &self,
        local_vals: Vec<T>,
        worker_payloads: Vec<Payload>,
        extract: impl Fn(Payload) -> Vec<T>,
    ) -> Vec<T>
    where
        T: Clone,
    {
        let mut slots: Vec<Option<T>> = vec![None; self.cfg.channels];
        let inner = self.inner.borrow();
        for (i, v) in local_vals.into_iter().enumerate() {
            slots[inner.local.global[i]] = Some(v);
        }
        drop(inner);
        for (w, payload) in worker_payloads.into_iter().enumerate() {
            let shard = w + 1;
            for (i, v) in extract(payload).into_iter().enumerate() {
                slots[shard + i * self.shards] = Some(v);
            }
        }
        slots
            .into_iter()
            .map(|v| v.expect("every channel owned by exactly one shard"))
            .collect()
    }
}

impl Drop for ShardedMemory {
    fn drop(&mut self) {
        let inner = self.inner.get_mut();
        for w in &inner.workers {
            let _ = w.tx.send(Cmd {
                noop: 0,
                op: Op::Shutdown,
            });
        }
        for w in &mut inner.workers {
            if let Some(handle) = w.join.take() {
                // Swallow worker panics here: if one fired mid-run it was
                // already re-raised by `recv`; during unwind a second
                // panic would abort.
                let _ = handle.join();
            }
        }
    }
}

impl MemoryBackend for ShardedMemory {
    fn kind(&self) -> BackendKind {
        // Same model, same numbers — sharding is an execution strategy,
        // not a timing model, so reports and cache keys stay `cycle`.
        BackendKind::Cycle
    }

    fn config(&self) -> &DramConfig {
        &self.cfg
    }

    fn mapping(&self) -> &AddressMapping {
        &self.mapping
    }

    fn can_accept(&self, line_addr: u64, kind: AccessKind) -> bool {
        let c = self.channel_of(line_addr);
        let (shard, local) = (self.shard_of(c), self.local_of(c));
        if shard == 0 {
            let inner = self.inner.borrow();
            return match kind {
                AccessKind::Read => inner.local.channels[local].can_accept_read(),
                AccessKind::Write => inner.local.channels[local].can_accept_write(),
            };
        }
        let mut inner = self.inner.borrow_mut();
        let w = shard - 1;
        inner.send(w, Op::Query(Query::CanAccept { local, kind }));
        match inner.recv(w) {
            Payload::Bool(b) => b,
            _ => unreachable!("CanAccept replies Bool"),
        }
    }

    fn enqueue(&mut self, req: MemRequest) -> Result<(), QueueFull> {
        let c = self.channel_of(req.line_addr);
        let (shard, local) = (self.shard_of(c), self.local_of(c));
        let inner = self.inner.get_mut();
        if shard == 0 {
            let (r, accepted) = inner.local.enqueue(local, req);
            if accepted {
                inner.mutation_gen += 1;
            }
            return r;
        }
        let w = shard - 1;
        inner.send(w, Op::Enqueue { local, req });
        match inner.recv(w) {
            Payload::Enqueue(r) => r,
            _ => unreachable!("Enqueue replies Enqueue"),
        }
    }

    fn tick(&mut self) {
        self.tick_all(TickKind::Cycle, false);
    }

    fn tick_event(&mut self) {
        self.tick_all(TickKind::Event, true);
    }

    fn advance_noop(&mut self, span: u64) {
        let inner = self.inner.get_mut();
        inner.local.advance_noop(span);
        for p in &mut inner.pending_noop {
            *p += span;
        }
        inner.now += span;
    }

    fn advance_idle_to(&mut self, target: u64) {
        let inner = self.inner.get_mut();
        for ch in &mut inner.local.channels {
            ch.advance_idle_to(target);
        }
        let replies = inner.broadcast(|| Op::AdvanceIdleTo(target));
        drop(replies);
        inner.now = target;
    }

    fn now(&self) -> u64 {
        self.inner.borrow().now
    }

    fn is_idle(&self) -> bool {
        {
            let inner = self.inner.borrow();
            if !inner.local.channels.iter().all(Channel::is_idle) {
                return false;
            }
        }
        self.query_workers(Query::IsIdle)
            .into_iter()
            .all(|p| matches!(p, Payload::Bool(true)))
    }

    fn drain_completions(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        self.drain_completions_into(&mut out);
        out
    }

    fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        let shards = self.shards;
        let inner = self.inner.get_mut();
        for c in 0..self.cfg.channels {
            if c % shards == 0 {
                inner.local.channels[c / shards].drain_completions_into(out);
            } else {
                out.append(&mut inner.stash[c]);
            }
        }
    }

    fn next_event(&self) -> u64 {
        let worker_min = self
            .query_workers(Query::NextEvent)
            .into_iter()
            .map(|p| match p {
                Payload::U64(v) => v,
                _ => unreachable!("NextEvent replies U64"),
            })
            .min()
            .unwrap_or(u64::MAX);
        let inner = self.inner.borrow();
        let local_min = inner
            .local
            .channels
            .iter()
            .map(Channel::next_event)
            .min()
            .unwrap_or(u64::MAX);
        inner.clamp_to_derate_expiry(local_min.min(worker_min))
    }

    fn next_event_cached(&self) -> u64 {
        let inner = self.inner.borrow();
        let mut min = inner.local.min_bound();
        for &b in &inner.shard_next {
            min = min.min(b);
        }
        inner.clamp_to_derate_expiry(min)
    }

    fn mutation_gen(&self) -> u64 {
        self.inner.borrow().mutation_gen
    }

    fn stats(&self) -> ChannelStats {
        let mut agg = ChannelStats::default();
        for s in self.channel_stats() {
            agg.add(&s);
        }
        agg
    }

    fn channel_stats(&self) -> Vec<ChannelStats> {
        let payloads = self.query_workers(Query::Stats);
        let local = {
            let inner = self.inner.borrow();
            inner.local.channels.iter().map(Channel::stats).collect()
        };
        self.per_channel(local, payloads, |p| match p {
            Payload::Stats(v) => v,
            _ => unreachable!("Stats replies Stats"),
        })
    }

    fn energy(&self) -> EnergyBreakdown {
        let payloads = self.query_workers(Query::Energy);
        let local = {
            let inner = self.inner.borrow();
            inner.local.channels.iter().map(Channel::energy).collect()
        };
        // Summed in global channel-index order: `EnergyBreakdown::add`
        // accumulates `f64`s, so the order is part of bit-identity.
        let per = self.per_channel(local, payloads, |p| match p {
            Payload::Energy(v) => v,
            _ => unreachable!("Energy replies Energy"),
        });
        let mut agg = EnergyBreakdown::default();
        for e in per {
            agg.add(&e);
        }
        agg
    }

    fn reset_stats(&mut self) {
        let inner = self.inner.get_mut();
        // The owed no-op span is flushed by `send`, so every channel's
        // stats epoch starts at the same (current) cycle.
        for ch in &mut inner.local.channels {
            ch.reset_stats();
        }
        let replies = inner.broadcast(|| Op::ResetStats);
        drop(replies);
    }

    fn queue_depths(&self) -> Vec<(usize, usize)> {
        let payloads = self.query_workers(Query::QueueDepths);
        let local = {
            let inner = self.inner.borrow();
            inner
                .local
                .channels
                .iter()
                .map(Channel::queue_depths)
                .collect()
        };
        self.per_channel(local, payloads, |p| match p {
            Payload::Depths(v) => v,
            _ => unreachable!("QueueDepths replies Depths"),
        })
    }

    fn subrank_busy(&self) -> Vec<Vec<u64>> {
        self.subrank_view(false)
    }

    fn subrank_cas(&self) -> Vec<Vec<u64>> {
        self.subrank_view(true)
    }

    fn fault_derate_reads(&mut self, cap: usize, until: u64) {
        let inner = self.inner.get_mut();
        for ch in &mut inner.local.channels {
            ch.set_read_derate(Some(cap));
        }
        let replies = inner.broadcast(|| Op::SetDerate(Some(cap)));
        drop(replies);
        inner.derate = Some((cap, until));
        inner.mutation_gen += 1;
    }

    fn set_trace(&mut self, ring: attache_metrics::SharedTraceRing) {
        let inner = self.inner.get_mut();
        for ch in &mut inner.local.channels {
            ch.set_trace(ring.clone());
        }
        let r = ring;
        let replies = inner.broadcast(|| Op::SetTrace(r.clone()));
        drop(replies);
    }

    fn enable_conformance(&mut self) {
        let timing = self.cfg.timing;
        let inner = self.inner.get_mut();
        for ch in &mut inner.local.channels {
            ch.attach_auditor(timing);
        }
        let replies = inner.broadcast(|| Op::EnableConformance(timing));
        drop(replies);
    }

    fn conformance_stats(&self) -> Option<ConformanceStats> {
        let payloads = self.query_workers(Query::Conformance);
        let local = {
            let inner = self.inner.borrow();
            inner
                .local
                .channels
                .iter()
                .map(Channel::conformance_stats)
                .collect()
        };
        let per_channel = self.per_channel(local, payloads, |p| match p {
            Payload::Conformance(v) => v,
            _ => unreachable!("Conformance replies Conformance"),
        });
        let per: Vec<ConformanceStats> = per_channel.into_iter().flatten().collect();
        if per.is_empty() {
            None
        } else {
            Some(ConformanceStats::aggregate(&per))
        }
    }
}

impl ShardedMemory {
    fn subrank_view(&self, cas: bool) -> Vec<Vec<u64>> {
        let payloads = self.query_workers(Query::Subrank);
        let local = {
            let inner = self.inner.borrow();
            inner
                .local
                .channels
                .iter()
                .map(|ch| (ch.subrank_busy().to_vec(), ch.subrank_cas().to_vec()))
                .collect()
        };
        self.per_channel(local, payloads, |p| match p {
            Payload::Subrank(v) => v,
            _ => unreachable!("Subrank replies Subrank"),
        })
        .into_iter()
        .map(|(busy, c)| if cas { c } else { busy })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{AccessWidth, Origin};
    use crate::MemorySystem;

    fn read(id: u64, line_addr: u64, arrival: u64) -> MemRequest {
        MemRequest {
            id,
            line_addr,
            kind: AccessKind::Read,
            width: AccessWidth::Full,
            origin: Origin::Demand { core: 0 },
            arrival,
        }
    }

    fn write(id: u64, line_addr: u64, arrival: u64) -> MemRequest {
        MemRequest {
            id,
            line_addr,
            kind: AccessKind::Write,
            width: AccessWidth::Full,
            origin: Origin::Writeback,
            arrival,
        }
    }

    /// Drives the same request stream through the serial model and a
    /// sharded one, cycle by cycle, asserting identical completions,
    /// stats and energy bits at the end.
    fn lockstep(shards: usize, cycles: u64, mut traffic: impl FnMut(u64) -> Vec<MemRequest>) {
        let cfg = DramConfig::table2();
        let power = PowerParams::ddr4_1600();
        let mut serial = MemorySystem::new(cfg, power);
        let mut sharded = ShardedMemory::new(cfg, power, shards);
        let mut done_serial = Vec::new();
        let mut done_sharded = Vec::new();
        for t in 0..cycles {
            for req in traffic(t) {
                let a = MemoryBackend::enqueue(&mut serial, req);
                let b = sharded.enqueue(req);
                assert_eq!(a, b, "enqueue outcome at cycle {t}");
            }
            MemoryBackend::tick_event(&mut serial);
            sharded.tick_event();
            MemoryBackend::drain_completions_into(&mut serial, &mut done_serial);
            sharded.drain_completions_into(&mut done_sharded);
            assert_eq!(
                MemoryBackend::next_event_cached(&serial),
                sharded.next_event_cached(),
                "event bound at cycle {t}"
            );
        }
        assert_eq!(done_serial, done_sharded);
        assert_eq!(MemoryBackend::stats(&serial), sharded.stats());
        assert_eq!(
            MemoryBackend::energy(&serial).total_pj().to_bits(),
            sharded.energy().total_pj().to_bits()
        );
        assert_eq!(MemoryBackend::now(&serial), sharded.now());
    }

    #[test]
    fn sharded_matches_serial_on_mixed_traffic() {
        lockstep(2, 3_000, |t| {
            let mut reqs = Vec::new();
            if t % 7 == 0 {
                reqs.push(read(t * 4 + 1, (t * 13) % 512, t));
            }
            if t % 11 == 0 {
                reqs.push(write(t * 4 + 2, (t * 29) % 512, t));
            }
            reqs
        });
    }

    #[test]
    fn oversized_shard_counts_clamp_to_the_channel_count() {
        let mem = ShardedMemory::new(DramConfig::table2(), PowerParams::ddr4_1600(), 8);
        assert_eq!(mem.shard_count(), 2);
        lockstep(8, 1_000, |t| {
            if t % 5 == 0 {
                vec![read(t + 1, (t * 3) % 256, t)]
            } else {
                vec![]
            }
        });
    }

    #[test]
    fn derate_windows_expire_identically() {
        let cfg = DramConfig::table2();
        let power = PowerParams::ddr4_1600();
        let mut serial = MemorySystem::new(cfg, power);
        let mut sharded = ShardedMemory::new(cfg, power, 2);
        MemoryBackend::fault_derate_reads(&mut serial, 1, 200);
        sharded.fault_derate_reads(1, 200);
        let mut id = 0u64;
        for t in 0..400u64 {
            for line in [0u64, 1, 2, 3] {
                id += 1;
                let a = MemoryBackend::enqueue(&mut serial, read(id, line + t, t));
                let b = sharded.enqueue(read(id, line + t, t));
                assert_eq!(a.is_ok(), b.is_ok(), "cycle {t} line {line}");
            }
            MemoryBackend::tick_event(&mut serial);
            sharded.tick_event();
            let _ = MemoryBackend::drain_completions(&mut serial);
            let _ = sharded.drain_completions();
        }
        assert_eq!(MemoryBackend::stats(&serial), sharded.stats());
    }

    #[test]
    fn idle_fast_forward_and_reset_agree() {
        let cfg = DramConfig::table2();
        let power = PowerParams::ddr4_1600();
        let mut serial = MemorySystem::new(cfg, power);
        let mut sharded = ShardedMemory::new(cfg, power, 2);
        let target = 50_000;
        MemoryBackend::advance_idle_to(&mut serial, target);
        sharded.advance_idle_to(target);
        assert_eq!(MemoryBackend::stats(&serial), sharded.stats());
        assert_eq!(
            MemoryBackend::energy(&serial).total_pj().to_bits(),
            sharded.energy().total_pj().to_bits()
        );
        MemoryBackend::reset_stats(&mut serial);
        sharded.reset_stats();
        assert_eq!(MemoryBackend::stats(&serial).cycles, 0);
        assert_eq!(sharded.stats().cycles, 0);
        assert!(sharded.is_idle());
    }

    #[test]
    fn worker_panics_propagate_with_their_payload() {
        let result = std::panic::catch_unwind(|| {
            let mut mem = ShardedMemory::new(DramConfig::table2(), PowerParams::ddr4_1600(), 2);
            // advance_idle_to on a non-idle channel panics inside the
            // worker; the facade must re-raise it here.
            mem.enqueue(read(1, 1, 0)).unwrap(); // channel 1 = shard 1
            mem.advance_idle_to(1_000);
        });
        assert!(result.is_err(), "worker panic must reach the facade");
    }
}
