//! The out-of-order pipeline.
//!
//! A cycle-level, trace-driven model. Every cycle runs, in order:
//! complete (including load-latency resolution and replay), commit, issue,
//! dispatch, fetch. Instructions are identified by monotonically increasing
//! sequence numbers.
//!
//! # Data-oriented layout
//!
//! The reorder buffer is a structure-of-arrays ring ([`Rob`]): per-entry
//! fields live in flat parallel arrays indexed by `seq % capacity` (the
//! live window `head_seq..next_seq` never exceeds the capacity, so the
//! mapping is injective). Completion is event-driven — every issue files
//! its entry under its ready cycle in a [`Calendar`], and `complete`
//! drains the due bucket instead of re-scanning the whole ROB each cycle;
//! load misspeculations queue onto a small pending-replay list drained in
//! sequence order. The issue stage scans only the entries whose operand
//! sleep has expired (a second calendar of wake timers). All of this is
//! architecturally invisible: the cycle-by-cycle transitions are identical
//! to the original record-based core (pinned by the `cycle_identity`
//! goldens in `bitline-sim`).
//!
//! # Skipping quiet cycles
//!
//! Each stage reports whether it changed any state. After a cycle in
//! which none did, every following cycle repeats it until something
//! timed comes due: a ready or wake event, a pending replay's resolve
//! cycle, the commit of a `Done` head held back by its resolve cycle, or
//! the end of a fetch stall. The clock then jumps straight to the
//! earliest of those, and the skipped cycles are added to the fetch-stall
//! count they would each have bumped. Nothing skips while fetch could run
//! or when nothing is scheduled at all (so the deadlock check still
//! fires).

use std::collections::VecDeque;

use bitline_cache::MemorySystem;
use bitline_trace::{Instr, InstrKind, TraceSource, NUM_REGS};

use crate::bpred::BranchPredictor;
use crate::calendar::Calendar;
use crate::config::{CpuConfig, ReplayScope};
use crate::stats::SimStats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum State {
    /// In the issue queue, waiting for operands.
    Waiting,
    /// Issued to a functional unit / the cache.
    Issued,
    /// Result produced (awaiting in-order commit).
    Done,
}

/// Sentinel for "no producer" in the packed producer arrays.
const NO_PRODUCER: u64 = u64::MAX;

/// Flag bits in [`Rob::flags`].
mod flag {
    /// Load latency exceeded the speculative hit assumption.
    pub const MISSPECULATED: u8 = 1 << 0;
    /// Replay already processed for this load.
    pub const REPLAY_HANDLED: u8 = 1 << 1;
    /// This instruction is the mispredicted branch the front end is
    /// blocked on.
    pub const BLOCKED_FETCH: u8 = 1 << 2;
}

/// The reorder buffer as flat parallel arrays over a ring of
/// `capacity` slots; entry `seq` lives at slot `seq % capacity`.
///
/// Per-kind payloads sit in side arrays instead of inline `Option`s:
/// `mem_addr`/`mem_base` are only meaningful for loads and stores,
/// `mem_first_ready` (0 = never executed) only for loads.
#[derive(Debug)]
struct Rob {
    /// Slot-index mask; the ring is sized to the next power of two above
    /// the configured ROB capacity so slot lookup is a mask, not a divide
    /// (occupancy is still capped at `rob_entries` by dispatch).
    mask: u64,
    state: Vec<State>,
    kind: Vec<InstrKind>,
    /// Producer seqs, [`NO_PRODUCER`] when absent.
    producers: Vec<[u64; 2]>,
    issue_cycle: Vec<u64>,
    /// Cycle the result is available (valid when `Issued`/`Done`).
    ready_cycle: Vec<u64>,
    /// For loads: cycle the scheduler learns the true latency.
    resolve_cycle: Vec<u64>,
    flags: Vec<u8>,
    /// For loads: the cycle the data was actually available after the
    /// first execution (0 = none). A replayed load may re-access the
    /// cache (the line has been filled functionally), but its data cannot
    /// materialise before the original fill completes.
    mem_first_ready: Vec<u64>,
    /// Memory-op payload (valid only when `kind` is a load/store).
    mem_addr: Vec<u64>,
    mem_base: Vec<u64>,
    /// For `Waiting` entries: a lower bound on the first cycle their
    /// operands could all be ready. The issue scan skips the entry until
    /// then instead of re-checking its producers every cycle. 0 = check
    /// now; squash resets to 0; producer (re-)issue may pull it forward.
    wake_cycle: Vec<u64>,
    /// Consumers that went to sleep on this entry, by seq. Drained (and
    /// min-woken) when the entry (re-)issues — a re-issued load opens a
    /// fresh speculation window that can start earlier than the bound the
    /// sleeper computed from the previous execution. Stale seqs are
    /// filtered on drain.
    waiters: Vec<Vec<u64>>,
}

impl Rob {
    fn new(capacity: usize) -> Rob {
        let capacity = capacity.next_power_of_two();
        Rob {
            mask: capacity as u64 - 1,
            state: vec![State::Waiting; capacity],
            kind: vec![InstrKind::IntAlu; capacity],
            producers: vec![[NO_PRODUCER; 2]; capacity],
            issue_cycle: vec![0; capacity],
            ready_cycle: vec![0; capacity],
            resolve_cycle: vec![0; capacity],
            flags: vec![0; capacity],
            mem_first_ready: vec![0; capacity],
            mem_addr: vec![0; capacity],
            mem_base: vec![0; capacity],
            wake_cycle: vec![0; capacity],
            waiters: vec![Vec::new(); capacity],
        }
    }

    #[inline]
    fn slot(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }
}

/// The 8-wide out-of-order core (see crate docs).
pub struct Cpu {
    cfg: CpuConfig,
    mem: MemorySystem,
    bpred: BranchPredictor,
    rob: Rob,
    head_seq: u64,
    next_seq: u64,
    rename: [Option<u64>; NUM_REGS],
    fetch_queue: VecDeque<Instr>,
    /// One-instruction lookahead pulled from the trace but not yet fetched.
    fetch_buffer: Option<Instr>,
    iq_count: usize,
    lsq_count: usize,
    cycle: u64,
    fetch_stall_until: u64,
    /// Sequence number of a mispredicted branch blocking the front end.
    fetch_blocked_on: Option<u64>,
    /// An I-cache line whose fill/pull-up we already paid for: `(line,
    /// ready_cycle)`. Prevents re-charging the access on fetch retry.
    fetch_line_ready: Option<(u64, u64)>,
    /// Wakeup events: every issue schedules `seq` at its ready cycle;
    /// stale events (entry squashed or re-issued since) are dropped on
    /// drain.
    ready_events: Calendar,
    /// Loads whose latency misspeculated, awaiting scheduler resolution.
    /// Drained in ascending-seq order; stale seqs are filtered on drain.
    pending_replays: Vec<u64>,
    /// Waiting entries eligible for an operand check this cycle (their
    /// `wake_cycle` has passed). The issue stage scans only this list —
    /// sleeping entries cost nothing until a timer or producer wakes them.
    awake: Vec<u64>,
    /// Sleep-expiry timers: `seq` at its `wake_cycle`, analogous to
    /// `ready_events`; stale entries are filtered on drain.
    wake_events: Calendar,
    /// Scratch for the events a calendar drains in one cycle.
    due: Vec<u64>,
    /// Whether any stage changed state this cycle (see the module docs).
    busy: bool,
    /// Cycles jumped over without stepping.
    skipped_cycles: u64,
    stats: SimStats,
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("cycle", &self.cycle)
            .field("rob", &(self.next_seq - self.head_seq))
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Cpu {
    /// Builds a core over a memory system.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CpuConfig::validate`].
    #[must_use]
    pub fn new(cfg: CpuConfig, mem: MemorySystem) -> Cpu {
        cfg.validate();
        Cpu {
            cfg,
            mem,
            bpred: BranchPredictor::new(),
            rob: Rob::new(cfg.rob_entries),
            head_seq: 0,
            next_seq: 0,
            rename: [None; NUM_REGS],
            fetch_queue: VecDeque::with_capacity(cfg.fetch_queue),
            fetch_buffer: None,
            iq_count: 0,
            lsq_count: 0,
            cycle: 0,
            fetch_stall_until: 0,
            fetch_blocked_on: None,
            fetch_line_ready: None,
            ready_events: Calendar::new(),
            pending_replays: Vec::new(),
            awake: Vec::with_capacity(cfg.rob_entries),
            wake_events: Calendar::new(),
            due: Vec::new(),
            busy: false,
            skipped_cycles: 0,
            stats: SimStats::default(),
        }
    }

    /// Runs until `instructions` have committed; returns the statistics.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline makes no forward progress for an extended
    /// period (a simulator bug, not a workload property).
    pub fn run(&mut self, trace: &mut dyn TraceSource, instructions: u64) -> SimStats {
        let target = self.stats.committed + instructions;
        let mut last_progress = (self.cycle, self.stats.committed);
        while self.stats.committed < target {
            self.step(trace);
            if self.cycle - last_progress.0 > 100_000 {
                let head = (self.head_seq < self.next_seq).then(|| {
                    let s = self.rob.slot(self.head_seq);
                    (
                        self.rob.kind[s],
                        self.rob.state[s],
                        self.rob.ready_cycle[s],
                        self.rob.resolve_cycle[s],
                        self.rob.flags[s],
                    )
                });
                assert!(
                    self.stats.committed > last_progress.1,
                    "pipeline deadlock at cycle {}: rob={} iq={} lsq={} fq={} head={:?} \
                     blocked_on={:?} stall_until={}",
                    self.cycle,
                    self.next_seq - self.head_seq,
                    self.iq_count,
                    self.lsq_count,
                    self.fetch_queue.len(),
                    head,
                    self.fetch_blocked_on,
                    self.fetch_stall_until,
                );
                last_progress = (self.cycle, self.stats.committed);
            }
        }
        self.stats.cycles = self.cycle;
        self.stats
    }

    /// Statistics so far.
    #[must_use]
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats;
        s.cycles = self.cycle;
        s
    }

    /// The memory system (for cache statistics).
    #[must_use]
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Consumes the core, returning the memory system for finalisation.
    #[must_use]
    pub fn into_memory(self) -> MemorySystem {
        self.mem
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cycles so far in which no stage had anything to do and the clock
    /// jumped over them instead of stepping (included in
    /// [`SimStats::cycles`]).
    #[must_use]
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    fn step(&mut self, trace: &mut dyn TraceSource) {
        self.busy = false;
        self.complete();
        self.commit();
        self.issue();
        self.dispatch();
        self.fetch(trace);
        self.cycle += 1;
        if !self.busy {
            self.fast_forward();
        }
    }

    /// After a cycle that changed no state, jumps the clock to the first
    /// cycle at which something timed comes due; every cycle before it
    /// would repeat the quiet one.
    fn fast_forward(&mut self) {
        let fetch_blocked = self.fetch_blocked_on.is_some();
        let fetch_stalled = fetch_blocked || self.cycle < self.fetch_stall_until;
        if !fetch_stalled && self.fetch_queue.len() < self.cfg.fetch_queue {
            return; // fetch runs this cycle
        }
        let mut next = self.ready_events.next_event().unwrap_or(u64::MAX);
        next = next.min(self.wake_events.next_event().unwrap_or(u64::MAX));
        for &seq in &self.pending_replays {
            let s = self.rob.slot(seq);
            if self.live(seq)
                && self.rob.flags[s] & (flag::MISSPECULATED | flag::REPLAY_HANDLED)
                    == flag::MISSPECULATED
            {
                next = next.min(self.rob.resolve_cycle[s]);
            }
        }
        if self.head_seq < self.next_seq {
            // A `Done` head is ready (`complete` checked), so only its
            // resolve cycle can still hold commit back.
            let s = self.rob.slot(self.head_seq);
            if self.rob.state[s] == State::Done {
                next = next.min(self.rob.resolve_cycle[s]);
            }
        }
        if !fetch_blocked && self.fetch_stall_until > self.cycle {
            next = next.min(self.fetch_stall_until);
        }
        if next == u64::MAX || next <= self.cycle {
            return;
        }
        let skipped = next - self.cycle;
        if fetch_stalled {
            self.stats.fetch_stall_cycles += skipped;
        }
        self.skipped_cycles += skipped;
        self.cycle = next;
    }

    #[inline]
    fn live(&self, seq: u64) -> bool {
        seq >= self.head_seq && seq < self.next_seq
    }

    /// Completion + load-latency resolution.
    fn complete(&mut self) {
        let cycle = self.cycle;
        // Drain due wakeup events. An event is stale when its entry
        // retired, was squashed back to Waiting, or was re-issued with a
        // different ready cycle (the re-issue pushed its own event) — the
        // surviving transitions are exactly the entries the original
        // full-ROB scan would have found with `Issued && ready <= cycle`.
        // Each transition touches only its own entry and takes a `max` of
        // the fetch stall, so the drain order does not matter.
        let mut due = std::mem::take(&mut self.due);
        self.ready_events.drain(cycle, &mut due);
        for &seq in &due {
            if !self.live(seq) {
                continue;
            }
            let s = self.rob.slot(seq);
            if self.rob.state[s] != State::Issued || self.rob.ready_cycle[s] > cycle {
                continue;
            }
            self.rob.state[s] = State::Done;
            self.busy = true;
            if self.rob.flags[s] & flag::BLOCKED_FETCH != 0 && self.fetch_blocked_on == Some(seq) {
                let resume = self.rob.ready_cycle[s] + self.cfg.redirect_penalty;
                self.fetch_blocked_on = None;
                self.fetch_stall_until = self.fetch_stall_until.max(resume);
            }
        }
        self.due = due;
        // Load-hit speculation resolution: squash dependents of loads whose
        // latency exceeded the assumption. Drained in ascending seq order
        // (the order the original scan visited them); the state machine is
        // deliberately NOT consulted — a misspeculated load that was itself
        // squashed back to Waiting still replays when its original resolve
        // cycle passes, exactly as before.
        if !self.pending_replays.is_empty() {
            sort_dedup(&mut self.pending_replays);
            let mut pending = std::mem::take(&mut self.pending_replays);
            pending.retain(|&seq| {
                if !self.live(seq) {
                    return false;
                }
                let s = self.rob.slot(seq);
                let fires = self.rob.kind[s] == InstrKind::Load
                    && self.rob.flags[s] & flag::MISSPECULATED != 0
                    && self.rob.flags[s] & flag::REPLAY_HANDLED == 0
                    && self.rob.resolve_cycle[s] <= cycle;
                if fires {
                    self.rob.flags[s] |= flag::REPLAY_HANDLED;
                    self.busy = true;
                    self.replay(seq);
                    return false;
                }
                // Keep only entries that may still fire later.
                self.rob.flags[s] & (flag::MISSPECULATED | flag::REPLAY_HANDLED)
                    == flag::MISSPECULATED
            });
            // Only `issue` queues onto the list, and it runs after
            // `complete` within a cycle, so nothing raced the drain.
            debug_assert!(self.pending_replays.is_empty());
            self.pending_replays = pending;
        }
    }

    /// Squashes and re-queues the speculatively issued consumers of the
    /// mispredicted load `load_seq`.
    fn replay(&mut self, load_seq: u64) {
        self.stats.load_misspeculations += 1;
        let load_slot = self.rob.slot(load_seq);
        let load_issue = self.rob.issue_cycle[load_slot];
        let load_ready = self.rob.ready_cycle[load_slot];
        // Seq numbers squashed so far; dependences only point backwards, so
        // one forward pass reaches the transitive closure.
        let mut squashed: Vec<u64> = Vec::new();
        for seq in (load_seq + 1)..self.next_seq {
            let s = self.rob.slot(seq);
            if self.rob.state[s] == State::Waiting {
                continue;
            }
            // Issued before the load's data was actually ready?
            if self.rob.issue_cycle[s] >= load_ready {
                continue;
            }
            let hit = match self.cfg.replay_scope {
                ReplayScope::DependentsOnly => self.rob.producers[s]
                    .iter()
                    .filter(|&&p| p != NO_PRODUCER)
                    .any(|&p| p == load_seq || squashed.binary_search(&p).is_ok()),
                ReplayScope::AllYounger => self.rob.issue_cycle[s] > load_issue,
            };
            if hit {
                squashed.push(seq);
                self.rob.state[s] = State::Waiting;
                self.rob.wake_cycle[s] = 0;
                self.awake.push(seq);
                self.stats.replays += 1;
                self.iq_count += 1;
                if self.rob.flags[s] & flag::BLOCKED_FETCH != 0 {
                    // The branch that unblocked the front end was fed
                    // speculative data: re-block until it re-executes.
                    self.fetch_blocked_on = Some(seq);
                }
            }
        }
    }

    /// A load may not retire before the scheduler has resolved its latency
    /// (and run any replay); everything younger is therefore held too.
    #[inline]
    fn commit_safe(&self, slot: usize) -> bool {
        self.rob.resolve_cycle[slot] == u64::MAX
            || self.cycle >= self.rob.resolve_cycle[slot]
            || self.rob.flags[slot] & flag::REPLAY_HANDLED != 0
    }

    fn commit(&mut self) {
        for _ in 0..self.cfg.commit_width {
            if self.head_seq == self.next_seq {
                break;
            }
            let s = self.rob.slot(self.head_seq);
            if self.rob.state[s] != State::Done
                || self.rob.ready_cycle[s] > self.cycle
                || !self.commit_safe(s)
            {
                break;
            }
            if self.rob.kind[s].is_mem() {
                self.lsq_count -= 1;
            }
            self.head_seq += 1;
            self.stats.committed += 1;
            self.busy = true;
        }
    }

    /// Is the value produced by `seq` available (or speculatively assumed
    /// available) to a consumer issuing at `cycle`?
    ///
    /// Returns `None` when it is; otherwise a strict lower bound on the
    /// first cycle it could become available, so the consumer can sleep
    /// until then (`u64::MAX` while the producer has not itself issued —
    /// the consumer is woken when it does). Under-estimating the bound
    /// only costs a recheck; over-estimating would change timing, so every
    /// branch below returns the *earliest* cycle the corresponding state
    /// transition can make the value (speculatively) visible.
    fn operand_wake(&self, seq: u64, cycle: u64) -> Option<u64> {
        if !self.live(seq) {
            return None; // retired -> architectural state
        }
        let s = self.rob.slot(seq);
        match self.rob.state[s] {
            // `complete` runs before `issue`, so a Done entry always has
            // `ready_cycle <= cycle`; the bound is kept for robustness.
            State::Done => (self.rob.ready_cycle[s] > cycle).then(|| self.rob.ready_cycle[s]),
            State::Issued => {
                if self.rob.kind[s] == InstrKind::Load {
                    // Load-hit speculation: before the scheduler learns the
                    // true latency, consumers assume the hit latency; the
                    // value is assumed visible in [assumed, resolve).
                    let assumed = self.rob.issue_cycle[s] + u64::from(self.dcache_hit_latency());
                    if cycle < assumed {
                        Some(assumed)
                    } else if cycle < self.rob.resolve_cycle[s] {
                        None
                    } else {
                        // Window closed on a misspeculated load: nothing
                        // arrives before the true ready cycle.
                        Some(self.rob.ready_cycle[s])
                    }
                } else {
                    Some(self.rob.ready_cycle[s])
                }
            }
            State::Waiting => Some(u64::MAX),
        }
    }

    fn dcache_hit_latency(&self) -> u32 {
        self.mem.config().l1d.hit_latency
    }

    fn exec_latency(&self, kind: InstrKind) -> u64 {
        match kind {
            InstrKind::IntAlu | InstrKind::Store => self.cfg.int_latency,
            InstrKind::IntMul => self.cfg.mul_latency,
            InstrKind::FpAlu => self.cfg.fp_latency,
            InstrKind::Branch | InstrKind::Jump => self.cfg.int_latency,
            InstrKind::Load => unreachable!("load latency comes from the memory system"),
        }
    }

    fn issue(&mut self) {
        let cycle = self.cycle;
        // Admit entries whose sleep just expired. A drained event is stale
        // when its entry issued in the meantime (state left Waiting) or
        // re-slept with a later bound (in which case its own fresh event
        // is still queued).
        let mut due = std::mem::take(&mut self.due);
        self.wake_events.drain(cycle, &mut due);
        for &seq in &due {
            if !self.live(seq) {
                continue;
            }
            let s = self.rob.slot(seq);
            if self.rob.state[s] != State::Waiting || self.rob.wake_cycle[s] > cycle {
                continue;
            }
            self.awake.push(seq);
        }
        self.due = due;
        if self.awake.is_empty() {
            return;
        }
        // Every awake entry issues, sleeps or stays blocked behind one
        // that issued: this cycle changes state either way.
        self.busy = true;
        // Dispatch appends in order, but squash wake-ups and expired
        // sleeps arrive unordered, and selection must stay oldest-first.
        sort_dedup(&mut self.awake);
        let mut issued = 0;
        let mut dcache_ops = 0;
        let mut store_ops = 0;
        // Detach the list so the issue body below can borrow `self`
        // freely; nothing pushes to it during the scan (squashes happen in
        // `complete`, dispatch runs after issue).
        let mut awake = std::mem::take(&mut self.awake);
        awake.retain(|&seq| {
            if issued >= self.cfg.issue_width {
                return true; // width exhausted; still a candidate next cycle
            }
            let s = self.rob.slot(seq);
            if !self.live(seq) || self.rob.state[s] != State::Waiting {
                return false;
            }
            let kind = self.rob.kind[s];
            let is_mem = kind.is_mem();
            let is_store = kind == InstrKind::Store;
            if (is_mem && dcache_ops >= self.cfg.dcache_ports)
                || (is_store && store_ops >= self.cfg.dcache_write_ports)
            {
                // Structurally blocked with (possibly) ready operands:
                // stays awake and retries every cycle, as the full scan did.
                return true;
            }
            let mut wake = 0;
            for p in self.rob.producers[s] {
                if p == NO_PRODUCER {
                    continue;
                }
                if let Some(bound) = self.operand_wake(p, cycle) {
                    wake = wake.max(bound);
                    // Register for a wake: if the producer (re-)issues, its
                    // fresh speculation window may open before `bound`.
                    let ps = self.rob.slot(p);
                    self.rob.waiters[ps].push(seq);
                }
            }
            if wake > 0 {
                // All bounds exceed the current cycle, so the entry cannot
                // issue before `wake`; leave the awake list until then. A
                // producer-less bound gets a timer event; a `u64::MAX`
                // bound is woken by the registered producer's issue.
                self.rob.wake_cycle[s] = wake;
                if wake != u64::MAX {
                    self.wake_events.push(wake, seq);
                }
                return false;
            }
            // Issue it.
            let prior_ready = self.rob.mem_first_ready[s];
            let (ready_cycle, resolve_cycle, misspeculated) = match kind {
                InstrKind::Load => {
                    let addr = self.rob.mem_addr[s];
                    let predicted = self.cfg.predecode_hints.then(|| {
                        self.stats.hints += 1;
                        self.rob.mem_base[s]
                    });
                    let out = self.mem.data_access_predicted(addr, predicted, false, cycle);
                    self.stats.loads += 1;
                    // A replayed load re-accesses the cache, but the line
                    // fill from its first execution is still in flight: the
                    // data arrives no earlier than originally established.
                    let ready = (cycle + u64::from(out.latency)).max(prior_ready);
                    let resolve = cycle + self.cfg.load_resolution_delay;
                    let assumed = cycle + u64::from(self.dcache_hit_latency());
                    (ready, resolve, ready > assumed)
                }
                InstrKind::Store => {
                    let addr = self.rob.mem_addr[s];
                    let predicted = self.cfg.predecode_hints.then(|| {
                        self.stats.hints += 1;
                        self.rob.mem_base[s]
                    });
                    let out = self.mem.data_access_predicted(addr, predicted, true, cycle);
                    self.stats.stores += 1;
                    // Stores drain through the store buffer: commit waits
                    // only for the cache port (plus any pull-up delay), not
                    // for the line fill.
                    let delay = u64::from(out.delayed as u32);
                    let ready = cycle + u64::from(self.dcache_hit_latency()) + delay;
                    (ready, u64::MAX, false)
                }
                k => (cycle + self.exec_latency(k), u64::MAX, false),
            };
            self.rob.state[s] = State::Issued;
            self.rob.issue_cycle[s] = cycle;
            self.rob.ready_cycle[s] = ready_cycle;
            self.rob.resolve_cycle[s] = resolve_cycle;
            let mut flags = self.rob.flags[s] & !(flag::MISSPECULATED | flag::REPLAY_HANDLED);
            if misspeculated {
                flags |= flag::MISSPECULATED;
            }
            if kind == InstrKind::Load {
                self.rob.mem_first_ready[s] = ready_cycle;
                // A re-issued load may misspeculate again (replay storms
                // are real); each misspeculating issue queues a fresh
                // replay round.
                if misspeculated {
                    self.pending_replays.push(seq);
                }
            }
            self.rob.flags[s] = flags;
            self.ready_events.push(ready_cycle, seq);
            // Wake sleeping consumers: their stored bound may predate this
            // (re-)issue, whose value can arrive earlier than they assumed.
            // `min` never extends a sleep, so waking is always safe.
            if !self.rob.waiters[s].is_empty() {
                let dep_wake = if kind == InstrKind::Load {
                    cycle + u64::from(self.dcache_hit_latency())
                } else {
                    ready_cycle
                };
                let mut ws = std::mem::take(&mut self.rob.waiters[s]);
                for &w in &ws {
                    if self.live(w) {
                        let ds = self.rob.slot(w);
                        if self.rob.state[ds] == State::Waiting {
                            let wc = &mut self.rob.wake_cycle[ds];
                            *wc = (*wc).min(dep_wake);
                            // Re-admit the sleeper at its (possibly pulled
                            // forward) wake cycle; stale events filter out.
                            self.wake_events.push(*wc, w);
                        }
                    }
                }
                ws.clear();
                self.rob.waiters[s] = ws;
            }
            if kind.is_control() {
                self.stats.branches += 1;
            }
            issued += 1;
            self.iq_count -= 1;
            if is_mem {
                dcache_ops += 1;
            }
            if is_store {
                store_ops += 1;
            }
            false // issued: out of the awake list
        });
        debug_assert!(self.awake.is_empty());
        self.awake = awake;
    }

    fn dispatch(&mut self) {
        for _ in 0..self.cfg.dispatch_width {
            if (self.next_seq - self.head_seq) as usize >= self.cfg.rob_entries
                || self.iq_count >= self.cfg.iq_entries
            {
                break;
            }
            let Some(instr) = self.fetch_queue.front().copied() else { break };
            let is_mem = instr.kind.is_mem();
            if is_mem && self.lsq_count >= self.cfg.lsq_entries {
                break;
            }
            self.fetch_queue.pop_front();
            self.busy = true;
            let seq = self.next_seq;
            self.next_seq += 1;
            let producers = [
                instr.srcs[0].and_then(|r| self.rename[r as usize]).unwrap_or(NO_PRODUCER),
                instr.srcs[1].and_then(|r| self.rename[r as usize]).unwrap_or(NO_PRODUCER),
            ];
            if let Some(d) = instr.dest {
                self.rename[d as usize] = Some(seq);
            }
            if is_mem {
                self.lsq_count += 1;
            }
            self.iq_count += 1;
            let s = self.rob.slot(seq);
            self.rob.state[s] = State::Waiting;
            self.rob.kind[s] = instr.kind;
            self.rob.producers[s] = producers;
            self.rob.issue_cycle[s] = 0;
            self.rob.ready_cycle[s] = 0;
            self.rob.resolve_cycle[s] = u64::MAX;
            self.rob.flags[s] =
                if self.fetch_blocked_on == Some(seq) { flag::BLOCKED_FETCH } else { 0 };
            self.rob.mem_first_ready[s] = 0;
            self.rob.wake_cycle[s] = 0;
            self.rob.waiters[s].clear();
            self.awake.push(seq);
            if is_mem {
                let m = instr.mem.expect("memory ops carry a memory reference");
                self.rob.mem_addr[s] = m.addr;
                self.rob.mem_base[s] = m.base;
            }
        }
    }

    fn fetch(&mut self, trace: &mut dyn TraceSource) {
        if self.fetch_blocked_on.is_some() || self.cycle < self.fetch_stall_until {
            self.stats.fetch_stall_cycles += 1;
            return;
        }
        if self.fetch_queue.len() >= self.cfg.fetch_queue {
            return;
        }
        self.busy = true;
        let line_bytes = self.mem.config().l1i.line_bytes as u64;
        let mut lines_used = 0;
        let mut current_line = u64::MAX;
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_queue.len() >= self.cfg.fetch_queue {
                break;
            }
            let instr = match self.fetch_buffer.take() {
                Some(i) => i,
                None => trace.next_instr(),
            };
            let line = instr.pc / line_bytes;
            if line != current_line {
                if lines_used >= self.cfg.fetch_lines_per_cycle {
                    self.fetch_buffer = Some(instr);
                    break;
                }
                // An access we already paid for (fill or pull-up delay)?
                let prepaid = match self.fetch_line_ready {
                    Some((l, ready)) => l == line && ready <= self.cycle,
                    None => false,
                };
                if prepaid {
                    self.fetch_line_ready = None;
                } else {
                    let out = self.mem.inst_fetch(instr.pc, self.cycle);
                    let extra = u64::from(out.latency)
                        .saturating_sub(u64::from(self.mem.config().l1i.hit_latency));
                    if extra > 0 {
                        // Line not ready: remember that this access is paid
                        // for, stall the front end, and consume it on
                        // resume without re-accessing.
                        let ready = self.cycle + extra;
                        self.fetch_line_ready = Some((line, ready));
                        self.fetch_stall_until = self.fetch_stall_until.max(ready);
                        self.fetch_buffer = Some(instr);
                        break;
                    }
                }
                lines_used += 1;
                current_line = line;
            }
            self.stats.fetched += 1;
            let seq_if_dispatched = self.next_seq + self.fetch_queue.len() as u64;
            self.fetch_queue.push_back(instr);
            if let Some(b) = instr.branch {
                let (pred_taken, pred_target) = self.bpred.predict(instr.pc);
                let mispredict =
                    pred_taken != b.taken || (b.taken && pred_target != Some(b.target));
                self.bpred.update(instr.pc, b.taken, b.target);
                if mispredict {
                    self.stats.mispredicts += 1;
                    self.fetch_blocked_on = Some(seq_if_dispatched);
                    break;
                }
                if b.taken {
                    break; // redirect: fetch resumes at the target next cycle
                }
            }
        }
    }
}

/// Sorts `seqs` ascending without duplicates. Both lists this serves are
/// usually already in order, which one linear check confirms far more
/// cheaply than a sort.
fn sort_dedup(seqs: &mut Vec<u64>) {
    if !seqs.is_sorted_by(|a, b| a < b) {
        seqs.sort_unstable();
        seqs.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitline_cache::{ActivityReport, MemorySystemConfig, PrechargePolicy};
    use bitline_trace::{BranchInfo, MemRef, ReplayTrace};
    use gated_precharge::StaticPullUp;

    fn memsys() -> MemorySystem {
        let cfg = MemorySystemConfig::default();
        MemorySystem::new(
            cfg,
            Box::new(StaticPullUp::new(cfg.l1d.subarrays())),
            Box::new(StaticPullUp::new(cfg.l1i.subarrays())),
        )
    }

    fn alu_chain(n: usize) -> ReplayTrace {
        // Fully serial dependence chain: IPC must approach 1.
        let mut v = Vec::new();
        for i in 0..n {
            let pc = 0x40_0000 + 4 * i as u64;
            v.push(Instr::new(pc, InstrKind::IntAlu).with_dest(1).with_srcs(Some(1), None));
        }
        ReplayTrace::new(v)
    }

    fn independent_alus(n: usize) -> ReplayTrace {
        let mut v = Vec::new();
        for i in 0..n {
            let pc = 0x40_0000 + 4 * i as u64;
            let d = (8 + (i % 32)) as u8;
            v.push(Instr::new(pc, InstrKind::IntAlu).with_dest(d));
        }
        ReplayTrace::new(v)
    }

    #[test]
    fn serial_chain_runs_at_ipc_one() {
        let mut cpu = Cpu::new(CpuConfig::default(), memsys());
        let stats = cpu.run(&mut alu_chain(64), 20_000);
        let ipc = stats.ipc();
        assert!((0.85..=1.05).contains(&ipc), "serial IPC {ipc}");
    }

    #[test]
    fn independent_work_exploits_width() {
        let mut cpu = Cpu::new(CpuConfig::default(), memsys());
        let stats = cpu.run(&mut independent_alus(64), 40_000);
        let ipc = stats.ipc();
        assert!(ipc > 4.0, "independent IPC {ipc} should exploit the 8-wide core");
    }

    #[test]
    fn loads_hit_with_three_cycle_latency() {
        // load -> dependent ALU chain; steady state ~ 1 load per 4 cycles
        // if latency is respected serially.
        let mut v = Vec::new();
        for i in 0..8 {
            let pc = 0x40_0000 + 8 * i as u64;
            v.push(
                Instr::new(pc, InstrKind::Load)
                    .with_dest(1)
                    .with_srcs(Some(1), None)
                    .with_mem(MemRef { addr: 0x1000, base: 0x1000, size: 8 }),
            );
            v.push(Instr::new(pc + 4, InstrKind::IntAlu).with_dest(1).with_srcs(Some(1), None));
        }
        let mut trace = ReplayTrace::new(v);
        let mut cpu = Cpu::new(CpuConfig::default(), memsys());
        let stats = cpu.run(&mut trace, 8000);
        // Serial load(3) + alu(1): 2 instructions per 4 cycles = IPC 0.5.
        let ipc = stats.ipc();
        assert!((0.4..=0.6).contains(&ipc), "load-chain IPC {ipc}");
    }

    /// A policy that delays every access: forces load latency variation.
    struct ColdEveryTime;
    impl PrechargePolicy for ColdEveryTime {
        fn name(&self) -> String {
            "cold".into()
        }
        fn access(&mut self, _s: usize, _c: u64) -> u32 {
            1
        }
        fn finalize(&mut self, end_cycle: u64) -> ActivityReport {
            ActivityReport { policy: self.name(), end_cycle, per_subarray: vec![] }
        }
    }

    #[test]
    fn delayed_loads_trigger_replays() {
        let cfg = MemorySystemConfig::default();
        let mem = MemorySystem::new(
            cfg,
            Box::new(ColdEveryTime),
            Box::new(StaticPullUp::new(cfg.l1i.subarrays())),
        );
        let mut v = Vec::new();
        for i in 0..8 {
            let pc = 0x40_0000 + 8 * i as u64;
            v.push(Instr::new(pc, InstrKind::Load).with_dest(2).with_mem(MemRef {
                addr: 0x2000,
                base: 0x2000,
                size: 8,
            }));
            v.push(Instr::new(pc + 4, InstrKind::IntAlu).with_dest(3).with_srcs(Some(2), None));
        }
        let mut trace = ReplayTrace::new(v);
        let mut cpu = Cpu::new(CpuConfig::default(), mem);
        let stats = cpu.run(&mut trace, 4000);
        assert!(stats.load_misspeculations > 0, "every load is delayed");
        assert!(stats.replays > 0, "dependents must replay");
    }

    #[test]
    fn replay_slows_execution_down() {
        let run = |delay: bool| -> f64 {
            let cfg = MemorySystemConfig::default();
            let d: Box<dyn PrechargePolicy> = if delay {
                Box::new(ColdEveryTime)
            } else {
                Box::new(StaticPullUp::new(cfg.l1d.subarrays()))
            };
            let mem = MemorySystem::new(cfg, d, Box::new(StaticPullUp::new(cfg.l1i.subarrays())));
            let mut v = Vec::new();
            for i in 0..16 {
                let pc = 0x40_0000 + 8 * i as u64;
                v.push(
                    Instr::new(pc, InstrKind::Load)
                        .with_dest(2)
                        .with_srcs(Some(2), None)
                        .with_mem(MemRef { addr: 0x2000 + 8 * i as u64, base: 0x2000, size: 8 }),
                );
                v.push(Instr::new(pc + 4, InstrKind::IntAlu).with_dest(2).with_srcs(Some(2), None));
            }
            let mut trace = ReplayTrace::new(v);
            let mut cpu = Cpu::new(CpuConfig::default(), mem);
            cpu.run(&mut trace, 6000).ipc()
        };
        let fast = run(false);
        let slow = run(true);
        assert!(slow < fast, "pull-up delays must cost performance: {slow} vs {fast}");
    }

    /// Emits alu/branch pairs whose branch outcome is freshly random every
    /// execution (a periodic "random" pattern would be learnable by
    /// gshare's global history).
    struct RandomBranches {
        x: u64,
        i: u64,
        random: bool,
    }

    impl bitline_trace::TraceSource for RandomBranches {
        fn next_instr(&mut self) -> Instr {
            let pc = 0x40_0000 + 4 * (self.i % 16);
            self.i += 1;
            if self.i % 2 == 1 {
                Instr::new(pc, InstrKind::IntAlu).with_dest(1)
            } else {
                let t = if self.random {
                    self.x ^= self.x << 13;
                    self.x ^= self.x >> 7;
                    self.x ^= self.x << 17;
                    self.x & 1 == 1
                } else {
                    true
                };
                Instr::new(pc, InstrKind::Branch)
                    .with_srcs(Some(1), None)
                    .with_branch(BranchInfo { taken: t, target: 0x40_0000 + 4 * (self.i % 16) })
            }
        }
    }

    #[test]
    fn branch_mispredicts_cost_cycles() {
        let ipc = |random: bool| {
            let mut cpu = Cpu::new(CpuConfig::default(), memsys());
            let mut t = RandomBranches { x: 0x2545_f491_4f6c_dd1d, i: 0, random };
            cpu.run(&mut t, 20_000).ipc()
        };
        let p = ipc(false);
        let u = ipc(true);
        assert!(u < 0.8 * p, "mispredicts must hurt: predictable {p}, random {u}");
    }

    #[test]
    fn predecode_hints_are_emitted_when_enabled() {
        let mut v = Vec::new();
        for i in 0..4 {
            v.push(Instr::new(0x40_0000 + 4 * i, InstrKind::Load).with_dest(1).with_mem(MemRef {
                addr: 0x3000,
                base: 0x3000,
                size: 8,
            }));
        }
        let mut cpu = Cpu::new(CpuConfig::default().with_predecode_hints(), memsys());
        let stats = cpu.run(&mut ReplayTrace::new(v), 400);
        // Hints are counted at dispatch, loads at issue, so in-flight work
        // at the cutoff makes hints run slightly ahead.
        assert!(stats.hints >= stats.loads + stats.stores);
        assert!(stats.hints > 0);
    }

    #[test]
    fn all_younger_replay_squashes_more() {
        let run = |scope: ReplayScope| -> u64 {
            let cfg = MemorySystemConfig::default();
            let mem = MemorySystem::new(
                cfg,
                Box::new(ColdEveryTime),
                Box::new(StaticPullUp::new(cfg.l1i.subarrays())),
            );
            let mut v = Vec::new();
            for i in 0..8 {
                let pc = 0x40_0000 + 20 * i as u64;
                v.push(Instr::new(pc, InstrKind::Load).with_dest(2).with_mem(MemRef {
                    addr: 0x2000,
                    base: 0x2000,
                    size: 8,
                }));
                v.push(Instr::new(pc + 4, InstrKind::IntAlu).with_dest(3).with_srcs(Some(2), None));
                // Independent fillers that only AllYounger squashes.
                v.push(Instr::new(pc + 8, InstrKind::IntAlu).with_dest(9));
                v.push(Instr::new(pc + 12, InstrKind::IntAlu).with_dest(10));
            }
            let mut cpu = Cpu::new(CpuConfig { replay_scope: scope, ..CpuConfig::default() }, mem);
            cpu.run(&mut ReplayTrace::new(v), 4000).replays
        };
        let p4 = run(ReplayScope::DependentsOnly);
        let r10k = run(ReplayScope::AllYounger);
        assert!(r10k > p4, "AllYounger ({r10k}) must squash more than DependentsOnly ({p4})");
    }
}
