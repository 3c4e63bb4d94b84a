//! Per-layer probes for the traced run.
//!
//! Each probe times calls into one layer's public API on the workload's
//! own inputs (its benchmark, seed and spec), under a span named after
//! the layer. The split inside `Cpu::run` between core, caches and
//! policy is not visible from outside: the `cache.*` and `core.*` figures
//! replay the trace's address stream into `MemorySystem` and the policies
//! alone, without a core, and are estimates of that split.

use std::path::Path;
use std::time::Instant;

use bitline_cache::{CacheConfig, MemorySystem};
use bitline_cmos::TechnologyNode;
use bitline_energy::{EnergyAccountant, LeakageKind};
use bitline_exec::{Journal, TraceStore};
use bitline_sim::{checkpoint, PolicyKind, RunResult, SystemSpec};
use bitline_trace::columnar::{SegmentBuilder, SegmentCursor};
use bitline_trace::{Instr, TraceSource};
use bitline_workloads::suite;

use crate::spans::span;
use crate::stats::{time_calls, Report};
use crate::system;

/// Instructions each probe works on.
const PROBE_INSTRS: u64 = 200_000;
/// Calls each per-call probe times. The counts are fixed, so a probe's
/// span time follows its layer's speed; each takes some tens of
/// milliseconds on a 2-core x86-64 VM.
const ECC_BATCHES: u32 = 128;
const ACCOUNTANT_CALLS: u32 = 100;
const PRICE_CALLS: u32 = 2_000;
const PRICE_MODE_CALLS: u32 = 300;
const CODEC_CALLS: u32 = 2_000;
const PARSE_CALLS: u32 = 20_000;
const RENDER_CALLS: u32 = 2_000;
/// Journal appends timed per probe (each one fsync'd).
const JOURNAL_APPENDS: usize = 32;
/// Instructions per segment, as the trace store builds them.
const SEG_LEN: usize = 4096;

/// The inputs of one workload that the probes replay.
pub struct Probe<'a> {
    pub benchmark: &'a str,
    /// The workload's main spec (its policy, levels and faults).
    pub spec: SystemSpec,
    /// The fully armed spec the decorated-path probes use.
    pub armed: SystemSpec,
    /// A run request line of the workload, for the protocol probe.
    pub request_line: String,
    /// Scratch directory for the journal probe.
    pub scratch: &'a Path,
}

fn mips(instrs: u64, secs: f64) -> f64 {
    instrs as f64 / secs / 1e6
}

fn with_len(spec: &SystemSpec, instructions: u64) -> SystemSpec {
    SystemSpec { instructions, ..*spec }
}

/// Runs every probe and records its metrics.
pub fn probe(p: &Probe<'_>, r: &mut Report) {
    let n = PROBE_INSTRS;
    let seed = p.spec.seed;
    let wl = suite::by_name(p.benchmark).expect("benchmark is in the suite");

    // workloads: the synthetic generator.
    let mut gen = wl.build(seed);
    let t = Instant::now();
    let instrs: Vec<Instr> = {
        let _s = span("workloads");
        (0..n).map(|_| gen.next_instr()).collect()
    };
    r.set("workloads.gen_mips", mips(n, t.elapsed().as_secs_f64()), "MIPS");

    // trace: columnar encode and decode.
    let t = Instant::now();
    let segments = {
        let _s = span("trace");
        let mut b = SegmentBuilder::new();
        let mut segs = Vec::new();
        for chunk in instrs.chunks(SEG_LEN) {
            for i in chunk {
                b.push(i);
            }
            segs.push(b.finish_segment());
        }
        segs
    };
    r.set("trace.encode_mips", mips(n, t.elapsed().as_secs_f64()), "MIPS");
    let bytes: usize = segments.iter().map(bitline_trace::columnar::Segment::heap_bytes).sum();
    r.set("trace.bytes_per_instr", bytes as f64 / n as f64, "B/instr");
    let t = Instant::now();
    {
        let _s = span("trace");
        let mut prev_pc = 0;
        for seg in &segments {
            let mut cur = SegmentCursor::new();
            while let Some(i) = seg.decode(&mut cur, &mut prev_pc) {
                std::hint::black_box(i);
            }
        }
    }
    r.set("trace.decode_mips", mips(n, t.elapsed().as_secs_f64()), "MIPS");

    // exec.traces: cold materialisation, then a warm replay.
    let store = TraceStore::new();
    let t = Instant::now();
    system::materialise(&store, p.benchmark, seed, n);
    r.set("exec.traces.cold_s", t.elapsed().as_secs_f64(), "s");
    let t = Instant::now();
    {
        let _s = span("exec.traces");
        let mut c = system::cursor(&store, p.benchmark, seed);
        for _ in 0..n {
            std::hint::black_box(c.next_instr());
        }
    }
    r.set("exec.traces.warm_mips", mips(n, t.elapsed().as_secs_f64()), "MIPS");

    // cpu: Cpu::run on the warm trace under four policy set-ups.
    // The plain variants keep the workload's stream but none of its
    // outer levels, faults or supply; the armed spec brings those back.
    let gated = SystemSpec {
        d_policy: PolicyKind::Gated { threshold: 100 },
        i_policy: PolicyKind::Gated { threshold: 100 },
        subarray_bytes: p.spec.subarray_bytes,
        instructions: n,
        seed,
        ..SystemSpec::default()
    };
    let variants = [
        (
            "static",
            SystemSpec {
                d_policy: PolicyKind::StaticPullUp,
                i_policy: PolicyKind::StaticPullUp,
                ..gated
            },
        ),
        ("gated", gated),
        (
            "ondemand",
            SystemSpec { d_policy: PolicyKind::OnDemand, i_policy: PolicyKind::OnDemand, ..gated },
        ),
        ("decorated", SystemSpec { seed, ..with_len(&p.armed, n) }),
    ];
    let mut cpu_mips = [0.0; 4];
    let mut runs: Vec<RunResult> = Vec::new();
    for (k, (label, spec)) in variants.iter().enumerate() {
        let mut sys = system::assemble(p.benchmark, spec);
        let mut cursor = system::cursor(&store, p.benchmark, seed);
        let t = Instant::now();
        sys.run(&mut cursor);
        cpu_mips[k] = mips(n, t.elapsed().as_secs_f64());
        r.set(&format!("cpu.run_mips.{label}"), cpu_mips[k], "MIPS");
        runs.push(sys.finish());
    }
    let gated_run = &runs[1];
    let armed_run = &runs[3];
    r.set("cpu.cycles", gated_run.stats.cycles as f64, "count");
    r.set("cpu.replays", gated_run.stats.replays as f64, "count");
    r.set("core.precharged_share.d", gated_run.d_report.precharged_fraction(), "ratio");

    // faults / ecc / vdd on the decorated run.
    r.set("faults.overhead_ratio", cpu_mips[1] / cpu_mips[3], "ratio");
    let upsets: u64 = [&armed_run.d_faults, &armed_run.i_faults]
        .into_iter()
        .flatten()
        .map(|f| f.injected())
        .sum();
    let corrected: u64 = [&armed_run.d_reliability, &armed_run.i_reliability]
        .into_iter()
        .flatten()
        .map(|f| f.corrected())
        .sum();
    let vdd_replays: u64 =
        [&armed_run.d_vdd, &armed_run.i_vdd].into_iter().flatten().map(|v| v.replays).sum();
    r.set("faults.upsets", upsets as f64, "count");
    r.set("ecc.corrected", corrected as f64, "count");
    r.set("vdd.replays", vdd_replays as f64, "count");
    let mut k = seed;
    let ns = time_calls(ECC_BATCHES, 1e-9, || {
        let _s = span("ecc");
        for _ in 0..1024 {
            k = k.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let flips = [(k >> 33) as u32 % 72, (k >> 45) as u32 % 72];
            let n_flips = 1 + (k & 1) as usize;
            let f = if flips[0] == flips[1] { &flips[..1] } else { &flips[..n_flips] };
            std::hint::black_box(bitline_ecc::classify(k, f));
        }
    }) / 1024.0;
    r.set("ecc.classify_ns", ns, "ns");

    // cache: the trace's address stream replayed into MemorySystem alone.
    let l3 = SystemSpec {
        hierarchy: bitline_sim::HierarchySpec { levels: 3, ..p.armed.hierarchy },
        ..gated
    };
    for (label, spec) in
        [("static", &variants[0].1), ("gated", &gated), ("decorated", &variants[3].1), ("l3", &l3)]
    {
        let mut mem = system::assemble(p.benchmark, spec).cpu.into_memory();
        let (accesses, secs) = replay_stream(&mut mem, &instrs);
        r.set(&format!("cache.access_ns.{label}"), secs / accesses as f64 * 1e9, "ns");
        if label == "static" {
            let ratio = |h: u64, m: u64| m as f64 / (h + m).max(1) as f64;
            r.set("cache.l1d_miss_ratio", ratio(mem.l1d().hits(), mem.l1d().misses()), "ratio");
            r.set("cache.l1i_miss_ratio", ratio(mem.l1i().hits(), mem.l1i().misses()), "ratio");
        }
    }

    // core: the precharge policies on the data subarray stream.
    let d_cfg = CacheConfig::l1_data().with_subarray_bytes(p.spec.subarray_bytes);
    let subarrays: Vec<usize> =
        instrs.iter().filter_map(|i| i.mem).map(|m| d_cfg.subarray_of(m.addr)).collect();
    let resizable: PolicyKind = "resizable".parse().expect("resizable parses");
    for (label, kind) in [("gated", PolicyKind::Gated { threshold: 100 }), ("resizable", resizable)]
    {
        let mut policy = kind.build(&d_cfg, TechnologyNode::N70, None);
        let t = Instant::now();
        {
            let _s = span("core");
            for (cycle, &s) in subarrays.iter().enumerate() {
                std::hint::black_box(policy.access(s, 2 * cycle as u64));
            }
        }
        r.set(
            &format!("core.policy_ns.{label}"),
            t.elapsed().as_secs_f64() / subarrays.len().max(1) as f64 * 1e9,
            "ns",
        );
    }

    // sim: one full run through the program's entry point.
    let busy = bitline_obs::registry().counter("sim.runner.busy_micros");
    let before = busy.get();
    let t = Instant::now();
    let sim_run = {
        let _s = span("sim");
        bitline_sim::run_benchmark(p.benchmark, &gated)
    };
    let wall = t.elapsed().as_secs_f64();
    r.set("sim.run_s", wall, "s");
    r.set("sim.run_outside_cpu_share", 1.0 - (busy.get() - before) as f64 / 1e6 / wall, "ratio");
    // The run cache: a fill and a hit of the same key, on top of whatever
    // the workload itself did in this process.
    for _ in 0..2 {
        let _s = span("sim");
        let _ = bitline_sim::run_benchmark_cached(p.benchmark, &with_len(&gated, n / 4));
    }
    let cache = bitline_sim::run_cache_stats();
    r.set(
        "sim.run_cache.hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        "ratio",
    );

    // exec.pool: a batch of short runs, read back from the pool's own
    // histograms in the metrics registry.
    let jobs = bitline_exec::pool::jobs();
    {
        let _s = span("exec.pool");
        bitline_exec::pool::run_indexed(2 * jobs, |i| {
            bitline_sim::run_benchmark(
                p.benchmark,
                &SystemSpec { seed: seed + 1 + i as u64, ..with_len(&gated, n / 8) },
            )
            .stats
            .cycles
        });
    }
    let snap = bitline_obs::registry().snapshot();
    let sum = |name: &str| snap.histograms.get(name).map_or(0, |h| h.sum) as f64;
    let count = |name: &str| snap.histograms.get(name).map_or(0, |h| h.count) as f64;
    let busy_us = sum("exec.pool.worker_busy_us");
    r.set(
        "exec.pool.busy_share",
        busy_us / (busy_us + sum("exec.pool.worker_idle_us")).max(1.0),
        "ratio",
    );
    r.set(
        "exec.pool.queue_wait_ms",
        sum("exec.pool.queue_wait_us") / count("exec.pool.queue_wait_us").max(1.0) / 1e3,
        "ms",
    );

    // energy: model construction and pricing.
    let ms = time_calls(ACCOUNTANT_CALLS, 1e-3, || {
        let _s = span("energy");
        for node in TechnologyNode::ALL {
            std::hint::black_box(EnergyAccountant::new(node, CacheConfig::l1_data()));
        }
    }) / TechnologyNode::ALL.len() as f64;
    r.set("energy.accountant_new_ms", ms, "ms");
    let us = time_calls(PRICE_CALLS, 1e-6, || {
        let _s = span("energy");
        std::hint::black_box(sim_run.energy(TechnologyNode::N70));
    });
    r.set("energy.price_us", us, "us");
    let us = time_calls(PRICE_MODE_CALLS, 1e-6, || {
        let _s = span("energy");
        let (node, kind) = (TechnologyNode::N100, LeakageKind::Drowsy);
        std::hint::black_box(armed_run.energy_with_mode(node, kind));
        std::hint::black_box(armed_run.l2_energy(node, kind));
        std::hint::black_box(armed_run.l3_energy(node, kind));
    });
    r.set("energy.price_mode_us", us, "us");

    // sim.checkpoint: the run codec.
    let bytes = checkpoint::encode_run(&sim_run);
    r.set("sim.checkpoint.bytes", bytes.len() as f64, "B");
    let us = time_calls(CODEC_CALLS, 1e-6, || {
        let _s = span("sim.checkpoint");
        std::hint::black_box(checkpoint::encode_run(&sim_run));
    });
    r.set("sim.checkpoint.encode_us", us, "us");
    let us = time_calls(CODEC_CALLS, 1e-6, || {
        let _s = span("sim.checkpoint");
        std::hint::black_box(checkpoint::decode_run(&bytes));
    });
    r.set("sim.checkpoint.decode_us", us, "us");

    // exec.journal: fsync'd appends to a fresh journal, then reopening it.
    let dir = p.scratch.join("journal-probe");
    let _ = std::fs::remove_dir_all(&dir);
    match Journal::open_fresh(&dir) {
        Ok(mut journal) => {
            let t = Instant::now();
            for i in 0..JOURNAL_APPENDS {
                let _s = span("exec.journal");
                let key = format!("{}#{i}", checkpoint::spec_key(p.benchmark, &gated));
                journal.append(&key, &bytes).expect("journal append in the scratch directory");
            }
            r.set(
                "exec.journal.append_us",
                t.elapsed().as_secs_f64() / JOURNAL_APPENDS as f64 * 1e6,
                "us",
            );
        }
        Err(e) => eprintln!("perfbench: journal probe: {e}"),
    }
    if r.get("exec.journal.open_ms").is_none() {
        r.set("exec.journal.open_ms", journal_open_ms(&dir), "ms");
    }

    // serve: request parsing and response rendering, in process.
    let us = time_calls(PARSE_CALLS, 1e-6, || {
        let _s = span("serve");
        std::hint::black_box(bitline_serve::parse_request(&p.request_line).is_ok());
    });
    r.set("serve.parse_us", us, "us");
    let key = checkpoint::spec_key(p.benchmark, &gated);
    let us = time_calls(RENDER_CALLS, 1e-6, || {
        let _s = span("serve");
        let row = bitline_serve::RunRow::from_result(&sim_run, TechnologyNode::N70);
        std::hint::black_box(bitline_serve::protocol::ok_line("p", p.benchmark, &key, &row));
    });
    r.set("serve.render_us", us, "us");
}

/// Median of several `Journal::open` calls on the journal in `dir`, in
/// milliseconds.
pub fn journal_open_ms(dir: &Path) -> f64 {
    let mut v = Vec::new();
    for _ in 0..5 {
        let _s = span("exec.journal");
        let t = Instant::now();
        if Journal::open(dir).is_err() {
            return 0.0;
        }
        v.push(t.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(&v)
}

/// Replays the instruction fetch and data address stream of `instrs` into
/// `mem`, one access per cycle; returns the accesses made and the seconds
/// they took.
fn replay_stream(mem: &mut MemorySystem, instrs: &[Instr]) -> (u64, f64) {
    let line = mem.config().l1i.line_bytes as u64;
    let mut last_line = u64::MAX;
    let mut accesses = 0u64;
    let _s = span("cache");
    let t = Instant::now();
    for (cycle, i) in instrs.iter().enumerate() {
        let cycle = cycle as u64;
        if i.pc / line != last_line {
            last_line = i.pc / line;
            std::hint::black_box(mem.inst_fetch(i.pc, cycle));
            accesses += 1;
        }
        if let Some(m) = i.mem {
            let is_store = i.kind == bitline_trace::InstrKind::Store;
            std::hint::black_box(mem.data_access(m.addr, is_store, cycle));
            accesses += 1;
        }
    }
    (accesses, t.elapsed().as_secs_f64())
}
