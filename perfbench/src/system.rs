//! A single simulation run assembled from the layers' public APIs.
//!
//! This mirrors what `bitline_sim::try_run_benchmark` does internally —
//! policies, the fault/ECC/Vdd decorator, the memory hierarchy and the
//! core — for two uses. The per-layer probes time `Cpu::run` alone on a
//! trace the benchmark materialised itself. The batch workloads' output
//! check uses the results built here as the reference for the program's
//! own runs: this assembly shares neither the program's runner nor its
//! shared trace store, so a divergence shows up as a failed check.

use std::cell::RefCell;
use std::rc::Rc;

use bitline_cache::{CacheConfig, MemorySystem, MemorySystemConfig, PrechargePolicy};
use bitline_circuit::DecoderModel;
use bitline_cmos::TechnologyNode;
use bitline_cpu::{Cpu, CpuConfig};
use bitline_ecc::ReliabilityReport;
use bitline_energy::LeakageKind;
use bitline_exec::{TraceCursor, TraceStore};
use bitline_faults::{FaultInjectingPolicy, FaultReport, VddReport};
use bitline_sim::{RunResult, SystemSpec};
use bitline_trace::TraceSource;

use crate::spans;

/// Committed instructions per `Cpu::run` call: the program's own
/// cancellation-poll chunk.
pub const CHUNK: u64 = 2_048;

/// Instructions materialised past the run length, covering the core's
/// fetch run-ahead.
const LOOKAHEAD: u64 = 65_536;

type Sink<T> = Option<Rc<RefCell<T>>>;

/// A built core plus the report sinks its decorated policies write into.
pub struct Assembled {
    pub cpu: Cpu,
    spec: SystemSpec,
    benchmark: String,
    d_faults: Sink<FaultReport>,
    i_faults: Sink<FaultReport>,
    d_rel: Sink<ReliabilityReport>,
    i_rel: Sink<ReliabilityReport>,
    d_vdd: Sink<VddReport>,
    i_vdd: Sink<VddReport>,
}

/// Materialises `benchmark`'s stream at `seed` in `store`, far enough for
/// a run of `instructions`.
pub fn materialise(store: &TraceStore, benchmark: &str, seed: u64, instructions: u64) {
    let _s = spans::span("exec.traces");
    let mut cursor = store.cursor(benchmark, seed).expect("benchmark is in the suite");
    for _ in 0..instructions + LOOKAHEAD {
        std::hint::black_box(cursor.next_instr());
    }
}

pub fn cursor(store: &TraceStore, benchmark: &str, seed: u64) -> TraceCursor {
    store.cursor(benchmark, seed).expect("benchmark is in the suite")
}

/// Builds the core and memory system for one run of `spec`.
pub fn assemble(benchmark: &str, spec: &SystemSpec) -> Assembled {
    let node = TechnologyNode::N70;
    let d_cfg = CacheConfig::l1_data().with_subarray_bytes(spec.subarray_bytes);
    let i_cfg = CacheConfig::l1_inst().with_subarray_bytes(spec.subarray_bytes);
    let mut d_policy = spec.d_policy.build(&d_cfg, node, None);
    let mut i_policy = spec.i_policy.build(&i_cfg, node, None);
    let (mut d_faults, mut d_rel, mut d_vdd) = (None, None, None);
    let (mut i_faults, mut i_rel, mut i_vdd) = (None, None, None);
    let vdd_config = spec.vdd.to_config(node);
    let vdd_armed = vdd_config.as_ref().is_some_and(bitline_faults::VddConfig::speculating);
    if spec.faults.enabled() || vdd_armed {
        let penalty = |cfg: &CacheConfig| {
            DecoderModel::new(node, cfg.geometry()).cold_access_penalty_cycles()
        };
        let words = spec.subarray_words();
        let decorate = |inner: Box<dyn PrechargePolicy>, cfg: &CacheConfig, salt: u64| {
            let faults = Rc::new(RefCell::new(FaultReport::new(cfg.subarrays())));
            let mut dec = FaultInjectingPolicy::new(
                inner,
                spec.faults.to_config(penalty(cfg), salt, words),
                cfg.subarrays(),
            )
            .with_sink(faults.clone());
            let mut rel = None;
            if spec.faults.ecc {
                let r = Rc::new(RefCell::new(ReliabilityReport::new(cfg.subarrays())));
                dec = dec.with_reliability_sink(r.clone());
                rel = Some(r);
            }
            let mut vdd = None;
            if vdd_armed {
                let c = vdd_config.clone().expect("armed implies a ladder");
                let v = Rc::new(RefCell::new(VddReport::new(cfg.subarrays(), c.steps.len())));
                dec = dec.with_vdd(c).with_vdd_sink(v.clone());
                vdd = Some(v);
            }
            (Box::new(dec) as Box<dyn PrechargePolicy>, Some(faults), rel, vdd)
        };
        let (d, f, r, v) = decorate(d_policy, &d_cfg, 0);
        (d_policy, d_faults, d_rel, d_vdd) = (d, f, r, v);
        let (i, f, r, v) = decorate(i_policy, &i_cfg, 1);
        (i_policy, i_faults, i_rel, i_vdd) = (i, f, r, v);
    }
    let mem_cfg = MemorySystemConfig { l1d: d_cfg, l1i: i_cfg, ..MemorySystemConfig::default() };
    let mem = if spec.hierarchy.active() {
        let l2 = spec.hierarchy.l2_policy.build(&MemorySystem::l2_config(&mem_cfg), node, None);
        let l3 = (spec.hierarchy.levels >= 3).then(|| {
            spec.hierarchy.l2_policy.build(&MemorySystem::l3_config(&mem_cfg), node, None)
        });
        MemorySystem::with_hierarchy(mem_cfg, d_policy, i_policy, l2, l3)
    } else {
        MemorySystem::new(mem_cfg, d_policy, i_policy)
    };
    let cpu_cfg =
        CpuConfig { predecode_hints: spec.d_policy.wants_predecode(), ..CpuConfig::default() };
    Assembled {
        cpu: Cpu::new(cpu_cfg, mem),
        spec: *spec,
        benchmark: benchmark.to_owned(),
        d_faults,
        i_faults,
        d_rel,
        i_rel,
        d_vdd,
        i_vdd,
    }
}

impl Assembled {
    /// Runs to the spec's instruction count in [`CHUNK`]-instruction
    /// calls. Each call is a `cpu` span, or a `faults` span when the
    /// policies are decorated.
    pub fn run(&mut self, trace: &mut dyn TraceSource) {
        let layer = if self.d_faults.is_some() { "faults" } else { "cpu" };
        let mut committed = self.cpu.stats().committed;
        while committed < self.spec.instructions {
            let n = (self.spec.instructions - committed).min(CHUNK);
            let _s = spans::span(layer);
            committed = self.cpu.run(trace, n).committed;
        }
    }

    /// Finalises the caches and gathers the run's result.
    pub fn finish(self) -> RunResult {
        let stats = self.cpu.stats();
        let end = stats.cycles;
        let spec = self.spec;
        let mut mem = self.cpu.into_memory();
        let d_hit_miss = (mem.l1d().hits(), mem.l1d().misses());
        let i_hit_miss = (mem.l1i().hits(), mem.l1i().misses());
        let d_way_stats = mem.l1d().way_stats();
        let i_way_stats = mem.l1i().way_stats();
        let l2_traffic = spec
            .hierarchy
            .active()
            .then(|| (mem.l2().hits(), mem.l2().misses(), mem.l2().writebacks()));
        let l3_traffic = mem.l3().map(|l3| (l3.hits(), l3.misses(), l3.writebacks()));
        let (d_report, i_report) = mem.finalize(end);
        let l2_report = spec.hierarchy.active().then(|| mem.finalize_l2(end));
        let l3_report = mem.finalize_l3(end);
        let take = |s: &Sink<FaultReport>| s.as_ref().map(|s| s.borrow().clone());
        RunResult {
            benchmark: self.benchmark,
            spec,
            stats,
            d_report,
            i_report,
            d_hit_miss,
            i_hit_miss,
            d_locality: None,
            i_locality: None,
            d_way_stats,
            i_way_stats,
            d_faults: take(&self.d_faults),
            i_faults: take(&self.i_faults),
            d_reliability: self.d_rel.map(|s| s.borrow().clone()),
            i_reliability: self.i_rel.map(|s| s.borrow().clone()),
            l2_report,
            l2_traffic,
            l3_report,
            l3_traffic,
            d_vdd: self.d_vdd.map(|s| s.borrow().clone()),
            i_vdd: self.i_vdd.map(|s| s.borrow().clone()),
        }
    }
}

/// The identity of a run's simulated outputs: cycles, committed
/// instructions, replays, hit/miss counts, precharge events, fault and
/// reliability counts, and the bits of every energy figure at 70 nm.
pub fn facts(run: &RunResult) -> Vec<u64> {
    let mut f = vec![
        run.stats.cycles,
        run.stats.committed,
        run.stats.replays,
        run.d_hit_miss.0,
        run.d_hit_miss.1,
        run.i_hit_miss.0,
        run.i_hit_miss.1,
        run.d_report.total_precharge_events(),
        run.i_report.total_precharge_events(),
    ];
    for r in [&run.d_faults, &run.i_faults].into_iter().flatten() {
        f.extend([r.injected(), r.detected(), r.silent(), r.replayed()]);
    }
    for r in [&run.d_reliability, &run.i_reliability].into_iter().flatten() {
        f.extend([r.corrected(), r.due(), r.sdc(), r.scrub_words()]);
    }
    for r in [&run.d_vdd, &run.i_vdd].into_iter().flatten() {
        f.extend([r.upsets, r.replays, r.corrected, r.sdc]);
    }
    for t in [run.l2_traffic, run.l3_traffic].into_iter().flatten() {
        f.extend([t.0, t.1, t.2]);
    }
    let (policy, baseline) = run.energy(TechnologyNode::N70);
    for b in [policy.d, policy.i, baseline.d, baseline.i] {
        f.push(b.total_j().to_bits());
        f.push(b.bitline_discharge_j().to_bits());
    }
    f
}

/// Bits of every energy figure under every node and leakage mode, for the
/// L1s and whichever outer levels the run carried.
pub fn priced_everywhere(run: &RunResult) -> Vec<u64> {
    let mut f = Vec::new();
    for node in TechnologyNode::ALL {
        for kind in LeakageKind::ALL {
            let (policy, baseline) = {
                let _s = spans::span("energy");
                run.energy_with_mode(node, kind)
            };
            for b in [policy.d, policy.i, baseline.d, baseline.i] {
                f.push(b.total_j().to_bits());
            }
            let _s = spans::span("energy");
            for b in [run.l2_energy(node, kind), run.l3_energy(node, kind)].into_iter().flatten() {
                f.push(b.total_j().to_bits());
            }
        }
    }
    f
}
