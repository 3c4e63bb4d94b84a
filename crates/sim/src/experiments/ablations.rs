//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * predecoding — the paper credits it with ~6% extra discharge
//!   reduction on data caches (Section 6.4);
//! * replay scope — the paper argues a 16-stage pipeline needs
//!   Pentium-4-style dependent-only replay rather than R10000-style
//!   squash-all (Section 6.3);
//! * way prediction composed with gated precharging (related work
//!   [12,15], Section 7): the savings compose.

use std::fmt::Write as _;

use bitline_cache::{MemorySystem, MemorySystemConfig};
use bitline_cmos::TechnologyNode;
use bitline_cpu::{Cpu, CpuConfig, ReplayScope};
use gated_precharge::{GatedPolicy, StaticPullUp};

use crate::experiments::{optimal_gated, SweptCache};
use crate::{try_run_benchmark, PolicyKind, SimError, SystemSpec};

/// Benchmarks of the predecoding and replay-scope ablations.
const NAMES: [&str; 6] = ["gcc", "mcf", "mesa", "health", "vpr", "art"];

/// Benchmarks of the way-prediction composition.
const WAY_NAMES: [&str; 3] = ["gcc", "mesa", "mcf"];

/// One benchmark's predecoding ablation (gated D-cache, per-benchmark
/// optimum, 70 nm).
#[derive(Debug, Clone)]
pub struct PredecodeRow {
    /// Benchmark name (`AVG` for the suite average).
    pub benchmark: String,
    /// Relative bitline discharge with predecode hints.
    pub with_discharge: f64,
    /// Relative bitline discharge without them.
    pub without_discharge: f64,
    /// Slowdown with predecode hints.
    pub with_slowdown: f64,
    /// Slowdown without them.
    pub without_slowdown: f64,
}

/// One benchmark's replay-scope ablation (gated D-cache, threshold 100).
#[derive(Debug, Clone)]
pub struct ReplayRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Slowdown with Pentium-4-style dependent-only replay.
    pub p4_slowdown: f64,
    /// Slowdown with R10000-style squash-all replay.
    pub r10k_slowdown: f64,
    /// Replays under dependent-only replay.
    pub p4_replays: u64,
    /// Replays under squash-all replay.
    pub r10k_replays: u64,
}

/// One benchmark's way-prediction composition (gated D-cache with
/// predecode hints, threshold 100, 70 nm).
#[derive(Debug, Clone)]
pub struct WayPredictionRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Way-prediction accuracy.
    pub accuracy: f64,
    /// Overall D-cache energy saved by gated precharging alone.
    pub gated_saving: f64,
    /// Overall D-cache energy saved with way prediction added.
    pub combined_saving: f64,
    /// Extra slowdown way prediction adds on top of gated precharging.
    pub extra_slowdown: f64,
}

/// All three ablations.
#[derive(Debug, Clone)]
pub struct Ablations {
    /// Predecoding rows, then their `AVG` row.
    pub predecode: Vec<PredecodeRow>,
    /// Replay-scope rows.
    pub replay: Vec<ReplayRow>,
    /// Way-prediction rows.
    pub way_prediction: Vec<WayPredictionRow>,
}

/// Runs the three ablations at `instrs` instructions per run.
///
/// # Errors
///
/// The first failed run's [`SimError`].
pub fn run(instrs: u64) -> Result<Ablations, SimError> {
    let _span = bitline_obs::span("ablations/run").field("instrs", instrs);
    let node = TechnologyNode::N70;

    let mut predecode = Vec::new();
    for name in NAMES {
        let baseline =
            try_run_benchmark(name, &SystemSpec { instructions: instrs, ..SystemSpec::default() })?;
        let with = optimal_gated(name, SweptCache::Data, node, &baseline, instrs);
        let without = optimal_gated(name, SweptCache::DataNoPredecode, node, &baseline, instrs);
        predecode.push(PredecodeRow {
            benchmark: name.to_owned(),
            with_discharge: with.relative_discharge,
            without_discharge: without.relative_discharge,
            with_slowdown: with.slowdown,
            without_slowdown: without.slowdown,
        });
    }
    let n = predecode.len() as f64;
    let mean = |f: fn(&PredecodeRow) -> f64| predecode.iter().map(f).sum::<f64>() / n;
    let avg = PredecodeRow {
        benchmark: "AVG".into(),
        with_discharge: mean(|r| r.with_discharge),
        without_discharge: mean(|r| r.without_discharge),
        with_slowdown: mean(|r| r.with_slowdown),
        without_slowdown: mean(|r| r.without_slowdown),
    };
    predecode.push(avg);

    let mut replay = Vec::new();
    for name in NAMES {
        let (p4_slowdown, p4_replays) = replay_run(name, ReplayScope::DependentsOnly, instrs)?;
        let (r10k_slowdown, r10k_replays) = replay_run(name, ReplayScope::AllYounger, instrs)?;
        replay.push(ReplayRow {
            benchmark: name.to_owned(),
            p4_slowdown,
            r10k_slowdown,
            p4_replays,
            r10k_replays,
        });
    }

    let mut way_prediction = Vec::new();
    for name in WAY_NAMES {
        let spec = SystemSpec {
            d_policy: PolicyKind::GatedPredecode { threshold: 100 },
            instructions: instrs,
            ..SystemSpec::default()
        };
        let gated_only = try_run_benchmark(name, &spec)?;
        let combined = try_run_benchmark(name, &SystemSpec { way_prediction: true, ..spec })?;
        let (g, gb) = gated_only.energy(node);
        let (c, cb) = combined.energy(node);
        way_prediction.push(WayPredictionRow {
            benchmark: name.to_owned(),
            accuracy: combined
                .d_way_stats
                .map_or(0.0, |ws| ws.correct as f64 / (ws.correct + ws.wrong).max(1) as f64),
            gated_saving: g.d.overall_reduction(&gb.d),
            combined_saving: c.d.overall_reduction(&cb.d),
            extra_slowdown: combined.cycles() as f64 / gated_only.cycles() as f64 - 1.0,
        });
    }
    Ok(Ablations { predecode, replay, way_prediction })
}

/// Runs `name` with a gated (threshold 100) D-cache under `scope` and
/// against a static machine with the same scope: `(slowdown, replays)`.
fn replay_run(name: &str, scope: ReplayScope, instrs: u64) -> Result<(f64, u64), SimError> {
    let workload = bitline_workloads::suite::by_name(name)
        .ok_or_else(|| SimError::UnknownBenchmark(name.to_owned()))?;
    let cfg = MemorySystemConfig::default();
    let cpu_cfg = CpuConfig { replay_scope: scope, ..CpuConfig::default() };
    let mem = MemorySystem::new(
        cfg,
        Box::new(GatedPolicy::new(cfg.l1d.subarrays(), 100, 1)),
        Box::new(StaticPullUp::new(cfg.l1i.subarrays())),
    );
    let base_mem = MemorySystem::new(
        cfg,
        Box::new(StaticPullUp::new(cfg.l1d.subarrays())),
        Box::new(StaticPullUp::new(cfg.l1i.subarrays())),
    );
    let stats = Cpu::new(cpu_cfg, mem).run(&mut workload.build(42), instrs);
    let base = Cpu::new(cpu_cfg, base_mem).run(&mut workload.build(42), instrs);
    Ok((stats.cycles as f64 / base.cycles as f64 - 1.0, stats.replays))
}

/// Renders the three ablations as three blank-line-separated blocks, each
/// with its own column header.
#[must_use]
pub fn render(a: &Ablations) -> String {
    let mut f = String::from(
        "# predecoding: benchmark  discharge_with  discharge_without  \
         slowdown_with  slowdown_without\n",
    );
    for r in &a.predecode {
        let _ = writeln!(
            f,
            "{} {:.5} {:.5} {:.5} {:.5}",
            r.benchmark, r.with_discharge, r.without_discharge, r.with_slowdown, r.without_slowdown
        );
    }
    f.push_str(
        "\n# replay scope: benchmark  p4_slowdown  r10k_slowdown  p4_replays  r10k_replays\n",
    );
    for r in &a.replay {
        let _ = writeln!(
            f,
            "{} {:.5} {:.5} {} {}",
            r.benchmark, r.p4_slowdown, r.r10k_slowdown, r.p4_replays, r.r10k_replays
        );
    }
    f.push_str(
        "\n# way prediction: benchmark  accuracy  gated_saving  combined_saving  \
         extra_slowdown\n",
    );
    for r in &a.way_prediction {
        let _ = writeln!(
            f,
            "{} {:.5} {:.5} {:.5} {:.5}",
            r.benchmark, r.accuracy, r.gated_saving, r.combined_saving, r.extra_slowdown
        );
    }
    f
}
