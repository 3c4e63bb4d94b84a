//! The batch workloads: `suite-sweep`, `long-run` and `armed-stack`.

use std::process::{Command, Stdio};
use std::time::Instant;

use bitline_cmos::TechnologyNode;
use bitline_energy::ProcessorEnergyModel;
use bitline_exec::TraceStore;
use bitline_sim::experiments::headline::{self, Headline};
use bitline_sim::{HierarchySpec, LeakageKind, PolicyKind, SystemSpec, VddSpec};
use bitline_workloads::suite;

use crate::host::HostClock;
use crate::spans;
use crate::stats::{peak_rss_mb, Outcome};
use crate::system::{self, facts, priced_everywhere};

/// What the timed phase of a workload measured. End-to-end metrics are
/// derived from it in `main`. The batch workloads give their times in
/// reference seconds (host seconds over the host's slowdown, see
/// `host.rs`); serve-mixed gives host seconds.
#[derive(Debug, Default)]
pub struct Phase {
    /// One entry per set-up (the median is reported).
    pub setup_s: Vec<f64>,
    /// Time of each timed round (the median is reported).
    pub round_s: Vec<f64>,
    /// Simulated MIPS of each timed round (the median is reported):
    /// committed instructions over the runner's own time inside `Cpu::run`
    /// (`sim.runner.busy_micros`) for the batch workloads, over the timed
    /// phase's wall time for serve-mixed.
    pub round_mips: Vec<f64>,
    /// Latency of each operation, in milliseconds.
    pub op_ms: Vec<f64>,
    /// The host's slowdown over each timed operation and set-up (batch
    /// workloads).
    pub host_slowdown: Vec<f64>,
    /// Operations completed across the timed rounds.
    pub ops: u64,
    /// Peak resident memory of the process running the workload.
    pub peak_rss_mb: f64,
    /// The highest offered rate met (serve-mixed only).
    pub max_rate_rps: Option<f64>,
    /// The simulated outputs of one round, one entry per operation, for
    /// the reference check (batch workloads).
    pub outputs: Vec<Vec<u64>>,
}

impl Phase {
    /// Keeps the first round's outputs and checks every later round
    /// against them.
    fn record(&mut self, outputs: Vec<Vec<u64>>, out: &mut Outcome) {
        if self.outputs.is_empty() {
            self.outputs = outputs;
            return;
        }
        for (k, (want, got)) in self.outputs.iter().zip(&outputs).enumerate() {
            out.check(want == got, &|| format!("output {k} differs between rounds"));
        }
    }

    /// Whether to start another round: at least one, then as long as the
    /// next is expected to end nearer `seconds` than the last did.
    fn more_rounds(&self, started: Instant, seconds: f64) -> bool {
        if self.round_s.is_empty() {
            return true;
        }
        let elapsed = started.elapsed().as_secs_f64();
        elapsed + elapsed / self.round_s.len() as f64 / 2.0 < seconds
    }
}

/// A batch workload's set-up is repeated at least `MIN_SETUPS` times, and
/// then until `SETUP_BUDGET_S` seconds are spent or `MAX_SETUPS` are
/// done; the median is reported. Short set-ups get many repeats, since
/// their time jitters more.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 41;
const SETUP_BUDGET_S: f64 = 2.0;

/// Repeats `set_up`, which returns its time in host and in reference
/// seconds, as the constants above say. Returns the reference times.
fn set_ups(mut set_up: impl FnMut() -> Result<(f64, f64), String>) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    let mut host_s = 0.0;
    while times.len() < MIN_SETUPS || (times.len() < MAX_SETUPS && host_s < SETUP_BUDGET_S) {
        let (host, reference) = set_up()?;
        host_s += host;
        times.push(reference);
    }
    Ok(times)
}

/// Committed instructions per microsecond of the runner's busy time.
fn mips(committed: u64, busy_us: f64) -> f64 {
    committed as f64 / busy_us.max(1.0)
}

/// A seed-derived value in `0..n`, so every workload input follows from
/// the `--seed` argument alone.
pub fn mix(seed: u64, salt: u64, n: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) % n.max(1)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

// ---------------------------------------------------------------------------
// suite-sweep
// ---------------------------------------------------------------------------

/// Instructions per run of the headline sweep: the figure path's default
/// run length (150 000) plus a seed-derived 0..256, so each seed is a
/// distinct input.
pub fn sweep_instrs(seed: u64) -> u64 {
    bitline_sim::default_instructions() + mix(seed, 1, 256)
}

fn headline_bits(h: &Headline) -> Vec<u64> {
    [
        h.d_discharge_reduction,
        h.i_discharge_reduction,
        h.d_overall_reduction,
        h.i_overall_reduction,
        h.d_slowdown,
        h.i_slowdown,
        h.d_precharged,
        h.i_precharged,
        h.cache_fraction_of_processor,
        h.replay_overhead,
    ]
    .iter()
    .map(|v| v.to_bits())
    .collect()
}

/// The set-up of a cold figure-regeneration process: the process-wide
/// state the sweep needs before its first run (the metrics registry, the
/// pool at `nproc` jobs, empty run cache and trace store). Run by the
/// `--cold-start` child that [`suite_sweep`] times.
pub fn cold_start() {
    bitline_sim::init_supervision_from_env().expect("no BITLINE_* variables are set");
    bitline_exec::pool::set_jobs(nproc());
    bitline_sim::clear_run_caches();
    std::hint::black_box(bitline_obs::registry().snapshot());
}

/// Starts this program as a `--cold-start` child and waits for it to exit.
fn spawn_cold_start(exe: &std::path::Path) -> Result<(), String> {
    let status = Command::new(exe)
        .arg("--cold-start")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cold start: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("cold start exited with {status}"))
    }
}

/// The headline figure over all 16 benchmarks at `jobs = nproc`. Each
/// round starts from an empty run cache and trace store, as a cold
/// process does, so traces generate in-band. Cold starts are timed before
/// every round, so their median spans the whole run. A round's time and
/// every run's latency in it are divided by the host's slowdown over the
/// round.
pub fn suite_sweep(seed: u64, seconds: f64, out: &mut Outcome) -> Result<Phase, String> {
    let instrs = sweep_instrs(seed);
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut phase = Phase::default();
    bitline_exec::pool::set_jobs(nproc());
    let committed = bitline_obs::registry().counter("sim.runner.committed_instructions");
    let busy = bitline_obs::registry().counter("sim.runner.busy_micros");
    let mut clock = HostClock::start();
    let started = Instant::now();
    while phase.more_rounds(started, seconds) {
        phase.setup_s.extend(set_ups(|| {
            let (done, host_s, slowdown) = clock.time(|| spawn_cold_start(&exe));
            done.map(|()| (host_s, host_s / slowdown))
        })?);
        bitline_sim::clear_run_caches();
        bitline_obs::clear_spans();
        let (c0, b0) = (committed.get(), busy.get());
        let (headline, host_s, slowdown) = clock.time(|| {
            let _s = spans::span("sim");
            headline::run(instrs)
        });
        phase.round_s.push(host_s / slowdown);
        phase.round_mips.push(mips(committed.get() - c0, (busy.get() - b0) as f64 / slowdown));
        for s in bitline_obs::recent_spans().iter().filter(|s| s.name == "sim/run") {
            phase.op_ms.push(s.dur_us as f64 / 1e3 / slowdown);
            phase.ops += 1;
        }
        match headline {
            Ok(h) => phase.record(vec![headline_bits(&h)], out),
            Err(e) => out.fail(&format!("headline: {e}")),
        }
    }
    phase.peak_rss_mb = peak_rss_mb();
    phase.host_slowdown = std::mem::take(&mut clock.applied);
    Ok(phase)
}

/// The reference headline for `seed`: recomputed at jobs = 1 from empty
/// caches, so no pool worker runs it, and its processor-level context
/// checked against fresh uncached runs.
pub fn suite_reference(seed: u64, out: &mut Outcome) -> Vec<Vec<u64>> {
    let _s = spans::span("bench");
    let instrs = sweep_instrs(seed);
    bitline_sim::clear_run_caches();
    match bitline_exec::pool::with_jobs(1, || headline::run(instrs)) {
        Ok(h) => {
            let bits = headline_bits(&h);
            check_headline_context(instrs, &bits, out);
            vec![bits]
        }
        Err(e) => {
            out.fail(&format!("reference headline: {e}"));
            Vec::new()
        }
    }
}

/// Recomputes the headline's processor-level context from fresh,
/// uncached runs and checks it and the cached runs bit for bit.
fn check_headline_context(instrs: u64, headline: &[u64], out: &mut Outcome) {
    let node = TechnologyNode::N70;
    let pmodel = ProcessorEnergyModel::new(node);
    let names: Vec<&str> = suite::names().into_iter().step_by(4).collect();
    let (mut cache_frac, mut replay_ovh) = (0.0, 0.0);
    for name in &names {
        let spec = SystemSpec {
            d_policy: PolicyKind::GatedPredecode { threshold: 100 },
            i_policy: PolicyKind::Gated { threshold: 100 },
            instructions: instrs,
            ..SystemSpec::default()
        };
        let fresh = match bitline_sim::try_run_benchmark(name, &spec) {
            Ok(r) => r,
            Err(e) => return out.fail(&format!("{name}: {e}")),
        };
        let cached = bitline_sim::run_benchmark_cached(name, &spec);
        out.check(facts(&fresh) == facts(&cached), &|| format!("{name}: cached run differs"));
        let (policy, baseline) = fresh.energy(node);
        cache_frac +=
            pmodel.assess(fresh.stats.committed, 0, baseline.d, baseline.i).cache_fraction();
        replay_ovh += pmodel
            .assess(fresh.stats.committed, fresh.stats.replays, policy.d, policy.i)
            .replay_overhead();
    }
    let n = names.len() as f64;
    let want = [(cache_frac / n).to_bits(), (replay_ovh / n).to_bits()];
    out.check(headline[8..] == want, &|| "headline processor context differs".into());
}

// ---------------------------------------------------------------------------
// long-run and armed-stack
// ---------------------------------------------------------------------------

/// Benchmarks of `long-run`: compact hot loops, pointer chasing (the
/// slowest), and an instruction footprint above the 32 KB L1.
pub const LONG_BENCHMARKS: [&str; 3] = ["mesa", "mcf", "gcc"];
/// Instructions per `long-run` run: the length of a long single run.
pub const LONG_INSTRS: u64 = 2_000_000;

/// Benchmarks and run length of `armed-stack`: the same three streams.
pub const ARMED_BENCHMARKS: [&str; 3] = ["mesa", "mcf", "gcc"];
pub const ARMED_INSTRS: u64 = 200_000;

fn gated(seed: u64, instructions: u64) -> SystemSpec {
    SystemSpec {
        d_policy: PolicyKind::Gated { threshold: 100 },
        i_policy: PolicyKind::Gated { threshold: 100 },
        instructions,
        seed,
        ..SystemSpec::default()
    }
}

/// The workload's trace seed: what `--seed` hands the program.
pub fn trace_seed(seed: u64) -> u64 {
    1 + mix(seed, 2, 1 << 40)
}

/// The runs of `long-run`: gated:100 and its static baseline per benchmark.
pub fn long_runs(seed: u64) -> Vec<(&'static str, SystemSpec)> {
    let s = trace_seed(seed);
    LONG_BENCHMARKS
        .iter()
        .flat_map(|&b| {
            [
                (b, gated(s, LONG_INSTRS)),
                (b, SystemSpec { instructions: LONG_INSTRS, seed: s, ..SystemSpec::default() }),
            ]
        })
        .collect()
}

/// The fully armed spec: three levels with a gated L2/L3, leakage and
/// timing upsets, SECDED with scrubbing, and a governed 0.85 supply.
pub fn armed_spec(seed: u64, instructions: u64) -> SystemSpec {
    let mut spec = gated(trace_seed(seed), instructions);
    spec.hierarchy = HierarchySpec {
        levels: 3,
        l2_policy: PolicyKind::Gated { threshold: 100 },
        leakage_mode: LeakageKind::FullVdd,
    };
    spec.faults.rate = 0.001;
    spec.faults.seed = 1 + mix(seed, 3, 1 << 40);
    spec.faults.ecc = true;
    spec.faults.scrub_period = Some(20_000);
    spec.vdd = VddSpec { scale: 0.85, governor: true };
    spec
}

pub fn armed_runs(seed: u64) -> Vec<(&'static str, SystemSpec)> {
    ARMED_BENCHMARKS.iter().map(|&b| (b, armed_spec(seed, ARMED_INSTRS))).collect()
}

/// The simulated outputs of one run that the reference check compares.
fn outputs(run: &bitline_sim::RunResult, price_all: bool) -> Vec<u64> {
    let mut f = facts(run);
    if price_all {
        f.extend(priced_everywhere(run));
    }
    f
}

/// Set-up of the single runs: empties the program's shared trace store,
/// then warms it with one `try_run_benchmark` per distinct stream. The
/// shared store is only reachable through a run, so each set-up
/// materialises every trace the timed rounds replay, and simulates it once.
/// Each step is timed on its own; returns the set-up's time in host and in
/// reference seconds.
fn warm(
    runs: &[(&'static str, SystemSpec)],
    clock: &mut HostClock,
    out: &mut Outcome,
) -> (f64, f64) {
    let ((), mut host_s, slowdown) = clock.time(bitline_sim::clear_run_caches);
    let mut reference_s = host_s / slowdown;
    let mut seen = Vec::new();
    for (b, spec) in runs {
        if seen.contains(&(b, spec.seed)) {
            continue;
        }
        seen.push((b, spec.seed));
        let (run, h, slowdown) = clock.time(|| {
            let _s = spans::span("sim");
            bitline_sim::try_run_benchmark(b, spec)
        });
        host_s += h;
        reference_s += h / slowdown;
        if let Err(e) = run {
            out.fail(&format!("{b}: {e}"));
        }
    }
    (host_s, reference_s)
}

/// Runs each spec through `bitline_sim::try_run_benchmark` on the traces
/// warmed in set-up, as many rounds as fit in `seconds`. With `price_all`,
/// each run is also priced under every node and leakage mode. An operation
/// is `runs_per_op` consecutive runs (long-run: a run and its baseline),
/// so every operation of a round is one benchmark and the latency median
/// falls inside one benchmark's operations rather than between two. Each
/// run is timed in reference seconds on its own; an operation's time is
/// the sum of its runs', and a round's the sum of its operations'.
pub fn single_runs(
    runs: &[(&'static str, SystemSpec)],
    runs_per_op: usize,
    seconds: f64,
    price_all: bool,
    out: &mut Outcome,
) -> Phase {
    let mut clock = HostClock::start();
    let setup_s = set_ups(|| Ok(warm(runs, &mut clock, out)))
        .expect("warming counts its failures as failed operations");
    let mut phase = Phase { setup_s, ..Phase::default() };
    let busy = bitline_obs::registry().counter("sim.runner.busy_micros");
    let started = Instant::now();
    while phase.more_rounds(started, seconds) {
        let (mut round_s, mut busy_us, mut committed) = (0.0, 0.0, 0);
        let mut round = Vec::new();
        for op in runs.chunks(runs_per_op) {
            let mut op_s = 0.0;
            for (b, spec) in op {
                let b0 = busy.get();
                let (run, host_s, slowdown) = clock.time(|| {
                    let run = {
                        let _s = spans::span("sim");
                        bitline_sim::try_run_benchmark(b, spec)
                    };
                    run.map(|run| (run.stats.committed, outputs(&run, price_all)))
                });
                op_s += host_s / slowdown;
                busy_us += (busy.get() - b0) as f64 / slowdown;
                match run {
                    Ok((c, o)) => {
                        committed += c;
                        round.push(o);
                    }
                    Err(e) => {
                        out.fail(&format!("{b}: {e}"));
                        round.push(Vec::new());
                    }
                }
            }
            round_s += op_s;
            phase.op_ms.push(op_s * 1e3);
            phase.ops += 1;
        }
        phase.round_mips.push(mips(committed, busy_us));
        phase.round_s.push(round_s);
        phase.record(round, out);
    }
    phase.peak_rss_mb = peak_rss_mb();
    phase.host_slowdown = std::mem::take(&mut clock.applied);
    phase
}

/// The reference outputs of the single runs: each run assembled from the
/// layers' public APIs (`src/system.rs`) on a trace store of its own, so
/// neither the program's runner nor its shared trace store is involved.
/// The reference is untimed, so each run gets a thread of its own.
pub fn single_reference(runs: &[(&'static str, SystemSpec)], price_all: bool) -> Vec<Vec<u64>> {
    let _s = spans::span("bench");
    let store = TraceStore::new();
    let reference = |(b, spec): &(&str, SystemSpec)| {
        let mut sys = system::assemble(b, spec);
        sys.run(&mut system::cursor(&store, b, spec.seed));
        outputs(&sys.finish(), price_all)
    };
    std::thread::scope(|s| {
        let handles: Vec<_> = runs.iter().map(|r| s.spawn(|| reference(r))).collect();
        handles.into_iter().map(|h| h.join().expect("reference run panicked")).collect()
    })
}
