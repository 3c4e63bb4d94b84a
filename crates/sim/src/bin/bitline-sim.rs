//! `bitline-sim` — command-line front end for the full-system simulator.
//!
//! Run any benchmark under any precharge policy and print performance,
//! cache behaviour and energy at a chosen technology node:
//!
//! ```sh
//! bitline-sim --benchmark mcf --policy gated:100 --node 70nm --instructions 200000
//! bitline-sim --benchmark all --policy oracle --jobs 8
//! bitline-sim --metrics out.jsonl headline
//! bitline-sim --list
//! ```
//!
//! A positional experiment command (`table1`..`table3`, `fig2`..`fig10`,
//! `ondemand`, `headline`, `ablations`, `reliability`, `hierarchy`,
//! `voltage`; the full list is `bitline_sim::experiments::EXPERIMENTS`)
//! runs that table's or figure's driver instead of a single benchmark and
//! prints its rows, which `BITLINE_EXPORT_DIR` also writes to
//! `<dir>/<name>.dat`; `--metrics PATH` (or `BITLINE_METRICS`)
//! additionally writes the run's observability counters, histograms and
//! spans as JSON lines, and `--metrics-summary` prints them as a table.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use bitline_cmos::TechnologyNode;
use bitline_sim::experiments::{self, harness};
use bitline_sim::{
    exec_summary_line, set_checkpoint, supervise, try_run_benchmark_cached, FaultSpec,
    HierarchySpec, PolicyKind, SimError, SystemSpec, VddSpec,
};
use bitline_workloads::suite;

#[derive(Debug)]
struct Args {
    benchmark: String,
    node: TechnologyNode,
    spec: SystemSpec,
    run_budget: Option<Duration>,
    checkpoint: Option<PathBuf>,
    no_resume: bool,
    list: bool,
    metrics: Option<PathBuf>,
    metrics_summary: bool,
    validate_metrics: Option<PathBuf>,
    experiment: Option<&'static (&'static str, experiments::Experiment)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        benchmark: "gcc".into(),
        node: TechnologyNode::N70,
        spec: SystemSpec::front_door(),
        run_budget: None,
        checkpoint: None,
        no_resume: false,
        list: false,
        metrics: None,
        metrics_summary: false,
        validate_metrics: None,
        experiment: None,
    };
    // The spec flags are declared once, in `bitline_sim::SPEC_FIELDS`;
    // everything else is handled here.
    args.spec = bitline_sim::parse_cli(std::env::args().skip(1), |flag, it| {
        let mut value = || -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--benchmark" | "-b" => args.benchmark = value()?,
            "--node" | "-n" => args.node = value()?.parse().map_err(|e| format!("{e}"))?,
            "--run-budget" => args.run_budget = Some(supervise::parse_budget(&value()?)?),
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(value()?)),
            "--no-resume" => args.no_resume = true,
            "--jobs" | "-j" => {
                let n = bitline_exec::pool::parse_jobs_value(&value()?)
                    .map_err(|e| format!("--jobs: {e}"))?;
                bitline_exec::pool::set_jobs(n);
            }
            "--metrics" => args.metrics = Some(PathBuf::from(value()?)),
            "--metrics-summary" => args.metrics_summary = true,
            "--validate-metrics" => args.validate_metrics = Some(PathBuf::from(value()?)),
            "--list" | "-l" => args.list = true,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            cmd => {
                let Some(exp) = experiments::EXPERIMENTS.iter().find(|(name, _)| *name == cmd)
                else {
                    if cmd.starts_with('-') {
                        return Err(format!("unknown flag `{cmd}` (see --help)"));
                    }
                    return Err(format!(
                        "unknown command `{cmd}`; experiments: {}",
                        experiment_names()
                    ));
                };
                if let Some((prev, _)) = args.experiment {
                    return Err(format!("one experiment at a time (`{prev}` then `{cmd}`)"));
                }
                args.experiment = Some(exp);
            }
        }
        Ok(())
    })?;
    // Model ranges (power-of-two subarrays, 1..=3 levels, the Vdd band,
    // scrubbing without ECC) fail here, before any run starts.
    args.spec.validate().map_err(|e| e.to_string())?;
    Ok(args)
}

/// The positional experiment commands, as `--help` lists them.
fn experiment_names() -> String {
    let names: Vec<&str> = experiments::EXPERIMENTS.iter().map(|&(name, _)| name).collect();
    names.join(" | ")
}

fn print_help() {
    println!("bitline-sim — gated-precharging full-system simulator");
    println!();
    println!("USAGE: bitline-sim [OPTIONS] [EXPERIMENT]");
    println!();
    println!("  -b, --benchmark NAME    benchmark or `all` (default gcc)");
    println!("  -n, --node NODE         180nm | 130nm | 100nm | 70nm (default 70nm)");
    println!("      --run-budget DUR    wall-clock budget per run, e.g. 500ms, 30s, 2m");
    println!("                          (default: BITLINE_RUN_BUDGET env, else unbounded);");
    println!("                          timed-out runs are retried once at twice the budget");
    println!("      --checkpoint DIR    append finished runs to DIR/runs.journal and replay");
    println!("                          them on the next invocation (crash-safe resume)");
    println!("      --no-resume         keep journaling but ignore any existing journal");
    println!("  -j, --jobs N            worker threads for `all` (default: BITLINE_JOBS");
    println!("                          env, else available parallelism)");
    println!("      --metrics PATH      write the run's observability metrics (counters,");
    println!("                          histograms, spans) to PATH as JSON lines;");
    println!("                          BITLINE_METRICS env does the same");
    println!("      --metrics-summary   print the metrics as a table on stderr at exit");
    println!("      --validate-metrics F  validate a previously written metrics file");
    println!("                          against the bitline-obs/v1 schema and exit");
    println!("  -l, --list              list benchmarks and exit");
    println!();
    println!("SPEC OPTIONS ([key] is the same setting in a bitline-serve request spec):");
    print!("{}", bitline_sim::spec_help());
    println!();
    println!("EXPERIMENTS (positional): {}", experiment_names());
    println!("  runs the paper-figure driver over the suite (BITLINE_INSTRS instructions");
    println!("  per run, BITLINE_SUITE restricts the benchmark set); with BITLINE_EXPORT_DIR");
    println!("  set, the printed table is also written to DIR/<name>.dat");
}

/// Runs one benchmark and renders its report. Returning the text (rather
/// than printing directly) lets the `all` mode run benchmarks on the work
/// pool and still print reports in suite order.
fn run_one(name: &str, args: &Args) -> Result<String, SimError> {
    let spec = args.spec;
    // The slowdown/energy reference is the clean static-pull-up machine:
    // faults model leakage upsets in *gated* bitlines, so the baseline
    // runs fault-free, single-level, at full Vdd.
    let baseline_spec = SystemSpec {
        d_policy: PolicyKind::StaticPullUp,
        i_policy: PolicyKind::StaticPullUp,
        faults: FaultSpec { rate: 0.0, ..spec.faults },
        hierarchy: HierarchySpec::default(),
        vdd: VddSpec::nominal(),
        ..spec
    };
    let run = try_run_benchmark_cached(name, &spec)?;
    let baseline = try_run_benchmark_cached(name, &baseline_spec)?;
    let (policy, base) = run.energy(args.node);

    let mut out = String::new();
    let _ = writeln!(out, "== {name} @ {} ==", args.node);
    let _ = writeln!(
        out,
        "  cycles {:>10}   IPC {:.2}   slowdown vs static {:+.2}%",
        run.cycles(),
        run.stats.ipc(),
        100.0 * run.slowdown_vs(&baseline)
    );
    let _ = writeln!(
        out,
        "  D: miss {:>5.1}%  precharged {:>5.1}%  discharge {:>5.3}x  energy saved {:>5.1}%",
        100.0 * run.d_miss_ratio(),
        100.0 * run.d_report.precharged_fraction(),
        policy.d.relative_discharge(&base.d),
        100.0 * policy.d.overall_reduction(&base.d),
    );
    let _ = writeln!(
        out,
        "  I: miss {:>5.1}%  precharged {:>5.1}%  discharge {:>5.3}x  energy saved {:>5.1}%",
        100.0 * run.i_miss_ratio(),
        100.0 * run.i_report.precharged_fraction(),
        policy.i.relative_discharge(&base.i),
        100.0 * policy.i.overall_reduction(&base.i),
    );
    let _ = writeln!(
        out,
        "  replays {:>6}  mispredict rate {:>5.2}%  delayed D accesses {:>5.2}%",
        run.stats.replays,
        100.0 * run.stats.mispredict_rate(),
        100.0 * run.d_report.delayed_fraction(),
    );
    if let (Some(d), Some(i)) = (&run.d_faults, &run.i_faults) {
        let _ = writeln!(out, "  faults D: {}", d.summary());
        let _ = writeln!(out, "  faults I: {}", i.summary());
    }
    if let (Some(d), Some(i)) = (&run.d_reliability, &run.i_reliability) {
        let _ = writeln!(out, "  ECC D: {}", d.summary());
        let _ = writeln!(out, "  ECC I: {}", i.summary());
    }
    if let (Some(d), Some(i)) = (&run.d_vdd, &run.i_vdd) {
        let _ = writeln!(out, "  Vdd D: {}", d.summary());
        let _ = writeln!(out, "  Vdd I: {}", i.summary());
    }
    if let Some((_, _, writebacks)) = run.l2_traffic {
        let l2 = run.l2_energy(args.node, spec.hierarchy.leakage_mode).map_or(0.0, |b| b.total_j());
        let _ = writeln!(
            out,
            "  L2: miss {:>5.1}%  writebacks {:>6}  energy {:.3e} J  ({} cells)",
            100.0 * run.l2_miss_ratio().unwrap_or(0.0),
            writebacks,
            l2,
            spec.hierarchy.leakage_mode.label(),
        );
    }
    if let Some((hits, misses, writebacks)) = run.l3_traffic {
        let l3 = run.l3_energy(args.node, spec.hierarchy.leakage_mode).map_or(0.0, |b| b.total_j());
        let _ = writeln!(
            out,
            "  L3: miss {:>5.1}%  writebacks {:>6}  energy {:.3e} J  ({} cells)",
            100.0 * misses as f64 / (hits + misses).max(1) as f64,
            writebacks,
            l3,
            spec.hierarchy.leakage_mode.label(),
        );
    }
    Ok(out)
}

/// Flushes observability output per the CLI flags and `BITLINE_METRICS`:
/// the JSONL file (written atomically) and/or the stderr summary table.
/// Runs after all stdout rows, so figure output stays byte-identical with
/// metrics on or off.
fn flush_metrics(args: &Args) {
    if let Some(path) = &args.metrics {
        if let Err(e) = bitline_sim::metrics::write_metrics(path) {
            eprintln!("warning: {e}");
        }
    } else {
        bitline_sim::metrics::write_metrics_from_env();
    }
    if args.metrics_summary {
        eprint!("{}", bitline_obs::summary_table());
    }
}

/// Validates a previously written metrics file against the
/// `bitline-obs/v1` schema, printing the record tally on success.
fn validate_metrics(path: &std::path::Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    match bitline_obs::validate_jsonl(&text) {
        Ok(report) => {
            println!("{}: valid ({report})", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Arms run supervision from the environment, then lets CLI flags win.
fn arm_supervision(args: &Args) -> Result<(), String> {
    bitline_sim::init_supervision_from_env()?;
    if args.run_budget.is_some() {
        supervise::set_run_budget(args.run_budget);
    }
    if let Some(dir) = &args.checkpoint {
        set_checkpoint(dir, !args.no_resume)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &args.validate_metrics {
        return validate_metrics(path);
    }
    if args.list {
        for spec in suite::all() {
            println!(
                "{:>10}  {:?}  footprint {:>7} KB  code {:>4} KB",
                spec.name,
                spec.suite,
                spec.footprint_bytes / 1024,
                spec.code_bytes() / 1024
            );
        }
        return ExitCode::SUCCESS;
    }
    if let Err(e) = arm_supervision(&args) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if let Some(&(cmd, run)) = args.experiment {
        // The drivers isolate and retry per unit of work themselves; an
        // error here means the whole suite failed.
        let result = run(bitline_sim::default_instructions(), &args.spec.faults);
        eprintln!("{}", exec_summary_line());
        flush_metrics(&args);
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                eprintln!("error: bitline-sim: {cmd}: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{report}");
        if let Some(dir) = experiments::export::export_dir() {
            match experiments::export::publish(&dir, cmd, &report) {
                Ok(path) => eprintln!("exported {}", path.display()),
                Err(e) => {
                    eprintln!("error: bitline-sim: {cmd}: export to {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        return ExitCode::SUCCESS;
    }
    if args.benchmark == "all" {
        // Fan the suite out over the work pool; reports come back in suite
        // order so the output is identical whatever the job count. A suite
        // with some timed-out or failed benchmarks still succeeds (with a
        // stderr warning); only an empty suite is a failure.
        let names = suite::names();
        let outcome = harness::map_names(&names, |name| run_one(name, &args));
        outcome.report_skipped("bitline-sim");
        eprintln!("{}", exec_summary_line());
        flush_metrics(&args);
        match outcome.rows_or_error("bitline-sim") {
            Ok(reports) => {
                for report in reports {
                    print!("{report}");
                }
                ExitCode::SUCCESS
            }
            Err(_) => ExitCode::FAILURE,
        }
    } else {
        let result = harness::isolated(&args.benchmark, || run_one(&args.benchmark, &args));
        flush_metrics(&args);
        match result {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(skip) => {
                eprintln!("error: bitline-sim: {skip}");
                ExitCode::FAILURE
            }
        }
    }
}
