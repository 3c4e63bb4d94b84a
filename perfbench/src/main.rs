//! The repository benchmark: one workload per run, timed from outside
//! through the layers' public APIs.
//!
//! ```text
//! perfbench --workload <suite-sweep|long-run|serve-mixed|armed-stack>
//!           --seed <n> --seconds <s> --trace <0|1> [--serve-bin <path>]
//! ```
//!
//! With `--trace 0` the last line of stdout is a JSON object carrying the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics,
//! taken from a traced run of the workload plus per-layer probes, and the
//! spans are written to `.perfbench_out/`. Every run checks the program's
//! simulated outputs against a reference; mismatches count as failures.
//! `perfbench/run.py` builds everything and is the usual entry point.
//!
//! `perfbench --cold-start` only sets up the figure path's process-wide
//! state and exits; suite-sweep times it as its set-up.

mod batch;
mod host;
mod layers;
mod serve;
mod spans;
mod stats;
mod system;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use batch::Phase;
use stats::{median, quantile, Outcome, Report};

/// Layers a span may be named after (the metric prefixes).
const LAYERS: [&str; 15] = [
    "workloads",
    "trace",
    "exec.traces",
    "cpu",
    "cache",
    "core",
    "faults",
    "ecc",
    "energy",
    "sim",
    "exec.pool",
    "sim.checkpoint",
    "exec.journal",
    "serve",
    "bench",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, serve_bin: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => args.trace = value()? == "1",
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The workload's timed phase, plus what serve-mixed measures besides.
fn run_phase(
    args: &Args,
    seconds: f64,
    scratch: &Path,
    out: &mut Outcome,
) -> Result<(Phase, Option<serve::ServeExtra>), String> {
    Ok(match args.workload.as_str() {
        "suite-sweep" => (batch::suite_sweep(args.seed, seconds, out)?, None),
        "long-run" => {
            (batch::single_runs(&batch::long_runs(args.seed), 2, seconds, false, out), None)
        }
        "armed-stack" => {
            (batch::single_runs(&batch::armed_runs(args.seed), 1, seconds, true, out), None)
        }
        "serve-mixed" => {
            let bin = args.serve_bin.as_deref().ok_or("serve-mixed needs --serve-bin")?;
            let (p, e) = serve::serve_mixed(bin, scratch, args.seed, seconds, out)?;
            (p, Some(e))
        }
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// Checks every phase's outputs against the workload's reference for its
/// seed, computed once after the timed phases. serve-mixed checks each
/// response as it goes, so it has nothing left to check here.
fn check_outputs(args: &Args, phases: &[&Phase], out: &mut Outcome) {
    let reference = match args.workload.as_str() {
        "suite-sweep" => batch::suite_reference(args.seed, out),
        "long-run" => batch::single_reference(&batch::long_runs(args.seed), false),
        "armed-stack" => batch::single_reference(&batch::armed_runs(args.seed), true),
        _ => return,
    };
    for phase in phases {
        for (k, got) in phase.outputs.iter().enumerate() {
            out.check(reference.get(k) == Some(got), &|| {
                format!("output {k} differs from the reference")
            });
        }
    }
}

fn end_to_end(p: &Phase, r: &mut Report) {
    r.set("setup_s", median(&p.setup_s), "s");
    r.set("wall_s", median(&p.round_s), "s");
    r.set("sim_mips", median(&p.round_mips), "MIPS");
    r.set("peak_rss_mb", p.peak_rss_mb, "MiB");
    r.set("latency_p50_ms", quantile(&p.op_ms, 0.5), "ms");
    r.set("latency_p90_ms", quantile(&p.op_ms, 0.9), "ms");
    if let Some(rate) = p.max_rate_rps {
        r.set("max_rate_rps", rate, "1/s");
    }
    eprintln!(
        "perfbench: {} rounds (min {:.4} s, median {:.4} s, max {:.4} s), {} operations, {} latency samples, {} set-ups, host slowdown median {:.4} (min {:.4}, max {:.4})",
        p.round_s.len(),
        quantile(&p.round_s, 0.0),
        median(&p.round_s),
        quantile(&p.round_s, 1.0),
        p.ops,
        p.op_ms.len(),
        p.setup_s.len(),
        median(&p.host_slowdown),
        quantile(&p.host_slowdown, 0.0),
        quantile(&p.host_slowdown, 1.0)
    );
}

/// The traced run: the workload untraced and then traced (half the time
/// each, for the overhead), followed by the per-layer probes.
fn traced(args: &Args, scratch: &Path, out: &mut Outcome) -> Result<Report, String> {
    let half = args.seconds / 2.0;
    let (plain, _) = run_phase(args, half, scratch, out)?;
    spans::set_enabled(true);
    let (phase, extra) = run_phase(args, half, scratch, out)?;
    check_outputs(args, &[&plain, &phase], out);
    let mut r = Report::default();
    // Per-operation latency, traced over untraced.
    let overhead = median(&phase.op_ms) / median(&plain.op_ms);
    let seed = args.seed;
    let (benchmark, spec) = match args.workload.as_str() {
        "suite-sweep" => ("gcc".to_owned(), bitline_sim::SystemSpec::default()),
        "long-run" => ("mcf".to_owned(), batch::long_runs(seed)[2].1),
        "armed-stack" => ("gcc".to_owned(), batch::armed_runs(seed)[2].1),
        _ => {
            let e = extra.as_ref().expect("serve-mixed reports extras");
            let spec = match bitline_serve::parse_request(&e.request_line) {
                Ok(bitline_serve::Request::Run(run)) => run.spec,
                _ => bitline_sim::SystemSpec::default(),
            };
            (e.benchmark.clone(), spec)
        }
    };
    if let Some(e) = &extra {
        r.set("exec.journal.open_ms", layers::journal_open_ms(&e.journal_dir), "ms");
    }
    let request_line = extra.as_ref().map_or_else(
        || {
            format!(
                "{{\"id\":\"p\",\"benchmark\":\"{benchmark}\",\"spec\":{{\"d_policy\":\"gated:100\",\"instructions\":{},\"seed\":{}}}}}",
                spec.instructions, spec.seed
            )
        },
        |e| e.request_line.clone(),
    );
    layers::probe(
        &layers::Probe {
            benchmark: &benchmark,
            spec,
            armed: batch::armed_spec(seed, spec.instructions),
            request_line,
            scratch,
        },
        &mut r,
    );
    // The daemon-side split exists only where a daemon runs.
    if let Some(e) = extra {
        r.set("serve.compute_ms", e.compute_ms, "ms");
        r.set("serve.wait_ms", e.wait_ms, "ms");
        r.set("serve.dedup_share", e.dedup_share, "ratio");
        r.set("serve.shed_share", e.shed_share, "ratio");
        r.set("bench.generator_lag_ms", e.generator_lag_ms, "ms");
    }
    r.set("bench.trace_overhead_ratio", overhead, "ratio");
    r.set("bench.host_slowdown", median(&phase.host_slowdown), "ratio");

    let recorded = spans::take();
    let selfs = spans::self_seconds(&recorded);
    for layer in LAYERS {
        r.set(&format!("self_s.{layer}"), selfs.get(layer).copied().unwrap_or(0.0), "s");
    }
    let dir = Path::new(".perfbench_out");
    let file = dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&file, spans::to_jsonl(&recorded)))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    eprintln!("perfbench: {} spans written to {}", recorded.len(), file.display());
    Ok(r)
}

fn main() -> ExitCode {
    // The program reads defaults from BITLINE_* variables; the benchmark
    // hands it only the inputs it generates from the seed.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("BITLINE_") {
            std::env::remove_var(k);
        }
    }
    if std::env::args().nth(1).as_deref() == Some("--cold-start") {
        batch::cold_start();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch =
        PathBuf::from(".perfbench_tmp").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let mut out = Outcome::default();
    let result = if args.trace {
        traced(&args, &scratch, &mut out)
    } else {
        run_phase(&args, args.seconds, &scratch, &mut out).map(|(phase, _)| {
            check_outputs(&args, &[&phase], &mut out);
            let mut r = Report::default();
            end_to_end(&phase, &mut r);
            r
        })
    };
    let _ = std::fs::remove_dir_all(&scratch);
    match result {
        Ok(mut r) => {
            if args.trace {
                r.set("failed_share", out.failed as f64 / out.attempted.max(1) as f64, "ratio");
            }
            println!("{}", r.json_line(out.attempted, out.failed));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
