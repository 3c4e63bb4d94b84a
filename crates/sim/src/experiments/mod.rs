//! Typed experiment drivers, one per table/figure of the paper.
//!
//! Every driver returns plain data rows and its module's `render` turns
//! them into the experiment's one text format: a `#` header naming the
//! columns, then whitespace-separated rows. [`EXPERIMENTS`] binds each
//! `bitline-sim <name>` command to its driver and renderer; the same text
//! goes to stdout and, under `BITLINE_EXPORT_DIR`, to `<name>.dat` (see
//! [`export`]). See `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for paper-vs-measured values.

use crate::{FaultSpec, SimError};

pub mod export;
pub mod harness;

pub mod ablations;
pub mod fig10;
pub mod fig2;
pub mod fig3;
pub mod fig8;
pub mod fig9;
pub mod headline;
pub mod hierarchy;
pub mod locality;
pub mod ondemand;
pub mod reliability;
mod sweep;
pub mod tables;
pub mod voltage;

pub use sweep::{optimal_gated, GatedSweep, SweptCache, MAX_SLOWDOWN, THRESHOLDS};

/// Runs one experiment at the given instructions per simulated run (and
/// the caller's fault settings, which only `reliability` reads) and
/// renders its rows.
pub type Experiment = fn(u64, &FaultSpec) -> Result<String, SimError>;

/// Every experiment command, in `--help` order. Figures with a summary
/// row (fig 3, fig 8, §5) render it after the per-benchmark rows.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", |_, _| Ok(tables::render_table1(&tables::table1()))),
    ("table2", |_, _| Ok(tables::render_table2(&tables::table2()))),
    ("table3", |_, _| Ok(tables::render_table3(&tables::table3()))),
    ("fig2", |_, _| Ok(fig2::render(&fig2::run(21)))),
    ("fig3", |instrs, _| {
        let (mut rows, avg) = fig3::run(instrs)?;
        rows.push(avg);
        Ok(fig3::render(&rows))
    }),
    ("fig5", |instrs, _| Ok(locality::render_fig5(&locality::run(instrs)?))),
    ("fig6", |instrs, _| Ok(locality::render_fig6(&locality::run(instrs)?))),
    ("fig8", |instrs, _| {
        let (mut rows, summary) = fig8::run(instrs)?;
        rows.push(summary.avg);
        Ok(format!(
            "{}# const-100 discharge: D {:.5}  I {:.5}\n",
            fig8::render(&rows),
            summary.const_d_discharge,
            summary.const_i_discharge
        ))
    }),
    ("fig9", |instrs, _| Ok(fig9::render(&fig9::run(instrs)?))),
    ("fig10", |instrs, _| Ok(fig10::render(&fig10::run(instrs)?))),
    ("ondemand", |instrs, _| {
        let (mut rows, avg) = ondemand::run(instrs)?;
        rows.push(avg);
        Ok(ondemand::render(&rows))
    }),
    ("headline", |instrs, _| Ok(headline::render(&headline::run(instrs)?, instrs))),
    ("ablations", |instrs, _| Ok(ablations::render(&ablations::run(instrs)?))),
    ("reliability", |instrs, faults| Ok(reliability::render(&reliability::run(instrs, faults)?))),
    ("hierarchy", |instrs, _| Ok(hierarchy::render(&hierarchy::run(instrs)?))),
    ("voltage", |instrs, _| Ok(voltage::render(&voltage::run(instrs)?))),
];
