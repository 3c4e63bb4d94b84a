//! Small statistics and the metric report.

use std::collections::BTreeMap;
use std::time::Instant;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean wall time of one of `calls` calls of `f`, in `unit_s` units. The
/// count is fixed, so the time spent follows the layer's speed.
pub fn time_calls(calls: u32, unit_s: f64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    start.elapsed().as_secs_f64() / f64::from(calls.max(1)) / unit_s
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_peak_rss_mb("self").unwrap_or(0.0)
}

/// Peak resident set of process `pid` (or `self`) in MiB.
pub fn proc_peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Named metrics with units, printed as the run's result.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_owned(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|&(v, _)| v)
    }

    /// The result line: `correct`, `attempted`, `failed` and every metric
    /// with its unit.
    pub fn json_line(&self, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            failed == 0,
            attempted.max(1),
            failed,
            body.join(",")
        )
    }
}

/// Checked outputs of one run: how many operations were compared against
/// their reference and how many failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: &dyn Fn() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: output mismatch: {}", what());
        }
    }

    pub fn fail(&mut self, what: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: failed: {what}");
    }
}
