//! Figures 5 and 6: subarray reference locality.

use std::fmt::Write as _;

use crate::experiments::harness;
use crate::{
    try_run_benchmark_cached, LocalityStats, PolicyKind, SimError, SystemSpec, FIG5_BUCKETS,
    FIG6_THRESHOLDS,
};

/// One benchmark's locality profile for one cache.
#[derive(Debug, Clone)]
pub struct LocalityRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Figure 5: cumulative fraction of accesses with access interval at
    /// most `FIG5_BUCKETS[i]` cycles.
    pub access_cdf: [f64; 5],
    /// Figure 6: time-averaged fraction of subarrays hot at threshold
    /// `FIG6_THRESHOLDS[i]`.
    pub hot_fraction: [f64; 5],
}

/// Both caches' locality profiles.
#[derive(Debug, Clone)]
pub struct LocalityResult {
    /// Per-benchmark D-cache rows.
    pub data: Vec<LocalityRow>,
    /// Per-benchmark I-cache rows.
    pub inst: Vec<LocalityRow>,
}

fn row(benchmark: &str, stats: &LocalityStats) -> LocalityRow {
    LocalityRow {
        benchmark: benchmark.to_owned(),
        access_cdf: stats.cumulative_access_fraction(),
        hot_fraction: stats.hot_subarray_fraction(),
    }
}

/// Gathers Figures 5 and 6 for all sixteen benchmarks.
///
/// # Errors
///
/// The first skipped run's [`SimError`] when *every* benchmark failed;
/// partial suites degrade to fewer rows with a stderr warning.
pub fn run(instrs: u64) -> Result<LocalityResult, SimError> {
    let _span = bitline_obs::span("locality/run").field("instrs", instrs);
    let outcome = harness::map_suite(|name| {
        let spec = SystemSpec {
            d_policy: PolicyKind::LocalityRecorder,
            i_policy: PolicyKind::LocalityRecorder,
            instructions: instrs,
            ..SystemSpec::default()
        };
        let result = try_run_benchmark_cached(name, &spec)?;
        let d = row(name, result.d_locality.as_ref().expect("recorder attached"));
        let i = row(name, result.i_locality.as_ref().expect("recorder attached"));
        Ok((d, i))
    });
    outcome.report_skipped("locality");
    let (data, inst) = outcome.rows_or_error("locality")?.into_iter().unzip();
    Ok(LocalityResult { data, inst })
}

/// The bucket labels, for printing.
#[must_use]
pub fn bucket_labels() -> Vec<String> {
    FIG5_BUCKETS.iter().map(|b| format!("1/{b}")).collect()
}

/// The threshold labels, for printing.
#[must_use]
pub fn threshold_labels() -> Vec<String> {
    FIG6_THRESHOLDS.iter().map(|t| format!("1/{t}")).collect()
}

/// Average hot-subarray fraction across benchmarks at one threshold index.
#[must_use]
pub fn average_hot_fraction(rows: &[LocalityRow], idx: usize) -> f64 {
    rows.iter().map(|r| r.hot_fraction[idx]).sum::<f64>() / rows.len() as f64
}

/// Renders Figure 5: per cache (`d`, `i`) and benchmark, the fraction
/// of accesses whose subarray interval is at most each bucket.
#[must_use]
pub fn render_fig5(res: &LocalityResult) -> String {
    render_profile("access_cdf", &bucket_labels(), res, |r| r.access_cdf, false)
}

/// Renders Figure 6: per cache (`d`, `i`) and benchmark, the
/// time-averaged fraction of subarrays hot at each threshold, then each
/// cache's `AVG` row.
#[must_use]
pub fn render_fig6(res: &LocalityResult) -> String {
    render_profile("hot_fraction", &threshold_labels(), res, |r| r.hot_fraction, true)
}

fn render_profile(
    what: &str,
    labels: &[String],
    res: &LocalityResult,
    column: fn(&LocalityRow) -> [f64; 5],
    with_avg: bool,
) -> String {
    let mut f = format!("# cache  benchmark  {what} at {}\n", labels.join(" "));
    for (cache, rows) in [("d", &res.data), ("i", &res.inst)] {
        let mut lines: Vec<(&str, [f64; 5])> =
            rows.iter().map(|r| (r.benchmark.as_str(), column(r))).collect();
        if with_avg {
            let n = rows.len() as f64;
            let avg = std::array::from_fn(|k| rows.iter().map(|r| column(r)[k]).sum::<f64>() / n);
            lines.push(("AVG", avg));
        }
        for (benchmark, values) in lines {
            let _ = write!(f, "{cache} {benchmark}");
            for v in values {
                let _ = write!(f, " {v:.5}");
            }
            f.push('\n');
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locality_profiles_are_monotone_and_plausible() {
        let res = run(6_000).expect("locality completes");
        assert_eq!(res.data.len(), 16);
        for r in res.data.iter().chain(res.inst.iter()) {
            assert!(r.access_cdf.windows(2).all(|w| w[1] >= w[0]), "{}", r.benchmark);
            assert!(r.hot_fraction.windows(2).all(|w| w[1] >= w[0]), "{}", r.benchmark);
            assert!(r.hot_fraction[4] <= 1.0 + 1e-9);
        }
        // I-streams are more concentrated than D-streams on average
        // (Section 6.4: "instruction streams have more stable footprints").
        let d_avg = average_hot_fraction(&res.data, 2);
        let i_avg = average_hot_fraction(&res.inst, 2);
        assert!(i_avg < d_avg + 0.15, "I hot {i_avg:.3} vs D hot {d_avg:.3}");
    }
}
