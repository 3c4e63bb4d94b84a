//! Golden regression for the hierarchy table: `hierarchy.dat` pinned
//! byte-for-byte on the two smallest workloads, plus the experiment's
//! schedule-invariance contract — jobs=1, jobs=N, and a warm (cached)
//! rerun must all render identical bytes.
//!
//! After an *intentional* change, regenerate with:
//!
//! ```sh
//! BITLINE_BLESS=1 cargo test -p bitline-sim --test hierarchy_golden
//! ```
//!
//! One `#[test]`: `BITLINE_SUITE` and the run cache are process-global,
//! so concurrent test functions would race.

use std::path::{Path, PathBuf};

use bitline_exec::pool;
use bitline_sim::experiments::hierarchy;
use bitline_sim::{clear_run_caches, run_cache_stats};

/// Instruction budget per simulated run — small enough for CI, long
/// enough that the L2 (and L3) see real traffic.
const INSTRS: u64 = 2_000;

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("goldens")
}

#[test]
fn hierarchy_export_matches_golden_whatever_the_schedule() {
    std::env::set_var("BITLINE_SUITE", "mesa,bisort");
    let bless = std::env::var("BITLINE_BLESS").is_ok_and(|v| v == "1");

    clear_run_caches();
    let cold = hierarchy::render(&pool::with_jobs(1, || hierarchy::run(INSTRS)).expect("cold"));

    // Coverage floor: ≥2 levels × ≥3 modes × ≥3 nodes in the table.
    let data_rows: Vec<&str> = cold.lines().filter(|l| !l.starts_with('#')).collect();
    let col = |i: usize| {
        let mut vals: Vec<&str> =
            data_rows.iter().map(|r| r.split_whitespace().nth(i).unwrap()).collect();
        vals.sort_unstable();
        vals.dedup();
        vals.len()
    };
    assert!(col(1) >= 2, "golden must cover at least two level counts");
    assert!(col(2) >= 3, "golden must cover at least three leakage modes");
    assert!(col(0) >= 3, "golden must cover at least three technology nodes");

    let golden_path = goldens_dir().join("hierarchy.dat");
    if bless {
        std::fs::create_dir_all(goldens_dir()).expect("goldens dir");
        std::fs::write(&golden_path, &cold).expect("bless golden");
        eprintln!("blessed {}", golden_path.display());
    } else {
        let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\n(run with BITLINE_BLESS=1 to generate the goldens)",
                golden_path.display()
            )
        });
        assert_eq!(
            cold, want,
            "hierarchy.dat drifted from its golden — if the change is intentional, \
             regenerate with BITLINE_BLESS=1"
        );
    }

    // Warm rerun: everything is in the run cache now; the bytes must
    // replay exactly, from hits, with no recomputation.
    let before = run_cache_stats();
    let warm = hierarchy::render(&hierarchy::run(INSTRS).expect("warm"));
    let after = run_cache_stats();
    assert_eq!(warm, cold, "a warm rerun must replay the cold bytes exactly");
    assert!(after.hits > before.hits, "warm rerun must hit the run cache");
    assert_eq!(after.misses, before.misses, "warm rerun must not recompute any run");

    // jobs=N from a cold cache: the schedule must not leak into the rows.
    clear_run_caches();
    let parallel =
        hierarchy::render(&pool::with_jobs(8, || hierarchy::run(INSTRS)).expect("parallel"));
    assert_eq!(parallel, cold, "hierarchy.dat must not depend on the job count");

    std::env::remove_var("BITLINE_SUITE");
}
