//! Golden-figure regression suite: the rendered rows of fig3, fig8, fig9,
//! fig10 and the on-demand table, pinned byte-for-byte on the two
//! smallest workloads (`mesa`, `bisort`, both ~192 KB footprints), plus
//! the paper's shape claims that hold on that reduced suite, so a
//! re-bless cannot silently flip them.
//!
//! Every run is seeded and deterministic, so the exported bytes are a
//! pure function of (suite restriction, instruction count) — any drift is
//! a behaviour change somewhere in the model stack, caught here before it
//! silently skews a figure. After an *intentional* change, regenerate the
//! goldens with:
//!
//! ```sh
//! BITLINE_BLESS=1 cargo test -p bitline-sim --test golden_figures
//! ```
//!
//! Everything lives in one `#[test]`: the suite restriction rides on the
//! process-global `BITLINE_SUITE` env var and the run cache is
//! process-wide, so concurrent test functions would race.

use std::path::{Path, PathBuf};

use bitline_sim::clear_run_caches;
use bitline_sim::experiments::{fig10, fig3, fig8, fig9, ondemand};

/// Instruction budget per simulated run — small enough for CI, long
/// enough that every policy sees real cache behaviour.
const INSTRS: u64 = 2_000;

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("goldens")
}

fn check(name: &str, got: &str, bless: bool) {
    let golden_path = goldens_dir().join(format!("{name}.dat"));
    if bless {
        std::fs::create_dir_all(goldens_dir()).expect("goldens dir");
        std::fs::write(&golden_path, got).expect("bless golden");
        eprintln!("blessed {}", golden_path.display());
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!("{}: {e}\n(run with BITLINE_BLESS=1 to generate the goldens)", golden_path.display())
    });
    assert_eq!(
        got, want,
        "{name}.dat drifted from its golden — if the change is intentional, \
         regenerate with BITLINE_BLESS=1"
    );
}

#[test]
fn figure_exports_match_the_checked_in_goldens() {
    std::env::set_var("BITLINE_SUITE", "mesa,bisort");
    let bless = std::env::var("BITLINE_BLESS").is_ok_and(|v| v == "1");
    clear_run_caches();

    let (fig3_rows, _avg) = fig3::run(INSTRS).expect("fig3 completes");
    check("fig3", &fig3::render(&fig3_rows), bless);

    let (fig8_rows, _summary) = fig8::run(INSTRS).expect("fig8 completes");
    check("fig8", &fig8::render(&fig8_rows), bless);

    let fig9_rows = fig9::run(INSTRS).expect("fig9 completes");
    check("fig9", &fig9::render(&fig9_rows), bless);
    // Fig 9: the isolation overhead makes gated precharging lose outright
    // at 180 nm, and at 70 nm it beats the resizable cache.
    let at = |nm: u32| fig9_rows.iter().find(|r| r.node.feature_nm() == nm).expect("node row");
    assert!(at(180).gated_d > 1.0, "fig9: gated D at 180nm = {}", at(180).gated_d);
    assert!(
        at(70).gated_d < at(70).resizable_d,
        "fig9: at 70nm gated D {} must beat resizable D {}",
        at(70).gated_d,
        at(70).resizable_d
    );

    let fig10_rows = fig10::run(INSTRS).expect("fig10 completes");
    check("fig10", &fig10::render(&fig10_rows), bless);
    // Fig 10: smaller subarrays keep fewer of them precharged, down to 256 B.
    let d_at = |bytes: usize| {
        fig10_rows.iter().find(|r| r.subarray_bytes == bytes).expect("size row").d_precharged
    };
    assert!(
        d_at(4096) > d_at(1024) && d_at(1024) > d_at(256),
        "fig10: D precharged must fall 4096 -> 1024 -> 256 B: {} {} {}",
        d_at(4096),
        d_at(1024),
        d_at(256)
    );

    let (ondemand_rows, _avg) = ondemand::run(INSTRS).expect("ondemand completes");
    check("ondemand", &ondemand::render(&ondemand_rows), bless);

    // A warm rerun (everything above is now in the run cache) must render
    // byte-identical output — cache hits replay, never approximate.
    let (warm_rows, _avg) = fig3::run(INSTRS).expect("warm fig3 completes");
    // Never bless from the warm leg: it must match what the cold leg just
    // wrote (or the checked-in golden), even under BITLINE_BLESS=1.
    check("fig3", &fig3::render(&warm_rows), false);

    std::env::remove_var("BITLINE_SUITE");
}
