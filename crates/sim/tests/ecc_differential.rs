//! Differential guarantee of the ECC layer: arming SECDED (`--ecc`, here
//! via `BITLINE_ECC`) with a zero upset rate changes **nothing** — every
//! golden figure stays byte-identical to the unprotected goldens.
//!
//! This pins the layering invariant the energy and fault models promise:
//! with no faults to inject the decorator is never armed, no ECC energy
//! is priced, and no cycle moves. Everything lives in one `#[test]`
//! because the suite restriction and the ECC opt-in ride on process-global
//! env vars and the run cache is process-wide.

use std::path::{Path, PathBuf};

use bitline_sim::clear_run_caches;
use bitline_sim::experiments::{fig10, fig3, fig8, fig9};
use bitline_sim::{FaultSpec, SystemSpec};

/// Same budget as the golden suite — the goldens were rendered at this.
const INSTRS: u64 = 2_000;

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("goldens")
}

fn check_against_golden(name: &str, got: &str) {
    let golden_path = goldens_dir().join(format!("{name}.dat"));
    let want = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{}: {e} (golden missing?)", golden_path.display()));
    assert_eq!(
        got, want,
        "{name}.dat changed under BITLINE_ECC=1 with a zero upset rate — \
         the ECC layer must be inert when no faults are injected"
    );
}

#[test]
fn ecc_with_zero_upset_rate_leaves_every_golden_figure_byte_identical() {
    std::env::set_var("BITLINE_SUITE", "mesa,bisort");
    std::env::set_var("BITLINE_ECC", "1");
    std::env::set_var("BITLINE_SCRUB_PERIOD", "4096");
    clear_run_caches();

    // The env opt-in must actually have reached the default spec.
    let spec = SystemSpec::default();
    assert!(spec.faults.ecc, "BITLINE_ECC=1 arms the default FaultSpec");
    assert_eq!(spec.faults.scrub_period, Some(4_096));
    assert_eq!(spec.faults.rate, 0.0, "no upset rate was requested");
    assert!(!FaultSpec::default().enabled(), "rate 0 leaves injection off");

    let (fig3_rows, _avg) = fig3::run(INSTRS).expect("fig3 completes");
    check_against_golden("fig3", &fig3::render(&fig3_rows));

    let (fig8_rows, _summary) = fig8::run(INSTRS).expect("fig8 completes");
    check_against_golden("fig8", &fig8::render(&fig8_rows));

    let fig9_rows = fig9::run(INSTRS).expect("fig9 completes");
    check_against_golden("fig9", &fig9::render(&fig9_rows));

    let fig10_rows = fig10::run(INSTRS).expect("fig10 completes");
    check_against_golden("fig10", &fig10::render(&fig10_rows));

    std::env::remove_var("BITLINE_SCRUB_PERIOD");
    std::env::remove_var("BITLINE_ECC");
    std::env::remove_var("BITLINE_SUITE");
}
