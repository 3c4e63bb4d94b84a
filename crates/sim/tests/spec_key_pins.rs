//! Pins `checkpoint::spec_key` to literal values.
//!
//! The journal keys every finished run by this string, so a change to the
//! canonical spec encoding would silently orphan every existing journal.
//! The other key tests only compare keys computed by the current code with
//! each other; these literals were computed before the field table existed
//! and must never move.

use bitline_sim::checkpoint::spec_key;
use bitline_sim::{FaultSpec, HierarchySpec, LeakageKind, PolicyKind, SystemSpec, VddSpec};

/// The shared base: 150k instructions, seed 42, 1 KB subarrays, no way
/// prediction, faults off at the stock fault seed, the inert hierarchy and
/// the nominal supply.
fn base(d_policy: PolicyKind, i_policy: PolicyKind) -> SystemSpec {
    SystemSpec {
        d_policy,
        i_policy,
        subarray_bytes: 1024,
        instructions: 150_000,
        seed: 42,
        way_prediction: false,
        faults: FaultSpec {
            rate: 0.0,
            seed: 0xB17F_A017,
            fail_safe: false,
            ecc: false,
            scrub_period: None,
        },
        hierarchy: HierarchySpec {
            levels: 1,
            l2_policy: PolicyKind::StaticPullUp,
            leakage_mode: LeakageKind::FullVdd,
        },
        vdd: VddSpec::nominal(),
    }
}

fn gp() -> SystemSpec {
    base(PolicyKind::GatedPredecode { threshold: 100 }, PolicyKind::Gated { threshold: 100 })
}

fn hier() -> SystemSpec {
    SystemSpec {
        hierarchy: HierarchySpec {
            levels: 3,
            l2_policy: PolicyKind::Gated { threshold: 100 },
            leakage_mode: LeakageKind::Drowsy,
        },
        ..gp()
    }
}

const GOVERNED: VddSpec = VddSpec { scale: 0.85, governor: true };

#[test]
fn static_spec_key_is_pinned() {
    let spec = base(PolicyKind::StaticPullUp, PolicyKind::StaticPullUp);
    assert_eq!(spec_key("gcc", &spec), "gcc@52a6c675132dab17");
}

#[test]
fn gated_predecode_spec_key_is_pinned() {
    assert_eq!(spec_key("gcc", &gp()), "gcc@f0a33c41351767ce");
}

#[test]
fn hierarchy_spec_key_is_pinned() {
    assert_eq!(spec_key("gcc", &hier()), "gcc@4cef507f7c68d4bb");
}

#[test]
fn governed_vdd_spec_key_is_pinned() {
    let spec = SystemSpec { vdd: GOVERNED, ..gp() };
    assert_eq!(spec_key("gcc", &spec), "gcc@42d2099ea0bbd368");
}

#[test]
fn fully_armed_spec_key_is_pinned() {
    let spec = SystemSpec {
        faults: FaultSpec {
            rate: 0.001,
            seed: 7,
            fail_safe: true,
            ecc: true,
            scrub_period: Some(20_000),
        },
        vdd: GOVERNED,
        ..hier()
    };
    assert_eq!(spec_key("gcc", &spec), "gcc@fa1827a64ebe3616");
}
