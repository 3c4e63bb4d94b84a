//! Malformed spec environment variables fail fast at startup.
//!
//! The environment is process-global, so this file holds a single test
//! that sets and clears each variable in turn.

use bitline_sim::{init_supervision_from_env, SystemSpec};

fn startup_error_with(var: &str, value: &str) -> Option<String> {
    std::env::set_var(var, value);
    let outcome = init_supervision_from_env();
    std::env::remove_var(var);
    outcome.err()
}

#[test]
fn malformed_spec_variables_are_named_at_startup() {
    for (var, value) in [
        ("BITLINE_INSTRS", "4k"),
        ("BITLINE_INSTRS", "-1"),
        ("BITLINE_SCRUB_PERIOD", "0"),
        ("BITLINE_SCRUB_PERIOD", "often"),
        ("BITLINE_VDD", "0,85"),
        ("BITLINE_VDD", "nan"),
    ] {
        let err = startup_error_with(var, value)
            .unwrap_or_else(|| panic!("{var}={value} must be refused at startup"));
        assert!(err.contains(var), "{var}={value}: the error must name the variable: {err}");
    }

    // Well-formed values pass and become the process's spec defaults,
    // parsed by the same table the flags use.
    std::env::set_var("BITLINE_INSTRS", "4000");
    std::env::set_var("BITLINE_VDD", "0.85");
    assert_eq!(init_supervision_from_env(), Ok(()));
    let spec = SystemSpec::default();
    assert_eq!(spec.instructions, 4000);
    assert_eq!(spec.vdd.scale.to_bits(), 0.85f64.to_bits());
    assert_eq!(bitline_sim::default_instructions(), 4000);
    assert_eq!(SystemSpec::front_door().instructions, 4000);
    std::env::remove_var("BITLINE_INSTRS");
    std::env::remove_var("BITLINE_VDD");

    // A malformed value never reaches a spec: the default stands.
    std::env::set_var("BITLINE_INSTRS", "4k");
    assert_eq!(SystemSpec::default().instructions, 150_000);
    std::env::remove_var("BITLINE_INSTRS");
    assert_eq!(init_supervision_from_env(), Ok(()));
}
