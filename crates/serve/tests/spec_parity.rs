//! The two front doors build identical specs from the one field table.
//!
//! Every `SPEC_FIELDS` row is set once through `bitline-sim`'s argument
//! parser and once through a `bitline-serve` request; the two specs, and
//! their journal keys, must be equal.

use bitline_serve::{parse_request, Request};
use bitline_sim::checkpoint::spec_key;
use bitline_sim::{parse_cli, spec_help, SystemSpec, SPEC_FIELDS};

/// One representative non-default value per field: `(key, CLI text, JSON)`.
/// A switch has no CLI text; its JSON is `true`.
const CASES: [(&str, Option<&str>, &str); 16] = [
    ("d_policy", Some("drowsy:50"), r#""drowsy:50""#),
    ("i_policy", Some("oracle"), r#""oracle""#),
    ("subarray_bytes", Some("256"), "256"),
    ("instructions", Some("12345"), "12345"),
    ("seed", Some("7"), "7"),
    ("way_prediction", None, "true"),
    ("fault_rate", Some("0.001"), "0.001"),
    ("fault_seed", Some("99"), "99"),
    ("fail_safe", None, "true"),
    ("ecc", None, "true"),
    ("scrub_period", Some("20000"), "20000"),
    ("levels", Some("3"), "3"),
    ("l2_policy", Some("gated:64"), r#""gated:64""#),
    ("leakage_mode", Some("drowsy"), r#""drowsy""#),
    ("vdd", Some("0.85"), "0.85"),
    ("vdd_governor", None, "true"),
];

fn cli(args: &[&str]) -> Result<SystemSpec, String> {
    parse_cli(args.iter().map(|a| (*a).to_owned()), |flag, _| {
        Err(format!("not a spec flag: {flag}"))
    })
}

fn serve(spec_body: &str) -> Result<SystemSpec, String> {
    let line = format!(r#"{{"id":"p","benchmark":"gcc","spec":{{{spec_body}}}}}"#);
    match parse_request(&line) {
        Ok(Request::Run(run)) => Ok(run.spec),
        Ok(other) => panic!("expected a run request, got {other:?}"),
        Err(e) => Err(e.message),
    }
}

fn flag(key: &str) -> &'static str {
    SPEC_FIELDS.iter().find(|f| f.key == key).expect("a table key").flag
}

fn assert_same(cli_spec: &SystemSpec, serve_spec: &SystemSpec, what: &str) {
    assert_eq!(cli_spec, serve_spec, "{what}: CLI and serve specs differ");
    assert_eq!(spec_key("gcc", cli_spec), spec_key("gcc", serve_spec), "{what}: keys differ");
}

#[test]
fn every_field_builds_the_same_spec_at_both_doors() {
    let keys: Vec<&str> = SPEC_FIELDS.iter().map(|f| f.key).collect();
    let cased: Vec<&str> = CASES.iter().map(|(key, _, _)| *key).collect();
    assert_eq!(cased, keys, "one case per table row, in table order");

    let front_door = SystemSpec::front_door();
    assert_same(&cli(&[]).unwrap(), &serve("").unwrap(), "no fields");
    assert_eq!(cli(&[]).unwrap(), front_door);

    for (key, text, json) in CASES {
        let mut args = vec![flag(key)];
        args.extend(text);
        let by_cli = cli(&args).unwrap_or_else(|e| panic!("{key}: CLI refused {args:?}: {e}"));
        let by_serve =
            serve(&format!(r#""{key}":{json}"#)).unwrap_or_else(|e| panic!("{key}: serve: {e}"));
        assert_same(&by_cli, &by_serve, key);
        assert_ne!(by_cli, front_door, "{key}: the case must move the spec");
    }

    // All fields at once, too: the scrub period needs ECC to validate.
    let args: Vec<&str> =
        CASES.iter().flat_map(|(key, text, _)| std::iter::once(flag(key)).chain(*text)).collect();
    let body: Vec<String> =
        CASES.iter().map(|(key, _, json)| format!(r#""{key}":{json}"#)).collect();
    let by_cli = cli(&args).unwrap();
    assert_same(&by_cli, &serve(&body.join(",")).unwrap(), "all fields");
    assert!(by_cli.validate().is_ok(), "{by_cli:?}");
}

#[test]
fn aliases_parse_like_their_long_flags() {
    for field in SPEC_FIELDS.iter().filter(|f| f.alias.is_some()) {
        let (_, text, _) = CASES.iter().find(|(key, _, _)| *key == field.key).unwrap();
        let mut long = vec![field.flag];
        long.extend(text);
        let mut short = vec![field.alias.unwrap()];
        short.extend(text);
        assert_eq!(cli(&long), cli(&short), "{}", field.flag);
    }
}

#[test]
fn an_explicit_icache_policy_wins_in_any_order() {
    let before = cli(&["--icache-policy", "oracle", "--policy", "gated:5"]).unwrap();
    let after = cli(&["--policy", "gated:5", "--icache-policy", "oracle"]).unwrap();
    assert_eq!(before, after);
    assert_eq!(before.i_policy, bitline_sim::PolicyKind::Oracle);
    assert_eq!(before.d_policy, bitline_sim::PolicyKind::Gated { threshold: 5 });
    assert_same(&before, &serve(r#""i_policy":"oracle","d_policy":"gated:5""#).unwrap(), "i first");
}

#[test]
fn both_doors_refuse_the_same_values() {
    for (key, text, json) in [
        ("fault_rate", "1.5", "1.5"),
        ("fault_rate", "-0.1", "-0.1"),
        ("vdd", "inf", "1e999"),
        ("vdd", "nan", "-1e999"),
        ("scrub_period", "0", "0"),
        ("levels", "900", "900"),
        ("seed", "-1", "-1"),
        ("d_policy", "warp", r#""warp""#),
        ("leakage_mode", "antigravity", r#""antigravity""#),
    ] {
        let by_cli = cli(&[flag(key), text]).expect_err(&format!("CLI {key}={text}"));
        let by_serve = serve(&format!(r#""{key}":{json}"#)).expect_err(&format!("serve {key}"));
        assert!(by_cli.contains(flag(key)), "{by_cli}");
        assert!(by_serve.contains(key), "{by_serve}");
    }
    let e = serve(r#""bogus":1"#).unwrap_err();
    assert!(e.contains("unexpected key `bogus`"), "{e}");
    assert!(cli(&["--bogus"]).unwrap_err().contains("--bogus"));
}

#[test]
fn help_lists_every_field() {
    let help = spec_help();
    for field in &SPEC_FIELDS {
        assert!(help.contains(field.flag), "--help omits {}", field.flag);
        assert!(help.contains(&format!("[{}]", field.key)), "--help omits key {}", field.key);
        for name in field.alias.iter().chain(field.env.iter()) {
            assert!(help.contains(name), "--help omits {name}");
        }
    }
    for policy in bitline_sim::POLICY_GRAMMAR.split(" | ") {
        assert!(help.contains(policy), "--help omits policy {policy}");
    }
}
