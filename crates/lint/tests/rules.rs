//! Fixture suite pinning the lint engine's behavior.
//!
//! Each rule has a positive fixture (the bug class, in every shape the
//! rule detects — the engine must flag it) and a negative fixture (the
//! fixed form plus near-misses — the engine must stay silent). The
//! fixtures are the rules' executable specification: the lexical
//! heuristics in `src/rules/` may only change in ways that keep this
//! suite green.

use lint::lint_source;
use lint::report::{Finding, Rule, Tier};

fn findings(src: &str) -> Vec<Finding> {
    lint_source("fixture.rs", src)
}

fn violations(src: &str, rule: Rule) -> Vec<u32> {
    findings(src)
        .iter()
        .filter(|f| f.rule == rule && f.is_violation())
        .map(|f| f.line)
        .collect()
}

// ---------------------------------------------------------------- R3

#[test]
fn r3_flags_float_into_ns_in_both_shapes() {
    let lines = violations(include_str!("fixtures/r3_pos.rs"), Rule::R3);
    // Statement-level (bucket_wait) and cross-statement fn-level
    // (wake_ns) — the PR-5 bug in both shapes.
    assert_eq!(lines.len(), 2, "got {lines:?}");
}

#[test]
fn r3_silent_on_integer_fixed_point_and_reporting_casts() {
    assert_eq!(violations(include_str!("fixtures/r3_neg.rs"), Rule::R3), vec![]);
}

// ---------------------------------------------------------------- R4

#[test]
fn r4_flags_wildcard_and_catch_all_arms() {
    let lines = violations(include_str!("fixtures/r4_pos.rs"), Rule::R4);
    // `_`, a lowercase binding, and both guarded+bare `_` in `urgent`.
    assert_eq!(lines, vec![9, 17, 26, 27]);
}

#[test]
fn r4_silent_on_exhaustive_and_non_policy_matches() {
    assert_eq!(violations(include_str!("fixtures/r4_neg.rs"), Rule::R4), vec![]);
}

// ---------------------------------------------------------------- R5

#[test]
fn r5_reports_assertless_public_mutators() {
    let f = findings(include_str!("fixtures/r5_pos.rs"));
    let r5: Vec<&Finding> = f.iter().filter(|f| f.rule == Rule::R5).collect();
    assert_eq!(r5.len(), 1);
    assert_eq!(r5[0].tier, Tier::Report);
    assert!(
        !r5[0].is_violation(),
        "R5 is report-only; it must never gate --deny-all"
    );
    assert!(r5[0].message.contains("Controller::advance"));
}

#[test]
fn r5_silent_on_asserting_private_foreign_and_trait_impls() {
    let f = findings(include_str!("fixtures/r5_neg.rs"));
    assert!(f.iter().all(|f| f.rule != Rule::R5), "got {f:?}");
}

// ------------------------------------------------------- allow escapes

/// One-line R3 trigger: float + wide-int cast + an `_ns` name.
const R3_SITE: &str = "let wait_ns = (tokens / rate * 1e9).ceil() as u64;";

#[test]
fn allow_above_suppresses_and_carries_reason() {
    let src = format!(
        "// lint:allow(R3) config knob quantized once at construction\n{R3_SITE}\n"
    );
    let f = findings(&src);
    let r3: Vec<&Finding> = f.iter().filter(|f| f.rule == Rule::R3).collect();
    assert_eq!(r3.len(), 1, "finding still reported, just not a violation");
    assert!(!r3[0].is_violation());
    assert_eq!(
        r3[0].allowed.as_deref(),
        Some("config knob quantized once at construction")
    );
}

#[test]
fn allow_same_line_suppresses() {
    let src = format!("{R3_SITE} // lint:allow(R3) reporting-side rounding\n");
    let f = findings(&src);
    assert!(f.iter().any(|f| f.rule == Rule::R3 && !f.is_violation()));
    assert!(f.iter().all(|f| !f.is_violation()));
}

#[test]
fn allow_two_lines_above_does_not_reach() {
    let src = format!("// lint:allow(R3) too far away to cover the site\n\n{R3_SITE}\n");
    let f = findings(&src);
    assert!(
        f.iter().any(|f| f.rule == Rule::R3 && f.is_violation()),
        "an allow two lines up must not suppress"
    );
    assert!(
        f.iter().any(|f| f.rule == Rule::AllowUnused),
        "and the stale escape is reported unused"
    );
}

#[test]
fn allow_multi_rule_lists_cover_each_named_rule() {
    let src = "\
// lint:allow(R3, R4) reporting-only estimate; other classes cost nothing
match c { OpClass::AppRead => (gap_s * 1e9).ceil() as u64, _ => 0 }
";
    let f = findings(src);
    assert!(f.iter().any(|f| f.rule == Rule::R3));
    assert!(f.iter().any(|f| f.rule == Rule::R4));
    assert!(
        f.iter()
            .filter(|f| f.line == 2)
            .all(|f| !f.is_violation()),
        "both rules on the covered line are suppressed: {f:?}"
    );
}

#[test]
fn allow_without_reason_is_a_deny_finding() {
    let src = format!("// lint:allow(R3)\n{R3_SITE}\n");
    let f = findings(&src);
    assert!(
        f.iter()
            .any(|f| f.rule == Rule::AllowSyntax && f.is_violation()),
        "a reasonless escape must itself be a violation: {f:?}"
    );
    // And it must NOT suppress the R3 underneath.
    assert!(f.iter().any(|f| f.rule == Rule::R3 && f.is_violation()));
}

#[test]
fn allow_unknown_rule_is_a_deny_finding() {
    let src = "// lint:allow(R9) not a rule\n";
    let f = findings(src);
    assert!(f
        .iter()
        .any(|f| f.rule == Rule::AllowSyntax && f.is_violation()));
}

/// The hash-iteration and wall-clock rules are gone (`clippy.toml` is
/// the one net for both): the catalog is R3–R5 plus the two escape
/// pseudo-rules, and an escape naming R1 or R2 is as malformed as one
/// naming R9 — it cannot silently "allow" what nothing checks.
#[test]
fn catalog_is_r3_to_r5_and_retired_rules_are_unknown() {
    let names: Vec<&str> = Rule::ALL.iter().map(|r| r.name()).collect();
    assert_eq!(names, ["R3", "R4", "R5", "allow-syntax", "allow-unused"]);
    for retired in ["R1", "R2"] {
        assert_eq!(Rule::parse(retired), None);
        let src = format!("// lint:allow({retired}) host timing is the product here\nlet t = Instant::now();\n");
        let f = findings(&src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::AllowSyntax);
        assert!(f[0].is_violation());
        assert!(f[0].message.contains(retired), "{}", f[0].message);
    }
}

#[test]
fn unused_allow_is_reported() {
    let src = "// lint:allow(R3) nothing here needs this\nlet x = 1 + 2;\n";
    let f = findings(src);
    let unused: Vec<&Finding> = f.iter().filter(|f| f.rule == Rule::AllowUnused).collect();
    assert_eq!(unused.len(), 1);
    assert_eq!(unused[0].tier, Tier::Report);
}

// ------------------------------------------------------------- report

#[test]
fn json_report_is_well_formed_and_counts_violations() {
    let mut rep = lint::report::Report {
        files_scanned: 1,
        findings: findings(include_str!("fixtures/r4_pos.rs")),
    };
    rep.sort();
    let json = rep.to_json();
    assert!(json.contains("\"violations\": 4"));
    assert!(json.contains("\"rule\": \"R4\""));
    assert!(json.contains("\"tier\": \"deny\""));
    // Messages contain backquotes and slashes; the escaper must keep
    // the output loadable by any JSON parser (no raw control chars).
    assert!(!json.chars().any(|c| (c as u32) < 0x20 && c != '\n'));
}

// --------------------------------------------- workspace regression gate

/// The self-check the CI job runs: the six simulation crates must lint
/// clean. Any new float→ns flow or policy-enum wildcard anywhere in
/// `src/` turns this test red — before the nondeterminism it would
/// cause can reach a fingerprint test.
#[test]
fn workspace_is_violation_free() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let rep = lint::lint_workspace(&root).expect("workspace sources readable");
    assert!(rep.files_scanned > 30, "walker found the sim crates");
    let bad: Vec<String> = rep
        .findings
        .iter()
        .filter(|f| f.is_violation())
        .map(|f| format!("{}:{} [{}] {}", f.path, f.line, f.rule.name(), f.message))
        .collect();
    assert!(bad.is_empty(), "determinism violations:\n{}", bad.join("\n"));
}
