//! `lint:allow` escape hatch parsing.
//!
//! Syntax, inside a `//` line comment:
//!
//! ```text
//! // lint:allow(R3) one-time quantization of a config knob, not per-event time math
//! // lint:allow(R3, R4) reporting-only label; new variants fall into "other" on purpose
//! ```
//!
//! An escape suppresses findings of the named rule(s) on the **same
//! line** and on the **line directly below** it (the comment-above
//! idiom). The justification text after the closing paren is
//! mandatory: an allow with no reason, or naming an unknown rule, is
//! itself a deny-tier finding (`allow-syntax`). Unused allows are
//! reported at the report tier so stale escapes get cleaned up.

use crate::lexer::LineComment;
use crate::report::{Finding, Rule, Tier};

/// One parsed escape.
#[derive(Debug, Clone)]
pub struct Allow {
    pub line: u32,
    pub rules: Vec<Rule>,
    pub reason: String,
    /// Set by rule passes when the escape suppresses a finding.
    pub used: bool,
}

/// All escapes in one file, plus any malformed-escape findings.
#[derive(Debug, Default)]
pub struct AllowSet {
    pub allows: Vec<Allow>,
}

const MARKER: &str = "lint:allow";

pub fn parse(path: &str, comments: &[LineComment], findings: &mut Vec<Finding>) -> AllowSet {
    let mut set = AllowSet::default();
    for c in comments {
        let Some(pos) = c.text.find(MARKER) else {
            continue;
        };
        let rest = &c.text[pos + MARKER.len()..];
        let mut bad = |msg: String| {
            findings.push(Finding {
                rule: Rule::AllowSyntax,
                tier: Tier::Deny,
                path: path.to_string(),
                line: c.line,
                message: msg,
                allowed: None,
            });
        };
        let Some(open) = rest.find('(') else {
            bad(format!("malformed escape `{}`: expected `lint:allow(RULE[, RULE]) reason`", c.text.trim()));
            continue;
        };
        if rest[..open].trim() != "" {
            bad("malformed escape: text between `lint:allow` and `(`".to_string());
            continue;
        }
        let Some(close) = rest.find(')') else {
            bad("malformed escape: missing `)`".to_string());
            continue;
        };
        let mut rules = Vec::new();
        let mut ok = true;
        for name in rest[open + 1..close].split(',') {
            let name = name.trim();
            match Rule::parse(name) {
                Some(r) if r != Rule::AllowSyntax => rules.push(r),
                _ => {
                    bad(format!("unknown rule `{name}` in lint:allow (known: R3, R4, R5)"));
                    ok = false;
                }
            }
        }
        if !ok {
            continue;
        }
        let reason = rest[close + 1..].trim().trim_start_matches([':', '-']).trim();
        if reason.is_empty() {
            bad(format!(
                "lint:allow({}) has no justification — a reason is mandatory",
                rules.iter().map(|r| r.name()).collect::<Vec<_>>().join(", ")
            ));
            continue;
        }
        if rules.is_empty() {
            bad("lint:allow() names no rules".to_string());
            continue;
        }
        set.allows.push(Allow {
            line: c.line,
            rules,
            reason: reason.to_string(),
            used: false,
        });
    }
    set
}

impl AllowSet {
    /// If `rule` at `line` is covered by an escape, mark it used and
    /// return the justification.
    pub fn cover(&mut self, rule: Rule, line: u32) -> Option<String> {
        for a in &mut self.allows {
            if (a.line == line || a.line + 1 == line) && a.rules.contains(&rule) {
                a.used = true;
                return Some(a.reason.clone());
            }
        }
        None
    }

    /// Report-tier findings for escapes that suppressed nothing.
    pub fn unused(&self, path: &str, findings: &mut Vec<Finding>) {
        for a in &self.allows {
            if !a.used {
                findings.push(Finding {
                    rule: Rule::AllowUnused,
                    tier: Tier::Report,
                    path: path.to_string(),
                    line: a.line,
                    message: format!(
                        "unused lint:allow({}) — remove the stale escape",
                        a.rules.iter().map(|r| r.name()).collect::<Vec<_>>().join(", ")
                    ),
                    allowed: None,
                });
            }
        }
    }
}
