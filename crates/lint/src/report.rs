//! Finding model, human-readable rendering, and the machine-readable
//! JSON report (hand-rolled serialization — the workspace has no serde;
//! same approach as the bench harness's `--json`).

use std::fmt::Write as _;

/// Rule identifiers. `R3..R5` are the determinism rule set (the
/// numbering is historical: R1/R2, the hash-iteration and wall-clock
/// rules, are `clippy.toml`'s job); the two `Allow*` pseudo-rules
/// police the escape hatch itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Floating-point arithmetic flowing into nanosecond/timestamp
    /// integers (the PR-5 token-bucket bug class).
    R3,
    /// `_` wildcard (or lowercase catch-all binding) arm in a `match`
    /// over a policy enum (`OpClass`/`SchedPolicy`/`QosPolicy`/
    /// `MappingKind`/`OsSchedPolicy`).
    R4,
    /// `debug_assert!` density audit on public mutating APIs of
    /// `FlashArray`/`Controller`/`Os` (report-only).
    R5,
    /// Malformed `lint:allow` escape.
    AllowSyntax,
    /// `lint:allow` escape that suppressed nothing.
    AllowUnused,
}

impl Rule {
    pub fn name(self) -> &'static str {
        match self {
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
            Rule::AllowSyntax => "allow-syntax",
            Rule::AllowUnused => "allow-unused",
        }
    }

    pub fn parse(s: &str) -> Option<Rule> {
        match s {
            "R3" => Some(Rule::R3),
            "R4" => Some(Rule::R4),
            "R5" => Some(Rule::R5),
            _ => None,
        }
    }

    pub const ALL: [Rule; 5] = [
        Rule::R3,
        Rule::R4,
        Rule::R5,
        Rule::AllowSyntax,
        Rule::AllowUnused,
    ];
}

/// Whether a finding gates `--deny-all` or is informational.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    Deny,
    Report,
}

#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: Rule,
    pub tier: Tier,
    pub path: String,
    pub line: u32,
    pub message: String,
    /// `Some(reason)` when a `lint:allow` escape covers this site; the
    /// finding is then informational regardless of tier.
    pub allowed: Option<String>,
}

impl Finding {
    /// A violation is what `--deny-all` exits non-zero on.
    pub fn is_violation(&self) -> bool {
        self.tier == Tier::Deny && self.allowed.is_none()
    }
}

/// Whole-run output.
#[derive(Debug, Default)]
pub struct Report {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
}

impl Report {
    pub fn violations(&self) -> usize {
        self.findings.iter().filter(|f| f.is_violation()).count()
    }

    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    }

    /// Human-readable listing, grouped like compiler diagnostics.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            let status = match (&f.allowed, f.tier) {
                (Some(reason), _) => format!("allowed: {reason}"),
                (None, Tier::Report) => "report-only".to_string(),
                (None, Tier::Deny) => "deny".to_string(),
            };
            let _ = writeln!(
                s,
                "{}:{}: [{}] {} ({})",
                f.path,
                f.line,
                f.rule.name(),
                f.message,
                status
            );
        }
        let mut per_rule = String::new();
        for r in Rule::ALL {
            let n = self.findings.iter().filter(|f| f.rule == r).count();
            if n > 0 {
                let _ = write!(per_rule, " {}={}", r.name(), n);
            }
        }
        let _ = writeln!(
            s,
            "lint: {} file(s) scanned, {} finding(s){}, {} violation(s)",
            self.files_scanned,
            self.findings.len(),
            per_rule,
            self.violations()
        );
        s
    }

    /// Machine-readable report for the CI artifact.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"violations\": {},", self.violations());
        s.push_str("  \"per_rule\": {");
        let mut first = true;
        for r in Rule::ALL {
            let n = self.findings.iter().filter(|f| f.rule == r).count();
            if !first {
                s.push_str(", ");
            }
            first = false;
            let _ = write!(s, "\"{}\": {}", r.name(), n);
        }
        s.push_str("},\n");
        s.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"rule\": \"{}\", \"tier\": \"{}\", \"path\": {}, \"line\": {}, \"message\": {}, \"allowed\": {}}}",
                f.rule.name(),
                match f.tier {
                    Tier::Deny => "deny",
                    Tier::Report => "report",
                },
                json_str(&f.path),
                f.line,
                json_str(&f.message),
                match &f.allowed {
                    Some(r) => json_str(r),
                    None => "null".to_string(),
                }
            );
            s.push_str(if i + 1 < self.findings.len() { ",\n" } else { "\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn json_str(v: &str) -> String {
    let mut s = String::with_capacity(v.len() + 2);
    s.push('"');
    for c in v.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            '\r' => s.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}
