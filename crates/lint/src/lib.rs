//! # Determinism lint engine
//!
//! Workspace static analysis that enforces the simulator's determinism
//! invariants at CI time. Every result this reproduction produces
//! rests on one property: **fixed-seed runs are byte-identical** —
//! across repeats and observability on/off (this is how the PR-3
//! dispatcher and PR-9 obs refactors were proven safe). Runtime
//! fingerprint tests defend that property after the fact; this crate
//! rejects the bug classes at analysis time.
//!
//! ## Rule catalog
//!
//! | Rule | Tier   | What it rejects |
//! |------|--------|-----------------|
//! | R3   | deny   | float arithmetic flowing into integer time values (the PR-5 token-bucket bug class) |
//! | R4   | deny   | `_` wildcard arms in matches over the policy enums (`OpClass`/`SchedPolicy`/`OsSchedPolicy`/`QosPolicy`/`MappingKind`) |
//! | R5   | report | public `&mut self` APIs of `FlashArray`/`Controller`/`Os` with zero asserts |
//!
//! Hash containers and wall-clock reads are not rules here:
//! `clippy.toml` bans the `HashMap`/`HashSet`/`RandomState`/
//! `DefaultHasher`/`SystemTime` types and `Instant::now` across the
//! whole workspace under CI's `cargo clippy -- -D warnings`, with type
//! information this lexical engine does not have. That is the one
//! hash/clock net.
//!
//! Per-site escape: `// lint:allow(R3) <mandatory justification>` on
//! the finding's line or the line above. Malformed or unused escapes
//! are themselves findings (`allow-syntax` denies, `allow-unused`
//! reports).
//!
//! ## Scope
//!
//! The walker lints `src/` of the six simulation-path crates (`core`,
//! `flash`, `controller`, `os`, `workloads`, `experiments`). The
//! bench harness, the offline shims, and integration `tests/` are
//! host-side.
//!
//! ## Implementation note
//!
//! The engine lexes Rust itself ([`lexer`]) instead of using `syn` —
//! the build container has no crates.io access (see
//! `crates/shims/`), and the rules need token streams with line
//! numbers, not full ASTs. The passes are documented lexical
//! heuristics pinned by the fixture suite in `tests/`; swap in `syn`
//! via `Cargo.toml` if registry access appears.
//!
//! ## Usage
//!
//! ```text
//! cargo run -p lint                         # report everything
//! cargo run -p lint -- --deny-all          # CI gate: exit 1 on any deny-tier violation
//! cargo run -p lint -- --json lint.json    # machine-readable findings report
//! cargo run -p lint -- path/to/file.rs     # lint specific files
//! ```

#![forbid(unsafe_code)]

pub mod allow;
pub mod lexer;
pub mod report;
pub mod rules;

use report::{Finding, Report};
use std::path::{Path, PathBuf};

/// Simulation-path crates whose `src/` trees the workspace walk lints.
pub const SIM_CRATES: [&str; 6] = [
    "crates/core",
    "crates/flash",
    "crates/controller",
    "crates/os",
    "crates/workloads",
    "crates/experiments",
];

/// Lint a single source text. `path` is used only for reporting.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let mut findings = Vec::new();
    let mut allows = allow::parse(path, &lexed.comments, &mut findings);
    rules::r3_float_time::run(path, &lexed.toks, &mut allows, &mut findings);
    rules::r4_wildcard::run(path, &lexed.toks, &mut allows, &mut findings);
    rules::r5_debug_assert::run(path, &lexed.toks, &mut allows, &mut findings);
    allows.unused(path, &mut findings);
    findings
}

/// Lint an explicit list of files.
pub fn lint_files(files: &[PathBuf], root: &Path) -> std::io::Result<Report> {
    let mut rep = Report::default();
    let mut files = files.to_vec();
    files.sort();
    for f in &files {
        let src = std::fs::read_to_string(f)?;
        let shown = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        rep.findings.extend(lint_source(&shown, &src));
        rep.files_scanned += 1;
    }
    rep.sort();
    Ok(rep)
}

/// Lint the whole workspace rooted at `root` (the directory holding
/// the workspace `Cargo.toml`): every `.rs` under `src/` of each
/// [`SIM_CRATES`] entry.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for krate in SIM_CRATES {
        collect_rs(&root.join(krate).join("src"), &mut files)?;
    }
    lint_files(&files, root)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}
