//! The design rules of the workspace, checked over the source tree.
//!
//! Every rule is a block of `.github/ratchets.txt`, whose header describes
//! the format; this runner holds no pattern of its own, so no rule matches
//! it. Each rule must hold on the tree, and each rule's `seed` line, added
//! to a file the rule covers, must break that rule and no other.

use std::fs;
use std::path::Path;

const TABLE: &str = ".github/ratchets.txt";

/// (repo-relative path, text) pairs in path order, or (path, hit) pairs.
type Files = Vec<(String, String)>;

#[derive(Clone, Debug, Default)]
struct Rule {
    name: String,
    line: usize,
    /// `forbid`, `exactly`, `at-most`, `only-in` or `examples-exist`.
    kind: String,
    count: usize,
    pattern: String,
    paths: Vec<String>,
    /// `(*.rs)`, `(text)` or `(any)`.
    filter: String,
    except: Vec<String>,
    cut_tail: bool,
    fold: bool,
    unless: String,
    seed: String,
    why: String,
}

fn words(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

fn repo() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn table() -> Vec<Rule> {
    let text = fs::read_to_string(repo().join(TABLE)).expect("the rule table");
    parse(&text).unwrap_or_else(|e| panic!("{e}"))
}

/// The rules of `text`; `Err` names the table line of the first malformed
/// block.
fn parse(text: &str) -> Result<Vec<Rule>, String> {
    let mut rules: Vec<Rule> = Vec::new();
    for (n, raw) in (1..).zip(text.lines()) {
        if raw.trim().is_empty() || raw.starts_with('#') {
            continue;
        }
        if let Some(name) = raw.strip_prefix("rule ") {
            rules.push(Rule { name: name.trim().to_string(), line: n, ..Rule::default() });
            continue;
        }
        let bad = |what: String| format!("{TABLE}:{n}: {what}");
        let Some(rule) = rules.last_mut().filter(|_| raw.starts_with(' ')) else {
            return Err(bad(format!("`{raw}` is no comment, `rule` line or indented field")));
        };
        let (key, value) = raw.trim().split_once(' ').unwrap_or((raw.trim(), ""));
        let value = value.trim();
        match (key, value) {
            ("forbid" | "only-in" | "examples-exist" | "exactly" | "at-most", _) => {
                let (count, pattern) = match key {
                    "exactly" | "at-most" => value.split_once(' ').unwrap_or((value, "")),
                    _ => ("0", value),
                };
                rule.count = count.parse().map_err(|_| bad(format!("`{count}` is no count")))?;
                if !rule.kind.is_empty() || pattern.trim().is_empty() {
                    return Err(bad(format!("rule {}: one kind line, with a pattern", rule.name)));
                }
                (rule.kind, rule.pattern) = (key.to_string(), pattern.trim().to_string());
            }
            ("in", _) => {
                let (paths, filter) = value.rsplit_once(' ').unwrap_or(("", value));
                if !matches!(filter, "(*.rs)" | "(text)" | "(any)") {
                    return Err(bad(format!("unknown file filter `{filter}`")));
                }
                (rule.paths, rule.filter) = (words(paths), filter.to_string());
            }
            ("except", _) => rule.except = words(value),
            ("test-tail", "cut") => rule.cut_tail = true,
            ("fold", "") => rule.fold = true,
            ("unless", _) => rule.unless = value.to_string(),
            ("seed", _) => rule.seed = value.to_string(),
            ("why", _) => rule.why = value.to_string(),
            _ => return Err(bad(format!("unknown field `{}` in rule {}", raw.trim(), rule.name))),
        }
    }
    for r in &rules {
        let fields = [("kind", &r.kind), ("seed", &r.seed), ("why", &r.why)];
        let missing = fields.iter().find(|(_, value)| value.is_empty()).map(|&(field, _)| field);
        if let Some(field) = missing.or(r.paths.is_empty().then_some("in")) {
            return Err(format!("{TABLE}:{}: rule {} has no `{field}` line", r.line, r.name));
        }
    }
    Ok(rules)
}

/// The files a rule covers; `Err` names a listed path that yields no file.
fn scope(rule: &Rule, root: &Path) -> Result<Files, String> {
    let mut files = Vec::new();
    for path in &rule.paths {
        if walk(root, path, &rule.filter, &mut files) == 0 {
            return Err(format!("[{}] `{path}` matches no file", rule.name));
        }
    }
    match rule.except.iter().find(|path| !root.join(path).is_file()) {
        Some(path) => Err(format!("[{}] `{path}` in `except` is no file", rule.name)),
        None => Ok(files),
    }
}

/// Adds the files under `rel` that pass `filter` to `out`, in path order;
/// returns how many.
fn walk(root: &Path, rel: &str, filter: &str, out: &mut Files) -> usize {
    let abs = root.join(rel);
    if let Ok(entries) = fs::read_dir(&abs) {
        let mut names: Vec<_> =
            entries.map(|e| e.unwrap().file_name().into_string().unwrap()).collect();
        names.sort();
        return names.iter().map(|name| walk(root, &format!("{rel}/{name}"), filter, out)).sum();
    }
    let Ok(bytes) = fs::read(&abs) else { return 0 };
    let keep = match filter {
        "(*.rs)" => rel.ends_with(".rs"),
        "(text)" => !bytes.contains(&0),
        _ => true,
    };
    if keep {
        out.push((rel.to_string(), String::from_utf8_lossy(&bytes).into_owned()));
    }
    usize::from(keep)
}

/// `alternative` with each `\d` spelled as every ASCII digit.
fn digits(alternative: &str) -> Vec<String> {
    let Some((head, tail)) = alternative.split_once("\\d") else {
        return vec![alternative.to_string()];
    };
    let spell = |d| digits(tail).into_iter().map(move |rest| format!("{head}{d}{rest}"));
    ('0'..='9').flat_map(spell).collect()
}

/// Whether `line` holds the `.*`-separated pieces of `alternative` in
/// order; a leading `^` puts the first piece right after the indentation.
fn alternative_matches(alternative: &str, line: &str) -> bool {
    let anchored = alternative.strip_prefix('^');
    let mut rest = if anchored.is_some() { line.trim_start_matches(' ') } else { line };
    for (k, piece) in anchored.unwrap_or(alternative).split(".*").enumerate() {
        match rest.find(piece) {
            Some(at) if at == 0 || anchored.is_none() || k > 0 => rest = &rest[at + piece.len()..],
            _ => return false,
        }
    }
    true
}

/// The lines of `files` that `rule` finds, as (path, `path:line: what`).
fn hits(rule: &Rule, files: &[(String, String)], root: &Path) -> Files {
    let alternatives: Vec<String> = rule.pattern.split(" | ").flat_map(digits).collect();
    let matches = |line: &str| {
        let hay = if rule.fold { line.to_lowercase() } else { line.to_string() };
        let unless = !rule.unless.is_empty() && line.contains(&rule.unless);
        !unless && alternatives.iter().any(|alt| alternative_matches(alt, &hay))
    };
    let missing_example = |line: &str| {
        line.match_indices(&rule.pattern).find_map(|(at, _)| {
            let rest = line[at + rule.pattern.len()..].strip_prefix(' ')?;
            let end = rest.find(|c: char| !c.is_ascii_alphanumeric() && c != '_');
            let name = &rest[..end.unwrap_or(rest.len())];
            let gone = !name.is_empty() && !root.join(format!("examples/{name}.rs")).is_file();
            gone.then(|| format!("names a missing example `{name}`"))
        })
    };
    let mut hits = Vec::new();
    for (path, text) in files {
        let tail = |line: &&str| rule.cut_tail && line.starts_with("#[cfg(test)]");
        for (n, line) in (1..).zip(text.lines().take_while(|line| !tail(line))) {
            let hit = match rule.kind.as_str() {
                "examples-exist" => missing_example(line),
                _ => matches(line).then(|| format!("`{}`", line.trim())),
            };
            if let Some(what) = hit {
                hits.push((path.clone(), format!("{path}:{n}: {what}")));
            }
        }
    }
    hits
}

/// Every way `hits` break `rule`, one message each, naming the rule and
/// the file:line.
fn verdict(rule: &Rule, hits: &[(String, String)]) -> Vec<String> {
    let say = |what: &str| format!("[{}] {what} — {}", rule.name, rule.why);
    let outside: Vec<&String> =
        hits.iter().filter(|(path, _)| !rule.except.contains(path)).map(|(_, at)| at).collect();
    // `forbid`, `only-in` and `examples-exist` allow 0 lines and name each.
    let (kind, found) = (&rule.kind, outside.len());
    let ok = if kind == "exactly" { found == rule.count } else { found <= rule.count };
    let mut broken: Vec<String> = match (ok, rule.count) {
        (true, _) => Vec::new(),
        (false, 0) => outside.iter().map(|at| say(at)).collect(),
        (false, n) => vec![say(&format!("{found} lines match, want {kind} {n}: {outside:?}"))],
    };
    if kind == "only-in" {
        let lost = rule.except.iter().filter(|e| !hits.iter().any(|(path, _)| path == *e));
        broken.extend(lost.map(|e| say(&format!("{e}: holds no match"))));
    }
    broken
}

/// Every rule of the table, the files it covers, and what it finds there.
fn survey() -> Vec<(Rule, Files, Files)> {
    let cover = |rule: Rule| {
        let files = scope(&rule, repo()).unwrap_or_else(|e| panic!("{e}"));
        let found = hits(&rule, &files, repo());
        (rule, files, found)
    };
    table().into_iter().map(cover).collect()
}

#[test]
fn the_tree_keeps_every_rule() {
    let survey = survey();
    let broken: Vec<_> = survey.iter().flat_map(|(rule, _, hits)| verdict(rule, hits)).collect();
    assert!(broken.is_empty(), "{} design rule violation(s):\n{}", broken.len(), broken.join("\n"));
}

/// The rules' own mutation check: each `seed`, prepended to the first file
/// its rule covers outside `except`, breaks that rule, and the whole table
/// run over the seeded tree names no other rule.
#[test]
fn every_seed_breaks_its_rule() {
    let survey = survey();
    for (rule, files, _) in &survey {
        let Some((file, text)) = files.iter().find(|(path, _)| !rule.except.contains(path)) else {
            panic!("[{}] covers no file outside `except`", rule.name);
        };
        let seeded = [(file.clone(), format!("{}\n{text}", rule.seed))];
        let mut broken = Vec::new();
        for (other, files, found) in &survey {
            let mut found: Files = found.iter().filter(|(path, _)| path != file).cloned().collect();
            if files.iter().any(|(path, _)| path == file) {
                found.extend(hits(other, &seeded, repo()));
            }
            broken.extend(verdict(other, &found));
        }
        let alone = |m: &String| m.starts_with(&format!("[{}] ", rule.name));
        let seed = &rule.seed;
        assert!(!broken.is_empty() && broken.iter().all(alone), "`{seed}` in {file}: {broken:?}");
    }
}

#[test]
fn a_listed_path_that_matches_no_file_fails_its_rule() {
    let rule = table().remove(0);
    for (paths, filter, except, named) in [
        ("examples gone", "(*.rs)", "", "gone"),
        ("README.md", "(*.rs)", "", "README.md"),
        ("examples", "(*.rs)", "examples/gone.rs", "examples/gone.rs"),
    ] {
        let (paths, filter, except) = (words(paths), filter.to_string(), words(except));
        let err = scope(&Rule { paths, filter, except, ..rule.clone() }, repo()).expect_err(named);
        assert!(err.starts_with(&format!("[{}] `{named}`", rule.name)), "{err}");
    }
}

#[test]
fn a_malformed_block_fails_naming_its_line() {
    let text = fs::read_to_string(repo().join(TABLE)).unwrap();
    let line_of = |prefix: &str| 1 + text.lines().position(|l| l.starts_with(prefix)).unwrap();
    let without = |prefix: &str| {
        let line = text.lines().find(|l| l.starts_with(prefix)).unwrap();
        text.replacen(&format!("\n{line}\n"), "\n", 1)
    };
    let first_rule = line_of("rule ");
    for (table, line) in [
        (text.replacen("\n  forbid ", "\n  forbids ", 1), line_of("  forbid ")),
        (text.replacen("\n  in ", "\n  in (*.md)\n  in ", 1), line_of("  in ")),
        (without("  seed "), first_rule),
        (without("  why "), first_rule),
    ] {
        let err = parse(&table).expect_err("a malformed block");
        assert!(err.starts_with(&format!("{TABLE}:{line}: ")), "want line {line}: {err}");
    }
}
