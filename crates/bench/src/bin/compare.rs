//! Result-drift gate: diff two harness `--json` files.
//!
//! ```text
//! compare BASELINE.json CURRENT.json
//! ```
//!
//! A harness file is a pure function of the code: every cell is a
//! simulated result, and sequential and `--jobs N` runs write the same
//! bytes. So over the experiments present in both files, any difference
//! in `events_simulated` or in a row — a label, a column name, a value,
//! their order or count — exits 1, naming experiment / label / column
//! and both values. No cell is exempt and there is no option: a change
//! that moves results on purpose regenerates the baseline.
//!
//! Experiments present in only one file are listed, never gated. A file
//! that yields no experiment, or two files that share none, is an error
//! (exit 2) — a gate over nothing must not pass.

use std::collections::BTreeMap;

/// One result row: its label, then (column, value text) in file order.
/// Values stay text: the harness prints the shortest round-trip form of
/// each `f64`, so equal text is equal bits.
type Row = (String, Vec<(String, String)>);

/// Per-experiment results scraped from harness JSON.
#[derive(Debug, Default, Clone, PartialEq)]
struct Exp {
    events_simulated: Option<u64>,
    rows: Vec<Row>,
}

/// Split one single-line row object (`{"label": "x", "iops": 1, ...}`)
/// into its label and cells. `None` if the line is not of that form.
fn parse_row(line: &str) -> Option<Row> {
    let mut rest = line.strip_prefix('{')?.strip_suffix('}')?;
    let mut label = None;
    let mut cells = Vec::new();
    while !rest.is_empty() {
        let (key, after) = take_string(rest)?;
        let after = after.strip_prefix(':')?.trim_start();
        let (value, after) = match take_string(after) {
            Some(s) => s,
            None => after.split_once(',').unwrap_or((after, "")),
        };
        if key == "label" {
            label = Some(value.to_string());
        } else {
            cells.push((key.to_string(), value.trim().to_string()));
        }
        rest = after.trim_start_matches(',').trim_start();
    }
    Some((label?, cells))
}

/// Take a leading `"..."` (escapes left as written) off `s`.
fn take_string(s: &str) -> Option<(&str, &str)> {
    let body = s.strip_prefix('"')?;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' => escaped = true,
            '"' => return Some((&body[..i], &body[i + 1..])),
            _ => {}
        }
    }
    None
}

/// Minimal scraper for the harness's own hand-rolled JSON: the fields of
/// interest each sit on their own line. Not a general JSON parser — the
/// offline build container has no serde, and the input is machine-written
/// by `harness --json`. Fields are buffered per object (delimited by
/// lone `{` / `}` lines) and attached to whichever `"id"` appears inside
/// the same object, so reordered keys (`jq -S`-style) scrape identically.
/// Fields with no `"id"` in their object, an experiment without
/// `events_simulated`, or a file with no experiment at all — truncated,
/// hand-edited or not harness output — are an `Err` naming the problem.
fn scrape(path: &str, text: &str) -> Result<BTreeMap<String, Exp>, String> {
    let mut out: BTreeMap<String, Exp> = BTreeMap::new();
    let mut cur_id: Option<String> = None;
    let mut cur = Exp::default();
    for line in text.lines().map(str::trim).chain(["}"]) {
        // Object boundaries: the harness opens each experiment object
        // with a lone `{` and closes it with `}` / `},` (the chained `}`
        // closes whatever a truncated file left open).
        if line == "{" || line == "}" || line == "}," {
            let exp = std::mem::take(&mut cur);
            match cur_id.take() {
                Some(id) => {
                    out.insert(id, exp);
                }
                None if exp != Exp::default() => {
                    return Err(format!(
                        "{path}: fields {exp:?} belong to no experiment (their object has no \"id\" — truncated or hand-edited file?)"
                    ));
                }
                None => {}
            }
            continue;
        }
        let line = line.trim_end_matches(',');
        if let Some(rest) = line.strip_prefix("\"id\": \"") {
            cur_id = rest.strip_suffix('"').map(str::to_string);
        } else if let Some(rest) = line.strip_prefix("\"events_simulated\": ") {
            cur.events_simulated = rest.parse().ok();
        } else if line.starts_with("{\"label\":") {
            let row = parse_row(line).ok_or(format!("{path}: malformed row `{line}`"))?;
            cur.rows.push(row);
        }
    }
    if let Some((id, _)) = out.iter().find(|(_, e)| e.events_simulated.is_none()) {
        return Err(format!(
            "{path}: experiment \"{id}\" has no events_simulated field"
        ));
    }
    if out.is_empty() {
        return Err(format!(
            "{path}: no experiment found (truncated, or not `harness --json` output?)"
        ));
    }
    Ok(out)
}

/// Every way `cur`'s results differ from `base`'s, one line each: `id / label / column: base -> current`.
fn drift(id: &str, base: &Exp, cur: &Exp) -> Vec<String> {
    let mut out = Vec::new();
    // `scrape` fails unless every experiment carried events_simulated.
    if let (Some(b), Some(c)) = (base.events_simulated, cur.events_simulated) {
        if b != c {
            out.push(format!("{id} events_simulated: {b} -> {c}"));
        }
    }
    if base.rows.len() != cur.rows.len() {
        out.push(format!(
            "{id} rows: {} -> {}",
            base.rows.len(),
            cur.rows.len()
        ));
    }
    for (i, ((bl, bc), (cl, cc))) in base.rows.iter().zip(&cur.rows).enumerate() {
        if bl != cl {
            out.push(format!("{id} row {i} label: {bl} -> {cl}"));
            continue;
        }
        if bc.len() != cc.len() {
            out.push(format!("{id} / {bl} columns: {} -> {}", bc.len(), cc.len()));
        }
        for ((bn, bv), (cn, cv)) in bc.iter().zip(cc) {
            if bn != cn {
                out.push(format!("{id} / {bl} column name: {bn} -> {cn}"));
            } else if bv != cv {
                out.push(format!("{id} / {bl} / {bn}: {bv} -> {cv}"));
            }
        }
    }
    out
}

/// The ids both files hold; an error when there are none to gate.
fn shared_ids<'a>(
    base: &'a BTreeMap<String, Exp>,
    cur: &BTreeMap<String, Exp>,
) -> Result<Vec<&'a str>, String> {
    let ids: Vec<&str> = base
        .keys()
        .filter(|id| cur.contains_key(*id))
        .map(String::as_str)
        .collect();
    if ids.is_empty() {
        return Err("the two files share no experiment — nothing to compare".to_string());
    }
    Ok(ids)
}

fn read(path: &str) -> Result<BTreeMap<String, Exp>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    scrape(path, &text)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: compare BASELINE.json CURRENT.json";
    let fail = |msg: &str| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{usage}");
        return;
    }
    let [base_path, cur_path] = args.as_slice() else {
        fail(usage)
    };
    let base = read(base_path).unwrap_or_else(|e| fail(&e));
    let cur = read(cur_path).unwrap_or_else(|e| fail(&e));
    let ids = shared_ids(&base, &cur).unwrap_or_else(|e| fail(&e));

    let drifted: Vec<String> = ids
        .iter()
        .flat_map(|&id| drift(id, &base[id], &cur[id]))
        .collect();
    let rows: usize = ids.iter().map(|&id| base[id].rows.len()).sum();
    println!("{} experiments, {rows} baseline rows compared", ids.len());
    let only_in = |a: &BTreeMap<String, Exp>, b: &BTreeMap<String, Exp>| -> String {
        let ids: Vec<&str> = a
            .keys()
            .filter(|id| !b.contains_key(*id))
            .map(String::as_str)
            .collect();
        ids.join(", ")
    };
    for (side, path, only) in [
        ("current", cur_path, only_in(&cur, &base)),
        ("baseline", base_path, only_in(&base, &cur)),
    ] {
        if !only.is_empty() {
            println!("only in {side} ({path}), not compared: {only}");
        }
    }
    if !drifted.is_empty() {
        eprintln!(
            "\nresult drift (experiment / label / column: baseline -> current):"
        );
        for d in &drifted {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two experiments in the harness's own line layout.
    const GOOD: &str = r#"{
  "scale": "Smoke",
  "experiments": [
    {
      "id": "E1",
      "title": "t",
      "events_simulated": 1000,
      "rows": [
        {"label": "1x1", "luns_total": 1, "iops": 8273.5},
        {"label": "a \"b\", c", "iops": 2, "WA": 3.5}
      ]
    },
    {
      "id": "E2",
      "events_simulated": 50,
      "rows": [
      ]
    }
  ]
}
"#;

    #[test]
    fn scrapes_fields_and_rows() {
        let exps = scrape("good.json", GOOD).unwrap();
        assert_eq!(exps.len(), 2);
        let e1 = &exps["E1"];
        assert_eq!(e1.events_simulated, Some(1000));
        assert_eq!(e1.rows.len(), 2);
        assert_eq!(e1.rows[0].0, "1x1");
        let cell = |n: &str, v: &str| (n.to_string(), v.to_string());
        assert_eq!(
            e1.rows[0].1,
            vec![cell("luns_total", "1"), cell("iops", "8273.5")]
        );
        // Quotes, commas and colons inside a label do not split it.
        assert_eq!(e1.rows[1].0, r#"a \"b\", c"#);
        assert_eq!(
            e1.rows[1].1,
            vec![cell("iops", "2"), cell("WA", "3.5")]
        );
    }

    #[test]
    fn a_truncated_file_is_an_error_not_an_empty_baseline() {
        let err = scrape(
            "bad.json",
            r#"{"experiments":[{"id":"E1","events_simulated":"x""#,
        )
        .unwrap_err();
        assert!(err.contains("bad.json: no experiment found"), "{err}");
        // Cut mid-experiment, in the harness layout: the open object
        // still has its id, but never got its events_simulated.
        let cut = &GOOD[..GOOD.find("\"events_simulated\"").unwrap()];
        let err = scrape("cut.json", cut).unwrap_err();
        assert!(err.contains("\"E1\" has no events_simulated"), "{err}");
    }

    #[test]
    fn json_outside_the_harness_layout_is_an_error() {
        let minified: String = GOOD.split_whitespace().collect();
        let err = scrape("min.json", &minified).unwrap_err();
        assert!(err.contains("no experiment found"), "{err}");
        assert!(scrape("empty.json", "").is_err());
    }

    #[test]
    fn files_sharing_no_experiment_are_an_error() {
        let base = scrape("a.json", GOOD).unwrap();
        let other = scrape(
            "b.json",
            &GOOD.replace("\"E1\"", "\"E8\"").replace("\"E2\"", "\"E9\""),
        )
        .unwrap();
        assert!(shared_ids(&base, &other).is_err());
        assert_eq!(shared_ids(&base, &base).unwrap(), vec!["E1", "E2"]);
    }

    #[test]
    fn value_drift_names_experiment_label_column_and_both_values() {
        let base = scrape("a.json", GOOD).unwrap();
        assert!(drift("E1", &base["E1"], &base["E1"]).is_empty());
        let moved = GOOD
            .replace("8273.5", "8273.6")
            .replace("\"events_simulated\": 50,", "\"events_simulated\": 51,");
        let cur = scrape("b.json", &moved).unwrap();
        assert_eq!(
            drift("E1", &base["E1"], &cur["E1"]),
            vec!["E1 / 1x1 / iops: 8273.5 -> 8273.6"]
        );
        assert_eq!(
            drift("E2", &base["E2"], &cur["E2"]),
            vec!["E2 events_simulated: 50 -> 51"]
        );
        // A renamed, added or dropped column is drift too.
        let renamed = scrape("c.json", &GOOD.replace("luns_total", "luns")).unwrap();
        assert_eq!(
            drift("E1", &base["E1"], &renamed["E1"]),
            vec!["E1 / 1x1 column name: luns_total -> luns"]
        );
        let dropped = scrape("d.json", &GOOD.replace("\"luns_total\": 1, ", "")).unwrap();
        assert!(!drift("E1", &base["E1"], &dropped["E1"]).is_empty());
    }

    #[test]
    fn no_column_name_is_exempt() {
        // `wall_ms` was a host-clock cell older harnesses wrote and older
        // compares skipped; on one side only it is an added column.
        let base = scrape("a.json", GOOD).unwrap();
        let with = GOOD.replace("\"WA\": 3.5", "\"WA\": 3.5, \"wall_ms\": 9.5");
        let cur = scrape("b.json", &with).unwrap();
        assert_eq!(
            drift("E1", &base["E1"], &cur["E1"]),
            vec![r#"E1 / a \"b\", c columns: 2 -> 3"#]
        );
        // On both sides with different values it is a moved value.
        let other = scrape("c.json", &with.replace("9.5", "9.6")).unwrap();
        assert_eq!(
            drift("E1", &cur["E1"], &other["E1"]),
            vec![r#"E1 / a \"b\", c / wall_ms: 9.5 -> 9.6"#]
        );
    }
}
