//! The one hasher behind every fixed-seed fingerprint: 64-bit FNV-1a, over a
//! run's text in named sections, checked against a committed text golden.
//!
//! A golden file holds a `row col section hash` line per section of each run
//! (row and column name its configuration), then `row col whole hash`, the
//! digest of the sections' concatenation; `#` lines are comments. To
//! re-record, copy the file [`Golden::check`] writes over the committed one:
//! the golden file's diff is then the table of what moved.

use std::collections::BTreeSet;
use std::path::PathBuf;

/// The FNV-1a offset basis: the digest of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a (64-bit) of `bytes`, continued from `h`. The hash streams: folding
/// two strings in turn from [`FNV_OFFSET`] gives the digest of their
/// concatenation.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// What one run rendered, as text in named sections, in order.
#[derive(Debug, Default)]
pub struct Fingerprint {
    sections: Vec<(String, String)>,
}

impl Fingerprint {
    /// Opens section `name` after the others and returns its text to write
    /// into. Names are unique within a run; `whole` names the run.
    pub fn section(&mut self, name: impl Into<String>) -> &mut String {
        let name = name.into();
        let taken = name == "whole" || self.sections.iter().any(|(n, _)| *n == name);
        assert!(!taken, "section name `{name}` is taken");
        self.sections.push((name, String::new()));
        let last = self.sections.len() - 1;
        &mut self.sections[last].1
    }

    /// The sections' concatenation.
    pub fn text(&self) -> String {
        self.sections.iter().map(|(_, t)| t.as_str()).collect()
    }

    /// The run's golden lines under `cell` (`"row col "`), `whole` last. A
    /// digest is spelled as a Rust literal in 16-bit groups.
    fn lines(&self, cell: &str) -> String {
        let mut out = String::new();
        let sections = self
            .sections
            .iter()
            .map(|(n, t)| (n.as_str(), t.as_bytes()));
        for (section, text) in sections.chain([("whole", self.text().as_bytes())]) {
            let h = fnv1a(FNV_OFFSET, text);
            let [a, b, c, d] = [48, 32, 16, 0].map(|shift| (h >> shift) & 0xffff);
            out += &format!("{cell}{section} 0x{a:04x}_{b:04x}_{c:04x}_{d:04x}\n");
        }
        out
    }
}

/// One golden test: its runs, each a [`Fingerprint`] under a row and a
/// column name, checked together against the test's committed text.
pub struct Golden {
    test: &'static str,
    dir: PathBuf,
    /// Each run under its `"row col "` prefix.
    runs: Vec<(String, Fingerprint)>,
}

impl Golden {
    /// A golden named `test` that writes what it finds under `<dir>/goldens/`.
    pub fn new(dir: &str, test: &'static str) -> Self {
        let (dir, runs) = (PathBuf::from(dir).join("goldens"), Vec::new());
        Golden { test, dir, runs }
    }

    /// Adds the run at (`row`, `col`), two names without a space.
    pub fn record(&mut self, row: &str, col: &str, run: Fingerprint) {
        self.runs.push((format!("{row} {col} "), run));
    }

    /// Panics unless each recorded run has exactly the `committed` lines of
    /// its row and column. A committed run that was not recorded (the fault
    /// golden's other columns outside `FAULTS=on`) is not checked, and is
    /// kept in the written file, ahead of the recorded ones.
    pub fn check(&self, committed: &str) {
        let lines: String = self.runs.iter().map(|(c, run)| run.lines(c)).collect();
        let recorded = |l: &&str| self.runs.iter().any(|(cell, _)| l.starts_with(cell));
        let (old, new): (BTreeSet<&str>, BTreeSet<&str>) =
            (committed.lines().collect(), lines.lines().collect());
        let added = new.iter().filter(|l| !old.contains(*l));
        let stale = old.iter().filter(|l| recorded(l) && !new.contains(*l));
        let key = |l: &&str| l.rsplit_once(' ').map_or(*l, |(key, _)| key).to_string();
        let moved: BTreeSet<String> = added.chain(stale).map(key).collect();
        if moved.is_empty() {
            return;
        }
        let kept = committed.lines().filter(|l| !recorded(l));
        let file: String = kept.map(|l| format!("{l}\n")).chain([lines]).collect();
        let write = |name: String, text: &str| {
            let path = self.dir.join(name.replace(['/', ' '], "_"));
            let wrote =
                std::fs::create_dir_all(&self.dir).and_then(|()| std::fs::write(&path, text));
            wrote.unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            path
        };
        let test = self.test;
        let path = write(format!("{test}.txt"), &file);
        for (cell, run) in &self.runs {
            for (section, text) in &run.sections {
                let name = format!("{test}.{cell}{section}.txt").replacen(' ', ".", 2);
                if moved.contains(&format!("{cell}{section}")) {
                    write(name, text);
                }
            }
        }
        let list: String = moved.iter().map(|m| format!("  {m}\n")).collect();
        panic!(
            "golden `{test}`: {} entries moved (row col section):\n{list}\
             The current file is {}, the text of each moved section beside it.\n\
             If the change is intended, copy that file over tests/goldens/{test}.txt.",
            moved.len(),
            path.display(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden(dir: &str, counter: u32) -> Golden {
        let mut fp = Fingerprint::default();
        *fp.section("completions") += "1@10\n2@20\n";
        *fp.section("ctrl_stats") += &format!("writes={counter}\n");
        let mut g = Golden::new(dir, "demo");
        g.record("page_map", "fifo", fp);
        g
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors_and_streams() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        let foobar = fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar");
        assert_eq!(
            (fnv1a(FNV_OFFSET, b"foobar"), foobar),
            (foobar, 0x8594_4171_f739_67e8)
        );
        let mut fp = Fingerprint::default();
        *fp.section("foo") += "foo";
        *fp.section("bar") += "bar";
        assert!(fp
            .lines("r c ")
            .ends_with("\nr c whole 0x8594_4171_f739_67e8\n"));
    }

    /// A run whose one counter moved fails naming that section and the
    /// whole, writes the section's text, and writes a file that passes.
    #[test]
    fn a_moved_section_is_named_and_written_out() {
        let dir = std::env::temp_dir().join(format!("eagletree-digest-{}", std::process::id()));
        let dir = dir.to_str().expect("a UTF-8 temporary directory");
        let lines = golden(dir, 2).runs[0].1.lines("page_map fifo ");
        let committed = format!("# provenance\n{lines}");
        golden(dir, 2).check(&committed);
        let err = std::panic::catch_unwind(|| golden(dir, 3).check(&committed)).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("a formatted panic");
        let names = ":\n  page_map fifo ctrl_stats\n  page_map fifo whole\nThe";
        assert!(msg.contains(names), "{msg}");
        let out = |name: &str| {
            std::fs::read_to_string(std::path::Path::new(dir).join("goldens").join(name))
        };
        let section = out("demo.page_map.fifo.ctrl_stats.txt").expect("the section's text");
        assert_eq!(section, "writes=3\n");
        let file = out("demo.txt").expect("the current file");
        assert!(
            file.starts_with("# provenance\npage_map fifo completions 0x"),
            "{file}"
        );
        golden(dir, 3).check(&file);
        std::fs::remove_dir_all(dir).expect("remove the temporary directory");
    }
}
