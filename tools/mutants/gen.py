#!/usr/bin/env python3
"""Generated mutants over the lines a change adds: would a test notice?

usage: gen.py BASE [PATH ...]   (BASE: the git revision the change is against)

For each line that `git diff BASE HEAD` adds to non-test code under
`crates/*/src` (a `*_tests.rs` file, or anything from a file's first
`#[cfg(test)]` on, is test code), optionally only under PATHs, the script
applies one operator at a time:

  relational flip   ` < ` <-> ` <= `, ` > ` <-> ` >= `
  equality flip     ` == ` <-> ` != `
  logic flip        ` && ` <-> ` || `
  count removal     ` += 1` / ` -= 1` become ` += 0` / ` -= 0`
  bound swap        `.min(` <-> `.max(`
  negated branch    `if COND {` becomes `if !(COND) {`

Operators match binary operators with a space on each side, as rustfmt
writes them, so generics and arrows are left alone. Each mutant is built
and tested in one temporary `git worktree` of HEAD, reset between
mutants: first the changed crate's tests, then, if those pass, the whole
workspace's (`cargo test` at the root, whose `default-members` lists every
crate, so the crates that use the changed one run too), each under a
timeout of 3x the clean run. Prints one line per mutant (killed,
survived, timeout, unbuildable), the counts and the wall time. A survivor is killed by a new test (then committed as a
named mutant for `run.py`) or named equivalent, with a reason, in the
change's notes. Exits 1 if the clean tree fails its own tests.
"""
import argparse, pathlib, re, subprocess, sys, tempfile, time

HERE = pathlib.Path(__file__).resolve().parent
TIMEOUT_FACTOR = 3
SWAPS = [(" < ", " <= "), (" <= ", " < "), (" > ", " >= "), (" >= ", " > "),
         (" == ", " != "), (" != ", " == "), (" && ", " || "), (" || ", " && "),
         (" += 1", " += 0"), (" -= 1", " -= 0"), (".min(", ".max("), (".max(", ".min(")]
WHOLE = ["cargo", "test", "--offline", "-q"]
IF_LINE = re.compile(r"^(\s*(?:\} else )?if )(?!let )(.+) \{$")


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout


def added_lines(root, base, paths):
    """{file: [line numbers]} of the non-test lines HEAD adds over `base`."""
    diff = git("diff", "-U0", base, "HEAD", "--", *(paths or ["crates"]), cwd=root)
    added, path = {}, None
    for line in diff.splitlines():
        if line.startswith("+++ "):
            name = line[6:] if line.startswith("+++ b/") else None
            ok = name and re.fullmatch(r"crates/[^/]+/src/.+\.rs", name) and not name.endswith("_tests.rs")
            path = name if ok else None
        elif line.startswith("@@") and path:
            start, _, count = re.search(r"\+(\d+)(,(\d+))?", line).group(1, 2, 3)
            n = 1 if count is None else int(count)
            added.setdefault(path, []).extend(range(int(start), int(start) + n))
    for path in list(added):
        text = (pathlib.Path(root) / path).read_text().splitlines()
        cut = next((i + 1 for i, l in enumerate(text) if l.strip() == "#[cfg(test)]"), len(text) + 1)
        added[path] = [n for n in added[path] if n < cut]
    return added


def mutants(text, numbers):
    """(line number, operator, mutated line) for each operator on each line."""
    for n in numbers:
        line = text[n - 1]
        code = line.split("//")[0]
        if not code.strip():
            continue
        for old, new in SWAPS:
            at = code.find(old)
            while at >= 0:
                yield n, f"`{old.strip()}` -> `{new.strip()}`", line[:at] + new + line[at + len(old):]
                at = code.find(old, at + 1)
        m = IF_LINE.match(line)
        if m:
            yield n, "negated branch", f"{m.group(1)}!({m.group(2)}) {{"


def package(root, path):
    """The Cargo package name of the crate `path` is in."""
    manifest = (pathlib.Path(root) / path.split("/src/")[0] / "Cargo.toml").read_text()
    return re.search(r'^name\s*=\s*"([^"]+)"', manifest, re.M).group(1)


def run(cmd, cwd, timeout):
    """'pass', 'fail', 'unbuildable' or 'timeout' for one cargo test run."""
    try:
        r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    if r.returncode == 0:
        return "pass"
    return "unbuildable" if "could not compile" in r.stderr else "fail"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="git revision the change is against")
    ap.add_argument("paths", nargs="*", help="only lines under these paths")
    args = ap.parse_args()
    root = git("rev-parse", "--show-toplevel", cwd=HERE).strip()
    lines = added_lines(root, args.base, args.paths)
    start = time.monotonic()
    counts = {"killed": 0, "survived": 0, "timeout": 0, "unbuildable": 0}
    with tempfile.TemporaryDirectory(prefix="mutants-gen-") as tmp:
        work = pathlib.Path(tmp) / "tree"
        git("worktree", "add", "--detach", str(work), "HEAD", cwd=root)
        try:
            suites = {}
            for path in sorted(lines):
                crate = WHOLE + ["-p", package(root, path)]
                for cmd in (crate, WHOLE):
                    key = tuple(cmd)
                    if key not in suites:
                        t = time.monotonic()
                        if run(cmd, work, None) != "pass":
                            sys.exit(f"the clean tree fails `{' '.join(cmd)}`")
                        suites[key] = time.monotonic() - t
                file = work / path
                clean = file.read_text()
                text = clean.splitlines()
                for n, op, mutated in mutants(text, lines[path]):
                    file.write_text("\n".join(text[:n - 1] + [mutated] + text[n:]) + "\n")
                    verdict = "survived"
                    for cmd in (crate, WHOLE):
                        # A slow clean run still gets a minute to rebuild in.
                        outcome = run(cmd, work, max(60, TIMEOUT_FACTOR * suites[tuple(cmd)]))
                        if outcome != "pass":
                            verdict = "killed" if outcome == "fail" else outcome
                            break
                    counts[verdict] += 1
                    print(f"{verdict:11} {path}:{n} {op}: {mutated.strip()}", flush=True)
                file.write_text(clean)
        finally:
            git("worktree", "remove", "--force", str(work), cwd=root)
    total = sum(counts.values())
    summary = ", ".join(f"{v} {k}" for k, v in counts.items())
    print(f"{total} mutants: {summary} in {time.monotonic() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
