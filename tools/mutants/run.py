#!/usr/bin/env python3
"""Mutation ratchet: every seeded bug in this directory must be caught.

usage: run.py [NAME ...]   (NAME: a mutant's file name without `.diff`)

Each `*.diff` here is one mutant: a `test:` line (the arguments after
`cargo test --offline -q`), an `expect:` line (a substring of the failing
test's output), then a unified diff of at most 10 lines against the
repository. The runner checks HEAD out once into a temporary `git
worktree`, removed at the end, and for each mutant resets it, applies the
diff and runs the test, so builds stay incremental. A mutant is killed
when its test fails with `expect` in the output.

Errors, each exiting 1 after the summary: a diff that no longer applies
(the change that moved the code re-bases the mutant); a mutant that
survives and is not in `SURVIVORS`; one listed there that is now killed
(the list may only shrink: delete its line). Prints killed / total and
the wall time.
"""
import argparse, pathlib, shlex, subprocess, sys, tempfile, time

HERE = pathlib.Path(__file__).resolve().parent
MAX_DIFF_LINES = 10


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True)


def load(path):
    """(test arguments, expected substring, diff) of one mutant file."""
    lines = path.read_text().splitlines()
    fields = dict(line.split(": ", 1) for line in lines[:2] if ": " in line)
    diff = lines[2:]
    if set(fields) != {"test", "expect"} or not diff or not diff[0].startswith("--- "):
        sys.exit(f"{path.name}: want a `test:` and an `expect:` line, then a unified diff")
    if len(diff) > MAX_DIFF_LINES:
        sys.exit(f"{path.name}: a {len(diff)}-line diff; at most {MAX_DIFF_LINES}")
    return shlex.split(fields["test"]), fields["expect"], "\n".join(diff) + "\n"


def survivors():
    """Mutant name -> why it survives, from `SURVIVORS` (`#` lines are comments)."""
    listed = {}
    for line in (HERE / "SURVIVORS").read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, why = line.partition(" ")
            listed[name] = why.strip()
    return listed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", help="run only these mutants")
    args = ap.parse_args()
    every = sorted(HERE.glob("*.diff"))
    mutants = [m for m in every if not args.names or m.stem in args.names]
    listed = survivors()
    errors = [f"SURVIVORS names no mutant `{n}`" for n in sorted(set(listed) - {m.stem for m in every})]
    root = git("rev-parse", "--show-toplevel", cwd=HERE).stdout.strip()
    start = time.monotonic()
    killed = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = pathlib.Path(tmp) / "tree"
        git("worktree", "add", "--detach", str(work), "HEAD", cwd=root)
        try:
            for m in mutants:
                test, expect, diff = load(m)
                git("reset", "-q", "--hard", "HEAD", cwd=work)
                applied = subprocess.run(["git", "apply"], input=diff, cwd=work, capture_output=True, text=True)
                if applied.returncode:
                    errors.append(f"{m.stem}: the diff no longer applies: {applied.stderr.strip()}")
                    print(f"{'stale':8} {m.stem}", flush=True)
                    continue
                run = subprocess.run(["cargo", "test", "--offline", "-q", *test], cwd=work,
                                     capture_output=True, text=True)
                output = run.stdout + run.stderr
                dead = run.returncode != 0 and expect in output
                killed += dead
                print(f"{'killed' if dead else 'survived':8} {m.stem}", flush=True)
                if dead and m.stem in listed:
                    errors.append(f"{m.stem}: killed now; delete its SURVIVORS line")
                elif not dead and m.stem not in listed:
                    why = "its test passed" if run.returncode == 0 else f"no `{expect}` in:\n{output[-3000:]}"
                    errors.append(f"{m.stem}: survived, {why}")
        finally:
            git("worktree", "remove", "--force", str(work), cwd=root)
    print(f"killed {killed}/{len(mutants)} in {time.monotonic() - start:.0f} s")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
