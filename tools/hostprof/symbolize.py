#!/usr/bin/env python3
"""Symbolize a hostprof sample file: self % and inclusive % per function.

usage: symbolize.py SAMPLES [TOP]          (SAMPLES written by sampler.c; TOP rows, default 40)
       symbolize.py --diff A B [TOP]       (sample-count deltas per function, B minus A)
       symbolize.py --lines SAMPLES [TOP]  (self % per source line of the repository)
       symbolize.py --lines --diff A B [TOP]
       symbolize.py --lines --inner ...    (the same, charged to the innermost repository frame)

Needs `nm` on PATH and the sampled binary still at the path it ran from.
Inclusive = the function is anywhere on the sampled stack (counted once per
sample); self = it is the interrupted frame. PCs outside the binary (libc,
vdso) are counted under "[outside the binary]". `--diff` is for two runs of
the same work (a feature on and off, a parent and a change): it prints
absolute sample deltas, largest inclusive change first, each file
symbolized against its own binary and mappings.

A std container inlined into its caller has no frame of its own: the
function view bills its time to the caller's name, and the container looks
free. `--lines` (needs `addr2line`, and a binary built with
CARGO_PROFILE_RELEASE_DEBUG=1) resolves each sample's interrupted PC
through its inlining chain and charges it to the outermost frame whose file
is the repository's — a path with a `crates/` or `benchmark/` directory
outside the toolchain's `/rustc/`, printed from that directory on, so two
checkouts of the repository diff line by line — or to the innermost frame
when the chain has none. Lines have self counts only.

The outermost repository frame of an inlined completion handler is the
loop that dispatched it (`Controller::advance_into`), so `--lines` alone bills a
whole inlined subtree to one line. `--lines --inner` charges each sample to
the innermost repository frame instead: the helper that ran (an address
decode, an OOB look-up), wherever it was inlined. Run both: the outer view
says which entry point is hot, the inner one which helper inside it.
"""
import bisect, collections, re, subprocess, sys

OURS = re.compile(r"(?:^|/)((?:crates|benchmark)/[^ ]*)")


def read(path):
    """(mappings, samples, binary, PIE load address) of one sample file."""
    maps, samples = [], []
    for line in open(path):
        if line.startswith("map "):
            span, _perms, offset, _dev, _inode, exe = line.split()[1:7]
            lo, hi = (int(x, 16) for x in span.split("-"))
            maps.append((lo, hi, int(offset, 16), exe))
        elif line.strip():
            samples.append([int(pc, 16) for pc in line.split()])
    if not maps or not samples:
        sys.exit(f"{path}: no mappings or no samples (was SAMPLER_OUT set, did the run take > 1 ms?)")
    return maps, samples, maps[0][3], min(lo - offset for lo, _, offset, _ in maps)


def load(path):
    """(samples, binary, self counts, inclusive counts) per function of one sample file."""
    maps, samples, exe, bias = read(path)
    nm = subprocess.run(["nm", "-C", "--defined-only", "-n", exe], capture_output=True, text=True, check=True)
    syms = [(int(a, 16), name) for a, kind, name in (l.split(None, 2) for l in nm.stdout.splitlines() if l.count(" ") >= 2) if kind in "tTwW"]
    addrs = [a for a, _ in syms]

    def name_of(pc):
        if not any(lo <= pc < hi for lo, hi, _, _ in maps):
            return "[outside the binary]"
        i = bisect.bisect_right(addrs, pc - bias) - 1
        return syms[i][1].strip() if i >= 0 else "[outside the binary]"

    self_n, incl_n = collections.Counter(), collections.Counter()
    for pcs in samples:
        names = [name_of(pcs[0])] + [name_of(pc - 1) for pc in pcs[1:]]  # return address -> call site
        self_n[names[0]] += 1
        incl_n.update(set(names))
    return len(samples), exe, self_n, incl_n


def load_lines(path):
    """(samples, binary, self counts, the same again) per source line of one sample file."""
    maps, samples, exe, bias = read(path)
    pcs = sorted({s[0] for s in samples if any(lo <= s[0] < hi for lo, hi, _, _ in maps)})
    asked = "".join(f"{pc - bias:#x}\n" for pc in pcs)
    out = subprocess.run(["addr2line", "-a", "-C", "-i", "-f", "-e", exe], input=asked, capture_output=True, text=True, check=True)
    # Per address: its line, then (function, file:line) pairs, innermost first.
    chains = []
    for text in out.stdout.splitlines():
        if re.fullmatch(r"0x[0-9a-f]+", text):
            chains.append([])
        else:
            chains[-1].append(text)
    where = {}
    for pc, chain in zip(pcs, chains):
        frames = list(zip(chain[0::2], chain[1::2]))
        ours = [(func, OURS.search(at)) for func, at in frames if not at.startswith("/rustc/")]
        ours = [(func, m.group(1)) for func, m in ours if m]
        func, at = ours[0 if inner else -1] if ours else frames[0]
        where[pc] = f"{at}  {func}"
    self_n = collections.Counter(where.get(s[0], "[outside the binary]") for s in samples)
    return len(samples), exe, self_n, self_n


args = sys.argv[1:]
lines, inner = "--lines" in args, "--inner" in args
if inner and not lines:
    sys.exit("--inner needs --lines\n" + __doc__)
if lines:
    args.remove("--lines")
    load = load_lines
if inner:
    args.remove("--inner")
if args and args[0] == "--diff":
    if len(args) < 3:
        sys.exit(__doc__)
    (na, exe_a, self_a, incl_a), (nb, exe_b, self_b, incl_b) = load(args[1]), load(args[2])
    top = int(args[3]) if len(args) > 3 else 40
    print(f"A {na} samples of {exe_a}\nB {nb} samples of {exe_b}\ntotal {nb - na:+d}")
    moved = sorted(set(incl_a) | set(incl_b), key=lambda f: (-abs(incl_b[f] - incl_a[f]), f))
    if lines:
        print(f"{'d self':>7} {'self A':>7} {'self B':>7}  line")
        for f in moved[:top]:
            print(f"{self_b[f] - self_a[f]:+7d} {self_a[f]:7d} {self_b[f]:7d}  {f}")
    else:
        print(f"{'d incl':>7} {'d self':>7} {'incl A':>7} {'incl B':>7} {'self A':>7} {'self B':>7}  function")
        for f in moved[:top]:
            print(f"{incl_b[f] - incl_a[f]:+7d} {self_b[f] - self_a[f]:+7d} {incl_a[f]:7d} {incl_b[f]:7d} {self_a[f]:7d} {self_b[f]:7d}  {f}")
else:
    if not args:
        sys.exit(__doc__)
    total, exe, self_n, incl_n = load(args[0])
    top = int(args[1]) if len(args) > 1 else 40
    print(f"{total} samples of {exe}")
    if lines:
        print(f"{'self %':>7} {'samples':>7}  line")
        for name, n in self_n.most_common(top):
            print(f"{100 * n / total:7.1f} {n:7d}  {name}")
    else:
        print(f"{'incl %':>7} {'self %':>7}  function")
        for name, n in incl_n.most_common(top):
            print(f"{100 * n / total:7.1f} {100 * self_n[name] / total:7.1f}  {name}")
