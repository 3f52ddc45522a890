#!/usr/bin/env python3
"""Symbolize a hostprof sample file: self % and inclusive % per function.

usage: symbolize.py SAMPLES [TOP]          (SAMPLES written by sampler.c; TOP rows, default 40)
       symbolize.py --diff A B [TOP]       (sample-count deltas per function, B minus A)

Needs `nm` on PATH and the sampled binary still at the path it ran from.
Inclusive = the function is anywhere on the sampled stack (counted once per
sample); self = it is the interrupted frame. PCs outside the binary (libc,
vdso) are counted under "[outside the binary]". `--diff` is for two runs of
the same work (a feature on and off, a parent and a change): it prints
absolute sample deltas, largest inclusive change first, each file
symbolized against its own binary and mappings.
"""
import bisect, collections, subprocess, sys


def load(path):
    """(samples, binary, self counts, inclusive counts) of one sample file."""
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
    exe = maps[0][3]
    bias = min(lo - offset for lo, _, offset, _ in maps)  # PIE load address
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


args = sys.argv[1:]
if args and args[0] == "--diff":
    if len(args) < 3:
        sys.exit(__doc__)
    (na, exe_a, self_a, incl_a), (nb, exe_b, self_b, incl_b) = load(args[1]), load(args[2])
    top = int(args[3]) if len(args) > 3 else 40
    print(f"A {na} samples of {exe_a}\nB {nb} samples of {exe_b}\ntotal {nb - na:+d}")
    print(f"{'d incl':>7} {'d self':>7} {'incl A':>7} {'incl B':>7} {'self A':>7} {'self B':>7}  function")
    moved = sorted(set(incl_a) | set(incl_b), key=lambda f: (-abs(incl_b[f] - incl_a[f]), f))
    for f in moved[:top]:
        print(f"{incl_b[f] - incl_a[f]:+7d} {self_b[f] - self_a[f]:+7d} {incl_a[f]:7d} {incl_b[f]:7d} {self_a[f]:7d} {self_b[f]:7d}  {f}")
else:
    if not args:
        sys.exit(__doc__)
    total, exe, self_n, incl_n = load(args[0])
    top = int(args[1]) if len(args) > 1 else 40
    print(f"{total} samples of {exe}")
    print(f"{'incl %':>7} {'self %':>7}  function")
    for name, n in incl_n.most_common(top):
        print(f"{100 * n / total:7.1f} {100 * self_n[name] / total:7.1f}  {name}")
