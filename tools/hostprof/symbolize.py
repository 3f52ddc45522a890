#!/usr/bin/env python3
"""Symbolize a hostprof sample file: self % and inclusive % per function.

usage: symbolize.py SAMPLES [TOP]   (SAMPLES written by sampler.c; TOP rows, default 40)

Needs `nm` on PATH and the sampled binary still at the path it ran from.
Inclusive = the function is anywhere on the sampled stack (counted once per
sample); self = it is the interrupted frame. PCs outside the binary (libc,
vdso) are counted under "[outside the binary]".
"""
import bisect, collections, subprocess, sys

path, top = sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else 40
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
total = len(samples)
print(f"{total} samples of {exe}")
print(f"{'incl %':>7} {'self %':>7}  function")
for name, n in incl_n.most_common(top):
    print(f"{100 * n / total:7.1f} {100 * self_n[name] / total:7.1f}  {name}")
