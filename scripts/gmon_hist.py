#!/usr/bin/env python3
"""Charge a gmon.out time histogram to every symbol of a static binary.

gprof charges the samples of code it does not take for a function, such as
GCC's coroutine bodies (`f(...) [clone .actor]`), to the symbol placed
before them, and GCC's identical-code folding (-fipa-icf) gives several
functions one address, so its flat profile can name the wrong functions.
This script reads the histogram itself and charges each bin to the symbol
`nm` places at that address, coroutine clones included. Folded functions
still share an address; they are reported under one name.

Recipe: build the library without -pg and link nowlb-perfbench statically
with -pg, so the histogram also covers libc (memmove, memset) and no
function pays for mcount calls:

    cmake -S perfbench -B prof -DCMAKE_BUILD_TYPE=Release \\
          -DCMAKE_EXE_LINKER_FLAGS='-pg -static'
    cmake --build prof -j4
    (cd prof && ./nowlb-perfbench --mode=profile --workload=sor_loaded \\
                                  --seed=0 --seconds=10)
    python3 scripts/gmon_hist.py prof/nowlb-perfbench prof/gmon.out \\
        --group copy='^__(memmove|memcpy|memset)'

It prints the top symbols by share of samples, then one line per --group
NAME=REGEX: the summed share of the symbols whose demangled name matches.
"""

import argparse
import bisect
import re
import struct
import subprocess
import sys
from collections import Counter

TEXT_TYPES = set("tTwWi")


def read_histogram(path):
    """Return [(pc, count)] for every non-empty bin of a glibc gmon.out."""
    data = open(path, "rb").read()
    if data[:4] != b"gmon":
        sys.exit("%s: not a gmon.out file" % path)
    pos = 20  # cookie, version, spare
    bins = []
    while pos < len(data):
        tag = data[pos]
        pos += 1
        if tag == 0:  # time histogram
            low, high, size, _rate = struct.unpack_from("<QQII", data, pos)
            pos += 24 + 16  # bounds, size, rate, dimension name and abbrev
            counts = struct.unpack_from("<%dH" % size, data, pos)
            pos += 2 * size
            width = (high - low) / size
            bins += [(low + int(i * width), c)
                     for i, c in enumerate(counts) if c]
        elif tag == 1:  # call-graph arc
            pos += 20
        elif tag == 2:  # basic-block counts
            (n,) = struct.unpack_from("<I", data, pos)
            pos += 4 + 16 * n
        else:
            sys.exit("%s: unknown record tag %d" % (path, tag))
    return bins


def read_symbols(binary):
    """Return (addresses, names) of the binary's code symbols, by address."""
    out = subprocess.run(["nm", "-C", "-n", "--defined-only", binary],
                         check=True, capture_output=True, text=True).stdout
    addrs, names = [], []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in TEXT_TYPES:
            addr = int(parts[0], 16)
            if addrs and addrs[-1] == addr:
                names[-1] += " = " + parts[2]  # folded or aliased
            else:
                addrs.append(addr)
                names.append(parts[2])
    return addrs, names


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("binary")
    ap.add_argument("gmon")
    ap.add_argument("--top", type=int, default=15)
    ap.add_argument("--group", action="append", default=[],
                    metavar="NAME=REGEX")
    args = ap.parse_args()

    addrs, names = read_symbols(args.binary)
    samples = Counter()
    for pc, count in read_histogram(args.gmon):
        i = bisect.bisect_right(addrs, pc) - 1
        samples[names[i] if i >= 0 else "?"] += count
    total = sum(samples.values())
    if total == 0:
        sys.exit("no samples in %s" % args.gmon)
    print("samples %d" % total)
    for name, count in samples.most_common(args.top):
        print("%6.3f  %s" % (count / total, name[:150]))
    for group in args.group:
        label, regex = group.split("=", 1)
        pattern = re.compile(regex)
        share = sum(c for n, c in samples.items() if pattern.search(n))
        print("group %s %.3f" % (label, share / total))


if __name__ == "__main__":
    main()
