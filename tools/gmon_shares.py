#!/usr/bin/env python3
"""Per-function and per-file CPU shares from gprof's PC histogram.

    tools/gmon_shares.py BINARY GMON [GMON ...] [--top N]
                         [--group LABEL=REGEX ...]

gprof charges samples that land in inlined template code to whatever
out-of-line symbol encloses them, so in an optimised build its flat profile
can name functions a workload never calls, and `gprof -l` may abort. This
reader skips gprof: it sums the time histograms of the given gmon.out files,
maps the address of every non-empty bin through `addr2line -a -i -f -C`, and
charges the bin's samples

  * as *self* time to the innermost function (and its source file) of the
    bin's inline chain, and
  * as *inclusive* time to every distinct function (and file) in that
    chain, so an inlined helper counts toward each caller it was inlined
    into.

Inclusive here means the inline chain only: the histogram has no call
graph, so time spent in an out-of-line callee is not added to its callers.

`--group LABEL=REGEX` (repeatable) adds one line per group: the share of
samples whose inline chain holds a function matching REGEX (Python `re`,
searched in the demangled name). Groups may overlap.

Build the binary with `-pg` (and preferably `-fno-omit-frame-pointer`),
link it `-no-pie` so histogram addresses are link-time addresses, and run
it from a scratch directory: each run writes ./gmon.out.
"""

import argparse
import collections
import re
import struct
import subprocess
import sys

GMON_TAG_TIME_HIST = 0
GMON_TAG_CG_ARC = 1
GMON_TAG_BB_COUNT = 2


def read_histogram(path):
    """Returns ({bin start address: samples}, samples per second) of a
    gmon.out written by a 64-bit program."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"gmon":
        sys.exit("%s: not a gmon.out file" % path)
    pos = 20  # cookie, version, spare
    bins = collections.Counter()
    rate = 0
    while pos < len(data):
        tag = data[pos]
        pos += 1
        if tag == GMON_TAG_TIME_HIST:
            low, high, size, rate = struct.unpack_from("<QQiI", data, pos)
            # low_pc, high_pc, hist_size, prof_rate, dimen[15], dimen_abbrev
            pos += 8 + 8 + 4 + 4 + 15 + 1
            counts = struct.unpack_from("<%dH" % size, data, pos)
            pos += 2 * size
            step = (high - low) / size
            for i, c in enumerate(counts):
                if c:
                    bins[low + int(i * step)] += c
        elif tag == GMON_TAG_CG_ARC:
            pos += 8 + 8 + 4  # from_pc, self_pc, count
        elif tag == GMON_TAG_BB_COUNT:
            (n,) = struct.unpack_from("<I", data, pos)
            pos += 4 + n * 16
        else:
            sys.exit("%s: unknown gmon record tag %d" % (path, tag))
    return bins, rate


def inline_chains(binary, addresses):
    """{address: [(function, file), ...] innermost first} via addr2line."""
    query = "\n".join("0x%x" % a for a in addresses) + "\n"
    out = subprocess.run(["addr2line", "-a", "-i", "-f", "-C", "-e", binary],
                         input=query, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    chains = {}
    current = None
    i = 0
    while i < len(out):
        line = out[i]
        if re.fullmatch(r"0x[0-9a-f]+", line):
            current = int(line, 16)
            chains[current] = []
            i += 1
            continue
        func = line
        loc = out[i + 1] if i + 1 < len(out) else "??:0"
        path = loc.rsplit(":", 1)[0].split(" (discriminator")[0]
        chains[current].append((func, path))
        i += 2
    return chains


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("binary")
    ap.add_argument("gmon", nargs="+")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--group", action="append", default=[],
                    metavar="LABEL=REGEX")
    a = ap.parse_args()

    bins = collections.Counter()
    rate = 0
    for path in a.gmon:
        b, rate = read_histogram(path)
        bins.update(b)
    total = sum(bins.values())
    if total == 0:
        sys.exit("no samples")
    chains = inline_chains(a.binary, sorted(bins))

    self_fn, incl_fn = collections.Counter(), collections.Counter()
    self_file, incl_file = collections.Counter(), collections.Counter()
    groups = [g.split("=", 1) for g in a.group]
    group_hits = collections.Counter()
    for addr, n in bins.items():
        chain = chains.get(addr) or [("??", "??")]
        self_fn[chain[0][0]] += n
        self_file[chain[0][1]] += n
        for fn in {f for f, _ in chain}:
            incl_fn[fn] += n
        for path in {p for _, p in chain}:
            incl_file[path] += n
        for label, regex in groups:
            if any(re.search(regex, f) for f, _ in chain):
                group_hits[label] += n

    pct = lambda n: 100.0 * n / total
    print("%d samples (%.2f s at %d Hz) from %d file(s)"
          % (total, total / max(rate, 1), rate, len(a.gmon)))
    for title, selfs, incls in (("function", self_fn, incl_fn),
                                ("source file", self_file, incl_file)):
        print("\n%-8s %-8s %s" % ("self%", "incl%", title))
        keys = sorted(set(selfs) | set(incls),
                      key=lambda k: (-incls[k], -selfs[k], k))
        for k in keys[:a.top]:
            print("%7.1f%% %7.1f%% %s" % (pct(selfs[k]), pct(incls[k]), k))
    if groups:
        print("\n%-8s group" % "share%")
        for label, _ in groups:
            print("%7.1f%% %s" % (pct(group_hits[label]), label))


if __name__ == "__main__":
    main()
