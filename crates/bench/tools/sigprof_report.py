#!/usr/bin/env python3
"""Symbolises the stacks written by sigprof.c and prints CPU shares.

usage: sigprof_report.py BINARY SAMPLES [--scope REGEX] [PATTERN ...]

A sample counts towards a pattern when any frame of its stack matches it
(inclusive share).  `--scope` restricts the denominator to samples with a
matching frame, e.g. the wrapper's or the crash-path host's entry point.
Without patterns, prints the top inclusive and self shares instead.
Frames outside BINARY (libc: malloc, free, memcpy) print as `<shared lib>`.
"""
import bisect
import collections
import os
import re
import subprocess
import sys


def load(binary, samples):
    nm = subprocess.run(["nm", "-C", "--defined-only", "-n", binary],
                        capture_output=True, text=True, check=True).stdout
    syms = []
    for line in nm.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwW":
            syms.append((int(parts[0], 16), parts[2]))
    addrs = [addr for addr, _ in syms]
    real = os.path.realpath(binary)
    base, stacks = None, []
    for line in open(samples):
        if line.startswith("#map"):
            # The first mapping of BINARY at file offset 0 is its load base.
            m = re.match(r"#map ([0-9a-f]+)-[0-9a-f]+ \S+ ([0-9a-f]+) \S+ \S+\s+(\S+)", line)
            if m and base is None and int(m.group(2), 16) == 0 \
                    and os.path.realpath(m.group(3)) == real:
                base = int(m.group(1), 16)
            continue
        pcs = [int(pc, 16) for pc in line.split()]
        if pcs:
            stacks.append(pcs)
    if base is None:
        sys.exit(f"{samples}: no mapping of {binary}")

    def name(pc):
        offset = pc - base
        i = bisect.bisect_right(addrs, offset) - 1
        if i < 0 or offset < 0 or offset > addrs[-1] + (1 << 20):
            return "<shared lib>"
        return syms[i][1]

    return [[name(pc) for pc in stack] for stack in stacks]


def main():
    args = sys.argv[1:]
    scope = None
    if "--scope" in args:
        at = args.index("--scope")
        scope = re.compile(args[at + 1])
        del args[at:at + 2]
    if len(args) < 2:
        sys.exit(__doc__)
    stacks = load(args[0], args[1])
    total = len(stacks)
    if scope:
        stacks = [s for s in stacks if any(scope.search(f) for f in s)]
    print(f"{len(stacks)} of {total} samples in scope")
    if not stacks:
        return
    if args[2:]:
        for pattern in args[2:]:
            rx = re.compile(pattern)
            hits = sum(1 for s in stacks if any(rx.search(f) for f in s))
            print(f"  {100 * hits / len(stacks):5.1f}%  /{pattern}/")
        return
    inclusive, self_time = collections.Counter(), collections.Counter()
    for stack in stacks:
        self_time[stack[0]] += 1
        inclusive.update(set(stack))
    for title, counter, top in (("inclusive", inclusive, 50), ("self", self_time, 30)):
        print(f"-- {title}")
        for frame, count in counter.most_common(top):
            print(f"  {100 * count / len(stacks):5.1f}%  {frame[:140]}")


if __name__ == "__main__":
    main()
