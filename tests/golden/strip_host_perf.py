#!/usr/bin/env python3
"""Drop the host-side "host_perf" block from every cell of a bench JSON
artifact, keeping every other byte as the simulator wrote it.

host_perf is wall-clock measurement of the simulator itself and differs
from run to run; everything else in a figure artifact is a simulated
result and must be byte-identical across runs and ticking modes.

Usage: strip_host_perf.py IN.json OUT.json
"""

import re
import sys

OPEN = re.compile(r'^(\s*)"host_perf": \{$')


def strip(lines):
    out = []
    close = None
    for line in lines:
        if close is not None:
            if line == close:
                close = None
            continue
        m = OPEN.match(line)
        if m:
            close = m.group(1) + "}"
            if not out or not out[-1].endswith(","):
                sys.exit("host_perf is not preceded by another field")
            out[-1] = out[-1][:-1]
            continue
        out.append(line)
    if close is not None:
        sys.exit("unterminated host_perf block")
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(sys.argv[1], encoding="utf-8") as f:
        lines = f.read().split("\n")
    with open(sys.argv[2], "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(strip(lines)))


if __name__ == "__main__":
    main()
