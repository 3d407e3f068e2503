"""Host-speed probe: a fixed piece of work, timed next to the operations.

The shared 2-vCPU hosts this benchmark runs on drift in speed by up to 2x
for minutes at a time, on CPU time as much as on wall time, so a run that
falls into a slow spell reads slow however long it measures. The probe runs
the same work every time, in a fresh interpreter like the operations:
interpreter start, the standard-library imports the CLI also makes,
`Fraction` elimination, dict and string churn and JSON encoding. It imports
nothing from tracelattice, so a change to the program cannot move it.

run.py runs it every 1.5 s or so, between operations, and scales each
process's wall and CPU time by REF_WALL_S and REF_CPU_S over the mean wall
and CPU time of the probes that ran within a few seconds of it: the result
reads in seconds at the speed the host had when the reference figures were
made. The traced run reports the run's mean probe time over REF_WALL_S as
`host.slowdown`.

    python3 bench/speed.py      # prints the probe's wall and CPU seconds
"""
from __future__ import annotations

import subprocess
import sys
import time

# probe wall and CPU seconds on a calm 2-vCPU Xeon VM (Python 3.11.7): the
# unit that normalized times are given in
REF_WALL_S = 0.095
REF_CPU_S = 0.095

CODE = """
import argparse, json
from fractions import Fraction
n = 7
total = Fraction(0)
for rep in range(40):
    a = [[Fraction((3 * i + 5 * j + rep) % 7 - 3, 1 + (i * j) % 5) for j in range(n)]
         for i in range(n)]
    for i in range(n):
        a[i][i] += 5
    for k in range(n):
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    total += a[-1][-1]
d = {}
for i in range(20000):
    d[str((i * 7919) % 100003)] = [i, str(i)]
text = json.dumps(sorted(d.items())[:2000], separators=(",", ":"))
print(total.denominator % 1000003, len(d), len(text))
"""


def expected_output() -> bytes:
    """What the probe prints, computed in this process."""
    scope: dict = {}
    from contextlib import redirect_stdout
    from io import StringIO

    buf = StringIO()
    with redirect_stdout(buf):
        exec(CODE, scope)
    return buf.getvalue().encode()


def main() -> int:
    from resource import RUSAGE_CHILDREN, getrusage

    for _ in range(5):
        before = getrusage(RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", CODE], check=True, capture_output=True)
        wall = time.perf_counter() - t0
        after = getrusage(RUSAGE_CHILDREN)
        cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
        print(f"{wall:.4f} {cpu:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
