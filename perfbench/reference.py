"""Op times measured against a fixed reference routine timed beside them.

On a shared virtual machine the same code runs at two speeds: in spells
from a tenth of a second to minutes long, plain Python runs 1.5-2 times
slower, on both CPUs at once, with no steal time recorded.  A run can fall
wholly in a slow spell, so no statistic of wall times within a run (the best
of several rounds included) keeps such runs in line with the others.

The reference routine is Gauss-Jordan elimination in Fraction arithmetic on
a fixed 6x7 matrix: the kind of work most ops do, and none of the program's
code, so a change to the program does not change it.  The benchmark times it
before the first op of a round, again before each op that starts 20 ms or
more after the last reference sample, and after the last op.  Each op's wall
time is divided by the mean of the two reference samples around it and
multiplied by REF_SECONDS, the routine's time on an uncontended core of the
machine the bounds were set on (2-vCPU KVM guest, Intel Xeon Sapphire
Rapids, Python 3.11).  A slow spell slows the op and the routine alike and
cancels out; a slower program is slower against the same routine and shows.
"""

import time
from fractions import Fraction

REF_SECONDS = 0.75e-3
# Take a new reference sample before an op once this much op time has passed
# since the last one; ops longer than this get one before each.
REF_GAP_SECONDS = 0.02

_MATRIX = [[Fraction((3 * i + 5 * j) % 11 + 1, (i * j) % 7 + 1) for j in range(7)]
           for i in range(6)]


def _eliminate():
    rows = [row[:] for row in _MATRIX]
    for col in range(6):
        pivot = rows[col][col]
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(6):
            if r != col:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return rows


def sample():
    """Wall seconds of one run of the reference routine."""
    t0 = time.perf_counter()
    _eliminate()
    return time.perf_counter() - t0


def scaled(wall, before, after):
    """wall seconds, scaled to the reference routine's REF_SECONDS."""
    return wall * REF_SECONDS * 2 / (before + after)
