"""Time one capped winding climb: f'/f evaluation per contour point.

A climb is one ``_winding`` on a rect whose left edge runs through a zero:
its Simpson values never settle, so it refines through every doubling up to
the cap and raises ContourTooCloseError, as the capped contours of the
zeros-aligned benchmark workload do.  Each case is timed as the best of
``--repeats`` climbs after one untimed warm-up climb, and the minor page
faults of the timed climbs are counted with ``resource.getrusage`` and
averaged.  The report gives the best time, the nanoseconds per contour
point (every sample of every level, where f and f' are both evaluated) and
the faults per climb.  pytest does not collect this file.

From the repository root:

    python tests/climbbench.py --repeats 7
    python tests/climbbench.py --root ../other-checkout

``--root`` (default: this checkout) names the checkout whose ``src/`` is
timed, so a checkout without this file can be timed too.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, terms as (coefficient, frequency), rect (re_min, re_max, im_min, im_max))
CASES = [
    # the zero i/2 lies on the left edge Re z = 0
    ("1 + e(z)", [(1, 0), (1, 1)], (0.0, 1.0, 0.1, 0.8)),
    # a Laurent image P(e(z/2)) of degree 4; its zero near 0.1001 + 0.1753i lies
    # on the left edge
    ("1 + 2e(z/2) + i e(z) - 2e(3z/2) + e(2z)",
     [(1, 0), (2, "1/2"), (1j, 1), (-2, "3/2"), (1, 2)],
     (0.10011009644206033, 1.1, 0.0, 0.5)),
]


def climb(zf, ws, rect) -> None:
    try:
        zf._winding(ws, rect)
    except zf.ContourTooCloseError:
        return
    raise SystemExit(f"the winding over {rect} settled: it is not a capped climb")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=HERE)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    sys.path.insert(0, os.path.join(os.path.abspath(args.root), "src"))
    from expmean import zerofind as zf
    from expmean.sums import exp_sum

    # each level evaluates f and f' at 4 (n + 1) samples, n = E * 2**k for k = 1..cap
    points = sum(4 * ((zf._EDGE_SAMPLES << k) + 1) for k in range(1, zf._MAX_EDGE_DOUBLINGS + 1))
    print(f"{points:,} contour points per climb, best of {args.repeats}")
    for name, terms, box in CASES:
        ws, rect = zf._Workspace(exp_sum(terms)), zf.Rect(*box)
        climb(zf, ws, rect)
        best, faults = float("inf"), 0
        for _ in range(args.repeats):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t = time.perf_counter()
            climb(zf, ws, rect)
            best = min(best, time.perf_counter() - t)
            faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        print(f"{name}: {best * 1e3:.1f} ms, {best * 1e9 / points:.1f} ns per contour point, "
              f"{faults / args.repeats:,.0f} minor faults per climb")
    return 0


if __name__ == "__main__":
    sys.exit(main())
