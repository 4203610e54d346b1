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

``--census`` times nothing.  It runs every op of the three benchmark
workloads (``bench/workloads.py``) at ``--seeds``, and ``verify --R-list
5,10,20,40`` on each ``problems/*.json``, in process through
``expmean.cli.run``, and prints how many windings settled at each doubling
and how many failed, by error type.  The finest doubling at which a winding
settles is the least refinement cap that keeps every one of them.  It also
prints how many zero searches took the root route and how many bisected, with
the step at which the root route declined each of the latter: the basis is
not the default one, the Laurent image's degree is above the cap, the image
or its roots do not fit doubles, the claims do not add up to the outer
winding, a square missed its multiplicity, or a claim failed the residual
bound.

From the repository root:

    python tests/climbbench.py --repeats 7
    python tests/climbbench.py --root ../other-checkout
    python tests/climbbench.py --census --seeds 1,2,3

``--root`` (default: this checkout) names the checkout whose ``src/`` is
timed or counted, and whose ``bench/workloads.py`` and ``problems/`` the
census runs, so a checkout without this file can be measured too.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import glob
import io
import os
import resource
import sys
import tempfile
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


@contextlib.contextmanager
def winding_census(zf):
    """Count the ``_winding`` calls of the zerofind module zf while the block
    runs: yields a Counter of (doubling, outcome), where outcome is "settled"
    or the type name of the error raised, and the doubling is the number of
    contour levels evaluated, the batched first one included."""
    ratio, winding = zf._Workspace.ratio, zf._winding
    open_levels, outcomes = [], collections.Counter()

    def ratio_spy(self, level, env):
        if open_levels:
            open_levels[-1] += 1
        return ratio(self, level, env)

    def winding_spy(ws, rect, first=None):
        open_levels.append(int(first is not None))  # a batch evaluated first before the call
        outcome = "settled"
        try:
            return winding(ws, rect, first)
        except Exception as exc:
            outcome = type(exc).__name__
            raise
        finally:
            outcomes[open_levels.pop(), outcome] += 1

    zf._Workspace.ratio, zf._winding = ratio_spy, winding_spy
    try:
        yield outcomes
    finally:
        zf._Workspace.ratio, zf._winding = ratio, winding


@contextlib.contextmanager
def route_census(zf):
    """Count the zero searches of the zerofind module zf while the block runs:
    yields a Counter of "root" or the step at which the root route declined."""
    routes = collections.Counter()
    if not hasattr(zf, "_root_claims"):  # a checkout from before the root route
        yield routes
        return
    claims = zf._root_claims

    def spy(*args):
        out = claims(*args)
        routes[out if isinstance(out, str) else "root"] += 1
        return out

    zf._root_claims = spy
    try:
        yield routes
    finally:
        zf._root_claims = claims


DECLINES = ("basis", "degree", "solve", "count", "square", "residual")


def census(zf, run, root: str, seeds: list[int]) -> int:
    """Print the windings of each workload and seed, and of the sample
    problems, by the doubling at which they settled, and the failed ones."""
    sys.path.insert(0, os.path.join(root, "bench"))
    import workloads

    rows = []
    with tempfile.TemporaryDirectory() as work:
        for seed in seeds:
            for name in workloads.WORKLOADS:
                directory = os.path.join(work, f"{name}-{seed}")
                os.mkdir(directory)
                ops = workloads.build(name, seed, root)
                workloads.write_problems(ops, directory)
                rows.append((f"{name}:{seed}", [op.argv for op in ops]))
        samples = sorted(glob.glob(os.path.join(root, "problems", "*.json")))
        rows.append(("problems/*.json",
                     [["verify", "--R-list", "5,10,20,40", "--input", p] for p in samples]))
        counts = []
        for label, argvs in rows:
            with winding_census(zf) as outcomes, route_census(zf) as routes:
                for argv in argvs:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        run(argv)
            counts.append((label, outcomes, routes))
    cap = zf._MAX_EDGE_DOUBLINGS
    print(f"windings settled at each doubling (cap {cap}), and failed windings by error type")
    print(f"{'source':<20}" + "".join(f"{k:>7}" for k in range(1, cap + 1)) + "  failed")
    finest = 0
    for label, outcomes, _ in counts:
        settled = [outcomes[k, "settled"] for k in range(1, cap + 1)]
        failed = collections.Counter()
        for (k, outcome), c in outcomes.items():
            if outcome != "settled":
                failed[outcome] += c
        finest = max([finest] + [k for k, c in enumerate(settled, start=1) if c])
        print(f"{label:<20}" + "".join(f"{c:>7,}" for c in settled) + "  "
              + (", ".join(f"{t} {c:,}" for t, c in sorted(failed.items())) or "none"))
    print(f"finest settled doubling: {finest}")
    if not hasattr(zf, "_root_claims"):
        return 0
    print("\nzero searches by route, and the step at which the root route declined")
    print(f"{'source':<20}{'root':>7}{'bisect':>7}" + "".join(f"{d:>9}" for d in DECLINES))
    for label, _, routes in counts:
        declined = [routes[d] for d in DECLINES]
        print(f"{label:<20}{routes['root']:>7,}{sum(declined):>7,}"
              + "".join(f"{c:>9,}" for c in declined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=HERE)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--census", action="store_true",
                        help="count windings by the doubling at which they settle")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))
    from expmean import zerofind as zf
    from expmean.cli import run
    from expmean.sums import exp_sum

    if args.census:
        return census(zf, run, root, [int(s) for s in args.seeds.split(",")])

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
