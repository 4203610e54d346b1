"""Time the series engine: ``mean_value`` on multi-basis sums and one
mean-series pass.

The multi-basis cases are over the basis {1, sqrt2, sqrt3} with
f = 1 + e(z) + e(sqrt2 z) + e(sqrt3 z): g = e(40 z), whose mean is an exact
0 reached through a long series, and g = e(-40 z) + 2 e((1 - 40 sqrt2 +
sqrt3) z).  Each is timed in float and in exact mode as the best of
``--repeats`` calls after one untimed warm-up call, and an exact case also
prints the number of ``GaussianRational`` objects one untimed call builds.
The pass is every op of the benchmark's mean-series workload at
``--seed``, run in process through ``expmean.cli.run`` with its output
discarded, also best of ``--repeats`` after a warm-up.  pytest does not
collect this file.

From the repository root:

    python tests/seriesbench.py --repeats 3
    python tests/seriesbench.py --root ../other-checkout

``--root`` (default: this checkout) names the checkout whose ``src/`` and
``bench/workloads.py`` are timed, so a checkout without this file can be
timed too.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SQRT2 = "1.41421356237309504880168872421"
SQRT3 = "1.73205080756887729352744634151"
F = [(1, (0, 0, 0)), (1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))]
CASES = [
    ("g = e(40)", [(1, (40, 0, 0))]),
    ("g = e(-40) + 2e(1 - 40 sqrt2 + sqrt3)", [(1, (-40, 0, 0)), (2, (1, -40, 1))]),
]


def best_of(repeats: int, fn) -> float:
    fn()
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t)
    return best


def built_rationals(cls, fn) -> int:
    """The number of cls objects fn() constructs."""
    count, init = 0, cls.__init__

    def counting(self, *args, **kwargs):
        nonlocal count
        count += 1
        init(self, *args, **kwargs)

    cls.__init__ = counting
    try:
        fn()
    finally:
        cls.__init__ = init
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=HERE)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    root = os.path.abspath(args.root)
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, os.path.join(root, "bench"))
    import workloads
    from expmean import cli
    from expmean.exact import GaussianRational
    from expmean.meanvalue import mean_value
    from expmean.sums import FrequencyBasis, exp_sum

    basis = FrequencyBasis(("1", SQRT2, SQRT3))
    print(f"mean_value over {{1, sqrt2, sqrt3}}, best of {args.repeats}")
    for name, g_terms in CASES:
        times = []
        for exact in (False, True):
            f, g = exp_sum(F, basis, exact), exp_sum(g_terms, basis, exact)
            times.append(best_of(args.repeats, lambda: mean_value(f, g)))
        built = built_rationals(GaussianRational, lambda: mean_value(f, g))
        print(f"{name}: {times[0] * 1e3:.1f} ms float, {times[1] * 1e3:.1f} ms exact, "
              f"{built} GaussianRationals built in exact mode")

    ops = workloads.build("mean-series", args.seed, root)
    with tempfile.TemporaryDirectory() as work:
        workloads.write_problems(ops, work)

        def one_pass() -> None:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                for op in ops:
                    cli.run(op.argv)

        best = best_of(args.repeats, one_pass)
    print(f"mean-series pass at seed {args.seed} ({len(ops)} ops): {best * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
