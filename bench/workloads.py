"""Seeded problem generators for the three benchmark workloads.

Each workload is a fixed-length list of ops.  An op is one ``expmean``
command line run on a generated problem file, together with what the
checker needs to judge its output (closed-form zeros, the problem terms
for the reference mean, the frequency span).  Everything is drawn from
``random.Random(seed)`` or from a fixed stream; no problem is ever
re-drawn because it fails or runs slowly, so the list for a seed is the
same on every commit.

The module has no dependency on ``expmean``, so the generated files are
the only thing the program sees.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

SQRT2 = "1.41421356237309504880168872421"
SQRT3 = "1.73205080756887729352744634151"

# two-term sums c0 + c1 e^{2 pi a z} take every pair of a frequency over
# {1, sqrt 2} and a ratio w = -c0/c1.  |w| = 1 puts the zeros on Re z = 0,
# the first vertical cut of the bisection; arg w of 0, pi or +-pi/2 also puts
# them on dyadic ordinates, and (3+4i)/5 keeps them off those.
TWO_TERM_FREQS = [(0, 1), (1, 0), (1, 1), (0, 2)]
TWO_TERM_RATIOS = [1, -1, 1j, -1j, (3 + 4j) / 5, -0.5]
# Laurent images P(e^{2 pi z/q}): roots of P with the double one first, q,
# and R in units of q/degree.  Roots of modulus one sit on the vertical cut,
# and every root puts its zeros on a lattice of ordinates q apart.
LAURENT_CASES = [
    ([1, 1, -1], 1, 1.6), ([1, 1, -1], 2, 2.4), ([-1, -1, 1j], 1, 2.4), ([1j, 1j, -1j], 2, 1.6),
    ([2, 2, -1], 1, 1.6), ([-2, -2, 1j], 2, 2.4), ([1, 1, 2j], 1, 2.4), ([1j, 1j, -2], 2, 1.6),
    ([1, 1, -1, 2], 1, 1.6), ([-1, -1, 1j, -2j], 2, 2.4), ([2, 2, 1, -1], 1, 2.4),
    ([-1j, -1j, 1, 2], 2, 1.6), ([1, 1, -1j, -2], 1, 1.6), ([-2, -2, -1, 1j], 2, 2.4),
    ([1j, 1j, 1, -1], 1, 2.4), ([2j, 2j, -1, 1], 2, 1.6),
]
# frequency vectors over {1, sqrt 2, sqrt 3} whose values are at least
# 0.268 apart, so the series cutoffs of verify-generic stay small
GENERIC_FREQS = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0),
                 (1, 0, 1), (0, 1, 1), (0, 0, 2), (2, 0, 1), (1, 1, 1)]

# ops per workload; see BENCHMARK.json for why each workload exists
VERIFY_GENERIC = 30
# term counts of the mean-series sums; each sum runs laurent-check and a
# float mean, and every MEAN_EXACT_EVERY-th sum also an exact mean.  The
# cost of a sum varies by a sixth between draws, so a run needs many sums
# for its quantiles to hold still, and exact means cost five times as much
# as float ones.
MEAN_SIZES = [8] * 12 + [12] * 12 + [16] * 12
MEAN_EXACT_EVERY = 6
# highest |frequency| of g in mean-series, in units of f's smallest gap
MEAN_REACH = 40

WORKLOADS = ("zeros-aligned", "verify-generic", "mean-series")


@dataclass
class Op:
    """One command run: argv for ``expmean.cli.run`` plus checker data."""

    name: str
    kind: str  # zeros | verify | mean-exact | mean-float | laurent-check
    argv: list[str]
    problem: dict
    meta: dict = field(default_factory=dict)


def _term(coeff, freq) -> dict:
    return {"coeff": list(coeff), "freq": freq}


def _vec(v) -> list[str]:
    return [str(x) for x in v]


def _basis_value(v, basis) -> float:
    return sum(float(x) * float(b) for x, b in zip(v, basis))


def _complex_json(z: complex) -> list:
    re, im = z.real, z.imag
    return [int(re) if re == int(re) else re, int(im) if im == int(im) else im]


def _poly_from_roots(roots: list[complex]) -> list[complex]:
    """Ascending coefficients of prod (w - r)."""
    coeffs = [1 + 0j]
    for r in roots:
        nxt = [0j] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= r * c
        coeffs = nxt
    return coeffs


def _zeros_aligned(rng: random.Random) -> list[Op]:
    """A fixed design of zero configurations; the seed draws the rest.

    The cost of a search on these sums depends on where each zero sits
    against the cut lines, and configurations drawn at random moved a pass
    by a third between seeds.  So every seed runs the same configurations,
    and the seed draws the common phase and size of each sum's
    coefficients, which multiply f by a constant and leave its zeros in
    place, and the order of the ops.
    """
    basis = ["1", SQRT2]
    ops = []
    for i, (a, w) in enumerate(itertools.product(TWO_TERM_FREQS, TWO_TERM_RATIOS)):
        scale = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        c0, c1 = _complex_json(scale), _complex_json(-scale / w)
        R = (1.4 if i % 2 else 0.9) / _basis_value(a, basis)
        problem = {"basis": basis, "f": [_term(c0, ["0", "0"]), _term(c1, _vec(a))]}
        meta = {"form": "two-term", "c0": c0, "c1": c1, "a": list(a), "basis": basis,
                "n": 2, "span": _basis_value(a, basis)}
        ops.append(Op(f"two-term-{i:02d}", "zeros", ["zeros", "--R", repr(R)], problem, meta))
    for i, (roots, q, r) in enumerate(LAURENT_CASES):
        scale = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        coeffs = [scale * c for c in _poly_from_roots(roots)]
        d = len(coeffs) - 1
        f = [_term(_complex_json(c), str(Fraction(k, q))) for k, c in enumerate(coeffs) if c != 0]
        R = r * q / d
        mults: dict[complex, int] = {}
        for root in roots:
            mults[root] = mults.get(root, 0) + 1
        meta = {"form": "laurent", "q": q, "roots": [[z.real, z.imag, m] for z, m in mults.items()],
                "n": len(f), "span": d / q}
        ops.append(Op(f"laurent-{i:02d}", "zeros", ["zeros", "--R", repr(R)], {"f": f}, meta))
    rng.shuffle(ops)
    return ops


def _random_coeff(rng: random.Random) -> list[float]:
    z = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
    return [round(z.real, 3), round(z.imag, 3)]


def _verify_generic(rng: random.Random, root: str) -> list[Op]:
    """Random sums f drawn once for all seeds; the seed draws g and the rest.

    A random sum now and then puts a zero next to a cut line, and that one
    search costs four times the others, so sums drawn per seed moved a pass
    by an eighth between seeds.  The f are therefore drawn from a fixed
    stream; the seed draws g, a common factor on each f's coefficients,
    which leaves its zeros in place, and the order of the ops.
    """
    basis = ["1", SQRT2, SQRT3]
    design = random.Random("verify-generic sums")
    ops = []
    for i in range(VERIFY_GENERIC):
        n = 3 + i % 6  # the term count sets the cost of every evaluation
        vecs = sorted(design.sample(GENERIC_FREQS, n), key=lambda v: _basis_value(v, basis))
        coeffs = [complex(*_random_coeff(design)) for _ in vecs]
        span = _basis_value(vecs[-1], basis) - _basis_value(vecs[0], basis)
        # g frequencies from the two support semigroups near each end, or 0
        ends = [tuple(a - b for a, b in zip(vecs[0], vecs[j])) for j in (1, 2)]
        ends += [tuple(a - b for a, b in zip(vecs[-1], vecs[-1 - j])) for j in (1, 2)]
        gfreqs = rng.sample([(0, 0, 0)] + ends, rng.randint(1, 3))
        scale = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))
        problem = {
            "basis": basis,
            "f": [_term(_complex_json(c * scale), _vec(v)) for c, v in zip(coeffs, vecs)],
            "g": [_term(_random_coeff(rng), _vec(v)) for v in gfreqs],
        }
        r0 = 1.5 / span  # about three zeros on the lowest rung
        rungs = ",".join(repr(k * r0) for k in (1, 2, 3))
        meta = {"n": n, "span": span}
        ops.append(Op(f"generic-{i:02d}", "verify", ["verify", "--R-list", rungs], problem, meta))
    with open(os.path.join(root, "problems", "sqrt2.json"), encoding="utf-8") as fh:
        sqrt2 = json.load(fh)
    ops.append(Op("sqrt2", "verify", ["verify", "--R-list", "1,2,3"], sqrt2,
                  {"n": 3, "span": float(SQRT2)}))
    rng.shuffle(ops)
    return ops


def _small_coeff(rng: random.Random) -> tuple[int, int]:
    while True:
        c = (rng.randint(-2, 2), rng.randint(-2, 2))
        if c != (0, 0):
            return c


def _mean_series(rng: random.Random) -> list[Op]:
    """Sums f and g drawn from the seed, with no condition on their coefficients.

    Each end of f keeps a unit frequency gap, so each end's series runs
    MEAN_REACH rounds whatever the draws.  Every sum gets laurent-check
    whatever its roots: on about a fifth of them the program's root solve
    does not converge and exits 3, which the run counts as a failed op.
    """
    ops = []
    for i, n in enumerate(MEAN_SIZES):
        top = n + n // 2
        freqs = [0, 1] + sorted(rng.sample(range(2, top - 2), n - 4)) + [top - 2, top - 1]
        K = MEAN_REACH
        gfreqs = [-K, K, rng.randint(-K // 2, K // 2)]
        f = [_term(_small_coeff(rng), str(a)) for a in freqs]
        g = [_term(_small_coeff(rng), str(b)) for b in gfreqs]
        meta = {"n": n, "pair": i}
        for mode in ("exact", "float") if i % MEAN_EXACT_EVERY == 0 else ("float",):
            problem = {"mode": mode, "f": f, "g": g}
            ops.append(Op(f"series-{i:02d}-{mode}", f"mean-{mode}", ["mean"], problem, meta))
        problem = {"mode": "float", "f": f, "g": g}
        ops.append(Op(f"series-{i:02d}-check", "laurent-check", ["laurent-check"], problem, meta))
    rng.shuffle(ops)  # interleave modes and sizes
    return ops


def build(workload: str, seed: int, root: str) -> list[Op]:
    """The op list of a workload for a seed; ``root`` is the repository root."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "zeros-aligned":
        return _zeros_aligned(rng)
    if workload == "verify-generic":
        return _verify_generic(rng, root)
    if workload == "mean-series":
        return _mean_series(rng)
    raise ValueError(f"unknown workload {workload!r}")


def write_problems(ops: list[Op], directory: str) -> None:
    """Write each op's problem file and point its argv at it."""
    for op in ops:
        path = os.path.join(directory, op.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op.problem, fh)
        op.argv = op.argv + ["--input", path]


def probe_ops(root: str) -> list[Op]:
    """One small run of every command on the repository's sample problems."""
    p = os.path.join(root, "problems")
    return [
        Op("probe-zeros", "zeros", ["zeros", "--R", "1", "--input", os.path.join(p, "sqrt2.json")], {}),
        Op("probe-verify", "verify",
           ["verify", "--R-list", "0.5,1", "--input", os.path.join(p, "sqrt2.json")], {}),
        Op("probe-mean-exact", "mean-exact", ["mean", "--input", os.path.join(p, "two_term.json")], {}),
        Op("probe-mean-float", "mean-float", ["mean", "--input", os.path.join(p, "sqrt2.json")], {}),
        Op("probe-laurent", "laurent-check",
           ["laurent-check", "--input", os.path.join(p, "laurent_quadratic.json")], {}),
    ]
