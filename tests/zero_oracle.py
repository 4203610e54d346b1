"""Zero positions of rational sums held to references independent of the search.

A two-term sum c0 e(a0 z) + c1 e(a1 z) vanishes at
(log(-c0/c1) + 2 pi i k) / (2 pi a), a = a1 - a0.  A sum whose frequencies
have common denominator q is F(e(z/q)) for a polynomial F, so its zeros are
q (log w + 2 pi i k) / (2 pi) over the roots w of F; those roots come from
``mpmath.polyroots`` at 30 digits, apart from the ``numpy.roots`` solve of
the search's root route.  ``bench/checks.py`` ``closed_form_zeros`` is the
exemplar.  Zeros closer than CLUSTER_RADIUS are one reference claim at their
mean, of summed multiplicity, as both routes of the search claim them.

``problems`` draws sums with roots on |w| = 1 (zeros on Re z = 0, the first
cut of the bisection), arguments that put zeros on dyadic ordinates, double
and triple roots, and roots 1e-6 apart; ``zero_errors`` lists every way a
search's zeros miss the references.  ``root_route`` and ``bisection_route``
run a block's searches on one route and record that they did.
"""

from __future__ import annotations

import cmath
import contextlib
import itertools
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from expmean import zerofind

# zeros of a sum this close are one claim: the search's multiplicity squares
# have this half-side
CLUSTER_RADIUS = 1e-4
# a simple zero lies within this multiple of envelope/|f'(z)|: ten times what
# Newton's stopping rule |f| <= 1e-12 envelope allows; the worst seen over the
# drawn problems is 7.5e-13 on the bisection route and 4.9e-16 on the root route
SIMPLE_BOUND = 1e-11
# a claim of multiplicity m > 1 lies this far from its cluster's mean, at
# most.  Bisection claims Newton's point, which stops once |f| <= 1e-12
# envelope, so about (1e-12 m! envelope/|f^(m)|)^(1/m) from the zero: the
# worst seen over the drawn problems is 6.3e-7 for m = 2 (1.07e-6 on the
# benchmark's Laurent images) and 4.0e-5 for m = 3.  The root route claims
# the mean of the merged roots, which rounding moves far less than each
# root: the worst seen is 4.3e-16 for either m.
MULTIPLE_BOUND = {"bisection": {2: 2e-6, 3: 1e-4}, "root": {2: 1e-12, 3: 1e-12}}


def _terms(f) -> tuple[list[Fraction], list[complex]]:
    return f.freq_values(), [complex(c) for c in f.coeffs]


def _mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def _image_roots(F: list[complex]) -> list[tuple[mpmath.mpc, int]]:
    """(root, multiplicity) of the polynomial with ascending coefficients F.

    sympy splits F, exactly over the Gaussian rationals, into square-free
    factors, since Durand-Kerner converges only linearly to a multiple root;
    each factor's simple roots come from mpmath.polyroots."""
    import sympy

    coeffs = [sympy.Rational(*Fraction(c.real).as_integer_ratio())
              + sympy.I * sympy.Rational(*Fraction(c.imag).as_integer_ratio()) for c in F[::-1]]
    out = []
    for factor, m in sympy.Poly(coeffs, sympy.Symbol("w"), domain=sympy.QQ_I).sqf_list()[1]:
        poly = [mpmath.mpc(*(_mpf(Fraction(x.p, x.q)) for x in c.as_real_imag()))
                for c in factor.all_coeffs()]
        out += [(w, m) for w in mpmath.polyroots(poly, maxsteps=200, extraprec=60)]
    return out


@mpmath.workdps(30)
def reference_zeros(f, height: float) -> list[tuple[complex, int]]:
    """(position, multiplicity) of every claim with |Im z| < height, sorted."""
    freqs, coeffs = _terms(f)
    two_pi = 2 * mpmath.pi
    if len(coeffs) == 2:
        a = _mpf(freqs[1] - freqs[0])
        w = -mpmath.mpc(coeffs[0]) / mpmath.mpc(coeffs[1])
        families = [(mpmath.log(w) / (two_pi * a), 1 / a, 1)]
    else:
        q = math.lcm(*(a.denominator for a in freqs))
        F = [0j] * (int((freqs[-1] - freqs[0]) * q) + 1)
        for a, c in zip(freqs, coeffs):
            F[int((a - freqs[0]) * q)] = c
        families = [(q * mpmath.log(w) / two_pi, mpmath.mpf(q), m) for w, m in _image_roots(F)]
    zeros = []
    for z0, step, m in families:
        k = int(mpmath.floor((-height - z0.imag) / step))
        while z0.imag + k * step < height:
            if z0.imag + k * step > -height:
                zeros.append((z0 + 1j * k * step, m))
            k += 1
    # single-linkage clusters of zeros with multiplicity
    clusters: list[list] = []
    for z, m in zeros:
        near = [c for c in clusters if any(abs(z - v) <= CLUSTER_RADIUS for v, _ in c)]
        clusters = [c for c in clusters if c not in near] + [[(z, m), *itertools.chain(*near)]]
    claims = []
    for c in clusters:
        count = sum(m for _, m in c)
        claims.append((complex(mpmath.fsum(z * m for z, m in c) / count), count))
    return sorted(claims, key=lambda p: (p[0].imag, p[0].real))


@mpmath.workdps(30)
def _scale(f, z: complex) -> float:
    """envelope(Re z) / |f'(z)|: the displacement a unit relative residual allows."""
    freqs, coeffs = _terms(f)
    zm = mpmath.mpc(z)
    env = mpmath.fsum(abs(c) * mpmath.exp(2 * mpmath.pi * _mpf(a) * zm.real)
                      for a, c in zip(freqs, coeffs))
    df = mpmath.fsum(c * 2 * mpmath.pi * _mpf(a) * mpmath.exp(2 * mpmath.pi * _mpf(a) * zm)
                     for a, c in zip(freqs, coeffs))
    return float(env / abs(df))


def zero_errors(f, search, route: str) -> list[str]:
    """Every way the zeros of search, a ZeroSearch of f on route, miss the
    references: the claim count, a multiplicity, or a position beyond its bound."""
    ref = reference_zeros(f, search.height)
    found = [(z.location, z.multiplicity) for z in search.zeros]
    if len(found) != len(ref):
        return [f"{len(found)} claims found, the reference has {len(ref)}"]
    errors, unused = [], list(ref)
    for z, m in found:
        zr, mr = unused.pop(min(range(len(unused)), key=lambda i: abs(unused[i][0] - z)))
        if m != mr:
            errors.append(f"zero at {z} has multiplicity {m}, the reference {mr}")
            continue
        bound = SIMPLE_BOUND * _scale(f, zr) if m == 1 else MULTIPLE_BOUND[route][m]
        if abs(z - zr) > bound:
            errors.append(f"zero at {z} lies {abs(z - zr):.3g} from the reference, "
                          f"above {bound:.3g} (multiplicity {m})")
    return errors


@contextlib.contextmanager
def root_route():
    """A block whose searches run as they would: yields the outcome of each
    search's root route, its claims or the step at which it declined."""
    outcomes, claims = [], zerofind._root_claims
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zerofind, "_root_claims",
                   lambda *args: outcomes.append(claims(*args)) or outcomes[-1])
        yield outcomes


@contextlib.contextmanager
def bisection_route():
    """A block whose searches all bisect, the root route's degree cap being 0:
    yields the outer box of each search as its bisection starts."""
    starts, subdivide = [], zerofind._subdivide
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(zerofind, "_MAX_ROOT_DEGREE", 0)
        mp.setattr(zerofind, "_subdivide",
                   lambda ws, outer, *args: starts.append(outer) or subdivide(ws, outer, *args))
        yield starts


def _poly_from_roots(roots: list[complex]) -> list[complex]:
    """Ascending coefficients of prod (w - r)."""
    coeffs = [1 + 0j]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0j, *coeffs], [*coeffs, 0j])]
    return coeffs


# |w| = 1 puts zeros on Re z = 0, and arguments k pi/4 on dyadic ordinates
_ARGS = st.one_of(st.sampled_from([0.0, math.pi, math.pi / 2, -math.pi / 2, math.pi / 4]),
                  st.floats(-math.pi, math.pi))
_MODULI = st.one_of(st.just(1.0), st.sampled_from([0.5, 2.0]), st.floats(0.3, 3.0))
_ROOTS = st.builds(cmath.rect, _MODULI, _ARGS)
_SCALES = st.builds(cmath.rect, st.floats(0.5, 2.0), st.floats(-math.pi, math.pi))


@st.composite
def problems(draw) -> tuple[list[tuple[complex, Fraction]], float]:
    """(terms as (coefficient, frequency), R) of a two-term sum or a Laurent
    image with R <= 3."""
    scale = draw(_SCALES)
    if draw(st.booleans()):
        a = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        return [(-scale * draw(_ROOTS), Fraction(0)), (scale, a)], draw(st.floats(0.5, 3.0))
    q = draw(st.integers(1, 2))
    bases = draw(st.lists(_ROOTS, min_size=1, max_size=3))
    # distinct roots lie far apart in z, so only the planted twin is a cluster
    assume(all(q * abs(cmath.log(u / v)) / (2 * math.pi) > 1e-2
               for i, u in enumerate(bases) for v in bases[:i]))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(bases), max_size=len(bases)))
    roots = [w for w, m in zip(bases, mults) for _ in range(m)]
    if mults[0] == 1 and draw(st.booleans()):  # a twin whose zeros lie 1e-6 from the first's
        roots.append(bases[0] * cmath.exp(2 * math.pi * 1e-6 * cmath.rect(1, draw(_ARGS)) / q))
    assume(len(roots) <= 5)
    terms = [(scale * c, Fraction(k, q)) for k, c in enumerate(_poly_from_roots(roots))]
    return terms, draw(st.floats(0.5, 3.0))
