"""The real place's sample points against the Sturm sampler they replaced.

`real_region_samples` below is the earlier library code verbatim: it
isolates the real roots of the squarefree part of f by Sturm sequences over
`Fraction` polynomials and takes one point per region of constant sign.  The
library now takes the roots from the factors, which have degree at most 2,
so both must visit the same regions in the same order: on every curve and
side the factors' signs at the samples agree point by point.
"""

import random
from fractions import Fraction

import pytest

from richelot_ctp.curve import (
    PHI,
    PHIHAT,
    CurveError,
    Poly,
    _trim,
    build_pair,
    poly_derivative,
    poly_eval,
    poly_scale,
    real_root_samples,
)

# ---------------------------------------------------------------------------
# the oracle: Sturm isolation on the whole quintic or sextic
# ---------------------------------------------------------------------------


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f)
    quo = [Fraction(0)] * max(len(f) - len(g) + 1, 0)
    while len(rem) >= len(g) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(g):
            break
        k = len(rem) - len(g)
        c = rem[-1] / g[-1]
        quo[k] = c
        for i, gc in enumerate(g):
            rem[k + i] -= c * gc
        rem.pop()
    return _trim(quo), _trim(rem)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    while g:
        f, g = g, poly_divmod(f, g)[1]
    if f:
        f = poly_scale(f, 1 / f[-1])
    return f


def squarefree_part(f: Poly) -> Poly:
    return poly_divmod(f, poly_gcd(f, poly_derivative(f)))[0]


def _sturm_chain(f: Poly) -> list[Poly]:
    chain = [f, poly_derivative(f)]
    while chain[-1]:
        r = poly_divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(poly_scale(r, -1))
    return chain


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        val = poly_eval(p, x)
        if val:
            signs.append(1 if val > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def real_region_samples(f: Poly) -> list[Fraction]:
    """One rational sample point inside every maximal interval where f has
    constant nonzero sign (Sturm isolation; handles irrational roots)."""
    f = squarefree_part(f)
    if len(f) <= 1:
        return [Fraction(0)] if f and f[0] != 0 else []
    bound = 1 + max(abs(c) for c in f[:-1]) / abs(f[-1])
    chain = _sturm_chain(f)

    def roots_in(a, b):  # number of real roots in (a, b]
        return _sign_variations(chain, a) - _sign_variations(chain, b)

    # Cauchy bound: all real roots lie strictly inside (-bound, bound), so
    # interval endpoints are never roots as long as split points are nudged
    # off roots below
    intervals = [(-bound, bound)]
    isolated = []
    while intervals:
        a, b = intervals.pop()
        n = roots_in(a, b)
        if n == 0:
            continue
        if n == 1:
            isolated.append((a, b))
            continue
        m = (a + b) / 2
        k = 3
        while poly_eval(f, m) == 0:
            m = (a + (k - 1) * b) / k
            k += 1
        intervals.append((a, m))
        intervals.append((m, b))
    isolated.sort()
    samples = [isolated[0][0] - 1 if isolated else Fraction(0)]
    for (a1, b1), (a2, b2) in zip(isolated, isolated[1:]):
        gap = (b1 + a2) / 2 if b1 < a2 else b1
        samples.append(gap)
    if isolated:
        samples.append(isolated[-1][1] + 1)
    return [s for s in samples if poly_eval(f, s) != 0]


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------


def k_family(k):
    return build_pair(1, [2 * k, 1], [0, -6 * k, 1], [-7 * k * k, -6 * k, 1])


def large_prime(P):
    return build_pair(1, [0, 1], [-1, 0, 1], [-P * P, 0, 1])


def exhausting(P):
    return build_pair(1, [0, 1], [2, -3, 1], [5 * P, -(5 + P), 1])


# the 14 curves of the benchmark's four workloads
BENCHMARK = (
    [k_family(k) for k in (113, 17, 143, 2431, 46189, 1062347)]
    + [build_pair(2, [-1, 1], [30, -21, 3], [-11, -10, 1]),
       build_pair(1, [0, 1], [-1, 0, 1], [6, -5, 1]),
       build_pair(4, [Fraction(-1, 2), 1], [-1, 0, 1], [-12, 1, 1]),
       build_pair(-1, [0, 1], [-1, 0, 1], [-9, 0, 1])]
    + [large_prime(P) for P in (257, 1009)]
    + [exhausting(P) for P in (31, 97)])


def seeded_corpus(n, seed=2024):
    """n split models with small rational roots: 5-root models with a
    random lambda, and every fourth a 6-root one."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        rs = [Fraction(rng.randint(-40, 40), rng.choice((1, 1, 1, 2, 3, 5))) for _ in range(6)]
        lam = Fraction(rng.choice((-3, -1, 1, 2, 7)), rng.choice((1, 1, 4)))
        g1 = [-rs[0], 1] if len(out) % 4 else [rs[0] * rs[5], -(rs[0] + rs[5]), 1]
        try:
            out.append(build_pair(lam, g1, [rs[1] * rs[2], -(rs[1] + rs[2]), 1],
                                  [rs[3] * rs[4], -(rs[3] + rs[4]), 1]))
        except CurveError:
            continue
    return out


def sign_vectors(factors, xs):
    return [tuple((v > 0) - (v < 0) for v in (poly_eval(g, x) for g in factors)) for x in xs]


@pytest.mark.parametrize("corpus", ["benchmark", "seeded"])
def test_factor_roots_sample_the_regions_sturm_isolation_samples(corpus):
    curves = BENCHMARK if corpus == "benchmark" else seeded_corpus(240)
    kinds = {True: 0, False: 0}  # quadratics with irrational real roots, with complex ones
    for curve in curves:
        for side in (PHIHAT, PHI):
            data = curve.side_data(side)
            new = real_root_samples(data.factors, data.groups)
            assert new == sorted(new)
            old = real_region_samples(data.f)
            assert sign_vectors(data.factors, new) == sign_vectors(data.factors, old), (
                curve.label(), side)
            for g, grp in zip(data.factors, data.groups):
                if grp is None:
                    kinds[g[1] * g[1] - 4 * g[0] * g[2] > 0] += 1
    # the benchmark has 10 of each kind, the seeded corpus 478 and 234
    assert min(kinds.values()) >= (10 if corpus == "benchmark" else 200)


def test_factors_without_real_roots_give_the_sample_0():
    factors = ((Fraction(1), Fraction(0), Fraction(1)), (Fraction(5), Fraction(-2), Fraction(1)))
    assert real_root_samples(factors, (None, None)) == [Fraction(0)]
