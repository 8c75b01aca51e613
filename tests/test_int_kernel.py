"""The integer kernel against the Fraction code it replaced.

`poly_eval`, the square classes and their packed masks, the Hilbert
symbol, the quadratic certificate, the Taylor coefficients at the search's
centres and the slot values of the descent maps run on integer numerators
and denominators.  The references below are the straightforward Fraction
versions: Horner's rule on Fractions, the square class read through
`valuation` and `_unit_residue`, the closed form Hilbert symbol on those, the
norm-trace certificate on Fractions and 80-digit p-adics (`padic_oracle`),
the Taylor expansion on Fractions (`fraction_taylor`), and the quintuple
map's evaluator.
They are compared on seeded random inputs, the singles tier's point
decision is compared with evaluating f itself on every candidate, and the
quintuple map with its evaluator on every divisor the search walks yield.
"""

import collections
import itertools
import math
import random
from fractions import Fraction

import pytest

from curve_fixtures import (BENCHMARK_CURVES, class_bits, class_mask, fixture_curve, k_family,
                            quadratic_mumford_certificate, square_class_bits)
from hilbert_oracle import _unit_residue
from padic_oracle import InsufficientPrecision, PadicApprox, legendre
import richelot_ctp.curve as curve_module
import richelot_ctp.localpoints as lp
from richelot_ctp.cohomology import LocalKummerQuintuple
from richelot_ctp.curve import (
    INF,
    PHI,
    PHIHAT,
    CurveError,
    _common_denominator,
    build_pair,
    homogenized_eval,
    poly_eval,
    poly_integer_form,
    rational_sqrt,
)
from richelot_ctp.localfield import (
    _mod_quadratic_ints,
    _smallest_nonresidue,
    hilbert_symbol,
    is_local_square,
    local_square_class,
    place_name,
    places_of,
    sqrt_mod_pk,
    square_class_mask,
    valuation,
)
from richelot_ctp.arith import bad_places
from richelot_ctp.localpoints import (
    SearchConfig,
    _block_step,
    _generic,
    _quadratic_blocks,
    _quadratic_mask,
    _res2,
    _slot_values,
    _square_points,
    _torsion_divisors,
    _unit_residues,
    _walk,
    _x_blocks,
    mu_two,
)
from test_search_oracle import flat_feed

PRIMES = (2, 3, 1009, 10007)
PLACES = [0, *PRIMES]
OTHER = (1, 3, 5, 7, 11, 13, 1009, 10007)
ROUNDS = [SearchConfig(), SearchConfig().escalate(), SearchConfig().escalate().escalate()]

FRACTIONAL = build_pair(4, [Fraction(-1, 2), 1], [-1, 0, 1], [-12, 1, 1])
IRRATIONAL = build_pair(1, [0, 1], [-1, 0, 1], [6, -5, 1])
A257 = build_pair(1, [0, 1], [-1, 0, 1], [-257 * 257, 0, 1])
K113 = build_pair(1, [226, 1], [0, -678, 1], [-7 * 113 * 113, -678, 1])
B31 = build_pair(1, [0, 1], [2, -3, 1], [5 * 31, -(5 + 31), 1])
B97 = build_pair(1, [0, 1], [2, -3, 1], [5 * 97, -(5 + 97), 1])


# ---------------------------------------------------------------------------
# the Fraction references
# ---------------------------------------------------------------------------


def fraction_horner(f, x):
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def reference_class(x, v):
    x = Fraction(x)
    p = v
    if not p:
        return (1 if x < 0 else 0,)
    val = valuation(x, p)
    if p == 2:
        u8 = _unit_residue(x, 2, 8)
        return (val & 1, 1 if u8 in (3, 7) else 0, 1 if u8 in (5, 7) else 0)
    u = _unit_residue(x, p, p)
    return (val & 1, 0 if legendre(u, p) == 1 else 1)


def reference_hilbert(a, b, v):
    a, b = Fraction(a), Fraction(b)
    p = v
    if not p:
        return -1 if (a < 0 and b < 0) else 1
    alpha, beta = valuation(a, p), valuation(b, p)
    if p == 2:
        u8, w8 = _unit_residue(a, 2, 8), _unit_residue(b, 2, 8)
        eps_u, eps_w = (u8 - 1) // 2 % 2, (w8 - 1) // 2 % 2
        eta_u, eta_w = (u8 * u8 - 1) // 8 % 2, (w8 * w8 - 1) // 8 % 2
        e = eps_u * eps_w + alpha * eta_w + beta * eta_u
        return -1 if e % 2 else 1
    u, w = _unit_residue(a, p, p), _unit_residue(b, p, p)
    s = 1
    if alpha % 2 and beta % 2 and p % 4 == 3:
        s = -s
    if beta % 2 and legendre(u, p) == -1:
        s = -s
    if alpha % 2 and legendre(w, p) == -1:
        s = -s
    return s


def reference_is_square(x, v):
    return not any(reference_class(x, v))


def reference_mod_quadratic(f, a, b):
    u, w = Fraction(0), Fraction(0)
    for c in reversed(f):
        u, w = w - a * u, c - b * u
    return u, w


def reference_res2(a, b, L):
    e1, e2 = -a, b
    c0, c1, c2 = (list(L) + [Fraction(0)] * 3)[:3]
    return (c2 * c2 * e2 * e2 + c2 * c1 * e1 * e2 + c2 * c0 * (e1 * e1 - 2 * e2)
            + c1 * c1 * e2 + c1 * c0 * e1 + c0 * c0)


def reference_quintuple_values(D, curve):
    """The Fraction evaluator the quintuple map had before it shared the
    integer slot-value code: slot i is (x1 - w_i)(x2 - w_i), where a
    Weierstrass point w_i contributes lambda prod_{l != i} (w_i - w_l) to
    its own slot and infinity lambda to every slot."""
    roots, lam = curve.domain_data.roots, curve.domain_data.f[-1]
    if D.tag == "quadratic":
        return tuple(reference_res2(*D.quad, (-w, 1)) for w in roots)
    if D.tag == "weierstrass_pair":
        points = [None if m == INF else roots[m] for m in D.torsion]
    else:
        points = list(D.xs) + [None] * (D.tag == "point_plus_infinity")
    vals = [Fraction(1)] * 5
    for x in points:
        if x is None:
            vals = [y * lam for y in vals]
        else:
            vals = [y * (x - w if x != w else lam * math.prod(w - wl for wl in roots if wl != w))
                    for y, w in zip(vals, roots)]
    return tuple(vals)


def reference_certificate(f, a, b, v, prec=80):
    u, w = reference_mod_quadratic(f, a, b)
    disc = a * a - 4 * b
    if not v:
        return not (u == 0 and w == 0)
    if u == 0:
        if w == 0:
            return True
        return reference_is_square(w, v) or (disc != 0 and reference_is_square(w * disc, v))
    norm = w * w - a * u * w + b * u * u
    if norm == 0 or not reference_is_square(norm, v):
        return False
    tr = 2 * w - a * u
    n = rational_sqrt(norm)
    if n is not None:
        return any(t != 0 and reference_is_square(t, v)
                   for t in (tr + 2 * n, tr - 2 * n))
    p = v
    n_pad = PadicApprox.from_rational(norm, p, prec).sqrt()
    tr_pad = PadicApprox.from_rational(tr, p, prec)
    two = PadicApprox.from_rational(2, p, prec)
    return any((tr_pad + two * nu).is_square() for nu in (n_pad, -n_pad))


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------


def random_rational(rng, p, zero_ok=False):
    """A signed rational whose numerator and denominator mix powers of p
    (2 at the real place) with other primes and large cofactors."""
    q = p or 2
    n = rng.randint(0 if zero_ok else 1, 10 ** rng.randint(1, 25)) * q ** rng.randint(0, 5)
    d = rng.randint(1, 10 ** rng.randint(0, 15)) * q ** rng.randint(0, 5) * rng.choice(OTHER)
    return Fraction(rng.choice((-1, 1)) * n, d)


def random_poly(rng, p, degree):
    f = [random_rational(rng, p, zero_ok=True) for _ in range(degree)]
    return tuple(f + [random_rational(rng, p)])


CURVE_POLYS = (list(FRACTIONAL.G) + list(FRACTIONAL.L)
               + [FRACTIONAL.domain_data.f, FRACTIONAL.codomain_data.f]
               + list(IRRATIONAL.L) + [IRRATIONAL.codomain_data.f])


# ---------------------------------------------------------------------------
# the kernel against the references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("v", PLACES, ids=place_name)
def test_poly_eval_matches_fraction_horner(v):
    rng = random.Random(f"poly_eval {place_name(v)}")
    polys = [random_poly(rng, v, deg) for deg in range(7) for _ in range(8)]
    polys += CURVE_POLYS + [(), (Fraction(5, 3),)]
    for f in polys:
        for _ in range(12):
            x = random_rational(rng, v, zero_ok=True)
            assert poly_eval(f, x) == fraction_horner(f, x)
        assert poly_eval(f, 7) == fraction_horner(f, Fraction(7))


# the homogenized form itself, not only its quotient: the search reads a
# factor's class from these two integers, and the evaluation is written out
# for degree 1 and 2, so both must be sum C_i n^i d^(k-i) and d^k exactly,
# for n negative, zero and positive, d = 1 and d > 1, and ints of up to 60
# digits
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_homogenized_eval_is_the_homogenized_fraction_horner(degree):
    rng = random.Random(f"homogenized_eval {degree}")

    def big():
        return rng.randint(1, 10 ** rng.randint(1, 60))

    cases = [([rng.choice((-1, 0, 1)) * big() for _ in range(degree)] + [rng.choice((-1, 1)) * big()],
              rng.choice((-1, 0, 1)) * big(), rng.choice((1, big())))
             for _ in range(300)]
    cases += [([3, -5, 7, 2, -1][:degree + 1], n, d) for n in (-4, 0, 4) for d in (1, 6)]
    for C, n, d in cases:
        acc, dk = homogenized_eval(C, n, d)
        assert dk == d ** degree, (C, n, d)
        assert acc == sum(c * n ** i * d ** (degree - i) for i, c in enumerate(C)), (C, n, d)
        assert Fraction(acc, dk) == fraction_horner(C, Fraction(n, d)), (C, n, d)
    assert {n for _, n, _ in cases} >= {-4, 0, 4} and any(d > 10 ** 30 for *_, d in cases)


@pytest.mark.parametrize("v", PLACES, ids=place_name)
def test_square_class_matches_valuation_and_unit_residue(v):
    rng = random.Random(f"square class {place_name(v)}")
    for _ in range(800):
        x = random_rational(rng, v)
        assert class_bits(local_square_class(x, v), v) == reference_class(x, v)
        # the kernel also reads classes off unreduced and negative-denominator
        # pairs such as (acc, den d^k)
        k = rng.choice((-1, 1)) * rng.randint(1, 10 ** 6) * (v or 2) ** rng.randint(0, 3)
        assert square_class_bits(x.numerator * k, x.denominator * k, v) == reference_class(x, v)
    for n in (1, -1, 2, -2, 3, 5, 7, 8, 12, -1009, 10007 * 4):
        assert class_bits(local_square_class(n, v), v) == reference_class(n, v)
    assert class_bits(local_square_class("3/4", v), v) == reference_class(Fraction(3, 4), v)
    with pytest.raises(ValueError):
        local_square_class(0, v)
    with pytest.raises(ValueError):
        square_class_bits(0, 5, v)


# the packed class is the reference class's bits in one int, on seeded n/d
# with either sign, p dividing neither, one or both, to powers up to p^12
@pytest.mark.parametrize("v", [0, 2, 3, 5, 23, 1009], ids=place_name)
def test_square_class_mask_is_the_packed_reference_class(v):
    rng = random.Random(f"square class mask {place_name(v)}")
    q = v or 2
    cases = collections.Counter()
    for _ in range(1000):
        n = (rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(1, 30))
             * q ** rng.choice((0, 0, rng.randint(1, 12))))
        d = rng.randint(1, 10 ** rng.randint(0, 20)) * q ** rng.choice((0, 0, rng.randint(1, 12)))
        want = class_mask([reference_class(Fraction(n, d), v)])
        assert square_class_mask(n, d, v) == want, (n, d)
        assert square_class_mask(-n, -d, v) == want, (n, d)  # a negative denominator
        assert square_class_bits(n, d, v) == reference_class(Fraction(n, d), v)
        cases[n < 0, n % q == 0, d % q == 0] += 1
    assert len(cases) == 8, cases
    for n, d in ((0, 5), (-3, 0), (0, 0)):
        with pytest.raises(ValueError):
            square_class_mask(n, d, v)


@pytest.mark.parametrize("v", PLACES, ids=place_name)
def test_hilbert_symbol_matches_the_old_closed_form(v):
    rng = random.Random(f"hilbert {place_name(v)}")
    for _ in range(800):
        a, b = random_rational(rng, v), random_rational(rng, v)
        assert hilbert_symbol(a, b, v) == reference_hilbert(a, b, v)
    small = [Fraction(n) for n in (-7, -5, -3, -2, -1, 1, 2, 3, 5, 6, 7)]
    for a in small:
        for b in small:
            assert hilbert_symbol(a, b, v) == reference_hilbert(a, b, v)


def random_quadratic(rng, p, kind):
    """(a, b) of a monic x^2 + a x + b: random, with rational roots, or with
    a double root."""
    if kind == "random":
        return random_rational(rng, p, zero_ok=True), random_rational(rng, p)
    r1 = random_rational(rng, p, zero_ok=True)
    r2 = r1 if kind == "double root" else random_rational(rng, p, zero_ok=True)
    return -(r1 + r2), r1 * r2


@pytest.mark.parametrize("p", (2, 3, 5, 17, 257, 1009))
def test_quadratic_kernel_matches_fraction_references(p):
    rng = random.Random(f"quadratic {p}")
    polys = CURVE_POLYS + [random_poly(rng, p, deg) for deg in (2, 5, 6) for _ in range(3)]
    agree = collections.Counter()
    for f in polys:
        for kind in ("random", "reducible", "double root"):
            for _ in range(25 if kind == "random" else 10):
                a, b = random_quadratic(rng, p, kind)
                A = _common_denominator(a.as_integer_ratio(), b.as_integer_ratio())
                U, W, s = _mod_quadratic_ints(poly_integer_form(f), *A)
                assert (Fraction(U, s), Fraction(W, s)) == reference_mod_quadratic(f, a, b)
                for L in ((Fraction(-3), Fraction(1)), f[:3]):
                    got = _res2(*A, poly_integer_form(L))
                    assert Fraction(*got) == reference_res2(a, b, L)
                want = reference_certificate(f, a, b, p)
                assert quadratic_mumford_certificate(f, (a, b), p) == want, (f, a, b)
                agree[kind, want] += 1
    # every kind of A both passes and fails the certificate
    assert len(agree) == 6, agree


@pytest.mark.parametrize("p", (2, 3, 17))
def test_quadratic_certificate_runs_out_of_digits_like_the_reference(p):
    # at 1 to 4 p-adic digits the reference's irrational-norm branch often
    # runs out of digits; where it decides, the exact certificate agrees
    # with it, and where it runs out, the exact certificate is the 80-digit
    # reference's answer
    rng = random.Random(f"low precision {p}")
    outcomes = collections.Counter()
    for f in CURVE_POLYS:
        for _ in range(40):
            a, b = random_rational(rng, p, zero_ok=True), random_rational(rng, p)
            got = quadratic_mumford_certificate(f, (a, b), p)
            try:
                want = reference_certificate(f, a, b, p, rng.choice((1, 2, 3, 4)))
                outcomes[want] += 1
            except InsufficientPrecision:
                want = reference_certificate(f, a, b, p)
                outcomes[InsufficientPrecision] += 1
            assert got == want, (f, a, b)
    assert set(outcomes) == {True, False, InsufficientPrecision}


@pytest.mark.parametrize("p", (2, 3, 5))
def test_quadratic_certificate_is_exact_where_24_digits_run_out(p):
    # f = B^2 + a p-adically small perturbation against A = (x + c p^k)^2 -
    # d p^(2k), whose discriminant 4 d p^(2k) makes Tr xi - 2 N(B) cancel
    # deeply: the 24-digit reference runs out of digits on some of these,
    # and the exact certificate is the 80-digit reference's answer on all
    rng = random.Random(f"deep cancellation {p}")
    outcomes = collections.Counter()
    for _ in range(400):
        k, c = rng.randint(0, 16), rng.randint(-30, 30)
        d = rng.choice((-1, 1)) * rng.randint(1, 50)
        a, b = 2 * c * p ** k, (c * c - d) * p ** (2 * k)
        b1, b0 = Fraction(rng.randint(1, 40), rng.choice((1, 5, 11))), rng.randint(-40, 40)
        f = tuple(y + rng.randint(-3, 3) * Fraction(p) ** rng.randint(0, 40)
                  for y in (b0 * b0, 2 * b1 * b0)) + (b1 * b1,)
        want = reference_certificate(f, a, b, p)
        assert quadratic_mumford_certificate(f, (a, b), p) == want, (f, a, b)
        try:
            reference_certificate(f, a, b, p, 24)
            outcomes[want] += 1
        except InsufficientPrecision:
            outcomes[InsufficientPrecision] += 1
    assert set(outcomes) == {True, False, InsufficientPrecision}, outcomes


@pytest.mark.parametrize("p", (2, 3, 5, 13, 257))
def test_sqrt_mod_pk_is_a_truncated_root(p):
    # a root mod p^k squares back to u mod p^k, and it is the truncation of
    # a root in Z_p: the 24-digit reference root or its negative, mod p^k
    rng = random.Random(f"sqrt {p}")
    for _ in range(300):
        u = rng.randint(1, 10 ** 20) ** 2 * (1 + 8 * rng.randint(0, 10 ** 6))
        while u % p == 0:
            u //= p
        if p != 2 and legendre(u % p, p) == -1:
            continue
        k = rng.randint(1, 12)
        m = p ** k
        r = sqrt_mod_pk(u, p, k)
        assert 0 <= r < m and (r * r - u) % m == 0
        ref = PadicApprox.from_rational(u, p).sqrt().unit
        assert r in (ref % m, -ref % m)
    for u in ((3, 5, 7) if p == 2 else (p, _smallest_nonresidue(p))):
        with pytest.raises(ValueError, match="is not a square unit"):
            sqrt_mod_pk(u, p, 4)


@pytest.mark.parametrize("curve, p", [(A257, 257), (IRRATIONAL, 7), (IRRATIONAL, 3)],
                         ids=["A257@257", "irrational@7", "irrational@3"])
@pytest.mark.parametrize("side", [PHIHAT, PHI])
def test_singles_factor_xor_decides_like_evaluating_f(curve, p, side):
    f = curve.side_data(side).f
    polys = curve.G if side == PHIHAT else curve.L
    xs = flat_feed(curve, side, p, SearchConfig())
    expected = []
    for n, d in xs:
        x = Fraction(n, d)
        fx = poly_eval(f, x)
        if fx != 0 and is_local_square(fx, p):
            assert reference_is_square(fraction_horner(f, x), p)
            expected.append((x, class_mask(reference_class(fraction_horner(g, x), p)
                                           for g in polys)))
    # the reader without a cut walks every x of the flat feed, in its order
    read = list(_square_points(curve, side, p, SearchConfig()))
    got = [(Fraction(n, d), mask) for n, d, mask in filter(None, read)]
    assert got == expected
    # one step mark per block
    assert read.count(None) == len(list(_x_blocks(curve, side, p, SearchConfig())))
    assert len(got) < len(xs)
    # fhat(x) is a square in Q_7 at none of the irrational codomain's
    # candidates (its image at 7 comes from torsion and quadratic divisors)
    assert got or (curve is IRRATIONAL and side == PHI and p == 7)


def check_x_blocks(curve, cfg):
    """At every bad prime, both sides, in every block of `_x_blocks` under
    cfg: each factor the block flags dominated is nonzero at every candidate
    and has one class per unit class of r, read from Fractions.  Returns the
    number of blocks with every factor dominated, with some, and with none."""
    counts = collections.Counter()
    for p in bad_places(curve).finite_primes:
        units = _unit_residues(p, cfg.residue_exponent)
        for side in (PHIHAT, PHI):
            polys = curve.G if side == PHIHAT else curve.L
            for c, j, dominated in _x_blocks(curve, side, p, cfg):
                counts["all" if all(dominated) else "some" if any(dominated) else "none"] += 1
                by_class = {}
                step, d = _block_step(c, j, p)
                for r in units:
                    n = c.numerator + r * step
                    assert Fraction(n, d) == c + r * Fraction(p) ** j and math.gcd(n, d) == 1
                    unit_class = r % 8 if p == 2 else legendre(r % p, p)
                    for i, g in enumerate(polys):
                        if dominated[i]:
                            y = fraction_horner(g, Fraction(n, d))
                            where = (p, side, str(c), j, r, i)
                            assert y != 0, where
                            got = by_class.setdefault((i, unit_class), reference_class(y, p))
                            assert got == reference_class(y, p), where
    return counts


# a dominated factor is read once per block and unit class; every candidate
# of the class must then have the class its first one has, on both sides,
# at every bad prime, under the default grid, a small one and a large one
@pytest.mark.parametrize("cfg", [SearchConfig(), SearchConfig(residue_exponent=1, val_bound=2),
                                 SearchConfig(residue_exponent=6, val_bound=8)],
                         ids=["default", "residue_exponent=1-val_bound=2",
                              "residue_exponent=6-val_bound=8"])
@pytest.mark.parametrize("curve", [K113, FRACTIONAL, IRRATIONAL, A257, B97],
                         ids=["k113", "fractional", "irrational", "A257", "B97"])
def test_a_generic_block_has_one_class_tuple_per_unit_class(curve, cfg):
    counts = check_x_blocks(curve, cfg)
    assert counts["all"] and counts["some"], counts  # both kinds of block occur


def test_the_x_block_check_catches_a_wrong_rule(monkeypatch):
    # a rule that flagged every factor dominated would read one class per
    # unit class where the candidates of the class have several; on a fresh
    # A257, since a curve keeps the flags it has read (`_dominance`)
    monkeypatch.setattr(lp, "_generic", lambda terms, js: True)
    with pytest.raises(AssertionError):
        check_x_blocks(build_pair(1, [0, 1], [-1, 0, 1], [-257 * 257, 0, 1]), SearchConfig())


# no block is walked twice: a rational root is not found again by the root
# scan, and a root at 0 is not walked again by the grid; the domain's roots
# are all rational, so its centres are exactly its roots
@pytest.mark.parametrize("curve", [K113, FRACTIONAL, IRRATIONAL, A257, B31, B97],
                         ids=["k113", "fractional", "irrational", "A257", "B31", "B97"])
def test_each_block_comes_once_and_the_domain_centres_are_its_roots(curve):
    for p in bad_places(curve).finite_primes:
        for side in (PHIHAT, PHI):
            blocks = [(c, j) for c, j, _ in _x_blocks(curve, side, p, SearchConfig())]
            assert len(blocks) == len(set(blocks)), (p, side)
            if side == PHIHAT:
                # the grid is the blocks at c = 0
                assert {c for c, _ in blocks} == set(curve.domain_data.roots) | {0}, p


# margin 1 at p = 2 as at odd p: candidates at 2 are grouped by r mod 8, so
# one dominant Taylor term fixes the factor classes (the generic-block test
# above checks every block this marks generic); a margin of 3 at 2 makes only
# 12 of these 37 blocks generic
def test_most_domain_blocks_at_2_are_generic():
    blocks = list(_x_blocks(K113, PHIHAT, 2, SearchConfig()))
    assert len(blocks) == 37
    assert sum(all(dominated) for _, _, dominated in blocks) >= 29


# the valuations of the Taylor coefficients depend only on the centre and
# the prime: a later round's walk reads them from the first one's (the walk
# used to recompute them at every centre in every round); they are read from
# the integer numerators and denominators, never from a Fraction
def test_taylor_valuations_are_computed_once_per_centre_and_prime(count_calls):
    curve = k_family(143)  # a fresh curve: the valuations live on its SideData
    calls = count_calls(curve_module, "valuation", lambda args: (args[1], type(args[0])))
    for p in bad_places(curve).finite_primes:
        # the domain's centres are its roots and 0 in every round
        list(_x_blocks(curve, PHIHAT, p, ROUNDS[0]))
        first = calls[p, int]
        for cfg in ROUNDS[1:]:
            list(_x_blocks(curve, PHIHAT, p, cfg))
        assert 0 < first == calls[p, int], p
    assert {kind for _, kind in calls} == {int}, calls


# the dominated flags depend only on the Taylor valuations and a block's
# exponents, so a curve keeps them per side and prime (`_dominance`), and the
# walks ask `_generic` once per distinct (terms, exponents).  One
# `local_images` at B97@23, where both walks ran to their end, asked it 892
# times for 242 distinct pairs: 157 on the domain and 121 on the codomain,
# 36 of them on both sides; a second walk on the same curve asks none.  The
# domain's walk now ends before its quadratic tier there, once its
# 2-descent images are full, having asked 44, none of them asked on the
# codomain; with that certificate stubbed off it runs to its end again
def test_the_dominated_flags_are_computed_once_per_side_prime_and_terms(
        monkeypatch, without_descent_certificate):
    calls = collections.Counter()
    generic = lp._generic

    def counted(terms, js):
        calls[repr(terms), js] += 1
        return generic(terms, js)

    monkeypatch.setattr(lp, "_generic", counted)
    v = 23

    def fresh_b97():
        return build_pair(1, [0, 1], [2, -3, 1], [5 * 97, -(5 + 97), 1])

    for side, distinct in ((PHIHAT, 157), (PHI, 121)):
        calls.clear()
        curve = fresh_b97()
        first = list(itertools.chain.from_iterable(_walk(curve, side, v, SearchConfig())))
        assert len(calls) == distinct and set(calls.values()) == {1}, (side, calls)
        again = list(itertools.chain.from_iterable(_walk(curve, side, v, SearchConfig())))
        assert again == first and sum(calls.values()) == distinct, side
    for domain, distinct in ((44, 165), (157, 242)):
        if domain == 157:
            without_descent_certificate()
        calls.clear()
        images = lp.local_images(fresh_b97(), v)
        assert [image.status for image in images] == ["heuristic"] * 2
        assert sum(calls.values()) == domain + 121 and len(calls) == distinct


def fraction_taylor(data, c):
    """Per polynomial, (exponents, coefficient) of its nonzero Taylor
    coefficients at the centre c, on Fractions: the reference for
    `SideData.taylor_terms`.  At an x-centre the factors g(c + t), with
    a_k = sum_i binom(i, k) g_i c^(i-k); at a quadratic centre (a0, b0) the
    discriminant a^2 - 4 b and each factor's resultant b^2 g2^2 - a b g1 g2
    + a^2 g0 g2 + b (g1^2 - 2 g0 g2) - a g0 g1 + g0^2, expanded at
    (a0 + s, b0 + t) term by term, exponents (i, k) for s^i t^k."""
    if not isinstance(c, tuple):
        return [[((k,), a) for k, a in enumerate(
            [sum(math.comb(i, k) * g[i] * c ** (i - k) for i in range(k, len(g)))
             for k in range(len(g))]) if a] for g in data.factors]
    polys = [{(2, 0): Fraction(1), (0, 1): Fraction(-4)}]
    for g in data.factors:
        g0, g1, g2 = (tuple(g) + (0, 0))[:3]
        polys.append({(0, 2): g2 * g2, (1, 1): -g1 * g2, (2, 0): g0 * g2,
                      (0, 1): g1 * g1 - 2 * g0 * g2, (1, 0): -g0 * g1, (0, 0): g0 * g0})
    a0, b0 = c
    out = []
    for P in polys:
        shifted = collections.Counter()
        for (j, l), coefficient in P.items():
            for i, k in itertools.product(range(j + 1), range(l + 1)):
                shifted[i, k] += (coefficient * math.comb(j, i) * math.comb(l, k)
                                  * a0 ** (j - i) * b0 ** (l - k))
        out.append([(ks, shifted[ks]) for ks in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
                    if shifted[ks]])
    return out


# the integer Taylor data at every centre a walk visits, x-centres and
# quadratic ones, on both sides, at every bad prime, in all three rounds,
# are the Fraction coefficients, and so are their valuations
@pytest.mark.parametrize("label", [*BENCHMARK_CURVES, "R15", "R18"])
def test_taylor_valuations_match_the_fraction_taylor_oracle(label):
    curve = BENCHMARK_CURVES.get(label) or fixture_curve(label)
    kinds = collections.Counter()
    for p in bad_places(curve).finite_primes:
        for side in (PHIHAT, PHI):
            data = curve.side_data(side)
            centres = set()
            for cfg in ROUNDS:
                centres.update(c for c, _, _ in _x_blocks(curve, side, p, cfg))
                centres.update(c for c, _, _ in _quadratic_blocks(curve, side, p, cfg))
            for c in centres:
                want = fraction_taylor(data, c)
                terms = data.taylor_terms(c)
                assert [[(ks, Fraction(n, d)) for ks, n, d in g] for g in terms] == want, (p, c)
                assert all(type(n) is int and type(d) is int for g in terms for _, n, d in g)
                assert data.taylor_valuations(c, p) == tuple(
                    tuple((valuation(a, p), ks) for ks, a in g) for g in want), (p, side, c)
                kinds[type(c)] += 1
    assert kinds[Fraction] and kinds[tuple], kinds


# the codomain's root centres are read from each irrational factor's
# discriminant, a square root mod p^(depth+1+v_p(2 c2)) and one evaluation
# mod p of each other factor at each root kept, with no lift and nothing
# kept between calls: the same count in every round, whatever p and the
# depth (6, 8, 10).  A257 and A1000033 (p = 1 mod 8 both) each have two
# such roots; B97 at 23, where the search escalates twice, has six, two per
# factor, but all three factors vanish at 5 and 18 mod 23, so the first
# other factor rejects each; A1000003 has none (one discriminant is
# divisible by p, the other a non-square).  The Newton lift this replaced
# read [2, 0, 0], [27, 32, 40], [1, 0, 0] and [27, 32, 40]
@pytest.mark.parametrize("P, p, calls", [(97, 23, [6, 6, 6]), (257, 257, [4, 4, 4]),
                                         (1000003, 1000003, [0, 0, 0]),
                                         (1000033, 1000033, [4, 4, 4])],
                         ids=["B97@23", "A257@257", "A1000003@1000003", "A1000033@1000033"])
def test_the_root_centres_cost_the_same_in_every_round(monkeypatch, P, p, calls):
    curve = (build_pair(1, [0, 1], [-1, 0, 1], [-P * P, 0, 1]) if P == p else
             build_pair(1, [0, 1], [2, -3, 1], [5 * P, -(5 + P), 1]))  # fresh curves
    curve.codomain_data  # its Weierstrass values are evaluated once, on first use
    evaluate, counted_calls = lp.homogenized_eval, []

    def counted(*args):
        counted_calls[-1] += 1
        return evaluate(*args)

    monkeypatch.setattr(lp, "homogenized_eval", counted)
    for cfg in ROUNDS:
        counted_calls.append(0)
        list(_x_blocks(curve, PHI, p, cfg))
    assert counted_calls == calls


def scanned_root_centres(data, p, depth):
    """The routine `_root_centers` replaced, as the reference: the simple
    roots t mod p of the primitive f of the `SideData`, by a scan of every
    residue, that lie on a factor without a rational root, each lifted to
    mod p^(depth+1) by Newton's method on f."""
    g = math.gcd(*data.f_form[0])
    fi = [c // g for c in data.f_form[0]]
    fprime = [i * c for i, c in enumerate(fi)][1:]
    irrational = [[c // math.gcd(*C) for c in C]
                  for (C, _), grp in zip(data.forms, data.groups) if grp is None]
    centres = []
    for t in range(p):
        if (poly_value(fi, t) % p or not poly_value(fprime, t) % p
                or all(poly_value(C, t) % p for C in irrational)):
            continue
        x, mod = t, p
        for _ in range(depth):
            mod *= p
            x = (x - poly_value(fi, x) * pow(poly_value(fprime, x), -1, mod)) % mod
        centres.append(Fraction(x))
    return centres


def poly_value(C, t):
    return sum(c * t ** i for i, c in enumerate(C))


def seeded_draw(n, seed):
    """n seeded curves y^2 = lambda (x - r0)(x - r1)(x - r2)(x - r3)(x - r4),
    distinct roots in -30..30, that `build_pair` takes."""
    rng, curves = random.Random(seed), []
    while len(curves) < n:
        r = rng.sample(range(-30, 31), 5)
        try:
            curves.append(build_pair(rng.choice([1, -1, 2, -2, 3, 5, Fraction(1, 3),
                                                 Fraction(-2, 5)]),
                                     [-r[0], 1], [r[1] * r[2], -r[1] - r[2], 1],
                                     [r[3] * r[4], -r[3] - r[4], 1]))
        except CurveError:
            continue
    return curves


def check_root_centres(curve, primes):
    """`_root_centers` against the scan at each of `primes`, both sides,
    depths 0 to 10; the kinds of irrational factor (odd p | c2, p = 2 with
    c2 even or odd) each centre came from."""
    kinds = collections.Counter()
    for p in primes:
        for side in (PHIHAT, PHI):
            data = curve.side_data(side)
            for depth in range(11):
                got = lp._root_centers(data, p, depth)
                assert got == scanned_root_centres(data, p, depth), (p, side, depth)
            centres = lp._root_centers(data, p, 1)
            for (C, _), grp in zip(data.forms, data.groups):
                if grp is None and any(poly_value(C, int(c)) % p == 0 for c in centres):
                    c2 = C[2] // math.gcd(*C)
                    kinds[f"p = 2, c2 {('odd', 'even')[c2 % 2 == 0]}" if p == 2 else
                          "odd p | c2" if c2 % p == 0 else "odd p, c2 a unit"] += 1
    return kinds


# the root centres are the scan's simple roots on the irrational factors,
# lifted, at depths 0 to 10, on both sides (the domain has none), at every
# bad prime up to 1000 of the benchmark curves and R15, R18
@pytest.mark.parametrize("label", [*BENCHMARK_CURVES, "R15", "R18"])
def test_the_root_centres_are_the_scanned_simple_roots(label):
    curve = BENCHMARK_CURVES.get(label) or fixture_curve(label)
    primes = [p for p in bad_places(curve).finite_primes if p < 1000]
    check_root_centres(curve, primes)
    assert primes and lp._root_centers(curve.domain_data, primes[0], 4) == []


# and so they are on a seeded draw: the first 60 curves at their bad primes
# up to 1000 and at 3 to 13, all of them at 2, where a factor rarely has
# centres (c1 must be odd).  Each branch of the rule gives centres: odd p
# dividing c2, so one root has negative valuation, and p = 2 with c2 even
# or odd
def test_the_root_centres_of_a_seeded_draw_are_the_scanned_simple_roots():
    kinds = collections.Counter()
    for k, curve in enumerate(seeded_draw(2000, 36)):
        kinds += check_root_centres(curve, sorted(
            {p for p in bad_places(curve).finite_primes if p < 1000} | {3, 5, 7, 11, 13}
            if k < 60 else {2}))
    assert all(kinds[k] for k in ("odd p | c2", "p = 2, c2 even", "p = 2, c2 odd")), kinds


# ---------------------------------------------------------------------------
# the quadratic tier's blocks
# ---------------------------------------------------------------------------

QUADRATIC_CURVES = {"k113": K113, "irrational": IRRATIONAL, "fractional": FRACTIONAL,
                    "A257": A257, "B31": B31, "B97": B97}


def quadratic_candidates_by_block(curve, side, p, cfg):
    """(centre, a block, b block, [(a, b, class pair)]) for every block of
    the tier, a block being (e, coefficients as Fractions, their classes)
    and the candidates' coefficients Fractions."""
    for centre, a_blocks, b_blocks in _quadratic_blocks(curve, side, p, cfg):
        for (ea, a_xs, _), (eb, b_xs, _) in itertools.product(a_blocks, b_blocks):
            a_xs = [(Fraction(*a), k) for a, k in a_xs]
            b_xs = [(Fraction(*b), k) for b, k in b_xs]
            yield centre, (ea, a_xs), (eb, b_xs), [
                (a, b, (ka, kb)) for (a, ka), (b, kb) in itertools.product(a_xs, b_xs)]


def check_quadratic_blocks(curve, configs, rule=_generic):
    """At every odd bad prime, both sides, in every block of the tier under
    any of `configs` (each block once): where `rule` (standing for
    `_generic`) holds for the discriminant, each class pair has one
    discriminant class; where it holds for all four polynomials, also one
    mask and no zero resultant.  The classes are read from Fractions, the
    mask from `SideData.quadratic_values` and `local_square_class` slot by
    slot.  The class pair is checked against the perturbations themselves:
    c + r p^e carries the unit class of r, its square class mask (2 for a
    non-residue, 0 else), and c itself class 0.  Returns
    the number of blocks with the rule for all four, for the discriminant
    alone, and for neither."""
    counts = collections.Counter()
    for p in bad_places(curve).finite_primes:
        if p == 2:
            continue
        for side in (PHIHAT, PHI):
            data = curve.side_data(side)
            checked = set()
            for cfg in configs:
                for centre, *blocks, candidates in quadratic_candidates_by_block(
                        curve, side, p, cfg):
                    (ea, a_xs), (eb, b_xs) = blocks
                    if (centre, ea, eb) in checked:
                        continue
                    checked.add((centre, ea, eb))
                    for c, (e, xs) in zip(centre, blocks):
                        for x, k in xs:
                            r = (x - c) / Fraction(p) ** (e or 0)
                            nonresidue = e is not None and legendre(r.numerator, p) == -1
                            assert (x == c and k == 0 if e is None else r.denominator == 1
                                    and k == 2 * nonresidue), (p, side, str(x))
                    terms = data.taylor_valuations(centre, p)
                    disc_rule, all_rule = rule(terms[:1], (ea, eb)), rule(terms, (ea, eb))
                    counts[all_rule, disc_rule] += 1
                    reads = {}
                    for a, b, pair in candidates if disc_rule else ():
                        if b == 0:
                            continue
                        where = (p, side, str(a), str(b))
                        assert a * a - 4 * b != 0, where
                        read = (local_square_class(a * a - 4 * b, p),)
                        if all_rule:
                            an, bn, q = _common_denominator(a.as_integer_ratio(),
                                                            b.as_integer_ratio())
                            assert all(_res2(an, bn, q, form)[0] for form in data.forms), where
                            classes = (local_square_class(Fraction(n, d), p)
                                       for n, d in data.quadratic_values(a, b))
                            read += (class_mask(class_bits(c, p) for c in classes),)
                        assert reads.setdefault(pair, read) == read, where
    return counts


# the tier reads a block's discriminant class, and where the resultants are
# dominated too its mask, once per unit-class pair; every candidate of the
# pair must have what its first one has, at every odd bad prime, both sides,
# in the blocks of the default bounds, of val_bound=1 (depth 1) and of an
# escalation of it (depth 3); p = 2 and 3 have one residue per class
QUADRATIC_CONFIGS = (SearchConfig(), SearchConfig(val_bound=1), SearchConfig(val_bound=1).escalate())


@pytest.mark.parametrize("label", sorted(QUADRATIC_CURVES))
def test_a_generic_quadratic_block_has_one_read_per_class_pair(label):
    counts = check_quadratic_blocks(QUADRATIC_CURVES[label], QUADRATIC_CONFIGS)
    # blocks of all three kinds occur
    assert counts[True, True] and counts[False, True] and counts[False, False], counts


def test_the_quadratic_block_check_catches_a_wrong_rule():
    # a rule that called every block generic would give tables whose one
    # entry per class pair is wrong for some of its candidates
    with pytest.raises(AssertionError):
        check_quadratic_blocks(B97, [SearchConfig(val_bound=1)], rule=lambda terms, js: True)


# the tier skips a class whose slot classes multiply to a non-trivial class:
# N(f mod A) is prod Res(A, G_i) on the domain and prod Res(A, L_i) / Delta^2
# on the codomain, and the certificate fails on a non-square norm nn
@pytest.mark.parametrize("label", sorted(QUADRATIC_CURVES))
def test_the_norm_is_a_square_exactly_when_the_slot_classes_multiply_to_1(label):
    curve = QUADRATIC_CURVES[label]
    outcomes = collections.Counter()
    for p in bad_places(curve).finite_primes:
        d = 3 if p == 2 else 2
        for side in (PHIHAT, PHI):
            data = curve.side_data(side)
            for *_, candidates in quadratic_candidates_by_block(curve, side, p, SearchConfig()):
                for a, b, _ in candidates:
                    an, bn, q = _common_denominator(a.as_integer_ratio(), b.as_integer_ratio())
                    disc = an * an - 4 * bn * q
                    if b == 0 or disc == 0 or reference_is_square(disc, p):
                        continue
                    U, W, _ = _mod_quadratic_ints(data.f_form, an, bn, q)
                    nn = q * (q * W * W - an * U * W + bn * U * U)
                    m = _quadratic_mask(an, bn, q, data.forms, p)
                    trivial = not (m ^ m >> d ^ m >> 2 * d) & ((1 << d) - 1)
                    if not all(_res2(an, bn, q, form)[0] for form in data.forms):
                        # A is a factor, so f mod A = 0 and its zero slot
                        # takes the product of the other two
                        assert nn == 0 and trivial, (p, side, str(a), str(b))
                        continue
                    assert nn != 0 and reference_is_square(nn, p) == trivial, (p, side, a, b)
                    outcomes[trivial] += 1
    assert outcomes[True] and outcomes[False], outcomes


@pytest.mark.parametrize("label", sorted(BENCHMARK_CURVES))
def test_quintuple_slot_values_match_the_fraction_evaluator(label):
    # every divisor a domain walk yields, walked to its end at every bad
    # place, and every two-torsion divisor, which the walk yields only once
    # per mask
    curve = BENCHMARK_CURVES[label]
    tags = set()
    for v in places_of(curve.bad_places):
        walk = _walk(curve, PHIHAT, v, SearchConfig())
        walked = [item[0] for item in itertools.chain.from_iterable(walk) if item]
        for D in walked + _torsion_divisors(curve, PHIHAT):
            want = reference_quintuple_values(D, curve)
            got = tuple(Fraction(n, d) for n, d in _slot_values(D, curve, curve.two_data))
            assert got == tuple(want), (str(D), place_name(v))
            assert mu_two(D, curve, v) == LocalKummerQuintuple.of(want, v), (str(D), place_name(v))
            tags.add(D.tag)
    # the walks of k2431 yield two-torsion only; the other curves' walks
    # yield every kind of point, and six of them quadratics as well
    assert {"identity", "weierstrass_pair"} <= tags
