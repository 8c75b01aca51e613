"""Genus-2 curves in split form y^2 = G1(x) G2(x) G3(x) and their Richelot data.

Construction validates the standing rationality assumption (all Weierstrass
points rational, pairwise distinct) and computes the isogenous codomain
Delta y^2 = L1 L2 L3 with L_i = G_j' G_k - G_j G_k' for [i,j,k] cyclic and
Delta = det(g_ji).  The Delta factor is kept separate from the L_i so the
root special cases downstream can use it literally.

Polynomials are dense tuples of Fractions.  The local search evaluates the
factors through `poly_integer_form` and `homogenized_eval`, on integer
numerators and denominators; `poly_eval` wraps the two for a `Fraction`.

A `RichelotPair` computes the data that depend on the curve alone once, on
first use, and holds them: the bad places and one `SideData` per descent
map, which is that side's model delta y^2 = prod factors (its f, factors,
rational roots and Delta) with what the map reads at every place (integer
forms, Weierstrass and infinite factor values, kernel quadratics; for the
search also real sample points and the Taylor coefficients, at x-centres and
at the quadratic tier's centres, as integer numerators and denominators,
with their valuations and the search's tables per prime and per place, the
local images among them).
Nothing is shared between instances, so two equal curves built separately
compute it twice.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, reduce
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .localfield import valuation

__all__ = [
    "CurveError",
    "NonSplitError",
    "SingularModelError",
    "ProductOfEllipticError",
    "UnsupportedModelError",
    "RichelotPair",
    "SideData",
    "build_pair",
    "homogenized_eval",
    "poly_eval",
    "poly_integer_form",
    "poly_mul",
    "poly_str",
]

Poly = tuple[Fraction, ...]  # dense, index = degree, trailing zeros trimmed


class CurveError(ValueError):
    pass


class NonSplitError(CurveError):
    """A quadratic factor has no rational roots."""


class SingularModelError(CurveError):
    """Repeated Weierstrass x-coordinates."""


class ProductOfEllipticError(CurveError):
    """Delta = 0: the Jacobian splits as a product of elliptic curves."""


class UnsupportedModelError(CurveError):
    """Six-root models carry isogeny data only; descent needs a 5-root model."""


# ---------------------------------------------------------------------------
# small dense polynomial kit over Q
# ---------------------------------------------------------------------------


def _trim(c: Sequence[Fraction]) -> Poly:
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly(coeffs) -> Poly:
    return _trim([Fraction(x) for x in coeffs])


def poly_integer_form(f: Poly) -> tuple[tuple[int, ...], int]:
    """(C, den) with f = sum C_i x^i / den, den the lcm of the coefficient denominators."""
    den = 1
    for c in f:
        if c.denominator != 1:
            den = den * c.denominator // math.gcd(den, c.denominator)
    if den == 1:
        return tuple([c.numerator for c in f]), 1
    return tuple([c.numerator * (den // c.denominator) for c in f]), den


def homogenized_eval(C: Sequence[int], n: int, d: int) -> tuple[int, int]:
    """(sum C_i n^i d^(k-i), d^k) for the integer coefficients C of degree k.

    Their quotient is sum C_i x^i at x = n/d; Horner's rule on ints, written
    out for degree 1 and 2, the factors the search reads per candidate.
    """
    if len(C) == 3:
        c0, c1, c2 = C
        return (c2 * n + c1 * d) * n + c0 * d * d, d * d
    if len(C) == 2:
        return C[1] * n + C[0] * d, d
    acc = C[-1]
    dpow = 1
    for i in range(len(C) - 2, -1, -1):
        dpow *= d
        acc = acc * n + C[i] * dpow
    return acc, dpow


def poly_eval(f: Poly, x: Fraction) -> Fraction:
    """f(x), exactly, for a rational x = n/d.

    The homogenized integer form of f over its cleared denominators, one
    gcd for the whole evaluation instead of two per coefficient.
    """
    if not f:
        return Fraction(0)
    C, den = poly_integer_form(f)
    acc, dk = homogenized_eval(C, x.numerator, x.denominator)
    return Fraction(acc, den * dk)


def _common_denominator(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int, int]:
    """(a q, b q, q) for the least common denominator q of a and b, each an
    integer pair (numerator, denominator), as `Fraction.as_integer_ratio`
    gives."""
    (na, da), (nb, db) = a, b
    q = da * db // math.gcd(da, db)
    return na * (q // da), nb * (q // db), q


def _res2(an: int, bn: int, q: int, form) -> tuple[int, int]:
    """prod over roots x_j of monic x^2 + (an/q) x + bn/q of L(x_j), as an
    integer numerator and denominator, via symmetric functions.

    With e1 = -an/q, e2 = bn/q and L = C/den (degree <= 2) given by its
    `poly_integer_form` (C, den), the product times (q den)^2 is an
    integer; that square is the denominator.
    """
    C, den = form
    c0, c1, c2 = (C + (0, 0, 0))[:3]
    return (c2 * c2 * bn * bn - c2 * c1 * an * bn + c2 * c0 * (an * an - 2 * bn * q)
            + c1 * c1 * bn * q - c1 * c0 * an * q + c0 * c0 * q * q), (den * q) ** 2


def poly_mul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ()
    out = [Fraction(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _trim(out)


def poly_scale(f: Poly, c: Fraction) -> Poly:
    """c f; f itself for c = 1, such as the domain model's 1 / delta."""
    return f if c == 1 else _trim([a * c for a in f])


def poly_derivative(f: Poly) -> Poly:
    return _trim([i * c for i, c in enumerate(f)][1:])


def poly_sub(f: Poly, g: Poly) -> Poly:
    n = max(len(f), len(g))
    return _trim([(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)])


def real_root_samples(factors: Sequence[Poly], groups) -> list[Fraction]:
    """One rational point left of the real roots of the factors (degree at
    most 2 each), one between each two neighbouring roots and one right of
    them, ascending; [0] when there are none.  So every region where the
    product has constant nonzero sign gets one sample.

    `groups` holds each factor's rational roots, or None for a quadratic
    without any; with c2 x^2 + c1 x + c0 and D = (c1^2 - 4 c0 c2)/(4 c2^2)
    > 0, its roots are m +- sqrt(D), m = -c1/(2 c2).  For D = n/d, sqrt(D)
    lies in [s, s + 1]/(d 2^k) with s = isqrt(n d 4^k), and k grows until
    every root has its own closed interval.  The roots must be pairwise
    distinct, as they are on both sides of a `RichelotPair`.
    """
    exact = {r for grp in groups if grp for r in grp}
    surds = []  # (m, +-1, D) of each irrational real root m +- sqrt(D)
    for g, grp in zip(factors, groups):
        if grp is None:
            m, D = -g[1] / (2 * g[2]), (g[1] * g[1] - 4 * g[0] * g[2]) / (4 * g[2] * g[2])
            if D > 0:
                surds += [(m, -1, D), (m, 1, D)]
    k = 0
    while True:
        brackets = [(r, r) for r in exact]
        for m, e, D in surds:
            s, scale = math.isqrt(D.numerator * D.denominator << 2 * k), D.denominator << k
            lo, hi = m + e * Fraction(s, scale), m + e * Fraction(s + 1, scale)
            brackets.append((lo, hi) if lo < hi else (hi, lo))
        brackets.sort()
        if all(hi < lo for (_, hi), (lo, _) in zip(brackets, brackets[1:])):
            break
        k += 1
    if not brackets:
        return [Fraction(0)]
    return ([brackets[0][0] - 1]
            + [(hi + lo) / 2 for (_, hi), (lo, _) in zip(brackets, brackets[1:])]
            + [brackets[-1][1] + 1])


def poly_str(f: Poly, var: str = "x") -> str:
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{'-' if c < 0 else ''}{mag}{var}" + (f"^{i}" if i > 1 else "")
        if parts and not term.startswith("-"):
            parts.append("+ " + term)
        elif parts:
            parts.append("- " + term[1:])
        else:
            parts.append(term)
    return " ".join(parts)


def rational_sqrt(q: Fraction) -> Optional[Fraction]:
    """The nonnegative rational square root of q, or None if there is none."""
    if q < 0:
        return None
    ns = math.isqrt(q.numerator)
    ds = math.isqrt(q.denominator)
    if ns * ns == q.numerator and ds * ds == q.denominator:
        return Fraction(ns, ds)
    return None


def rational_roots(g: Poly) -> Optional[tuple[Fraction, ...]]:
    """The roots of a factor: (-g0/g1,) for a linear g; both roots of a
    quadratic, ascending, or None if they are irrational."""
    if len(g) == 2:
        return (-g[0] / g[1],)
    c0, c1, c2 = (g + (Fraction(0),) * 3)[:3]
    s = rational_sqrt(c1 * c1 - 4 * c0 * c2)
    if s is None:
        return None
    r1 = (-c1 - s) / (2 * c2)
    r2 = (-c1 + s) / (2 * c2)
    return (r1, r2) if r1 <= r2 else (r2, r1)


# ---------------------------------------------------------------------------
# the marker of infinity and the names of the two sides
# ---------------------------------------------------------------------------

INF = "inf"  # marker for the Weierstrass point at infinity of a 5-root model
PHIHAT = "phihat"  # the side, named by its descent map, of points of the domain J
PHI = "phi"  # the side of points of the codomain Jhat


# ---------------------------------------------------------------------------
# the Richelot pair
# ---------------------------------------------------------------------------


class _RichelotPairFields(NamedTuple):
    G: tuple[Poly, Poly, Poly]
    roots_by_factor: tuple[tuple[Fraction, ...], ...]
    delta: Fraction
    L: tuple[Poly, Poly, Poly]


class RichelotPair(_RichelotPairFields):
    """A validated split genus-2 model together with its isogenous codomain.

    G holds the three factors with lambda absorbed into G1 and the quadratic
    factors normalized monic (a constant rescaling; it changes the L_i only
    by nonzero scalars and leaves Delta, the sextic, and every square class
    untouched).  roots_by_factor groups the Weierstrass x-coordinates per
    factor, each quadratic's pair sorted ascending.

    Everything derived from these fields is computed on first use and kept
    on the instance: `bad_places` and the `SideData` of each side
    (`side_data`: `domain_data`, the model y^2 = G1 G2 G3, and
    `codomain_data`, Delta y^2 = L1 L2 L3) and of the quintuple map
    (`two_data`).  Each side's model, flat roots and search data live only
    in its `SideData`, so each place of a run does only its own work.  (No
    `__slots__`: the cached properties live in the instance's `__dict__`.)
    """

    @property
    def degree(self) -> int:
        """5 when infinity is a Weierstrass point of the domain, else 6."""
        return 5 if INF in self.domain_data.markers else 6

    @cached_property
    def _bad_places(self):
        from .arith import FactorizationBudgetExceeded, bad_places  # arith imports this module
        try:
            return bad_places(self)
        except FactorizationBudgetExceeded as e:
            return e

    @property
    def bad_places(self):
        """`arith.bad_places` of this curve, as a `PlaceSet`.  A factorization
        that overruns its budget is not run again: every read raises its
        FactorizationBudgetExceeded."""
        if isinstance(self._bad_places, Exception):
            raise self._bad_places
        return self._bad_places

    @cached_property
    def domain_data(self) -> "SideData":
        # a point at infinity counts as 1 on the domain
        return SideData(self.G, self.roots_by_factor, Fraction(1), [(1, 1)] * 3)

    @cached_property
    def codomain_data(self) -> "SideData":
        # On a 5-root codomain (one linear L) infinity is a Weierstrass point,
        # and its values are pinned by kernel triviality: the divisor
        # {(z,0), inf} cut out by the linear factor is the image of rational
        # two-torsion under the isogeny, so it must map to the trivial class;
        # that forces infinity to take the values of (z, 0), L_j(z) and Delta
        # times the other two in the linear slot, and makes the norm condition
        # hold for every divisor containing infinity.  On a 6-root codomain the
        # two infinite points are ordinary and contribute the leading
        # coefficients of the L_i; they are Q_v-rational exactly when fhat's
        # leading coefficient is a local square, which callers must check.
        groups = tuple(map(rational_roots, self.L))
        linear = [grp[0] for g, grp in zip(self.L, groups) if len(g) == 2]
        inf = linear[0] if linear else [(g[-1].numerator, g[-1].denominator) for g in self.L]
        return SideData(self.L, groups, self.delta, inf)

    @cached_property
    def two_data(self) -> "SideData":
        """The slots of the quintuple map: the linear factors x - w_i of
        f / lambda, with lambda as the special constant, so a Weierstrass
        point w_i takes lambda prod_{l != i} (w_i - w_l) in its own slot, and
        as the value of infinity in every slot."""
        roots, lam = self.domain_data.roots, self.domain_data.f[-1]
        return SideData(tuple((-w, Fraction(1)) for w in roots), tuple((w,) for w in roots),
                        lam, [(lam.numerator, lam.denominator)] * len(roots))

    def side_data(self, side: str) -> "SideData":
        """The search data of `side`, PHIHAT or PHI; any other name raises."""
        if side not in (PHIHAT, PHI):
            raise ValueError(f"side must be {PHIHAT!r} or {PHI!r}, not {side!r}")
        return self.domain_data if side == PHIHAT else self.codomain_data

    def require_five_roots(self):
        if self.degree != 5:
            raise UnsupportedModelError(
                "descent machinery needs the 5-root layout (linear G1)")

    def label(self) -> str:
        return "y^2 = (%s)(%s)(%s)" % tuple(poly_str(g) for g in self.G)


class SideData:
    """A side's model delta y^2 = prod factors and what a descent map reads
    of its slots at every place, computed once per curve: the factors (G_i
    with delta = 1 on the domain, L_i with Delta on the codomain, x - w_i
    with lambda for the quintuple map) with their integer forms, the rational
    Weierstrass points with their factor values, the factor values at
    infinity, the kernel divisor of each factor without rational roots, and
    for the search f = prod factors / delta, the model as y^2 = f(x), with
    its integer form, the real sample points (taken between the factors'
    real roots, see `real_root_samples`) and the Taylor coefficients at
    each centre, x-centres and quadratic ones, as integer
    numerators and denominators derived from the integer forms
    (`taylor_terms`), so no Fraction is built per centre.  A place adds only
    its class masks and the tables `table` keeps per prime or place, such as
    the valuations of `taylor_valuations` and the local images.  Factor
    values are integer (numerator, denominator) pairs per factor, in the
    conventions of the descent maps.

    `groups` holds each factor's rational roots, or None where they are
    irrational, as the caller computed them, so the roots stay the same
    `Fraction` objects that key `root_values`; `roots` flattens them in
    slot order.  A Weierstrass point's own slot takes the product of the other
    factors times `delta`.  `markers` names the rational Weierstrass points:
    each root by its slot, the index of its x in `groups` flattened with an
    irrational factor taking two slots (`slots` maps it to x), and the point
    at infinity by INF.  `inf_values` are the values at infinity, or the
    Weierstrass point whose values infinity takes.  `forms` are the
    factors' `poly_integer_form`s.
    """

    def __init__(self, factors, groups, delta: Fraction, inf_values):
        self.factors, self.groups, self.delta = factors, groups, delta
        self.forms = [poly_integer_form(g) for g in factors]
        self.roots = tuple(r for grp in groups if grp for r in grp)
        flat = [r for grp in groups for r in (grp or (None, None))]
        self.slots = {i: r for i, r in enumerate(flat) if r is not None}  # marker -> x
        # the rational Weierstrass points: the roots' slots ascending, then
        # INF when a factor is linear, its root's partner at infinity
        self.markers = tuple(self.slots) + ((INF,) if any(len(g) == 2 for g in factors) else ())
        self.root_values = {w: self.point_values(w) for w in self.roots}
        self.inf_values = (self.root_values[inf_values] if isinstance(inf_values, Fraction)
                           else inf_values)
        # (a, b) of the monic x^2 + a x + b for each factor without rational
        # roots (its conjugate Weierstrass points), with its values
        self.kernels = {}
        for g, grp in zip(factors, groups):
            if grp is None:
                a, b = g[1] / g[2], g[0] / g[2]
                self.kernels[a, b] = self.quadratic_values(a, b)
        self._tables: dict = {}

    @cached_property
    def f(self) -> Poly:
        """The model delta y^2 = prod factors, as y^2 = f(x)."""
        return poly_scale(reduce(poly_mul, self.factors), 1 / self.delta)

    @cached_property
    def f_form(self) -> tuple[tuple[int, ...], int]:
        return poly_integer_form(self.f)

    def point_values(self, x: Fraction) -> list[tuple[int, int]]:
        """The factor values at a finite point x; at a Weierstrass point its
        own slot takes the special value."""
        j = next((i for i, grp in enumerate(self.groups) if grp and x in grp), None)
        values = []
        for i, (C, den) in enumerate(self.forms):
            acc, dk = (0, 1) if i == j else homogenized_eval(C, x.numerator, x.denominator)
            values.append((acc, den * dk))
        if j is not None:
            n, d = self.delta.numerator, self.delta.denominator
            for i, (fn, fd) in enumerate(values):
                if i != j:
                    n *= fn
                    d *= fd
            values[j] = (n, d)
        return values

    def quadratic_values(self, a: Fraction, b: Fraction) -> list[tuple[int, int]]:
        """The factor values at the quadratic divisor x^2 + a x + b: each
        factor's product over its two roots.  When it is a factor up to
        scaling, the kernel divisor, both points take the special value."""
        an, bn, q = _common_denominator(a.as_integer_ratio(), b.as_integer_ratio())
        values = [_res2(an, bn, q, form) for form in self.forms]
        for i, (n, d) in enumerate(values):
            if n == 0:
                (n1, d1), (n2, d2) = values[i - 1], values[i - 2]
                values[i] = (n1 * n2 * self.delta.numerator ** 2,
                             d1 * d2 * self.delta.denominator ** 2)
        return values

    @cached_property
    def real_samples(self) -> list[tuple[int, int]]:
        """(n, d) of one point x = n/d in every real region where f is
        positive: `real_root_samples` of the factors, then f(x) > 0."""
        return [(x.numerator, x.denominator)
                for x in real_root_samples(self.factors, self.groups)
                if poly_eval(self.f, x) > 0]

    @cached_property
    def quadratic_bases(self) -> list[tuple[Fraction, Fraction]]:
        """(a, b) of the monic quadratics vanishing on two-torsion x-pairs:
        each quadratic factor's and each pair of rational roots'."""
        return ([(g[1] / g[2], g[0] / g[2]) for g in self.factors if len(g) == 3]
                + [(-(r + s), r * s) for r, s in itertools.combinations(self.roots, 2)])

    def taylor_terms(self, c) -> list[list[tuple[tuple[int, ...], int, int]]]:
        """Per polynomial, (exponents, numerator, denominator) of its nonzero
        Taylor coefficients at the centre c, read from the integer forms.  At
        an x-centre c = n/d (a Fraction) the polynomials are the factors
        g = sum C_i x^i / den of degree k0, and g(c + t) has the coefficient
        A_k / (den d^(k0-k)) at t^k, A_k = sum_i binom(i, k) C_i n^(i-k)
        d^(k0-i).  At a quadratic centre c = (a0, b0) they are, for
        x^2 + (a0 + s) x + (b0 + t), the discriminant a^2 - 4 b and each
        factor's resultant `_res2`, b^2 g2^2 - a b g1 g2 + a^2 g0 g2
        + b (g1^2 - 2 g0 g2) - a g0 g1 + g0^2: quadratics in (s, t), with
        exponents (i, k) for s^i t^k."""
        def terms():
            if isinstance(c, tuple):
                polys = [({(2, 0): 1, (0, 1): -4}, 1)]
                for C, den in self.forms:
                    g0, g1, g2 = (tuple(C) + (0, 0))[:3]
                    polys.append(({(0, 2): g2 * g2, (1, 1): -g1 * g2, (2, 0): g0 * g2,
                                   (0, 1): g1 * g1 - 2 * g0 * g2, (1, 0): -g0 * g1,
                                   (0, 0): g0 * g0}, den * den))
                A = _common_denominator(*(x.as_integer_ratio() for x in c))
                return [_shifted_quadratic(C, D, *A) for C, D in polys]
            n, d = c.numerator, c.denominator
            return [[((k,), a, den * d ** (len(C) - 1 - k)) for k, a in enumerate(
                [sum(math.comb(i, k) * C[i] * n ** (i - k) * d ** (len(C) - 1 - i)
                     for i in range(k, len(C))) for k in range(len(C))]) if a]
                for C, den in self.forms]
        return self.table(("taylor", c), terms)

    def taylor_valuations(self, c, p: int) -> tuple[tuple[tuple[int, tuple[int, ...]], ...], ...]:
        """(v_p(coefficient), exponents) of each term of `taylor_terms(c)`,
        per polynomial, as v_p(numerator) - v_p(denominator), computed once
        per centre and prime; tuples, so the search can key what it reads
        from them by them."""
        return self.table(("valuations", c, p), lambda: tuple(
            tuple((valuation(a, p) - valuation(den, p), ks) for ks, a, den in g)
            for g in self.taylor_terms(c)))

    def table(self, key, make):
        """`make()`, kept under `key`: the search's tables per centre, prime
        and place."""
        if key not in self._tables:
            self._tables[key] = make()
        return self._tables[key]


def _shifted_quadratic(C: dict, D: int, an: int, bn: int, q: int) -> list:
    """((i, k), numerator, denominator) of the nonzero coefficients of s^i t^k
    in P(a0 + s, b0 + t) = sum C_ik (a0 + s)^i (b0 + t)^k / D, for integer
    C_ik of degree i + k <= 2 and the centre a0 = an/q, b0 = bn/q."""
    def c(i, k):
        return C.get((i, k), 0)
    out = [((0, 0), sum(v * an ** i * bn ** k * q ** (2 - i - k) for (i, k), v in C.items()),
            D * q * q),
           ((1, 0), c(1, 0) * q + 2 * c(2, 0) * an + c(1, 1) * bn, D * q),
           ((0, 1), c(0, 1) * q + 2 * c(0, 2) * bn + c(1, 1) * an, D * q),
           ((2, 0), c(2, 0), D), ((1, 1), c(1, 1), D), ((0, 2), c(0, 2), D)]
    return [term for term in out if term[1]]


def _coefficient_det(polys) -> Fraction:
    """det of the 3x3 matrix whose rows are the coefficients c0, c1, c2 of
    three polynomials of degree at most 2."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = [
        (P + (Fraction(0),) * 3)[:3] for P in polys]
    return (a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0)
            + a2 * (b0 * c1 - b1 * c0))


def build_pair(lam, G1, G2, G3) -> RichelotPair:
    """Validate a split model and compute its Richelot codomain data.

    Inputs are coefficient sequences [c0, c1, c2]; G1 may be linear or
    quadratic, G2 and G3 must be quadratic; lam scales G1.  Rejects repeated
    roots (SingularModelError), irrational roots (NonSplitError) and
    Delta = 0 (ProductOfEllipticError).
    """
    lam = Fraction(lam)
    if lam == 0:
        raise CurveError("lambda must be nonzero")
    gs = [poly(G1), poly(G2), poly(G3)]
    if not 2 <= len(gs[0]) <= 3:
        raise CurveError("G1 must have degree 1 or 2")
    if len(gs[1]) != 3 or len(gs[2]) != 3:
        raise CurveError("G2 and G3 must have degree 2")
    gs[0] = poly_scale(gs[0], lam)
    # normalize the quadratics monic, folding their lcs into G1
    for j in (1, 2):
        lc = gs[j][-1]
        if lc != 1:
            gs[0] = poly_scale(gs[0], lc)
            gs[j] = poly_scale(gs[j], 1 / lc)

    roots_by_factor = [rational_roots(g) for g in gs]
    for g, rr in zip(gs, roots_by_factor):
        if rr is None:
            raise NonSplitError(f"factor {poly_str(g)} has no rational roots")
        if len(rr) == 2 and rr[0] == rr[1]:
            raise SingularModelError(f"factor {poly_str(g)} has a repeated root")
    flat = [r for grp in roots_by_factor for r in grp]
    if len(set(flat)) != len(flat):
        raise SingularModelError("Weierstrass x-coordinates are not pairwise distinct")

    delta = _coefficient_det(gs)
    if delta == 0:
        raise ProductOfEllipticError("Delta = 0: Jacobian is a product of elliptic curves")

    L = []
    for (j, k) in ((1, 2), (2, 0), (0, 1)):
        gj, gk = gs[j], gs[k]
        L.append(poly_sub(poly_mul(poly_derivative(gj), gk),
                          poly_mul(gj, poly_derivative(gk))))
    return RichelotPair(tuple(gs), tuple(roots_by_factor), delta, tuple(L))

