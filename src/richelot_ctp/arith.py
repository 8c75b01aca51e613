"""Exact global arithmetic: square classes of Q, primes, and the groups Q(S,2).

Everything here is pure-Fraction arithmetic; no floats anywhere.  A square
class is its canonical representative, a signed squarefree int: the
product of two is `class_product`, and within Q(S,2) its F2 coordinates
over the basis (-1, p1, p2, ...) are `qs2_index`, so that subgroup
computations reduce to F2 linear algebra.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .curve import CurveError

__all__ = [
    "FactorizationBudgetExceeded",
    "PlaceSet",
    "class_product",
    "squarefree_reduce",
    "enumerate_Q_S2",
    "qs2_element",
    "qs2_index",
    "bad_places",
    "factorize",
    "prime_support",
]


# ---------------------------------------------------------------------------
# integer factorization (trial division + Miller-Rabin + Pollard-Brent rho)
# ---------------------------------------------------------------------------

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

# deterministic Miller-Rabin witnesses below psi_13, the least strong
# pseudoprime to all of them (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86, 2017): a proof of primality only there
_MR_BASES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
_PSI_13 = 3317044064679887385961981

# squarings the rho stage may spend on one composite: a 12-digit prime factor
# takes about 10^6 and rarely over 3.5 * 10^6; spending all of them takes
# about 7 s on a 2-vCPU Xeon virtual machine
_RHO_BUDGET = 1 << 23


class FactorizationBudgetExceeded(CurveError):
    """The rho stage found no factor of a composite within its budget."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, rng: random.Random) -> int:
    """One nontrivial factor of composite odd n, within `_RHO_BUDGET` squarings."""
    spent = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            spent += r + min(k, r)
            if g == 1 and spent >= _RHO_BUDGET:
                raise FactorizationBudgetExceeded(
                    f"cannot factor the composite {n} within {_RHO_BUDGET} rho steps")
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Factor a positive integer; a composite cofactor that the rho stage
    cannot split within its budget, or a factor of at least psi_13 that
    `_is_prime` cannot prove prime, raises FactorizationBudgetExceeded."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    # trial division up to 10^6 catches everything the rho stage would churn on
    d = 49
    while d * d <= n and d < 10 ** 6:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    if n == 1:
        return out
    rng = random.Random(0xC0FFEE ^ n)
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_prime(m):
            if m >= _PSI_13:
                raise FactorizationBudgetExceeded(f"cannot prove {m} prime")
            out[m] = out.get(m, 0) + 1
            continue
        g = _pollard_brent(m, rng)
        stack.append(g)
        stack.append(m // g)
    return out


def prime_support(q: Fraction | int) -> set[int]:
    """Primes dividing the numerator or denominator of q (q != 0)."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("zero has no prime support")
    supp = set(factorize(abs(q.numerator)))
    supp.update(factorize(q.denominator))
    return supp


# ---------------------------------------------------------------------------
# square classes of Q
# ---------------------------------------------------------------------------


def class_product(a: int, b: int) -> int:
    """The class of a b, for signed squarefree a and b: their product
    without the square of the primes they share."""
    return a * b // math.gcd(a, b) ** 2


def squarefree_reduce(q, primes=()) -> int:
    """The class of a nonzero rational in Q*/(Q*)^2, as a signed squarefree
    integer.

    The result times q is a rational square: n/d ~ n*d mod squares, then
    odd-exponent primes survive.  The given `primes` (those of S, say) are
    divided out first, and what is left is factored only when it is not a
    perfect square, so an S-unit class costs no factoring.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("0 has no square class")
    n = q.numerator * q.denominator
    c = 1 if n > 0 else -1
    n = abs(n)
    for p in primes:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            c *= p
    if math.isqrt(n) ** 2 != n:
        c *= math.prod(p for p, e in factorize(n).items() if e % 2)
    return c


# ---------------------------------------------------------------------------
# place sets and Q(S,2)
# ---------------------------------------------------------------------------


class _PlaceSetFields(NamedTuple):
    finite_primes: tuple[int, ...]


class PlaceSet(_PlaceSetFields):
    """A finite set of rational places: oo and the `finite_primes`;
    curve-derived sets always hold 2; primes out of increasing order raise
    ValueError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        ps = self.finite_primes
        if any(ps[i] >= ps[i + 1] for i in range(len(ps) - 1)):
            raise ValueError("finite primes must be strictly increasing")
        return self

    @classmethod
    def _make(cls, fields) -> "PlaceSet":
        """Through the validating constructor, and so is `_replace`."""
        return cls(*fields)

    def __contains__(self, p) -> bool:
        """Is p a place of the set: 0 for oo, which every set holds, or a prime?"""
        return p == 0 or p in self.finite_primes

    def __str__(self) -> str:
        return "{" + ", ".join([str(p) for p in self.finite_primes] + ["oo"]) + "}"


def qs2_index(c: int, primes) -> int:
    """F2 coordinates of a class over the basis (-1, p1, p2, ...) of
    Q(S,2), S having the finite `primes`: bit 0 is -1, bit i + 1 is
    primes[i].  A prime outside `primes` is left out."""
    return (c < 0) | sum(2 << i for i, p in enumerate(primes) if c % p == 0)


def qs2_element(m: int, primes) -> int:
    """The class of Q(S,2) with the coordinates m (`qs2_index` inverted)."""
    return (-1 if m & 1 else 1) * math.prod(p for i, p in enumerate(primes) if m & 2 << i)


def enumerate_Q_S2(S: PlaceSet) -> list[int]:
    """The subgroup Q(S,2) of Q*/(Q*)^2 generated by -1 and the primes of S.

    Deterministic order: binary counter over the basis (-1, p1, p2, ...),
    so the list has size 2^(1 + #finite primes) and starts with 1, -1, p1, ...
    """
    return [qs2_element(m, S.finite_primes) for m in range(2 << len(S.finite_primes))]


def bad_places(curve) -> PlaceSet:
    """Places where the local pairing can be nontrivial: S = {bad reduction} u {2} u {oo}.

    Uses the support of the discriminant data (leading coefficient, Delta, and
    all pairwise root differences), which may overshoot the minimal bad set;
    enlarging S only adds trivial local terms.
    """
    supp = {2}
    supp |= prime_support(curve.codomain_data.delta)
    supp |= prime_support(curve.domain_data.f[-1])
    roots = curve.domain_data.roots
    for i in range(len(roots)):
        if roots[i].denominator != 1:
            supp |= prime_support(Fraction(roots[i].denominator))
        for j in range(i + 1, len(roots)):
            supp |= prime_support(roots[i] - roots[j])
    return PlaceSet(tuple(sorted(supp)))
