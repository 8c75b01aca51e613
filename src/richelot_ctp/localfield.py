"""Exact local arithmetic at a place v of Q.

Square classes of Q_v, the Hilbert symbol in closed form, an independent
brute-force solvability oracle, and a bounded-precision p-adic type used only
by the Mumford-divisor search.  All symbol evaluations take exact rationals;
squareness of a rational at a finite place is decided from the valuation
parity and unit residues (mod p for odd p, mod 8 for p = 2), never from
truncated expansions.  `square_class_bits` reads both in one pass from the
integer numerator and denominator, without building a Fraction; square
classes and Hilbert symbols are computed from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

__all__ = [
    "LocalPlace",
    "LocalSquareClass",
    "local_square_class",
    "is_local_square",
    "hilbert_symbol",
    "hilbert_oracle",
    "OracleInconclusive",
    "PadicApprox",
    "InsufficientPrecision",
    "places_of",
    "square_class_bits",
    "valuation",
]


class OracleInconclusive(Exception):
    """The lifting criteria cannot decide at this depth; raise the depth."""


class InsufficientPrecision(Exception):
    """A p-adic square test needs more digits than are being carried."""


@dataclass(frozen=True)
class LocalPlace:
    """A place of Q: finite(p) or the real place (p is None)."""

    p: Optional[int] = None

    @staticmethod
    def finite(p: int) -> "LocalPlace":
        if p < 2:
            raise ValueError("finite place needs a prime")
        return LocalPlace(p)

    @staticmethod
    def infinite() -> "LocalPlace":
        return LocalPlace(None)

    def __str__(self) -> str:
        return "oo" if self.p is None else str(self.p)


def places_of(S) -> list[LocalPlace]:
    """LocalPlace list for a PlaceSet, infinity first then primes ascending."""
    out = [LocalPlace.infinite()] if S.includes_infinity else []
    out.extend(LocalPlace.finite(p) for p in S.finite_primes)
    return out


# ---------------------------------------------------------------------------
# valuations and unit residues of rationals
# ---------------------------------------------------------------------------


def valuation(q, p: int) -> int:
    """v_p of a nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise ValueError("valuation of zero")
    v = 0
    n = q.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = q.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _unit_residue(q: Fraction, p: int, modulus: int) -> int:
    """The p-unit part of q reduced mod `modulus` (a power of p)."""
    n, d = q.numerator, q.denominator
    while n % p == 0:
        n //= p
    while d % p == 0:
        d //= p
    return n * pow(d, -1, modulus) % modulus


def _legendre(u: int, p: int) -> int:
    """(u|p) for p odd, u prime to p; returns +1 or -1."""
    r = pow(u % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


# ---------------------------------------------------------------------------
# local square classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalSquareClass:
    """An element of Q_v*/(Q_v*)^2.

    `bits` is the F2 coordinate vector: (val parity, nonresidue) at odd p,
    (val parity, b1, b2) at p = 2 where the unit part is 3^b1 * 5^b2 mod 8,
    and (sign,) at the real place.  The group has order 4 / 8 / 2.
    """

    place: LocalPlace
    bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.bits) != local_square_dim(self.place):
            raise ValueError("wrong coordinate length for this place")

    def is_trivial(self) -> bool:
        return not any(self.bits)

    def __mul__(self, other: "LocalSquareClass") -> "LocalSquareClass":
        if other.place != self.place:
            raise ValueError("mismatched places")
        return LocalSquareClass(self.place, tuple(a ^ b for a, b in zip(self.bits, other.bits)))

    def mask(self) -> int:
        m = 0
        for i, b in enumerate(self.bits):
            m |= b << i
        return m

    def representative(self) -> int:
        """Smallest standard signed representative of the class."""
        p = self.place.p
        if p is None:
            return -1 if self.bits[0] else 1
        if p == 2:
            u = {(0, 0): 1, (1, 0): 3, (0, 1): 5, (1, 1): 7}[self.bits[1:]]
            u = {1: 1, 3: 3, 5: 5, 7: -1}[u]
            return 2 * u if self.bits[0] else u
        u = _smallest_nonresidue(p) if self.bits[1] else 1
        return p * u if self.bits[0] else u

    def __str__(self) -> str:
        return f"{self.representative()}@{self.place}"


@lru_cache(maxsize=None)
def _smallest_nonresidue(p: int) -> int:
    for n in range(2, p):
        if _legendre(n, p) == -1:
            return n
    raise ValueError(f"{p} is not an odd prime")


def local_square_dim(v: LocalPlace) -> int:
    if v.p is None:
        return 1
    return 3 if v.p == 2 else 2


def square_class_bits(n: int, d: int, p: Optional[int]) -> tuple[int, ...]:
    """The `LocalSquareClass.bits` of n/d (nonzero ints) at p, None being oo.

    One pass over the integers: strip p from n and d for the valuation
    parity, then read the unit part's residue from n d, which lies in the
    same square class as n / d (d and 1/d differ by the square d^2).
    """
    if not n or not d:
        raise ValueError("zero has no square class")
    if p is None:
        return (1 if (n < 0) != (d < 0) else 0,)
    val = 0
    while n % p == 0:
        n //= p
        val += 1
    while d % p == 0:
        d //= p
        val -= 1
    if p == 2:
        u8 = (n % 8) * (d % 8) % 8  # the unit part is 3^b1 5^b2 mod 8
        return (val & 1, (u8 >> 1) & 1, (u8 >> 2) & 1)
    return (val & 1, 0 if pow((n % p) * (d % p), (p - 1) // 2, p) == 1 else 1)


def local_square_class(x, v: LocalPlace) -> LocalSquareClass:
    """The class of a nonzero rational in Q_v*/(Q_v*)^2."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return LocalSquareClass(v, square_class_bits(x.numerator, x.denominator, v.p))


def is_local_square(x, v: LocalPlace) -> bool:
    return local_square_class(x, v).is_trivial()


# ---------------------------------------------------------------------------
# Hilbert symbol: closed form
# ---------------------------------------------------------------------------


def hilbert_symbol(a, b, v: LocalPlace) -> int:
    """(a,b)_v = +1 iff z^2 = a x^2 + b y^2 has a nonzero solution over Q_v.

    Classical closed form: sign test at the real place; at odd p the formula
    (-1)^(alpha beta eps(p)) (u|p)^beta (w|p)^alpha for a = p^alpha u,
    b = p^beta w; at p = 2 the exponent eps(u)eps(w) + alpha eta(w) + beta
    eta(u) with eps(u) = (u-1)/2 and eta(u) = (u^2-1)/8 read off mod 8.
    Only the parities of alpha, beta enter, so both arguments are read
    through `square_class_bits`: for u = 3^b1 5^b2 mod 8, eps(u) = b1 and
    eta(u) = b1 + b2 mod 2.
    """
    if not isinstance(a, (int, Fraction)):
        a = Fraction(a)
    if not isinstance(b, (int, Fraction)):
        b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    p = v.p
    if p is None:
        return -1 if (a < 0 and b < 0) else 1
    bits_a = square_class_bits(a.numerator, a.denominator, p)
    bits_b = square_class_bits(b.numerator, b.denominator, p)
    if p == 2:
        alpha, eps_u, b2_u = bits_a
        beta, eps_w, b2_w = bits_b
        e = (eps_u & eps_w) ^ (alpha & (eps_w ^ b2_w)) ^ (beta & (eps_u ^ b2_u))
    else:
        alpha, res_u = bits_a
        beta, res_w = bits_b
        e = (alpha & beta & (p % 4 == 3)) ^ (beta & res_u) ^ (alpha & res_w)
    return -1 if e else 1


# ---------------------------------------------------------------------------
# Hilbert symbol: independent brute-force oracle
# ---------------------------------------------------------------------------

_EXHAUSTIVE_CAP = 512  # run the residue exhaustion only while p^depth stays this small


def hilbert_oracle(a, b, v: LocalPlace, depth: int = 6) -> int:
    """Decide solvability of z^2 = a x^2 + b y^2 over Q_v by search.

    Independent of the closed form above.  At the real place this is a sign
    exhaustion.  At finite places with p^depth <= 512 it enumerates residue
    triples mod p^depth, certifying solutions with the Hensel criterion
    2 v(grad) < depth and insolvability by exhaustion over primitive triples.
    For larger p it combines quadratic-residue sets built by brute squaring
    with an elementary valuation-parity descent.

    Raises OracleInconclusive when zeros exist mod p^depth but none certify.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("oracle needs nonzero arguments")
    p = v.p
    if p is None:
        return -1 if (a < 0 and b < 0) else 1
    # scale by squares so valuations are 0 or 1 (conic solutions transform by
    # rescaling one coordinate, so the answer is unchanged)
    alpha, beta = valuation(a, p) % 2, valuation(b, p) % 2
    if p ** depth <= _EXHAUSTIVE_CAP:
        return _oracle_exhaustive(a, b, p, depth, alpha, beta)
    return _oracle_large_p(a, b, p, alpha, beta)


def _oracle_exhaustive(a: Fraction, b: Fraction, p: int, depth: int, alpha: int, beta: int) -> int:
    M = p ** depth
    am = p ** alpha * _unit_residue(a, p, M) % M
    bm = p ** beta * _unit_residue(b, p, M) % M
    # square roots mod M, listed per residue
    roots: dict[int, list[int]] = {}
    for z in range(M):
        roots.setdefault(z * z % M, []).append(z)
    inconclusive = False
    for x in range(M):
        ax2 = am * x * x % M
        for y in range(M):
            t = (ax2 + bm * y * y) % M
            if t not in roots:
                continue
            for z in roots[t]:
                if x % p == 0 and y % p == 0 and z % p == 0:
                    continue  # not primitive
                # Hensel: some partial derivative 2*c*var with small valuation
                ok = False
                for c, var in ((am, x), (bm, y), (1, z)):
                    if var == 0:
                        continue
                    vv = _int_valuation(2 * c * var, p, depth)
                    if 2 * vv < depth:
                        ok = True
                        break
                if ok:
                    return 1
                inconclusive = True
    if inconclusive:
        raise OracleInconclusive(f"zeros mod {p}^{depth} exist but none certify")
    return -1


def _int_valuation(n: int, p: int, cap: int) -> int:
    v = 0
    while v < cap and n % p == 0:
        n //= p
        v += 1
    return v


def _oracle_large_p(a: Fraction, b: Fraction, p: int, alpha: int, beta: int) -> int:
    u = _unit_residue(a, p, p)
    w = _unit_residue(b, p, p)
    qr = {x * x % p for x in range(1, p)}
    if alpha == 0 and beta == 0:
        # search a solution mod p; any zero with a unit coordinate lifts
        w_inv = pow(w, -1, p)
        for x in range(p):
            ux2 = u * x * x % p
            for z in range(p):
                if x == 0 and z == 0:
                    continue
                t = (z * z - ux2) * w_inv % p
                if t == 0 or t in qr:
                    return 1
        return -1
    if alpha == 0:
        # z^2 - u x^2 = (p w') y^2: LHS has even valuation unless u is a
        # residue, while the RHS valuation is odd for y != 0
        return 1 if u % p in qr else -1
    if beta == 0:
        return 1 if w % p in qr else -1
    # both valuations odd: divide by p, need u x^2 + w y^2 = p z^2, i.e. a
    # nontrivial zero of u x^2 + w y^2 mod p: exists iff -u/w is a residue
    t = (p - u) * pow(w, -1, p) % p
    return 1 if t in qr else -1


# ---------------------------------------------------------------------------
# bounded-precision p-adic numbers (search plumbing only)
# ---------------------------------------------------------------------------

DEFAULT_PADIC_DIGITS = 24


class PadicApprox:
    """x = p^val * unit known mod p^prec, with exact valuation tracking.

    Exists solely for the Mumford-divisor search: its square test demands
    enough digits (1 for odd p, 3 for p = 2) and raises InsufficientPrecision
    instead of guessing.  `None` valuation marks an exact zero.
    """

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p: int, val: Optional[int], unit: int, prec: int):
        self.p = p
        self.prec = prec
        if val is None:
            self.val = None
            self.unit = 0
            return
        self.val = val
        if prec <= 0:
            self.unit = 0  # no digits carried
            return
        unit %= p ** prec
        if unit % p == 0:
            raise ValueError("unit part must be prime to p")
        self.unit = unit

    @staticmethod
    def from_rational(q, p: int, prec: int = DEFAULT_PADIC_DIGITS) -> "PadicApprox":
        q = Fraction(q)
        if q == 0:
            return PadicApprox(p, None, 0, prec)
        v = valuation(q, p)
        return PadicApprox(p, v, _unit_residue(q, p, p ** prec), prec)

    @staticmethod
    def from_ints(n: int, d: int, p: int, prec: int = DEFAULT_PADIC_DIGITS) -> "PadicApprox":
        """`from_rational(n/d)` read from the integers (d nonzero) in one pass:
        strip p from n and d for the valuation, and take the unit as n d^-1
        mod p^prec, which common factors prime to p do not change."""
        if not d:
            raise ZeroDivisionError("denominator is zero")
        if not n:
            return PadicApprox(p, None, 0, prec)
        val = 0
        while n % p == 0:
            n //= p
            val += 1
        while d % p == 0:
            d //= p
            val -= 1
        m = p ** prec
        return PadicApprox(p, val, n * pow(d, -1, m) % m, prec)

    def is_zero(self) -> bool:
        return self.val is None

    def _modulus(self) -> int:
        return self.p ** self.prec

    def __mul__(self, other: "PadicApprox") -> "PadicApprox":
        if self.is_zero() or other.is_zero():
            return PadicApprox(self.p, None, 0, min(self.prec, other.prec))
        prec = min(self.prec, other.prec)
        return PadicApprox(self.p, self.val + other.val,
                           self.unit * other.unit % self.p ** prec, prec)

    def __add__(self, other: "PadicApprox") -> "PadicApprox":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        p = self.p
        lo, hi = (self, other) if self.val <= other.val else (other, self)
        shift = hi.val - lo.val
        prec = min(lo.prec, hi.prec + shift)
        if prec <= 0:
            raise InsufficientPrecision("additive cancellation exhausted all digits")
        m = p ** prec
        s = (lo.unit + hi.unit * p ** shift) % m
        if s == 0:
            # cancelled below the carried precision: indistinguishable from 0
            raise InsufficientPrecision("sum vanishes to working precision")
        extra = _int_valuation(s, p, prec)
        if extra >= prec:
            raise InsufficientPrecision("sum vanishes to working precision")
        return PadicApprox(p, lo.val + extra, s // p ** extra, prec - extra)

    def __neg__(self) -> "PadicApprox":
        if self.is_zero():
            return self
        return PadicApprox(self.p, self.val, -self.unit % self._modulus(), self.prec)

    def is_square(self) -> bool:
        """Squareness in Q_p; needs 1 spare digit for odd p, 3 for p = 2."""
        if self.is_zero():
            return True
        need = 3 if self.p == 2 else 1
        if self.prec < need:
            raise InsufficientPrecision(f"need {need} unit digits, have {self.prec}")
        if self.val % 2:
            return False
        if self.p == 2:
            return self.unit % 8 == 1
        return _legendre(self.unit % self.p, self.p) == 1

    def sqrt(self) -> "PadicApprox":
        """A square root, by Tonelli-Shanks mod p plus Hensel lifting."""
        if self.is_zero():
            return self
        if not self.is_square():
            raise ValueError("not a square in Q_p")
        p, u = self.p, self.unit
        if p == 2:
            prec = self.prec
            if prec < 3:
                raise InsufficientPrecision("need 3 digits for a 2-adic sqrt")
            r = 1
            for k in range(3, prec):
                if (r * r - u) % (1 << (k + 1)):
                    r += 1 << (k - 1)
            return PadicApprox(2, self.val // 2, r, max(prec - 1, 1))
        r = _sqrt_mod_p(u % p, p)
        k = 1
        while k < self.prec:
            k = min(2 * k, self.prec)
            m = p ** k
            r = (r - (r * r - u) * pow(2 * r, -1, m)) % m
        return PadicApprox(p, self.val // 2, r, self.prec)


def _sqrt_mod_p(n: int, p: int) -> int:
    """Tonelli-Shanks; assumes n is a nonzero residue mod odd p."""
    if p % 4 == 3:
        return pow(n, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = _smallest_nonresidue(p)
    c = pow(z, q, p)
    r = pow(n, (q + 1) // 2, p)
    t = pow(n, q, p)
    m = s
    while t != 1:
        i, x = 0, t
        while x != 1:
            x = x * x % p
            i += 1
        bexp = pow(c, 1 << (m - i - 1), p)
        r = r * bexp % p
        c = bexp * bexp % p
        t = t * c % p
        m = i
    return r
