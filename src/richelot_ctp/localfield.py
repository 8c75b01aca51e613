"""Exact local arithmetic at a place v of Q.

Square classes of Q_v, the Hilbert symbol in closed form, and a
bounded-precision p-adic type used only by the Mumford-divisor search.
Squareness of a rational at a finite place is decided from the valuation
parity and unit residues (mod p for odd p, mod 8 for p = 2), never from
truncated expansions.  `square_class_bits` reads both in one pass from the
integer numerator and denominator, without building a Fraction.  A Hilbert
symbol depends only on the square classes of its arguments, so
`hilbert_bits` evaluates it on their bits, and `hilbert_symbol` reads the
bits of two rationals and calls it.  The tests check the closed form against
an independent brute-force solvability oracle.
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
    "hilbert_bits",
    "hilbert_symbol",
    "PadicApprox",
    "InsufficientPrecision",
    "places_of",
    "class_mask",
    "square_class_bits",
    "valuation",
]


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


def class_mask(classes) -> int:
    """The square-class bits of a tuple's slots packed into one int, slot
    after slot, each slot's first bit lowest."""
    m, shift = 0, 0
    for bits in classes:
        for i, b in enumerate(bits):
            m |= b << (shift + i)
        shift += len(bits)
    return m


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


def hilbert_bits(bits_a: tuple[int, ...], bits_b: tuple[int, ...], p: Optional[int]) -> int:
    """The Hilbert symbol of two square classes at p (None being oo), from
    their `square_class_bits`, as an F2 exponent: 0 for +1, 1 for -1.

    Classical closed form: sign test at the real place; at odd p the formula
    (-1)^(alpha beta eps(p)) (u|p)^beta (w|p)^alpha for a = p^alpha u,
    b = p^beta w; at p = 2 the exponent eps(u)eps(w) + alpha eta(w) + beta
    eta(u) with eps(u) = (u-1)/2 and eta(u) = (u^2-1)/8 read off mod 8.
    Only the parities of alpha, beta enter, and for u = 3^b1 5^b2 mod 8,
    eps(u) = b1 and eta(u) = b1 + b2 mod 2.
    """
    if p is None:
        return bits_a[0] & bits_b[0]
    if p == 2:
        alpha, eps_u, b2_u = bits_a
        beta, eps_w, b2_w = bits_b
        return (eps_u & eps_w) ^ (alpha & (eps_w ^ b2_w)) ^ (beta & (eps_u ^ b2_u))
    alpha, res_u = bits_a
    beta, res_w = bits_b
    return (alpha & beta & (p % 4 == 3)) ^ (beta & res_u) ^ (alpha & res_w)


def hilbert_symbol(a, b, v: LocalPlace) -> int:
    """(a,b)_v = +1 iff z^2 = a x^2 + b y^2 has a nonzero solution over Q_v,
    for nonzero rationals a and b: `hilbert_bits` of their square classes."""
    e = hilbert_bits(local_square_class(a, v).bits, local_square_class(b, v).bits, v.p)
    return -1 if e else 1


# ---------------------------------------------------------------------------
# bounded-precision p-adic numbers (search plumbing only)
# ---------------------------------------------------------------------------

DEFAULT_PADIC_DIGITS = 24


def _int_valuation(n: int, p: int, cap: int) -> int:
    v = 0
    while v < cap and n % p == 0:
        n //= p
        v += 1
    return v


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
