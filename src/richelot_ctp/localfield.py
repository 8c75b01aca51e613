"""Exact local arithmetic at a place v of Q, which is an int at every
layer: its prime p, or 0 for the real place oo, as in PARI/GP's
`hilbert(x, y, 0)`; `place_name` prints it.

Square classes of Q_v, the Hilbert symbol in closed form, and square roots
of p-adic units modulo p^k, of which the Mumford-divisor certificate reads
a few digits.  Squareness of a rational at a finite place is decided from
the valuation parity and unit residues (mod p for odd p, mod 8 for p = 2),
never from truncated expansions.  `square_class_mask` reads both in one
pass from the integer numerator and denominator, without building a
Fraction, and packs the class into the bits of an int: that int is the
class, in the local search, the local tuples (`tuple_mask` packs a tuple's
slots) and `local_square_class` alike.
A Hilbert symbol depends only on the square classes of its arguments, so
`hilbert_bits` evaluates it on two such masks, or sums it over the slots of
two packed tuples in one call, and `hilbert_symbol` reads the masks of two
rationals and calls it.  The tests check the closed form
against an independent brute-force solvability oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

__all__ = [
    "place_name",
    "local_square_class",
    "is_local_square",
    "hilbert_bits",
    "hilbert_symbol",
    "places_of",
    "class_representative",
    "square_class_mask",
    "tuple_mask",
    "sqrt_mod_pk",
    "valuation",
]


def places_of(S) -> list[int]:
    """The places of a PlaceSet: 0 for oo, then its primes ascending."""
    return [0, *S.finite_primes]


def place_name(p: int) -> str:
    """How a report names the place p: "oo" for 0, else the prime."""
    return str(p) if p else "oo"


# ---------------------------------------------------------------------------
# valuations and residue symbols
# ---------------------------------------------------------------------------


def valuation(q, p: int) -> int:
    """v_p of a nonzero rational; an int or a Fraction is read as it is."""
    if not isinstance(q, (int, Fraction)):
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


def _legendre(u: int, p: int) -> int:
    """(u|p) for p odd, u prime to p; returns +1 or -1."""
    r = pow(u % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


# ---------------------------------------------------------------------------
# local square classes
# ---------------------------------------------------------------------------


def class_representative(m: int, p: int) -> int:
    """Smallest standard signed representative of the class of mask m at
    the place p."""
    if not p:
        return -1 if m else 1
    if p == 2:
        u = (1, 3, 5, -1)[m >> 1]  # 3^b1 5^b2 mod 8, and 7 as -1
    else:
        u = _smallest_nonresidue(p) if m & 2 else 1
    return u * p if m & 1 else u


@lru_cache(maxsize=None)
def _smallest_nonresidue(p: int) -> int:
    for n in range(2, p):
        if _legendre(n, p) == -1:
            return n
    raise ValueError(f"{p} is not an odd prime")


def local_square_dim(p: int) -> int:
    """The bits of a square class at the place p: the F2 dimension of
    Q_p*/(Q_p*)^2, and the width of a slot in a packed tuple."""
    return 3 if p == 2 else 2 if p else 1


def square_class_mask(n: int, d: int, p: int) -> int:
    """The square class of n/d (nonzero ints) at the place p, as a
    mask whose bits are its F2 coordinates: (val parity, nonresidue) at odd
    p, (val parity, b1, b2) at p = 2 where the unit part is 3^b1 * 5^b2
    mod 8, and (sign,) at the real place; the group has order 4 / 8 / 2.

    One pass over the integers: strip p from n and d for the valuation
    parity, then read the unit part's residue from n d, which lies in the
    same square class as n / d (d and 1/d differ by the square d^2).
    """
    if not n or not d:
        raise ValueError("zero has no square class")
    if not p:
        return 1 if (n < 0) != (d < 0) else 0
    if p == 2:
        vn, vd = (n & -n).bit_length() - 1, (d & -d).bit_length() - 1
        # the unit part is 3^b1 5^b2 mod 8, and b1, b2 are its bits 1 and 2
        return (vn ^ vd) & 1 | ((n >> vn) * (d >> vd)) & 6
    val = 0
    while n % p == 0:
        n //= p
        val ^= 1
    while d % p == 0:
        d //= p
        val ^= 1
    return val if pow(n % p * (d % p), p >> 1, p) == 1 else val | 2


def tuple_mask(values, p: int) -> int:
    """The classes at p of a tuple of nonzero rationals, given as integer
    pairs (n, d), packed into one int: slot i's `square_class_mask` at
    shift i dim, dim being the bits of a class at p."""
    dim = local_square_dim(p)
    m = shift = 0
    for n, d in values:
        m |= square_class_mask(n, d, p) << shift
        shift += dim
    return m


def local_square_class(x, p: int) -> int:
    """The `square_class_mask` of a nonzero rational in Q_p*/(Q_p*)^2."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return square_class_mask(x.numerator, x.denominator, p)


def is_local_square(x, p: int) -> bool:
    return not local_square_class(x, p)


# ---------------------------------------------------------------------------
# Hilbert symbol: closed form
# ---------------------------------------------------------------------------


def hilbert_bits(a: int, b: int, p: int) -> int:
    """The Hilbert symbol of two square classes at the place p, from
    their `square_class_mask`s, as an F2 exponent: 0 for +1, 1 for -1.  On
    two tuples packed alike (`tuple_mask`), of any length, it is the sum of
    the slots' exponents: the closed form below runs on every slot at once
    and leaves each slot's exponent in the slot's bit 0, the other bits are
    masked off, and the parity of what is left is the sum.

    Classical closed form: sign test at the real place; at odd p the formula
    (-1)^(alpha beta eps(p)) (u|p)^beta (w|p)^alpha for a = p^alpha u,
    b = p^beta w; at p = 2 the exponent eps(u)eps(w) + alpha eta(w) + beta
    eta(u) with eps(u) = (u-1)/2 and eta(u) = (u^2-1)/8 read off mod 8.
    Only the parities of alpha, beta (bit 0) enter, and for u = 3^b1 5^b2
    mod 8, eps(u) = b1 (bit 1) and eta(u) = b1 + b2 mod 2 (bit 1 of m ^ m >> 1).
    """
    if not p:
        return (a & b).bit_count() & 1
    if p == 2:
        e = (a & b) >> 1 ^ a & (b ^ b >> 1) >> 1 ^ b & (a ^ a >> 1) >> 1
    else:
        e = (a & b if p & 3 == 3 else 0) ^ (a >> 1 & b) ^ (a & b >> 1)
    d = local_square_dim(p)
    n = e.bit_length() // d + 1  # slots enough to hold e
    return (e & ((1 << n * d) - 1) // ((1 << d) - 1)).bit_count() & 1


def hilbert_symbol(a, b, p: int) -> int:
    """(a,b)_p = +1 iff z^2 = a x^2 + b y^2 has a nonzero solution over Q_p,
    for nonzero rationals a and b: `hilbert_bits` of their square classes."""
    return -1 if hilbert_bits(local_square_class(a, p), local_square_class(b, p), p) else 1


# ---------------------------------------------------------------------------
# square roots modulo prime powers
# ---------------------------------------------------------------------------


def sqrt_mod_pk(u: int, p: int, k: int) -> int:
    """A square root mod p^k (k >= 1) of a unit u that is a square in Z_p:
    the residue of one of its two roots in Z_p, the other being minus it.

    Tonelli-Shanks mod p, then Hensel lifting at odd p.  At p = 2 (u = 1
    mod 8) the root is lifted bit by bit to a solution mod 2^(k+1), whose
    residue mod 2^k is a true root's: the solutions mod 2^(k+1) are +-r and
    +-r + 2^k.  Raises ValueError when u is not a square unit.
    """
    if p == 2:
        if u % 8 != 1:
            raise ValueError(f"{u} is not a square unit in Z_2")
        r = 1
        for i in range(3, k + 1):  # r^2 = u mod 2^i; make it mod 2^(i+1)
            if (r * r - u) % (2 << i):
                r += 1 << (i - 1)
        return r
    if u % p == 0 or _legendre(u, p) == -1:
        raise ValueError(f"{u} is not a square unit in Z_{p}")
    r = _sqrt_mod_p(u % p, p)
    j = 1
    while j < k:
        j = min(2 * j, k)
        m = p ** j
        r = (r - (r * r - u) * pow(2 * r, -1, m)) % m
    return r


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
