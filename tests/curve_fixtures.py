"""Curves the tests share: the benchmark corpus, and curve files under
fixtures/ in the format `ctp` reads; `fresh`, for a test that counts a
walk's work on a shared curve, which keeps what earlier tests found; and
entry points the library does not need, written over its internals:
`quadratic_mumford_certificate`, `encode_triple`, a triple's F2
coordinates in three slots, `in_radical`, the radical membership test of
a pairing matrix, and the F2 coordinates of a class: `class_bits` unpacks
a mask into them, `square_class_bits` reads them from n/d, and
`class_mask` packs a tuple's slots back into one int, as the library's
masks do."""

import json
import math
from fractions import Fraction
from functools import reduce
from operator import xor
from pathlib import Path

from richelot_ctp import gf2
from richelot_ctp.arith import qs2_index
from richelot_ctp.curve import _common_denominator, build_pair, poly_integer_form
from richelot_ctp.localfield import local_square_dim, square_class_mask
from richelot_ctp.localpoints import _quadratic_certificate

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def k_family(k):
    return build_pair(1, [2 * k, 1], [0, -6 * k, 1], [-7 * k * k, -6 * k, 1])


# the fourteen curves of the benchmark's four workloads
BENCHMARK_CURVES = {
    "k113": k_family(113),
    "fractional": build_pair(4, [Fraction(-1, 2), 1], [-1, 0, 1], [-12, 1, 1]),
    "irrational": build_pair(1, [0, 1], [-1, 0, 1], [6, -5, 1]),
    "A257": build_pair(1, [0, 1], [-1, 0, 1], [-257 * 257, 0, 1]),
    "B31": build_pair(1, [0, 1], [2, -3, 1], [5 * 31, -(5 + 31), 1]),
    "B97": build_pair(1, [0, 1], [2, -3, 1], [5 * 97, -(5 + 97), 1]),
    **{f"k{k}": k_family(k) for k in (17, 143, 2431, 46189, 1062347)},
    "six-root": build_pair(2, [-1, 1], [30, -21, 3], [-11, -10, 1]),
    "negative-lc": build_pair(-1, [0, 1], [-1, 0, 1], [-9, 0, 1]),
    "A1009": build_pair(1, [0, 1], [-1, 0, 1], [-1009 * 1009, 0, 1]),
}


def fresh(curve):
    """A separate instance of `curve`, built again from its factors: it holds
    none of the tables, local images among them, that `curve` has kept."""
    return build_pair(1, *curve.G)


def fixture_path(label: str) -> Path:
    return FIXTURES / f"{label}.json"


def fixture_curve(label: str):
    """The curve of fixtures/<label>.json."""
    data = json.loads(fixture_path(label).read_text())
    return build_pair(Fraction(data["lambda"]),
                      *([Fraction(c) for c in data[g]] for g in ("G1", "G2", "G3")))


def encode_triple(t, primes) -> int:
    """F2 coordinates of a triple over the basis (-1, p1, p2, ...) of
    Q(S,2), S having the finite `primes`, slot after slot: the tests'
    packing, with no norm condition, beside the library's pair index."""
    radical = math.prod(primes)
    if any(radical % c for c in t.values):
        raise ValueError(f"{t} is not supported on {primes}")
    return sum(qs2_index(c, primes) << i * (len(primes) + 1) for i, c in enumerate(t.values))


def in_radical(matrix, t, primes) -> bool:
    """Is t in the radical of the `PairingMatrix`?  Each radical mask selects
    basis rows, and the XOR of their F2 coordinates over `primes` is the
    element's."""
    rows = [encode_triple(b, primes) for b in matrix.basis]
    span = gf2.Span(reduce(xor, (r for i, r in enumerate(rows) if m >> i & 1), 0)
                    for m in matrix.radical_basis)
    return encode_triple(t, primes) in span


def quadratic_mumford_certificate(f, A, v) -> bool:
    """Is f, given by its Fraction coefficients, a square in Q_v[x]/(A) for
    A = x^2 + a x + b, A = (a, b)?"""
    a, b = Fraction(A[0]), Fraction(A[1])
    return _quadratic_certificate(poly_integer_form(f), *_common_denominator(
        a.as_integer_ratio(), b.as_integer_ratio()), v)


def class_bits(m: int, p) -> tuple[int, ...]:
    """The F2 coordinates of the class with mask m at p, 0 being oo: bit
    i of m for i below the dimension of a class there (`local_square_dim`)."""
    return tuple(m >> i & 1 for i in range(local_square_dim(p)))


def square_class_bits(n: int, d: int, p) -> tuple[int, ...]:
    """The F2 coordinates of the class of n/d (nonzero ints) at p, 0
    being oo: `square_class_mask` unpacked."""
    return class_bits(square_class_mask(n, d, p), p)


def class_mask(classes) -> int:
    """The square-class bits of a tuple's slots packed into one int, slot
    after slot, each slot's first bit lowest: the layout of a local tuple's
    `mask`."""
    m, shift = 0, 0
    for bits in classes:
        for i, b in enumerate(bits):
            m |= b << (shift + i)
        shift += len(bits)
    return m
