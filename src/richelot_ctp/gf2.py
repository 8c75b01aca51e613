"""Tiny F2 linear algebra on int bitmasks (bit i = coordinate i)."""

from __future__ import annotations

from typing import Iterable, Optional

__all__ = ["Span", "echelon", "same_span", "nullspace", "coordinates"]


def echelon(vectors: Iterable[int]) -> list[int]:
    """Reduced echelon basis of the span, sorted by decreasing leading bit."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
            basis.sort(reverse=True)
    # back-substitute so each leading bit appears in exactly one row
    for i in range(len(basis)):
        for j in range(len(basis)):
            if i != j and basis[j] ^ basis[i] < basis[j]:
                basis[j] ^= basis[i]
    basis.sort(reverse=True)
    return basis


class Span:
    """A growing F2 subspace with reduction against the current basis."""

    def __init__(self, vectors: Iterable[int] = ()):
        self._rows: list[int] = []
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        for b in self._rows:
            v = min(v, v ^ b)
        return v

    def __contains__(self, v: int) -> bool:
        return self.reduce(v) == 0

    def add(self, v: int) -> bool:
        """Add v to the span; True iff the dimension grew."""
        v = self.reduce(v)
        if v == 0:
            return False
        self._rows.append(v)
        self._rows.sort(reverse=True)
        return True

    @property
    def dim(self) -> int:
        return len(self._rows)

    def basis(self) -> list[int]:
        return echelon(self._rows)

    def elements(self) -> list[int]:
        """All 2^dim elements, in basis-mask counter order."""
        b = self.basis()
        out = []
        for mask in range(1 << len(b)):
            v = 0
            for i, row in enumerate(b):
                if mask >> i & 1:
                    v ^= row
            out.append(v)
        return out


def same_span(a: Iterable[int], b: Iterable[int]) -> bool:
    return echelon(a) == echelon(b)


def nullspace(columns: list[int]) -> list[int]:
    """Kernel basis of the matrix with these columns (bit i of a column is
    its entry in row i): the masks whose bit c selects columns[c], for the
    selections that XOR to zero.

    Column elimination with identity tags: column c, tagged with e_c, is
    reduced against the pivots kept so far, one per leading bit.  A column
    that vanishes yields its tag, the one kernel vector with bit c set and
    its other bits at independent columns before c; any other column
    becomes the pivot of its leading bit.
    """
    pivots: dict[int, tuple[int, int]] = {}  # leading bit -> (reduced column, tag)
    kernel: list[int] = []
    for c, vec in enumerate(columns):
        tag = 1 << c
        while vec and (top := vec.bit_length()) in pivots:
            pvec, ptag = pivots[top]
            vec ^= pvec
            tag ^= ptag
        if vec:
            pivots[top] = (vec, tag)
        else:
            kernel.append(tag)
    return kernel


def coordinates(basis: list[int], v: int) -> Optional[int]:
    """The mask whose bit k selects basis[k], for the vectors that XOR to v,
    or None when v is outside their span; the vectors must be independent.
    The kernel of the matrix with columns basis + [v] is then at most one
    vector, and holds one with v's bit set exactly when v is in the span."""
    n = len(basis)
    return next((x ^ 1 << n for x in nullspace(basis + [v]) if x >> n & 1), None)
