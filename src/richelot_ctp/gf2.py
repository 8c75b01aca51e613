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


def nullspace(rows: list[int], ncols: int) -> list[int]:
    """Kernel basis of the matrix whose i-th row acts by x -> parity(rows[i] & x).

    Column elimination with identity tags: column c of the matrix, tagged with
    e_c, is reduced against an XOR basis; columns that vanish yield kernel
    vectors (their tags).
    """
    basis: list[tuple[int, int]] = []  # (reduced column, tag), distinct top bits
    kernel: list[int] = []
    for c in range(ncols):
        vec = 0
        for i, r in enumerate(rows):
            if r >> c & 1:
                vec |= 1 << i
        tag = 1 << c
        for bvec, btag in basis:
            if vec ^ bvec < vec:
                vec ^= bvec
                tag ^= btag
        if vec == 0:
            kernel.append(tag)
        else:
            basis.append((vec, tag))
            basis.sort(key=lambda t: -t[0])
    return kernel


def coordinates(basis: list[int], v: int) -> Optional[int]:
    """The mask whose bit k selects basis[k], for the rows that XOR to v, or
    None when v is outside their span; the rows must be independent.  The
    kernel of the matrix with columns basis + [v] is then at most one
    vector, and holds one with v's bit set exactly when v is in the span."""
    n, cols = len(basis), basis + [v]
    rows = [sum((c >> i & 1) << k for k, c in enumerate(cols))
            for i in range(max(cols).bit_length())]
    return next((x ^ (1 << n) for x in nullspace(rows, n + 1) if x >> n & 1), None)
