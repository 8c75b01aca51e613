"""Square-class tuple avatars of the cohomology groups and the maps between them.

The kernel-descent cohomology groups embed into norm-one tuples of square
classes: triples (alpha1, alpha2, alpha3) with alpha1 alpha2 alpha3 a square
for both isogeny kernels, quintuples (x1..x5) with square product for full
2-torsion.  The connecting maps are

    triple  -> quintuple : (a, b, c) -> (1, c, c, b, b)
    quintuple -> triple  : (a1..a5)  -> (a1, a2 a3, a4 a5)
    section              : (a, b, c) -> (a, 1, b, 1, c)

and the descent back onto the first kernel inverts the first map slotwise.
A global tuple holds each slot's class as its signed squarefree int, and
a product is slotwise `class_product`.  A local tuple is its place and
one int: the place is its prime, 0 for oo, and the int holds slot i's
`square_class_mask` at shift i dim.  `slots` unpacks the masks, which are
the slots' classes: restriction reads each slot's integers once, a product
is an XOR, and the Hilbert symbols downstream depend only on square
classes, so `cup_invariant` evaluates them on the packed masks, all slots
in one call.
Each map lists, per output slot, the input slots it multiplies, so it
works on global and local tuples alike.
"""

from __future__ import annotations

from functools import reduce
from operator import xor
from typing import NamedTuple

from .arith import class_product, squarefree_reduce
from .localfield import class_representative, hilbert_bits, local_square_dim, place_name, tuple_mask

__all__ = [
    "KummerTriple",
    "KummerQuintuple",
    "LocalKummerTriple",
    "LocalKummerQuintuple",
    "NormConditionError",
    "NotInImageError",
    "psi_phi_to_two",
    "psi_two_to_phihat",
    "lift_phihat_to_two",
    "quintuple_quotient",
    "descend_to_phi",
    "cup_invariant",
]


class NormConditionError(ValueError):
    """Component product is not a square."""


class NotInImageError(RuntimeError):
    """A local quintuple is not in the image of the triple embedding.

    This is the pipeline's principal self-check: it fires precisely when a
    local point does not lift the chosen class, or the global lift is wrong.
    """


# ---------------------------------------------------------------------------
# global tuples (canonical squarefree components)
# ---------------------------------------------------------------------------


class _KummerTuple(NamedTuple):
    """The body shared by the global tuples, the signed squarefree class of
    each slot; a subclass sets `n` and `local` (its local tuple kind)."""

    values: tuple[int, ...]

    @classmethod
    def of(cls, *values, primes=()):
        """The tuple of the classes of these nonzero rational slot values
        (`squarefree_reduce`, which divides out `primes` before it factors)."""
        cs = tuple(squarefree_reduce(c, primes) for c in values)
        if len(cs) != cls.n:
            raise ValueError(f"expected {cls.n} components")
        if (prod := reduce(class_product, cs)) != 1:
            raise NormConditionError(f"component product {prod} is not a square")
        return cls(cs)

    def is_trivial(self) -> bool:
        return all(c == 1 for c in self.values)

    def _map(self, rows):
        """The global tuple whose slot k multiplies the slots in rows[k]."""
        return (KummerTriple, KummerQuintuple)[len(rows) == 5](tuple(
            reduce(class_product, (self.values[i] for i in row), 1) for row in rows))

    def __mul__(self, other):
        return type(self)(tuple(map(class_product, self.values, other.values)))

    def restrict(self, v: int):
        return self.local.of(self.values, v)

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.values) + ")"


# ---------------------------------------------------------------------------
# local tuples: a place and the packed square classes of Q_v of the slots
# ---------------------------------------------------------------------------


class _LocalKummerTuple(NamedTuple):
    """The body shared by the local tuples; a subclass sets `n`."""

    place: int
    mask: int

    @classmethod
    def of(cls, values, v: int):
        """The tuple of the classes at v of these nonzero rational slot
        values, each an int, a Fraction, or an int pair (numerator,
        denominator)."""
        values = [x if isinstance(x, tuple) else (x.numerator, x.denominator) for x in values]
        if len(values) != cls.n:
            raise ValueError(f"expected {cls.n} values")
        t = cls(v, tuple_mask(values, v))
        # the class map is a homomorphism: the product is a square iff the
        # slots' masks XOR to zero
        if reduce(xor, t.slots()):
            raise NormConditionError(
                f"the product of {values} is not a square in Q_{place_name(v)}")
        return t

    def slots(self) -> list[int]:
        """The mask of each slot's class."""
        d = local_square_dim(self.place)
        return [self.mask >> i * d & (1 << d) - 1 for i in range(self.n)]

    def is_trivial(self) -> bool:
        return not self.mask

    def _map(self, rows):
        """The local tuple whose slot k multiplies the slots in rows[k]."""
        d, s, m = local_square_dim(self.place), self.slots(), 0
        for k, row in enumerate(rows):
            for i in row:
                m ^= s[i] << k * d
        return (LocalKummerTriple, LocalKummerQuintuple)[len(rows) == 5](self.place, m)

    def __mul__(self, other):
        if other.place != self.place:
            raise ValueError("mismatched places")
        return type(self)(self.place, self.mask ^ other.mask)

    def __str__(self) -> str:
        reps = (class_representative(c, self.place) for c in self.slots())
        return f"({', '.join(map(str, reps))})@{place_name(self.place)}"


# ---------------------------------------------------------------------------
# the tuple kinds
# ---------------------------------------------------------------------------


class LocalKummerTriple(_LocalKummerTuple):
    __slots__ = ()
    n = 3


class LocalKummerQuintuple(_LocalKummerTuple):
    __slots__ = ()
    n = 5


class KummerTriple(_KummerTuple):
    """Element of the norm-one part of (Q*/(Q*)^2)^3."""

    __slots__ = ()
    n, local = 3, LocalKummerTriple


class KummerQuintuple(_KummerTuple):
    """Element of the norm-one part of (Q*/(Q*)^2)^5."""

    __slots__ = ()
    n, local = 5, LocalKummerQuintuple


# ---------------------------------------------------------------------------
# the connecting maps, on global and local tuples alike
# ---------------------------------------------------------------------------


def psi_phi_to_two(t):
    """(a, b, c) -> (1, c, c, b, b)."""
    return t._map(((), (2,), (2,), (1,), (1,)))


def psi_two_to_phihat(q):
    """(a1, a2, a3, a4, a5) -> (a1, a2 a3, a4 a5)."""
    return q._map(((0,), (1, 2), (3, 4)))


def lift_phihat_to_two(t):
    """The section (a, b, c) -> (a, 1, b, 1, c) of psi_two_to_phihat."""
    return t._map(((0,), (), (1,), (), (2,)))


def quintuple_quotient(x, y):
    """Componentwise difference; the groups are 2-torsion, so x / y = x * y."""
    return x * y


def descend_to_phi(c: LocalKummerQuintuple) -> LocalKummerTriple:
    """Invert (a,b,c) -> (1,c,c,b,b) on a local quintuple: returns (c2 c4, c4, c2).

    Enforces the image conditions as local classes (slot 1 trivial, slots 2~3
    and 4~5 equal); violations raise NotInImageError rather than silently
    producing a wrong pairing value.
    """
    s = c.slots()
    if s[0]:
        raise NotInImageError("slot 1 is a nontrivial local class")
    if s[1] != s[2]:
        raise NotInImageError("slots 2 and 3 disagree as local classes")
    if s[3] != s[4]:
        raise NotInImageError("slots 4 and 5 disagree as local classes")
    return c._map(((1, 3), (3,), (1,)))


def cup_invariant(rho: LocalKummerTriple, t) -> int:
    """F2 invariant of the cup product at rho's place v: 0 if the
    Hilbert-symbol product (rho1, t1)_v (rho2, t2)_v (rho3, t3)_v is +1,
    else 1: `hilbert_bits` of the two packed masks.  A global t is
    restricted to v; a local t must live at v."""
    v = rho.place
    if isinstance(t, KummerTriple):
        t = t.restrict(v)
    elif t.place != v:
        raise ValueError(f"{t} lives at a different place than {place_name(v)}")
    return hilbert_bits(rho.mask, t.mask, v)
