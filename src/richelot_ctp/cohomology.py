"""Square-class tuple avatars of the cohomology groups and the maps between them.

The kernel-descent cohomology groups embed into norm-one tuples of square
classes: triples (alpha1, alpha2, alpha3) with alpha1 alpha2 alpha3 a square
for both isogeny kernels, quintuples (x1..x5) with square product for full
2-torsion.  The connecting maps are

    triple  -> quintuple : (a, b, c) -> (1, c, c, b, b)
    quintuple -> triple  : (a1..a5)  -> (a1, a2 a3, a4 a5)
    section              : (a, b, c) -> (a, 1, b, 1, c)

and the descent back onto the first kernel inverts the first map slotwise.
A global tuple holds the signed squarefree class of each slot; a local tuple
holds its place and the `LocalSquareClass` of each slot, nothing else: the
Hilbert symbols downstream depend only on square classes, so `cup_invariant`
evaluates them on class bits.  The maps multiply classes, so each works on
global and local tuples alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .arith import SquareClass, squarefree_reduce
from .localfield import (LocalPlace, LocalSquareClass, class_mask, hilbert_bits,
                         local_square_class, local_square_dim)

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


@dataclass(frozen=True)
class _KummerTuple:
    """The body shared by the global tuples; a subclass sets `n`, `local`
    (its local tuple kind) and its own `of`."""

    classes: tuple[SquareClass, ...]

    @classmethod
    def at(cls, values, v: Optional[LocalPlace] = None):
        """The tuple of these slot values: global when v is None (each slot
        factored once to its signed squarefree class; a SquareClass is kept),
        else local at v (class data needs no factorization)."""
        if v is not None:
            return cls.local.of(values, v)
        cs = tuple(c if isinstance(c, SquareClass) else squarefree_reduce(c) for c in values)
        if len(cs) != cls.n:
            raise ValueError(f"expected {cls.n} components")
        prod = SquareClass.one()
        for c in cs:
            prod = prod * c
        if not prod.is_one():
            raise NormConditionError(f"component product {prod} is not a square")
        return cls(cs)

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(c.value for c in self.classes)

    def is_trivial(self) -> bool:
        return all(c.is_one() for c in self.classes)

    def _one(self) -> SquareClass:
        return SquareClass.one()

    def _like(self, classes):
        """The global triple or quintuple of these classes."""
        return (KummerTriple, KummerQuintuple)[len(classes) == 5](tuple(classes))

    def __mul__(self, other):
        return self._like([a * b for a, b in zip(self.classes, other.classes)])

    def restrict(self, v: LocalPlace):
        return self.local.of(self.values, v)

    def __str__(self) -> str:
        return "(" + ", ".join(str(v) for v in self.values) + ")"


# ---------------------------------------------------------------------------
# local tuples: a place and a square class of Q_v per slot
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _LocalKummerTuple:
    """The body shared by the local tuples; a subclass sets `n`."""

    place: LocalPlace
    classes: tuple[LocalSquareClass, ...]

    @classmethod
    def of(cls, values, v: LocalPlace):
        """The tuple of the classes at v of these nonzero rational slot values."""
        values = tuple(values)
        if len(values) != cls.n:
            raise ValueError(f"expected {cls.n} values")
        classes = tuple(local_square_class(x, v) for x in values)
        # the class map is a homomorphism: the product is a square iff the
        # classes' bits sum to zero in every coordinate
        if any(sum(col) & 1 for col in zip(*(c.bits for c in classes))):
            raise NormConditionError(f"the product of {values} is not a square in Q_{v}")
        return cls(v, classes)

    def is_trivial(self) -> bool:
        return all(c.is_trivial() for c in self.classes)

    def mask(self) -> int:
        return class_mask(c.bits for c in self.classes)

    def _one(self) -> LocalSquareClass:
        return LocalSquareClass(self.place, (0,) * local_square_dim(self.place))

    def _like(self, classes):
        """The local triple or quintuple of these classes, at this place."""
        return (LocalKummerTriple, LocalKummerQuintuple)[len(classes) == 5](
            self.place, tuple(classes))

    def __mul__(self, other):
        # LocalSquareClass products refuse mismatched places
        return self._like([a * b for a, b in zip(self.classes, other.classes)])

    def __str__(self) -> str:
        return "(" + ", ".join(str(c.representative()) for c in self.classes) + ")@" + str(self.place)


# ---------------------------------------------------------------------------
# the tuple kinds
# ---------------------------------------------------------------------------


class LocalKummerTriple(_LocalKummerTuple):
    n = 3


class LocalKummerQuintuple(_LocalKummerTuple):
    n = 5


class KummerTriple(_KummerTuple):
    """Element of the norm-one part of (Q*/(Q*)^2)^3."""

    n, local = 3, LocalKummerTriple

    @classmethod
    def of(cls, a, b, c) -> "KummerTriple":
        return cls.at((a, b, c))


class KummerQuintuple(_KummerTuple):
    """Element of the norm-one part of (Q*/(Q*)^2)^5."""

    n, local = 5, LocalKummerQuintuple

    @classmethod
    def of(cls, *cs) -> "KummerQuintuple":
        if len(cs) == 1 and isinstance(cs[0], (tuple, list)):
            cs = tuple(cs[0])
        return cls.at(cs)


# ---------------------------------------------------------------------------
# the connecting maps, on global and local tuples alike
# ---------------------------------------------------------------------------


def psi_phi_to_two(t):
    """(a, b, c) -> (1, c, c, b, b)."""
    a, b, c = t.classes
    return t._like((t._one(), c, c, b, b))


def psi_two_to_phihat(q):
    """(a1, a2, a3, a4, a5) -> (a1, a2 a3, a4 a5)."""
    c = q.classes
    return q._like((c[0], c[1] * c[2], c[3] * c[4]))


def lift_phihat_to_two(t):
    """The section (a, b, c) -> (a, 1, b, 1, c) of psi_two_to_phihat."""
    a, b, c = t.classes
    one = t._one()
    return t._like((a, one, b, one, c))


def quintuple_quotient(x, y):
    """Componentwise difference; the groups are 2-torsion, so x / y = x * y."""
    return x * y


def descend_to_phi(c: LocalKummerQuintuple) -> LocalKummerTriple:
    """Invert (a,b,c) -> (1,c,c,b,b) on a local quintuple: returns (c2 c4, c4, c2).

    Enforces the image conditions as local classes (slot 1 trivial, slots 2~3
    and 4~5 equal); violations raise NotInImageError rather than silently
    producing a wrong pairing value.
    """
    cls = c.classes
    if not cls[0].is_trivial():
        raise NotInImageError("slot 1 is a nontrivial local class")
    if cls[1] != cls[2]:
        raise NotInImageError("slots 2 and 3 disagree as local classes")
    if cls[3] != cls[4]:
        raise NotInImageError("slots 4 and 5 disagree as local classes")
    return c._like((cls[1] * cls[3], cls[3], cls[1]))


def cup_invariant(rho: LocalKummerTriple, t, v: LocalPlace = None) -> int:
    """F2 invariant of the cup product: 0 if the Hilbert-symbol product
    (rho1, t1)_v (rho2, t2)_v (rho3, t3)_v is +1, else 1, summed from
    `hilbert_bits` of the slots' classes.  A global t is restricted to v; a
    local t, like rho, must live at v."""
    if v is None:
        v = rho.place
    if rho.place != v:
        raise ValueError("rho lives at a different place")
    if isinstance(t, KummerTriple):
        t = t.restrict(v)
    elif t.place != v:
        raise ValueError(f"{t} lives at a different place than {v}")
    e = 0
    for r, a in zip(rho.classes, t.classes):
        e ^= hilbert_bits(r.bits, a.bits, v.p)
    return e
