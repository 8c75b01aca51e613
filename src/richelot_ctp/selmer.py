"""Global descent: the two kernel Selmer groups as subgroups of (Q*/(Q*)^2)^3.

A group is named by its side, PHIHAT or PHI: Sel^phihat is read from points
of the domain J, Sel^phi from points of the codomain Jhat, and any other
name raises ValueError (`RichelotPair.side_data`).

A class lies in the Selmer group iff its restriction at every bad place lands
in the local descent image there; away from the bad set both the classes
(supported on S) and the images (unramified classes) make the condition
automatic, so only places of S are consulted.  The classes are pairs
(a1, a2) in Q(S,2)^2 with a3 = a1 a2 forced by the norm condition, and the
condition is F2-linear in them: restriction is a homomorphism, so the local
class of any element is the XOR of the local classes of the generators
(-1, p1, p2, ...), each read as a `square_class_mask`, and reduction modulo
im_v is linear.  The Selmer group is therefore the kernel of one F2
matrix from Q(S,2)^2 to the sum of the local quotients H^1(Q_v)/im_v
(Stoll, "Implementing 2-descent for Jacobians of hyperelliptic curves",
Acta Arith. 98, 2001), and its cost is polynomial in |S| instead of
4^(|S|+1).  The matrix is built by columns, the form
`gf2.nullspace` takes: a column is one generator in a1 or a2, and each
place stacks its reduced images of the generators at its own row offset.
The generators' masks at a place are kept on the curve, so the two sides
read them once.

A class is packed one way, as a1 << n | a2, the index of the pair in the
Q(S,2)^2 enumeration (`_pair_index`), once it is checked to be supported
on S and norm one.  The torsion images are read as in the local
two-torsion tier: the global classes of each Weierstrass point (and
infinity) are read once as signed squarefree ints, and a divisor's image
is their slotwise `class_product`, in which a point's prime outside S
cancels exactly; every image is then checked and packed.

The basis is the torsion images, then each ascending row of the reduced
echelon form of the kernel that raises their span.  A kernel vector is a
pair's index, and in reduced echelon form the members' order is the order
of the subsets of rows, so the smallest member outside a span is always a
row: this is the basis a greedy pass over the members in enumeration order
picks, with no member list.
`SelmerGroup.elements` builds that list from the basis when it is read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import gf2
from .arith import PlaceSet, class_product, qs2_element, qs2_index, squarefree_reduce
from .cohomology import KummerTriple, NormConditionError
from .curve import PHI, RichelotPair
from .localfield import local_square_dim, place_name, places_of, square_class_mask
from .localpoints import SearchConfig, _torsion_masks, local_images

__all__ = ["SelmerGroup", "KernelCheckError", "torsion_images", "selmer_group"]


class KernelCheckError(RuntimeError):
    """The kernel of the Selmer matrix fails a local condition or misses a
    two-torsion image: the matrix does not describe the local conditions."""


def _checked(t: KummerTriple, primes) -> KummerTriple:
    """t, if it is supported on S, the finite `primes` (each slot divides
    their product), and norm one (a3 = a1 a2), so that `_pair_index` packs
    it; else ValueError, a NormConditionError for the norm."""
    radical = math.prod(primes)
    if any(radical % c for c in t.values):
        raise ValueError(f"{t} is not supported on {primes}")
    if t.values[2] != class_product(*t.values[:2]):
        raise NormConditionError(f"{t} is not norm one")
    return t


def _pair_index(t: KummerTriple, primes) -> int:
    """a1 << n | a2: the index of (a1, a2) in the Q(S,2)^2 enumeration, for
    a t that `_checked` passes."""
    n = len(primes) + 1
    return qs2_index(t.values[0], primes) << n | qs2_index(t.values[1], primes)


def _pair_triple(y: int, primes) -> KummerTriple:
    """Inverse of _pair_index, with a3 = a1 a2."""
    n = len(primes) + 1
    a1, a2 = qs2_element(y >> n, primes), qs2_element(y & (1 << n) - 1, primes)
    return KummerTriple((a1, a2, class_product(a1, a2)))


class _SelmerGroupFields(NamedTuple):
    side: str
    basis: tuple[KummerTriple, ...]
    known_point_basis: tuple[KummerTriple, ...]
    places: PlaceSet
    status: str
    local_image_dims: tuple[tuple[int, int], ...]


class SelmerGroup(_SelmerGroupFields):
    """A kernel Selmer group with a torsion-first basis.

    basis spans the group; known_point_basis is the prefix coming from images
    of rational two-torsion, and echelon rows follow it (see the module
    docstring).  elements lists all 2^dim members, ordered by the Q(S,2)
    indices of (a1, a2), and is built from the basis when read.
    local_image_dims holds (place, dim of the local image of this side) for
    every place of S.  status is certified iff every consulted local image
    carried a duality certificate.  The group is exactly the set of classes
    whose restrictions lie in the images that were found, and found images
    are spanned by genuine divisor images, so every member is genuine either
    way; a heuristic status means an image may be too small and the group
    may be missing elements, not that any member is wrong.  (No
    `__slots__`: the cached span lives in the instance's `__dict__`.)
    """

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def elements(self) -> tuple[KummerTriple, ...]:
        primes = self.places.finite_primes
        return tuple(_pair_triple(y, primes) for y in sorted(self._span.elements()))

    @cached_property
    def _span(self) -> gf2.Span:
        return gf2.Span(_pair_index(t, self.places.finite_primes) for t in self.basis)

    def contains(self, t: KummerTriple) -> bool:
        """Is t a member?  A class with a prime outside S, or not norm one,
        is not.  The span of the basis is built on the first call."""
        primes = self.places.finite_primes
        try:
            _checked(t, primes)
        except ValueError:
            return False
        return _pair_index(t, primes) in self._span

    def same_group(self, generators) -> bool:
        """Subgroup equality against another generator list, basis-free; a
        generator `_checked` fails raises."""
        primes = self.places.finite_primes
        return gf2.same_span((_pair_index(_checked(t, primes), primes) for t in generators),
                             (_pair_index(t, primes) for t in self.basis))


def torsion_images(curve: RichelotPair, side: str) -> list[KummerTriple]:
    """Images of the rational two-torsion divisors under the global descent
    map of `side`, deduplicated to an F2 subgroup basis.

    The global classes of each Weierstrass point, infinity and kernel
    quadratic are read once, and a divisor's image is their slotwise
    `class_product` (`_torsion_masks`), in which a point's prime outside S
    cancels exactly.  Each image must pass `_checked`, supported on S and
    norm one, and is kept where its `_pair_index` raises the span."""
    curve.require_five_roots()
    primes = curve.bad_places.finite_primes

    def classes(values) -> tuple[int, ...]:
        return tuple(squarefree_reduce(Fraction(n, d), primes) for n, d in values)

    def product(a, b) -> tuple[int, ...]:
        return tuple(map(class_product, a, b))

    span, basis = gf2.Span(), []
    for _, c in _torsion_masks(curve, side, classes, product, (1, 1, 1))[1]:
        t = _checked(KummerTriple(c), primes)
        if span.add(_pair_index(t, primes)):
            basis.append(t)
    return basis


def _local_columns(gen_masks: list[int], d: int, image: gf2.Span) -> list[int]:
    """Columns of the map (a1, a2) -> restriction of (a1, a2, a1 a2) modulo im_v.

    With n = len(gen_masks), column j < n puts generator j into a2 and column
    n + j puts it into a1; either way a1 a2 picks it up too, and a kernel
    vector is the pair's `_pair_index`.  Reduction against the image's
    echelon rows zeroes every pivot bit, which leaves the unique such
    representative of the coset, so it is linear; it is done once for each
    distinct generator mask, of which a place has at most 2^d.
    """
    reduced = {g: (image.reduce(g << d | g << 2 * d), image.reduce(g | g << 2 * d))
               for g in set(gen_masks)}
    return [reduced[g][0] for g in gen_masks] + [reduced[g][1] for g in gen_masks]


def selmer_group(curve: RichelotPair, side: str, cfg: SearchConfig = SearchConfig()) -> SelmerGroup:
    """Compute the kernel Selmer group of `side`, PHIHAT or PHI."""
    known = torsion_images(curve, side)  # an unknown side raises ValueError here
    S = curve.bad_places
    primes = S.finite_primes
    places = places_of(S)
    gens = (-1,) + primes

    # each place's columns are stacked at its row offset, 3 dim bits a place
    imgs, dims, status = {}, [], "certified"
    columns, offset = [0] * (2 * len(gens)), 0
    for v in places:
        img = local_images(curve, v, cfg)[side == PHI]
        if img.status != "certified":
            status = "heuristic"
        imgs[v] = img.span()
        dims.append((v, img.dim))
        gen_masks = curve.domain_data.table(
            ("generators", v), lambda: [square_class_mask(g, 1, v) for g in gens])
        d = local_square_dim(v)
        for j, c in enumerate(_local_columns(gen_masks, d, imgs[v])):
            columns[j] |= c << offset
        offset += 3 * d
    kernel = gf2.nullspace(columns)

    # restrict each kernel generator afresh, independently of the linearisation
    for y in kernel:
        t = _pair_triple(y, primes)
        for v in places:
            if t.restrict(v).mask not in imgs[v]:
                raise KernelCheckError(
                    f"kernel vector {t} is not in the local image at {place_name(v)}")

    span = gf2.Span(_pair_index(t, primes) for t in known)
    basis = known + [_pair_triple(y, primes) for y in reversed(gf2.echelon(kernel))
                     if span.add(y)]
    if len(basis) != len(kernel):
        raise KernelCheckError("a two-torsion image is not in the kernel")
    return SelmerGroup(side, tuple(basis), tuple(known), S, status, tuple(dims))
