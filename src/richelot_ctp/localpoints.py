"""Points of J(Q_v) in Mumford form, the descent maps, and local-image subgroups.

The three descent maps send a degree-2 divisor {(x1,y1),(x2,y2)} to square
classes of evaluations:

    quintuple map (domain):  slot i = (x1 - w_i)(x2 - w_i)
    kernel map (domain):     slot i = G_i(x1) G_i(x2)
    kernel map (codomain):   slot i = L_i(x1) L_i(x2)

with the evaluation at a Weierstrass point replaced by the product of the
other factors (times Delta on the codomain), infinity on the domain counting
as the leading coefficient (quintuple) or 1 (triple).  On the codomain the
infinity contribution is pinned by requiring the kernel divisor cut out by
the linear factor, which is the image under the isogeny of rational
two-torsion, to map to the trivial class; the raw rules the formulas suggest
would violate both that and the norm condition.

A side is named by its kernel map, as everywhere in the package: the
divisors, walks and local images of side PHIHAT lie on the domain J and
feed Sel^phihat, those of side PHI on the codomain Jhat and feed Sel^phi
(`RichelotPair.side_data` rejects any other name).

Local points are found by tiered search (two-torsion, single points against
residue grids, pairs, then quadratic Mumford polynomials) and local images
are certified complete through local duality: the two kernels' images must
annihilate each other under the cup product and their dimensions must fill
dim H^1 (2 over R, 4 at odd p, 6 at p = 2).

Every tier hands each candidate over with its image as a mask: one int
holding slot i's `square_class_mask` at shift i dim, read from integer
numerators and denominators, so candidates are compared as ints and the
exact image is built only for a vector the search keeps or a point it
returns (and must match its mask).  Every tier skips a mask its walk has
already yielded before it builds the divisor, or certifies a quadratic, so
a walk yields each mask once; an escalation walks only the tiers whose
bounds it changes.  `local_images` steps the two sides' walks in turn (a
block of candidates or one candidate a step), stops once they fill dim H^1,
escalates only once both have used up a round, and keeps the witness of
each basis vector, from which the pairing builds its rows.  With all of
J[2] rational, dim J(Q_v)/2J(Q_v) is dim H^1 and the phihat image is the
image of the 2-descent image under psi_two_to_phihat, so the domain's walk
ends, before its quadratic tier or a later round, once the `mu_two` images
of two-torsion and of its divisors span that dimension; the codomain's
walk runs its rounds on alone.  The curve keeps
the images under the place and the search config, so the Selmer groups and
the pairing of one curve walk each place once.

Single points come in blocks x = c + r p^j over the unit residues r: all
units mod p^m while p^m <= `_RESIDUE_CAP`, past it a sample of that many
units mod p seeded by p, drawn once per curve, prime and exponent and kept
with their unit classes, so no block, and no table of unit classes, grows
with p.  A sample that misses a class can only leave a place heuristic,
since the duality certificate alone decides certified.  The centres c are
the rational roots and, on the codomain, the roots in Z_p of the factors
without one that are simple mod p, read in closed form from each factor's
discriminant with a square root mod a power of p (`_root_centers`).
One reader, `_square_points`, walks a block in one loop: it forms each
candidate's integer numerator, skips an x an earlier block gave, reads the
factors' classes from their integer forms straight into the mask, and
hands over only the points where f(x) is a square, as (n, d, mask); the
singles tier builds a Fraction only for a point it pools or yields.  A
factor with one Taylor term strictly below the others in valuation there
is dominated: that term fixes the factor's square class by the unit class
of r (`_generic`), so its class is read once per block and unit class, and
only the other factors are evaluated per candidate.  In a block where
every factor is dominated, whether f(x) is a square is read once per unit
class too, and once the pairs tier's pool is full, even mid-block, the rest
of the block gives only the first r of each unit class not yet reached.
Quadratic candidates x^2 + a x + b come in blocks (a, b) = centre +
(r1 p^ea, r2 p^eb); where the discriminant, or the three resultants that
give the mask, have such a term, they are read once per pair of unit
classes.  A class whose resultants multiply to a non-square, the norm of
f mod A, is dropped before its certificate, which it cannot pass.

The search reads what depends on the curve alone from the curve's
`SideData` (integer forms, Weierstrass and infinite factor values, kernel
quadratics, real samples, the Taylor coefficients at each centre as integer
numerators and denominators), computed once per curve; a place adds only
class masks and, kept there too, the valuations at p at each centre, read
from those integers, whether a term dominates (`_dominance`) and the
two-torsion masks.  The unit residues and their classes
are kept in the domain's `SideData`, so the two sides share one draw.
The real place's single points are one sample per sign region of f, taken
between the factors' real roots.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from fractions import Fraction
from functools import cache, reduce
from operator import xor
from typing import Iterator, NamedTuple, Optional

from . import gf2
from .cohomology import (
    KummerQuintuple,
    KummerTriple,
    LocalKummerTriple,
    cup_invariant,
    psi_two_to_phihat,
)
from .curve import (
    INF,
    PHI,
    PHIHAT,
    RichelotPair,
    _common_denominator,
    _res2,
    homogenized_eval,
)
from .localfield import (
    _quadratic_certificate,
    is_local_square,
    local_square_dim,
    place_name,
    sqrt_mod_pk,
    square_class_mask,
    tuple_mask,
    valuation,
)

__all__ = [
    "MumfordDivisor",
    "SearchConfig",
    "SearchExhausted",
    "ClassBitsMismatch",
    "LocalImage",
    "mu_two",
    "mu_phihat",
    "mu_phi",
    "find_local_point",
    "local_images",
]

class SearchExhausted(RuntimeError):
    """No witness divisor found within the escalated search bounds."""


class ClassBitsMismatch(RuntimeError):
    """A candidate's image read from class bits differs from its witnessed image."""


class _SearchConfigFields(NamedTuple):
    residue_exponent: int = 4
    val_bound: int = 6
    escalations: int = 2


class SearchConfig(_SearchConfigFields):
    """Bounds for the Mumford-divisor search, surfaced as CLI flags; a
    residue exponent below 1, or a negative valuation bound or escalation
    count, raises ValueError."""

    __slots__ = ()
    minima = {"residue_exponent": 1, "val_bound": 0, "escalations": 0}  # the CLI flags' too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, low in cls.minima.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, not {getattr(self, name)}")
        return self

    @classmethod
    def _make(cls, fields) -> "SearchConfig":
        """Through the validating constructor, and so is `_replace`."""
        return cls(*fields)

    def escalate(self) -> "SearchConfig":
        return self._make((self.residue_exponent + 1, self.val_bound + 2, self.escalations))


# ---------------------------------------------------------------------------
# Mumford divisors
# ---------------------------------------------------------------------------


class MumfordDivisor(NamedTuple):
    """A point of J(Q_v) presented as an effective degree-2 divisor.

    tag is one of identity / weierstrass_pair / point_plus_infinity /
    rational_pair / quadratic.  Rational x-coordinates are exact; their
    y-data is certified by f(x) being a square in Q_v (stored implicitly:
    construction happens only through the search, which checks it).  A
    quadratic divisor stores the monic A = x^2 + a x + b whose roots are the
    conjugate x-coordinates, with f mod A a square in Q_v[x]/(A).
    """

    tag: str
    side: str = PHIHAT  # the descent map of D's curve: PHIHAT (J) or PHI (Jhat)
    torsion: tuple = ()  # a Weierstrass pair's two markers (`SideData.markers`)
    xs: tuple[Fraction, ...] = ()
    quad: Optional[tuple[Fraction, Fraction]] = None  # (a, b) of x^2 + a x + b

    @staticmethod
    def identity(side=PHIHAT) -> "MumfordDivisor":
        return MumfordDivisor("identity", side)

    @staticmethod
    def weierstrass_pair(a, b, side=PHIHAT) -> "MumfordDivisor":
        if a == b:
            raise ValueError("a Weierstrass pair needs two distinct markers")
        return MumfordDivisor("weierstrass_pair", side, torsion=(a, b))

    @staticmethod
    def point_plus_infinity(x, side=PHIHAT) -> "MumfordDivisor":
        return MumfordDivisor("point_plus_infinity", side, xs=(Fraction(x),))

    @staticmethod
    def rational_pair(x1, x2, side=PHIHAT) -> "MumfordDivisor":
        return MumfordDivisor("rational_pair", side, xs=(Fraction(x1), Fraction(x2)))

    @staticmethod
    def quadratic(a, b, side=PHIHAT) -> "MumfordDivisor":
        return MumfordDivisor("quadratic", side, quad=(Fraction(a), Fraction(b)))

    def __str__(self) -> str:
        if self.tag == "identity":
            return "id"
        if self.tag == "weierstrass_pair":
            return "{%s,%s}" % self.torsion
        if self.tag == "point_plus_infinity":
            return f"{{({self.xs[0]}, y), inf}}"
        if self.tag == "rational_pair":
            return f"{{({self.xs[0]}, y1), ({self.xs[1]}, y2)}}"
        a, b = self.quad
        return f"{{x^2 + ({a})x + ({b}) = 0}}"


# ---------------------------------------------------------------------------
# evaluation helpers
# ---------------------------------------------------------------------------


def _slot_values(D: MumfordDivisor, curve: RichelotPair, data) -> list[tuple[int, int]]:
    """Exact slot values, as integer (numerator, denominator) pairs, of the
    descent map whose slots are the factors of `data`, a `SideData` of D's
    curve: the product of the values at D's points, x for a finite one and
    INF for an infinite one, a Weierstrass point's read from `data`."""
    if D.tag == "quadratic":
        return data.quadratic_values(*D.quad)
    if D.torsion:
        slots = curve.side_data(D.side).slots  # the markers of D's side
        points = [INF if m == INF else slots[m] for m in D.torsion]
    else:
        points = [*D.xs, INF] if D.tag == "point_plus_infinity" else D.xs
    # each slot accumulates as an integer numerator and denominator
    nums, dens = [1] * len(data.forms), [1] * len(data.forms)
    for x in points:
        for i, (n, d) in enumerate(data.inf_values if x == INF else
                                   data.root_values.get(x) or data.point_values(x)):
            nums[i] *= n
            dens[i] *= d
    return list(zip(nums, dens))


def _image(kind, D: MumfordDivisor, curve: RichelotPair, data, v: Optional[int]):
    """The `kind` tuple of D's slot values of `data`: at v, their classes
    read from the integers; global when v is None, where each value has
    the primes of S divided out before what is left is factored
    (`squarefree_reduce`): a slot value of a two-torsion divisor is an
    S-unit times a square, so it is never factored, though a single
    Weierstrass point's values may carry primes outside S."""
    values = _slot_values(D, curve, data)
    if v is not None:
        return kind.local.of(values, v)
    return kind.of(*(Fraction(n, d) for n, d in values), primes=curve.bad_places.finite_primes)


def mu_two(D: MumfordDivisor, curve: RichelotPair, v: Optional[int] = None):
    """Image of D under the full 2-descent quintuple map; global when v is None.

    The slots are the linear factors x - w_i (`RichelotPair.two_data`).
    Global images are canonicalized to signed squarefree classes; local
    images are the slot values' square classes at v.
    """
    curve.require_five_roots()
    if D.side != PHIHAT:
        raise ValueError("the quintuple map lives on the domain curve")
    return _image(KummerQuintuple, D, curve, curve.two_data, v)


def mu_phihat(D: MumfordDivisor, curve: RichelotPair, v: Optional[int] = None):
    """Image of a domain divisor under the dual-kernel descent map (G-evaluations)."""
    if D.side != PHIHAT:
        raise ValueError("mu_phihat consumes domain divisors")
    return _image(KummerTriple, D, curve, curve.domain_data, v)


def mu_phi(D: MumfordDivisor, curve: RichelotPair, v: Optional[int] = None):
    """Image of a codomain divisor under the kernel descent map (L-evaluations)."""
    if D.side != PHI:
        raise ValueError("mu_phi consumes codomain divisors")
    return _image(KummerTriple, D, curve, curve.codomain_data, v)


def divisor_image(D: MumfordDivisor, curve: RichelotPair, v: Optional[int] = None):
    return (mu_phihat if D.side == PHIHAT else mu_phi)(D, curve, v)


def _checked_image(D: MumfordDivisor, mask: int, curve: RichelotPair,
                   v: int) -> LocalKummerTriple:
    """The witnessed image of a candidate whose mask the search read from
    class bits; the two must agree."""
    t = divisor_image(D, curve, v)
    if t.mask != mask:
        raise ClassBitsMismatch(
            f"class bits give mask {mask:#x} for {D} at {place_name(v)}, "
            f"its image {t} has {t.mask:#x}")
    return t


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------

# the most unit residues a block walks: all units mod p^m while p^m stays
# within it, else a sample of this many units mod p seeded by p
_RESIDUE_CAP = 128
# single points the pairs tier pairs up before the singles tier keeps only
# points of new classes
_POINT_POOL = 24


def _unit_residues(p: int, exponent: int) -> list[int]:
    """The unit residues a block walks, ascending: all units mod p^m for the
    largest m <= exponent with p^m <= `_RESIDUE_CAP` (m = 1 at least), or,
    for p past the cap, `_RESIDUE_CAP` units mod p drawn with p as the seed,
    so the cost of a block does not grow with p; past `sys.maxsize`, where
    `range(1, p)` has no length, they are drawn below `sys.maxsize`."""
    if p > _RESIDUE_CAP:
        return sorted(random.Random(p).sample(range(1, min(p, sys.maxsize)), _RESIDUE_CAP))
    m = 1
    while m < exponent and p ** (m + 1) <= _RESIDUE_CAP:
        m += 1
    mod = p ** m
    return [r for r in range(1, mod) if r % p]


def _unit_table(curve: RichelotPair, p: int, exponent: int) -> tuple[list[int], list[int]]:
    """The `_unit_residues` of p and exponent and their `square_class_mask`s,
    as two lists in that order, drawn once per curve, prime and exponent and
    kept in the curve's `domain_data`, so both sides read one draw."""
    def draw():
        units = _unit_residues(p, exponent)
        return units, [square_class_mask(r, 1, p) for r in units]
    return curve.domain_data.table(("classes", p, exponent), draw)


def _root_centers(data, p: int, depth: int) -> list[Fraction]:
    """The centres near the irrational Weierstrass points: the roots in Z_p,
    mod p^(depth+1), of the factors of `data`, a `SideData`, without a
    rational root that are simple roots mod p of f, the product of the
    factors' primitive forms (Gauss's lemma), as the integers in
    [0, p^(depth+1)) ordered by their residues mod p.

    For a factor's primitive form c2 x^2 + c1 x + c0 its roots mod p are
    simple on it exactly when D = c1^2 - 4 c0 c2 is a unit, and lie in Z_p
    when D is a square there too: (-c1 +- s) / (2 c2), with s a square root
    of D mod p^(depth + 1 + v_p(2 c2)), less a root of negative valuation
    (p | c2) and one at which another factor's form vanishes mod p.
    """
    forms = [[c // math.gcd(*C) for c in C] for C, _ in data.forms]
    mod = p ** (depth + 1)
    centers = []
    for i, grp in enumerate(data.groups):
        if grp is not None:
            continue
        c0, c1, c2 = forms[i]
        disc = c1 * c1 - 4 * c0 * c2
        if disc % p == 0 or square_class_mask(disc, 1, p):
            continue
        w = valuation(2 * c2, p)
        s = sqrt_mod_pk(disc, p, depth + 1 + w)
        inv = pow(2 * c2 // p ** w, -1, mod)
        for num in (-c1 + s, -c1 - s):
            if num % p ** w:
                continue  # a root of negative valuation
            x = num // p ** w * inv % mod
            if all(homogenized_eval(C, x, 1)[0] % p for j, C in enumerate(forms) if j != i):
                centers.append(x)
    return [Fraction(x) for x in sorted(centers, key=lambda x: x % p)]


def _x_blocks(curve: RichelotPair, side: str, p: int, cfg: SearchConfig) -> Iterator:
    """The blocks (c, j, dominated) of candidates x = c + r p^j, r over the
    unit residues: near-root refinements of every root centre c for
    j = 1..val_bound first (they carry the interesting classes, and the
    pairs tier feeds on the earliest points found), then the grid r p^e,
    which is c = 0 and j = e for |e| <= val_bound.  Each (c, j) comes once.

    `dominated` holds, per factor, whether `_generic` holds for its Taylor
    terms at c (t = r p^j): the factor's class then depends on r only
    through its unit class, and the factor is not zero.  A block is generic
    when every factor is dominated; whether f(x) is a square then depends
    on r the same way.

    The centres are the rational roots, then the `_root_centers` of the
    factors without one; on the domain every root is rational (the
    standing assumption), so only the codomain has the latter.
    """
    vb = cfg.val_bound
    data = curve.side_data(side)
    dominant = _dominance(data, p)
    centers = list(data.roots) + _root_centers(data, p, vb)
    # a root at 0 has already given the grid's blocks with e >= 1
    for c, js in [(c, range(1, vb + 1)) for c in centers] + [
            (Fraction(0), range(-vb, 1 if 0 in centers else vb + 1))]:
        terms = data.taylor_valuations(c, p)
        for j in js:
            yield c, j, tuple(dominant((g,), (j,)) for g in terms)


def _generic(terms, js) -> bool:
    """Does each polynomial of `terms`, given per polynomial as
    (v(coefficient), exponents) of its Taylor terms a t1^k1 t2^k2 ..., have
    one term whose valuation at t_i = r_i p^(js_i), r_i units, is below
    every other's?  A None in js holds its variable at 0, dropping the terms
    it enters.  The value is then that term times 1 + u with v(u) >= 1: a
    square at odd p, and at p = 2 a unit that depends on the r_i only mod 8.
    So its square class depends on the r_i only through their unit classes
    (r mod 8 at p = 2), and it is not zero."""
    for poly in terms:
        w = []
        for v, ks in poly:
            for k, j in zip(ks, js):
                if k:
                    if j is None:
                        break
                    v += k * j
            else:
                w.append(v)
        w.sort()
        if not w or len(w) > 1 and w[0] >= w[1]:
            return False
    return True


def _dominance(data, p: int):
    """`_generic`, computed once per (terms, exponents) and kept in `data`,
    a `SideData`, per prime: the walk asks it again for each block in each
    round and for each centre's quadratic tables in each call, and distinct
    centres share terms."""
    return data.table(("dominant", p), lambda: cache(lambda terms, js: _generic(terms, js)))


def _block_step(c: Fraction, j: int, p: int) -> tuple[int, int]:
    """(step, d) with each candidate c + r p^j of a block, r a unit, equal
    to (c.numerator + r step) / d in lowest terms: gcd(cn + m cd, cd) = 1
    for any integer m, and r is prime to p.  j < 0 only at c = 0."""
    return (p ** j * c.denominator, c.denominator) if j >= 0 else (1, p ** -j)


def _square_points(curve: RichelotPair, side: str, p: int, cfg: SearchConfig,
                   full=None) -> Iterator[Optional[tuple[int, int, int]]]:
    """The singles tier's candidates x = n/d (lowest terms) with f(x) a
    nonzero square in Q_p, in walk order, as (n, d, image mask: factor i's
    `square_class_mask` at shift i dim).  At the real place the candidates
    are the side's real samples; at a prime they are the blocks of
    `_x_blocks`, each ended by a step mark (None), in which x = c + r p^j
    for (r, unit class k) over `_unit_table`, in the orders those give;
    each x comes once.

    f = G1 G2 G3 on the domain (build_pair folds lambda into G1) and
    fhat = L1 L2 L3 / Delta on the codomain, so f(x) is a square iff the
    factor classes XOR to the class of 1, or of Delta.  A factor is read
    from its homogenized integer form, without a Fraction.  A dominated
    factor has one class per block and k, so it is read from the first
    candidate of each k, and kept in its slot of the mask; where every
    factor is dominated, so is whether f(x) is a square, and once `full()`
    holds, even mid-block, the rest of the block gives only the first r of
    each k it has not reached: the singles tier asks for this once a repeat
    of a class it has handled can change nothing.  The other factors are
    read per candidate; only they can be zero, at a Weierstrass point,
    which has no class.
    """
    data = curve.side_data(side)
    dim = local_square_dim(p)
    f_class = square_class_mask(data.delta.numerator, data.delta.denominator, p)

    def read(factors, n, d, mask, want):
        # the classes of `factors` at n/d XOR-ed into (mask, want), or None
        # where one of them is zero
        for i in factors:
            C, den = data.forms[i]
            acc, dk = homogenized_eval(C, n, d)
            if not acc:
                return None
            c = square_class_mask(acc, den * dk, p)
            mask |= c << i * dim
            want ^= c
        return mask, want

    if not p:  # f(x) > 0 at a real sample: one step, no factor zero
        for n, d in data.real_samples:
            yield n, d, read(range(3), n, d, 0, f_class)[0]
        return
    units, classes = _unit_table(curve, p, cfg.residue_exponent)
    kinds = set(classes)
    seen: dict = {}  # denominator -> the numerators walked
    for c, j, dominated in _x_blocks(curve, side, p, cfg):
        (step, d), cn = _block_step(c, j, p), c.numerator
        walked = seen.setdefault(d, set())
        ruled = [i for i, dom in enumerate(dominated) if dom]
        free = [i for i, dom in enumerate(dominated) if not dom]
        cut = None if free else full
        # k -> (mask, want) of the dominated factors, False where f(x) is no square
        reads = {} if ruled else dict.fromkeys(kinds, (0, f_class))
        reached = set()
        for r, k in zip(units, classes):
            if cut and k in reached and cut():
                if len(reached) == len(kinds):
                    break  # the rest of the block repeats reached classes
                continue
            reached.add(k)
            n = cn + r * step
            if n in walked:
                continue
            walked.add(n)
            got = reads.get(k)
            if got is None:
                mask, want = read(ruled, n, d, 0, f_class)
                got = reads[k] = (mask, want) if free or not want else False
            if got and free:
                got = read(free, n, d, *got)
            if got and not got[1]:  # else x is a Weierstrass point, or no square
                yield n, d, got[0]
        yield None


def _torsion_divisors(curve: RichelotPair, side: str) -> list[MumfordDivisor]:
    """All rational two-torsion divisors on the requested side: the
    identity, each pair of the side's Weierstrass markers, the pairs with
    INF last, then the kernel divisor of each factor without rational
    roots, as a quadratic-tag pair of conjugate Weierstrass points.  On the
    domain the standing assumption gives all 16."""
    data = curve.side_data(side)
    pairs = sorted(itertools.combinations(data.markers, 2), key=lambda pair: pair[1] == INF)
    return ([MumfordDivisor.identity(side)]
            + [MumfordDivisor.weierstrass_pair(a, b, side) for a, b in pairs]
            + [MumfordDivisor.quadratic(a, b, side) for a, b in data.kernels])


def _torsion_masks(curve: RichelotPair, side: str, cls, product=xor,
                   one=0) -> tuple[dict, list]:
    """`cls` of the values of each Weierstrass point, under its marker (the
    root's index, or INF); and each rational two-torsion divisor of `side`
    with its image: the `product` of its points' and, for a kernel
    quadratic, of `cls` of its values, `one` for the identity.  `cls`
    reads a list of slot values (n, d) as the classes, local or global, that
    `product` multiplies: XOR on local masks, slotwise `class_product` on
    global classes.  The side's `SideData` keeps the divisors."""
    data = curve.side_data(side)
    masks = {m: cls(data.root_values[x]) for m, x in data.slots.items()}
    masks[INF] = cls(data.inf_values)
    out = []
    for D in data.table("torsion", lambda: _torsion_divisors(curve, side)):
        parts = [masks[k] for k in D.torsion] + ([cls(data.kernels[D.quad])] if D.quad else [])
        out.append((D, reduce(product, parts, one)))
    return masks, out


def _place_torsion(curve: RichelotPair, side: str, p: int) -> tuple[dict, list]:
    """`_torsion_masks` at p, kept in the side's `SideData` per place."""
    return curve.side_data(side).table(("torsion", p), lambda: _torsion_masks(
        curve, side, lambda values: tuple_mask(values, p)))


def _quadratic_bounds(p: int, cfg: SearchConfig) -> tuple[int, int]:
    """(residue exponent, valuation depth) that size the quadratic tier at p.

    Escalating past exponent 1 (3 at p = 2) or depth 4 changes neither.
    """
    return min(cfg.residue_exponent, 3 if p == 2 else 1), min(cfg.val_bound, 4)


def _quadratic_mask(an: int, bn: int, q: int, forms, p: int) -> int:
    """The image mask of the quadratic divisor A = x^2 + (an/q) x + bn/q,
    read from the class bits of the integer resultant numerators of `_res2`
    on the factors' integer forms (the denominators are squares).  The
    kernel divisor's zero slot takes the product of the other two, so its
    bits are their XOR."""
    res = [_res2(an, bn, q, form)[0] for form in forms]
    if 0 in res:
        i = res.index(0)
        res[i] = res[i - 1] * res[i - 2]
    return tuple_mask([(r, 1) for r in res], p)


def _quadratic_blocks(curve: RichelotPair, side: str, p: int, cfg: SearchConfig) -> Iterator:
    """The quadratic tier's candidates x^2 + a x + b, in walk order, as
    (centre, a blocks, b blocks): (a, b) = centre + (r1 p^ea, r2 p^eb) for
    each a of each a block, then each b of each b block.  A block is
    (e, [(coefficient as (n, d), unit class of r)], its classes).  First the
    grid a, b = r p^e, |e| <= 2, about (0, 0), where 0 is a block of its own
    (e None, class 0); then each of the side's `quadratic_bases`, perturbed
    by r p^j for j = 1..depth, r in the first 12 units or 0, again its own
    block.  Divisors p-adically near a torsion pair live there, and on
    degenerate models they may be all there are."""
    exponent, depth = _quadratic_bounds(p, cfg)
    units = list(zip(*_unit_table(curve, p, exponent)))
    if len(units) > 40:
        units = units[:20] + units[-20:]

    def block(c, j, rks):
        step, d = _block_step(c, j, p)
        return j, [((c.numerator + r * step, d), k) for r, k in rks], {k for _, k in rks}

    def alone(c):
        return None, [((c.numerator, c.denominator), 0)], {0}

    zero = Fraction(0)
    grid = [alone(zero)] + [block(zero, e, units) for e in range(-2, 3)]
    yield (zero, zero), grid, grid
    for (a0, b0), j in itertools.product(curve.side_data(side).quadratic_bases,
                                         range(1, depth + 1)):
        yield (a0, b0), [block(a0, j, units[:12]), alone(a0)], [block(b0, j, units[:12]), alone(b0)]


def _quadratic_candidates(curve: RichelotPair, side: str, p: int, cfg: SearchConfig,
                          known=()) -> Iterator[tuple[MumfordDivisor, int]]:
    """Certified quadratic divisors x^2 + a x + b with their masks, over the
    candidates of `_quadratic_blocks`, each (a, b) once.

    A candidate is dead, and skipped before its certificate, when it splits
    over Q_p (disc(A) zero or a square), when its mask is in `known` (the
    rule of every tier in `_point_tiers`), or when its slot classes multiply
    to a non-trivial class.  That product is the class of N(f mod A), which
    is prod Res(A, G_i) (prod Res(A, L_i) / Delta^2 on the codomain), and
    the certificate needs it to be a square.

    The discriminant and the resultants are quadratics in (s, t) =
    (r1 p^ea, r2 p^eb).  Where `_generic` holds at the centre for the
    discriminant, whether a candidate splits depends on (r1, r2) only
    through the pair of their unit classes; where it holds for the three
    resultants, so does the mask.  Each is then read once per class pair,
    from its first candidate, and a b block whose class pairs are all dead
    for the current a is skipped whole.
    """
    if not p:
        return  # conjugate pairs have trivial image over R
    d = local_square_dim(p)
    data = curve.side_data(side)
    dominant = _dominance(data, p)
    # at p <= 3 each unit class of the tier holds one residue, so no class
    # pair has two candidates and the rule is not asked
    shared = p > 3
    tried: set = set()

    for i, (centre, a_blocks, b_blocks) in enumerate(_quadratic_blocks(curve, side, p, cfg)):
        if not i:
            grid = {x for _, xs, _ in a_blocks for x, _ in xs}
        terms = data.taylor_valuations(centre, p) if shared else None
        # (ea, eb) -> [the rule for the discriminant, for the resultants (asked
        # when first needed), {class pair: splits}, {class pair: mask, -1 where
        # the norm fails}]; a table is filled only where its rule holds
        tables: dict = {}
        for ea, a_xs, _ in a_blocks:
            for a, ka in a_xs:
                for eb, b_xs, kbs in b_blocks:
                    if i and ea is eb is None:
                        continue  # the unperturbed centre
                    if (ea, eb) not in tables:
                        tables[ea, eb] = [shared and dominant(terms[:1], (ea, eb)),
                                          None if shared else False, {}, {}]
                    block = tables[ea, eb]
                    disc_rule, res_rule, splits, masks = block
                    if all(splits.get((ka, kb)) or (m := masks.get((ka, kb))) is not None
                           and (m < 0 or m in known) for kb in kbs):
                        continue
                    for b, kb in b_xs:
                        # the perturbations skip the grid and what an earlier
                        # centre gave
                        if b[0] == 0 or i and ((a, b) in tried or a in grid and b in grid):
                            continue
                        if i:
                            tried.add((a, b))
                        split, m = splits.get((ka, kb)), masks.get((ka, kb))
                        if split or m is not None and (m < 0 or m in known):
                            continue
                        an, bn, q = _common_denominator(a, b)
                        if split is None:
                            disc = an * an - 4 * bn * q
                            split = disc == 0 or not square_class_mask(disc, 1, p)
                            if disc_rule:
                                splits[ka, kb] = split
                            if split:
                                continue
                        if m is None:
                            m = _quadratic_mask(an, bn, q, data.forms, p)
                            if (m ^ m >> d ^ m >> 2 * d) & ((1 << d) - 1):
                                m = -1
                            if res_rule is None:
                                res_rule = block[1] = dominant(terms[1:], (ea, eb))
                            if res_rule:
                                masks[ka, kb] = m
                            if m < 0 or m in known:
                                continue
                        if _quadratic_certificate(data.f_form, an, bn, q, p):
                            yield MumfordDivisor.quadratic(Fraction(*a), Fraction(*b), side), m
                    yield None


def _point_tiers(curve: RichelotPair, side: str, p: int, cfg: SearchConfig,
                 known=()) -> list[Iterator[tuple[MumfordDivisor, int]]]:
    """Candidate divisors in tiers: torsion; single points (with the infinite
    point); pairs of found points; quadratic Mumford pairs.

    Each candidate comes with its image's `LocalKummerTriple.mask`, read
    from class bits.  A None ends each step: a candidate of the torsion and
    pairs tiers, an x-block of the singles tier, an (a, b block) of the
    quadratic tier.  Every tier skips a candidate whose mask is in `known`
    (the walk's record of the masks it has yielded) before it builds the
    divisor; the singles tier still adds the point to the pairs tier's pool.
    The singles tier takes its points, as integers with their masks, from
    `_square_points`, and builds x as a Fraction only for a point it pools
    or yields.  A torsion divisor's mask is the XOR of its points', or read
    from its values for a kernel quadratic (`_torsion_masks`), and the
    side's `SideData` keeps them per place.  The walk order is fixed, and
    so are a run's witnesses; another order may find others, which changes
    no pairing value, as each local term depends on a|v alone.
    """
    data = curve.side_data(side)
    masks, torsion = _place_torsion(curve, side, p)

    def torsion_tier():
        for D, m in torsion:
            if m not in known:
                yield from ((D, m), None)  # the candidate, then a step mark

    pool: list[tuple[Fraction, int]] = []  # found points with their masks
    seen_classes: set = set()

    def singles_tier():
        # a divisor {P, inf} needs the infinite point rational over Q_p: a
        # Weierstrass point, or else f's leading coefficient a square; when
        # it is not, the tier still collects points for the pairs tier
        inf_ok = INF in data.markers or is_local_square(data.f[-1], p)
        # a pair {P, Q} maps to the product of the points' slot classes, so
        # once the pool is full it wants one representative per new class; a
        # point of a class seen before then changes nothing, since its mask
        # was yielded already: the feed may skip such candidates
        def full():
            return len(pool) >= _POINT_POOL

        for item in _square_points(curve, side, p, cfg, full):
            if not item:
                yield item  # a step mark
                continue
            n, d, mask = item
            if full() and mask in seen_classes:
                continue
            seen_classes.add(mask)
            pooled = len(pool) < 3 * _POINT_POOL
            new = inf_ok and mask ^ masks[INF] not in known
            if pooled or new:  # the only points that need x as a Fraction
                x = Fraction(n, d)
                if pooled:
                    pool.append((x, mask))
                if new:
                    yield MumfordDivisor.point_plus_infinity(x, side), mask ^ masks[INF]

    def pairs_tier():
        points = [(x, masks[m]) for m, x in data.slots.items()] + pool
        n_weier = len(data.roots)
        for i, j in itertools.combinations(range(len(points)), 2):
            if i < n_weier and j < n_weier:
                continue  # both Weierstrass: already in the torsion tier
            (x1, m1), (x2, m2) = points[i], points[j]
            if m1 ^ m2 not in known:
                yield from ((MumfordDivisor.rational_pair(x1, x2, side), m1 ^ m2), None)

    return [torsion_tier(), singles_tier(), pairs_tier(),
            _quadratic_candidates(curve, side, p, cfg, known)]


def _walk(curve: RichelotPair, side: str, v: int, cfg: SearchConfig,
          done=lambda: False) -> Iterator[Iterator[Optional[tuple[MumfordDivisor, int]]]]:
    """One side's search at one place: per round (cfg, then each of its
    cfg.escalations escalations) the tiers of `_point_tiers` with their step
    marks.  It records the mask of every candidate it yields, and the tiers
    skip the masks it holds, so it yields each mask once.  A round walks only
    the tiers whose bounds changed: the torsion tier has none; the singles
    grid sizes the singles and pairs tiers, `_quadratic_bounds` the
    quadratic tier.  `done` is asked only before a round's quadratic tier
    and before each later round, and the walk ends where it holds: the
    domain's walk in `local_images` ends once its 2-descent images are
    full (`_descent_span`).
    """
    known: set = set()
    walked, config = (None,) * 4, None
    for k in range(cfg.escalations + 1):
        if k and done():
            return
        config = config.escalate() if config else cfg
        grid = (config.residue_exponent, config.val_bound)
        bounds = ((), grid, grid,
                  _quadratic_bounds(v, config) if v else ())
        tiers = _point_tiers(curve, side, v, config, known)
        tiers[3] = _unless(done, tiers[3])
        yield _recorded(itertools.chain.from_iterable(
            [tier for tier, b, w in zip(tiers, bounds, walked) if b != w]), known)
        walked = bounds


def _unless(done, tier):
    """`tier`, unless `done()` holds when the walk reaches it."""
    if not done():
        yield from tier


def _recorded(items, known: set):
    for item in items:
        if item:
            known.add(item[1])
        yield item


def _alternating(walks: list) -> Iterator[tuple]:
    """(index, item) for the `_walk`s in `walks`: in each round one step (up
    to a None) of each in turn; no walk enters a round before all end the
    last, and the others run their rounds on once a walk has ended."""
    for rounds in itertools.zip_longest(*walks):
        steps = {i: items for i, items in enumerate(rounds) if items}
        while steps:
            for i, items in list(steps.items()):
                for item in items:
                    if item is None:
                        break
                    yield i, item
                else:
                    del steps[i]


# ---------------------------------------------------------------------------
# local images and the duality certificate
# ---------------------------------------------------------------------------


class LocalImage(NamedTuple):
    """The image of one kernel's local descent map as an F2 subgroup."""

    place: int
    side: str  # PHIHAT (points of the domain J) or PHI (points of the codomain Jhat)
    basis: tuple[LocalKummerTriple, ...]
    witnesses: tuple[MumfordDivisor, ...]
    status: str  # "certified" or "heuristic"

    @property
    def dim(self) -> int:
        return len(self.basis)

    def span(self) -> gf2.Span:
        return gf2.Span(t.mask for t in self.basis)


def _annihilate(img_a: list, img_b: list) -> bool:
    for ta, _ in img_a:
        for tb, _ in img_b:
            if cup_invariant(ta, tb) != 0:
                return False
    return True


def local_images(curve: RichelotPair, v: int,
                 cfg: SearchConfig = SearchConfig()) -> tuple[LocalImage, LocalImage]:
    """Both local descent images at v, certified against each other.

    Returns (phihat image, phi image).  Certification: the dimensions sum to
    dim H^1 and every cross pair cups to zero.  Failing that within the
    escalation budget, both come back flagged heuristic.  The domain's
    `SideData` keeps them under (v, cfg), so a second call returns them.
    """
    return curve.domain_data.table(("images", v, cfg), lambda: _search_images(curve, v, cfg))


def _descent_span(curve: RichelotPair, v: int) -> tuple:
    """(fed, full) for the F2 span at v of `mu_two` of the domain walk's
    divisors, which the caller appends to `fed` with their masks.  full()
    adds what was fed to the span, and while the span is empty, as at its
    first call, {w, inf} for each Weierstrass root w: every two-torsion
    divisor is a sum of these.  It tells whether the span has reached
    dim J(Q_v)/2J(Q_v), which with all of J[2] rational is dim H^1.  The
    phihat image is the image of J(Q_v)/2J(Q_v) under psi_two_to_phihat
    (Schaefer 1995, Stoll 2001), so the walk has then found all of it.  A
    divisor whose quintuple image does not map to its mask, or that takes
    the span past that dimension, raises ClassBitsMismatch.  The images are
    kept in `two_data`, where the pairing's rows read their witnesses'."""
    fed, span, top = [], gf2.Span(), 2 * local_square_dim(v)

    def full():
        if not span.dim:
            masks, _ = _place_torsion(curve, PHIHAT, v)
            fed.extend((MumfordDivisor.weierstrass_pair(i, INF), masks[i] ^ masks[INF])
                       for i in curve.domain_data.slots)
        two = curve.two_data.table(("mu_two", v), dict)  # divisor -> its mu_two at v
        two.update({D: mu_two(D, curve, v) for D, _ in fed if D not in two})
        for D, mask in fed:
            q = two[D]
            if psi_two_to_phihat(q).mask != mask:
                raise ClassBitsMismatch(f"{D} has mask {mask:#x} at {place_name(v)}, "
                                        f"its quintuple image {q} maps elsewhere")
            if span.add(q.mask) and span.dim > top:
                raise ClassBitsMismatch(f"{D} takes the 2-descent images at "
                                        f"{place_name(v)} past dimension {top}")
        fed.clear()
        return span.dim == top

    return fed, full


def _search_images(curve: RichelotPair, v: int, cfg: SearchConfig) -> tuple:
    """Step the two sides' walks in turn until their dimensions sum to dim
    H^1.  Each basis is the prefix of its own walk that raises its span, so
    the order of the steps changes no answer, and neither does ending the
    domain's walk once its `_descent_span` is full: its image is then
    whole, and the codomain's walk runs on alone."""
    curve.require_five_roots()
    target = 2 * local_square_dim(v)  # dim H^1
    sides = (PHIHAT, PHI)
    found = ([], [])  # per side, (triple, witness) pairs
    spans = (gf2.Span(), gf2.Span())
    fed, full = _descent_span(curve, v)
    walks = [_walk(curve, PHIHAT, v, cfg, full), _walk(curve, PHI, v, cfg)]
    for i, (D, mask) in _alternating(walks):
        if not i:
            fed.append((D, mask))
        if spans[i].add(mask):
            found[i].append((_checked_image(D, mask, curve, v), D))
            if spans[0].dim + spans[1].dim >= target:
                break

    certified = spans[0].dim + spans[1].dim == target and _annihilate(*found)
    status = "certified" if certified else "heuristic"
    return tuple(LocalImage(v, side, tuple(t for t, _ in pairs), tuple(D for _, D in pairs),
                            status) for side, pairs in zip(sides, found))


def find_local_point(target, curve: RichelotPair, v: int,
                     cfg: SearchConfig = SearchConfig()) -> MumfordDivisor:
    """A domain divisor whose dual-kernel image equals `target` at v.

    `target` may be a global KummerTriple or a LocalKummerTriple.  The
    divisor is the first with the target's mask in a domain walk of its
    own: the 16 two-torsion divisors, single points over residue grids,
    pairs of found points, quadratic Mumford polynomials, over
    cfg.escalations escalations before SearchExhausted.  The pairing does
    not call it: its rows come from the local images' witnesses.
    """
    t_local = target.restrict(v) if isinstance(target, KummerTriple) else target
    if t_local.place != v:
        raise ValueError(f"target {t_local} does not live at {place_name(v)}")
    mask = t_local.mask
    for item in itertools.chain.from_iterable(_walk(curve, PHIHAT, v, cfg)):
        if item and item[1] == mask:  # None marks a step
            _checked_image(*item, curve, v)
            return item[0]
    raise SearchExhausted(f"no divisor found with image {t_local} at {place_name(v)}")
