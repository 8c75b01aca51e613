"""The pairing on the dual-kernel Selmer group, its Gram matrix, and rank reports.

`local_row` is the one lift-and-descend pipeline: for a class `a` and a bad
place v it lifts `a` to a quintuple (a1, 1, a2, 1, a3), writes a|v on the
basis of the local image at v, multiplies the quintuple images of the
matching witnesses, divides out the lift, and descends the result to a
kernel triple rho_v.  rho_v depends on `a` and v only, and is F2-linear in
`a`, so the local value against any second argument a' is the cup of rho_v
with a' through Hilbert symbols, and `ctp_matrix` builds one row per
(basis element, place) and reads the three symbols of each Gram entry
from the slot masks of rho_v and a'|v, each read once.  Every
intermediate is validated, so a wrong witness or a wrong lift raises
instead of producing a silently wrong sign.  The global value is the sum
over the bad places; all other places contribute zero.
"""

from __future__ import annotations

from functools import reduce
from operator import xor
from typing import NamedTuple, Optional, Sequence

from . import gf2
from .arith import factorize
from .cohomology import (
    KummerQuintuple,
    KummerTriple,
    LocalKummerQuintuple,
    LocalKummerTriple,
    NotInImageError,
    cup_invariant,
    descend_to_phi,
    lift_phihat_to_two,
    psi_two_to_phihat,
    quintuple_quotient,
)
from .curve import PHIHAT, RichelotPair
from .localfield import hilbert_bits, place_name, places_of
from .localpoints import MumfordDivisor, SearchConfig, local_images, mu_two
from .selmer import SelmerGroup, _pair_index

__all__ = [
    "LocalRow",
    "PairingMatrix",
    "DescentReport",
    "InconsistentDimensions",
    "local_row",
    "ctp_local",
    "ctp_global",
    "ctp_matrix",
    "greenberg_wiles_terms",
    "rank_report",
]


class InconsistentDimensions(RuntimeError):
    """Two certified Selmer groups fail the Greenberg-Wiles formula, or the
    pairing does not vanish on a two-torsion image."""


class LocalRow(NamedTuple):
    """One column of the local tables: the pipeline for one class at one place.

    P_v holds the image witnesses that sum to a point below the class (the
    identity for a trivial class), lift is the global lift restricted to the
    place, difference is delta2 / lift, and rho is the descended triple rho_v.
    """

    P_v: tuple[MumfordDivisor, ...]
    delta2: LocalKummerQuintuple
    lift: LocalKummerQuintuple
    difference: LocalKummerQuintuple
    rho: LocalKummerTriple

    @property
    def place(self) -> int:
        return self.rho.place


def local_row(a: KummerTriple, curve: RichelotPair, v: int,
              cfg: SearchConfig = SearchConfig(), lift: Optional[KummerQuintuple] = None,
              a_v: Optional[LocalKummerTriple] = None) -> LocalRow:
    """Run lift, witnesses, quintuple image, quotient and descent for `a` at v.

    `lift` defaults to the section (a1, 1, a2, 1, a3), which restricts to
    the section of a|v.  Individual rows depend
    on the choice of lift and witnesses; only the pairing summed over all
    places is canonical.  A non-Selmer `a` can raise NotInImageError.
    `a_v` is a|v, which `ctp_matrix` passes, so it is restricted once a
    place; each witness's `mu_two` at v is kept in the curve's `two_data`,
    so it is computed once per curve.
    """
    a_v = a.restrict(v) if a_v is None else a_v
    image = local_images(curve, v, cfg)[0]
    coords = gf2.coordinates([t.mask for t in image.basis], a_v.mask)
    if coords is None:
        raise NotInImageError(f"{a} is outside the dual-kernel local image at {place_name(v)}")
    P_v = (tuple(w for k, w in enumerate(image.witnesses) if coords >> k & 1)
           or (MumfordDivisor.identity(),))
    two = curve.two_data.table(("mu_two", v), dict)  # witness -> its mu_two at v
    two.update({w: mu_two(w, curve, v) for w in set(P_v) - two.keys()})
    delta2 = LocalKummerQuintuple(v, reduce(xor, (two[w].mask for w in P_v)))
    lift_v = lift_phihat_to_two(a_v) if lift is None else lift.restrict(v)
    diff = quintuple_quotient(delta2, lift_v)
    return LocalRow(P_v, delta2, lift_v, diff, descend_to_phi(diff))


def ctp_local(a: KummerTriple, a2: KummerTriple, curve: RichelotPair, v: int,
              cfg: SearchConfig = SearchConfig(), lift: Optional[KummerQuintuple] = None) -> int:
    """Local pairing contribution at v, in F2, for a fixed global lift of `a`."""
    return cup_invariant(local_row(a, curve, v, cfg, lift).rho, a2)


def _pairing_places(curve: RichelotPair, a, a2, lift) -> list[int]:
    """The bad places, then the primes outside S that divide a slot of a, a2
    or the lift.  S is divided out of each slot first, so only the cofactor
    left over is factored: an S-unit class costs no factoring."""
    S = curve.bad_places
    extra = set()
    for t in (a, a2) if lift is None else (a, a2, lift):
        for val in t.values:
            n = abs(val)
            for p in S.finite_primes:
                while n % p == 0:
                    n //= p
            if n > 1:
                extra.update(factorize(n))
    return places_of(S) + sorted(extra)


def ctp_global(a: KummerTriple, a2: KummerTriple, curve: RichelotPair,
               cfg: SearchConfig = SearchConfig(), lift: Optional[KummerQuintuple] = None) -> int:
    """The pairing of a and a2, in F2 (0 or 1, i.e. 0 or 1/2 in Q/Z).

    Sums local contributions over the bad places; when a custom lift with
    support outside the bad set is supplied, the affected places are included
    so the product formula still closes the sum.
    """
    if lift is not None and psi_two_to_phihat(lift).values != a.values:
        raise ValueError("lift does not map to a under the quintuple-to-triple map")
    total = 0
    for v in _pairing_places(curve, a, a2, lift):
        total ^= ctp_local(a, a2, curve, v, cfg, lift)
    return total


class PairingMatrix(NamedTuple):
    """F2 Gram matrix of the pairing on a chosen basis, with per-place data.

    entries[i][j] is the pairing of basis[i] against basis[j]; breakdown maps
    (i, j) to the per-place contributions for the default lift, keyed by
    place; rows[i] holds the LocalRow of basis[i] at each place summed
    over.  symmetric is recorded, not assumed; an asymmetric matrix is
    reported as a warning.
    """

    basis: tuple[KummerTriple, ...]
    entries: tuple[tuple[int, ...], ...]
    breakdown: dict
    radical_basis: tuple[int, ...]  # masks w.r.t. the basis
    symmetric: bool
    rows: tuple[tuple[LocalRow, ...], ...] = ()

    @property
    def radical_dim(self) -> int:
        return len(self.radical_basis)

    def qz_entries(self) -> tuple[tuple[str, ...], ...]:
        """The matrix over Q/Z, entries '0' and '1/2'."""
        return tuple(tuple("1/2" if e else "0" for e in row) for row in self.entries)


def ctp_matrix(selmer: SelmerGroup, curve: RichelotPair, cfg: SearchConfig = SearchConfig(),
               basis: Optional[Sequence[KummerTriple]] = None,
               places: Optional[Sequence[int]] = None) -> PairingMatrix:
    """Gram matrix of the pairing on `basis` (default: the Selmer basis).

    Sums over `places` (default: every bad place).  A proper subset of the
    bad places gives a partial matrix whose radical is not the pairing's.
    """
    if selmer.side != PHIHAT:
        raise ValueError("the pairing is computed on the dual-kernel Selmer group")
    bas = tuple(basis) if basis is not None else selmer.basis
    for t in bas:
        if not selmer.contains(t):
            raise ValueError(f"{t} is not in the Selmer group")
    if places is None:
        places = places_of(curve.bad_places)
    n = len(bas)
    local_bas = {v: [t.restrict(v) for t in bas] for v in places}
    rows = tuple(tuple(local_row(a, curve, v, cfg, a_v=local_bas[v][i]) for v in places)
                 for i, a in enumerate(bas))
    # the cup of rho_v with b|v, as in `cup_invariant`, on the packed masks
    bas_masks = [(v, [t.mask for t in local_bas[v]]) for v in places]
    entries = []
    breakdown = {}
    for i in range(n):
        row = []
        for j in range(n):
            bd = {v: hilbert_bits(r.rho.mask, masks[j], v)
                  for (v, masks), r in zip(bas_masks, rows[i])}
            breakdown[(i, j)] = bd
            row.append(sum(bd.values()) % 2)
        entries.append(tuple(row))
    entries = tuple(entries)
    columns = [sum(row[j] << i for i, row in enumerate(entries)) for j in range(n)]
    radical = gf2.echelon(gf2.nullspace(columns))
    symmetric = all(entries[i][j] == entries[j][i] for i in range(n) for j in range(n))
    return PairingMatrix(bas, entries, breakdown, tuple(radical), symmetric, rows)


class DescentReport(NamedTuple):
    """The three computed dimensions of the descent and what follows from them.

    Under the standing rationality assumption the kernel on J, the
    two-torsion of J and the dual kernel have dimensions 2, 4 and 2.  The
    rank bound replaces dim Sel^phihat by the dimension of the pairing
    radical, and the inferred 2-Selmer dimension is the one that closes the
    six-term sequence `sequence_dims`.  Both are derived bookkeeping around
    the computed groups, flagged as such in reports.
    """

    dim_selmer_phi: int
    dim_selmer_phihat: int
    dim_radical: int

    @property
    def rank_bound_before(self) -> int:
        return self.dim_selmer_phi + self.dim_selmer_phihat - 4

    @property
    def rank_bound_after(self) -> int:
        return self.dim_selmer_phi + self.dim_radical - 4

    @property
    def inferred_dim_sel2(self) -> int:
        return self.dim_selmer_phi + self.dim_radical

    @property
    def sequence_dims(self) -> tuple[int, ...]:
        return (2, 4, 2, self.dim_selmer_phi, self.inferred_dim_sel2, self.dim_radical)


def greenberg_wiles_terms(selmer_phihat: SelmerGroup) -> tuple[int, ...]:
    """The local terms dim im_phihat,v - 2 of the Greenberg-Wiles formula.

    For the two kernels, both rational of dimension 2, the formula (Darmon-
    Diamond-Taylor, "Fermat's Last Theorem", Thm 2.19) reads

        dim Sel^phihat - dim Sel^phi = sum over v in S u {oo} of (dim im_phihat,v - 2):

    the global H^0 terms cancel, every local H^0 has dimension 2, and places
    outside S contribute 0.
    """
    return tuple(d - 2 for _, d in selmer_phihat.local_image_dims)


def rank_report(selmer_phi: SelmerGroup, selmer_phihat: SelmerGroup,
                matrix: PairingMatrix) -> DescentReport:
    """The descent's dimensions, after two checks that raise
    InconsistentDimensions.

    Greenberg-Wiles, when both Selmer groups are certified: it ties the
    local images and kernels of the two sides together, so a wrong image or
    a wrong kernel on either side shows.  The radical: the pairing vanishes
    on images of global points, so each two-torsion image, with
    coordinates c on `matrix.basis`, must give M c = 0 and c^T M = 0 for
    the Gram matrix M; on the default basis these are its torsion rows and
    columns.  An image outside the span of `matrix.basis` is not checked.
    So `matrix` must be summed over every bad place, `ctp_matrix`'s
    default: a partial one, from a subset of the places, need not vanish
    there and may raise.
    """
    d_phi = selmer_phi.dim
    d_phihat = selmer_phihat.dim
    if selmer_phi.status == selmer_phihat.status == "certified":
        terms = greenberg_wiles_terms(selmer_phihat)
        if d_phihat - d_phi != sum(terms):
            raise InconsistentDimensions(
                f"Greenberg-Wiles: dim Sel^phihat - dim Sel^phi = {d_phihat - d_phi}, "
                f"but the local terms {list(terms)} sum to {sum(terms)}")
    primes = selmer_phihat.places.finite_primes
    basis = [_pair_index(t, primes) for t in matrix.basis]
    # the rows, then the columns, of M as masks over the basis
    lines = [sum(e << j for j, e in enumerate(row)) for row in matrix.entries]
    lines += [sum(row[j] << i for i, row in enumerate(matrix.entries)) for j in range(len(basis))]
    for t in selmer_phihat.known_point_basis:
        c = gf2.coordinates(basis, _pair_index(t, primes))
        if c is not None and any((line & c).bit_count() & 1 for line in lines):
            raise InconsistentDimensions(
                f"the pairing does not vanish on the two-torsion image {t}")
    return DescentReport(d_phi, d_phihat, matrix.radical_dim)
