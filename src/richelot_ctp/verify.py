"""Regression verification against the bundled reference example.

The curve y^2 = (x + 2k) x (x - 6k) (x + k) (x - 7k) at k = 113 has fully
known descent data: the isogenous model, both kernel Selmer groups and the
Greenberg-Wiles terms that tie them, the per-place rows of the pairing
pipeline for three generators, the 5x5 Gram matrix with its one nontrivial
pair, and the rank bookkeeping.  Every check here pins one of those
known-good values; `run_verification` returns a list of (name, passed,
detail) and is what the verify-example command prints.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .arith import bad_places
from .cohomology import (
    KummerQuintuple,
    KummerTriple,
    lift_phihat_to_two,
    psi_phi_to_two,
    psi_two_to_phihat,
)
from .ctp import ctp_global, ctp_matrix, greenberg_wiles_terms, local_row, rank_report
from .curve import PHI, PHIHAT, RichelotPair, build_pair, poly
from .localfield import local_square_class, place_name, places_of
from .localpoints import SearchConfig
from .selmer import selmer_group, torsion_images

__all__ = ["example_curve", "run_verification", "CheckResult"]

K = 113


def example_curve() -> RichelotPair:
    """The bundled reference curve at k = 113."""
    return build_pair(1, [2 * K, 1], [0, -6 * K, 1], [-7 * K * K, -6 * K, 1])


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


# expected per-place rows for the three non-torsion generators:
# place -> (P_v description or None for identity, delta2 row, lift row,
#           difference row, rho row); rows compare as local square classes
_TABLES = {
    (113, 113, 1): {
        "oo": None,
        "2": None,
        "3": ((0, -113), (-1, 3, -3, -1, -1), (-1, 1, -1, 1, 1),
              (1, 3, 3, -1, -1), (-3, -1, 3)),
        "7": None,
        "113": ((0, -2 * K), (113, 3 * 113, 3, 1, 1), (113, 1, 113, 1, 1),
                (1, 3 * 113, 3 * 113, 1, 1), (3 * 113, 1, 3 * 113)),
    },
    (2, 2, 1): {
        "oo": None,
        "2": ((0, -2 * K), (2, 6, 3, -1, -1), (2, 1, 2, 1, 1),
              (1, 6, 6, -1, -1), (-6, -1, 6)),
        "3": ((0, -113), (-1, 3, -3, -1, -1), (-1, 1, -1, 1, 1),
              (1, 3, 3, -1, -1), (-3, -1, 3)),
        "7": None,
        "113": None,
    },
    (1, 7, 7): {
        "oo": None,
        "2": ((-2 * K, -113), (1, 2, -2, -2, 2), (1, 1, -1, 1, -1),
              (1, 2, 2, -2, -2), (-1, -2, 2)),
        "3": None,
        "7": ((-2 * K, -113), (1, 1, 7, 7, 1), (1, 1, 7, 1, 7),
              (1, 1, 1, 7, 7), (7, 7, 1)),
        "113": None,
    },
}

_SEL_PHIHAT = [(2 * K, -14 * K, -7), (K, 7, 7 * K), (K, K, 1), (2, 2, 1), (1, 7, 7)]
_SEL_PHI = [(K, -7 * K, -7), (2 * K, 7, 14 * K), (K, 1, K)]


def _same_local_classes(t, expected, v: int) -> bool:
    """Does the local tuple t have the classes at v of the expected values?"""
    return t.slots() == [local_square_class(b, v) for b in expected]


def run_verification(cfg: SearchConfig = SearchConfig(),
                     report: Optional[Callable[[str], None]] = None) -> list[CheckResult]:
    """Run every reference check; optionally print one line per check."""
    results: list[CheckResult] = []

    def check(name: str, passed: bool, detail: str = ""):
        results.append(CheckResult(name, bool(passed), detail))
        if report:
            report(f"[{'PASS' if passed else 'FAIL'}] {name}" + (f": {detail}" if detail and not passed else ""))

    curve = example_curve()

    # isogenous model
    delta, L = curve.codomain_data.delta, curve.codomain_data.factors
    check("codomain delta", delta == -7 * K * K, f"got {delta}")
    check("codomain L1", L[0] == poly([14 * K * K * 3 * K, -14 * K * K]), f"got {L[0]}")
    check("codomain L2", L[1] == poly([-5 * K * K, 4 * K, 1]), f"got {L[1]}")
    check("codomain L3", L[2] == poly([12 * K * K, -4 * K, -1]), f"got {L[2]}")
    S = bad_places(curve)
    check("bad places", [place_name(v) for v in places_of(S)] == ["oo", "2", "3", "7", "113"],
          f"got {S}")

    # connecting maps on reference classes
    check("triple-to-quintuple map",
          psi_phi_to_two(KummerTriple.of(K, -7 * K, -7)).values
          == (1, -7, -7, -7 * K, -7 * K))
    check("quintuple-to-triple map",
          psi_two_to_phihat(KummerQuintuple.of(K, 1, K, 1, 1)).values == (K, K, 1)
          and psi_two_to_phihat(KummerQuintuple.of(2, 6, 3, -1, -1)).values == (2, 2, 1))
    check("lift section",
          all(lift_phihat_to_two(KummerTriple.of(*t)).values == e for t, e in
              (((K, K, 1), (K, 1, K, 1, 1)),
               ((2, 2, 1), (2, 1, 2, 1, 1)),
               ((1, 7, 7), (1, 1, 7, 1, 7)))))

    # known rational point images
    tors = {t.values for t in torsion_images(curve, PHIHAT)}
    check("known-point images",
          (2 * K, -14 * K, -7) in tors and (K, 7, 7 * K) in tors,
          f"got {sorted(tors)}")

    # Selmer groups
    sel_hat = selmer_group(curve, PHIHAT, cfg)
    sel_phi = selmer_group(curve, PHI, cfg)
    check("dual-kernel Selmer group",
          sel_hat.dim == 5 and sel_hat.status == "certified"
          and sel_hat.same_group([KummerTriple.of(*t) for t in _SEL_PHIHAT]),
          f"dim {sel_hat.dim}, status {sel_hat.status}")
    check("kernel Selmer group",
          sel_phi.dim == 3 and sel_phi.status == "certified"
          and sel_phi.same_group([KummerTriple.of(*t) for t in _SEL_PHI]),
          f"dim {sel_phi.dim}, status {sel_phi.status}")
    terms = greenberg_wiles_terms(sel_hat)
    check("Greenberg-Wiles",
          terms == (-1, 2, 1, 0, 0) and sum(terms) == sel_hat.dim - sel_phi.dim,
          f"local terms {terms}, dim Sel^phihat - dim Sel^phi = {sel_hat.dim - sel_phi.dim}")

    # local tables
    for a_vals, cols in _TABLES.items():
        a = KummerTriple.of(*a_vals)
        ok, why = True, ""
        for v in places_of(S):
            expected = cols[place_name(v)]
            row = local_row(a, curve, v, cfg)
            if expected is None:
                if not (row.delta2.is_trivial() and row.difference.is_trivial()
                        and row.rho.is_trivial()):
                    ok, why = False, f"expected identity column at v={place_name(v)}"
                    break
            else:
                _, d2row, liftrow, diffrow, rhorow = expected
                if not (_same_local_classes(row.delta2, d2row, v)
                        and _same_local_classes(row.lift, liftrow, v)
                        and _same_local_classes(row.difference, diffrow, v)
                        and _same_local_classes(row.rho, rhorow, v)):
                    ok, why = False, f"row mismatch at v={place_name(v)}"
                    break
        check(f"local table for {a}", ok, why)

    # pairing matrix on the reference basis order
    basis = tuple(KummerTriple.of(*t) for t in _SEL_PHIHAT)
    matrix = ctp_matrix(sel_hat, curve, cfg, basis=basis)
    expected_entries = tuple(
        tuple(1 if {i, j} == {2, 3} else 0 for j in range(5)) for i in range(5))
    check("pairing matrix", matrix.entries == expected_entries,
          f"got {matrix.entries}")
    check("pairing value 1/2",
          ctp_global(basis[2], basis[3], curve, cfg) == 1)
    check("matrix radical dimension", matrix.radical_dim == 3,
          f"got {matrix.radical_dim}")
    check("matrix symmetric", matrix.symmetric)

    # rank bookkeeping
    rep = rank_report(sel_phi, sel_hat, matrix)
    check("rank bound before", rep.rank_bound_before == 4, f"got {rep.rank_bound_before}")
    check("rank bound after", rep.rank_bound_after == 2, f"got {rep.rank_bound_after}")
    check("inferred 2-Selmer dimension", rep.inferred_dim_sel2 == 6,
          f"got {rep.inferred_dim_sel2}")
    check("six-term dimensions", rep.sequence_dims == (2, 4, 2, 3, 6, 3),
          f"got {rep.sequence_dims}")
    return results
