"""End-to-end runs on curves away from the bundled example.

These exercise the paths the reference curve never touches: 6-root
codomains (points at infinity contributing leading coefficients), fully
irrational codomain Weierstrass points, models whose reduction degenerates
at a bad prime, and a case where the pairing is nonzero on the diagonal.
"""

from fractions import Fraction

import pytest

from curve_fixtures import in_radical
from richelot_ctp.arith import bad_places
from richelot_ctp.ctp import ctp_global, ctp_matrix, rank_report
from richelot_ctp.curve import INF, UnsupportedModelError, build_pair
from richelot_ctp.localfield import place_name, places_of
from richelot_ctp.localpoints import MumfordDivisor, local_images, mu_two
from richelot_ctp.selmer import selmer_group, torsion_images


def run_pipeline(curve):
    sh = selmer_group(curve, "phihat")
    sp = selmer_group(curve, "phi")
    M = ctp_matrix(sh, curve)
    rep = rank_report(sp, sh, M)
    return sh, sp, M, rep


def check_consistency(curve, sh, sp, M, rep):
    assert sh.status == sp.status == "certified"
    S = bad_places(curve)
    for side, grp in (("phihat", sh), ("phi", sp)):
        for t in torsion_images(curve, side):
            assert grp.contains(t)
    for t in torsion_images(curve, "phihat"):
        assert in_radical(M, t, S.finite_primes)
    # bilinearity spot checks against the basis elements (the bundled
    # example's acceptance suite runs the exhaustive version)
    elems = sh.elements
    table = {(a.values, b.values): ctp_global(a, b, curve)
             for a in elems for b in sh.basis}
    for a in elems[::3]:
        for b in elems[::5]:
            for x in sh.basis:
                assert (ctp_global(a * b, x, curve)
                        == table[(a.values, x.values)] ^ table[(b.values, x.values)])


def test_sibling_family_member_bound_drops_to_zero():
    # same family as the bundled example at k = 17: the pairing detects that
    # both non-torsion classes die, improving the bound from 2 to 0
    k = 17
    c = build_pair(1, [2 * k, 1], [0, -6 * k, 1], [-7 * k * k, -6 * k, 1])
    sh, sp, M, rep = run_pipeline(c)
    assert (sh.dim, sp.dim) == (4, 2)
    assert M.radical_dim == 2
    assert (rep.rank_bound_before, rep.rank_bound_after) == (2, 0)
    check_consistency(c, sh, sp, M, rep)


def test_six_root_codomain_generic_curve():
    # G2, G3 with different linear coefficients: the codomain has six roots
    c = build_pair(2, [-1, 1], [30, -21, 3], [-11, -10, 1])
    assert INF not in c.codomain_data.markers
    sh, sp, M, rep = run_pipeline(c)
    assert (sh.dim, sp.dim) == (5, 0)
    assert rep.rank_bound_before == rep.rank_bound_after == 1
    check_consistency(c, sh, sp, M, rep)


def test_fully_irrational_codomain_with_degenerate_reduction():
    # every codomain Weierstrass point is irrational, the infinite points are
    # real, and the codomain model reduces to a near-cube at 7 (= Delta), so
    # local generation there leans on quadratic Mumford divisors
    c = build_pair(1, [0, 1], [-1, 0, 1], [6, -5, 1])
    assert INF not in c.codomain_data.markers
    assert c.codomain_data.groups == (None, None, None)
    assert c.codomain_data.f[-1] > 0
    sh, sp, M, rep = run_pipeline(c)
    for v in places_of(bad_places(c)):
        ih, ip = local_images(c, v)
        assert ih.status == "certified", place_name(v)
    assert (sh.dim, sp.dim) == (5, 0)
    # the pairing here is nonzero on the diagonal (it need not be
    # alternating) and still improves the bound
    assert M.entries[4][4] == 1
    assert M.symmetric
    assert M.radical_dim == 4
    assert (rep.rank_bound_before, rep.rank_bound_after) == (1, 0)
    check_consistency(c, sh, sp, M, rep)


def test_fractional_root_and_scaled_model():
    # y^2 = 4 (x - 1/2)(x^2 - 1)(x - 3)(x + 4): fractional Weierstrass point
    c = build_pair(4, [Fraction(-1, 2), 1], [-1, 0, 1], [-12, 1, 1])
    assert Fraction(1, 2) in c.domain_data.roots
    assert 2 in bad_places(c).finite_primes
    sh, sp, M, rep = run_pipeline(c)
    assert (sh.dim, sp.dim) == (7, 0)
    assert M.radical_dim == 5
    assert (rep.rank_bound_before, rep.rank_bound_after) == (3, 1)
    check_consistency(c, sh, sp, M, rep)


def test_negative_leading_coefficient():
    # y^2 = -x (x^2 - 1)(x^2 - 9): the real locus sits left of the sign flips
    c = build_pair(-1, [0, 1], [-1, 0, 1], [-9, 0, 1])
    assert c.domain_data.f[-1] == -1
    sh, sp, M, rep = run_pipeline(c)
    assert (sh.dim, sp.dim) == (4, 0)
    assert rep.rank_bound_before == rep.rank_bound_after == 0
    check_consistency(c, sh, sp, M, rep)


def test_six_root_domain_rejected_by_descent_machinery():
    c = build_pair(1, [-9, 0, 1], [-1, 0, 1], [-20, 1, 1])
    assert c.degree == 6
    with pytest.raises(UnsupportedModelError):
        selmer_group(c, "phihat")
    with pytest.raises(UnsupportedModelError):
        mu_two(MumfordDivisor.identity(), c, 3)
