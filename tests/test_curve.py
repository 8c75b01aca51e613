import itertools
from collections import Counter
from fractions import Fraction

import pytest

from richelot_ctp.arith import bad_places
from richelot_ctp.curve import (
    INF,
    PHI,
    PHIHAT,
    NonSplitError,
    ProductOfEllipticError,
    SingularModelError,
    build_pair,
    poly,
    _coefficient_det,
)
from richelot_ctp.localfield import place_name, places_of
from richelot_ctp.localpoints import _torsion_divisors


def weil_e2(P: frozenset, Q: frozenset) -> int:
    """(-1)^(size of support intersection) for two-torsion given by the
    markers of its support; the identity, the empty set, pairs trivially."""
    return -1 if len(P & Q) % 2 else 1


def weierstrass_points(factors, groups) -> dict:
    """x of each rational Weierstrass point of a side, None for infinity,
    under its marker: the index of x among the factors' root slots, an
    irrational factor taking two; infinity is INF, when a factor is linear."""
    slots = [x for g, grp in zip(factors, groups) for x in (grp or (None, None))]
    points = {i: x for i, x in enumerate(slots) if x is not None}
    if any(len(g) == 2 for g in factors):
        points[INF] = None
    return points


SIDES = {PHIHAT: lambda c: (c.G, c.roots_by_factor),
         PHI: lambda c: (c.L, c.codomain_data.groups)}


def test_example_curve_isogeny_data(curve113):
    c = curve113
    assert c.delta == -7 * 113 ** 2
    # L1 = -14*113^2 (x - 339), L2 = (x+565)(x-113), L3 = -(x+678)(x-226)
    assert c.L[0] == poly([14 * 113 ** 2 * 339, -14 * 113 ** 2])
    assert c.L[1] == poly([-565 * 113, 452, 1])
    assert c.L[2] == poly([678 * 226, -452, -1])
    assert c.domain_data.roots == (-226, 0, 678, -113, 791)
    assert c.degree == 5


def test_toy_curve_isogeny_data(toy_curve):
    c = toy_curve
    assert c.delta == -3
    assert c.L[0] == poly([0, -6])
    assert c.L[1] == poly([4, 0, 1])
    assert c.L[2] == poly([-1, 0, -1])


def test_build_pair_rejects_bad_models():
    with pytest.raises(SingularModelError):
        build_pair(1, [0, 1], [1, -2, 1], [-4, 0, 1])  # (x-1)^2
    with pytest.raises(NonSplitError):
        build_pair(1, [0, 1], [-2, 0, 1], [-4, 0, 1])  # x^2-2 irrational
    # G3 = G2 + (3/2) G1 makes the rows dependent, roots stay distinct
    with pytest.raises(ProductOfEllipticError):
        build_pair(1, [0, 1], [-1, 0, 1], [-1, Fraction(3, 2), 1])


def test_quadratic_normalization_preserves_delta_and_sextic():
    a = build_pair(1, [226, 1], [0, -678, 1], [-7 * 113 ** 2, -678, 1])
    # same sextic presented with rescaled factors: 6 G1' * 2 G2 * 3 G3 / 6...
    b = build_pair(Fraction(1, 6), [226, 1],
                   [0, -2 * 678, 2], [-3 * 7 * 113 ** 2, -3 * 678, 3])
    assert a.delta == b.delta
    assert a.domain_data.f == b.domain_data.f
    assert a.domain_data.roots == b.domain_data.roots
    assert a.L == b.L


def test_six_root_model_builds():
    c = build_pair(1, [-9, 0, 1], [-1, 0, 1], [-20, 1, 1])
    assert c.degree == 6
    assert len(c.domain_data.roots) == 6
    assert len(_torsion_divisors(c, PHIHAT)) == 16


@pytest.mark.parametrize("side", sorted(SIDES))
def test_torsion_divisors_are_the_identity_the_weierstrass_pairs_and_the_kernel_quadratics(
        side, curve113, toy_curve):
    six_root = build_pair(1, [-9, 0, 1], [-1, 0, 1], [-20, 1, 1])
    irrational = build_pair(1, [0, 1], [-1, 0, 1], [6, -5, 1])
    for c in (curve113, toy_curve, six_root, irrational):
        factors, groups = SIDES[side](c)
        points = weierstrass_points(factors, groups)
        quadratics = [(g[1] / g[2], g[0] / g[2]) for g, grp in zip(factors, groups) if grp is None]
        tors = _torsion_divisors(c, side)
        assert tors[0].tag == "identity"
        pairs = Counter(frozenset(points[m] for m in D.torsion)
                        for D in tors if D.tag == "weierstrass_pair")
        assert pairs == Counter(map(frozenset, itertools.combinations(points.values(), 2)))
        with_inf = [INF in D.torsion for D in tors if D.tag == "weierstrass_pair"]
        assert with_inf == sorted(with_inf)  # the pairs with infinity last
        assert [D.quad for D in tors if D.tag == "quadratic"] == quadratics
        assert len(tors) == 1 + len(points) * (len(points) - 1) // 2 + len(quadratics)
        assert {D.side for D in tors} == {side}
        if side == PHIHAT:
            assert len(tors) == 16


def test_codomain_discriminant_analogue(curve113, toy_curve):
    # det of the (L1; L2; L3) coefficient matrix is -2 Delta^2 on the nose
    # (the sign rides on the cyclic orientation of the L_i = G_j' G_k - G_j
    # G_k'; in particular it never vanishes, so the codomain needs no extra
    # nondegeneracy condition)
    for c in (curve113, toy_curve):
        assert _coefficient_det(c.L) == -2 * c.delta ** 2


def test_codomain_of_example_rebuilds(curve113):
    c = curve113
    i = next(i for i, Li in enumerate(c.L) if len(Li) == 2)
    assert i == 0
    quads = [c.L[j] for j in range(3) if j != i]
    hat = build_pair(Fraction(1, c.delta), c.L[i], quads[0], quads[1])
    assert hat.degree == 5
    assert set(hat.domain_data.roots) == {339, -565, 113, -678, 226}


def test_bad_places_examples(curve113, toy_curve):
    S = bad_places(curve113)
    assert S.finite_primes == (2, 3, 7, 113)
    assert [place_name(v) for v in places_of(S)] == ["oo", "2", "3", "7", "113"]
    S2 = bad_places(toy_curve)
    assert {2, 3} <= set(S2.finite_primes)
    assert 2 in S2.finite_primes


def test_weil_e2_spec_values():
    P = frozenset((0, 1))
    assert weil_e2(P, P) == 1
    assert weil_e2(frozenset((0, 1)), frozenset((1, 2))) == -1
    assert weil_e2(frozenset((0, 1)), frozenset((2, 3))) == 1
    assert weil_e2(frozenset(), P) == 1


def test_weil_e2_bilinear_alternating(curve113):
    pts = [frozenset(D.torsion) for D in _torsion_divisors(curve113, PHIHAT)]
    assert len(pts) == 16
    markers = frozenset(range(5)) | {INF}

    def add(P, Q):
        # group law on supports: symmetric difference, reduced through the
        # complementary pair when it has size four
        s = P ^ Q
        if len(s) == 4:
            s = markers - s
        return s

    group = set(pts)
    assert len(group) == 16
    for P, Q, R in itertools.product(pts, pts, pts):
        S = add(P, Q)
        assert S in group
        assert weil_e2(S, R) == weil_e2(P, R) * weil_e2(Q, R)
    for P in pts:
        assert weil_e2(P, P) == 1


def test_kernel_isotropic(curve113):
    # P_i is cut out by G_i: its support is G_i's roots, with infinity
    # beside the linear G_1's root
    points = weierstrass_points(curve113.G, curve113.roots_by_factor)
    ker = [frozenset((0, INF)), frozenset((1, 2)), frozenset((3, 4))]
    for P, g, grp in zip(ker, curve113.G, curve113.roots_by_factor):
        assert {points[m] for m in P} == set(grp) | ({None} if len(g) == 2 else set())
    assert set(ker) <= {frozenset(D.torsion) for D in _torsion_divisors(curve113, PHIHAT)}
    for P in ker:
        for Q in ker:
            assert weil_e2(P, Q) == 1


def test_equal_curves_built_separately_hold_distinct_cached_data():
    coeffs = (1, [226, 1], [0, -678, 1], [-7 * 113 ** 2, -678, 1])
    a, b = build_pair(*coeffs), build_pair(*coeffs)
    assert a == b
    assert a.bad_places == b.bad_places
    for name in ("bad_places", "domain_data", "codomain_data"):
        assert getattr(a, name) is getattr(a, name), name
        assert getattr(a, name) is not getattr(b, name), name
    for side in (PHIHAT, PHI):
        da, db = a.side_data(side), b.side_data(side)
        for name in ("f", "roots"):
            assert getattr(da, name) == getattr(db, name), (side, name)
            assert getattr(da, name) is getattr(da, name), (side, name)
            assert getattr(da, name) is not getattr(db, name), (side, name)
        assert da.forms == db.forms and da.forms is not db.forms
        assert da.real_samples == db.real_samples and da.real_samples is not db.real_samples
        assert da.taylor_terms(Fraction(0)) == db.taylor_terms(Fraction(0))
        assert da.taylor_terms(Fraction(0)) is not db.taylor_terms(Fraction(0))


def test_a_factorization_over_budget_runs_once_per_curve(monkeypatch, count_calls):
    # the earlier cached property kept no exception, so every read of
    # bad_places spent the whole rho budget again
    from richelot_ctp import arith
    monkeypatch.setattr(arith, "_RHO_BUDGET", 1 << 12)
    rho = count_calls(arith, "_pollard_brent", lambda args: "rho")
    semiprime = (10 ** 19 + 51) * (10 ** 19 + 87)
    curve = build_pair(semiprime, [0, 1], [-1, 0, 1], [-4, 0, 1])
    for _ in range(2):
        with pytest.raises(arith.FactorizationBudgetExceeded, match=f"composite {semiprime} "):
            curve.bad_places
    assert rho == {"rho": 1}
