"""Acceptance suite for the reference example and the property checks.

Each test covers one acceptance criterion at its stated tolerance (exact
equality or zero failures) and prints a single pass/fail line; run with
`pytest tests/test_acceptance.py -s` to see the lines as they go.
"""

import itertools
import random
from fractions import Fraction

import pytest

from richelot_ctp.arith import bad_places, class_product, enumerate_Q_S2
from richelot_ctp.cohomology import (
    KummerTriple,
    descend_to_phi,
    lift_phihat_to_two,
    psi_phi_to_two,
    psi_two_to_phihat,
    quintuple_quotient,
)
from richelot_ctp.ctp import ctp_global, ctp_matrix, local_row, rank_report
from richelot_ctp.curve import PHIHAT, poly
from curve_fixtures import fresh, in_radical
from hilbert_oracle import OracleInconclusive, hilbert_oracle
from richelot_ctp.localfield import (
    hilbert_symbol,
    local_square_class,
    place_name,
    places_of,
)
from richelot_ctp.localpoints import (
    SearchConfig,
    _point_tiers,
    find_local_point,
    local_images,
    mu_phihat,
    mu_two,
)
from richelot_ctp.selmer import selmer_group, torsion_images
from richelot_ctp.verify import _SEL_PHI, _SEL_PHIHAT, _TABLES, example_curve

K = 113


def _report(num, text):
    print(f"criterion {num}: PASS - {text}")


@pytest.fixture(scope="module")
def curve():
    return example_curve()


@pytest.fixture(scope="module")
def sel_phihat(curve):
    return selmer_group(curve, "phihat")


@pytest.fixture(scope="module")
def sel_phi(curve):
    return selmer_group(curve, "phi")


@pytest.fixture(scope="module")
def matrix(curve, sel_phihat):
    basis = tuple(KummerTriple.of(*t) for t in _SEL_PHIHAT)
    return ctp_matrix(sel_phihat, curve, basis=basis)


def test_criterion_1_isogeny_construction(curve):
    assert curve.delta == Fraction(-7 * K * K)
    assert curve.L[0] == poly([14 * K ** 2 * 3 * K, -14 * K ** 2])
    assert curve.L[1] == poly([-5 * K * K, 4 * K, 1])
    assert curve.L[2] == poly([12 * K * K, -4 * K, -1])
    _report(1, "codomain data matches exactly (rational coefficients)")


def test_criterion_2_selmer_groups(sel_phihat, sel_phi):
    assert sel_phihat.dim == 5
    assert sel_phihat.status == "certified"
    assert sel_phihat.same_group([KummerTriple.of(*t) for t in _SEL_PHIHAT])
    assert sel_phi.dim == 3
    assert sel_phi.status == "certified"
    assert sel_phi.same_group([KummerTriple.of(*t) for t in _SEL_PHI])
    _report(2, "both Selmer groups equal the expected subgroups, certified")


def test_criterion_3_local_tables(curve):
    S = bad_places(curve)
    checked = 0
    for a_vals, cols in _TABLES.items():
        a = KummerTriple.of(*a_vals)
        lift = lift_phihat_to_two(a)
        for v in places_of(S):
            expected = cols[place_name(v)]
            # the pipeline's row, on the local image's witnesses, and the
            # same steps on the first local point a search finds below a
            row = local_row(a, curve, v)
            P_v = find_local_point(a, curve, v)
            delta2 = mu_two(P_v, curve, v)
            diff = quintuple_quotient(delta2, lift.restrict(v))
            for got in ((row.delta2, row.difference, row.rho),
                        (delta2, diff, descend_to_phi(diff))):
                if expected is None:
                    assert all(t.is_trivial() for t in got), (a_vals, place_name(v))
                else:
                    _, d2row, _, diffrow, rhorow = expected
                    for t, want in zip(got, (d2row, diffrow, rhorow)):
                        assert t.slots() == [
                            local_square_class(y, v) for y in want], (a_vals, place_name(v))
            checked += 1
    assert checked == 15
    _report(3, "per-place rows, from the image's witnesses and from a searched "
               "point, match as local square classes at all 15 columns")


def test_criterion_4_pairing_matrix(matrix):
    n = len(matrix.basis)
    for i in range(n):
        for j in range(n):
            assert matrix.entries[i][j] == (1 if {i, j} == {2, 3} else 0)
    assert matrix.radical_dim == 3
    _report(4, "one nontrivial symmetric pair of entries; radical dimension 3")


def test_criterion_5_rank_bookkeeping(curve, sel_phi, sel_phihat, matrix):
    rep = rank_report(sel_phi, sel_phihat, matrix)
    assert rep.rank_bound_before == 4
    assert rep.rank_bound_after == 2
    assert rep.inferred_dim_sel2 == 6
    assert rep.sequence_dims == (2, 4, 2, 3, 6, 3)
    _report(5, "bounds 4 -> 2, inferred 2-Selmer dimension 6, six-term dimensions (2, 4, 2, 3, 6, 3)")


def test_criterion_6_hilbert_symbol_suite():
    rng = random.Random(2024)
    places = [0, 2, 3, 5, 7, 113]
    depth_for = {0: 1, 2: 6, 3: 4, 5: 3, 7: 3, 113: 2}
    pool = []
    for _ in range(90):
        q = Fraction(rng.choice((1, -1)) * rng.randint(1, 9))
        for p in (2, 3, 5, 7, 113):
            q *= Fraction(p) ** rng.randint(-2, 2)
        pool.append(q)
    oracle_checked = 0
    for i in range(1400):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        v = rng.choice(places)
        s = hilbert_symbol(a, b, v)
        assert s == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a * b, c, v) == hilbert_symbol(a, c, v) * hilbert_symbol(b, c, v)
        assert hilbert_symbol(a, -a, v) == 1
        if a != 1:
            assert hilbert_symbol(a, 1 - a, v) == 1
        # product formula over all relevant places
        prod = hilbert_symbol(a, b, 0)
        supp = {2}
        for q in (a, b):
            n = abs(q.numerator * q.denominator)
            d = 2
            while d * d <= n:
                while n % d == 0:
                    supp.add(d)
                    n //= d
                d += 1
            if n > 1:
                supp.add(n)
        for p in sorted(supp):
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1
        if oracle_checked < 1000 or i < 1000:
            try:
                got = hilbert_oracle(a, b, v, depth=depth_for[v])
            except OracleInconclusive:
                got = hilbert_oracle(a, b, v, depth=depth_for[v] + 2)
            assert got == s
            oracle_checked += 1
    assert oracle_checked >= 1000
    _report(6, f"symmetry, bimultiplicativity, product formula, and "
               f"{oracle_checked} oracle agreements with zero failures")


def test_criterion_7_choice_independence(curve, shuffled_walk):
    # each rerun walks the local search in another order on a fresh curve,
    # so it may take other witnesses P_v, and perturbs the lift
    rng = random.Random(31337)
    S = bad_places(curve)
    group = enumerate_Q_S2(S)
    pairs = [(KummerTriple.of(113, 113, 1), KummerTriple.of(2, 2, 1)),
             (KummerTriple.of(113, 113, 1), KummerTriple.of(1, 7, 7)),
             (KummerTriple.of(2, 2, 1), KummerTriple.of(1, 7, 7)),
             (KummerTriple.of(2 * K, -14 * K, -7), KummerTriple.of(2, 2, 1)),
             (KummerTriple.of(113, 113, 1), KummerTriple.of(113, 113, 1))]
    expected = [ctp_global(a, b, curve) for a, b in pairs]
    places = places_of(S)
    witnesses = [local_images(curve, v)[0].witnesses for v in places]
    changed = 0
    for run in range(20):
        shuffled_walk(rng.randrange(10 ** 9))
        rerun = fresh(curve)
        b1 = group[rng.randrange(len(group))]
        c1 = group[rng.randrange(len(group))]
        t = KummerTriple((class_product(b1, c1), b1, c1))
        for (a, b), want in zip(pairs, expected):
            lift = lift_phihat_to_two(a) * psi_phi_to_two(t)
            assert ctp_global(a, b, rerun, lift=lift) == want, run
        changed += [local_images(rerun, v)[0].witnesses for v in places] != witnesses
    assert changed > 10
    _report(7, f"20 shuffled reruns with perturbed lifts left every value unchanged; "
               f"{changed} of them took other witnesses")


def test_criterion_8_structural_invariants(curve, sel_phihat, matrix):
    rng = random.Random(424242)
    # (a) exactness of the connecting maps
    group = enumerate_Q_S2(bad_places(curve))
    for _ in range(100):
        b1, c1 = rng.choice(group), rng.choice(group)
        t = KummerTriple((class_product(b1, c1), b1, c1))
        assert psi_two_to_phihat(psi_phi_to_two(t)).is_trivial()
        assert psi_two_to_phihat(lift_phihat_to_two(t)).values == t.values

    # (b) norm preservation and (c) commutativity of the descent maps on at
    # least 100 local divisors drawn from the search tiers
    places = places_of(bad_places(curve))
    checked = 0
    for v in places:
        for D, _ in filter(None, itertools.chain.from_iterable(
                _point_tiers(curve, PHIHAT, v, SearchConfig(val_bound=2)))):
            q = mu_two(D, curve, v)          # constructor enforces norm condition
            t = mu_phihat(D, curve, v)
            assert psi_two_to_phihat(q) == t
            checked += 1
            if checked % 30 == 0:
                break
    assert checked >= 100

    # (d) torsion images lie in the pairing radical
    S = bad_places(curve)
    for t in torsion_images(curve, "phihat"):
        assert in_radical(matrix, t, S.finite_primes)

    # (e) bilinearity over the whole group
    elems = sel_phihat.elements
    assert len(elems) == 32
    table = {}
    for a in elems:
        for b in elems:
            table[(a.values, b.values)] = ctp_global(a, b, curve)
    for a, b, c in itertools.product(elems, elems, elems):
        assert (table[((a * b).values, c.values)]
                == table[(a.values, c.values)] ^ table[(b.values, c.values)])
    _report(8, "map exactness, norm conditions, descent commutativity, radical "
               "torsion, and bilinearity all hold with zero failures")
