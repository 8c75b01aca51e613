import collections
import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from richelot_ctp import arith, localfield
from richelot_ctp.arith import bad_places, class_product, enumerate_Q_S2
from curve_fixtures import BENCHMARK_CURVES, fixture_curve, fresh, in_radical
from richelot_ctp.cohomology import (
    KummerTriple,
    NotInImageError,
    cup_invariant,
    lift_phihat_to_two,
    psi_phi_to_two,
)
from richelot_ctp.ctp import (
    _pairing_places,
    ctp_global,
    ctp_local,
    ctp_matrix,
    rank_report,
)
from richelot_ctp.localfield import place_name, places_of
from richelot_ctp.localpoints import (
    SearchConfig,
    SearchExhausted,
    _slot_values,
    find_local_point,
    local_images,
)
from richelot_ctp.selmer import selmer_group, torsion_images
from richelot_ctp.verify import example_curve

T1 = KummerTriple.of(113, 113, 1)
T2 = KummerTriple.of(2, 2, 1)
T3 = KummerTriple.of(1, 7, 7)
G1 = KummerTriple.of(2 * 113, -14 * 113, -7)
G2 = KummerTriple.of(113, 7, 7 * 113)
REFERENCE_BASIS = (G1, G2, T1, T2, T3)


@pytest.fixture(scope="module")
def sel_phihat(curve113):
    return selmer_group(curve113, "phihat")


@pytest.fixture(scope="module")
def sel_phi(curve113):
    return selmer_group(curve113, "phi")


@pytest.fixture(scope="module")
def matrix(curve113, sel_phihat):
    return ctp_matrix(sel_phihat, curve113, basis=REFERENCE_BASIS)


def _direct_formula_local(P_v, a2, curve, v):
    # the closed form on a local point P_v with quintuple slot values
    # (x1..x5): the contribution is (x2 x4, a2_1)(x4, a2_2)(x2, a2_3), each
    # symbol evaluated on rationals (a point over Q_v only need not have a
    # global quintuple image)
    from richelot_ctp.localfield import hilbert_symbol
    x = [Fraction(n, d) for n, d in _slot_values(P_v, curve, curve.two_data)]
    w = a2.values
    s = (hilbert_symbol(x[1] * x[3], w[0], v)
         * hilbert_symbol(x[3], w[1], v)
         * hilbert_symbol(x[1], w[2], v))
    return 0 if s == 1 else 1


def test_pipeline_matches_direct_hilbert_formula(curve113):
    # the validated lift-quotient-descend route on the local image's
    # witnesses and the direct product formula on a searched local point
    # must agree place by place
    for a in (T1, T2, T3, G1, G2):
        for v in places_of(bad_places(curve113)):
            P_v = find_local_point(a, curve113, v)
            for a2 in (T1, T2, T3, G1 * T2, G2 * T3):
                assert (ctp_local(a, a2, curve113, v)
                        == _direct_formula_local(P_v, a2, curve113, v))


@pytest.mark.parametrize("label", sorted(BENCHMARK_CURVES))
def test_searched_points_pair_like_the_image_witnesses(label):
    # the matrix's rows come from the local images' witnesses; wherever the
    # per-target search finds a local point below a Selmer basis element,
    # the direct formula on that point gives the same local value against
    # every basis element (rho_v itself may differ by a class that pairs
    # trivially with the Selmer group)
    curve = BENCHMARK_CURVES[label]
    M = ctp_matrix(selmer_group(curve, "phihat"), curve)
    checked = 0
    for i, (a, rows) in enumerate(zip(M.basis, M.rows)):
        for row in rows:
            v = row.place
            try:
                P_v = find_local_point(a, curve, v)
            except SearchExhausted:
                continue
            for j, b in enumerate(M.basis):
                assert (_direct_formula_local(P_v, b, curve, v)
                        == cup_invariant(row.rho, b.restrict(v))
                        == M.breakdown[i, j][v]), (str(a), str(b), place_name(v))
            checked += 1
    assert checked


def test_ctp_local_values(curve113):
    assert ctp_local(T1, T2, curve113, 3) == 1
    assert ctp_local(T1, T2, curve113, 113) == 0
    assert ctp_local(T1, KummerTriple.of(1, 1, 1), curve113, 3) == 0


def test_ctp_global_values(curve113):
    assert ctp_global(T1, T2, curve113) == 1
    assert ctp_global(T1, T3, curve113) == 0
    for x in (T1, T2, T3, G1, G2):
        assert ctp_global(G1, x, curve113) == 0
        assert ctp_global(G2, x, curve113) == 0


def test_matrix_single_nontrivial_pair(matrix):
    n = len(matrix.basis)
    for i in range(n):
        for j in range(n):
            expected = 1 if {i, j} == {2, 3} else 0
            assert matrix.entries[i][j] == expected
    assert matrix.symmetric


def test_matrix_radical_dimension(matrix):
    assert matrix.radical_dim == 3


def test_matrix_breakdown_reproduces_tables(matrix):
    # the (T1, T2) entry decomposes as 1 at v=3 and 0 elsewhere
    bd = matrix.breakdown[(2, 3)]
    assert bd[3] == 1
    assert sum(bd.values()) % 2 == 1


def test_a_warm_matrix_restricts_each_basis_element_once_per_place(matrix, count_calls):
    # on a fresh reference curve whose Selmer group has found the local
    # images, the matrix reads the class of each slot of each of the 5 basis
    # triples at each of the 5 places once (3 reads apiece), and the rows
    # take those restrictions, and their lifts from them (the section
    # commutes with restriction); each distinct witness at a place has its
    # quintuple image read once (5 apiece; the 25 rows use 27 witnesses, 14
    # of them distinct pairs of witness and place): 5 * 5 * 3 + 14 * 5 = 145.
    # Restricting each row's lift as well took 270 reads, restricting each
    # class again for its row 410, and one restriction per matrix entry 700.
    # The curve keeps the witnesses' quintuple images, so a second matrix
    # reads only the restrictions, 75
    curve = example_curve()
    sel = selmer_group(curve, "phihat")
    calls = count_calls(localfield, "square_class_mask", lambda args: args[2])
    first = ctp_matrix(sel, curve, basis=REFERENCE_BASIS)
    assert (first.entries, first.breakdown) == (matrix.entries, matrix.breakdown)
    assert sum(len(r.P_v) for rows in first.rows for r in rows) == 27
    witnesses = {(w, r.place) for rows in first.rows for r in rows for w in r.P_v}
    assert len(witnesses) == 14
    for v in places_of(curve.bad_places):
        assert calls[v] == 5 * 3 + 5 * sum(p == v for _, p in witnesses), place_name(v)
    assert len(calls) == 5 and sum(calls.values()) == 145
    calls.clear()
    again = ctp_matrix(sel, curve, basis=REFERENCE_BASIS)
    assert (again.entries, again.breakdown) == (first.entries, first.breakdown)
    assert len(calls) == 5 and set(calls.values()) == {5 * 3}


def test_a_matrix_computes_each_witness_quintuple_image_once_per_place(monkeypatch):
    # A1009's rows use 70 witnesses over 23 distinct pairs of witness and
    # place; each row used to compute the quintuple image of each of its
    # own.  On a fresh curve, since a curve keeps the images it has computed
    from richelot_ctp import ctp
    calls = collections.Counter()
    mu_two = ctp.mu_two

    def counted(D, curve, v=None):
        calls[(D, place_name(v))] += 1
        return mu_two(D, curve, v)

    monkeypatch.setattr(ctp, "mu_two", counted)
    curve = fresh(BENCHMARK_CURVES["A1009"])
    M = ctp_matrix(selmer_group(curve, "phihat", SearchConfig()), curve)
    assert sum(len(r.P_v) for rows in M.rows for r in rows) == 70
    assert len(calls) == 23 and sum(calls.values()) == 23
    ctp_matrix(selmer_group(curve, "phihat", SearchConfig()), curve)
    assert sum(calls.values()) == 23


def test_a_witness_the_descent_certificate_mapped_is_not_mapped_again(count_calls):
    # the domain's 2-descent certificate keeps the quintuple image of each
    # divisor it spans where the rows read their witnesses', so a search and
    # a matrix map each divisor once a place; at B97 the certificate has
    # mapped some of the rows' witnesses before the matrix is built
    from richelot_ctp import localpoints
    curve = fresh(BENCHMARK_CURVES["B97"])
    calls = count_calls(localpoints, "mu_two", lambda args: (args[0], args[2]))
    selmer = selmer_group(curve, "phihat")
    spanned = set(calls)
    M = ctp_matrix(selmer, curve)
    witnesses = {(w, row.place) for rows in M.rows for row in rows for w in row.P_v}
    assert witnesses & spanned and witnesses <= set(calls)
    assert set(calls.values()) == {1}


@pytest.mark.parametrize("place", ["2", "3", "7", "113", "oo"])
def test_each_local_row_takes_a_local_point_below_its_class(curve113, matrix, place):
    # a row's point is the sum of its witnesses: their images multiply to
    # the class, and their quintuple images to delta2; the pairing
    # self-check fails when a row's witnesses have another class's image,
    # as two swapped rows at one place would
    from richelot_ctp.curve import poly_eval
    from richelot_ctp.localfield import is_local_square
    from richelot_ctp.localpoints import mu_phihat, mu_two
    for a, rows in zip(matrix.basis, matrix.rows):
        (row,) = [r for r in rows if place_name(r.place) == place]
        v = row.place
        assert reduce(mul, (mu_phihat(w, curve113, v) for w in row.P_v)) == a.restrict(v)
        assert reduce(mul, (mu_two(w, curve113, v) for w in row.P_v)) == row.delta2
        assert all(is_local_square(poly_eval(curve113.domain_data.f, x), v)
                   for w in row.P_v for x in w.xs)


def test_a_class_outside_the_local_image_raises(curve113):
    # (1, 3, 3) is no local image class at 113: 3 is a nonresidue there,
    # and the image is spanned by (113, 113, 1) and (113, 1, 113)
    v = 113
    outside = KummerTriple.of(1, 3, 3)
    with pytest.raises(NotInImageError, match=r"\(1, 3, 3\).* at 113"):
        ctp_local(outside, T1, curve113, v)
    with pytest.raises(NotInImageError):
        ctp_global(outside, T1, curve113)


def test_basis_change_same_radical(curve113, sel_phihat):
    alt = (G1 * T1, G2, T1, T2 * T3, T3)
    m2 = ctp_matrix(sel_phihat, curve113, basis=alt)
    assert m2.radical_dim == 3


def test_kernel_contains_torsion_images(curve113, sel_phihat, matrix):
    S = bad_places(curve113)
    for t in torsion_images(curve113, "phihat"):
        assert in_radical(matrix, t, S.finite_primes)
        for x in sel_phihat.elements:
            assert ctp_global(t, x, curve113) == 0


def test_a_class_that_pairs_nontrivially_is_not_in_the_radical(curve113, matrix):
    S = bad_places(curve113)
    assert ctp_global(T1, T2, curve113) == 1
    assert not in_radical(matrix, T1, S.finite_primes)
    assert not in_radical(matrix, T1 * T2 * G1, S.finite_primes)
    assert in_radical(matrix, G1 * G2 * T3, S.finite_primes)


def test_bilinearity_on_full_group(curve113, sel_phihat):
    elems = sel_phihat.elements
    table = {}
    for a in elems:
        for b in elems:
            table[(a.values, b.values)] = ctp_global(a, b, curve113)
    for a in elems:
        for b in elems:
            ab = a * b
            for c in elems:
                assert (table[(ab.values, c.values)]
                        == table[(a.values, c.values)] ^ table[(b.values, c.values)])
                assert (table[(c.values, ab.values)]
                        == table[(c.values, a.values)] ^ table[(c.values, b.values)])


def phihat_witnesses(curve):
    """The witnesses of the phihat local image at every bad place."""
    return [local_images(curve, v)[0].witnesses for v in places_of(curve.bad_places)]


def test_choice_independence_under_shuffle_and_lift(curve113, shuffled_walk):
    # re-running with shuffled search order, on a fresh curve, and a
    # perturbed global lift (multiplied by the quintuple image of a
    # norm-one triple) never changes the global value; most orders find
    # other witnesses
    rng = random.Random(101)
    S = bad_places(curve113)
    group = enumerate_Q_S2(S)
    base_pairs = [(T1, T2), (T1, T3), (T2, T3), (T1, T1), (G1, T2)]
    expected = {i: ctp_global(a, b, curve113) for i, (a, b) in enumerate(base_pairs)}
    witnesses, changed = phihat_witnesses(curve113), 0
    for run in range(20):
        shuffled_walk(rng.randrange(10 ** 9))
        curve = fresh(curve113)
        b1 = group[rng.randrange(len(group))]
        c1 = group[rng.randrange(len(group))]
        t = KummerTriple((class_product(b1, c1), b1, c1))
        for i, (a, b) in enumerate(base_pairs):
            lift = lift_phihat_to_two(a) * psi_phi_to_two(t)
            got = ctp_global(a, b, curve, lift=lift)
            assert got == expected[i], (run, i)
        changed += phihat_witnesses(curve) != witnesses
    assert changed > 10


def test_lift_support_outside_bad_set(curve113):
    # a lift perturbed by a class involving 5 extends the place sum past S
    t = KummerTriple.of(5, 5, 1)
    lift = lift_phihat_to_two(T1) * psi_phi_to_two(t)
    assert ctp_global(T1, T2, curve113, lift=lift) == 1


def test_pairing_places_factor_only_what_s_leaves_of_a_slot(count_calls):
    # S holds a 12-digit prime, which trial division would take to 10^6 to find
    curve = fixture_curve("A999999999989")
    S = curve.bad_places
    big = 999999999989
    a = KummerTriple((-big, 2 * big, -2))
    a2 = KummerTriple((3 * 21649, big, 3 * 21649 * big))
    calls = count_calls(arith, "factorize", lambda args: args[0])
    assert _pairing_places(curve, a, a2, None) == places_of(S)
    assert not calls
    lift = lift_phihat_to_two(a) * psi_phi_to_two(KummerTriple((10007, 10007, 1)))
    assert lift.values == (-big, 1, 2 * big, 10007, -2 * 10007)
    assert _pairing_places(curve, a, a2, lift) == places_of(S) + [10007]
    assert calls == {10007: 2}


def test_ctp_global_refuses_a_lift_with_a_factor_it_cannot_prove_prime(curve113):
    # psi_13 = 1287836182261 * 2575672364521 passes Miller-Rabin to all 13
    # bases, so as a slot of the lift it would be summed over as a "place"
    psi_13 = 3317044064679887385961981
    lift = lift_phihat_to_two(T1) * psi_phi_to_two(KummerTriple((psi_13, psi_13, 1)))
    with pytest.raises(arith.FactorizationBudgetExceeded, match=f"^cannot prove {psi_13} prime$"):
        ctp_global(T1, T2, curve113, lift=lift)


def test_ctp_global_rejects_wrong_lift(curve113):
    wrong = lift_phihat_to_two(T2)
    with pytest.raises(ValueError):
        ctp_global(T1, T2, curve113, lift=wrong)


def test_rank_report_values(curve113, sel_phi, sel_phihat, matrix):
    rep = rank_report(sel_phi, sel_phihat, matrix)
    assert rep.rank_bound_before == 4
    assert rep.rank_bound_after == 2
    assert rep.inferred_dim_sel2 == 6
    assert rep.sequence_dims == (2, 4, 2, 3, 6, 3)


def test_full_radical_means_no_improvement(curve113, sel_phi, sel_phihat, matrix):
    # a hypothetical full radical leaves the bound unchanged
    full = matrix._replace(radical_basis=tuple(1 << i for i in range(len(matrix.basis))))
    rep = rank_report(sel_phi, sel_phihat, full)
    assert rep.rank_bound_after == rep.rank_bound_before


def test_toy_curve_full_pipeline(toy_curve):
    # irrational codomain Weierstrass points: kernel side is handled through
    # conjugate-pair divisors, and the whole pipeline still certifies
    sh = selmer_group(toy_curve, "phihat")
    sp = selmer_group(toy_curve, "phi")
    assert sh.status == sp.status == "certified"
    assert sh.dim == 4
    assert sp.dim == 0
    M = ctp_matrix(sh, toy_curve)
    assert M.radical_dim == 4  # the pairing is identically zero here
    rep = rank_report(sp, sh, M)
    assert rep.rank_bound_before == rep.rank_bound_after == 0
