from fractions import Fraction

import pytest

from curve_fixtures import BENCHMARK_CURVES, encode_triple, fixture_curve
from richelot_ctp import arith, gf2
from richelot_ctp.arith import (bad_places, class_product, enumerate_Q_S2, prime_support,
                                squarefree_reduce)
from richelot_ctp.cohomology import KummerTriple, NormConditionError
from richelot_ctp.ctp import ctp_matrix
from richelot_ctp.localpoints import _torsion_divisors, divisor_image
from richelot_ctp.selmer import selmer_group, torsion_images


@pytest.fixture(scope="module")
def sel_phihat(curve113):
    return selmer_group(curve113, "phihat")


@pytest.fixture(scope="module")
def sel_phi(curve113):
    return selmer_group(curve113, "phi")


EXPECTED_PHIHAT = [
    KummerTriple.of(2 * 113, -14 * 113, -7),
    KummerTriple.of(113, 7, 7 * 113),
    KummerTriple.of(113, 113, 1),
    KummerTriple.of(2, 2, 1),
    KummerTriple.of(1, 7, 7),
]
EXPECTED_PHI = [
    KummerTriple.of(113, -7 * 113, -7),
    KummerTriple.of(2 * 113, 7, 14 * 113),
    KummerTriple.of(113, 1, 113),
]


def test_torsion_images_phihat(curve113):
    basis = torsion_images(curve113, "phihat")
    vals = {t.values for t in basis}
    assert (2 * 113, -14 * 113, -7) in vals
    assert (113, 7, 7 * 113) in vals
    assert len(basis) == 2


def test_torsion_images_phi_inside_expected_group(curve113):
    basis = torsion_images(curve113, "phi")
    S = bad_places(curve113)
    span = gf2.Span(encode_triple(t, S.finite_primes) for t in EXPECTED_PHI)
    for t in basis:
        assert encode_triple(t, S.finite_primes) in span


def test_selmer_phihat_is_expected_subgroup(sel_phihat):
    assert sel_phihat.dim == 5
    assert sel_phihat.status == "certified"
    assert sel_phihat.same_group(EXPECTED_PHIHAT)
    assert len(sel_phihat.elements) == 32


def test_selmer_phi_is_expected_subgroup(sel_phi):
    assert sel_phi.dim == 3
    assert sel_phi.status == "certified"
    assert sel_phi.same_group(EXPECTED_PHI)
    assert len(sel_phi.elements) == 8


def test_torsion_images_contained_in_selmer(sel_phihat, sel_phi, curve113):
    for side, grp in (("phihat", sel_phihat), ("phi", sel_phi)):
        for t in torsion_images(curve113, side):
            assert grp.contains(t)


def test_known_point_basis_is_prefix(sel_phihat):
    assert sel_phihat.known_point_basis == sel_phihat.basis[:len(sel_phihat.known_point_basis)]
    assert len(sel_phihat.known_point_basis) == 2


def test_candidate_space_size(curve113):
    S = bad_places(curve113)
    assert len(enumerate_Q_S2(S)) ** 2 == 2 ** (2 * (1 + len(S.finite_primes)))


def test_membership_is_local_everywhere(sel_phihat, curve113):
    # every member restricts into the local image at each bad place
    from richelot_ctp.arith import bad_places
    from richelot_ctp.localfield import places_of
    from richelot_ctp.localpoints import local_images
    S = bad_places(curve113)
    for v in places_of(S):
        img, _ = local_images(curve113, v)
        span = img.span()
        for t in sel_phihat.elements:
            assert t.restrict(v).mask in span


def test_non_selmer_class_rejected(sel_phihat, curve113):
    # (3, 3, 1) is supported on S but already fails at the real place or 3
    assert not sel_phihat.contains(KummerTriple.of(3, 3, 1))
    assert not sel_phihat.contains(KummerTriple.of(-1, -1, 1))
    # (5, 5, 1) has a prime outside S = {2, 3, 7, 113}, so it is no member
    # either; contains raised on it, and so ctp_matrix never named it
    assert not sel_phihat.contains(KummerTriple.of(5, 5, 1))
    with pytest.raises(ValueError, match="is not in the Selmer group"):
        ctp_matrix(sel_phihat, curve113, basis=[KummerTriple.of(5, 5, 1)])


def test_a_triple_that_is_not_norm_one_is_no_member(sel_phihat):
    # built directly, past the norm check of KummerTriple.of; the pair
    # (1, -1) of the second indexes the member (1, -1, -1), so only the
    # norm check keeps it out
    assert not sel_phihat.contains(KummerTriple((3, 1, 1)))
    assert sel_phihat.contains(KummerTriple((1, -1, -1)))
    assert not sel_phihat.contains(KummerTriple((1, -1, 1)))


def test_membership_encodes_the_basis_once_per_group(curve113, count_calls):
    # ctp_matrix asks once per basis element; each call used to encode the
    # whole basis again, 5 + 1 encodings a call, 90 over these 15 calls
    from richelot_ctp import selmer
    group = selmer_group(curve113, "phihat")  # a group that has built no span
    calls = count_calls(selmer, "_pair_index", lambda args: "encoded")
    for t in group.basis * 3:
        assert group.contains(t)
    assert calls["encoded"] == group.dim + 3 * group.dim == 20
    assert not group.contains(KummerTriple.of(3, 3, 1))
    assert not group.contains(KummerTriple.of(5, 5, 1))  # outside S: nothing encoded
    assert calls["encoded"] == 21


# the slot values of two-torsion are S-units, so once the bad places are
# known the global torsion images factor nothing, even where S holds a
# 12-digit prime and the values products of several of its primes
def test_torsion_images_factor_nothing_once_S_is_known(monkeypatch):
    curve = fixture_curve("A999999999989")
    assert 999999999989 in curve.bad_places
    factored = []
    factorize = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n: factored.append(n) or factorize(n))
    images = {side: torsion_images(curve, side) for side in ("phihat", "phi")}
    assert not factored
    assert any(c % 999999999989 == 0 for t in images["phihat"] for c in t.values)


def per_divisor_torsion_images(curve, side):
    """The torsion route the library replaced, kept as its oracle: every
    two-torsion divisor's global image from its own slot values
    (`divisor_image`, which factors each value), the basis picked greedily
    in divisor order."""
    primes = curve.bad_places.finite_primes
    span, basis = gf2.Span(), []
    for D in _torsion_divisors(curve, side):
        t = divisor_image(D, curve)
        if span.add(encode_triple(t, primes)):
            basis.append(t)
    return basis


# torsion_images reads one class per Weierstrass point, infinity and kernel
# quadratic, and XORs them per divisor; the codomain's points have values
# with primes outside S, which cancel in every divisor
@pytest.mark.parametrize("label", [*BENCHMARK_CURVES, "R15", "R18", "A999999999989"])
def test_torsion_images_match_the_per_divisor_route(label):
    curve = BENCHMARK_CURVES.get(label) or fixture_curve(label)
    for side in ("phihat", "phi"):
        want = per_divisor_torsion_images(curve, side)
        assert torsion_images(curve, side) == want, side
    # the curves whose codomain points have such values
    data, primes = curve.codomain_data, curve.bad_places.finite_primes
    outside = {q for values in [*data.root_values.values(), data.inf_values]
               for n, d in values for q in prime_support(squarefree_reduce(Fraction(n, d)))
               } - set(primes)
    assert bool(outside) == (label in ("B31", "B97", "irrational", "R15")), outside


# a wrong class of one Weierstrass point, read in its first slot, makes
# every divisor through the point fail: -1 leaves its image not norm one,
# and a prime outside S does not cancel in it
@pytest.mark.parametrize("factor, error, match", [
    (-1, NormConditionError, "not norm one"),
    (10007, ValueError, "not supported")], ids=["sign", "prime-outside-S"])
def test_torsion_images_check_every_divisor_image(curve113, monkeypatch, factor, error, match):
    from richelot_ctp import selmer
    reads = []

    def wrong_first_read(q, primes=()):
        reads.append(q)
        c = squarefree_reduce(q, primes)
        return class_product(c, factor) if len(reads) == 1 else c

    monkeypatch.setattr(selmer, "squarefree_reduce", wrong_first_read)
    with pytest.raises(error, match=match):
        torsion_images(curve113, "phihat")
