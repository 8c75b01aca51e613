import random

import pytest

from richelot_ctp.cohomology import (
    KummerQuintuple,
    KummerTriple,
    LocalKummerQuintuple,
    LocalKummerTriple,
    NormConditionError,
    NotInImageError,
    cup_invariant,
    descend_to_phi,
    lift_phihat_to_two,
    psi_phi_to_two,
    psi_two_to_phihat,
    quintuple_quotient,
)
from richelot_ctp.localfield import LocalPlace

V2 = LocalPlace.finite(2)
V3 = LocalPlace.finite(3)
V113 = LocalPlace.finite(113)


def random_triple(rng, pool=(-1, 2, 3, 7, 113)):
    a = rng.choice(pool) * rng.choice((1, rng.choice(pool)))
    b = rng.choice(pool) * rng.choice((1, rng.choice(pool)))
    return KummerTriple.of(a * b, a, b)


def test_norm_condition_enforced():
    with pytest.raises(NormConditionError):
        KummerTriple.of(2, 3, 5)
    with pytest.raises(NormConditionError):
        KummerQuintuple.of(2, 1, 1, 1, 1)
    KummerTriple.of(2, 3, 6)
    KummerQuintuple.of(2, 3, 6, 7, 7)


def test_psi_phi_to_two_examples():
    assert psi_phi_to_two(KummerTriple.of(2, 3, 6)).values == (1, 6, 6, 3, 3)
    assert psi_phi_to_two(KummerTriple.of(1, 1, 1)).values == (1, 1, 1, 1, 1)
    t = KummerTriple.of(113, -7 * 113, -7)
    assert psi_phi_to_two(t).values == (1, -7, -7, -7 * 113, -7 * 113)


def test_psi_two_to_phihat_examples():
    assert psi_two_to_phihat(KummerQuintuple.of(113, 1, 113, 1, 1)).values == (113, 113, 1)
    assert psi_two_to_phihat(KummerQuintuple.of(1, 1, 1, 1, 1)).values == (1, 1, 1)
    assert psi_two_to_phihat(KummerQuintuple.of(2, 6, 3, -1, -1)).values == (2, 2, 1)


def test_lift_examples():
    assert lift_phihat_to_two(KummerTriple.of(113, 113, 1)).values == (113, 1, 113, 1, 1)
    assert lift_phihat_to_two(KummerTriple.of(2, 2, 1)).values == (2, 1, 2, 1, 1)
    assert lift_phihat_to_two(KummerTriple.of(1, 7, 7)).values == (1, 1, 7, 1, 7)


def test_exactness_of_the_sequence():
    rng = random.Random(61)
    for _ in range(100):
        t = random_triple(rng)
        # composite of the two maps kills the phi-kernel classes
        assert psi_two_to_phihat(psi_phi_to_two(t)).is_trivial()
        # the lift is a section
        assert psi_two_to_phihat(lift_phihat_to_two(t)).values == t.values


def test_quotient_examples():
    a = KummerQuintuple.of(-1, 3, -3, -1, -1)
    b = KummerQuintuple.of(-1, 1, -1, 1, 1)
    assert quintuple_quotient(a, b).values == (1, 3, 3, -1, -1)
    c = KummerQuintuple.of(113, 339, 3, 1, 1)
    d = KummerQuintuple.of(113, 1, 113, 1, 1)
    assert quintuple_quotient(c, d).values == (1, 339, 339, 1, 1)
    assert quintuple_quotient(a, a).is_trivial()


def test_descend_examples():
    q = LocalKummerQuintuple.of((1, 3, 3, -1, -1), V3)
    assert descend_to_phi(q) == LocalKummerTriple.of((-3, -1, 3), V3)
    q2 = LocalKummerQuintuple.of((1, 6, 6, -1, -1), V2)
    assert descend_to_phi(q2) == LocalKummerTriple.of((-6, -1, 6), V2)
    V7 = LocalPlace.finite(7)
    q3 = LocalKummerQuintuple.of((1, 1, 1, 7, 7), V7)
    assert descend_to_phi(q3) == LocalKummerTriple.of((7, 7, 1), V7)


def test_descend_rejects_non_image():
    # slot 1 nontrivial at 3
    with pytest.raises(NotInImageError):
        descend_to_phi(LocalKummerQuintuple.of((3, 3, 1, 1, 1), V3))
    # slots 2,3 differ at 3 (3 vs 1)
    with pytest.raises(NotInImageError):
        descend_to_phi(LocalKummerQuintuple.of((1, 3, 1, 3, 1), V3))


def test_descend_inverts_psi():
    rng = random.Random(67)
    for _ in range(60):
        b = rng.choice((-1, 2, 3, 7, 113, -7))
        c = rng.choice((-1, 2, 3, 7, 113, -2))
        t = KummerTriple.of(b * c, b, c)
        for v in (V2, V3, V113):
            q = psi_phi_to_two(t).restrict(v)
            got = descend_to_phi(q)
            assert got == t.restrict(v)


def test_cup_invariant_examples():
    rho = LocalKummerTriple.of((-3, -1, 3), V3)
    assert cup_invariant(rho, KummerTriple.of(2, 2, 1)) == 1
    rho2 = LocalKummerTriple.of((3 * 113, 1, 3 * 113), V113)
    assert cup_invariant(rho2, KummerTriple.of(2, 2, 1)) == 0
    triv = LocalKummerTriple.of((1, 1, 1), V3)
    assert cup_invariant(triv, KummerTriple.of(113, 113, 1)) == 0


def test_cup_invariant_rejects_a_local_t_at_another_place():
    rho = LocalKummerTriple.of((-3, -1, 3), V3)
    t = KummerTriple.of(2, 2, 1)
    assert cup_invariant(rho, t.restrict(V3)) == cup_invariant(rho, t) == 1
    with pytest.raises(ValueError, match="different place"):
        cup_invariant(rho, t.restrict(V2))


def test_cup_invariant_bilinear():
    rng = random.Random(71)
    for _ in range(80):
        v = rng.choice((V2, V3, V113, LocalPlace.infinite()))
        t1, t2 = random_triple(rng), random_triple(rng)
        s = random_triple(rng)
        rho1, rho2 = t1.restrict(v), t2.restrict(v)
        assert (cup_invariant(rho1 * rho2, s)
                == (cup_invariant(rho1, s) + cup_invariant(rho2, s)) % 2)
        assert (cup_invariant(rho1, s * t2)
                == (cup_invariant(rho1, s) + cup_invariant(rho1, t2)) % 2)


def test_maps_preserve_norm_condition():
    rng = random.Random(73)
    for _ in range(60):
        t = random_triple(rng)
        psi_phi_to_two(t)        # constructors revalidate
        lift_phihat_to_two(t)
        q = psi_phi_to_two(t)
        psi_two_to_phihat(q)
