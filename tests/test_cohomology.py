import random
from fractions import Fraction
from functools import reduce
from operator import mul

import pytest

from curve_fixtures import class_bits, class_mask, square_class_bits
from hilbert_oracle import OracleInconclusive, hilbert_oracle

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
from richelot_ctp.localfield import local_square_class, place_name, square_class_mask

V2 = 2
V3 = 3
V113 = 113


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
    V7 = 7
    q3 = LocalKummerQuintuple.of((1, 1, 1, 7, 7), V7)
    assert descend_to_phi(q3) == LocalKummerTriple.of((7, 7, 1), V7)


def test_descend_rejects_non_image():
    # slot 1 nontrivial at 3
    with pytest.raises(NotInImageError, match="slot 1"):
        descend_to_phi(LocalKummerQuintuple.of((3, 3, 1, 1, 1), V3))
    # slots 2,3 differ at 3 (3 vs 1)
    with pytest.raises(NotInImageError, match="slots 2 and 3"):
        descend_to_phi(LocalKummerQuintuple.of((1, 3, 1, 3, 1), V3))
    # on a norm-one quintuple slots 4 and 5 agree once slots 2 and 3 do, so
    # the last condition is checked on a tuple built from its mask: slot
    # classes (1, 3, 3, 3, 1) at 3, whose product is not a square
    slots = (0, 1, 1, 1, 0)
    with pytest.raises(NotInImageError, match="slots 4 and 5"):
        descend_to_phi(LocalKummerQuintuple(V3, sum(c << 2 * i for i, c in enumerate(slots))))


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
        v = rng.choice((V2, V3, V113, 0))
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


# the packed local tuples against the slotwise classes, on seeded rationals
# with p dividing numerator and denominator to small powers
ORACLE_PLACES = [2, 3, 5, 23, 1009, 0]


def random_rational(rng, p):
    q = p or rng.choice((2, 3))
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6) * q ** rng.randint(0, 3),
                    rng.randint(1, 10 ** 4) * q ** rng.randint(0, 3))


@pytest.mark.parametrize("v", ORACLE_PLACES, ids=place_name)
@pytest.mark.parametrize("kind", [LocalKummerTriple, LocalKummerQuintuple],
                         ids=["triple", "quintuple"])
def test_a_local_tuple_holds_the_classes_of_its_slots(kind, v):
    rng = random.Random(f"local tuple {kind.n} {place_name(v)}")
    # p has odd valuation at p, and -1 is negative: a non-square at v
    non_square = v or -1
    for _ in range(200):
        values = [random_rational(rng, v) for _ in range(kind.n - 1)]
        values.append(reduce(mul, values) * random_rational(rng, v) ** 2)
        t = kind.of(values, v)
        classes = tuple(local_square_class(x, v) for x in values)
        assert tuple(t.slots()) == classes
        assert t.mask == class_mask(class_bits(c, v) for c in classes)
        assert t.mask == class_mask(square_class_bits(x.numerator, x.denominator, v)
                                    for x in values)
        assert t.slots() == [square_class_mask(x.numerator, x.denominator, v) for x in values]
        assert t.is_trivial() == all(not c for c in classes)
        # unreduced integer pairs, as the search reads them, give the same
        k = rng.choice((-1, 1)) * rng.randint(1, 999)
        assert kind.of([(x.numerator * k, x.denominator * k) for x in values], v) == t
        i = rng.randrange(kind.n)
        with pytest.raises(NormConditionError):
            kind.of(values[:i] + [values[i] * non_square] + values[i + 1:], v)


# the cup of two packed triples is the product of the three Hilbert symbols
# of their slots, each decided by the brute-force oracle on the values
@pytest.mark.parametrize("v", [V2, V3, 5, 0], ids=place_name)
def test_cup_invariant_of_packed_triples_is_the_oracle_symbol_product(v):
    rng = random.Random(f"cup oracle {place_name(v)}")
    pool = (-1, 2, 3, 5, 7, 6, -3, 10, 15)
    seen = set()
    for _ in range(60):
        a, b, c, d = (rng.choice(pool) for _ in range(4))
        rho, t = (a, b, a * b), (c, d, c * d)
        symbols = []
        for x, y in zip(rho, t):
            try:
                symbols.append(hilbert_oracle(x, y, v))
            except OracleInconclusive:
                symbols.append(hilbert_oracle(x, y, v, depth=8))
        got = cup_invariant(LocalKummerTriple.of(rho, v), LocalKummerTriple.of(t, v))
        assert got == (reduce(mul, symbols) == -1), (rho, t, place_name(v))
        seen.add(got)
    assert seen == {0, 1}
