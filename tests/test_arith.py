import random
from fractions import Fraction
from functools import reduce
from operator import xor

import pytest

from richelot_ctp import arith
from richelot_ctp.arith import (
    FactorizationBudgetExceeded,
    PlaceSet,
    bad_places,
    class_product,
    enumerate_Q_S2,
    factorize,
    prime_support,
    squarefree_reduce,
)
from richelot_ctp import gf2
from richelot_ctp.curve import build_pair
from richelot_ctp.localfield import places_of


def test_squarefree_reduce_examples():
    assert squarefree_reduce(18) == 2
    assert squarefree_reduce(-50) == -2
    assert squarefree_reduce(Fraction(4, 9)) == 1


def test_squarefree_reduce_rejects_zero():
    with pytest.raises(ValueError):
        squarefree_reduce(0)


def test_reduce_times_input_is_square():
    rng = random.Random(7)
    for _ in range(200):
        q = Fraction(rng.randint(-500, 500) or 1, rng.randint(1, 500))
        c = squarefree_reduce(q)
        prod = q * c
        assert prod > 0
        assert squarefree_reduce(prod) == 1


def test_squarefree_reduce_over_S_matches_the_plain_reduction(monkeypatch):
    # S-units times a square or a non-square prime outside S, either sign,
    # in numerator or denominator: dividing out S first gives the class of
    # factoring the whole, and factors only a cofactor that is no square
    S = (2, 3, 5, 11, 21649, 182041)
    outside = (7, 13, 10007)
    rng = random.Random(20)
    factored = []
    plain = arith.factorize
    for _ in range(300):
        n, d = rng.choice((1, -1)), 1
        for p in S:
            n *= p ** rng.randrange(3)
            d *= p ** rng.randrange(2)
        square, extra = rng.choice(outside), rng.choice((1,) + outside)
        n *= square ** 2
        if rng.randrange(2):
            n, d = d * rng.choice((1, -1)), abs(n)
        q = Fraction(n, d) * extra
        monkeypatch.setattr(arith, "factorize", lambda m: factored.append(m) or plain(m))
        got = squarefree_reduce(q, S)
        monkeypatch.setattr(arith, "factorize", plain)
        assert got == squarefree_reduce(q), q
        # the cofactor is factored only when extra leaves it no square
        assert bool(factored) == (extra != 1)
        factored.clear()
    # a 12-digit prime of S and the square of a 7-digit prime outside it:
    # nothing is left to factor
    big = 999999999989
    monkeypatch.setattr(arith, "factorize", lambda m: factored.append(m) or plain(m))
    assert squarefree_reduce(Fraction(-6 * big ** 3 * 1000003 ** 2, 25), S + (big,)) == -6 * big
    assert not factored


def test_multiplicativity_and_involution():
    rng = random.Random(11)
    for _ in range(200):
        a = Fraction(rng.randint(-300, 300) or 3, rng.randint(1, 60))
        b = Fraction(rng.randint(-300, 300) or 5, rng.randint(1, 60))
        ca, cb = squarefree_reduce(a), squarefree_reduce(b)
        assert squarefree_reduce(a * b) == class_product(ca, cb)
        assert class_product(ca, ca) == 1


def test_class_product_is_the_class_of_the_product():
    # signed squarefree ints over small primes and a 12-digit one, with the
    # classes 1 and -1 among them; the reduction divides out those primes,
    # so it factors nothing
    primes = (2, 3, 5, 7, 11, 13, 999999999989)
    rng = random.Random(28)
    classes = [1, -1, 999999999989, -999999999989]
    for _ in range(100):
        c = rng.choice((1, -1))
        for p in primes:
            c *= p if rng.randrange(2) else 1
        classes.append(c)
    for a in classes:
        for b in classes[::7]:
            assert class_product(a, b) == squarefree_reduce(a * b, primes) == class_product(b, a), (a, b)


def test_factorize_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 10 ** 12)
        facs = factorize(n)
        m = 1
        for p, e in facs.items():
            assert e >= 1
            m *= p ** e
        assert m == n


def test_factorize_large_semiprime():
    p, q = 1000003, 1000033
    assert factorize(p * q) == {p: 1, q: 1}


def test_factorize_splits_two_12_digit_primes_within_the_budget():
    p, q = 999999999989, 999999999959  # the two largest 12-digit primes
    assert factorize(p * q) == {p: 1, q: 1}


def test_factorize_names_the_cofactor_it_cannot_split(monkeypatch):
    # a smaller budget reaches the same raise in a fraction of the time
    monkeypatch.setattr(arith, "_RHO_BUDGET", 1 << 12)
    p, q = 10 ** 19 + 51, 10 ** 19 + 87
    with pytest.raises(FactorizationBudgetExceeded, match=f"composite {p * q} "):
        factorize(8 * 1000003 * p * q)
    with pytest.raises(FactorizationBudgetExceeded):
        prime_support(Fraction(3, p * q))


# psi_12 and psi_13, the least strong pseudoprimes to the first 12 and 13
# prime bases (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017), and their prime factors
PSI_12 = (318665857834031151167461, 399165290221, 798330580441)
PSI_13 = (3317044064679887385961981, 1287836182261, 2575672364521)


def test_miller_rabin_tells_psi_12_from_its_prime_factors():
    for n, p, q in (PSI_12, PSI_13):
        assert n == p * q and arith._is_prime(p) and arith._is_prime(q)
    assert not arith._is_prime(PSI_12[0])


# Miller-Rabin to the 13 bases proves primality only below psi_13, so a
# factor from psi_13 up is no place: psi_13 itself passes all 13 bases
def test_bad_places_refuses_a_factor_it_cannot_prove_prime():
    big = build_pair(10 ** 19 + 51, [0, 1], [-1, 0, 1], [-9, 0, 1])
    assert bad_places(big).finite_primes == (2, 3, 10 ** 19 + 51)
    curve = build_pair(PSI_13[0], [0, 1], [-1, 0, 1], [-9, 0, 1])
    with pytest.raises(FactorizationBudgetExceeded, match=f"^cannot prove {PSI_13[0]} prime$"):
        bad_places(curve)
    for _ in range(2):  # the curve keeps the exception
        with pytest.raises(FactorizationBudgetExceeded, match="cannot prove"):
            curve.bad_places


@pytest.mark.parametrize("primes", [(3, 2), (2, 2), (2, 5, 3)])
def test_place_set_rejects_primes_out_of_increasing_order(primes):
    # `_make`, and `_replace` through it, check as the constructor does
    for build in (PlaceSet, lambda ps: PlaceSet((2,))._replace(finite_primes=ps),
                  lambda ps: PlaceSet._make([ps])):
        with pytest.raises(ValueError, match="strictly increasing"):
            build(primes)
    S = PlaceSet((2,))._replace(finite_primes=(2, 3))
    assert type(S) is PlaceSet and S == PlaceSet((2, 3))


def test_every_place_set_holds_oo():
    for S in (PlaceSet(()), PlaceSet((2, 3))):
        assert all(v in S for v in places_of(S))  # 0 is oo
        assert 5 not in S
    assert str(PlaceSet((2, 3))) == "{2, 3, oo}"


def test_enumerate_Q_S2_sizes_and_closure():
    S = PlaceSet((2,))
    grp = enumerate_Q_S2(S)
    assert sorted(grp) == [-2, -1, 1, 2]

    S = PlaceSet((2, 3, 7, 113))
    grp = enumerate_Q_S2(S)
    assert len(grp) == 32
    vals = set(grp)
    assert len(vals) == 32
    for a in grp[:8]:
        for b in grp[:8]:
            assert class_product(a, b) in vals

    grp0 = enumerate_Q_S2(PlaceSet(()))
    assert sorted(grp0) == [-1, 1]


def test_prime_support_of_fraction():
    assert prime_support(Fraction(12, 35)) == {2, 3, 5, 7}


# -- F2 linear algebra helpers ------------------------------------------------


def test_span_membership_and_dim():
    s = gf2.Span([0b101, 0b011])
    assert s.dim == 2
    assert 0b110 in s
    assert 0b100 not in s
    assert not s.add(0b110)
    assert s.add(0b100)
    assert s.dim == 3


def test_same_span_basis_independent():
    assert gf2.same_span([0b101, 0b011], [0b110, 0b011])
    assert not gf2.same_span([0b101], [0b011])


def test_nullspace_matches_bruteforce():
    # the kernel of the matrix with these columns: every selection of
    # columns that XORs to zero, and only those
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 7)
        columns = [rng.getrandbits(rng.randint(1, 7)) for _ in range(n)]
        kern = gf2.nullspace(columns)
        span = gf2.Span(kern)
        brute = [x for x in range(1 << n)
                 if reduce(xor, (c for k, c in enumerate(columns) if x >> k & 1), 0) == 0]
        assert len(kern) == span.dim and len(brute) == 1 << span.dim
        assert all(x in span for x in brute)


def test_nullspace_edge_cases():
    assert gf2.nullspace([]) == []
    # a zero column is a kernel vector on its own
    assert gf2.nullspace([0b1, 0, 0b1]) == [0b010, 0b101]
    assert gf2.nullspace([0]) == [1]


def test_coordinates_match_bruteforce():
    # every v of n bits against independent vectors: the one subset of
    # them that XORs to v, or None
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 6)
        span = gf2.Span()
        basis = [r for r in (rng.getrandbits(n) for _ in range(rng.randint(0, n))) if span.add(r)]
        for v in range(1 << n):
            subsets = [c for c in range(1 << len(basis))
                       if reduce(xor, (b for k, b in enumerate(basis) if c >> k & 1), 0) == v]
            assert gf2.coordinates(basis, v) == (subsets[0] if subsets else None)


def test_coordinates_over_an_empty_basis():
    assert gf2.coordinates([], 0) == 0
    assert gf2.coordinates([], 0b10) is None
