import random
from fractions import Fraction

import pytest

from curve_fixtures import class_bits
from hilbert_oracle import OracleInconclusive, hilbert_oracle
from padic_oracle import DEFAULT_PADIC_DIGITS, InsufficientPrecision, PadicApprox
from richelot_ctp.localfield import (
    class_representative,
    hilbert_bits,
    hilbert_symbol,
    is_local_square,
    local_square_class,
    local_square_dim,
    place_name,
    valuation,
)

OO = 0
V2 = 2
V3 = 3


def brute_is_square(x, p, digits=12):
    """Independent squareness check: search z with z^2 = x to enough digits."""
    x = Fraction(x)
    v = valuation(x, p)
    if v % 2:
        return False
    u = x / Fraction(p) ** v
    m = p ** digits
    um = u.numerator * pow(u.denominator, -1, m) % m
    mod = p if p > 2 else 8
    return any(z * z % mod == um % mod for z in range(mod))


def test_local_square_class_examples():
    assert local_square_class(7, V2)
    assert not local_square_class(17, V2)
    assert local_square_class(-1, OO)
    assert not local_square_class(Fraction(4, 9), V3)


def test_local_square_class_group_orders():
    for v, order in ((V3, 4), (V2, 8), (OO, 2)):
        seen = {class_bits(local_square_class(n, v), v) for n in range(-50, 50) if n}
        assert len(seen) == order


def test_local_square_agrees_with_brute_force():
    rng = random.Random(17)
    for _ in range(300):
        q = Fraction(rng.randint(-400, 400) or 7, rng.randint(1, 120))
        for p in (2, 3, 5, 7, 113):
            assert is_local_square(q, p) == brute_is_square(q, p)


def test_ratio_square_iff_same_class():
    rng = random.Random(23)
    vs = [OO, V2, V3, 113]
    for _ in range(150):
        a = Fraction(rng.randint(-200, 200) or 3, rng.randint(1, 50))
        b = Fraction(rng.randint(-200, 200) or 5, rng.randint(1, 50))
        for v in vs:
            same = local_square_class(a, v) == local_square_class(b, v)
            assert same == is_local_square(a / b, v)


def test_representative_is_in_class():
    rng = random.Random(29)
    for _ in range(200):
        q = Fraction(rng.randint(-300, 300) or 11, rng.randint(1, 40))
        for v in (OO, V2, V3, 7, 113):
            c = local_square_class(q, v)
            assert local_square_class(class_representative(c, v), v) == c


# -- Hilbert symbol -----------------------------------------------------------


def test_hilbert_symbol_spec_values():
    assert hilbert_symbol(-1, -1, OO) == -1
    assert hilbert_symbol(2, 7, 7) == 1
    assert hilbert_symbol(3, 7, 7) == -1
    assert hilbert_symbol(-1, -1, V2) == -1


def _random_rationals(rng, n):
    pool = [2, 3, 5, 7, 113]
    out = []
    for _ in range(n):
        q = Fraction(rng.choice((1, -1)))
        for p in pool:
            q *= Fraction(p) ** rng.randint(-2, 2)
        q *= rng.randint(1, 9)
        out.append(q)
    return out


def test_hilbert_symmetry_and_bimultiplicativity():
    rng = random.Random(31)
    places = [OO, V2, V3, 5, 7, 113]
    xs = _random_rationals(rng, 40)
    for _ in range(300):
        a, b, c = rng.choice(xs), rng.choice(xs), rng.choice(xs)
        v = rng.choice(places)
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
        assert hilbert_symbol(a * b, c, v) == hilbert_symbol(a, c, v) * hilbert_symbol(b, c, v)


def test_hilbert_minus_a_and_one_minus_a():
    rng = random.Random(37)
    places = [OO, V2, V3, 7, 113]
    xs = [x for x in _random_rationals(rng, 60) if x not in (0, 1)]
    for a in xs:
        for v in places:
            assert hilbert_symbol(a, -a, v) == 1
            assert hilbert_symbol(a, 1 - a, v) == 1


def test_hilbert_product_formula():
    rng = random.Random(41)
    for _ in range(200):
        a, b = _random_rationals(rng, 2)
        prod = hilbert_symbol(a, b, OO)
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


# -- oracle -------------------------------------------------------------------


def test_oracle_spec_examples():
    assert hilbert_oracle(1, 1, V3, depth=3) == 1
    assert hilbert_oracle(-1, -1, V2, depth=6) == -1
    assert hilbert_oracle(5, 3, 5, depth=3) == hilbert_symbol(5, 3, 5)


def test_oracle_paths_agree_with_each_other():
    # depth small enough for residue exhaustion vs depth forcing the
    # valuation-descent path: both must match the closed form
    rng = random.Random(97)
    xs = _random_rationals(rng, 40)
    for p in (3, 5, 7):
        exhaustive_depth = {3: 4, 5: 3, 7: 3}[p]
        for _ in range(120):
            a, b = rng.choice(xs), rng.choice(xs)
            want = hilbert_symbol(a, b, p)
            try:
                got1 = hilbert_oracle(a, b, p, depth=exhaustive_depth)
            except OracleInconclusive:
                got1 = hilbert_oracle(a, b, p, depth=exhaustive_depth + 2)
            got2 = hilbert_oracle(a, b, p, depth=12)  # large-p descent path
            assert got1 == want and got2 == want, (a, b, p)


def test_oracle_agrees_with_closed_form_thousand_triples():
    rng = random.Random(43)
    places = [OO, V2, V3, 5, 7, 113]
    depth_for = {0: 1, 2: 6, 3: 4, 5: 3, 7: 3, 113: 2}
    checked = 0
    xs = _random_rationals(rng, 80)
    while checked < 1000:
        a, b = rng.choice(xs), rng.choice(xs)
        v = rng.choice(places)
        try:
            got = hilbert_oracle(a, b, v, depth=depth_for[v])
        except OracleInconclusive:
            got = hilbert_oracle(a, b, v, depth=depth_for[v] + 2)
        assert got == hilbert_symbol(a, b, v), (a, b, place_name(v))
        checked += 1


# on two tuples packed alike, one call sums the symbols of the slots; each
# slot's symbol is the oracle's on the representatives of the two classes
@pytest.mark.parametrize("p", [0, 2, 3, 5, 7, 113], ids=place_name)
def test_hilbert_bits_of_packed_tuples_is_the_sum_over_the_slots(p):
    d = local_square_dim(p)
    depth = {0: 1, 2: 6, 3: 4, 5: 3, 7: 3, 113: 2}[p]
    oracle = {}
    for x in range(1 << d):
        for y in range(1 << d):
            a, b = class_representative(x, p), class_representative(y, p)
            try:
                symbol = hilbert_oracle(a, b, p, depth=depth)
            except OracleInconclusive:
                symbol = hilbert_oracle(a, b, p, depth=depth + 2)
            oracle[x, y] = int(symbol == -1)
    rng = random.Random(f"packed hilbert at {place_name(p)}")
    seen = set()
    for n in (1, 3, 5):
        for _ in range(100):
            xs, ys = ([rng.randrange(1 << d) for _ in range(n)] for _ in range(2))
            a, b = (sum(c << i * d for i, c in enumerate(cs)) for cs in (xs, ys))
            want = sum(oracle[x, y] for x, y in zip(xs, ys)) % 2
            assert hilbert_bits(a, b, p) == want, (xs, ys)
            seen.add((n, want))
    assert seen == {(n, e) for n in (1, 3, 5) for e in (0, 1)}


# -- the bounded-precision p-adic reference (padic_oracle) -------------------


def test_padic_roundtrip_and_arithmetic():
    rng = random.Random(47)
    for p in (2, 3, 7, 113):
        for _ in range(50):
            a = Fraction(rng.randint(-200, 200) or 3, rng.randint(1, 60))
            b = Fraction(rng.randint(-200, 200) or 5, rng.randint(1, 60))
            pa = PadicApprox.from_rational(a, p)
            pb = PadicApprox.from_rational(b, p)
            s = a + b
            if s != 0:
                ps = pa + pb
                assert ps.val == valuation(s, p)
            prod = pa * pb
            assert prod.val == valuation(a * b, p)


def test_padic_square_test_matches_exact():
    rng = random.Random(53)
    for p in (2, 3, 7, 113):
        for _ in range(100):
            q = Fraction(rng.randint(-300, 300) or 7, rng.randint(1, 50))
            assert PadicApprox.from_rational(q, p).is_square() == is_local_square(q, p)


def test_padic_square_requires_precision():
    x = PadicApprox(3, 0, 2, 0)  # no unit digits carried at all
    with pytest.raises(InsufficientPrecision):
        x.is_square()


def test_padic_sqrt_squares_back():
    rng = random.Random(59)
    for p in (2, 3, 7, 113):
        for _ in range(40):
            q = Fraction(rng.randint(1, 200), rng.randint(1, 50)) ** 2 * Fraction(p) ** (2 * rng.randint(-1, 1))
            x = PadicApprox.from_rational(q, p)
            if not x.is_square():
                continue
            r = x.sqrt()
            sq = r * r
            m = p ** min(sq.prec, r.prec, DEFAULT_PADIC_DIGITS - 4)
            assert sq.val == x.val
            assert (sq.unit - x.unit) % m == 0


def test_padic_cancellation_raises():
    p = PadicApprox.from_rational(Fraction(1, 3), 5, prec=6)
    q = PadicApprox.from_rational(Fraction(-1, 3), 5, prec=6)
    with pytest.raises(InsufficientPrecision):
        _ = p + q
