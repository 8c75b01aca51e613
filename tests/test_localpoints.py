import itertools
import random
from fractions import Fraction

import pytest

from curve_fixtures import class_bits, quadratic_mumford_certificate
from richelot_ctp.cohomology import KummerTriple, psi_two_to_phihat
from richelot_ctp.ctp import ctp_matrix
from richelot_ctp.curve import INF, PHI, PHIHAT, build_pair, poly_eval, poly_integer_form
from richelot_ctp.localfield import is_local_square, local_square_class, place_name, places_of
from richelot_ctp.localpoints import (
    LocalImage,
    MumfordDivisor,
    SearchConfig,
    SearchExhausted,
    _point_tiers,
    _walk,
    _torsion_divisors,
    divisor_image,
    find_local_point,
    local_images,
    mu_phi,
    mu_phihat,
    mu_two,
)
from richelot_ctp.selmer import selmer_group

OO = 0
V2, V3, V7, V113 = 2, 3, 7, 113

# divisors named by root slots: 0 <-> -226, 1 <-> 0, 2 <-> 678, 3 <-> -113, 4 <-> 791
D_0_m113 = MumfordDivisor.weierstrass_pair(1, 3)
D_0_m226 = MumfordDivisor.weierstrass_pair(0, 1)
D_m226_m113 = MumfordDivisor.weierstrass_pair(0, 3)


def classes_of(t):
    return tuple(class_bits(c, t.place) for c in t.slots())


def same_local(t, values, v):
    return classes_of(t) == tuple(class_bits(local_square_class(x, v), v) for x in values)


def test_a_weierstrass_pair_is_two_distinct_markers_in_order():
    D = MumfordDivisor.weierstrass_pair(3, INF, PHI)
    assert (D.tag, D.side, D.torsion, str(D)) == ("weierstrass_pair", PHI, (3, INF), "{3,inf}")
    with pytest.raises(ValueError):
        MumfordDivisor.weierstrass_pair(2, 2)


def test_mu_two_table_values(curve113):
    assert same_local(mu_two(D_0_m113, curve113, V3), (-1, 3, -3, -1, -1), V3)
    assert same_local(mu_two(D_0_m226, curve113, V113), (113, 3 * 113, 3, 1, 1), V113)
    assert same_local(mu_two(D_0_m226, curve113, V2), (2, 6, 3, -1, -1), V2)
    assert same_local(mu_two(D_m226_m113, curve113, V2), (1, 2, -2, -2, 2), V2)
    assert same_local(mu_two(D_m226_m113, curve113, V7), (1, 1, 7, 7, 1), V7)
    assert mu_two(MumfordDivisor.identity(), curve113, V3).is_trivial()


def test_mu_phihat_known_point_images(curve113):
    assert mu_phihat(D_0_m226, curve113).values == (226, -14 * 113, -7)
    assert mu_phihat(D_m226_m113, curve113).values == (113, 7, 7 * 113)
    assert mu_phihat(MumfordDivisor.identity(), curve113).values == (1, 1, 1)


def test_mu_phi_kernel_divisors_trivial(curve113):
    # the codomain kernel divisors are images of rational two-torsion under
    # the isogeny, hence map to the trivial class; this pins down the
    # infinite-point convention
    roots = {x for grp in curve113.codomain_data.groups for x in grp}
    assert roots == {339, -565, 113, -678, 226}
    P2 = MumfordDivisor.rational_pair(-565, 113, PHI)
    P3 = MumfordDivisor.rational_pair(-678, 226, PHI)
    assert mu_phi(P2, curve113).values == (1, 1, 1)
    assert mu_phi(P3, curve113).values == (1, 1, 1)
    # the linear factor's kernel divisor contains the infinite point
    slots = sorted(curve113.codomain_data.slots)
    P1 = MumfordDivisor.weierstrass_pair(slots[0], INF, PHI)
    assert mu_phi(P1, curve113).values == (1, 1, 1)


def test_mu_phi_weierstrass_totality(curve113):
    # every slot nonzero after special-casing, and the norm condition holds
    for D in _torsion_divisors(curve113, PHI):
        t = mu_phi(D, curve113)
        assert all(v != 0 for v in t.values)


def test_mu_maps_norm_condition_random_divisors(curve113):
    # constructors raise if the norm condition fails, so building is the test
    rng = random.Random(79)
    count = 0
    for v in (V2, V3, V7, V113, OO):
        for D, _ in filter(None, itertools.chain.from_iterable(
                _point_tiers(curve113, PHIHAT, v, SearchConfig(val_bound=2)))):
            mu_two(D, curve113, v)
            mu_phihat(D, curve113, v)
            count += 1
            if count % 97 == 0 and count > 500:
                break
        else:
            continue
    assert count > 500


def test_commutativity_psi_of_mu_two_is_mu_phihat(curve113):
    # quintuple image pushed through (a1, a2 a3, a4 a5) equals the triple image
    rng = random.Random(83)
    places = [V2, V3, V7, V113, OO]
    checked = 0
    for v in places:
        for D, _ in filter(None, itertools.chain.from_iterable(
                _point_tiers(curve113, PHIHAT, v, SearchConfig(val_bound=3)))):
            got = psi_two_to_phihat(mu_two(D, curve113, v))
            want = mu_phihat(D, curve113, v)
            assert got == want, (str(D), place_name(v))
            checked += 1
            if checked >= 120 * (places.index(v) + 1):
                break
    assert checked >= 100


def test_commutativity_on_quadratic_divisors(curve113):
    from richelot_ctp.localpoints import _quadratic_candidates, SearchConfig
    checked = 0
    for v in (V2, V3, V7):
        for D, _ in filter(None, _quadratic_candidates(curve113, PHIHAT, v, SearchConfig())):
            got = psi_two_to_phihat(mu_two(D, curve113, v))
            assert got == mu_phihat(D, curve113, v), (str(D), place_name(v))
            checked += 1
            if checked >= 10 * ((V2, V3, V7).index(v) + 1):
                break
    assert checked >= 20


def test_quadratic_divisor_images_match_split_pairs(curve113):
    # a split quadratic A = (x - x1)(x - x2) must give the same classes as the
    # rational pair it represents (resultant identity); the pair is a valid
    # divisor at v only when both f(x_i) are local squares there
    rng = random.Random(89)
    f = curve113.domain_data.f
    found = 0
    for _ in range(20000):
        x1 = Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3)))
        x2 = Fraction(rng.randint(-40, 40), rng.choice((1, 2)))
        if x1 == x2 or poly_eval(f, x1) == 0 or poly_eval(f, x2) == 0:
            continue
        places = [v for v in (V3, V113)
                  if is_local_square(poly_eval(f, x1), v)
                  and is_local_square(poly_eval(f, x2), v)]
        if not places:
            continue
        A = (-(x1 + x2), x1 * x2)
        Dq = MumfordDivisor.quadratic(A[0], A[1], PHIHAT)
        Dr = MumfordDivisor.rational_pair(x1, x2, PHIHAT)
        for v in places:
            assert mu_two(Dq, curve113, v) == mu_two(Dr, curve113, v)
            assert mu_phihat(Dq, curve113, v) == mu_phihat(Dr, curve113, v)
        found += 1
        if found >= 25:
            break
    assert found >= 25


def test_quadratic_certificate_split_case_agrees(curve113):
    # for split A over Q_v the certificate must match testing both points
    rng = random.Random(97)
    f = curve113.domain_data.f
    checked = 0
    for _ in range(3000):
        x1 = Fraction(rng.randint(-60, 60))
        x2 = Fraction(rng.randint(-60, 60))
        if x1 == x2:
            continue
        fx1, fx2 = poly_eval(f, x1), poly_eval(f, x2)
        if fx1 == 0 or fx2 == 0:
            continue
        A = (-(x1 + x2), x1 * x2)
        for v in (V3, V7):
            want = is_local_square(fx1, v) and is_local_square(fx2, v)
            got = quadratic_mumford_certificate(f, A, v)
            assert got == want, (x1, x2, place_name(v))
        checked += 1
        if checked >= 40:
            break
    assert checked >= 40


def test_find_local_point_witnesses(curve113):
    t = KummerTriple.of(113, 113, 1)
    assert find_local_point(t, curve113, V3) == D_0_m113
    assert find_local_point(t, curve113, V113) == D_0_m226
    assert find_local_point(KummerTriple.of(1, 7, 7), curve113, V2) == D_m226_m113
    triv = KummerTriple.of(1, 1, 1)
    assert find_local_point(triv, curve113, V7).tag == "identity"


def test_find_local_point_roundtrip(curve113):
    for vals in ((113, 113, 1), (2, 2, 1), (1, 7, 7), (226, -14 * 113, -7)):
        t = KummerTriple.of(*vals)
        for v in (OO, V2, V3, V7, V113):
            D = find_local_point(t, curve113, v)
            assert mu_phihat(D, curve113, v) == t.restrict(v)


def test_find_local_point_exhausts_on_non_image(curve113):
    # (1, 3, 3) is not in the local image at 113 (3 is a nonresidue and the
    # image is spanned by (113,113,1), (113,1,113))
    bad = KummerTriple.of(1, 3, 3)
    with pytest.raises(SearchExhausted):
        find_local_point(bad, curve113, V113,
                         SearchConfig(val_bound=2, escalations=0))


def test_find_local_point_rejects_a_target_from_another_place(curve113):
    # the search compares masks, which do not record the place
    with pytest.raises(ValueError):
        find_local_point(KummerTriple.of(1, 3, 3).restrict(V3), curve113, V113)


def test_local_images_certified_at_all_bad_places(curve113):
    dims = {}
    for v in (OO, V2, V3, V7, V113):
        ih, ip = local_images(curve113, v)
        assert ih.status == "certified"
        assert ip.status == "certified"
        dims[place_name(v)] = (ih.dim, ip.dim)
    assert dims["oo"] == (1, 1)
    assert dims["2"][0] + dims["2"][1] == 6
    for p in ("3", "7", "113"):
        assert dims[p][0] + dims[p][1] == 4


def test_local_images_annihilate_under_cup(curve113):
    from richelot_ctp.cohomology import cup_invariant
    for v in (OO, V2, V3, V7, V113):
        ih, ip = local_images(curve113, v)
        for ta in ih.basis:
            for tb in ip.basis:
                assert cup_invariant(tb, ta) == 0


def test_local_image_at_infinity_sign_analysis(curve113):
    img = local_images(curve113, OO)[0]
    assert img.dim == 1
    assert classes_of(img.basis[0]) == ((0,), (1,), (1,))


def test_a_norm_one_pair_that_is_no_local_point_is_never_returned(curve113):
    # f(x1) and f(x2) lie in one nontrivial class at 3, so the pair has an
    # image of norm one, but it is no point over Q_3
    def f_class(x):
        return local_square_class(poly_eval(curve113.domain_data.f, Fraction(x)), V3)
    x1, x2 = next((x1, x2) for x1, x2 in itertools.combinations(range(1, 60), 2)
                  if f_class(x1) and f_class(x1) == f_class(x2))
    fake = MumfordDivisor.rational_pair(x1, x2)
    t = mu_phihat(fake, curve113, V3)
    D = find_local_point(t, curve113, V3)
    assert D != fake and mu_phihat(D, curve113, V3) == t
    assert all(is_local_square(poly_eval(curve113.domain_data.f, x), V3) for x in D.xs)


def test_quadratic_masks_read_from_resultants_match_images(curve113):
    # a quadratic equal to a factor has a zero resultant slot, whose bits are
    # the XOR of the other two: on the domain it is the pair of that factor's
    # roots, whose image the point evaluation gives independently
    from richelot_ctp.curve import _common_denominator
    from richelot_ctp.localpoints import (
        _quadratic_candidates,
        _quadratic_mask,
    )
    irrational = build_pair(1, [0, 1], [-1, 0, 1], [6, -5, 1])
    checked = 0
    for curve, places in ((irrational, (V2, V3, V7)), (curve113, (V2, V3, V7, V113))):
        for v in places:
            tried = itertools.islice(
                filter(None, _quadratic_candidates(curve, PHIHAT, v, SearchConfig())), 10)
            cases = [(D, D) for D, _ in tried]
            cases += [(D, D) for D in _torsion_divisors(curve, PHI) if D.tag == "quadratic"]
            for g, roots in zip(curve.G, curve.roots_by_factor):
                if len(g) == 3:
                    cases.append((MumfordDivisor.quadratic(g[1] / g[2], g[0] / g[2]),
                                  MumfordDivisor.rational_pair(*roots)))
            for D, same in cases:
                forms = [poly_integer_form(g) for g in (curve.G if D.side == PHIHAT else curve.L)]
                mask = _quadratic_mask(*_common_denominator(
                    *(x.as_integer_ratio() for x in D.quad)), forms, v)
                assert mask == divisor_image(same, curve, v).mask, (str(D), place_name(v))
                checked += 1
    assert checked >= 40


def test_toy_curve_codomain_torsion_includes_conjugate_pairs(toy_curve):
    # x^2+4 and x^2+1 are irreducible: their kernel divisors appear as
    # quadratic tags and map to the trivial class
    tors = _torsion_divisors(toy_curve, PHI)
    quads = [D for D in tors if D.tag == "quadratic"]
    assert len(quads) == 2
    for D in quads:
        assert mu_phi(D, toy_curve).values == (1, 1, 1)


# ---------------------------------------------------------------------------
# the data a curve computes once
# ---------------------------------------------------------------------------

# the benchmark's `curves` corpus
CORPUS = {
    "k113": build_pair(1, [226, 1], [0, -678, 1], [-7 * 113 * 113, -678, 1]),
    "k17": build_pair(1, [34, 1], [0, -102, 1], [-7 * 17 * 17, -102, 1]),
    "six-root": build_pair(2, [-1, 1], [30, -21, 3], [-11, -10, 1]),
    "irrational": build_pair(1, [0, 1], [-1, 0, 1], [6, -5, 1]),
    "fractional": build_pair(4, [Fraction(-1, 2), 1], [-1, 0, 1], [-12, 1, 1]),
    "negative-lc": build_pair(-1, [0, 1], [-1, 0, 1], [-9, 0, 1]),
}


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_torsion_masks_read_from_the_curve_data_match_the_images(monkeypatch, label):
    from richelot_ctp import localpoints
    from richelot_ctp.localfield import places_of
    curve = CORPUS[label]
    for v in places_of(curve.bad_places):
        for side in (PHIHAT, PHI):
            with monkeypatch.context() as m:
                # the tier reads the curve's values; it builds no slot value
                m.setattr(localpoints, "_slot_values", None)
                torsion = list(filter(None, _point_tiers(curve, side, v, SearchConfig())[0]))
            assert [D for D, _ in torsion] == _torsion_divisors(curve, side)
            for D, mask in torsion:
                assert mask == divisor_image(D, curve, v).mask, (D, v)


def test_uncached_walks_at_the_real_place_isolate_roots_once_per_side(count_calls):
    # the earlier walks isolated the real roots once per walk and side
    from richelot_ctp import curve as curve_module
    curve = build_pair(1, [0, 1], [-1, 0, 1], [6, -5, 1])
    samples = count_calls(curve_module, "real_root_samples", lambda args: args[0])
    images = local_images(curve, OO)
    assert local_images(curve, OO) == images
    for t in images[0].basis:
        find_local_point(t, curve, OO)
    # the images are full before the codomain's singles tier starts, so
    # each side's walk is also run to its end, twice
    for side in (PHIHAT, PHI):
        for _ in range(2):
            list(itertools.chain.from_iterable(_walk(curve, side, OO, SearchConfig())))
    assert samples == {curve.G: 1, curve.L: 1}


def test_a_curve_walks_each_side_and_place_once_per_search_config(count_calls):
    # the curve keeps its local images under the place and the search
    # config: the second Selmer group and the pairing read the images the
    # first Selmer group found, and only another config walks again
    from richelot_ctp import localpoints
    curve = build_pair(1, [0, 1], [-1, 0, 1], [-4, 0, 1])
    walks = count_calls(localpoints, "_walk", lambda args: (args[1], place_name(args[2]), args[3]))
    sel = selmer_group(curve, "phihat")
    selmer_group(curve, "phi")
    ctp_matrix(sel, curve)
    places = places_of(curve.bad_places)
    assert walks == {(side, place_name(v), SearchConfig()): 1
                     for side in (PHIHAT, PHI) for v in places}
    v = places[-1]
    images = local_images(curve, v)
    assert local_images(curve, v) is images
    assert sum(walks.values()) == 2 * len(places)
    other = SearchConfig(val_bound=2)
    assert local_images(curve, v, other) is not images
    assert walks[PHIHAT, place_name(v), other] == walks[PHI, place_name(v), other] == 1
    assert sum(walks.values()) == 2 * len(places) + 2


@pytest.mark.parametrize("field, low", [("residue_exponent", 1), ("val_bound", 0),
                                        ("escalations", 0)])
def test_search_config_rejects_a_bound_below_its_minimum(field, low):
    # `_make`, and `_replace` through it, check as the constructor does
    for build in (SearchConfig, SearchConfig()._replace,
                  lambda **kw: SearchConfig._make((SearchConfig()._asdict() | kw).values())):
        with pytest.raises(ValueError, match=f"{field} must be at least {low}"):
            build(**{field: low - 1})
    assert getattr(SearchConfig(**{field: low}), field) == low
    cfg = SearchConfig()._replace(**{field: low})
    assert type(cfg) is SearchConfig and getattr(cfg, field) == low


def test_search_config_escalates_through_its_own_method():
    assert SearchConfig().escalate() == SearchConfig(5, 8, 2, None)
    assert type(SearchConfig().escalate()) is SearchConfig
    # the traced benchmark wraps the method in the class's own namespace
    assert "escalate" in vars(SearchConfig)


@pytest.mark.parametrize("record, field", [
    (SearchConfig(), "val_bound"),
    (MumfordDivisor.point_plus_infinity(3), "xs"),
    (LocalImage(2, "phihat", (), (), "certified"), "status"),
])
def test_a_record_field_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_equal_table_keys_hash_alike():
    # search configs key the local-image tables, divisors the mu_two tables
    pairs = [(SearchConfig(val_bound=2), SearchConfig(4, 2)),
             (MumfordDivisor.rational_pair(1, "1/2"),
              MumfordDivisor("rational_pair", PHIHAT, xs=(Fraction(1), Fraction(1, 2)))),
             (MumfordDivisor.weierstrass_pair(0, INF, PHI),
              MumfordDivisor.weierstrass_pair(0, INF, PHI))]
    for a, b in pairs:
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
