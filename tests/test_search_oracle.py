"""The local search against the search it replaced.

The oracle below is the earlier search, kept verbatim in behaviour: every
escalation walks every tier again from the top, every target walks the tiers
again on its own, every quadratic candidate is certified, every factor is
evaluated at every single-point candidate, and every candidate's image is
built with `divisor_image` and compared as a `LocalKummerTriple`.  It keeps
its own copies of the earlier quadratic generator and singles filter, and
its own flat singles feed (`flat_feed`, on Fractions, with no cut), and
shares with the library only the other candidate generators (torsion
divisors, the blocks of `_x_blocks` and the residue grids of
`_unit_table`), read through the library's module, so that both walk the
order `shuffled_walk` permutes them into.  It drains the two sides' tiers
in lockstep, tier by tier.  The library's search walks
each place once, steps the two sides' walks in turn and stops as soon as
both images are full, ends the domain's walk once its 2-descent images are
full, skips the tiers an escalation does not change, reads
a dominated factor's class once per block and unit class, cuts a generic
block once the pool is full, compares every tier by class bits, certifies
a quadratic only for a mask its walk has not yet yielded, and builds
images only for the candidates it keeps, so it must return the same bases,
witnesses, statuses and divisors.
The module also counts the work the new search must not repeat, checks
the domain's 2-descent certificate against its own reading of the span,
and corrupts class bits to trip the bits-against-witness check and the
certificate's checks.
"""

import collections
import itertools
import random
import sys
from fractions import Fraction

import pytest

from curve_fixtures import (BENCHMARK_CURVES, fixture_curve, fresh, seeded_corpus,
                            square_class_bits)
import richelot_ctp.localpoints as lp
from richelot_ctp import gf2
from richelot_ctp.arith import bad_places
from richelot_ctp.cohomology import psi_two_to_phihat
from richelot_ctp.ctp import ctp_matrix
from richelot_ctp.curve import (PHI, PHIHAT, _common_denominator, build_pair, homogenized_eval,
                                poly_integer_form, poly_mul, rational_roots)
from richelot_ctp.localfield import is_local_square, local_square_dim, place_name, places_of
from richelot_ctp.localpoints import (
    ClassBitsMismatch,
    LocalImage,
    MumfordDivisor,
    SearchConfig,
    SearchExhausted,
    _annihilate,
    _point_tiers,
    _quadratic_bounds,
    _quadratic_mask,
    divisor_image,
    find_local_point,
    local_images,
)
from richelot_ctp.selmer import selmer_group


def exhausting(P):
    return build_pair(1, [0, 1], [2, -3, 1], [5 * P, -(5 + P), 1])


def large_prime(P):
    return build_pair(1, [0, 1], [-1, 0, 1], [-P * P, 0, 1])


B97 = exhausting(97)
A1009 = large_prime(1009)
CURVES = {
    # the benchmark's `curves` corpus
    "k113": build_pair(1, [226, 1], [0, -678, 1], [-7 * 113 * 113, -678, 1]),
    "k17": build_pair(1, [34, 1], [0, -102, 1], [-7 * 17 * 17, -102, 1]),
    "six-root": build_pair(2, [-1, 1], [30, -21, 3], [-11, -10, 1]),
    "irrational": build_pair(1, [0, 1], [-1, 0, 1], [6, -5, 1]),
    "fractional": build_pair(4, [Fraction(-1, 2), 1], [-1, 0, 1], [-12, 1, 1]),
    "negative-lc": build_pair(-1, [0, 1], [-1, 0, 1], [-9, 0, 1]),
    # the `exhausting` corpus, which spends every escalation at 17 and 23
    "B31": exhausting(31),
    "B97": B97,
    # a `large_p` curve, where the singles tier reads generic blocks once
    # per unit class
    "A257": large_prime(257),
}
# A1009 runs under the default config only: its walks are the longest
WITH_A1009 = {**CURVES, "A1009": A1009}
CONFIGS = {
    "default": SearchConfig(),
    "val_bound=2": SearchConfig(val_bound=2),  # the quadratic bounds grow once
    "residue_exponent=1": SearchConfig(residue_exponent=1),
}
# the default config on a fresh curve, walked in the order `shuffled_walk`
# draws from the seed
SEEDS = {"seed=5": 5, "seed=11": 11}


# ---------------------------------------------------------------------------
# the oracle: the search before tier skipping and class-bit masks
# ---------------------------------------------------------------------------


def model(curve, side):
    """f of the side's model, y^2 = G1 G2 G3 or Delta y^2 = L1 L2 L3, as y^2 = f(x)."""
    if side == PHIHAT:
        return poly_mul(poly_mul(curve.G[0], curve.G[1]), curve.G[2])
    return tuple(c / curve.delta for c in poly_mul(poly_mul(curve.L[0], curve.L[1]), curve.L[2]))


def weierstrass_xs(curve, side):
    """The side's rational Weierstrass x-coordinates, in factor order."""
    factors = curve.G if side == PHIHAT else curve.L
    return tuple(r for g in factors for r in rational_roots(g) or ())


def oracle_quadratic_candidates(curve, side, v, cfg):
    # the earlier library generator verbatim, on Fraction coefficients with a
    # certificate for every candidate; it calls the certificate through the
    # module so that tests can count the calls
    if not v:
        return  # conjugate pairs have trivial image over R
    p = v
    f = poly_integer_form(model(curve, side))
    exponent, depth = _quadratic_bounds(p, cfg)
    units = lp._unit_table(curve, p, exponent)[0]
    if len(units) > 40:
        units = units[:20] + units[-20:]

    def attempt(a: Fraction, b: Fraction):
        an, bn, q = _common_denominator(a.as_integer_ratio(), b.as_integer_ratio())
        disc_n = an * an - 4 * bn * q  # disc = a^2 - 4 b = disc_n / q^2
        if disc_n == 0 or not any(square_class_bits(disc_n, 1, p)):
            return None  # split or degenerate over Q_v: covered by point pairs
        if lp._quadratic_certificate(f, an, bn, q, v):
            return MumfordDivisor.quadratic(a, b, side)
        return None

    # pairs are keyed by their integer parts, which hash faster than Fractions
    seen = set()
    coeffs = [Fraction(0)]
    for e in range(-2, 3):
        pe = Fraction(p) ** e
        coeffs.extend(r * pe for r in units)
    for a in coeffs:
        for b in coeffs:
            if b == 0:
                continue
            seen.add((a.numerator, a.denominator, b.numerator, b.denominator))
            D = attempt(a, b)
            if D:
                yield D

    # perturbations of quadratics vanishing on two-torsion x-pairs: divisors
    # p-adically near a torsion pair live here, and on models whose reduction
    # degenerates they can be the only points there are
    polys = curve.G if side == PHIHAT else curve.L
    roots = weierstrass_xs(curve, side)
    bases = []
    for g in polys:
        if len(g) == 3:
            bases.append((g[1] / g[2], g[0] / g[2]))
    for r, s in itertools.combinations(roots, 2):
        bases.append((-(r + s), r * s))
    small = units[:12] + [Fraction(0)]
    for a0, b0 in bases:
        for j in range(1, depth + 1):
            pj = Fraction(p) ** j
            for r1 in small:
                for r2 in small:
                    if r1 == r2 == 0:
                        continue
                    a, b = a0 + r1 * pj, b0 + r2 * pj
                    key = (a.numerator, a.denominator, b.numerator, b.denominator)
                    if b == 0 or key in seen:
                        continue
                    seen.add(key)
                    D = attempt(a, b)
                    if D:
                        yield D


def unmarked(items):
    """The items of a feed, tier or walk without its step marks (None)."""
    return [item for item in items if item is not None]


def flat_feed(curve, side, v, cfg):
    """The singles candidates as (n, d), x = n/d in lowest terms, with no
    step mark and no cut: the side's real samples at the real place, else
    each block (c, j) of `_x_blocks` as c + r p^j on Fractions, r over the
    units of `_unit_table`, each x once."""
    if not v:
        return curve.side_data(side).real_samples
    p, units = v, lp._unit_table(curve, v, cfg.residue_exponent)[0]
    blocks = [[c + r * Fraction(p) ** j for r in units]
              for c, j, _ in lp._x_blocks(curve, side, p, cfg)]
    xs = dict.fromkeys(itertools.chain.from_iterable(blocks))  # the first of each x, in order
    return [(x.numerator, x.denominator) for x in xs]


def flat_points_among(curve, side, v, xs):
    """The candidates (n, d) with f(n/d) a nonzero square in Q_v, as (x, the
    class bits of the three factor values): the earlier singles filter,
    which evaluates every factor at every candidate."""
    p = v
    data = curve.side_data(side)
    f_class = square_class_bits(data.delta.numerator, data.delta.denominator, p)
    for n, d in xs:
        classes = []
        for C, den in data.forms:
            acc, dk = homogenized_eval(C, n, d)
            if not acc:
                break  # x is a Weierstrass point
            classes.append(square_class_bits(acc, den * dk, p))
        else:
            if not any(c ^ c1 ^ c2 ^ c3 for c, c1, c2, c3 in zip(f_class, *classes)):
                yield Fraction(n, d), tuple(classes)


def infinity_rational(curve, side, v):
    """Are the infinite points of `side` defined over Q_v?  Always on the
    domain and on a 5-root codomain, where infinity is a Weierstrass point;
    on a 6-root codomain iff fhat's leading coefficient is a square in Q_v."""
    return (side == PHIHAT or any(len(g) == 2 for g in curve.L)
            or is_local_square(model(curve, PHI)[-1], v))


def oracle_point_tiers(curve, side, v, cfg):
    weier = weierstrass_xs(curve, side)
    good_xs = []
    seen_classes = set()

    def torsion_tier():
        yield from lp._torsion_divisors(curve, side)

    def singles_tier():
        inf_ok = infinity_rational(curve, side, v)
        for x, ckey in flat_points_among(curve, side, v, flat_feed(curve, side, v, cfg)):
            if ckey not in seen_classes or len(good_xs) < lp._POINT_POOL:
                seen_classes.add(ckey)
                if len(good_xs) < 3 * lp._POINT_POOL:
                    good_xs.append(x)
            if inf_ok:
                yield MumfordDivisor.point_plus_infinity(x, side)

    def pairs_tier():
        pool = list(weier) + good_xs
        n_weier = len(weier)
        for i, j in itertools.combinations(range(len(pool)), 2):
            if i < n_weier and j < n_weier:
                continue
            yield MumfordDivisor.rational_pair(pool[i], pool[j], side)

    return [torsion_tier(), singles_tier(), pairs_tier(),
            oracle_quadratic_candidates(curve, side, v, cfg)]


def oracle_local_images(curve, v, cfg):
    target = 2 * local_square_dim(v)
    found = {PHIHAT: [], PHI: []}
    spans = {PHIHAT: gf2.Span(), PHI: gf2.Span()}

    def filled():
        return spans[PHIHAT].dim + spans[PHI].dim >= target

    def drain(name, tier):
        for D in tier:
            t = divisor_image(D, curve, v)
            if spans[name].add(t.mask):
                found[name].append((t, D))
                if filled():
                    return True
        return False

    config = cfg
    for _ in range(cfg.escalations + 1):
        tiers = {side: oracle_point_tiers(curve, side, v, config) for side in (PHIHAT, PHI)}
        for level in range(4):
            for name in (PHIHAT, PHI):
                if drain(name, tiers[name][level]):
                    break
            if filled():
                break
        if filled():
            break
        config = config.escalate()
    certified = (spans[PHIHAT].dim + spans[PHI].dim == target
                 and _annihilate(found[PHIHAT], found[PHI]))
    status = "certified" if certified else "heuristic"
    return tuple(LocalImage(v, name, tuple(t for t, _ in found[name]),
                            tuple(D for _, D in found[name]), status)
                 for name in (PHIHAT, PHI))


def oracle_find_local_point(target, curve, v, cfg):
    t_local = target.restrict(v)
    config = cfg
    for _ in range(cfg.escalations + 1):
        for D in itertools.chain.from_iterable(oracle_point_tiers(curve, PHIHAT, v, config)):
            if divisor_image(D, curve, v) == t_local:
                return D
        config = config.escalate()
    return SearchExhausted


def point_or_exhausted(target, curve, v, cfg):
    try:
        return find_local_point(target, curve, v, cfg)
    except SearchExhausted:
        return SearchExhausted


# ---------------------------------------------------------------------------
# the library against the oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label, config", [
    pytest.param(label, config, id=f"{label}-{config}")
    for label in CURVES for config in [*CONFIGS, *SEEDS]] + [pytest.param("A1009", "default")])
def test_search_matches_the_rewalking_oracle(shuffled_walk, label, config):
    curve, cfg = WITH_A1009[label], CONFIGS.get(config, SearchConfig())
    places = places_of(bad_places(curve))
    if config in SEEDS:
        # the oracle reads the generators the fixture permutes, so it walks
        # the library's order; the order finds other witnesses
        walked = [local_images(curve, v, cfg) for v in places]
        shuffled_walk(SEEDS[config])
        curve = fresh(curve)
        assert [image.witnesses for v in places for image in local_images(curve, v, cfg)] != [
            image.witnesses for images in walked for image in images]
    for v in places:
        assert local_images(curve, v, cfg) == oracle_local_images(curve, v, cfg), place_name(v)
    # every Selmer basis target at every place
    targets = selmer_group(curve, "phihat", cfg).basis
    assert targets
    for t in targets:
        for v in places:
            want = oracle_find_local_point(t, curve, v, cfg)
            assert point_or_exhausted(t, curve, v, cfg) == want, (str(t), place_name(v))


# ---------------------------------------------------------------------------
# the singles feed against the flat one
# ---------------------------------------------------------------------------


def kept_by_the_flat_feed(curve, side, v, cfg):
    """The points of every candidate, in order, less those that repeat a
    class once the pool is full (they change nothing the search keeps)."""
    kept, seen = [], set()
    for x, ckey in flat_points_among(curve, side, v, flat_feed(curve, side, v, cfg)):
        if len(kept) < lp._POINT_POOL or ckey not in seen:
            seen.add(ckey)
            kept.append(x)
    return kept


# at every bad place, both sides, under the default grid and a large one:
# the singles tier yields exactly the points the flat feed keeps, and the
# pairs tier, which draws on the pool, yields the oracle's pairs
@pytest.mark.parametrize("cfg", [SearchConfig(), SearchConfig(residue_exponent=6, val_bound=8)],
                         ids=["default", "residue_exponent=6-val_bound=8"])
@pytest.mark.parametrize("label", ["k113", "six-root", "fractional", "irrational", "B97",
                                   "A257", "A1009"])
def test_the_singles_feed_keeps_what_the_flat_feed_keeps(label, cfg):
    curve = WITH_A1009[label]
    for v in places_of(bad_places(curve)):
        for side in (PHIHAT, PHI):
            tiers, oracle = _point_tiers(curve, side, v, cfg), oracle_point_tiers(curve, side, v, cfg)
            singles = [D.xs[0] for D, _ in unmarked(tiers[1])]
            inf_ok = infinity_rational(curve, side, v)
            assert singles == (kept_by_the_flat_feed(curve, side, v, cfg) if inf_ok else [])
            list(oracle[1])  # the oracle's pool fills as its singles tier runs
            assert [D for D, _ in unmarked(tiers[2])] == list(oracle[2]), (place_name(v), side)


# ---------------------------------------------------------------------------
# work the search must not repeat
# ---------------------------------------------------------------------------


def count_certificates(monkeypatch, curve):
    """Count `_quadratic_certificate` calls per (side, A) into the returned Counter."""
    calls = collections.Counter()
    certificate = lp._quadratic_certificate
    f_form = poly_integer_form(model(curve, PHIHAT))

    def counted(f, an, bn, q, v):
        calls[(PHIHAT if f == f_form else PHI, an, bn, q)] += 1
        return certificate(f, an, bn, q, v)

    monkeypatch.setattr(lp, "_quadratic_certificate", counted)
    return calls


def count_quadratic_work(monkeypatch, curve):
    """Count, per (kind, side, A), the masks the library computes and the
    certificates it runs into the returned Counter."""
    calls = collections.Counter()
    quadratic_mask, certificate = lp._quadratic_mask, lp._quadratic_certificate
    f_form = poly_integer_form(model(curve, PHIHAT))
    g_forms = [poly_integer_form(g) for g in curve.G]

    def mask(an, bn, q, forms, p):
        calls[("mask", PHIHAT if forms == g_forms else PHI, an, bn, q)] += 1
        return quadratic_mask(an, bn, q, forms, p)

    def certified(f, an, bn, q, v):
        calls[("certificate", PHIHAT if f == f_form else PHI, an, bn, q)] += 1
        return certificate(f, an, bn, q, v)

    monkeypatch.setattr(lp, "_quadratic_mask", mask)
    monkeypatch.setattr(lp, "_quadratic_certificate", certified)
    return calls


def test_local_images_tries_each_quadratic_once(monkeypatch, without_descent_certificate):
    # B97 spends both escalations at 23; with the default bounds an
    # escalation leaves the quadratic tier as it was, so it is walked once:
    # no quadratic has its mask read, or its certificate run, twice.  The
    # domain's 2-descent images are full before its quadratic tier there,
    # so only the codomain reads a quadratic mask; with that certificate
    # stubbed off both sides do.  Every test that counts a walk's work walks
    # a fresh curve, since a curve keeps the local images it has found
    for sides in ({PHI}, {PHIHAT, PHI}):
        if PHIHAT in sides:
            without_descent_certificate()
        curve = fresh(B97)
        calls = count_quadratic_work(monkeypatch, curve)
        images = local_images(curve, 23)
        assert images[0].status == "heuristic"  # the search did escalate
        assert {side for kind, side, *_ in calls if kind == "mask"} == sides
        assert max(calls.values()) == 1


def test_the_quadratic_tier_reads_a_class_pair_once(monkeypatch):
    # the search that read every quadratic computed 9710 masks and ran 3162
    # certificates for local_images(B97) at 23; reading the blocks whose
    # dominant terms fix the classes once per unit-class pair, and skipping
    # the classes whose norm is no square, leaves under a quarter of them
    curve = fresh(B97)
    calls = count_quadratic_work(monkeypatch, curve)
    local_images(curve, 23)
    kinds = collections.Counter(kind for kind, *_ in calls.elements())
    assert 0 < kinds["mask"] < 9710 / 4
    assert kinds["certificate"] <= 3162


def record_quadratic_work(monkeypatch):
    """Log each walk of the quadratic tier as (side, config, events).  Its
    events are, in order: ("held", the masks its walk held when it started);
    ("mask", A, mask) for each mask the library computes; ("certificate", A)
    for each certificate; ("yield", mask) for each divisor it yields; and
    ("end",) if it runs to its end.  A is (an, bn, q).  The tier's step
    marks pass through."""
    walks, active = [], [None]
    quadratic_candidates, quadratic_mask = lp._quadratic_candidates, lp._quadratic_mask
    certificate = lp._quadratic_certificate

    def tier(curve_, side, v, cfg, known=()):
        events = []
        walks.append((side, cfg, events))
        inner = quadratic_candidates(curve_, side, v, cfg, known)
        while True:
            active[0] = events
            if not events:
                events.append(("held", set(known)))
            try:
                item = next(inner)
            except StopIteration:
                events.append(("end",))
                return
            if item is not None:
                events.append(("yield", item[1]))
            yield item

    def mask(an, bn, q, forms, p):
        m = quadratic_mask(an, bn, q, forms, p)
        active[0].append(("mask", (an, bn, q), m))
        return m

    def certified(f, an, bn, q, v):
        active[0].append(("certificate", (an, bn, q)))
        return certificate(f, an, bn, q, v)

    monkeypatch.setattr(lp, "_quadratic_candidates", tier)
    monkeypatch.setattr(lp, "_quadratic_mask", mask)
    monkeypatch.setattr(lp, "_quadratic_certificate", certified)
    return walks


def quadratic_walk_order(curve, side, p, cfg):
    """A -> (place in the walk, class pair key) for each candidate of the
    quadratic tier, at its first place; the key is (centre index, ea, eb,
    ka, kb).  The perturbations skip their unperturbed centre."""
    order = {}
    for i, (_, a_blocks, b_blocks) in enumerate(lp._quadratic_blocks(curve, side, p, cfg)):
        for ea, a_xs, _ in a_blocks:
            for a, ka in a_xs:
                for eb, b_xs, _ in b_blocks:
                    for b, kb in b_xs:
                        if b[0] and not (i and ea is eb is None):
                            A = _common_denominator(a, b)
                            order.setdefault(A, (len(order), (i, ea, eb, ka, kb)))
    return order


def tried_quadratics(curve, p, walks):
    """The quadratics (side, an, bn, q) that the logged `walks` of
    `record_quadratic_work` reach at p with a discriminant that is no
    square, and the skips (by a held mask, by the norm rule) and the reads
    shared by a class pair among them, after checking each walk: it reads
    a quadratic's own mask, or the same mask for its class pair, and
    certifies it exactly when the mask passes the norm rule and was not
    held by the walk then."""
    d = local_square_dim(p)
    tried, held_skips, norm_skips, from_pairs = set(), 0, 0, 0
    for side, config, events in walks:
        if not events:
            continue  # made for a round, never walked
        data = curve.side_data(side)
        order = quadratic_walk_order(curve, side, p, config)
        reads, certified, yields = {}, set(), []
        pair_reads = collections.defaultdict(set)
        for event in events:
            if event[0] == "mask":
                reads[event[1]] = event[2]
                pair_reads[order[event[1]][1]].add(event[2])
            elif event[0] == "certificate":
                certified.add(event[1])
                last = order[event[1]][0]
            elif event[0] == "yield":
                yields.append((last, event[1]))
        end = len(order) if events[-1] == ("end",) else yields[-1][0]
        for A, (place, pair) in sorted(order.items(), key=lambda item: item[1][0]):
            an, bn, q = A
            disc = an * an - 4 * bn * q
            if place > end or disc == 0 or not any(square_class_bits(disc, 1, p)):
                continue  # not reached, or split over Q_v: the oracle skips it too
            tried.add((side, *A))
            m = _quadratic_mask(an, bn, q, data.forms, p)
            assert reads.get(A, m) == m, (side, A)
            if A not in reads:
                assert pair_reads[pair] == {m}, (side, A)
                from_pairs += 1
            norm_fails = (m ^ m >> d ^ m >> 2 * d) & ((1 << d) - 1)
            held = events[0][1] | {y for at, y in yields if at < place}
            assert (A in certified) == (not norm_fails and m not in held), (side, A)
            norm_skips += bool(norm_fails)
            held_skips += not norm_fails and m in held
    return tried, (held_skips, norm_skips, from_pairs)


# escalations that grow the quadratic tier's depth (val_bound 1 -> 3 -> 5,
# depth 1 -> 3 -> 4 at 23) or its residue exponent (1 -> 2 -> 3 at 2) must
# walk it again: at these places the later walks reach 87 and 163 more
# quadratics than the first.  Every quadratic the oracle certifies is, in
# each walk of the library that reaches it, either certified or dead at its
# place: its own mask (read here) fails the norm rule or was held by the
# walk then.  The library reads that mask, or it reads the same mask for
# the quadratic's unit-class pair; and it certifies a quadratic exactly when
# it is not dead.  The domain's walk ends once its 2-descent images are
# full, before its quadratic tier at 23 and after its first round at 2, and
# counts as ended there: the codomain's walks reach every quadratic the
# oracle certifies on the codomain, the domain's only some.  With that
# certificate stubbed off, the library's walks reach all the oracle's.
@pytest.mark.parametrize("label, p, cfg", [
    ("B97", 23, SearchConfig(val_bound=1)),
    ("B31", 2, SearchConfig(residue_exponent=1)),
], ids=["B97@23-val_bound=1", "B31@2-residue_exponent=1"])
def test_escalations_try_every_quadratic_the_oracle_tries(monkeypatch, without_descent_certificate,
                                                          label, p, cfg):
    curve = fresh(CURVES[label])
    calls = count_certificates(monkeypatch, curve)
    oracle_local_images(curve, p, cfg)
    oracle_certified = set(calls)
    walks = record_quadratic_work(monkeypatch)
    local_images(curve, p, cfg)
    tried, _ = tried_quadratics(curve, p, walks)
    assert {A for A in tried if A[0] == PHI} == {A for A in oracle_certified if A[0] == PHI}
    assert tried < oracle_certified
    without_descent_certificate()
    walks.clear()
    curve = fresh(CURVES[label])
    local_images(curve, p, cfg)
    tried, (held_skips, norm_skips, from_pairs) = tried_quadratics(curve, p, walks)
    assert tried == oracle_certified
    # the rules do skip certificates here, and B97's class pairs do share reads
    assert held_skips and norm_skips
    assert from_pairs or p == 2


# every tier skips the masks its walk has already yielded, so a walk yields
# each mask once: the earlier torsion, singles and pairs tiers yielded 1466
# candidates for 6 masks at B97@23, one mask 1130 times
@pytest.mark.parametrize("label, p", [("B97", 23), ("k113", 3)])
def test_every_walk_yields_each_mask_once(monkeypatch, label, p):
    curve = fresh(CURVES[label])
    walks = {}  # id of a walk's record -> (the record, Counter of masks yielded)
    point_tiers = lp._point_tiers

    def watched(tier, counts):
        for item in tier:
            if item is not None:
                counts[item[1]] += 1
            yield item

    def tiers(curve_, side, v_, cfg, known=()):
        _, counts = walks.setdefault(id(known), (known, collections.Counter()))
        return [watched(tier, counts) for tier in point_tiers(curve_, side, v_, cfg, known)]

    monkeypatch.setattr(lp, "_point_tiers", tiers)
    local_images(curve, p, SearchConfig())
    assert len(walks) == 2  # one walk per side
    for t in selmer_group(curve, "phihat", SearchConfig()).basis:
        point_or_exhausted(t, curve, p, SearchConfig())
    assert len(walks) > 2
    for _, counts in walks.values():
        assert all(n == 1 for n in counts.values())


# places where the earlier search built images of singles, pairs or
# quadratic candidates that it then discarded, on both sides and both
# codomain models
CANDIDATE_TAGS = ("point_plus_infinity", "rational_pair", "quadratic")


@pytest.mark.parametrize("label, v", [("k113", 2), ("k17", 7), ("six-root", 3),
                                      ("irrational", 0), ("fractional", 7),
                                      ("negative-lc", 3), ("B97", 23)],
                         ids=lambda x: "oo" if x == 0 else str(x))
def test_no_image_is_built_for_a_discarded_point_candidate(monkeypatch, label, v):
    curve = fresh(CURVES[label])
    built = []

    def recorded(mu):
        def build(D, c, place=None):
            built.append(D)
            return mu(D, c, place)
        return build

    image = lp.divisor_image
    # divisor_image dispatches to these two, and the search calls no other
    # builder of a candidate's image
    monkeypatch.setattr(lp, "mu_phihat", recorded(lp.mu_phihat))
    monkeypatch.setattr(lp, "mu_phi", recorded(lp.mu_phi))
    kept = set(itertools.chain.from_iterable(img.witnesses for img in local_images(curve, v)))
    assert built  # the walk checks the image of each witness it keeps
    points = [D for D in built if D.tag in CANDIDATE_TAGS]
    assert set(points) <= kept
    assert len(points) == len(set(points))
    # find_local_point builds the image of the point it returns, and no other
    for D in kept:
        if D.side != PHIHAT:
            continue
        target = image(D, curve, v)
        built.clear()
        assert find_local_point(target, curve, v) is not None
        assert len([E for E in built if E.tag in CANDIDATE_TAGS]) <= 1


def count_factor_evaluations(monkeypatch, curve, p):
    """The `homogenized_eval` calls of local_images(curve) at p, and its
    status."""
    calls = collections.Counter()
    evaluate = lp.homogenized_eval

    def counted(*args):
        calls["factor"] += 1
        return evaluate(*args)

    monkeypatch.setattr(lp, "homogenized_eval", counted)
    images = local_images(curve, p)
    assert calls["factor"]  # the walk ran
    return calls["factor"], images[0].status


def test_large_p_singles_tier_reads_generic_blocks_once_per_unit_class(monkeypatch):
    # the earlier singles tier evaluated the three factors at every residue
    # of every block: 142220 evaluations for local_images(A1009) at 1009;
    # reading only generic blocks once per unit class left 15405, reading
    # each dominated factor once per block and unit class 3318, and a block
    # of 128 sampled units in place of all 1008 leaves about 1200
    evaluations, status = count_factor_evaluations(monkeypatch, fresh(A1009), 1009)
    assert status == "certified"
    assert evaluations <= 1250


def test_the_singles_tier_reads_dominated_factors_once_per_unit_class(monkeypatch):
    # B97 spends every escalation at 23, where most blocks have some factors
    # dominated and others not: reading only generic blocks once per unit
    # class made 5775 evaluations, reading each dominated factor once per
    # block and unit class about 1600
    evaluations, status = count_factor_evaluations(monkeypatch, fresh(B97), 23)
    assert status == "heuristic"
    assert evaluations < 5775 / 2


# ---------------------------------------------------------------------------
# each place stops when its two images certify
# ---------------------------------------------------------------------------


def test_a_side_stops_its_singles_tier_once_both_images_are_full(monkeypatch):
    # at 2 the phihat image of k143 is full before its singles tier starts,
    # and the phi side needs a few single points; walking phihat's whole
    # singles tier before phi's made 503 factor evaluations, stepping the
    # two sides in turn about 60
    evaluations, status = count_factor_evaluations(
        monkeypatch, build_pair(1, [286, 1], [0, -858, 1], [-7 * 143 * 143, -858, 1]), 2)
    assert status == "certified"
    assert evaluations <= 100


class CountedStep(int):
    """A block's step that records each candidate formed as c.numerator +
    r * step, as (n, d), into `formed`."""

    def __rmul__(self, r):
        rstep = r * int(self)
        self.formed.add((self.cn + rstep, self.d))
        return rstep


def count_walked(monkeypatch, curve, p):
    """The singles candidates local_images(curve) walks at p, the points it
    reads among them, and its status.  A candidate is counted when the
    singles reader forms it, past the cut, once per call of the reader: an
    x an earlier block of the call gave is not walked again."""
    walked, formed = collections.Counter(), collections.defaultdict(set)
    block_step, square_points = lp._block_step, lp._square_points

    def step(c, j, p_):
        step, d = block_step(c, j, p_)
        caller = sys._getframe(1)
        if caller.f_code is square_points.__code__:  # not the quadratic tier
            step = CountedStep(step)
            step.formed, step.cn, step.d = formed[caller], c.numerator, d
        return step, d

    def points(*args):
        for item in square_points(*args):
            walked["points"] += item is not None
            yield item

    monkeypatch.setattr(lp, "_block_step", step)
    monkeypatch.setattr(lp, "_square_points", points)
    images = local_images(curve, p)
    return sum(map(len, formed.values())), walked["points"], images[0].status


def test_a_large_prime_walks_at_most_a_few_generic_blocks_whole(monkeypatch):
    # local_images(A1009) at 1009 walked 5136 singles candidates and read
    # 1559 points, most of them in two generic blocks that began before the
    # pool filled; cutting a block when the pool fills, and stopping when
    # both images are full, left 3189 candidates and 599 points, and blocks
    # of 128 sampled units leave 809 candidates and 143 points
    candidates, points, status = count_walked(monkeypatch, large_prime(1009), 1009)
    assert status == "certified"
    assert 0 < candidates <= 850
    assert 0 < points <= 150


# a block walks at most `_RESIDUE_CAP` units whatever the size of p, so the
# search at a six- or seven-digit prime walks no more than at 1009, and
# certifies; when it scanned every unit, A1000003 took 70 s and 510 MB
@pytest.mark.parametrize("P", [100003, 1000003])
def test_the_search_at_a_large_prime_walks_as_little_as_at_1009(monkeypatch, P):
    candidates, points, status = count_walked(monkeypatch, large_prime(P), P)
    assert status == "certified"
    assert 0 < candidates <= 850
    assert 0 < points <= 150


# past sys.maxsize `range(1, p)` has no length, which `random.sample` needs,
# so the sample, seeded by p too, is drawn below sys.maxsize: units mod p
# all the same; up to it, as at the Mersenne prime 2^61 - 1, it is drawn
# from range(1, p)
@pytest.mark.parametrize("p", [10 ** 19 + 51, 2 ** 127 - 1])
def test_the_unit_sample_past_a_c_ssize_t_is_drawn_below_it_seeded_by_p(p):
    with pytest.raises(OverflowError):
        len(range(1, p))
    units = lp._unit_residues(p, 4)
    assert len(set(units)) == lp._RESIDUE_CAP and units == sorted(units)
    assert 0 < units[0] and units[-1] < sys.maxsize < p and units == lp._unit_residues(p, 6)
    assert units == sorted(random.Random(p).sample(range(1, sys.maxsize), lp._RESIDUE_CAP))
    mersenne = 2 ** 61 - 1
    assert lp._unit_residues(mersenne, 4) == sorted(
        random.Random(mersenne).sample(range(1, mersenne), lp._RESIDUE_CAP))


# the full walk of every unit mod p, the search before the cap, finds the
# same images as the capped one, with the same status
@pytest.mark.parametrize("P", [257, 1009, 10007])
def test_the_capped_walk_finds_the_images_of_the_full_walk(monkeypatch, P):
    v = P
    # fresh curves: the unit classes are kept per curve, prime and exponent
    capped = local_images(large_prime(P), v)
    unit_residues = lp._unit_residues
    monkeypatch.setattr(lp, "_unit_residues", lambda p, e: (
        list(range(1, p)) if p > lp._RESIDUE_CAP else unit_residues(p, e)))
    assert len(lp._unit_residues(P, 4)) == P - 1 > len(unit_residues(P, 4))
    full = local_images(large_prime(P), v)
    for a, b in zip(capped, full):
        assert a.status == b.status == "certified"
        assert a.span().basis() == b.span().basis(), (a.side, P)


# the curve keeps each draw of unit residues, with its unit classes, where
# both sides read it: a run of both Selmer groups and the pairing draws
# each (p, exponent) once, where a draw per side drew 11 times for 6 at
# A257 and 14 times for 8 at A1009
@pytest.mark.parametrize("label, distinct", [("A257", 6), ("A1009", 8)])
def test_a_run_draws_each_unit_sample_once(count_calls, label, distinct):
    curve = fresh(WITH_A1009[label])
    calls = count_calls(lp, "_unit_residues", lambda args: args)
    ctp_matrix(selmer_group(curve, "phihat"), curve)
    selmer_group(curve, "phi")
    assert len(calls) == distinct and set(calls.values()) == {1}, calls


def test_the_quadratic_tier_steps_one_b_block_at_a_time(monkeypatch):
    # at 257 one side of A257 reaches its quadratic tier while the other
    # still walks single points; a step of the tier is one (a, b block), so
    # the tier reads about 40 masks before both images are full, where
    # walking it as one step read 3797
    curve = fresh(CURVES["A257"])
    calls = count_quadratic_work(monkeypatch, curve)
    images = local_images(curve, 257)
    assert images[0].status == "certified"
    assert 0 < collections.Counter(kind for kind, *_ in calls.elements())["mask"] <= 100


def test_only_a_heuristic_place_escalates(monkeypatch, without_descent_certificate):
    # neither side enters a later round before both have used up the
    # current one, so a place escalates only when a whole round fails: of
    # the benchmark's places only B31@17 and B97@23, which end heuristic.
    # There the domain's 2-descent images are full in its first round, so
    # its walk ends and only the codomain's escalates, twice; with that
    # certificate stubbed off each side escalates twice
    escalate, point_tiers = SearchConfig.escalate, lp._point_tiers
    calls, rounds = collections.Counter(), collections.Counter()

    def counted(cfg):
        calls[place] += 1
        return escalate(cfg)

    def tiers(curve_, side, *args):
        rounds[place, side] += 1
        return point_tiers(curve_, side, *args)

    monkeypatch.setattr(SearchConfig, "escalate", counted)
    monkeypatch.setattr(lp, "_point_tiers", tiers)
    for escalations in ({PHI: 2}, {PHIHAT: 2, PHI: 2}):
        if PHIHAT in escalations:
            without_descent_certificate()
        calls.clear()
        rounds.clear()
        statuses = {}
        for label, shared in BENCHMARK_CURVES.items():
            curve = fresh(shared)
            for v in places_of(curve.bad_places):
                place = f"{label}@{place_name(v)}"
                statuses[place] = local_images(curve, v)[0].status
        heuristic = {"B31@17", "B97@23"}
        assert dict(calls) == dict.fromkeys(heuristic, sum(escalations.values()))
        assert {place for place, status in statuses.items() if status == "heuristic"} == heuristic
        assert {key: n - 1 for key, n in rounds.items() if n > 1} == {
            (place, side): n for place in heuristic for side, n in escalations.items()}


# ---------------------------------------------------------------------------
# the domain's 2-descent certificate, and the order of the steps
# ---------------------------------------------------------------------------

# the benchmark curves, the R15, R18 and K32 fixtures, and a slice of the
# seeded random corpus
DESCENT_CORPUS = {**BENCHMARK_CURVES,
                  **{label: fixture_curve(label) for label in ("R15", "R18", "K32")},
                  **seeded_corpus(20)}


# the domain's walk ends once the `mu_two` images of two-torsion and of its
# divisors span J(Q_v)/2J(Q_v): its image, their image under
# psi_two_to_phihat, is then whole, so ending there changes no image.  Each
# time the walk asks, the answer is read again here from `mu_two` of the
# Weierstrass pairs {w, inf} and of the divisors fed so far; the corpus
# asks both at a full span and one short of it (A257@2, B31@3)
@pytest.mark.parametrize("label", DESCENT_CORPUS)
def test_the_descent_certificate_changes_no_local_image(monkeypatch, without_descent_certificate,
                                                        label):
    curve, descent_span = DESCENT_CORPUS[label], lp._descent_span

    def checked_span(curve_, v):
        fed, full = descent_span(curve_, v)
        divisors = [MumfordDivisor.weierstrass_pair(i, "inf") for i in curve_.domain_data.slots]

        def checked_full():
            divisors.extend(D for D, _ in fed)
            answer = full()
            span = gf2.Span(lp.mu_two(D, curve_, v).mask for D in divisors)
            assert answer == (span.dim == 2 * local_square_dim(v)), place_name(v)
            return answer
        return fed, checked_full

    monkeypatch.setattr(lp, "_descent_span", checked_span)
    places = places_of(curve.bad_places)
    certified = fresh(curve)
    images = [local_images(certified, v) for v in places]
    without_descent_certificate()
    walked = fresh(curve)
    assert [local_images(walked, v) for v in places] == images


@pytest.mark.parametrize("label, p", [("B31", 17), ("B97", 23)])
def test_the_domain_walk_ends_before_its_quadratic_tier_at_a_heuristic_place(
        monkeypatch, label, p):
    # the domain's 2-descent images are full in its first round there: its
    # walk starts no quadratic tier and no later round, while the codomain's
    # walk escalates twice and walks its quadratic tier.  It ends only once
    # `mu_two` of the Weierstrass pairs {w, inf} and of the divisors it
    # yielded, read here, span dim J(Q_v)/2J(Q_v), and its image is their
    # image under psi_two_to_phihat
    point_tiers, quadratic_candidates = lp._point_tiers, lp._quadratic_candidates
    descent_span = lp._descent_span
    rounds, quadratic, yielded, answers = collections.Counter(), collections.Counter(), [], []

    def tiers(curve_, side, *args):
        rounds[side] += 1
        return point_tiers(curve_, side, *args)

    def quadratic_tier(curve_, side, *args):
        quadratic[side] += 1
        yield from quadratic_candidates(curve_, side, *args)

    def recorded_span(curve_, v):
        fed, full = descent_span(curve_, v)

        def recorded_full():
            yielded.extend(D for D, _ in fed)
            answers.append(full())
            return answers[-1]
        return fed, recorded_full

    monkeypatch.setattr(lp, "_point_tiers", tiers)
    monkeypatch.setattr(lp, "_quadratic_candidates", quadratic_tier)
    monkeypatch.setattr(lp, "_descent_span", recorded_span)
    curve = fresh(CURVES[label])
    images = local_images(curve, p)
    assert [image.status for image in images] == ["heuristic"] * 2
    assert rounds == {PHIHAT: 1, PHI: 3}
    assert quadratic[PHIHAT] == 0 < quadratic[PHI]
    assert answers[-1]
    pairs = [MumfordDivisor.weierstrass_pair(i, "inf") for i in curve.domain_data.slots]
    quintuples = [lp.mu_two(D, curve, p) for D in pairs + yielded]
    assert gf2.Span(q.mask for q in quintuples).dim == 2 * local_square_dim(p)
    assert gf2.same_span([psi_two_to_phihat(q).mask for q in quintuples],
                         images[0].span().basis())


# the checks on the span: each divisor's quintuple image must map to its
# mask under psi_two_to_phihat, and the images may not span more than
# J(Q_v)/2J(Q_v).  At B97@23 a bit flipped in one slot of the quintuple
# image of the Weierstrass pairs, or of the walk's points, breaks the
# first; the same bit flipped in both slots that psi_two_to_phihat
# multiplies (a2 a3), in every divisor's image, breaks the second
POINTS = ("point_plus_infinity", "rational_pair", "quadratic")


@pytest.mark.parametrize("tags, flip, check", [
    (("weierstrass_pair",), 0b1, "maps elsewhere"),
    (POINTS, 0b1, "maps elsewhere"),
    (("identity", "weierstrass_pair", *POINTS), 0b1 << 2 | 0b1 << 4, "past dimension 4"),
], ids=["weierstrass-slot", "point-slot", "psi-kernel"])
def test_a_corrupt_quintuple_image_raises(monkeypatch, tags, flip, check):
    mu_two, flipped = lp.mu_two, []

    def corrupted(D, curve_, v=None):
        q = mu_two(D, curve_, v)
        if D.tag in tags:
            flipped.append(D)
            q = q._replace(mask=q.mask ^ flip)
        return q

    monkeypatch.setattr(lp, "mu_two", corrupted)
    with pytest.raises(ClassBitsMismatch, match=check):
        local_images(fresh(B97), 23)
    assert flipped


def drained(order):
    """An `_alternating` that walks the walks one after the other, in
    `order`, each through all its rounds."""
    def run(walks):
        for i in order:
            for items in walks[i]:
                yield from ((i, item) for item in items if item is not None)
    return run


# each side's basis is the prefix of its own walk that raises its span, so
# walking one side's walk to its end before the other's starts finds the
# images that stepping them in turn finds
@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["domain-first", "codomain-first"])
def test_the_order_of_the_steps_changes_no_image(monkeypatch, order):
    stepped = {label: [local_images(fresh(curve), v) for v in places_of(curve.bad_places)]
               for label, curve in BENCHMARK_CURVES.items()}
    monkeypatch.setattr(lp, "_alternating", drained(order))
    for label, curve in BENCHMARK_CURVES.items():
        other = fresh(curve)
        assert [local_images(other, v) for v in places_of(curve.bad_places)] == stepped[label]


def test_a_walk_runs_its_rounds_on_after_the_other_has_ended():
    # one step of each walk in turn; a round starts once both have ended
    # the last, and once one walk has ended the other runs its rounds alone
    def walk(name, rounds):
        for r in range(rounds):
            yield iter([(name, r, 0), None, (name, r, 1), None])

    assert list(lp._alternating([walk("a", 1), walk("b", 3)])) == [
        (0, ("a", 0, 0)), (1, ("b", 0, 0)), (0, ("a", 0, 1)), (1, ("b", 0, 1)),
        (1, ("b", 1, 0)), (1, ("b", 1, 1)), (1, ("b", 2, 0)), (1, ("b", 2, 1))]


# ---------------------------------------------------------------------------
# the bits-against-witness check
# ---------------------------------------------------------------------------


def test_a_corrupt_class_bit_raises(monkeypatch):
    square_points = lp._square_points
    flipped = []

    def corrupted(*args):
        for item in square_points(*args):
            if item is not None:
                n, d, mask = item
                item = n, d, mask ^ 0b10  # the second bit of the first slot
                flipped.append(Fraction(n, d))
            yield item

    monkeypatch.setattr(lp, "_square_points", corrupted)
    with pytest.raises(ClassBitsMismatch):
        local_images(fresh(CURVES["k113"]), 3)
    assert flipped


def test_a_corrupt_class_bit_in_a_generic_block_representative_raises(monkeypatch):
    # once the pool is full, even in the middle of a generic block, the rest
    # of the block gives only the first residue of each unit class it has not
    # reached; flipping a bit of such a point makes its class look new, so
    # the search keeps it and checks its image
    x_blocks, square_points = lp._x_blocks, lp._square_points
    block, fast, cut = {}, set(), set()

    def recorded_blocks(curve_, side, p, cfg):
        # the block each side's reader walks: it takes the next one only
        # after the last point and the step mark of the one before
        for item in x_blocks(curve_, side, p, cfg):
            block[side] = item
            yield item

    def corrupted(curve_, side, v_, cfg, full=None):
        # a point the reader gives from a generic block while the pool is
        # full is such a representative: the pool is as it was when the
        # reader cut the block
        def asked():
            # the reader asks only to cut: a True skips a residue
            if full():
                cut.add((side, block[side]))
                return True
            return False

        for item in square_points(curve_, side, v_, cfg, asked):
            if item is not None and all(block[side][2]) and full():
                n, d, mask = item
                item = n, d, mask ^ 0b10  # the second bit of the first slot
                fast.add((side, block[side]))
            yield item

    monkeypatch.setattr(lp, "_x_blocks", recorded_blocks)
    monkeypatch.setattr(lp, "_square_points", corrupted)
    with pytest.raises(ClassBitsMismatch):
        local_images(fresh(A1009), 1009)
    # a flipped point comes from a block the reader cut short
    assert fast & cut


def test_a_corrupt_quadratic_class_bit_raises(monkeypatch):
    # B97 walks the quadratic tier at 23, where flipped bits make a
    # candidate look new, so the search keeps it and checks its image; the
    # parity bits of two slots flip, so the slot classes still multiply to
    # the same class and the norm rule lets the candidate through
    quadratic_mask = lp._quadratic_mask
    flipped = []

    def mask(*args):
        flipped.append(args[:3])
        return quadratic_mask(*args) ^ 0b101

    monkeypatch.setattr(lp, "_quadratic_mask", mask)
    with pytest.raises(ClassBitsMismatch):
        local_images(fresh(B97), 23)
    assert flipped


def test_a_corrupt_entry_in_a_quadratic_class_table_raises(monkeypatch):
    # a block whose resultants have dominant terms keeps one mask per
    # unit-class pair in its table, read from the pair's first candidate;
    # a wrong entry there (the parity bits of two slots flipped) makes the
    # pair look new, so the search keeps one of its candidates and checks
    # its image
    p, cfg, curve = 23, SearchConfig(), fresh(B97)
    tabled = set()
    for side in (PHIHAT, PHI):
        data = curve.side_data(side)
        for centre, a_blocks, b_blocks in lp._quadratic_blocks(curve, side, p, cfg):
            terms = data.taylor_valuations(centre, p)
            for (ea, a_xs, _), (eb, b_xs, _) in itertools.product(a_blocks, b_blocks):
                if lp._generic(terms[1:], (ea, eb)):
                    tabled.update((side, *_common_denominator(a, b))
                                  for (a, _), (b, _) in itertools.product(a_xs, b_xs) if b[0])
    quadratic_mask = lp._quadratic_mask
    g_forms = curve.domain_data.forms
    corrupted = []

    def mask(an, bn, q, forms, p_):
        m = quadratic_mask(an, bn, q, forms, p_)
        if (PHIHAT if forms == g_forms else PHI, an, bn, q) in tabled:
            corrupted.append((an, bn, q))
            m ^= 0b101
        return m

    monkeypatch.setattr(lp, "_quadratic_mask", mask)
    with pytest.raises(ClassBitsMismatch):
        local_images(curve, p, cfg)
    assert corrupted


# ---------------------------------------------------------------------------
# each image built once
# ---------------------------------------------------------------------------


def test_a_ctp_matrix_builds_no_divisor_image_twice(monkeypatch):
    built = collections.Counter()

    def recorded(mu):
        def build(D, c, place=None):
            if place is not None:
                built[(D, place_name(place))] += 1
            return mu(D, c, place)
        return build

    monkeypatch.setattr(lp, "mu_phihat", recorded(lp.mu_phihat))
    monkeypatch.setattr(lp, "mu_phi", recorded(lp.mu_phi))
    curve = fresh(B97)
    ctp_matrix(selmer_group(curve, "phihat", SearchConfig()), curve)
    assert built
    assert max(built.values()) == 1
