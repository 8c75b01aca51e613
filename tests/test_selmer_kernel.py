"""The Selmer groups as F2 kernels, against the brute-force enumeration.

`enumerate_selmer` is the original membership search over all 4^(|S|+1)
pairs (a1, a2) in Q(S,2)^2, with the original basis rule: after the torsion
images, each member in enumeration order that raises the span.  It shares
nothing with the kernel computation but the local images (which the curve
keeps) and the torsion images, so it is an independent oracle for the linear
algebra, for the echelon basis rule and for the members that
`SelmerGroup.elements` builds from the basis.
"""

import pytest

import richelot_ctp.selmer as selmer_mod
from richelot_ctp import gf2
from curve_fixtures import BENCHMARK_CURVES, class_bits, class_mask, encode_triple, fixture_curve
from richelot_ctp.arith import bad_places, class_product, enumerate_Q_S2
from richelot_ctp.cohomology import KummerTriple
from richelot_ctp.ctp import (
    InconsistentDimensions,
    PairingMatrix,
    greenberg_wiles_terms,
    rank_report,
)
from richelot_ctp.curve import PHI, PHIHAT, UnsupportedModelError, build_pair
from richelot_ctp.localfield import local_square_class, place_name, places_of
from richelot_ctp.localpoints import SearchConfig, local_images
from richelot_ctp.selmer import (
    KernelCheckError,
    SelmerGroup,
    selmer_group,
    torsion_images,
)


def enumerate_selmer(curve, side, cfg=SearchConfig()):
    """Selmer group of `side` by testing every candidate pair in Q(S,2)^2,
    and the list of its members in the order of that enumeration."""
    curve.require_five_roots()
    S = bad_places(curve)
    primes = S.finite_primes
    places = places_of(S)
    imgs = {}
    dims = []
    status = "certified"
    for v in places:
        img = local_images(curve, v, cfg)[0 if side == "phihat" else 1]
        if img.status != "certified":
            status = "heuristic"
        imgs[v] = img.span()
        dims.append((v, img.dim))

    group = enumerate_Q_S2(S)
    index = {c: i for i, c in enumerate(group)}
    local_masks = {}
    for v in places:
        classes = [class_bits(local_square_class(c, v), v) for c in group]
        local_masks[v] = ([class_mask([bits]) for bits in classes], len(classes[0]))

    members = []
    for i1, a1 in enumerate(group):
        for i2, a2 in enumerate(group):
            a3 = class_product(a1, a2)
            i3 = index[a3]
            ok = True
            for v in places:
                masks, d = local_masks[v]
                m = masks[i1] | masks[i2] << d | masks[i3] << (2 * d)
                if m not in imgs[v]:
                    ok = False
                    break
            if ok:
                members.append(KummerTriple((a1, a2, a3)))

    span = gf2.Span()
    basis = []
    known = []
    for t in torsion_images(curve, side):
        if span.add(encode_triple(t, primes)):
            basis.append(t)
            known.append(t)
    for t in members:
        if span.add(encode_triple(t, primes)):
            basis.append(t)
    assert len(members) == 1 << len(basis), "membership set is not a subgroup"
    return SelmerGroup(side, tuple(basis), tuple(known), S, status, tuple(dims)), tuple(members)


def k_family(k):
    return build_pair(1, [2 * k, 1], [0, -6 * k, 1], [-7 * k * k, -6 * k, 1])


# the k-family members of the benchmark with 4 to 6 finite bad primes, the
# six curves of test_more_curves.py, the large-prime and exhausting curves of
# the benchmark, and the R15 and R18 fixtures
ORACLE_CURVES = {
    **{name: lambda name=name: BENCHMARK_CURVES[name] for name in ("A257", "A1009", "B31", "B97")},
    **{label: lambda label=label: fixture_curve(label) for label in ("R15", "R18")},
    "k113": lambda: k_family(113),
    "k143": lambda: k_family(143),
    "k2431": lambda: k_family(2431),
    "k17": lambda: k_family(17),
    "six-root": lambda: build_pair(2, [-1, 1], [30, -21, 3], [-11, -10, 1]),
    "irrational": lambda: build_pair(1, [0, 1], [-1, 0, 1], [6, -5, 1]),
    "fractional": lambda: build_pair(4, ["-1/2", 1], [-1, 0, 1], [-12, 1, 1]),
    "negative-lc": lambda: build_pair(-1, [0, 1], [-1, 0, 1], [-9, 0, 1]),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CURVES))
def test_kernel_matches_enumeration(name):
    curve = ORACLE_CURVES[name]()
    for side in ("phihat", "phi"):
        got = selmer_group(curve, side)
        want, members = enumerate_selmer(curve, side)
        assert got.basis == want.basis
        assert got.known_point_basis == want.known_point_basis
        assert got.elements == members
        assert got.status == want.status
        assert got.local_image_dims == want.local_image_dims


def test_six_root_domain_rejected_by_both():
    curve = build_pair(1, [-9, 0, 1], [-1, 0, 1], [-20, 1, 1])
    for fn in (selmer_group, enumerate_selmer):
        with pytest.raises(UnsupportedModelError):
            fn(curve, "phihat")


@pytest.mark.parametrize("call", [
    lambda curve: curve.side_data("domain"),
    lambda curve: torsion_images(curve, "PHIHAT"),
    lambda curve: selmer_group(curve, "Phi"),
], ids=["side_data", "torsion_images", "selmer_group"])
def test_an_unknown_side_raises(curve113, call):
    # every name but "domain" used to pick the codomain's data
    assert curve113.side_data(PHIHAT) is curve113.domain_data
    assert curve113.side_data(PHI) is curve113.codomain_data
    with pytest.raises(ValueError, match="side must be 'phihat' or 'phi'"):
        call(curve113)


def test_heuristic_images_match_enumeration(curve113):
    # starved search: some images come back heuristic and too small
    cfg = SearchConfig(residue_exponent=1, val_bound=0, escalations=0)
    for side in ("phihat", "phi"):
        got = selmer_group(curve113, side, cfg)
        want, members = enumerate_selmer(curve113, side, cfg)
        assert got.status == want.status == "heuristic"
        assert got.elements == members
        assert got.basis == want.basis


def test_local_image_dims_recorded(curve113):
    sel = selmer_group(curve113, "phihat")
    assert [place_name(v) for v, _ in sel.local_image_dims] == ["oo", "2", "3", "7", "113"]
    # k = 113: 5 - 3 = -1 + 2 + 1 + 0 + 0
    assert greenberg_wiles_terms(sel) == (-1, 2, 1, 0, 0)


def test_twelve_prime_member_scales():
    # k = 11*13*17*19*23*29*31*37*41: 12 finite bad primes, where the
    # enumeration would test 4^13 candidates per side
    k = 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41
    assert k == 1448810778701
    curve = k_family(k)
    assert len(bad_places(curve).finite_primes) == 12
    sh = selmer_group(curve, "phihat")
    sp = selmer_group(curve, "phi")
    assert sh.status == sp.status == "certified"
    assert (sh.dim, sp.dim) == (4, 2)
    assert sh.dim - sp.dim == sum(greenberg_wiles_terms(sh))
    for side, grp in (("phihat", sh), ("phi", sp)):
        for t in torsion_images(curve, side):
            assert grp.contains(t)


def _drop_image_vector(monkeypatch, place, index):
    """Make the phihat image at `place` lose its basis vector `index`."""
    def shrunk(curve, v, cfg=SearchConfig()):
        img_hat, img_phi = local_images(curve, v, cfg)
        if v == place:
            keep = [i for i in range(img_hat.dim) if i != index]
            img_hat = img_hat._replace(basis=tuple(img_hat.basis[i] for i in keep),
                                       witnesses=tuple(img_hat.witnesses[i] for i in keep))
        return img_hat, img_phi
    monkeypatch.setattr(selmer_mod, "local_images", shrunk)


def test_greenberg_wiles_catches_a_lost_image_vector(curve113, monkeypatch):
    sp = selmer_group(curve113, "phi")
    empty = PairingMatrix((), (), {}, (), True)
    rank_report(sp, selmer_group(curve113, "phihat"), empty)
    # at 3 the phihat image loses a vector that no global class needed: the
    # kernel stays the same, so only the cross-check can notice
    _drop_image_vector(monkeypatch, 3, 2)
    sh = selmer_group(curve113, "phihat")
    assert sh.status == "certified" and sh.dim == 5
    with pytest.raises(InconsistentDimensions, match="Greenberg-Wiles"):
        rank_report(sp, sh, empty)
    # a heuristic side skips the check
    rank_report(sp, sh._replace(status="heuristic"), empty)


def test_lost_torsion_image_vector_fails_kernel_check(curve113, monkeypatch):
    _drop_image_vector(monkeypatch, 0, 0)
    with pytest.raises(KernelCheckError, match="two-torsion"):
        selmer_group(curve113, "phihat")


def test_wrong_linearisation_fails_kernel_check(curve113, monkeypatch):
    # a matrix that drops the conditions at 2 has too large a kernel
    real = selmer_mod._local_columns

    def without_two(gen_masks, d, image):
        return [0] * (2 * len(gen_masks)) if d == 3 else real(gen_masks, d, image)

    monkeypatch.setattr(selmer_mod, "_local_columns", without_two)
    with pytest.raises(KernelCheckError, match="local image at 2"):
        selmer_group(curve113, "phihat")
