"""Every text that names the real place names it `oo`: the local tuples'
`str`, and the messages of the errors that reach a report's "error" field
or a caller."""

import pytest

from richelot_ctp import selmer as selmer_mod
from richelot_ctp.cohomology import (
    KummerTriple,
    LocalKummerQuintuple,
    LocalKummerTriple,
    NormConditionError,
    NotInImageError,
    cup_invariant,
)
from richelot_ctp.ctp import local_row
from richelot_ctp.curve import build_pair
from richelot_ctp.localpoints import (
    ClassBitsMismatch,
    SearchConfig,
    SearchExhausted,
    _checked_image,
    find_local_point,
    local_images,
)
from richelot_ctp.selmer import KernelCheckError, selmer_group

OO = 0  # the real place
# (-1, -1, 1) is outside both local images of the reference curve at oo,
# which are spanned by (1, -1, -1)
OUTSIDE = KummerTriple.of(-1, -1, 1)
STARVED = SearchConfig(residue_exponent=1, val_bound=0, escalations=0)


def test_local_tuples_print_oo():
    assert str(LocalKummerTriple.of([-1, -1, 1], OO)) == "(-1, -1, 1)@oo"
    assert str(LocalKummerQuintuple.of([1, -1, -1, 1, 1], OO)) == "(1, -1, -1, 1, 1)@oo"


def test_norm_condition_error_names_q_oo():
    with pytest.raises(NormConditionError, match=r"is not a square in Q_oo$"):
        LocalKummerTriple.of([-1, 1, 1], OO)


def test_not_in_image_error_names_oo(curve113):
    with pytest.raises(NotInImageError,
                       match=r"^\(-1, -1, 1\) is outside the dual-kernel local image at oo$"):
        local_row(OUTSIDE, curve113, OO)


def test_search_exhausted_names_oo(curve113):
    with pytest.raises(SearchExhausted,
                       match=r"^no divisor found with image \(-1, -1, 1\)@oo at oo$"):
        find_local_point(OUTSIDE, curve113, OO, STARVED)


def test_class_bits_mismatch_names_oo(curve113):
    image = local_images(curve113, OO)[0]
    D, mask = image.witnesses[0], image.basis[0].mask
    with pytest.raises(ClassBitsMismatch,
                       match=r"^class bits give mask 0x7 for \{0,1\} at oo, "
                             r"its image \(1, -1, -1\)@oo has 0x6$"):
        _checked_image(D, mask ^ 1, curve113, OO)


def test_place_mismatch_errors_name_oo(curve113):
    at_oo = LocalKummerTriple.of([1, -1, -1], OO)
    at_2 = LocalKummerTriple.of([1, -1, -1], 2)
    with pytest.raises(ValueError, match=r"^\(1, -1, -1\)@2 lives at a different place than oo$"):
        cup_invariant(at_oo, at_2)
    with pytest.raises(ValueError, match=r"^target \(1, -1, -1\)@2 does not live at oo$"):
        find_local_point(at_2, curve113, OO)


def test_kernel_check_error_names_oo(monkeypatch):
    # on y^2 = x (x^2 - 1) (x^2 - 5x + 6), a matrix that drops the conditions
    # at oo has too large a kernel
    real = selmer_mod._local_columns

    def without_oo(gen_masks, d, image):
        return [0] * (2 * len(gen_masks)) if d == 1 else real(gen_masks, d, image)

    monkeypatch.setattr(selmer_mod, "_local_columns", without_oo)
    curve = build_pair(1, [0, 1], [-1, 0, 1], [6, -5, 1])
    with pytest.raises(KernelCheckError,
                       match=r"^kernel vector \(1, -1, -1\) is not in the local image at oo$"):
        selmer_group(curve, "phihat")
