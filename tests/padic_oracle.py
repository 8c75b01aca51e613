"""The bounded-precision p-adic type the quadratic-divisor certificate once
decided with, kept for the tests as a reference.

`PadicApprox` carries x = p^val * unit mod p^prec and raises
InsufficientPrecision rather than guess when cancellation has eaten its
digits.  `reference_certificate` in `test_int_kernel` runs the norm-trace
criterion on it at 80 digits; the library's certificate is exact on
integers and must agree wherever the reference decides.
"""

from fractions import Fraction
from typing import Optional

from hilbert_oracle import _int_valuation, _unit_residue
from richelot_ctp.localfield import _legendre, _sqrt_mod_p, valuation


class InsufficientPrecision(Exception):
    """A p-adic square test needs more digits than are being carried."""


DEFAULT_PADIC_DIGITS = 24


class PadicApprox:
    """x = p^val * unit known mod p^prec, with exact valuation tracking.

    The tests' reference for the Mumford-divisor certificate: its square
    test demands enough digits (1 for odd p, 3 for p = 2) and raises
    InsufficientPrecision instead of guessing.  `None` valuation marks an exact zero.
    """

    __slots__ = ("p", "val", "unit", "prec")

    def __init__(self, p: int, val: Optional[int], unit: int, prec: int):
        self.p = p
        self.prec = prec
        if val is None:
            self.val = None
            self.unit = 0
            return
        self.val = val
        if prec <= 0:
            self.unit = 0  # no digits carried
            return
        unit %= p ** prec
        if unit % p == 0:
            raise ValueError("unit part must be prime to p")
        self.unit = unit

    @staticmethod
    def from_rational(q, p: int, prec: int = DEFAULT_PADIC_DIGITS) -> "PadicApprox":
        q = Fraction(q)
        if q == 0:
            return PadicApprox(p, None, 0, prec)
        v = valuation(q, p)
        return PadicApprox(p, v, _unit_residue(q, p, p ** prec), prec)

    def is_zero(self) -> bool:
        return self.val is None

    def _modulus(self) -> int:
        return self.p ** self.prec

    def __mul__(self, other: "PadicApprox") -> "PadicApprox":
        if self.is_zero() or other.is_zero():
            return PadicApprox(self.p, None, 0, min(self.prec, other.prec))
        prec = min(self.prec, other.prec)
        return PadicApprox(self.p, self.val + other.val,
                           self.unit * other.unit % self.p ** prec, prec)

    def __add__(self, other: "PadicApprox") -> "PadicApprox":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        p = self.p
        lo, hi = (self, other) if self.val <= other.val else (other, self)
        shift = hi.val - lo.val
        prec = min(lo.prec, hi.prec + shift)
        if prec <= 0:
            raise InsufficientPrecision("additive cancellation exhausted all digits")
        m = p ** prec
        s = (lo.unit + hi.unit * p ** shift) % m
        if s == 0:
            # cancelled below the carried precision: indistinguishable from 0
            raise InsufficientPrecision("sum vanishes to working precision")
        extra = _int_valuation(s, p, prec)
        if extra >= prec:
            raise InsufficientPrecision("sum vanishes to working precision")
        return PadicApprox(p, lo.val + extra, s // p ** extra, prec - extra)

    def __neg__(self) -> "PadicApprox":
        if self.is_zero():
            return self
        return PadicApprox(self.p, self.val, -self.unit % self._modulus(), self.prec)

    def is_square(self) -> bool:
        """Squareness in Q_p; needs 1 spare digit for odd p, 3 for p = 2."""
        if self.is_zero():
            return True
        need = 3 if self.p == 2 else 1
        if self.prec < need:
            raise InsufficientPrecision(f"need {need} unit digits, have {self.prec}")
        if self.val % 2:
            return False
        if self.p == 2:
            return self.unit % 8 == 1
        return _legendre(self.unit % self.p, self.p) == 1

    def sqrt(self) -> "PadicApprox":
        """A square root, by Tonelli-Shanks mod p plus Hensel lifting."""
        if self.is_zero():
            return self
        if not self.is_square():
            raise ValueError("not a square in Q_p")
        p, u = self.p, self.unit
        if p == 2:
            prec = self.prec
            if prec < 3:
                raise InsufficientPrecision("need 3 digits for a 2-adic sqrt")
            r = 1
            for k in range(3, prec):
                if (r * r - u) % (1 << (k + 1)):
                    r += 1 << (k - 1)
            return PadicApprox(2, self.val // 2, r, max(prec - 1, 1))
        r = _sqrt_mod_p(u % p, p)
        k = 1
        while k < self.prec:
            k = min(2 * k, self.prec)
            m = p ** k
            r = (r - (r * r - u) * pow(2 * r, -1, m)) % m
        return PadicApprox(p, self.val // 2, r, self.prec)
