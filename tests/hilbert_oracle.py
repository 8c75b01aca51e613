"""An independent brute-force Hilbert-symbol oracle for the tests.

It decides the solvability of z^2 = a x^2 + b y^2 over Q_v by search, with
no use of the closed form in `richelot_ctp.localfield`, which the tests
check against it.
"""

from fractions import Fraction

from richelot_ctp.localfield import valuation


class OracleInconclusive(Exception):
    """The lifting criteria cannot decide at this depth; raise the depth."""


def _unit_residue(q: Fraction, p: int, modulus: int) -> int:
    """The p-unit part of q reduced mod `modulus` (a power of p)."""
    n, d = q.numerator, q.denominator
    while n % p == 0:
        n //= p
    while d % p == 0:
        d //= p
    return n * pow(d, -1, modulus) % modulus


def _int_valuation(n: int, p: int, cap: int) -> int:
    """v_p(n), or `cap` if that is smaller (n = 0 gives `cap`)."""
    v = 0
    while v < cap and n % p == 0:
        n //= p
        v += 1
    return v


_EXHAUSTIVE_CAP = 512  # run the residue exhaustion only while p^depth stays this small


def hilbert_oracle(a, b, p: int, depth: int = 6) -> int:
    """Decide solvability of z^2 = a x^2 + b y^2 over Q_p by search (p = 0
    being the real place).

    Independent of the closed form.  At the real place this is a sign
    exhaustion.  At finite places with p^depth <= 512 it enumerates residue
    triples mod p^depth, certifying solutions with the Hensel criterion
    2 v(grad) < depth and insolvability by exhaustion over primitive triples.
    For larger p it combines quadratic-residue sets built by brute squaring
    with an elementary valuation-parity descent.

    Raises OracleInconclusive when zeros exist mod p^depth but none certify.
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("oracle needs nonzero arguments")
    if not p:
        return -1 if (a < 0 and b < 0) else 1
    # scale by squares so valuations are 0 or 1 (conic solutions transform by
    # rescaling one coordinate, so the answer is unchanged)
    alpha, beta = valuation(a, p) % 2, valuation(b, p) % 2
    if p ** depth <= _EXHAUSTIVE_CAP:
        return _oracle_exhaustive(a, b, p, depth, alpha, beta)
    return _oracle_large_p(a, b, p, alpha, beta)


def _oracle_exhaustive(a: Fraction, b: Fraction, p: int, depth: int, alpha: int, beta: int) -> int:
    M = p ** depth
    am = p ** alpha * _unit_residue(a, p, M) % M
    bm = p ** beta * _unit_residue(b, p, M) % M
    # square roots mod M, listed per residue
    roots: dict[int, list[int]] = {}
    for z in range(M):
        roots.setdefault(z * z % M, []).append(z)
    inconclusive = False
    for x in range(M):
        ax2 = am * x * x % M
        for y in range(M):
            t = (ax2 + bm * y * y) % M
            if t not in roots:
                continue
            for z in roots[t]:
                if x % p == 0 and y % p == 0 and z % p == 0:
                    continue  # not primitive
                # Hensel: some partial derivative 2*c*var with small valuation
                ok = False
                for c, var in ((am, x), (bm, y), (1, z)):
                    if var == 0:
                        continue
                    vv = _int_valuation(2 * c * var, p, depth)
                    if 2 * vv < depth:
                        ok = True
                        break
                if ok:
                    return 1
                inconclusive = True
    if inconclusive:
        raise OracleInconclusive(f"zeros mod {p}^{depth} exist but none certify")
    return -1


def _oracle_large_p(a: Fraction, b: Fraction, p: int, alpha: int, beta: int) -> int:
    u = _unit_residue(a, p, p)
    w = _unit_residue(b, p, p)
    qr = {x * x % p for x in range(1, p)}
    if alpha == 0 and beta == 0:
        # search a solution mod p; any zero with a unit coordinate lifts
        w_inv = pow(w, -1, p)
        for x in range(p):
            ux2 = u * x * x % p
            for z in range(p):
                if x == 0 and z == 0:
                    continue
                t = (z * z - ux2) * w_inv % p
                if t == 0 or t in qr:
                    return 1
        return -1
    if alpha == 0:
        # z^2 - u x^2 = (p w') y^2: LHS has even valuation unless u is a
        # residue, while the RHS valuation is odd for y != 0
        return 1 if u % p in qr else -1
    if beta == 0:
        return 1 if w % p in qr else -1
    # both valuations odd: divide by p, need u x^2 + w y^2 = p z^2, i.e. a
    # nontrivial zero of u x^2 + w y^2 mod p: exists iff -u/w is a residue
    t = (p - u) * pow(w, -1, p) % p
    return 1 if t in qr else -1
