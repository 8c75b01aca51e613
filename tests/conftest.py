import collections
import random
import sys

import pytest

from richelot_ctp import localpoints
from richelot_ctp.curve import build_pair


@pytest.fixture(scope="session")
def curve113():
    """The reference curve: y^2 = (x+226) x (x-678) (x+113) (x-791)."""
    return build_pair(1,
                      [226, 1],
                      [0, -678, 1],
                      [-7 * 113 ** 2, -678, 1])


@pytest.fixture(scope="session")
def toy_curve():
    """y^2 = x (x^2-1) (x^2-4); Delta = -3, codomain quadratics irrational."""
    return build_pair(1, [0, 1], [-1, 0, 1], [-4, 0, 1])


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name, key) counts the calls of module.name by
    key(args) into the Counter it returns, under every name a richelot_ctp
    module binds the function to."""
    def count(module, name, key):
        calls, orig = collections.Counter(), getattr(module, name)

        def counted(*args):
            calls[key(args)] += 1
            return orig(*args)

        for mod in [m for n, m in sys.modules.items() if n.startswith("richelot_ctp")]:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
        return calls
    return count


@pytest.fixture
def without_descent_certificate(monkeypatch):
    """without_descent_certificate() stubs off the domain's 2-descent
    certificate (`localpoints._descent_span`): the domain's walk then ends
    only where the two images fill dim H^1 or its rounds run out."""
    def stub():
        monkeypatch.setattr(localpoints, "_descent_span", lambda curve, v: ([], lambda: False))
    return stub


@pytest.fixture
def shuffled_walk(monkeypatch):
    """shuffled_walk(seed) makes the local search walk its candidates in
    another order: from then on `localpoints._torsion_divisors`,
    `_x_blocks` and `_unit_table` return what they returned before, in an
    order drawn by `random.Random` from the seed and the call's arguments
    (the curve's left out) as a string, so no hash enters and a repeated
    call gives the same order.  This permutes the torsion tier, the singles
    blocks and each block's residues, the quadratic tier's units, and so
    the pool the pairs tier draws on.  The search reads the three through
    its module, as an oracle must too to walk the same order.  Use a fresh
    curve: a curve keeps its torsion divisors and local images.  A later
    call replaces the seed."""
    originals = {name: getattr(localpoints, name)
                 for name in ("_torsion_divisors", "_x_blocks", "_unit_table")}

    def permuted(seed, name):
        def call(curve, *args):
            rng = random.Random(f"{seed} {name} {args}")
            out = originals[name](curve, *args)
            if name == "_unit_table":  # units and their classes, permuted alike
                units = list(zip(*out))
                rng.shuffle(units)
                return tuple(map(list, zip(*units)))
            out = list(out)
            rng.shuffle(out)
            return out
        return call

    def shuffle(seed):
        for name in originals:
            monkeypatch.setattr(localpoints, name, permuted(seed, name))
    return shuffle
