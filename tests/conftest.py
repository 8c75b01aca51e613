import collections
import sys

import pytest

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
