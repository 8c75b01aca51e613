"""Curves the tests share: the benchmark corpus, and curve files under
fixtures/ in the format `ctp` reads."""

import json
from fractions import Fraction
from pathlib import Path

from richelot_ctp.curve import build_pair

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def k_family(k):
    return build_pair(1, [2 * k, 1], [0, -6 * k, 1], [-7 * k * k, -6 * k, 1])


# the fourteen curves of the benchmark's four workloads
BENCHMARK_CURVES = {
    "k113": k_family(113),
    "fractional": build_pair(4, [Fraction(-1, 2), 1], [-1, 0, 1], [-12, 1, 1]),
    "irrational": build_pair(1, [0, 1], [-1, 0, 1], [6, -5, 1]),
    "A257": build_pair(1, [0, 1], [-1, 0, 1], [-257 * 257, 0, 1]),
    "B31": build_pair(1, [0, 1], [2, -3, 1], [5 * 31, -(5 + 31), 1]),
    "B97": build_pair(1, [0, 1], [2, -3, 1], [5 * 97, -(5 + 97), 1]),
    **{f"k{k}": k_family(k) for k in (17, 143, 2431, 46189, 1062347)},
    "six-root": build_pair(2, [-1, 1], [30, -21, 3], [-11, -10, 1]),
    "negative-lc": build_pair(-1, [0, 1], [-1, 0, 1], [-9, 0, 1]),
    "A1009": build_pair(1, [0, 1], [-1, 0, 1], [-1009 * 1009, 0, 1]),
}


def fixture_path(label: str) -> Path:
    return FIXTURES / f"{label}.json"


def fixture_curve(label: str):
    """The curve of fixtures/<label>.json."""
    data = json.loads(fixture_path(label).read_text())
    return build_pair(Fraction(data["lambda"]),
                      *([Fraction(c) for c in data[g]] for g in ("G1", "G2", "G3")))
