"""Seeded curve corpus for the benchmark.

Each workload is a fixed list of curves; the seed fixes the order in which a
pass visits them (seed 0 keeps the listed order).  The library only ever sees
the curve JSON files written by `write_workload`.
"""

from __future__ import annotations

import json
import random
from pathlib import Path


def _curve(label, lam, g1, g2, g3) -> dict:
    return {"label": label, "lambda": str(lam),
            "G1": [str(c) for c in g1], "G2": [str(c) for c in g2],
            "G3": [str(c) for c in g3]}


def k_family(k: int) -> dict:
    """y^2 = (x+2k) x (x-6k) (x+k) (x-7k); the reference curve is k = 113."""
    return _curve(f"k{k}", 1, [2 * k, 1], [0, -6 * k, 1], [-7 * k * k, -6 * k, 1])


def large_prime(P: int) -> dict:
    """y^2 = x (x^2-1) (x^2-P^2): one bad place with a large prime P."""
    return _curve(f"A{P}", 1, [0, 1], [-1, 0, 1], [-P * P, 0, 1])


def exhausting(P: int) -> dict:
    """y^2 = x (x-1) (x-2) (x-5) (x-P): the local search runs out at 17 and 23."""
    return _curve(f"B{P}", 1, [0, 1], [2, -3, 1], [5 * P, -(5 + P), 1])


WORKLOADS = {
    # the reference curve, a sibling, and the four models of the test suite
    # that the reference curve never exercises
    "curves": [
        k_family(113),
        k_family(17),
        _curve("six-root", 2, [-1, 1], [30, -21, 3], [-11, -10, 1]),
        _curve("irrational", 1, [0, 1], [-1, 0, 1], [6, -5, 1]),
        _curve("fractional", 4, ["-1/2", 1], [-1, 0, 1], [-12, 1, 1]),
        _curve("negative-lc", -1, [0, 1], [-1, 0, 1], [-9, 0, 1]),
    ],
    # |S| grows from 4 to 8 finite primes, all of them small
    "kfamily": [k_family(k) for k in (113, 143, 2431, 46189, 1062347)],
    "large_p": [large_prime(P) for P in (257, 1009)],
    "exhausting": [exhausting(P) for P in (31, 97)],
}


def curves_for(workload: str, seed: int) -> list[dict]:
    """The workload's curves in the order the seed gives."""
    curves = list(WORKLOADS[workload])
    if seed:
        random.Random(seed).shuffle(curves)
    return curves


def write_workload(workload: str, seed: int, directory: Path) -> list[Path]:
    """Write one JSON file per curve into `directory`; return the paths in pass order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, curve in enumerate(curves_for(workload, seed)):
        path = directory / f"{i:02d}-{curve['label']}.json"
        path.write_text(json.dumps(curve, sort_keys=True) + "\n")
        paths.append(path)
    return paths
