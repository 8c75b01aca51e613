"""Outside-in tracing of the richelot_ctp layers.

`Tracer.install` wraps the public functions listed in `LAYERS` and rebinds
every name under which a richelot_ctp module imported them (localpoints holds
its own `poly_eval`, cli its own `ctp_local`, and so on), plus the method
`SearchConfig.escalate`.  Each call records a span (name, start, end, parent,
curve) in flat arrays; `Tracer.summary` derives self times and counts from
them, and `Tracer.write` dumps them as tab-separated text.  No file of the
library changes.
"""

from __future__ import annotations

import random
import statistics
import sys
from array import array
from collections import Counter
from pathlib import Path

# layer -> public functions traced in that layer's module
LAYERS = {
    "arith": ("bad_places", "enumerate_Q_S2"),
    "curve": ("poly_eval",),
    "localfield": ("local_square_class", "is_local_square", "hilbert_symbol"),
    "cohomology": ("cup_invariant", "lift_phihat_to_two", "descend_to_phi",
                   "quintuple_quotient", "psi_two_to_phihat", "psi_phi_to_two"),
    "localpoints": ("local_images", "find_local_point", "divisor_image",
                    "mu_phihat", "mu_two"),
    "selmer": ("selmer_group", "torsion_images"),
    "ctp": ("ctp_local", "ctp_global", "ctp_matrix", "rank_report"),
    "gf2": ("echelon", "nullspace", "same_span"),
}

# functions whose arguments are sampled for the micro-timings: span -> metric
SAMPLES = 1000  # calls kept per function
REPLAYS = 5  # timed replays of the samples; the median is reported
MICRO = {
    "curve.poly_eval": "curve.poly_eval_us",
    "localfield.local_square_class": "localfield.square_class_us",
    "localfield.hilbert_symbol": "localfield.hilbert_us",
}

SEARCHES = ("localpoints.local_images", "localpoints.find_local_point")
# the call that tries one candidate divisor, directly under each search
CANDIDATES = ("localpoints.divisor_image", "localpoints.mu_phihat")
ROOT_SPAN = "cli.main"


class Reservoir:
    """A uniform sample of at most `size` calls, as (args, kwargs, result)."""

    def __init__(self, size: int, rng: random.Random):
        self.size = size
        self.seen = 0
        self.items: list = []
        self._rng = rng

    def offer(self, item) -> None:
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
        elif self._rng.random() * self.seen < self.size:
            self.items[self._rng.randrange(self.size)] = item


class Tracer:
    """Spans of the traced calls, in flat arrays indexed by span number."""

    def __init__(self, clock, seed: int):
        self._clock = clock  # () -> seconds, as a float
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.curve = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.images: dict = {}  # local_images span -> (basis vectors, certified)
        self.current_curve = -1
        self._stack = [-1]
        self._rebound: list = []
        rng = random.Random(seed)
        self.samples = {name: Reservoir(SAMPLES, rng) for name in MICRO}
        self.originals: dict = {}

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.curve.append(self.current_curve)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(self._clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self._clock()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn as one span named `name` (used for the benchmark's root span)."""
        idx = self._open(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        after = _AFTER.get(name)
        sampler = self.samples.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, idx, result)
            if sampler is not None:
                sampler.offer((args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function in every richelot_ctp module."""
        import richelot_ctp.cli  # noqa: F401  (loads every module of the package)
        from richelot_ctp.localpoints import SearchConfig

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "richelot_ctp" or n.startswith("richelot_ctp.")]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"richelot_ctp.{layer}"]
            for fname in functions:
                orig = getattr(home, fname)
                name = f"{layer}.{fname}"
                self.originals[name] = orig
                wrapper = self.wrap(name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._rebound.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        orig = SearchConfig.__dict__["escalate"]
        self._rebound.append((SearchConfig, "escalate", orig))
        SearchConfig.escalate = self.wrap("localpoints.SearchConfig.escalate", orig)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._rebound):
            setattr(owner, attr, orig)
        self._rebound.clear()

    def clear(self) -> None:
        for a in (self.name, self.parent, self.curve, self.start, self.end):
            del a[:]
        self.counters.clear()
        self.images.clear()

    def write(self, path: Path, pass_no: int) -> None:
        """Append the spans as tab-separated lines: pass, span, name, start,
        end, parent span, curve."""
        with open(path, "a") as out:
            for i in range(len(self.start)):
                out.write(f"{pass_no}\t{i}\t{self.names[self.name[i]]}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\t"
                          f"{self.curve[i]}\n")

    def summary(self) -> dict:
        """Per-layer metrics of the spans recorded since the last `clear`."""
        n = len(self.start)
        names = [self.names[k] for k in self.name]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child_time = [0] * n
        candidates = [0] * n  # candidate divisors tried directly by a search span
        search = [-1] * n  # nearest local_images / find_local_point span
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += dur[i]
                if names[i] in CANDIDATES:
                    candidates[p] += 1
            if names[i] in SEARCHES:
                search[i] = i
            elif p >= 0:
                search[i] = search[p]
        self_s = [dur[i] - child_time[i] for i in range(n)]

        calls: Counter = Counter(names)
        self_by_name: Counter = Counter()
        self_by_layer: Counter = Counter()
        images_s = point_s = 0.0
        image_candidates = point_candidates = 0
        images_computed = point_searches = image_basis = heuristic = 0
        max_place = gram = 0.0
        for i in range(n):
            name = names[i]
            self_by_name[name] += self_s[i]
            layer = name.split(".", 1)[0]
            self_by_layer[layer] += self_s[i]
            s = search[i]
            if s >= 0 and layer == "localpoints":
                if names[s] == SEARCHES[0]:
                    images_s += self_s[i]
                else:
                    point_s += self_s[i]
            if name == SEARCHES[0] and candidates[i]:
                images_computed += 1
                image_candidates += candidates[i]
                max_place = max(max_place, dur[i])
                if i in self.images:  # absent when the call raised
                    basis_found, certified = self.images[i]
                    image_basis += basis_found
                    heuristic += not certified
            elif name == SEARCHES[1] and candidates[i]:
                point_searches += 1
                point_candidates += candidates[i]
            elif name == "ctp.ctp_local":
                gram += dur[i]

        c = self.counters
        return {
            "arith.bad_places_s": self_by_name["arith.bad_places"],
            "arith.qs2_size": c["qs2_size"],
            "curve.poly_eval_calls": calls["curve.poly_eval"],
            "curve.poly_eval_s": self_by_name["curve.poly_eval"],
            "localfield.square_class_calls": calls["localfield.local_square_class"],
            "localfield.square_class_s": self_by_name["localfield.local_square_class"],
            "localfield.is_square_calls": calls["localfield.is_local_square"],
            "localfield.hilbert_calls": calls["localfield.hilbert_symbol"],
            "cohomology.cup_calls": calls["cohomology.cup_invariant"],
            "cohomology.s": self_by_layer["cohomology"],
            "localpoints.images_s": images_s,
            "localpoints.images_computed": images_computed,
            "localpoints.image_cache_hits": calls["localpoints.local_images"] - images_computed,
            "localpoints.image_candidates": image_candidates,
            "localpoints.image_yield": image_basis / max(image_candidates, 1),
            "localpoints.max_place_s": max_place,
            "localpoints.point_searches": point_searches,
            "localpoints.point_cache_hits":
                calls["localpoints.find_local_point"] - point_searches,
            "localpoints.point_candidates": point_candidates,
            "localpoints.point_s": point_s,
            "localpoints.escalations": calls["localpoints.SearchConfig.escalate"],
            "localpoints.heuristic_places": heuristic,
            "selmer.self_s": self_by_layer["selmer"],
            "selmer.candidates": c["selmer_candidates"],
            "selmer.members": c["selmer_members"],
            "selmer.member_ratio": c["selmer_members"] / max(c["selmer_candidates"], 1),
            "ctp.gram_s": gram,
            "ctp.local_calls": calls["ctp.ctp_local"],
            "gf2.s": self_by_layer["gf2"],
            "cli.self_s": self_by_name[ROOT_SPAN],
        }

    def replay(self, timer) -> tuple[dict, int]:
        """Time the sampled arithmetic calls again, untraced.

        `timer(fn)` runs fn and returns its seconds.  Returns microseconds per
        call (median over REPLAYS) for each MICRO metric, and the number of
        replayed calls whose result differs from the traced one.
        """
        out = {}
        mismatches = 0
        for name, metric in MICRO.items():
            fn = self.originals[name]
            items = self.samples[name].items
            if not items:
                out[metric] = 0.0
                continue
            for args, kwargs, result in items:
                if fn(*args, **kwargs) != result:
                    mismatches += 1

            def replay_all():
                for args, kwargs, _ in items:
                    fn(*args, **kwargs)

            times = [timer(replay_all) for _ in range(REPLAYS)]
            out[metric] = statistics.median(times) / len(items) * 1e6
        return out, mismatches


def _after_local_images(tracer: Tracer, idx: int, images) -> None:
    tracer.images[idx] = (sum(img.dim for img in images), images[0].status == "certified")


def _after_qs2(tracer: Tracer, idx: int, group) -> None:
    tracer.counters["qs2_size"] += len(group)


def _after_selmer(tracer: Tracer, idx: int, sel) -> None:
    tracer.counters["selmer_candidates"] += 4 ** (len(sel.places.finite_primes) + 1)
    tracer.counters["selmer_members"] += len(sel.elements)


_AFTER = {
    "localpoints.local_images": _after_local_images,
    "arith.enumerate_Q_S2": _after_qs2,
    "selmer.selmer_group": _after_selmer,
}
