"""Curve-corpus benchmark for `richelot-ctp ctp --json`.

Run from the repository root:

    python3 perfbench/run.py --workload curves --seed 0 --seconds 15 --trace 0

Writes the workload's curve files under .perfbench_work/, runs
`richelot_ctp.cli.main(["ctp", <file>, "--json"])` on each curve in this
process (one curve at a time, a fresh LocalDataCache per curve, as the CLI
makes one), checks every answer against reference.json, and prints one metric
per line followed by a JSON summary as the last line.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer ones
from a traced run.  README.md defines every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, write_workload  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_LAUNCHES = 21
SETUP_CODE = "import richelot_ctp.cli"

# The machine's speed drifts by tens of percent within seconds when other
# tenants load it.  ScaledClock therefore times a fixed pure-Python Fraction
# loop at every reading and, while it ticks, every TICK_S seconds in between,
# and integrates wall time weighted by the measured speed.  Timings are
# reported in seconds at the reference speed, at which the loop takes
# CAL_REFERENCE_S; the time spent in the loop itself is left out.
CAL_REFERENCE_S = 0.002
CAL_TERMS = 500
TICK_S = 0.1


def calibrate() -> None:
    acc = Fraction(0)
    for i in range(1, CAL_TERMS):
        acc += Fraction(i, i + 7) * (i % 5 - 2)


class ScaledClock:
    def __init__(self):
        self.scaled = 0.0  # reference-speed seconds up to the last reading
        self.paused = 0.0  # wall seconds spent in the calibration loop
        self._last = None  # (wall, loop seconds) of the last reading
        self._busy = False

    def wall(self) -> float:
        """Wall seconds with the calibration loops left out."""
        return time.perf_counter() - self.paused

    def read(self) -> tuple[float, float]:
        """Current (wall, reference-speed) seconds."""
        self._busy = True
        try:
            t0 = time.perf_counter()
            calibrate()
            cal = time.perf_counter() - t0
            wall = t0 - self.paused
            self.paused += cal
            if self._last is not None:
                last_wall, last_cal = self._last
                self.scaled += (wall - last_wall) * 2 * CAL_REFERENCE_S / (last_cal + cal)
            self._last = (wall, cal)
            return wall, self.scaled
        finally:
            self._busy = False

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self.read()

    @contextlib.contextmanager
    def ticking(self):
        """Also read the clock every TICK_S seconds (SIGALRM) inside the block."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def timed(clock: ScaledClock, fn, *args) -> tuple[float, float]:
    """Run fn(*args); return its (wall, reference-speed) seconds."""
    w0, s0 = clock.read()
    fn(*args)
    w1, s1 = clock.read()
    return w1 - w0, s1 - s0


def load_cli():
    """Import the library from the checkout's src/, or exit 1 without a result."""
    if not (SRC / "richelot_ctp" / "cli.py").is_file():
        sys.exit(f"error: no richelot_ctp package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        from richelot_ctp import cli
    except ImportError as e:
        sys.exit(f"error: cannot import richelot_ctp: {e}")
    return cli


def answers_of(report: dict) -> list:
    """(dim Sel^phihat, dim Sel^phi, radical dim, rank bound before, after, status)."""
    descent = report["descent"]
    return [report["selmer"]["phihat"]["dim"], report["selmer"]["phi"]["dim"],
            report["matrix"]["radical_dim"], descent["rank_bound_before"],
            descent["rank_bound_after"], report["status"]]


class Runner:
    """Runs passes over one workload and keeps the outcome of every curve run."""

    def __init__(self, cli, paths: list[Path], reference: dict):
        self.cli = cli
        self.clock = ScaledClock()
        self.paths = paths
        self.labels = [json.loads(p.read_text())["label"] for p in paths]
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.certified = 0
        self.errors: list[str] = []
        self.answers: dict = {}
        self.outputs: dict = {}  # label -> stdout of the first run
        self.report_bytes = 0

    def run_curve(self, i: int, tracer: Tracer | None = None) -> None:
        label = self.labels[i]
        argv = ["ctp", str(self.paths[i]), "--json"]
        buf = io.StringIO()
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(buf):
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    tracer.current_curve = i
                    rc = tracer.call("cli.main", self.cli.main, argv)
            out = buf.getvalue()
            self.report_bytes += len(out.encode())
            if rc != 0:
                raise RuntimeError(f"exit code {rc}")
            answers = answers_of(json.loads(out))
            expected = self.reference.get(label)
            if expected is not None and answers != expected:
                raise RuntimeError(f"answers {answers} differ from reference {expected}")
            first = self.outputs.setdefault(label, out)
            if out != first:
                raise RuntimeError("report differs from the first run of this curve")
        except Exception as e:  # every curve is attempted; a failure is counted
            self.failed += 1
            self.errors.append(f"{label}: {type(e).__name__}: {e}")
            return
        self.answers[label] = answers
        self.certified += answers[-1] == "certified"

    def run_pass(self, tracer: Tracer | None = None) -> list[tuple[float, float]]:
        """One pass over every curve; returns `timed` pairs, one per curve."""
        return [timed(self.clock, self.run_curve, i, tracer) for i in range(len(self.paths))]


def measure_setup(clock: ScaledClock, launches: int) -> list[tuple[float, float]]:
    """`timed` pairs for launches from a cold interpreter to `import richelot_ctp.cli`."""
    launch = functools.partial(
        subprocess.run, [sys.executable, "-c", SETUP_CODE],
        env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT, check=True)
    launch()  # writes the bytecode caches
    return [timed(clock, launch) for _ in range(launches)]


WALL, SCALED = 0, 1  # fields of a `timed` pair


def medians(rows: list[list[tuple[float, float]]], field: int = SCALED) -> list[float]:
    """Per-curve median over passes of one field of the `timed` pairs."""
    return [statistics.median(t[field] for t in ts) for ts in zip(*rows)]


def end_to_end(runner: Runner, seconds: float) -> dict:
    """Setup launches, then untraced passes until `seconds` have gone by.

    Each curve's time is its median over the passes; pass_s sums these
    medians and max_curve_s is the largest, so a slow spell during one curve
    of one pass moves neither.
    """
    setup = measure_setup(runner.clock, SETUP_LAUNCHES)
    rows = []
    peak_rss_mb = None
    t_start = time.perf_counter()
    with runner.clock.ticking():
        while True:
            rows.append(runner.run_pass())
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if time.perf_counter() - t_start >= seconds:
                break
    per_curve = medians(rows)
    print(f"# {len(rows)} passes; unscaled wall seconds: pass {sum(medians(rows, WALL)):.4f}, "
          f"setup {statistics.median(t[WALL] for t in setup):.4f}")
    return {
        "pass_s": sum(per_curve),
        "max_curve_s": max(per_curve),
        "setup_s": statistics.median(t[SCALED] for t in setup),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(runner: Runner, seconds: float, spans_path: Path, seed: int) -> dict:
    """Alternate untraced and traced passes until `seconds` have gone by;
    derive the layer metrics from the traced ones and replay the sampled
    arithmetic calls."""
    tracer = Tracer(runner.clock.wall, seed=seed)
    plain, traced, summaries, report_bytes = [], [], [], []
    spans_path.unlink(missing_ok=True)
    t_start = time.perf_counter()
    while True:
        with runner.clock.ticking():
            plain.append(runner.run_pass())
            tracer.install()
            try:
                before = runner.report_bytes
                traced.append(runner.run_pass(tracer))
                report_bytes.append(runner.report_bytes - before)
            finally:
                tracer.uninstall()
        summaries.append(tracer.summary())
        tracer.write(spans_path, len(traced) - 1)
        tracer.clear()
        if time.perf_counter() - t_start >= seconds:
            break
    metrics = {k: statistics.mean(s[k] for s in summaries) for k in summaries[0]}
    metrics["localpoints.max_place_s"] = max(s["localpoints.max_place_s"] for s in summaries)
    metrics["cli.report_bytes"] = statistics.mean(report_bytes)
    metrics["trace.overhead"] = sum(medians(traced)) / sum(medians(plain))
    micro, mismatches = tracer.replay(lambda fn: timed(runner.clock, fn)[SCALED])
    metrics.update(micro)
    if mismatches:
        runner.errors.append(f"{mismatches} replayed arithmetic calls changed result")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = load_cli()
    # spans.tsv (tens of MB) is overwritten by each traced run of the workload
    work = ROOT / ".perfbench_work" / args.workload
    paths = write_workload(args.workload, args.seed, work / f"curves-s{args.seed}")
    reference = json.loads((HERE / "reference.json").read_text())
    runner = Runner(cli, paths, reference)

    if args.trace:
        metrics = per_layer(runner, args.seconds, work / "spans.tsv", args.seed)
    else:
        metrics = end_to_end(runner, args.seconds)
    attempted = max(runner.attempted, 1)
    if args.trace:
        metrics["certified_frac"] = runner.certified / attempted
        metrics["failed_frac"] = runner.failed / attempted
    units = {m["name"]: m["unit"]
             for m in BENCH["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        sys.exit(f"error: metrics {sorted(set(metrics) ^ set(units))} "
                 "do not match BENCHMARK.json")

    (work / f"answers-s{args.seed}-t{args.trace}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "answers": runner.answers,
         "errors": runner.errors}, indent=1, sort_keys=True) + "\n")
    for err in runner.errors:
        print(f"FAILED {err}", file=sys.stderr)
    for name in units:
        print(f"{name:32s} {metrics[name]:14.6f} {units[name]}")
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
