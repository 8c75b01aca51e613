"""Command-line front end: isogeny data, Selmer groups, the pairing report,
and the built-in example verification.

Curve files are JSON with each factor a list of rational coefficients, low
degree first, each a string or an integer; so is "lambda", and "label", if
given, is a string:

    {"label": "k=113", "lambda": "1",
     "G1": ["226", "1"], "G2": ["0", "-678", "1"], "G3": ["-89383", "-678", "1"]}

Exit codes:
  0 ok;
  1 verification failure, or a reader that closed the output pipe early
    (nothing is written to stderr);
  2 invalid input: an unreadable or malformed curve file (a non-string
    label among them), an unsupported model, a model number with more
    digits than Python turns into a string, curve data with a composite
    factor the factorization budget cannot split or with a factor it cannot
    prove prime (from psi_13 = 3317044064679887385961981 up), a --places
    name that is missing or not a bad place ("oo" or a prime), an unknown
    flag, or a search flag below its minimum (1 for --precision, 0 for
    --val-bound and --escalations);
  3 a `ctp` run stopped by a failed self-check or dimension check (partial
    JSON naming the stage in "failed_at"), or a heuristic or unproven
    result under --strict.

The commands write nothing but their output: each run searches its local
points afresh.  A JSON report is written by `_json`, which gives the bytes of
`json.dumps(report, sort_keys=True, indent=2)` without the stdlib's
pure-Python indenting encoder; the tests check it against that call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .cohomology import NotInImageError
from .ctp import InconsistentDimensions, LocalRow, ctp_matrix, rank_report
from .curve import PHI, PHIHAT, CurveError, RichelotPair, build_pair, poly, poly_str
from .localfield import class_representative, place_name, places_of
from .localpoints import SearchConfig
from .selmer import selmer_group

__all__ = ["main"]

# errors that end `ctp` with a partial report and exit 3: class -> failed stage
_FAILED_AT = {
    NotInImageError: "pairing pipeline self-check",
    InconsistentDimensions: "descent bookkeeping",
}


def _coefficient(c) -> Fraction:
    """A string such as "-1/2" or an integer; JSON makes a float of 1e400."""
    if isinstance(c, bool) or not isinstance(c, (str, int)):
        raise TypeError(f"{c!r} is not a string or an integer")
    return Fraction(c)


def _parse_curve_file(path: str):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise CurveError(f"cannot read curve file: {e}")
    except ValueError as e:  # invalid JSON or undecodable bytes
        raise CurveError(f"curve file is not valid JSON: {e}")
    if not isinstance(data, dict):
        raise CurveError("malformed curve file: the top level is not a JSON object")
    try:
        lam = _coefficient(data.get("lambda", "1"))
        if not all(isinstance(data.get(k), list) for k in ("G1", "G2", "G3")):
            raise TypeError("G1, G2 and G3 must be lists")
        gs = [[_coefficient(c) for c in data[k]] for k in ("G1", "G2", "G3")]
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
        raise CurveError(f"malformed curve file: {e}")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise CurveError(f"malformed curve file: the label {label!r} is not a string")
    return label, lam, gs


def _curve_echo(curve: RichelotPair, label: str) -> dict:
    return {
        "label": label,
        "model": curve.label(),
        "factors": [[str(c) for c in g] for g in curve.domain_data.factors],
        "roots": [str(r) for r in curve.domain_data.roots],
    }


def _check_printable(curve: RichelotPair):
    """Raise CurveError when a coefficient, Delta or a root of either side
    has a numerator or denominator with more digits than Python turns into a
    string (`sys.get_int_max_str_digits`; 0 means no limit), before any
    search spends time on a curve whose report cannot be printed."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    numbers = [x for data in (curve.domain_data, curve.codomain_data)
               for x in (data.delta, *data.roots, *(c for g in data.factors for c in g))]
    # below 2^(3 limit) = 8^limit a number has at most `limit` digits, so
    # 10^limit is built only for a number that may have more
    if any(abs(n).bit_length() > 3 * limit and abs(n) >= 10 ** limit
           for x in numbers for n in x.as_integer_ratio()):
        raise CurveError(f"a number of the model has more than {limit} digits, "
                         "the limit of Python's integer string conversion")


def _kernel_descriptions(curve: RichelotPair):
    """P_i and P_i', the divisors cut out by G_i and by L_i: a factor's
    rational roots, with infinity beside a linear factor's root."""
    out = []
    for prime, data in (("", curve.domain_data), ("'", curve.codomain_data)):
        out.append({f"P{i}{prime}": "{conjugate roots of %s}" % poly_str(g) if grp is None
                    else "{%s}" % ", ".join([f"({r}, 0)" for r in grp] + ["inf"] * (len(g) == 2))
                    for i, (g, grp) in enumerate(zip(data.factors, data.groups), 1)})
    return out


def _isogeny_dict(curve: RichelotPair, label: str) -> dict:
    dom, cod = _kernel_descriptions(curve)
    delta, factors = curve.codomain_data.delta, curve.codomain_data.factors
    return {
        "curve": _curve_echo(curve, label),
        "delta": str(delta),
        "L": [[str(c) for c in L] for L in factors],
        "codomain_model": "(%s) y^2 = (%s)(%s)(%s)" % (
            (str(delta),) + tuple(poly_str(L) for L in factors)),
        "kernel_divisors": dom,
        "dual_kernel_divisors": cod,
    }


def _selmer_dict(sel) -> dict:
    return {
        "side": sel.side,
        "dim": sel.dim,
        "size": 1 << sel.dim,
        "basis": [list(t.values) for t in sel.basis],
        "known_point_basis": [list(t.values) for t in sel.known_point_basis],
        "status": sel.status,
    }


def _config_dict(cfg: SearchConfig) -> dict:
    """The search bounds as the flags name them."""
    return {name: getattr(cfg, field) for name, (field, _) in _SEARCH_FLAGS.items()}


def _row_dict(row: LocalRow) -> dict:
    """The row's tuples as the representatives of their slots' classes,
    read from the slot masks."""
    p = row.place
    out = {"P_v": " + ".join(map(str, row.P_v))}
    for key in ("delta2", "lift", "difference", "rho"):
        out[key] = [class_representative(c, p) for c in getattr(row, key).slots()]
    return out


def _ctp_report(curve, label, cfg, places=None) -> dict:
    """The full report; `places`, a subset of the bad places, makes it partial."""
    partial = places is not None
    sel_hat = selmer_group(curve, PHIHAT, cfg)
    sel_phi = selmer_group(curve, PHI, cfg)
    M = ctp_matrix(sel_hat, curve, cfg, places=places)
    names = {v: place_name(v) for v in places_of(curve.bad_places)}

    report = {
        "curve": _curve_echo(curve, label),
        "isogeny": _isogeny_dict(curve, label),
        "bad_places": list(names.values()),
        "selmer": {PHIHAT: _selmer_dict(sel_hat), PHI: _selmer_dict(sel_phi)},
        "local_tables": {
            str(a.values): {names[r.place]: _row_dict(r) for r in rows}
            for a, rows in zip(M.basis, M.rows)},
        "matrix": {
            "basis": [list(t.values) for t in M.basis],
            "entries": M.entries,
            "entries_qz": M.qz_entries(),
            "per_place": {f"{i},{j}": {names[v]: bit for v, bit in bd.items()}
                          for (i, j), bd in M.breakdown.items()},
            "radical_dim": M.radical_dim,
            "symmetric": M.symmetric,
        },
        "partial_places_only": partial,
        "config": _config_dict(cfg),
        "status": "certified" if sel_hat.status == sel_phi.status == "certified"
                  else "heuristic",
    }
    if not M.symmetric:
        report["warnings"] = ["pairing matrix is not symmetric on this basis"]
    if not partial:
        # rank bookkeeping only makes sense for the full place set
        rep = rank_report(sel_phi, sel_hat, M)
        report["descent"] = {
            "rank_bound_before": rep.rank_bound_before,
            "rank_bound_after": rep.rank_bound_after,
            "inferred_dim_sel2": rep.inferred_dim_sel2,
            "sequence_dims": list(rep.sequence_dims),
            "note": "rank bounds and the 2-Selmer dimension are derived "
                    "bookkeeping around the computed groups",
        }
    return report


def _print_isogeny(iso):
    print(f"curve: {iso['curve']['model']}")
    print(f"delta = {iso['delta']}")
    for i, L in enumerate(iso["L"], 1):
        print(f"L{i} = {poly_str(poly(L))}")
    print(f"codomain: {iso['codomain_model']}")
    for k in sorted(iso["kernel_divisors"]):
        print(f"{k} = {iso['kernel_divisors'][k]}")
    for k in sorted(iso["dual_kernel_divisors"]):
        print(f"{k} = {iso['dual_kernel_divisors'][k]}")


def _tuples_str(tuples) -> str:
    """Selmer elements as "(a, b, c), (d, e, f)"."""
    return ", ".join("(%s)" % ", ".join(map(str, t)) for t in tuples)


def _print_selmer(report):
    print(f"curve: {report['curve']['model']}")
    s = report["selmer"]
    print(f"Sel[{s['side']}]: dim {s['dim']}, size {s['size']} ({s['status']})")
    print(f"basis: {_tuples_str(s['basis'])}")
    print(f"known-point images: {_tuples_str(s['known_point_basis']) or '(none)'}")


def _print_tables(report):
    print(f"curve: {report['curve']['model']}")
    iso = report["isogeny"]
    print(f"delta = {iso['delta']}")
    for i, L in enumerate(iso["L"], 1):
        print(f"L{i} = {poly_str(poly(L))}")
    print(f"bad places: {', '.join(report['bad_places'])}")
    for side in (PHIHAT, PHI):
        s = report["selmer"][side]
        print(f"Sel[{side}]: dim {s['dim']} ({s['status']}); basis {_tuples_str(s['basis'])}")
    for key, rows in report["local_tables"].items():
        print(f"\nlocal data for a = {key}")
        # bad-place order, also when --places keeps only some of them
        cols = [v for v in report["bad_places"] if v in rows]
        head = ["row \\ v"] + cols
        lines = [head]
        for rowname, field in (("P_v", "P_v"), ("delta2(P_v)", "delta2"),
                               ("a_1,v", "lift"), ("difference", "difference"),
                               ("rho_v", "rho")):
            line = [rowname]
            for v in cols:
                cell = rows[v][field]
                line.append(cell if isinstance(cell, str) else
                            "(" + ",".join(map(str, cell)) + ")")
            lines.append(line)
        widths = [max(len(str(l[i])) for l in lines) for i in range(len(head))]
        for l in lines:
            print("  ".join(str(c).ljust(w) for c, w in zip(l, widths)))
    M = report["matrix"]
    print("\npairing matrix (entries in Q/Z):")
    for row in M["entries_qz"]:
        print("  [" + "  ".join(e.rjust(3) for e in row) + "]")
    print(f"radical dimension: {M['radical_dim']}")
    if "descent" in report:
        d = report["descent"]
        print(f"rank bound: {d['rank_bound_before']} -> {d['rank_bound_after']}")
        print(f"inferred 2-Selmer dimension: {d['inferred_dim_sel2']}")
        print(f"six-term dimensions: {tuple(d['sequence_dims'])}")
    print(f"status: {report['status']}")


def _json(x, pad: str = "\n") -> str:
    """`json.dumps(x, sort_keys=True, indent=2)` for dicts with str keys,
    lists, tuples, strs, ints, bools and None; `pad` is the newline and
    indent of x's own line.  A non-str key raises TypeError, from
    `encode_basestring_ascii`, and so does a value of any other type: a
    record, a tuple subclass, would pass `json.dumps` as an array.  Most
    values are small ints, which the dict and list branches write without
    a call."""
    t = type(x)
    if t is int:
        return int.__repr__(x)
    if t is str:
        return encode_basestring_ascii(x)
    inner = pad + "  "
    if t is dict:
        if not x:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [encode_basestring_ascii(k) + ": "
             + (int.__repr__(v) if type(v) is int else _json(v, inner))
             for k, v in sorted(x.items())]) + pad + "}"
    if t is list or t is tuple:
        if not x:
            return "[]"
        return "[" + inner + ("," + inner).join(
            [int.__repr__(e) if type(e) is int else _json(e, inner) for e in x]) + pad + "]"
    if t is bool or x is None:
        return json.dumps(x)
    raise TypeError(f"a report holds no {t.__name__}: {x!r}")


def _emit(report, as_json: bool, renderer=None):
    if as_json:
        print(_json(report))
    else:
        (renderer or _print_tables)(report)


def _at_least(low: int):
    """An argparse type: an integer of at least `low`, as `SearchConfig`
    requires of its bounds."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value
    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


# each search flag by its argparse dest, also its `--json` config key: the
# `SearchConfig` field it sets, and its help text
_SEARCH_FLAGS = {
    "precision": ("residue_exponent", "residue modulus exponent for the local point search"),
    "val_bound": ("val_bound", "valuation window for the local point search"),
    "escalations": ("escalations", "number of times search bounds may escalate"),
}


def _add_search_flags(p: argparse.ArgumentParser):
    for name, (field, what) in _SEARCH_FLAGS.items():
        low = SearchConfig.minima[field]
        p.add_argument("--" + name.replace("_", "-"), type=_at_least(low),
                       default=SearchConfig._field_defaults[field], help=f"{what} (>= {low})")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any result is heuristic or unproven")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _cfg_of(args) -> SearchConfig:
    return SearchConfig(**{field: getattr(args, name)
                           for name, (field, _) in _SEARCH_FLAGS.items()})


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first `main` call; each
    `parse_args` call fills a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="richelot-ctp",
        description="Descent and pairing computations for split genus-2 Jacobians")
    sub = parser.add_subparsers(dest="command", required=True)

    p_iso = sub.add_parser("isogeny", help="codomain model, delta, and kernel data")
    p_iso.add_argument("curve_file")
    p_iso.add_argument("--json", action="store_true")

    p_sel = sub.add_parser("selmer", help="compute a kernel Selmer group")
    p_sel.add_argument("curve_file")
    p_sel.add_argument("--side", choices=(PHIHAT, PHI), default=PHIHAT)
    _add_search_flags(p_sel)

    p_ctp = sub.add_parser("ctp", help="full pairing pipeline and rank report")
    p_ctp.add_argument("curve_file")
    p_ctp.add_argument("--places", default=None,
                       help="comma-separated places for a partial per-place run")
    _add_search_flags(p_ctp)

    sub.add_parser("verify-example", help="check the bundled reference example")
    return parser


def main(argv=None) -> int:
    try:
        code = _run(_parser().parse_args(argv))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early: Python's recipe for SIGPIPE, so the
        # flush at exit writes to nothing and prints no second traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(args) -> int:
    if args.command == "verify-example":
        from .verify import run_verification  # the other commands need none of it

        results = run_verification(report=print)
        failed = [r for r in results if not r.passed]
        if failed:
            print(f"FAILED: {failed[0].name}: {failed[0].detail}")
            return 1
        print(f"ok: {len(results)} checks passed")
        return 0

    try:
        label, lam, gs = _parse_curve_file(args.curve_file)
        curve = build_pair(lam, *gs)
        _check_printable(curve)
        if args.command == "isogeny":
            _emit(_isogeny_dict(curve, label), args.json, _print_isogeny)
            return 0
        run = _selmer_command if args.command == "selmer" else _ctp_command
        return run(args, curve, label, _cfg_of(args))
    except CurveError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _selmer_command(args, curve: RichelotPair, label: str, cfg: SearchConfig) -> int:
    sel = selmer_group(curve, args.side, cfg)
    report = {"curve": _curve_echo(curve, label),
              "selmer": _selmer_dict(sel),
              "config": _config_dict(cfg)}
    _emit(report, args.json, _print_selmer)
    if args.strict and sel.status != "certified":
        return 3
    return 0


def _ctp_command(args, curve: RichelotPair, label: str, cfg: SearchConfig) -> int:
    try:
        places = None
        if args.places is not None:
            bad = {place_name(v): v for v in places_of(curve.bad_places)}  # in place order
            chosen = {s.strip() for s in args.places.split(",")}
            unknown = sorted(chosen.difference(bad))
            if unknown:
                problem = ("a place name is missing" if "" in chosen
                           else f"not a bad place: {', '.join(unknown)}")
                print(f"error: --places: {problem}; the bad places are {', '.join(bad)}",
                      file=sys.stderr)
                return 2
            places = [v for name, v in bad.items() if name in chosen]
        report = _ctp_report(curve, label, cfg, places)
    except tuple(_FAILED_AT) as e:
        stage = next(s for cls, s in _FAILED_AT.items() if isinstance(e, cls))
        partial = {"curve": _curve_echo(curve, label), "failed_at": stage, "error": str(e)}
        _emit(partial, True)
        return 3
    _emit(report, args.json)
    if args.strict and report["status"] != "certified":
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
