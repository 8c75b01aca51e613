"""`cli._json` against its oracle, `json.dumps(x, sort_keys=True, indent=2)`:
on every report the commands write for the golden curves, and on a seeded
corpus of nested values."""

import json
import random

import pytest

import richelot_ctp.cli as cli
from richelot_ctp.cli import _json, main
from richelot_ctp.localpoints import SearchConfig
from test_golden_json import CURVES


def oracle(x) -> str:
    return json.dumps(x, sort_keys=True, indent=2)


@pytest.fixture
def written(monkeypatch, capsys):
    """run(argv) runs `main` and returns its exit code and report, after
    checking that it wrote the one report it emitted as the oracle does."""
    reports = []
    emit = cli._emit

    def recorded(report, as_json, renderer=None):
        reports.append(report)
        emit(report, as_json, renderer)

    monkeypatch.setattr(cli, "_emit", recorded)

    def run(argv):
        reports.clear()
        code = main(argv)
        assert len(reports) == 1
        assert capsys.readouterr().out == oracle(reports[0]) + "\n"
        return code, reports[0]
    return run


@pytest.mark.parametrize("label", sorted(CURVES))
def test_every_report_of_a_golden_curve_is_written_as_json_dumps_writes_it(
        label, tmp_path, written):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(CURVES[label]))
    path = str(path)
    code, report = written(["ctp", path, "--json"])
    assert code == 0
    places = "3,113" if label == "k=113" else ",".join(report["bad_places"][:2])
    code, report = written(["ctp", path, "--places", places, "--json"])
    assert (code, report["partial_places_only"]) == (0, True)
    for argv in (["selmer", path, "--side", "phihat"], ["selmer", path, "--side", "phi"],
                 ["isogeny", path]):
        assert written(argv + ["--json"])[0] == 0


def test_the_exit_3_report_is_written_as_json_dumps_writes_it(tmp_path, written, monkeypatch):
    def broken(*args):
        raise cli.InconsistentDimensions("Greenberg-Wiles: mismatch")

    monkeypatch.setattr(cli, "rank_report", broken)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(CURVES["k=113"]))
    code, report = written(["ctp", str(path), "--json"])
    assert (code, report["failed_at"]) == (3, "descent bookkeeping")


# strings with quotes, backslashes, control characters and non-ASCII text
TEXT = ['', 'a', '"', '\\', '\n', '\t', '\x00', '\x1f', '\x7f', 'é', 'Ω/2',
        '中文', '\U0001f600', '\ud800', 'P_v', '(1, -3, -3)', '{3, 113, oo}']
SCALARS = [True, False, None, 0, 1, -1, 2 ** 63, -(2 ** 64), 10 ** 60, -(10 ** 75) - 7]


def random_value(rng: random.Random, depth: int):
    kind = rng.randrange(6 if depth else 3)
    if kind == 0:
        return rng.choice(SCALARS + [rng.randrange(-10 ** 70, 10 ** 70)])
    if kind == 1:
        return rng.randrange(-1000, 1000)
    if kind == 2:
        return "".join(rng.choice(TEXT) for _ in range(rng.randrange(4)))
    n = rng.randrange(5)
    if kind == 3:
        keys = ["".join(rng.choice(TEXT) for _ in range(rng.randrange(3))) for _ in range(n)]
        return {k: random_value(rng, depth - 1) for k in keys}
    items = [random_value(rng, depth - 1) for _ in range(n)]
    return items if kind == 4 else tuple(items)


def test_the_writer_matches_json_dumps_on_a_random_corpus():
    rng = random.Random(2909)
    corpus = [{}, [], (), {"": {}}, [[], {}, ()], *SCALARS, *TEXT]
    corpus += [random_value(rng, rng.randrange(1, 6)) for _ in range(2000)]
    kinds = set()
    for x in corpus:
        assert _json(x) == oracle(x), x
        kinds.add(type(x))
    assert kinds >= {dict, list, tuple, str, int, bool, type(None)}


@pytest.mark.parametrize("x", [{1: 2}, {"a": {None: 1}}, [{(1, 2): "x"}], {b"k": 1},
                               {"a": 1, 2: "b"}])
def test_a_key_that_is_not_a_str_raises(x):
    with pytest.raises(TypeError):
        _json(x)


@pytest.mark.parametrize("x", [{"config": SearchConfig()}, [SearchConfig()], SearchConfig(),
                               {"x": 0.5}, {"x": {1, 2}}])
def test_a_value_of_another_type_raises(x):
    # json.dumps would write a record, a tuple subclass, as an array
    with pytest.raises(TypeError):
        _json(x)
