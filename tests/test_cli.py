import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from curve_fixtures import fixture_curve, fixture_path, in_radical
from richelot_ctp import arith
from richelot_ctp.cli import main
from richelot_ctp.curve import build_pair
from richelot_ctp.ctp import ctp_matrix
from richelot_ctp.selmer import selmer_group, torsion_images

CURVE113 = {"label": "k=113", "lambda": "1",
            "G1": ["226", "1"], "G2": ["0", "-678", "1"],
            "G3": ["-89383", "-678", "1"]}
TOY = {"label": "toy", "lambda": "1",
       "G1": ["0", "1"], "G2": ["-1", "0", "1"], "G3": ["-4", "0", "1"]}
FRACTIONAL = {"label": "fractional", "lambda": "4", "G1": ["-1/2", "1"],
              "G2": ["-1", "0", "1"], "G3": ["-12", "1", "1"]}
A1009 = {"label": "A1009", "lambda": "1", "G1": ["0", "1"],
         "G2": ["-1", "0", "1"], "G3": ["-1018081", "0", "1"]}
DEGENERATE = {"lambda": "1", "G1": ["0", "1"], "G2": ["-1", "0", "1"],
              "G3": ["-1", "3/2", "1"]}


@pytest.fixture
def curve_file(tmp_path):
    def write(data, name="curve.json"):
        p = tmp_path / name
        p.write_text(json.dumps(data))
        return str(p)
    return write


def test_isogeny_command_toy(curve_file, capsys):
    rc = main(["isogeny", curve_file(TOY), "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["delta"] == "-3"
    assert out["L"][0] == ["0", "-6"]
    assert out["L"][1] == ["4", "0", "1"]
    assert out["L"][2] == ["-1", "0", "-1"]


def test_isogeny_command_example(curve_file, capsys):
    rc = main(["isogeny", curve_file(CURVE113)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delta = -89383" in out
    assert "-178766*x + 60601674" in out


def test_invalid_curve_exits_2(curve_file, tmp_path, capsys):
    assert main(["isogeny", curve_file(DEGENERATE)]) == 2
    assert "product of elliptic" in capsys.readouterr().err.lower()
    bad = curve_file({"lambda": "1", "G1": ["1"]}, "bad.json")
    assert main(["isogeny", bad]) == 2
    capsys.readouterr()
    # a string factor was read digit by digit ("22" as 2 + 2x), and a float
    # such as 1e400 ended in an OverflowError traceback
    overflow = tmp_path / "overflow.json"
    overflow.write_text(json.dumps(CURVE113).replace('"-678"', "1e400", 1))
    for name, data in (("list.json", [1, 2]),
                       ("null.json", dict(CURVE113, G2=["0", None, "1"])),
                       ("string-factor.json", dict(CURVE113, G1="22")),
                       ("float.json", dict(CURVE113, G1=[226.0, "1"])),
                       ("bool.json", dict(CURVE113, G1=["226", True])),
                       ("bool-lambda.json", dict(CURVE113, **{"lambda": True})),
                       ("float-lambda.json", dict(CURVE113, **{"lambda": 0.5}))):
        assert main(["isogeny", curve_file(data, name)]) == 2
        assert "malformed curve file" in capsys.readouterr().err
    assert main(["isogeny", str(overflow)]) == 2
    assert "malformed curve file" in capsys.readouterr().err
    # an integer coefficient is read as it is
    assert main(["isogeny", curve_file(dict(CURVE113, G1=[226, 1]), "int.json")]) == 0


@pytest.mark.parametrize("command", ["isogeny", "ctp"])
@pytest.mark.parametrize("key", ["label", "lambda", "G1", "G2", "G3"])
def test_every_json_type_at_every_key_exits_0_or_2(curve_file, capsys, command, key):
    # a float label ended in a TypeError traceback from the JSON writer, and
    # a null, list or object label was echoed into the report as it was
    for value in (None, True, 1, 1.5, "1", ["1"], {"1": "1"}):
        rc = main([command, curve_file(dict(TOY, **{key: value})), "--json"])
        captured = capsys.readouterr()
        assert rc in (0, 2), (key, value)
        if rc == 2:
            assert not captured.out and captured.err.startswith("error: "), (key, value)
        else:
            assert json.loads(captured.out)["curve"]["label"] == (value if key == "label" else "toy")
        if key == "label":
            assert rc == (0 if isinstance(value, str) else 2), value
            assert rc == 0 or "malformed curve file" in captured.err
    # a missing label stays empty
    assert main([command, curve_file({k: v for k, v in TOY.items() if k != "label"}), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["curve"]["label"] == ""


# lambda is the product of two 20-digit primes, which the rho stage of the
# factorization cannot split within its budget
SEMIPRIME = (10 ** 19 + 51) * (10 ** 19 + 87)
UNFACTORABLE = dict(TOY, label="semiprime", **{"lambda": str(SEMIPRIME)})


def test_an_unfactorable_curve_exits_2(curve_file, capsys):
    assert main(["ctp", curve_file(UNFACTORABLE), "--json"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert f"cannot factor the composite {SEMIPRIME} " in captured.err


def test_every_command_that_factors_exits_2_on_an_unfactorable_curve(
        curve_file, capsys, monkeypatch):
    # a smaller budget reaches the same raise in a fraction of the time
    monkeypatch.setattr(arith, "_RHO_BUDGET", 1 << 12)
    for args in (["selmer"], ["ctp", "--places", "2"], ["ctp"]):
        assert main([args[0], curve_file(UNFACTORABLE)] + args[1:]) == 2, args
        assert f"cannot factor the composite {SEMIPRIME} " in capsys.readouterr().err


# y^2 = lambda x (x^2 - 1)(x^2 - 9): at lambda = 10^19 + 51, a prime past
# 2^63, every search ended in an OverflowError from the unit sample; at
# lambda = psi_13 = 1287836182261 * 2575672364521, which passes Miller-Rabin
# to all 13 bases, the run would otherwise certify over a composite "place"
def test_a_twenty_digit_bad_prime_certifies_and_an_unprovable_one_exits_2(capsys):
    assert main(["ctp", str(fixture_path("L10000000000000000051")), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bad_places"] == ["oo", "2", "3", "10000000000000000051"]
    # dim Sel^phihat, dim Sel^phi, radical dim, rank bound before, after
    assert [report["selmer"]["phihat"]["dim"], report["selmer"]["phi"]["dim"],
            report["matrix"]["radical_dim"], report["descent"]["rank_bound_before"],
            report["descent"]["rank_bound_after"], report["status"]] == [6, 0, 4, 2, 0, "certified"]
    psi_13 = 3317044064679887385961981
    for args in (["ctp"], ["ctp", "--places", "2"], ["selmer"]):
        path = str(fixture_path("L3317044064679887385961981"))
        assert main([args[0], path] + args[1:]) == 2
        captured = capsys.readouterr()
        assert not captured.out and captured.err == f"error: cannot prove {psi_13} prime\n"


def test_a_model_number_too_long_to_print_exits_2_before_any_search(
        curve_file, capsys, monkeypatch):
    # lambda = 10^limit gives G1 a coefficient of limit + 3 digits, more than
    # `str` converts: every command ended in a ValueError traceback, `selmer`
    # and `ctp` only after seconds of search
    import richelot_ctp.cli as cli

    def no_search(*args):
        raise AssertionError("the search ran on a model it cannot print")

    monkeypatch.setattr(cli, "selmer_group", no_search)
    limit = sys.get_int_max_str_digits()
    huge = curve_file(dict(CURVE113, **{"lambda": f"1e{limit}"}))
    for args in (["isogeny"], ["isogeny", "--json"], ["selmer", "--json"], ["ctp", "--json"]):
        assert main([args[0], huge] + args[1:]) == 2, args
        captured = capsys.readouterr()
        assert not captured.out, args
        assert captured.err.startswith("error: ") and f"{limit} digits" in captured.err, args
    assert main(["isogeny", curve_file(dict(CURVE113, **{"lambda": f"1e{limit - 10}"}))]) == 0


def test_unreadable_file_exits_2(capsys):
    assert main(["isogeny", "/nonexistent/curve.json"]) == 2


def test_selmer_command_json(curve_file, capsys):
    rc = main(["selmer", curve_file(CURVE113), "--side", "phi", "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["selmer"]["dim"] == 3
    assert out["selmer"]["status"] == "certified"


def test_selmer_strict_heuristic_exits_3(curve_file, capsys):
    rc = main(["selmer", curve_file(CURVE113), "--precision", "1",
               "--val-bound", "0", "--escalations", "0", "--strict"])
    assert rc == 3


def test_ctp_report_deterministic_and_roundtrips(curve_file, capsys):
    path = curve_file(CURVE113)
    assert main(["ctp", path, "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["ctp", path, "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert json.loads(json.dumps(report)) == report
    assert report["matrix"]["radical_dim"] == 3
    assert report["descent"]["rank_bound_before"] == 4
    assert report["descent"]["rank_bound_after"] == 2
    assert report["descent"]["inferred_dim_sel2"] == 6
    assert report["status"] == "certified"


@pytest.mark.parametrize("label", ["R15", "R18"])
def test_ctp_finishes_where_the_walk_misses_an_image_class(label, capsys):
    # at 2 the dual-kernel image is certified, but its domain walk yields 29
    # of the image's 32 masks on R15 and 63 of 64 on R18, and a Selmer basis
    # element's class is among the missing: a row searched for a point
    # below it ended the run with exit 3
    assert main(["ctp", str(fixture_path(label)), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    entries = report["matrix"]["entries"]
    assert report["matrix"]["symmetric"] and entries == [list(r) for r in zip(*entries)]
    if label == "R15":
        assert report["status"] == "certified"
    curve = fixture_curve(label)
    matrix = ctp_matrix(selmer_group(curve, "phihat"), curve)
    assert [list(r) for r in matrix.entries] == entries
    torsion = torsion_images(curve, "phihat")
    assert torsion
    assert all(in_radical(matrix, t, curve.bad_places.finite_primes) for t in torsion)


def test_ctp_inconsistent_dimensions_exits_3(curve_file, capsys, monkeypatch):
    import richelot_ctp.cli as cli
    from richelot_ctp.ctp import InconsistentDimensions

    def broken(*args):
        raise InconsistentDimensions("Greenberg-Wiles: mismatch")

    monkeypatch.setattr(cli, "rank_report", broken)
    assert main(["ctp", curve_file(CURVE113), "--json"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["failed_at"] == "descent bookkeeping"
    assert out["error"] == "Greenberg-Wiles: mismatch"
    assert out["curve"]["label"] == "k=113"


# the pairing vanishes on images of global points, so on the Selmer basis,
# which starts with the two-torsion images, their rows and columns of the
# Gram matrix are zero: one entry flipped in a torsion row, or in a torsion
# column, stops `ctp` with exit 3
@pytest.mark.parametrize("where", ["row", "column"])
def test_a_gram_entry_off_zero_in_a_torsion_row_or_column_exits_3(where, curve_file, capsys,
                                                                  monkeypatch):
    import richelot_ctp.cli as cli

    def mutant(selmer, *args, **kwargs):
        M = ctp_matrix(selmer, *args, **kwargs)
        last = len(M.basis) - 1
        assert selmer.known_point_basis and last >= len(selmer.known_point_basis)
        i, j = (0, last) if where == "row" else (last, 0)
        entries = [list(row) for row in M.entries]
        entries[i][j] ^= 1
        return M._replace(entries=tuple(map(tuple, entries)))

    monkeypatch.setattr(cli, "ctp_matrix", mutant)
    assert main(["ctp", curve_file(CURVE113), "--json"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["failed_at"] == "descent bookkeeping"
    assert out["error"].startswith("the pairing does not vanish on the two-torsion image")


def test_ctp_places_filter_marks_partial(curve_file, capsys):
    rc = main(["ctp", curve_file(CURVE113), "--places", "3,113", "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["partial_places_only"] is True
    assert "descent" not in report
    for bd in report["matrix"]["per_place"].values():
        assert set(bd) <= {"3", "113"}
    # the partial report is a view of the matrix over the chosen places
    from richelot_ctp.ctp import ctp_matrix
    from richelot_ctp.localfield import place_name
    from richelot_ctp.selmer import selmer_group
    from richelot_ctp.verify import example_curve
    curve = example_curve()
    M = ctp_matrix(selmer_group(curve, "phihat"), curve, places=[3, 113])
    assert report["matrix"]["entries"] == [list(r) for r in M.entries]
    assert report["matrix"]["per_place"] == {
        f"{i},{j}": {place_name(v): bit for v, bit in bd.items()}
        for (i, j), bd in M.breakdown.items()}
    assert report["matrix"]["radical_dim"] == M.radical_dim


def test_ctp_unknown_place_exits_2(curve_file, capsys):
    assert main(["ctp", curve_file(CURVE113), "--places", "5,xyz", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "5, xyz" in captured.err
    assert "oo, 2, 3, 7, 113" in captured.err
    assert main(["ctp", curve_file(CURVE113), "--places", "3,5"]) == 2
    capsys.readouterr()
    # an empty value, or an empty name in the list, names no place
    for places in ("", ",", "oo,,2"):
        assert main(["ctp", curve_file(CURVE113), "--places", places, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--places: a place name is missing; " in captured.err
        assert "oo, 2, 3, 7, 113" in captured.err


def test_ctp_runs_the_local_pipeline_once_per_generator_and_place(
        curve_file, capsys, monkeypatch):
    # n = 5 generators and 5 bad places: 25 descents, not one per (i, j, v)
    import richelot_ctp.ctp as ctp
    calls = []
    real = ctp.descend_to_phi

    def counting(c):
        calls.append(c.place)
        return real(c)

    monkeypatch.setattr(ctp, "descend_to_phi", counting)
    assert main(["ctp", curve_file(CURVE113), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    n = len(report["matrix"]["basis"])
    assert (n, len(report["bad_places"])) == (5, 5)
    assert len(calls) == 25


def test_a_ctp_run_lists_no_selmer_members(curve_file, capsys, monkeypatch):
    # choosing each side's basis listed all 2^dim members of the group, 256
    # on the dual-kernel side of A1009; only reading `elements` lists them now
    from richelot_ctp import gf2
    calls = []
    real = gf2.Span.elements

    def counting(span):
        calls.append(span.dim)
        return real(span)

    monkeypatch.setattr(gf2.Span, "elements", counting)
    assert main(["ctp", curve_file(A1009), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["selmer"]["phihat"]["dim"] == 8
    assert calls == []
    curve = build_pair(1, *(A1009[g] for g in ("G1", "G2", "G3")))
    assert len(selmer_group(curve, "phihat").elements) == 256
    assert calls == [8]


def test_ctp_text_tables(curve_file, capsys):
    rc = main(["ctp", curve_file(CURVE113)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pairing matrix" in out
    assert "rank bound: 4 -> 2" in out
    for row in ("P_v", "delta2(P_v)", "a_1,v", "difference", "rho_v"):
        assert row in out


def test_verify_example_passes(capsys):
    assert main(["verify-example"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("[PASS]") >= 20


def test_verify_example_runs_the_23_named_checks():
    from richelot_ctp.verify import run_verification

    results = run_verification()
    assert [r.name for r in results] == [
        "codomain delta", "codomain L1", "codomain L2", "codomain L3", "bad places",
        "triple-to-quintuple map", "quintuple-to-triple map", "lift section",
        "known-point images", "dual-kernel Selmer group", "kernel Selmer group",
        "Greenberg-Wiles", "local table for (113, 113, 1)", "local table for (2, 2, 1)",
        "local table for (1, 7, 7)", "pairing matrix", "pairing value 1/2",
        "matrix radical dimension", "matrix symmetric", "rank bound before",
        "rank bound after", "inferred 2-Selmer dimension", "six-term dimensions"]
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_verify_example_catches_symbol_mutation(monkeypatch, capsys):
    # a wrong Hilbert symbol implementation must be caught: the cup reads
    # `hilbert_bits` on the slot masks of two packed triples
    import richelot_ctp.cohomology as coh
    real = coh.hilbert_bits
    calls = []

    def broken(a, b, p):
        calls.append(p)
        e = real(a, b, p)
        return e ^ 1 if p == 3 else e

    monkeypatch.setattr(coh, "hilbert_bits", broken)
    assert main(["verify-example"]) == 1
    assert "FAILED" in capsys.readouterr().out
    assert 3 in calls


@pytest.mark.parametrize("command", ["ctp", "selmer"])
@pytest.mark.parametrize("content", [
    '{"lambda": "1", "G1": [',
    json.dumps([]),
    json.dumps({k: v for k, v in TOY.items() if k != "G3"}),
    json.dumps(dict(TOY, G1="22")),
], ids=["invalid-json", "bare-list", "missing-factor", "string-factor"])
def test_a_malformed_curve_file_exits_2_before_any_search(
        curve_file, tmp_path, capsys, monkeypatch, command, content):
    import richelot_ctp.cli as cli

    def no_search(*args):
        raise AssertionError("the search ran on a malformed curve file")

    monkeypatch.setattr(cli, "selmer_group", no_search)
    path = tmp_path / "malformed.json"
    path.write_text(content)
    assert main([command, str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: ")
    assert path.read_text() == content


@pytest.mark.parametrize("command", ["ctp", "selmer"])
def test_a_curve_path_that_is_a_directory_exits_2(tmp_path, capsys, command):
    path = tmp_path / "a-directory"
    path.mkdir()
    assert main([command, str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.startswith("error: cannot read curve file: ")
    assert str(path) in captured.err


@pytest.mark.parametrize("command", ["ctp", "selmer"])
def test_a_run_writes_nothing_to_disk(curve_file, tmp_path, capsys, monkeypatch, command):
    # local points live on the run's curve alone
    path = curve_file(TOY)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main([command, path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["curve"]["label"] == "toy"
    assert not list(work.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.json", "work"]


@pytest.mark.parametrize("command", ["ctp", "selmer"])
def test_a_run_under_other_bounds_leaves_a_later_default_run_unchanged(
        curve_file, capsys, command):
    # each run builds a curve of its own, and the curve keeps its images
    # per search config, so walks made under one config never answer a run
    # under another
    path = curve_file(FRACTIONAL)
    assert main([command, path, "--json"]) == 0
    fresh = capsys.readouterr()
    assert main([command, path, "--json", "--val-bound", "1", "--precision", "1"]) == 0
    assert capsys.readouterr() != fresh
    assert main([command, path, "--json"]) == 0
    assert capsys.readouterr() == fresh


def test_ctp_partial_text_columns_follow_bad_place_order(curve_file, capsys):
    assert main(["ctp", curve_file(CURVE113), "--places", "3,113,oo"]) == 0
    heads = [line.split()[3:] for line in capsys.readouterr().out.splitlines()
             if line.startswith("row \\ v")]
    assert heads
    assert all(h == ["oo", "3", "113"] for h in heads)


# k = 2431: five finite bad primes
K2431 = {"label": "k2431", "lambda": "1", "G1": ["4862", "1"], "G2": ["0", "-14586", "1"],
         "G3": ["-41368327", "-14586", "1"]}


def test_a_ctp_run_derives_each_factor_form_and_the_bad_places_once(
        curve_file, capsys, count_calls):
    from richelot_ctp import curve as curve_module
    from richelot_ctp.curve import build_pair
    curve = build_pair(1, *(K2431[g] for g in ("G1", "G2", "G3")))
    forms = count_calls(curve_module, "poly_integer_form", lambda args: args[0])
    places = count_calls(arith, "bad_places", lambda args: "S")
    assert main(["ctp", curve_file(K2431), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "certified"
    # the earlier run derived each G_i's form 134 times and each L_i's 96;
    # each SideData derives its factors' forms once, and G1 = x + 4862 is
    # also the quintuple map's factor x - w_1, so its form is derived twice
    assert set(curve.G).isdisjoint(curve.L)
    assert curve.G[0] == (-curve.domain_data.roots[0], 1)
    assert [forms[g] for g in curve.G + curve.L] == [2, 1, 1, 1, 1, 1]
    # and computed the bad places five times
    assert places == {"S": 1}


def test_a_ctp_run_samples_the_real_place_at_most_once_per_side(
        curve_file, capsys, count_calls):
    from richelot_ctp import curve as curve_module
    # keyed by the side's factors
    samples = count_calls(curve_module, "real_root_samples", lambda args: args[0])
    for data in (K2431, dict(TOY, label="irrational", G3=["6", "-5", "1"])):
        samples.clear()
        assert main(["ctp", curve_file(data), "--json"]) == 0
        capsys.readouterr()
        assert max(samples.values(), default=0) <= 1


@pytest.mark.parametrize("command", ["ctp", "selmer"])
@pytest.mark.parametrize("flag, value, message", [
    ("--precision", "0", "argument --precision: must be at least 1, not 0"),
    ("--val-bound", "-1", "argument --val-bound: must be at least 0, not -1"),
    ("--escalations", "-1", "argument --escalations: must be at least 0, not -1"),
    # the CLI writes nothing to disk, so it takes no cache directory
    ("--cache-dir", "DIR", "unrecognized arguments: --cache-dir"),
], ids=["precision", "val-bound", "escalations", "cache-dir"])
def test_an_invalid_search_flag_exits_2(curve_file, tmp_path, capsys, monkeypatch,
                                        command, flag, value, message):
    # --escalations -1 used to end in a KernelCheckError traceback, and the
    # other two were taken silently
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as stop:
        main([command, curve_file(CURVE113), "--json", flag, value])
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert message in captured.err
    assert not (tmp_path / "DIR").exists()


@pytest.mark.parametrize("command", ["ctp", "selmer"])
def test_the_smallest_search_flags_still_run(curve_file, capsys, command):
    assert main([command, curve_file(CURVE113), "--json", "--precision", "1",
                 "--val-bound", "0", "--escalations", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["config"] == {
        "precision": 1, "val_bound": 0, "escalations": 0}


@pytest.mark.parametrize("command", ["ctp", "selmer"])
def test_the_default_search_flags_give_the_default_config(command):
    import richelot_ctp.cli as cli
    from richelot_ctp.localpoints import SearchConfig

    assert cli._cfg_of(cli._parser().parse_args([command, "curve.json"])) == SearchConfig()


@pytest.mark.parametrize("argv", [["ctp", str(fixture_path("R15")), "--json"],
                                  ["verify-example"]], ids=["ctp", "verify-example"])
def test_a_closed_output_pipe_exits_1_with_nothing_on_stderr(argv):
    # the read end is closed before the command writes, so its first flush
    # fails with EPIPE: that used to end in a BrokenPipeError traceback
    import richelot_ctp.cli as cli

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run([sys.executable, "-m", "richelot_ctp.cli", *argv],
                             stdout=write_end, stderr=subprocess.PIPE, text=True,
                             env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])))
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (1, "")


def test_the_parser_is_built_once_and_carries_nothing_between_calls(curve_file, capsys):
    import richelot_ctp.cli as cli

    path = curve_file(CURVE113)

    def report(argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    assert report(["ctp", path, "--val-bound", "2", "--json"])["config"]["val_bound"] == 2
    assert report(["ctp", path, "--json"])["config"] == {
        "precision": 4, "val_bound": 6, "escalations": 2}
    assert report(["selmer", path, "--side", "phi", "--json"])["selmer"]["side"] == "phi"
    assert report(["selmer", path, "--json"])["selmer"]["side"] == "phihat"
    with pytest.raises(SystemExit) as stop:
        main(["ctp", path, "--json", "--no-such-flag"])
    assert stop.value.code == 2
    capsys.readouterr()
    assert report(["isogeny", path, "--json"])["curve"]["label"] == "k=113"
    assert cli._parser.cache_info().misses == 1


def test_importing_the_cli_leaves_verify_unloaded():
    # only `verify-example` needs the verification module, and no module
    # needs `dataclasses` (with `inspect` under it): a fresh interpreter,
    # since pytest itself loads both
    import richelot_ctp.cli as cli

    code = ("import sys, richelot_ctp.cli; print([m for m in "
            "('richelot_ctp.verify', 'dataclasses', 'inspect') if m in sys.modules])")
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout == "[]\n"
