"""`ctp --json` bytes pinned by hash.

The JSON report is a fixed point of every optimisation of the local search:
the same candidates in the same order give the same witnesses, so a change
to the arithmetic kernel must leave these bytes exactly as they are.
"""

import hashlib
import json

import pytest

from richelot_ctp.cli import main

CURVES = {
    "k=113": {"label": "k=113", "lambda": "1", "G1": ["226", "1"],
              "G2": ["0", "-678", "1"], "G3": ["-89383", "-678", "1"]},
    "fractional": {"label": "fractional", "lambda": "4", "G1": ["-1/2", "1"],
                   "G2": ["-1", "0", "1"], "G3": ["-12", "1", "1"]},
    "irrational": {"label": "irrational", "lambda": "1", "G1": ["0", "1"],
                   "G2": ["-1", "0", "1"], "G3": ["6", "-5", "1"]},
    # the `large_p` curves, whose singles tier reads generic blocks once per
    # unit class
    "A257": {"label": "A257", "lambda": "1", "G1": ["0", "1"],
             "G2": ["-1", "0", "1"], "G3": ["-66049", "0", "1"]},
    "A1009": {"label": "A1009", "lambda": "1", "G1": ["0", "1"],
              "G2": ["-1", "0", "1"], "G3": ["-1018081", "0", "1"]},
    # the `exhausting` curves, which spend every escalation, so the pool size
    # and each round's tier bounds act on them (both hashes are meant to
    # change once root centres come from the factors and they end certified)
    "B31": {"label": "B31", "lambda": "1", "G1": ["0", "1"],
            "G2": ["2", "-3", "1"], "G3": ["155", "-36", "1"]},
    "B97": {"label": "B97", "lambda": "1", "G1": ["0", "1"],
            "G2": ["2", "-3", "1"], "G3": ["485", "-102", "1"]},
    # the 6-root codomain
    "six-root": {"label": "six-root", "lambda": "2", "G1": ["-1", "1"],
                 "G2": ["30", "-21", "3"], "G3": ["-11", "-10", "1"]},
    # the rest of the benchmark corpus, under the labels its workloads give:
    # a sibling of k = 113 and the negative leading coefficient (`curves`),
    # and the k-family with 5 to 8 finite bad primes (`kfamily`)
    "k17": {"label": "k17", "lambda": "1", "G1": ["34", "1"],
            "G2": ["0", "-102", "1"], "G3": ["-2023", "-102", "1"]},
    "negative-lc": {"label": "negative-lc", "lambda": "-1", "G1": ["0", "1"],
                    "G2": ["-1", "0", "1"], "G3": ["-9", "0", "1"]},
    "k143": {"label": "k143", "lambda": "1", "G1": ["286", "1"],
             "G2": ["0", "-858", "1"], "G3": ["-143143", "-858", "1"]},
    "k2431": {"label": "k2431", "lambda": "1", "G1": ["4862", "1"],
              "G2": ["0", "-14586", "1"], "G3": ["-41368327", "-14586", "1"]},
    "k46189": {"label": "k46189", "lambda": "1", "G1": ["92378", "1"],
               "G2": ["0", "-277134", "1"], "G3": ["-14933966047", "-277134", "1"]},
    "k1062347": {"label": "k1062347", "lambda": "1", "G1": ["2124694", "1"],
                 "G2": ["0", "-6374082", "1"], "G3": ["-7900068038863", "-6374082", "1"]},
}

SHA256 = {
    "k=113": "af4587259fc0e0de94af4b827077e91ef7f91dd6571b9940cce2667eaa6647a3",
    "fractional": "c678f51ce4a20c7e4eef1e779c963c876f8dab743c4a71458326a18508bbb4fc",
    "irrational": "a31fd44d60b7bf5ff5cfea52f6cd627f4bb84231914828da8c6e28f1c6da9659",
    "A257": "091e714ea6a999fe5d285bde4f7afe022a210b2802d99453a1e1d3a5a63e8556",
    "A1009": "5bd436d639b6cca4055562d320c8323932339e1e3d93d55f7e5fc74cb182f4eb",
    "B31": "d99f4306b69c3f7ddd7115fb5aad4a527d9a20c2e795b4f5618614780583352f",
    "B97": "cbef049b9ddec2ced28f0af52a293f80b45ddff453f0ff4d3c4631cb3086e83a",
    "six-root": "a141544f08973b0e2e6ed8c3e41cf1a61f9244ffc0bce32a67659a63a1c60f4f",
    "k17": "0b225d50bbe188a7d5bd395e43966be1ce4b42b9a02e3416fca8a1e1eb874faf",
    "negative-lc": "4318fa8735df4be1c0cddca0d47e71fd915072c256f2d6010553eac00e96cb62",
    "k143": "c88c446a76f3dbaccb48ee42f45c98147cc252e13e3e3399d43140055a29af3d",
    "k2431": "ede3fa932cdb40bd343334a319f20731365babdd2d7ec5349435dab52971ace3",
    "k46189": "c44f12bd05a62e0e3033b5928034f3ebf7815dc784a98bc932c27c1e52732365",
    "k1062347": "e37d3cbbbddf1dfc423b09366cc4694fef26b52cc5c382203ceff12383de2c92",
}


# (exit code, stdout hash) under other search bounds: a smaller valuation
# window, and the smallest search, where most curves end heuristic (exit 3);
# pinned for the curves up to six-root
FLAGGED = {
    "--val-bound 2": {
        "A1009": (0, "1e8ee1fe19a152326de04cbb2e7e6b1dacbde7af9eadf562bb76ec3cc374aaa7"),
        "A257": (0, "0201bb6bd80b4a7136c00e370c7763ee969092ebf2878307480f15f6bc932ef0"),
        "B31": (0, "07cd033412f6bf019cde520f2be1069aab72662b0491c1cc8b357d3554d0336c"),
        "B97": (0, "842989209dd6683b8d6c431d27a6447dae295968e1ca91af869494a4c3f63e06"),
        "fractional": (0, "c0590bd6bb5969c9826c737e21a23c55ea14278c4a1e4dae2de385d75910d871"),
        "irrational": (0, "ed38e77996943c1defa10d4835a48b97c3d0a8373f9a72e16e5213955d236001"),
        "k=113": (0, "a07dbc6c359c6be3c307b08f8a3636b6b299b67c320d8bc7e83ac7432cd00329"),
        "six-root": (0, "05b9536c9ff863324b6d7660a615a34c4a8c9ba63b92c55b2b6979301d7adc2e"),
    },
    "--precision 1 --val-bound 0 --escalations 0": {
        "A1009": (3, "86c2dc70aaefb26d48d0f5dfab97e19a1da26c4d5bb6c0c9b15fed4a73f63068"),
        "A257": (0, "de50491d3a2d622dfbc5a9d66cb8d7d7410c1b864f2b2a5d732d5f458705acea"),
        "B31": (3, "2dc53f098c710755c1bd9b5f92d5dfdea21eae7184e63048488e71d28ba896b9"),
        "B97": (3, "49495f7f9d70da36e336e34d57dadb34c0f38579f962d223d668900f458dfee0"),
        "fractional": (3, "322e896772d048d1e7a36b07442c49fa6135ffbfa63755516c4a04d5c35d71a9"),
        "irrational": (3, "a2dc1cd6d562ff0ed2de7f3cf482aa993ff11564157526976639467dd820411c"),
        "k=113": (0, "5e0e7b4839cb0eb6533241080afa6df7f68c83943513d92895f30c6acb82eac0"),
        "six-root": (0, "b827bdbf732fe1593b22975a08c5edc7aaa7005a0b8e6080456df3821dc8ad58"),
    },
}


def ctp_json(label, flags, tmp_path, capsys):
    """The exit code and the sha256 of stdout of `ctp --json` on the curve."""
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(CURVES[label]))
    code = main(["ctp", str(path), "--json", *flags])
    return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(CURVES))
def test_ctp_json_bytes_are_pinned(label, tmp_path, capsys):
    assert ctp_json(label, [], tmp_path, capsys) == (0, SHA256[label])


@pytest.mark.parametrize("label", sorted(FLAGGED["--val-bound 2"]))
@pytest.mark.parametrize("flags", sorted(FLAGGED))
def test_ctp_json_bytes_are_pinned_under_other_bounds(flags, label, tmp_path, capsys):
    assert ctp_json(label, flags.split(), tmp_path, capsys) == FLAGGED[flags][label]
