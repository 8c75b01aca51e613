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
}


@pytest.mark.parametrize("label", sorted(CURVES))
def test_ctp_json_bytes_are_pinned(label, tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(CURVES[label]))
    assert main(["ctp", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SHA256[label]
