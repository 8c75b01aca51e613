"""`ctp --json` bytes pinned by hash.

The JSON report is a fixed point of every optimisation of the local search:
the same candidates in the same order give the same witnesses, so a change
to the arithmetic kernel must leave these bytes exactly as they are.  The
report less its `local_tables` is pinned apart: a local row depends on the
local points it is built from, but the Selmer groups, the matrix, the
descent and the status do not.  Text-mode `ctp` is pinned too, on a few
curves: its tables print the class representatives of every local row.
`isogeny` is pinned in both modes: it prints the kernel divisors.  So is
`selmer` for each side, which prints that side's group and status.  So are
partial `ctp --places` runs and the exit-2 error of a name that is no bad
place, which name the places they keep and list.
"""

import hashlib
import json
from pathlib import Path

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
    "k=113": "b4e1927dde15f8678b4b8b7a6eab915cff97779a0f984dcd0c1a3ece56c04668",
    "fractional": "66e3fd4d035b206924bc1f5d95ede12944cc12df0fe5de2562939c44f4f170bc",
    "irrational": "cd9bbbbb8625406ad156b218ab6cd32757846954ca09843201c41907fa346e20",
    "A257": "9c7725a8f2e18407060396e12273bea39062160abb421d196fafe1e1c85ef822",
    "A1009": "954c80cbc45b3efc8f9b3cca52b441d946fb3b9b63e44951c2856aeaca581a47",
    "B31": "840f4265a2ffd6ce3f738f4c0adf391366b348419d00f5e0477fe86f8188a969",
    "B97": "fdf365df259451f26034213b0fa42b5eaa5af73e72e3a18264b496baeb51aa87",
    "six-root": "6fe697178a1c631ed93dd77403b66aa716f0a1f987453daa9d8cda6a49f4c60e",
    "k17": "c326d5835b7fb827fd65820c3e9dfe33da8cfda964c0cb748d8d27cf5be2b3aa",
    "negative-lc": "a8ed4e5c45511558d5372b4eb8ed937211b6fcabe5ef0cfcc6a7adce6e2a0bb0",
    "k143": "284fc7ec53b91e67f88c4c3a3eb3a850572daeac37c2d45efd69c63de6886e00",
    "k2431": "ede3fa932cdb40bd343334a319f20731365babdd2d7ec5349435dab52971ace3",
    "k46189": "c7b1363ed4ed8d569a0f6ac2d8a8cad664ebbc55028a32f0cad3ffa1c27c4db2",
    "k1062347": "1ca215093429f87b5b20336bb9146351733822ac93f67383c83604edb2ec99f0",
}

# the same reports with their "local_tables" key removed
SHA256_WITHOUT_LOCAL_TABLES = {
    "k=113": "07052f7fb26dfbca519257e39d349b31344cb37fe380182facc87f27a926ca85",
    "fractional": "a1388d038bbf5422ad167b38fad734400408c2426c8ac651f78aa49e00488e25",
    "irrational": "2268c654f84a630aa82263485f1a9aaa9081bd89209b15129ee06f1a914ae587",
    "A257": "a495fe043b5413950041f7d64fd804b7b2409d2e5e7c2d59625ab79bf9fc5d86",
    "A1009": "201ca99752e5c2913c6ecfa5a606de8809670cb1a92be8d7210deaf155383b31",
    "B31": "cb0c69cf280a0013cd15bceb6b0d3bd3b6720acb1881fae247df7151a98be3d3",
    "B97": "60c0baba784f1716279b8c5c7173c6271e16a31884020450afa22730a1d288c1",
    "six-root": "c49868c2bd60d04305b534a0631f8098750036f5b4ffe6a2cbc080189b08a262",
    "k17": "6b43a95543e8349999f35a1912c2e08fed517df601155b4282539caa65c4d0f9",
    "negative-lc": "7c34b7e1ac22f7282ab0491ab472339da034220d3973204fbc82f4da078f4035",
    "k143": "af8955b053775efb5c3f13399611926c408a5a51084c83a1605c0ab70cfe26d8",
    "k2431": "886ead1b7189cb6421bd08b4dc79fc360dfdf2bb75b7005173c67652516e8671",
    "k46189": "0eb0e7a0f3f2cdb1661477cc5769f54e097e264eed30ad7889d761f1713bcb81",
    "k1062347": "34c651b2d2606c763e4c0d2e4f1e70e08c6c94321954f9870cb14fcba7b16857",
}


# (exit code, stdout hash) under other search bounds: a smaller valuation
# window; the smallest search, where most curves end heuristic; and a wide
# grid, where a block holds every unit mod 64, 81 and 125, so the singles
# tier cuts its generic blocks mid-way most often.  Pinned for the curves up
# to six-root
FLAGGED = {
    "--val-bound 2": {
        "A1009": (0, "7558a58183645f742605f6654bcefaeebfbf1e35d95bbc51991f14527e6627fa"),
        "A257": (0, "eacb8c4edd7af2f60eee50482d8af9a553aac9ed942a18496687f1c7feebff57"),
        "B31": (0, "a07386c2ba5114b8baeef9755fcdb635afbb677b61969fb2e03ebc29dde93f75"),
        "B97": (0, "0ce840783201238ef1427d45d91c0d9bdfd352694cfaf230282deeba2cd9b490"),
        "fractional": (0, "481f3726f0dd8b757bc1f4137196a8a0c89e6713c656d3c3200d4a59a4ade661"),
        "irrational": (0, "55d4ddbd9890610b22bfce18dfa0c15557a3d0b9c5d1c065eae8c7fcdf341866"),
        "k=113": (0, "903e9135d20cf13fa9a94ae8d52e60cf1e251af0d73cc792fcf499e24b3ed1b1"),
        "six-root": (0, "f612ac7de9ff2d4838e4a5a17ea02db62fa4d4bf0bc632768d961acf47c3c287"),
    },
    "--precision 1 --val-bound 0 --escalations 0": {
        "A1009": (0, "ed1af659086ecc850d1af7a1e7ad1f60bd99bcf664fb5ad3fd6f2b769f909fe5"),
        "A257": (0, "d5456b8a78a10fa6634f88f32645fdd131e8519b441462adb40b68f14e040019"),
        "B31": (0, "8ba524e32b05a0c265868db42e76e57b02e1690f5dc21a2d284de1bc0025b96c"),
        "B97": (0, "4cfd3a560ac07d41a2d697b9a03335a64d3f6cc27381b5117e62ac3f5e31b598"),
        "fractional": (0, "d002be4022bbdf3e8b24dcc9d1d660f032905243a084ac2b1938100c39d32a60"),
        "irrational": (0, "5b5c62132bd11ac5211affcca71c7628f9e16e2f494c59b82964fd075a36b2d7"),
        "k=113": (0, "664c369ffa3445d9c10252de392ebdd2f82d9a9353010898ee4fdc8116c22ec2"),
        "six-root": (0, "dfb6df153b936119f2f25dcf54b523c6be25f304f9daa3a02445223fed013949"),
    },
    "--precision 6 --val-bound 8": {
        "A257": (0, "1d6c2016e54c4379f3e996867986749ec6ae521413abaa54575a2a4da6b60943"),
        "B31": (0, "e6c3e211312a06b021fb67851782dab962fe553ac75c352a35e94a033c657d95"),
        "B97": (0, "32ab5d4f85035b617d22e3e9db6bacc52bb917b57a119ca9a23607266a6f547c"),
        "fractional": (0, "85ea71aaa30555b8ee3ec27a90333d843400d393545dc8b5818e8ac268da2501"),
        "irrational": (0, "5c764e7552e4116fa22d2e53b0e5bbf7794c74f6cf156a05c8bd242fdff65a9c"),
        "k=113": (0, "743e759438f1c0d7dc908cbbbf8efb9585e46b5d5674fa682f549742f0ee9e17"),
        "six-root": (0, "58fb9cc2737b51f686aa52eabda53a5b46befd01fed41826932334e635334ab3"),
    },
}


# the fixtures' `ctp --json` bytes; K32 is the k-family member at k = the
# product of the 28 primes from 11 to 131, with 31 bad primes and infinity,
# so its Selmer matrices stack places of dimension 1, 2 and 3 far past the
# nine places of the curves above
FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_SHA256 = {
    "R15": "45b63889937dd6ee6d7492fb02a13f332471964bd60613ed8eb1ae4fff51a095",
    "R18": "91da52b675e8574fdd3fb8084fdb12985267e44e41f88dc2e8c783413985a07b",
    "K32": "99b882851a2411153d982bf40794029635300799dd6d2a170850c12f633ce15f",
}

# text-mode `ctp` (no --json), whose tables print each local row's class
# representatives
TEXT_SHA256 = {
    "k=113": "8b0092da876f045bfbb87e04eeefa53333846878a56adacd810854d64032db79",
    "six-root": "07b52645451740121b284341a3a4fdbb522ff06ea25dfbac2ab5dd6d3a368ee8",
    "R15": "0c67fbb993892b3e33897f857baf22beff03f3a71c8a93f13b044e5752e90aa0",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def ctp_run(label, flags, tmp_path, capsys):
    """The exit code and stdout of `ctp --json` on the curve."""
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(CURVES[label]))
    code = main(["ctp", str(path), "--json", *flags])
    return code, capsys.readouterr().out


def ctp_json(label, flags, tmp_path, capsys):
    """The exit code and the sha256 of stdout of `ctp --json` on the curve."""
    code, out = ctp_run(label, flags, tmp_path, capsys)
    return code, sha256(out)


@pytest.mark.parametrize("label", sorted(CURVES))
def test_ctp_json_bytes_are_pinned(label, tmp_path, capsys):
    assert ctp_json(label, [], tmp_path, capsys) == (0, SHA256[label])


@pytest.mark.parametrize("label", sorted(CURVES))
def test_ctp_json_bytes_without_local_tables_are_pinned(label, tmp_path, capsys):
    code, out = ctp_run(label, [], tmp_path, capsys)
    report = json.loads(out)
    del report["local_tables"]
    assert code == 0
    assert sha256(json.dumps(report, sort_keys=True, indent=2)) == SHA256_WITHOUT_LOCAL_TABLES[label]


@pytest.mark.parametrize("flags, label", [(flags, label) for flags in sorted(FLAGGED)
                                          for label in sorted(FLAGGED[flags])])
def test_ctp_json_bytes_are_pinned_under_other_bounds(flags, label, tmp_path, capsys):
    assert ctp_json(label, flags.split(), tmp_path, capsys) == FLAGGED[flags][label]


@pytest.mark.parametrize("label", sorted(FIXTURE_SHA256))
def test_ctp_json_bytes_of_the_fixtures_are_pinned(label, capsys):
    code = main(["ctp", str(FIXTURES / f"{label}.json"), "--json"])
    assert (code, sha256(capsys.readouterr().out)) == (0, FIXTURE_SHA256[label])


def test_k32_answers(capsys):
    # [dim Sel^phihat, dim Sel^phi, radical dim, rank bound before, after, status]
    assert main(["ctp", str(FIXTURES / "K32.json"), "--json"]) == 0
    r = json.loads(capsys.readouterr().out)
    assert len(r["bad_places"]) == 32
    assert [r["selmer"]["phihat"]["dim"], r["selmer"]["phi"]["dim"], r["matrix"]["radical_dim"],
            r["descent"]["rank_bound_before"], r["descent"]["rank_bound_after"],
            r["status"]] == [4, 3, 2, 3, 1, "certified"]


@pytest.mark.parametrize("label", sorted(TEXT_SHA256))
def test_ctp_text_bytes_are_pinned(label, tmp_path, capsys):
    if label in CURVES:
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(CURVES[label]))
    else:
        path = FIXTURES / f"{label}.json"
    code = main(["ctp", str(path)])
    assert (code, sha256(capsys.readouterr().out)) == (0, TEXT_SHA256[label])


# partial `ctp --places` runs, whose tables and per-place entries name only
# the chosen places, and the exit-2 error naming the bad places: (curve,
# flags) -> (exit code, stdout hash, stderr hash)
PARTIAL_SHA256 = {
    ("k=113", "--places oo,3,113 --json"): (
        0, "1da1dbb430a23316b37ca9290f1f95d92dbd0d4df32c4719d4ce92075a17b74a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("k=113", "--places oo,3,113"): (
        0, "a411dda93d8dcf251e03cad942367e4d4545a633be7cf43809183592aa4d5eb2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("R15", "--places oo,2 --json"): (
        0, "72a39539dcfc80de4223af646269fcd6c33f8b464dd96b4e1155fc49cc3e6649",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("k=113", "--places 2,nope"): (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "1733cdf0e9d056152b435ebe23c8a52e7090387e90b066f62267a7a2d07c9e23"),
}


@pytest.mark.parametrize("label, flags", sorted(PARTIAL_SHA256))
def test_partial_ctp_bytes_are_pinned(label, flags, tmp_path, capsys):
    if label in CURVES:
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(CURVES[label]))
    else:
        path = FIXTURES / f"{label}.json"
    code = main(["ctp", str(path), *flags.split()])
    out, err = capsys.readouterr()
    assert (code, sha256(out), sha256(err)) == PARTIAL_SHA256[label, flags]


# `isogeny` output, which names the kernel divisors P_i and P_i' of both
# sides; a six-root domain model adds a domain without a point at infinity
# among its Weierstrass points and a codomain with two irrational factors
ISOGENY_CURVES = {
    **CURVES,
    "six-root-domain": {"label": "six-root-domain", "lambda": "1", "G1": ["6", "-5", "1"],
                        "G2": ["-1", "0", "1"], "G3": ["-16", "0", "1"]},
}
ISOGENY_JSON_SHA256 = {
    "A1009": "29990f8672c61123e091ef51826958e92d3d20a367f0b662905777fb04d52658",
    "A257": "1b957f23da43cc76ac13ccad9d0faf87eb795bd96f264c7a584f0df9d81244f8",
    "B31": "7a50fa2c24f35125faa3598b554954e5de7575533473713b9ae5af391fcae34c",
    "B97": "0b9713fac02beb5813d6c8b1baef17a3c382dbff1355dec2442c5940b8ea0d3c",
    "fractional": "c6e62c26e61392ffe25f40ee6f97655ab200086e86b26d90d2c58151e78298c7",
    "irrational": "e6b59aabb9a91cd4b4127e79cc8042271176d7863665027851ec7b6cddb88962",
    "k1062347": "b4608e417d2d0c30cae91e2795bb6d454db7a42037ef7f89d78fce9e163baf07",
    "k143": "41979818fd800c565231c8d8571a49a8d18ae79d9a5b181e3c1fea264c718a68",
    "k17": "735dd3505ef5a305d0e9799f34d7650e98cc0e09c01ade8c4abf8d4d268a3453",
    "k2431": "41f5c3522e37b87215c24bd1a892b4cf8b3ebdcc7d861cc24038e852130a7704",
    "k46189": "65c8e883b6f8268316f10c654132389dbb6060c34bee27c9657075b962460836",
    "k=113": "75ad0e6c490a109cafd4165c867695b7130c3a07cd036f427eb331f911ef1764",
    "negative-lc": "5b8bb2241e28dd352dec3eed95b5e385832d692419941a6fb6acf4e266aa6e06",
    "six-root": "ae0e1caf967bdfbd57c46c4c7b95bc054044c8c73bcda3449bb1d7628807eef8",
    "six-root-domain": "ef09b8d01f9e2f6667991b62b7e2ea2f2aa9473cb58d97ceb80d10b3bc48dc33",
}
ISOGENY_TEXT_SHA256 = {
    "A1009": "1d8a2f62d3b07d7de6f87bf5d98721c657e25ec6c70789a15c51bad08c9f7ee4",
    "A257": "bf4bc887a55869dec249cccb3a963ba5b36682e7f209258d192c2a3f59609c25",
    "B31": "84b271b425df0fd20d8390552ec40dbad57ef3f52707c37e858ff57556095c75",
    "B97": "475e2f2f26a906efe77db935682cd6751ca7833ef12010bcb108dcd0eab9b338",
    "fractional": "5d21fc717343d3c76c4b067864aee82bb024eebca7b80275b420213257b028c1",
    "irrational": "e4dcfdaa7c8fa1cc107b086c66efae8183857877643a185ec53afb98f88ade9f",
    "k1062347": "5b7b271a4852dfe6881025697cb851860f49eba6e60dbe045ee207fbaabbc4d7",
    "k143": "fd53603c4ac8d5be8e25f80e94f424ac3843aea222d638d52eeca1a68c22ff80",
    "k17": "703db6941dd208b6d3a0860ea052219a2c5ac8ec08b3221e18f11849d8a86212",
    "k2431": "ea7f4ece995308cc42e6ab62980bf7085eca04626efc6f8125132874c1e11aa9",
    "k46189": "6487eb73fec9733ac599f20d77211f61bfdb9997758db8537a32061f9bbdfd61",
    "k=113": "ec3a35ba3a99054418009ed55a1067f2a49ad4e13e957c60ed037d243a700be5",
    "negative-lc": "b70ac3573935b395460c2414f92b4c2b62d2aeb56ce91e295c5e59e3d17a43de",
    "six-root": "2d2dfe38260d9ab3bf6713ea7ef9551e98b66afdf1f5c9e2762ebe168b4779d5",
    "six-root-domain": "4c14d2dac647fdadb9c9370f0e4bdef0dc6794647c5501b23c65f8299581c813",
}


@pytest.mark.parametrize("label", sorted(ISOGENY_CURVES))
def test_isogeny_bytes_are_pinned(label, tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(ISOGENY_CURVES[label]))
    assert main(["isogeny", str(path), "--json"]) == 0
    assert sha256(capsys.readouterr().out) == ISOGENY_JSON_SHA256[label]
    assert main(["isogeny", str(path)]) == 0
    assert sha256(capsys.readouterr().out) == ISOGENY_TEXT_SHA256[label]


# `selmer --side phihat|phi` output, which prints one side's group: its
# basis, its known-point basis and its status; (curve, side) -> (--json
# hash, text hash)
SELMER_SHA256 = {
    ("A1009", "phi"): (
        "69f016ec07660e58a0ad800c8370ba0cb6eafc307c42a9970af940d76940c16d",
        "cef817ef11fa84cdcd6e1878236df836e4d3eb7f1cd24cda43294a991a5e6356"),
    ("A1009", "phihat"): (
        "6b3f5e53786ef601c64934d853bfca5a343e3611830c260263bfc4e00fa32070",
        "9edcd51663ca640ec9ea84f48d98861d47d6cc48019f266ec8db2b927e980530"),
    ("A257", "phi"): (
        "7382a6f47d3601cdc1e5a64076f9a6ddc23793484b0a9f5f46a06a7e07994ab3",
        "71bd3a8f557c1350b7a7a83a1adb113be6fcf9a96d4c89267fc99ba35b44901e"),
    ("A257", "phihat"): (
        "7c6622a0d1384463dcbfe34ef8ee363a19af714d2d29138d00214a6df68989b3",
        "d1101a8c685e5d9209b4aa63d72f45a0f3702af59a9ea2216aef59afc478c0b9"),
    ("B31", "phi"): (
        "4af7a1185a9087091b13891d7c846d53993640a4c8c0099a719720e24544cb75",
        "2070be31b9d68efcd51d18cc4bf857c19b0a7342b5db6bdcbcefc28f50382928"),
    ("B31", "phihat"): (
        "f01ae994b632c50fbdf017565b03db05d904944369d7d9457e264bd033cb40ff",
        "db37ca6eecceabe9cd251cb4beb382ad68dc7ae591abb3c299aa72203a20a57d"),
    ("B97", "phi"): (
        "ca29cad594267585c3a30dee12a8f4f4fdfba351548467ba660c0de49ba18995",
        "eb74d0f09549ca5793c5b77a7eb33df73cc4ae6fe83c0df7b885c2b6e5d2a338"),
    ("B97", "phihat"): (
        "b0728efe3f4eec006e6705b69bc906fd3a7d5df71ce552c9ed807b0fbbd8a0e4",
        "c704f68078c9f23c695471880aabfcca434e3b8da918b6f1a7314f5e88ec822b"),
    ("fractional", "phi"): (
        "5720c2fb5bafba5aefc9d29b9bf5748f25c93fceae0638936d3b6b7ed5daff83",
        "6a75ba502ae5d7a6b750c736cbf682f7f695f505e355e2057c94a39c12654c6f"),
    ("fractional", "phihat"): (
        "6f6073b982377c844cae718bb7fc9d600322b402281b4d75c4db8accfd026861",
        "23779475f057c52682bafa7b9f7b051f38715ee14073bb4303d3790d51457c71"),
    ("irrational", "phi"): (
        "8f833b2180f4cbef529f34cdc8168503968799a413bc78ae67eb6f6a17800226",
        "fceddc751ca34a5ec28dac4c941f3c8dec926aad0f66fa732b01f40b0f18ee32"),
    ("irrational", "phihat"): (
        "dde4cdfbdb32aed0e164d3c6a237bec003c77d3541f1b2f6afcedd2caead9a26",
        "53afc61259a7d86960d073b9d5ba411fe46fc9a41ed988497ccc04a6f0f0a859"),
    ("k1062347", "phi"): (
        "36d868f297df0c050d43d1bd98112cd19427942a8f5094f56e8cfada386198a7",
        "775df219a56ee56421b7eafbb4fac6a6bcaffdd6dc2824ad36874f987ee31ea0"),
    ("k1062347", "phihat"): (
        "04486f5902d889785a1892498b0d0d307a19f4a9da696431b4304d8b9a9fda23",
        "ae0eb55b78713629acdd213dc9f2660a5c969e4bb71c44963b3ea13d25581e4e"),
    ("k143", "phi"): (
        "24ff18d61e47f7bbde6b10d5d34f9a3b89f339940080fb0b3f09c1c556db0464",
        "584d275526601a7cb215704dbf63c9768dfb59c691af78fc78ea75317482dbd3"),
    ("k143", "phihat"): (
        "e1c769d1b0ab7aa34f4148ab284d37dcad1ad3ae63ad2775eb27a09988193a28",
        "3c7c3bb4a9f7ff129f34aed7a8cb42f647c4aa4286db583ebab983b2365981df"),
    ("k17", "phi"): (
        "2a81293d96c9e87800782cfdccd57d31cc8666c6026edead3c2478948409ad1e",
        "8d5fe58f045b9ef4ef5553df33793eab6a02b2270bae7ba152e2f30f586e1963"),
    ("k17", "phihat"): (
        "0ba1d8266390d83a03f9c0f770229a862b72c9012c4061a99b0aeed27ce17bb3",
        "59bf9ea1f7ee67b5cd00498ad3e72c4a91a0148242b308fd49d612d0f9a02a1e"),
    ("k2431", "phi"): (
        "606771c142b9e95e7a99a0d5fa3034f7391a574f415cd53de198897684e10fc8",
        "4ef802edd4f12acc5718d7a90fa7ee457a9dc36ca0cf17d38a3d43cd83d56d00"),
    ("k2431", "phihat"): (
        "80972d105715fb0095ed469c4a07fb535a794d495edb29f8d70a85e0eefa3dc9",
        "81dc2a53892fb9894faf624e83e4ef3570b98345138376cb98a12cc05a57c5b5"),
    ("k46189", "phi"): (
        "cee362a1f0eaf6fb06b6252266efb10bdda1d8e33f9646d69368b76fff4d6d3d",
        "e077b8598c96e823f6220d7b0880da36e3173b57f9b0d32ca521315e87975aef"),
    ("k46189", "phihat"): (
        "d552490de9dade542f35ea2ddde8594fb3ad2f708fbd1adbb87b45704d904c14",
        "6681a2429de2d4e7358f55dba7ff5a0a8a67e38d4d9962f096a99dd974803c4d"),
    ("k=113", "phi"): (
        "dbd9376f13067b3d29123b4b908d6051cad0e4cdf3eef1b87ddeca3a520aa1f4",
        "d38f7f1aecd21a8fe1e103fdd1a5c812353d3f51d985d8404375719137d01343"),
    ("k=113", "phihat"): (
        "31d03c0f049e4c0b0e5c5da558edfa077085de2fd6d7e59feff412616f18f97c",
        "cf60bb43b30f275bd048e467263f650d00802e3aeebffa18d52cf57097d9546a"),
    ("negative-lc", "phi"): (
        "ddcdab4c83607e19ccf89dba9f4b049124fdba4a998bd02009b1689491e1b528",
        "e1d81d86461e41139c70cc6044bc38ee86ce48a01319b699f0de8fcedb27e95d"),
    ("negative-lc", "phihat"): (
        "836c8713a253a38990910f17bac00666cc7a02bacd723289a86de8105c51e0af",
        "b85522a1e89cb53e90ffed07608d2fcf85414066fe0aa200dcb9cc4b274bec24"),
    ("six-root", "phi"): (
        "34382604b4dd305e65260b699c8a0bfdac8ad5602ce3b3ace864005aacb23f70",
        "60068b8d24dd5ad69593c91954570f51b439338ae17317cce3c8e9f20c16d81e"),
    ("six-root", "phihat"): (
        "442e7d57933c4609d655a2555674f6310f4c4406550a2976b2d2d291b98e33a6",
        "d128aa55b6ffb74acbd748cfb74ca2cc0d2fb3c0e7b99f4e99beddfb432be4d6"),
}


@pytest.mark.parametrize("label, side", sorted(SELMER_SHA256))
def test_selmer_bytes_are_pinned(label, side, tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(CURVES[label]))
    json_sha256, text_sha256 = SELMER_SHA256[label, side]
    assert main(["selmer", "--side", side, str(path), "--json"]) == 0
    assert sha256(capsys.readouterr().out) == json_sha256
    assert main(["selmer", "--side", side, str(path)]) == 0
    assert sha256(capsys.readouterr().out) == text_sha256
