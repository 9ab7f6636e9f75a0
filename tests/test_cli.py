"""Command-line interface: formats, exit codes, determinism."""

import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
import unicodedata
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from oracles import (
    NotDivisible,
    Poly,
    bounds_doc,
    bounds_row,
    build_parser,
    enumerate_rows,
    grid_reports,
    parity_doc,
    parity_json,
    parse_reference,
    verify_tsv,
)

from weilparity.bounds import BoundsReport, full_bounds_report
from weilparity.cli import run
from weilparity.cyclotomic import _check_cap, cyclotomic
from weilparity.enumerator import G_CAP, primes_between, verify_parity_theorem
from weilparity.errors import BrokenInvariant, OutOfRange, ParseError
from weilparity.intpoly import IntPoly
from weilparity.weil import WeilParams, minpoly_full_degree

# The library's one product, which only candidate_shapes runs: the tests
# below guard its construction and its product.
LIBRARY_POLY = IntPoly


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_command_lines() -> list[list[str]]:
    """The words of each line of the README's "Command line" block."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()]


def test_readme_command_lines_run(monkeypatch, tmp_path, capsys):
    # each line of the README's "Command line" block runs as written
    lines = readme_command_lines()
    assert lines and all(words[0] == "weilparity" for words in lines)
    assert ["weilparity", "cyclo", "12"] in lines
    (tmp_path / "polys.txt").write_text("5 0 1\n")
    monkeypatch.chdir(tmp_path)
    for words in lines:
        code, out, err = invoke(capsys, words[1:])
        assert (code, err) == (0, ""), words
        if words[1:] == ["cyclo", "12"]:
            assert out == "1 0 -1 0 1\n"


def test_cyclo_tsv(capsys):
    code, out, _ = invoke(capsys, ["cyclo", "12"])
    assert code == 0
    assert out == "1 0 -1 0 1\n"


def test_cyclo_structured(capsys):
    code, out, _ = invoke(capsys, ["cyclo", "12", "--format", "structured"])
    assert code == 0
    assert json.loads(out) == {"n": 12, "coeffs": [1, 0, -1, 0, 1]}


def test_cyclo_text_is_read_off_the_radical(capsys):
    # Phi_n is printed from Phi_rad(n) and k = n / rad(n), never built; its
    # text must be that of the polynomial built whole, as it was printed before
    for n in [*range(1, 3001), 2 ** 19, 3 ** 12, 5 ** 8, 7 ** 7]:
        poly = cyclotomic(n)
        expected = {
            "tsv": " ".join(map(str, poly)),
            "structured": f'{{"n": {n}, "coeffs": [{", ".join(map(str, poly))}]}}',
        }
        for fmt, text in expected.items():
            assert invoke(capsys, ["cyclo", str(n), "--format", fmt]) == (0, text + "\n", ""), n


# Input files of the golden `bounds` runs; "@name" in an argv is its path.
GOLDEN_FILES = {
    "mixed": "# g=1 p=5 n=1: rows failing each check in turn\n5 0 1\n\n-5 0 1\n5 1 1\n5 7 1\n5 5 1\n",
    "comments": "# nothing but comments\n\n",
    # g=3 p=37 sits between C(6,1)**2 = 36 and C(6,3)**2 = 400: rows with every
    # a_k = 0, a nonzero odd a_3 (allowed) and a_1 (not), the negative-sign
    # functional equation, and rows failing each bound at n = 1 and at n = 3
    "g3": (
        "# g=3 p=37\n"
        "50653 0 4107 0 111 0 1\n"
        "129961739795077 0 7697179227 0 151959 0 1\n"
        "-50653 0 -1369 0 37 0 1\n"
        "50653 0 0 0 0 0 1\n"
        "\n"
        "50653 0 0 1369 0 0 1\n"
        "50653 1369 0 0 0 1 1\n"
        "50653 50653 0 0 0 37 1\n"
        "50653 0 37 0 1 0 1\n"
        "50653 0 0 0 -999 0 1\n"
        "50653 0 0 0 50653000000 0 1\n"
    ),
    # g=3 p=401 sits past C(6,3)**2 = 400, so a_1 and a_3 must both vanish:
    # rows with neither, either or both nonzero, a nonzero a_2 passing every
    # bound, a row failing only the valuation bound, and the negative sign
    "g3p401": (
        "# g=3 p=401\n"
        "64481201 0 0 0 0 0 1\n"
        "64481201 0 160801 0 401 0 1\n"
        "64481201 160801 0 0 0 1 1\n"
        "64481201 0 0 160801 0 0 1\n"
        "64481201 0 0 7 0 0 1\n"
        "64481201 160801 0 7 0 1 1\n"
        "64481201 0 1203 0 3 0 1\n"
        "-64481201 0 0 0 0 0 1\n"
    ),
    # g=10 p=23 n=3: every 6th enumerated candidate, some perturbed (see its header)
    "g10": (Path(__file__).parent / "data" / "bounds_g10_p23_n3.txt").read_text(),
}

# (argv, format) -> (sha256 of stdout, exit code).  The cyclo digests were
# recorded with the divisor-quotient construction that preceded the sparse
# one, the others before the per-subcommand serializers were merged; the
# p = 2 enumerate and the --pmax 40 verify entries were recorded with the
# per-candidate construction that preceded the shared shapes, and the g = 3
# bounds entries with the per-check functions that preceded the one-pass report.
# The entries at Python's 4300-digit limit were recorded when the CLI still
# did all the work before it failed to print.
GOLDEN = {
    (("cyclo", "1"), "tsv"):
        ("3aebd7327cb0c84b85ce4dfd301187d864a30cd0980162ef877d9e78be39d47f", 0),
    (("cyclo", "1"), "structured"):
        ("82e191ae3ad41f11f3e45bf3545feaa327e68790dfa5de4639fbf92a243ed0e7", 0),
    (("cyclo", "2"), "tsv"):
        ("3f11ad6bbc7ecca0b2416b713dee77f1a635c00aaeaa946e14cde1c2bfae56d5", 0),
    (("cyclo", "2"), "structured"):
        ("c68f20e508a84da78564786c42a71896c626404fe80f6647a85ed78eafd6b03c", 0),
    (("cyclo", "4"), "tsv"):
        ("793d9bd36e14dbedbdcb9a2183698b5f406276f9c3aebc41d6aff3b0839fe374", 0),
    (("cyclo", "4"), "structured"):
        ("03931aef96ed960b2002388039f821138652e7e29bcc9d685508e001fa9a98fc", 0),
    (("cyclo", "12"), "tsv"):
        ("a711587f931ab78be0eed87745f0c4c5e7c51c540ac775f791cb048a90611466", 0),
    (("cyclo", "12"), "structured"):
        ("0adabe6347b4ef28e706775e0833c8baa1cd7f682cb71d6559c754bc34ef9e94", 0),
    (("cyclo", "105"), "tsv"):
        ("5cda749b0ce827ae413f2d975ba4b94dc48b23fc6cc3a7ab98321f45e7a9f76d", 0),
    (("cyclo", "105"), "structured"):
        ("207e16a01be2ee69e94485e42931fba81a14d839cffc90f6f16fce974ffa21c8", 0),
    (("cyclo", "4096"), "tsv"):
        ("6627c6f8f960ca1cdc94e74c325ae7fe0edbd7bc687eb949fac44fc46705a7d8", 0),
    (("cyclo", "4096"), "structured"):
        ("3e24cb13eba30d59df7ee67cab1b0d69e66bed2e7f0320ff63ad831070219c9d", 0),
    (("cyclo", "30030"), "tsv"):
        ("3ce7c190c78f696d090eec102f790737850c9a96895d19c2cb3ae0f921d5ccd6", 0),
    (("cyclo", "30030"), "structured"):
        ("97d71cd6f0e44e5bdbeb87216b24aeba4dcb6fe545988899b415c967f244935b", 0),
    (("cyclo", "59049"), "tsv"):
        ("a9065e3219abf261ce5280182b4e866427497a5cce61aa1593212d13b70d6f0a", 0),
    (("cyclo", "59049"), "structured"):
        ("624a4404d6b3e3bc73058e6a9d822f096cc40a37be7e22840f68c765ff26e938", 0),
    (("minpoly", "--p", "5", "--n", "1", "--sign", "+", "--t", "1"), "tsv"):
        ("04e124808068541f9510b0563dc2ad578ae5f579c56edc1f6c644d679d6c023c", 0),
    (("minpoly", "--p", "5", "--n", "1", "--sign", "+", "--t", "1"), "structured"):
        ("24edddebb2561f1b7887d668ac546769787d92b7baadc0521a15969816626ea6", 0),
    (("minpoly", "--p", "7", "--n", "3", "--sign", "-", "--t", "3"), "tsv"):
        ("c57a2b5af079f33462763ed2455065e52106f6dc49501af5fa1db941458561aa", 0),
    (("minpoly", "--p", "7", "--n", "3", "--sign", "-", "--t", "3"), "structured"):
        ("670cf9256afeb5fc2788b08d74e057bb252e4bf13f9a424980d0384aa18dacff", 0),
    (("minpoly", "--p", "7", "--n", "1", "--sign", "+", "--t", "7"), "tsv"):
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    (("enumerate", "--g", "1", "--p", "5", "--n", "1"), "tsv"):
        ("049619bc69d012711477c7e181fc120cc3ceae110001a0e4d0e64e5068b08477", 0),
    (("enumerate", "--g", "1", "--p", "5", "--n", "1"), "structured"):
        ("21c12067176ef14d30f0db63f22989544cc9af21d822a8949eeb0a4192a32510", 0),
    (("enumerate", "--g", "2", "--p", "3", "--n", "1"), "tsv"):
        ("4299435bb5725d8e532262319b2dc599c312ea84bd00d5eb2423b40184a2f5a9", 0),
    (("enumerate", "--g", "2", "--p", "3", "--n", "1"), "structured"):
        ("244019aa074a2eea2a29591b99d0dde7d1297b9580c0d0e4705384a2bb833eac", 0),
    (("enumerate", "--g", "3", "--p", "5", "--n", "1"), "tsv"):
        ("2f6c1a237c798accf33f0fca372192027cf7017174a1bc08ede99fadec5d7099", 0),
    (("enumerate", "--g", "3", "--p", "5", "--n", "1"), "structured"):
        ("576fd21588fe0250c0ce87e64477dbe0f5c49a30ab72e1c55d4463c851bb7b3d", 0),
    (("enumerate", "--g", "3", "--p", "11", "--n", "3"), "tsv"):
        ("933d019d083f02c018d49feadb65660daf79dbd1cfde5f373faa5ef19133b96f", 0),
    (("enumerate", "--g", "3", "--p", "11", "--n", "3"), "structured"):
        ("a63881acd0695147aefe89d4b95ed7ca63bf992fd1828cda7c306bf1259e24dd", 0),
    (("enumerate", "--g", "2", "--p", "2", "--n", "1"), "tsv"):
        ("27d296a9903622325f2dff9862ac9c0db0e8e472ff31f05375166e83090db328", 0),
    (("enumerate", "--g", "2", "--p", "2", "--n", "1"), "structured"):
        ("2253a1e29961dce0084a47c87aa7ed4db8d2f73f86288b66942476af4d43d613", 0),
    (("enumerate", "--g", "3", "--p", "2", "--n", "3"), "tsv"):
        ("29a8fd62f2e0ea86e2fe1c1fb255b72bc0c0d0b7a02fb975f5a0f86715e43a06", 0),
    (("enumerate", "--g", "3", "--p", "2", "--n", "3"), "structured"):
        ("57e919497a2adf1727aa4f2abe668c0414935dbaa1d0350f8591ad8001321708", 0),
    (("detect-half", "--g", "1", "--p", "2", "--n", "1"), "tsv"):
        ("1e8de20106f6be6767afba95a6378dc3eecb7c9189eb17df7f5c582a91b15a55", 0),
    (("detect-half", "--g", "1", "--p", "2", "--n", "1"), "structured"):
        ("a1cb5fa3c2cf64c73fafebba13b851012517824c065ce2492df33db349e1186d", 0),
    (("detect-half", "--g", "3", "--p", "5", "--n", "1"), "tsv"):
        ("d19dca5f49d79b577383ad91a3df0a881087276227f9e9395df03c17cfc9173f", 0),
    (("detect-half", "--g", "3", "--p", "5", "--n", "1"), "structured"):
        ("a1f1ddb83d06284b359184f5f2015d41244e5ba868ae68634e4f78c8a4e841c1", 0),
    (("detect-half", "--g", "3", "--p", "11", "--n", "1"), "tsv"):
        ("731c8541448084306281e60ae75efe42a53bddd8adcc9c994322053feb29b11e", 0),
    (("detect-half", "--g", "3", "--p", "11", "--n", "1"), "structured"):
        ("40fbd5f5abcb3ec263bf62160a95ff5204d60be8413fe7da774b5d975636fb88", 0),
    (("verify", "--gmax", "1", "--pmax", "7", "--n", "3"), "tsv"):
        ("1dba2e40fa67ed27080e15ee1cf40e641747c2526a758ccedb8b9aa2a28e6fc9", 0),
    (("verify", "--gmax", "1", "--pmax", "7", "--n", "3"), "structured"):
        ("64fc06252e2f7e5e55b497870f0776115aff1ccd79931515050c9aa317865651", 0),
    (("verify", "--gmax", "2", "--pmax", "13", "--n", "1", "--n", "3"), "tsv"):
        ("7279934c71df81b47cef9aa38c4e91132071a713ca85d71d06bc9d083becd85d", 0),
    (("verify", "--gmax", "2", "--pmax", "13", "--n", "1", "--n", "3"), "structured"):
        ("bc1a6d1f013df86ed52fe27bd0a325e024e00b8e0d50cefaf32e1fcc956a2af8", 0),
    (("verify", "--gmax", "3", "--pmax", "40", "--n", "1", "--n", "5"), "tsv"):
        ("9fe4404f838a8febde7d8ec48935b0fccf262a09779c4f9740a6d6eb0dc16926", 0),
    (("verify", "--gmax", "3", "--pmax", "40", "--n", "1", "--n", "5"), "structured"):
        ("5f1b0e32c1ea0254b3e29d4ede4af5d803df5de8f6006cf33f2accf94ca8d8fe", 0),
    (("verify", "--gmax", "3", "--pmax", "3", "--n", "1"), "tsv"):
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    (("bounds", "--g", "1", "--p", "5", "--n", "1", "--file", "@mixed"), "tsv"):
        ("6feff47e6fb01ae41df52b7bee818c117a4b7da611270b8e3729e889417c266e", 0),
    (("bounds", "--g", "1", "--p", "5", "--n", "1", "--file", "@mixed"), "structured"):
        ("310220b95d69a2ce2e8f222cb0c34b13deb71165b2d2cd21611a726c1194de46", 0),
    (("bounds", "--g", "1", "--p", "5", "--n", "1", "--file", "@comments"), "tsv"):
        ("3f5387eb2594745edba8d3a36e88f54c28a3eb2e9462c05183fcefb9b100720a", 0),
    (("bounds", "--g", "1", "--p", "5", "--n", "1", "--file", "@comments"), "structured"):
        ("37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570", 0),
    (("bounds", "--g", "1", "--p", "5", "--n", "2", "--file", "@mixed"), "tsv"):
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    (("bounds", "--g", "3", "--p", "37", "--n", "1", "--file", "@g3"), "tsv"):
        ("c2c847c540bd53413a3ec1072d0149482ce707270236816e35b8233ae76079b2", 0),
    (("bounds", "--g", "3", "--p", "37", "--n", "1", "--file", "@g3"), "structured"):
        ("ad7ab9b7e2eba6b0f08958e7af81dc6d2094349522e7ba6ef862ce0c2cd7910d", 0),
    (("bounds", "--g", "3", "--p", "37", "--n", "3", "--file", "@g3"), "tsv"):
        ("9a242fb23e3726e05060f86c8a54f14f6459178376d1f787cb85309f0d331513", 0),
    (("bounds", "--g", "3", "--p", "37", "--n", "3", "--file", "@g3"), "structured"):
        ("f185b1798092294fcd11fdc997b59476c1c68cb2f9dd4d84a5d58be84dc75c86", 0),
    # recorded with each row rendered through json.dumps and tuple fields
    (("bounds", "--g", "3", "--p", "401", "--n", "1", "--file", "@g3p401"), "tsv"):
        ("ba7f1df37d0be55240d625746628cdf93cb80d4a3131fd593c3f26f815f0b02e", 0),
    (("bounds", "--g", "3", "--p", "401", "--n", "1", "--file", "@g3p401"), "structured"):
        ("c4e442a18e27d30d76114adefed78e2edf69507a06514d6ef7d2673c5f065fcd", 0),
    # recorded with a check object per a_k, and a file parsed through IntPoly
    (("bounds", "--g", "10", "--p", "23", "--n", "3", "--file", "@g10"), "tsv"):
        ("615d61c71c6a33811838ff10291450cc2ee6fbab06d4e89bce72941e863d9ab0", 0),
    (("bounds", "--g", "10", "--p", "23", "--n", "3", "--file", "@g10"), "structured"):
        ("036460056d268ecf02cf702a520fb5228dd0d6a5ff9d2b03331e2aef0fb16284", 0),
    # Python prints no integer of more than 4300 digits (its default
    # int_max_str_digits); these cells sit on each side of that limit.
    (("minpoly", "--p", "23", "--n", "801", "--sign", "+", "--t", "5"), "tsv"):
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    (("minpoly", "--p", "23", "--n", "801", "--sign", "+", "--t", "5"), "structured"):
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    (("minpoly", "--p", "23", "--n", "801", "--sign", "+", "--t", "3"), "tsv"):
        ("8bee992a05f8274c15dfb10bef375cbdeef5fecac5220b6dcf9d2803d9587e27", 0),
    (("minpoly", "--p", "23", "--n", "801", "--sign", "+", "--t", "3"), "structured"):
        ("9a47124bdf0120614a46b824e1174c3ed79b745dce8acc66660dbe8dd43f843e", 0),
    (("enumerate", "--g", "1", "--p", "23", "--n", "3159"), "tsv"):
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    (("enumerate", "--g", "1", "--p", "23", "--n", "3159"), "structured"):
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    (("enumerate", "--g", "1", "--p", "23", "--n", "3157"), "tsv"):
        ("d1042f4f1219da6cc7fba9d092740b43905f6be890419e19dfc31a03b5989293", 0),
    (("enumerate", "--g", "1", "--p", "23", "--n", "3157"), "structured"):
        ("a0ef9836bb5f172d4667c24979a0a4af2175b13206e46bc073b05aa3b02254cc", 0),
    (("verify", "--gmax", "1", "--pmax", "5", "--n", "6153"), "structured"):
        ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    (("verify", "--gmax", "1", "--pmax", "5", "--n", "6151"), "structured"):
        ("99173e6353a78f7afc164a8fd5001d3b1078e5e95879940dbd7c35f090f45998", 0),
    (("verify", "--gmax", "1", "--pmax", "5", "--n", "6153"), "tsv"):
        ("a4b6ed0f8abcb76ac4d7812aa64fc28540f73900fdee3e0cdff2dd8b0be81b67", 0),
    # recorded when verify still expanded every candidate of every cell,
    # and the t-scans ran in full for each cell
    (("verify", "--gmax", "10", "--pmax", "40", "--n", "1", "--n", "9"), "tsv"):
        ("bdbdb39a6af3ad7a62f0d8dd7220bed9eea5abafd68bd0c0da71297ee567ee04", 0),
    (("detect-half", "--g", "10", "--p", "11", "--n", "1"), "tsv"):
        ("101c03f83d9fe4240988e949f9633d0a2ca6386f7e5b26cbf691968f58938747", 0),
    (("detect-half", "--g", "10", "--p", "11", "--n", "1"), "structured"):
        ("9fc434f989d42de74f5432fbbdae259f3b3ee7286bdb90d3d46d84ea9dc1c9e6", 0),
    # cells below 2g+1 where both spec lists are non-empty, recorded with
    # the separate full-degree and half-degree t-scans
    (("detect-half", "--g", "10", "--p", "3", "--n", "3"), "tsv"):
        ("45a7a5539a08cd8f807b979581b4c31a6eddbfe3ee8fd7dd549be72fbfb8657b", 0),
    (("detect-half", "--g", "10", "--p", "3", "--n", "3"), "structured"):
        ("38014c9f0a5d79c2c040a2420f5b92b5524f27b856f11b3309dab48f09f5ee81", 0),
    (("enumerate", "--g", "4", "--p", "3", "--n", "1"), "tsv"):
        ("b032fa5ecde588fbbc2fda0b7332937d777be41f588c69885fe58bc33538fcce", 0),
    (("enumerate", "--g", "4", "--p", "3", "--n", "1"), "structured"):
        ("6b107356d947e93e5f8bd02170eec2f91c02c5bc7027adff252fe8fb078d6ca1", 0),
    # recorded when structured output was one json.dumps of the whole grid
    (("verify", "--gmax", "5", "--pmax", "60", "--n", "1", "--n", "3"), "structured"):
        ("b88ab04423f6fd2bf3bca8f07e2bcf570ebe3e21fc4cbb3f67dac829272e4599", 0),
    (("enumerate", "--g", "6", "--p", "17", "--n", "3"), "structured"):
        ("a700fad711fffc3891fd8d78ca708fd0bee400d8ba21702c6205b85a76ff6aa5", 0),
    # recorded when each cell scaled every candidate shape by its q and
    # converted every coefficient to decimal; g = 8 at p = 7 has half-degree specs
    (("enumerate", "--g", "10", "--p", "23", "--n", "3"), "tsv"):
        ("436a4f659d2b5919eeba6cf5db82b7cf278387dedd0ca5b47bd167c916c3d35b", 0),
    (("enumerate", "--g", "10", "--p", "23", "--n", "3"), "structured"):
        ("076b99b569082068ef75d3986f872d860e1857a3a6d3626e74ffd67948d2f261", 0),
    (("enumerate", "--g", "8", "--p", "7", "--n", "1"), "tsv"):
        ("35053a02d2cd2895d73b0245f3b0cae8d8c723e46f3774dae39fef84e547a18b", 0),
    (("enumerate", "--g", "8", "--p", "7", "--n", "1"), "structured"):
        ("bd60c03ce7a2829e3f633e4a4042de0bda260c6e030e9db221864b271d3dc681", 0),
    (("verify", "--gmax", "10", "--pmax", "60", "--n", "1", "--n", "3"), "structured"):
        ("7636e586270f79beb16a86c266a439ad3853aaa7316175d27cccdcf4509f0904", 0),
}


def golden_run(capsys, tmp_path, argv, fmt):
    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    code, out, _ = invoke(capsys, [*argv, "--format", fmt])
    return hashlib.sha256(out.encode()).hexdigest(), code


@pytest.mark.parametrize("n, fmt", sorted((int(a[1]), f) for a, f in GOLDEN if a[0] == "cyclo"))
def test_cyclo_golden_digests(capsys, tmp_path, n, fmt):
    key = ("cyclo", str(n)), fmt
    assert golden_run(capsys, tmp_path, *key) == GOLDEN[key]


@pytest.mark.parametrize(
    "argv, fmt",
    [pytest.param(a, f, id=f"{' '.join(a)} {f}") for a, f in GOLDEN if a[0] != "cyclo"],
)
def test_golden_digests(capsys, tmp_path, argv, fmt):
    assert golden_run(capsys, tmp_path, argv, fmt) == GOLDEN[argv, fmt]


# TSV runs past the enumeration cap G_CAP = 10, each recorded with the cap
# lifted (exit 0); with the cap in place each is exit 2
GOLDEN_PAST_THE_CAP = {
    ("verify", "--gmax", "12", "--pmax", "40", "--n", "1", "--n", "3"):
        "eec2dbc2d93ebaacba0713f616e4bdccbb44ea76209bf1cfca001fa2554b7ae3",
    ("verify", "--gmax", "20", "--pmax", "60", "--n", "1"):
        "525a714565e8e54769ddcd61b6bb6b870f50f7e6f49c26ec5e9ce0bc26369d6d",
    ("detect-half", "--g", "20", "--p", "13", "--n", "3"):
        "c4e788485f3a2ad22695a72786fbc9117b8d1ab04e80731eaf0e77c947b64eea",
    ("verify", "--gmax", "40", "--pmax", "100", "--n", "1", "--n", "3"):
        "955eec511a415a4138503979219f67a4eac831bf4565ec11ea0f519913c20d80",
    ("detect-half", "--g", "40", "--p", "41", "--n", "3"):
        "08d2d2b5b8215dae4b294bce0c0e3186460078d53db4a3433bbfca7c241c2bab",
}


@pytest.mark.parametrize("argv", [pytest.param(a, id=" ".join(a)) for a in GOLDEN_PAST_THE_CAP])
def test_golden_digests_past_the_cap(monkeypatch, cold_caches, capsys, tmp_path, argv):
    # the t-list and the counts past g = 10; cold_caches drops what the
    # lifted cap let in, so no later test finds a t-list above the cap
    import weilparity.enumerator as enumerator

    monkeypatch.setattr(enumerator, "G_CAP", 40)
    assert golden_run(capsys, tmp_path, argv, "tsv") == (GOLDEN_PAST_THE_CAP[argv], 0)


def test_cyclo_out_of_range(capsys):
    code, _, err = invoke(capsys, ["cyclo", "2000000"])
    assert code == 2
    assert "error" in err


def test_minpoly(capsys):
    code, out, _ = invoke(capsys, ["minpoly", "--p", "5", "--n", "1", "--sign", "+", "--t", "1"])
    assert (code, out) == (0, "5 0 1\n")
    code, out, _ = invoke(capsys, ["minpoly", "--p", "7", "--n", "1", "--sign", "-", "--t", "3"])
    assert (code, out) == (0, "49 0 7 0 1\n")


def test_minpoly_half_degree_exits_2(capsys):
    code, _, err = invoke(capsys, ["minpoly", "--p", "7", "--n", "1", "--sign", "+", "--t", "7"])
    assert code == 2
    assert "half degree" in err


def test_cap_errors_name_the_flag(capsys):
    # p and 2t are factored by trial division and 2t indexes a cyclotomic
    # polynomial; a cap error names the flag given, not that internal n
    code, out, err = invoke(capsys, ["enumerate", "--g", "1", "--p", "1000000007", "--n", "1"])
    assert (code, out) == (2, "")
    assert err == "error: p=1000000007 exceeds the trial-division cap 1000000000\n"
    argv = ["minpoly", "--p", "5", "--n", "1", "--sign", "+", "--t"]
    code, out, err = invoke(capsys, [*argv, "100000000000"])
    assert (code, out) == (2, "")
    assert err == "error: t=100000000000 exceeds the cap 500000 (2t <= 1000000)\n"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no digit check before the cyclotomic cap
    try:
        code, out, err = invoke(capsys, [*argv, "500001"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out, err) == (2, "", "error: t=500001 exceeds the cap 500000 (2t <= 1000000)\n")
    # the t cap is the largest t whose index 2t is within the cyclotomic cap
    t_cap = 500000
    _check_cap(2 * t_cap)
    with pytest.raises(OutOfRange):
        _check_cap(2 * (t_cap + 1))


def test_enumerate_tsv(capsys):
    code, out, _ = invoke(capsys, ["enumerate", "--g", "1", "--p", "5", "--n", "1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "g\tp\tn\tcoeffs\teven\tfactors"
    assert lines[1] == "1\t5\t1\t-5 0 1\ttrue\t-:1:1"
    assert lines[2] == "1\t5\t1\t5 0 1\ttrue\t+:1:1"


def test_enumerate_structured_schema(capsys):
    code, out, _ = invoke(
        capsys, ["enumerate", "--g", "2", "--p", "7", "--n", "1", "--format", "structured"]
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == [
        "g", "p", "n", "total_candidates", "odd_candidates",
        "candidates", "half_degree_specs",
    ]
    assert doc["g"] == 2 and doc["p"] == 7 and doc["n"] == 1
    assert doc["total_candidates"] == len(doc["candidates"])
    first = doc["candidates"][0]
    assert list(first) == ["coeffs", "even", "factors"]
    assert list(first["factors"][0]) == ["sign", "t", "mult"]
    assert all(c["even"] for c in doc["candidates"])


def test_verify_summary(capsys):
    code, out, err = invoke(capsys, ["verify", "--gmax", "1", "--pmax", "7", "--n", "1"])
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "g\tp\tn\ttotal_candidates\todd_candidates\thalf_degree_specs\tok"
    assert lines[1].startswith("1\t5\t1\t")
    assert lines[2].startswith("1\t7\t1\t")
    assert all(line.endswith("true") for line in lines[1:])


def test_verify_empty_grid_is_an_error(capsys):
    # no prime p with 2g+1 < p <= 3: nothing would be verified
    code, out, err = invoke(capsys, ["verify", "--gmax", "3", "--pmax", "3", "--n", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: empty grid")


def test_verify_uncovered_g_is_an_error(capsys):
    # g = 2, 3 need a prime p > 5 and p <= 5: only g = 1 would be checked
    code, out, err = invoke(capsys, ["verify", "--gmax", "3", "--pmax", "5", "--n", "1"])
    assert (code, out) == (2, "")
    assert err == "error: empty grid for g=2..3: no prime p with 2g+1 < p <= 5\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--gmax", "0", "--n", "1"], "--gmax must be a positive integer"),
        (["--gmax", "11", "--n", "1"], "--gmax=11 exceeds the enumeration cap 10"),
        (["--gmax", "1", "--n", "3", "--n", "1", "--n", "3"], "--n must not repeat an n: [3, 1, 3]"),
    ],
)
def test_verify_grid_errors_name_the_flag(capsys, flags, message):
    code, out, err = invoke(capsys, ["verify", "--pmax", "50", *flags])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_pmax_above_sieve_cap_is_an_error(capsys):
    code, out, err = invoke(capsys, ["verify", "--gmax", "1", "--pmax", "10000001", "--n", "1"])
    assert (code, out) == (2, "")
    assert err == "error: --pmax=10000001 exceeds the prime sieve cap 10000000\n"


def test_detect_half_past_the_cap_fails_before_sieving_to_g(monkeypatch, capsys):
    import weilparity.enumerator as enumerator

    def capped_sieve(low, high):
        assert high <= 4 * G_CAP + 2, f"sieved up to {high}"
        return primes_between(low, high)

    monkeypatch.setattr(enumerator, "primes_between", capped_sieve)
    code, out, err = invoke(capsys, ["detect-half", "--g", "400000000", "--p", "999999937", "--n", "1"])
    assert (code, out, err) == (2, "", f"error: g=400000000 exceeds the enumeration cap {G_CAP}\n")


def test_verify_rejects_even_n(capsys):
    code, _, err = invoke(capsys, ["verify", "--gmax", "3", "--pmax", "50", "--n", "2"])
    assert code == 2
    assert "odd" in err


def test_verify_multiple_n(capsys):
    code, out, _ = invoke(
        capsys,
        ["verify", "--gmax", "1", "--pmax", "7", "--n", "1", "--n", "3", "--format", "structured"],
    )
    assert code == 0
    docs = json.loads(out)
    assert [(d["g"], d["p"], d["n"]) for d in docs] == [(1, 5, 1), (1, 5, 3), (1, 7, 1), (1, 7, 3)]


def test_output_is_byte_stable(capsys):
    first = invoke(capsys, ["verify", "--gmax", "2", "--pmax", "20", "--n", "1", "--format", "structured"])
    second = invoke(capsys, ["verify", "--gmax", "2", "--pmax", "20", "--n", "1", "--format", "structured"])
    assert first == second
    assert first[0] == 0


def test_detect_half(capsys):
    code, out, _ = invoke(capsys, ["detect-half", "--g", "3", "--p", "5", "--n", "1"])
    assert code == 0
    assert out == "sign\tt\tdegree\n-\t5\t4\n"
    code, out, _ = invoke(capsys, ["detect-half", "--g", "3", "--p", "11", "--n", "1"])
    assert code == 0
    assert out == "sign\tt\tdegree\n"  # nothing to report: header only
    code, out, _ = invoke(
        capsys, ["detect-half", "--g", "3", "--p", "11", "--n", "1", "--format", "structured"]
    )
    assert code == 0
    assert json.loads(out) == {"g": 3, "p": 11, "n": 1, "half_degree_specs": []}


def test_detect_half_g_cap(capsys):
    code, out, err = invoke(
        capsys, ["detect-half", "--g", str(G_CAP + 1), "--p", "5", "--n", "1"]
    )
    assert (code, out) == (2, "")
    assert "cap" in err


def test_bounds_empty_file_is_header_only(tmp_path, capsys):
    ref = tmp_path / "empty.txt"
    ref.write_text("# nothing but comments\n\n")
    code, out, _ = invoke(
        capsys, ["bounds", "--g", "1", "--p", "5", "--n", "1", "--file", str(ref)]
    )
    assert code == 0
    assert out == "g\tp\tn\ta_values\tsymmetric\tlemma_a1\tarchimedean\tvaluation\n"


def test_bounds_subcommand(tmp_path, capsys):
    ref = tmp_path / "polys.txt"
    ref.write_text("# reference polynomials\n5 0 1\n\n-5 0 1\n")
    code, out, _ = invoke(
        capsys, ["bounds", "--g", "1", "--p", "5", "--n", "1", "--file", str(ref)]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "g\tp\tn\ta_values\tsymmetric\tlemma_a1\tarchimedean\tvaluation"
    assert lines[1] == "1\t5\t1\t0\ttrue\ttrue\ttrue\ttrue"
    assert lines[2] == "1\t5\t1\t0\tfalse\ttrue\ttrue\ttrue"  # X^2-5: c0 = -q


def test_bounds_rejects_even_n(tmp_path, capsys):
    ref = tmp_path / "polys.txt"
    ref.write_text("625 -50 1\n")
    code, _, err = invoke(
        capsys, ["bounds", "--g", "1", "--p", "5", "--n", "2", "--file", str(ref)]
    )
    assert code == 2
    assert "odd" in err


BOUNDS_G1 = ["bounds", "--g", "1", "--p", "5", "--n", "1", "--file"]
# The items of BOUNDS_G1 on the lines "5 0 1" and "-5 0 1": the TSV header
# and rows, and the JSON array elements.
BOUNDS_G1_ITEMS = {
    "tsv": [
        "g\tp\tn\ta_values\tsymmetric\tlemma_a1\tarchimedean\tvaluation",
        "1\t5\t1\t0\ttrue\ttrue\ttrue\ttrue",
        "1\t5\t1\t0\tfalse\ttrue\ttrue\ttrue",
    ],
    "structured": [
        '{"g": 1, "p": 5, "n": 1, "symmetric": true, "lemma_a1": true, "per_coefficient": '
        '[{"k": 1, "a_k": 0, "archimedean": true, "valuation": true}]}',
        '{"g": 1, "p": 5, "n": 1, "symmetric": false, "lemma_a1": true, "per_coefficient": '
        '[{"k": 1, "a_k": 0, "archimedean": true, "valuation": true}]}',
    ],
}


def bounds_g1_cut(fmt, k):
    """The output of BOUNDS_G1 on its first k lines, cut before its final newline."""
    items = BOUNDS_G1_ITEMS[fmt]
    return "\n".join(items[:k + 1]) if fmt == "tsv" else "[" + ", ".join(items[:k])


def poly_lines(text):
    """The stripped polynomial lines of a file's text, read as a text file splits it."""
    lines = (line.strip() for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"))
    return [line for line in lines if line and not line.startswith("#")]


def coeffs_of(line):
    """The ascending coefficients of a polynomial line, its trailing zeros dropped."""
    coeffs = [int(word) for word in line.split()]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def test_bounds_rejects_malformed_file(tmp_path, capsys):
    # a bad line exits 2, in either format, after the rows of the lines
    # before it and nothing else: each line is parsed as its row is made
    ref = tmp_path / "polys.txt"
    ref.write_text("5 0 1\n-5 0 1\n5 zero 1\n")
    assert bounds_g1_cut("tsv", 2) == (
        "g\tp\tn\ta_values\tsymmetric\tlemma_a1\tarchimedean\tvaluation\n"
        "1\t5\t1\t0\ttrue\ttrue\ttrue\ttrue\n1\t5\t1\t0\tfalse\ttrue\ttrue\ttrue"
    )
    for fmt in ("tsv", "structured"):
        code, out, err = invoke(capsys, [*BOUNDS_G1, str(ref), "--format", fmt])
        assert (code, out) == (2, bounds_g1_cut(fmt, 2))
        assert ":3: invalid literal" in err  # line number reported


def test_bounds_rejects_wrong_shape(tmp_path, capsys):
    ref = tmp_path / "polys.txt"
    ref.write_text("5 0 1\n-5 0 1\n1 2 3\n")  # not monic
    for fmt in ("tsv", "structured"):
        code, out, err = invoke(capsys, [*BOUNDS_G1, str(ref), "--format", fmt])
        assert (code, out) == (2, bounds_g1_cut(fmt, 2))
        assert err == "error: polynomial must be monic of degree 2, got degree 2\n"


def test_bounds_strips_trailing_zeros(tmp_path, capsys):
    rows = []
    for line in ("5 0 1", "5 0 1 0", "5 0 1 0 0"):
        ref = tmp_path / "polys.txt"
        ref.write_text(line + "\n")
        code, out, _ = invoke(capsys, [*BOUNDS_G1, str(ref)])
        assert code == 0
        rows.append(out)
    assert rows[0] == rows[1] == rows[2]
    assert rows[0].endswith("\n1\t5\t1\t0\ttrue\ttrue\ttrue\ttrue\n")


@pytest.mark.parametrize("line", ["0", "0 0 0"])
def test_bounds_zero_line_reads_degree_minus_infinity(tmp_path, capsys, line):
    ref = tmp_path / "polys.txt"
    ref.write_text(f"5 0 1\n{line}\n")
    for fmt in ("tsv", "structured"):
        code, out, err = invoke(capsys, [*BOUNDS_G1, str(ref), "--format", fmt])
        assert (code, out) == (2, bounds_g1_cut(fmt, 1))
        assert err == "error: polynomial must be monic of degree 2, got degree -inf\n"


BOUNDS_GOLDEN = [pytest.param(a, f, id=f"{' '.join(a)} {f}") for a, f in GOLDEN if a[0] == "bounds"]


def test_bounds_line_that_is_not_utf8_fails_at_its_own_line(tmp_path, capsys):
    # such a line fails to parse after the rows of the lines before it; in a
    # comment, bytes that are not UTF-8 are skipped with the rest of the line
    ref = tmp_path / "polys.txt"
    ref.write_bytes(b"# caf\xe9\n5 0 1\n\xff\xfe 1\n")
    for fmt in ("tsv", "structured"):
        code, out, err = invoke(capsys, [*BOUNDS_G1, str(ref), "--format", fmt])
        assert (code, out) == (2, bounds_g1_cut(fmt, 1))
        assert err == (f"error: {ref}:3: invalid literal for int() with base 10: "
                       "'\\udcff\\udcfe'\n")


def test_bounds_drops_a_byte_order_mark_at_the_start_only(tmp_path, capsys):
    # a file saved with a UTF-8 byte-order mark reads as without it, a
    # comment on its first line included; a mark anywhere else is part of
    # its line, which fails to parse at its own number
    bom = "\ufeff".encode()
    ref = tmp_path / "polys.txt"
    for fmt in ("tsv", "structured"):
        end = "\n" if fmt == "tsv" else "]\n"
        for start in (b"", b"# c\n"):
            ref.write_bytes(bom + start + b"5 0 1\n-5 0 1\n")
            assert invoke(capsys, [*BOUNDS_G1, str(ref), "--format", fmt]) == (
                0, bounds_g1_cut(fmt, 2) + end, "")
        ref.write_bytes(b"5 0 1\n" + bom + b"-5 0 1\n")
        code, out, err = invoke(capsys, [*BOUNDS_G1, str(ref), "--format", fmt])
        assert (code, out) == (2, bounds_g1_cut(fmt, 1))
        assert err == f"error: {ref}:2: invalid literal for int() with base 10: '\\ufeff-5'\n"


@pytest.mark.parametrize("argv, fmt", BOUNDS_GOLDEN)
def test_bounds_builds_no_polynomial(monkeypatch, capsys, tmp_path, argv, fmt):
    # lines are parsed straight to coefficient lists and checked as such
    def built(self, coeffs=()):
        raise AssertionError("bounds built a library polynomial")

    monkeypatch.setattr(LIBRARY_POLY, "__init__", built)
    assert golden_run(capsys, tmp_path, argv, fmt) == GOLDEN[argv, fmt]


def test_bounds_builds_one_threshold_table_per_run(tmp_path, capsys):
    import weilparity.bounds as bounds

    key = ("bounds", "--g", "10", "--p", "23", "--n", "3", "--file", "@g10")
    bounds._cell_table.cache_clear()
    try:
        assert golden_run(capsys, tmp_path, key, "tsv") == GOLDEN[key, "tsv"]
        info = bounds._cell_table.cache_info()
    finally:
        bounds._cell_table.cache_clear()
    # a repeated line reuses its row, so the table is read once per distinct line
    polys = poly_lines(GOLDEN_FILES["g10"])
    assert (len(polys), len(set(polys))) == (197, 187)
    assert (info.misses, info.hits) == (1, len(set(polys)) - 1)


def test_bounds_missing_file(capsys, tmp_path):
    # the file is opened before the first byte, so no TSV header is printed
    for fmt in ("tsv", "structured"):
        code, out, err = invoke(capsys, [*BOUNDS_G1, str(tmp_path / "missing.txt"), "--format", fmt])
        assert (code, out) == (2, "")
        assert err.startswith("error: [Errno 2]")


def test_bounds_checks_the_digit_limit_before_opening_the_file(monkeypatch, capsys, tmp_path):
    # a row is symmetric only if its constant term +q**g parsed, so past
    # Python's digit limit no row could be: the run stops before any work
    import weilparity.bounds as bounds

    ref = tmp_path / "one.txt"
    ref.write_text("1 " * 20 + "1\n")  # monic of degree 20

    def work(*args):
        raise RuntimeError("bounds read its file before the digit check")

    argv = ["bounds", "--g", "10", "--p", "3", "--n", "1000001", "--file", str(ref)]
    with monkeypatch.context() as patch:
        patch.setattr(bounds, "ingest_reference", work)
        for fmt in ("tsv", "structured"):
            code, out, err = invoke(capsys, [*argv, "--format", fmt])
            assert (code, out) == (2, "")
            assert err.startswith("error: the constant term = 3**10000010 has more than 4300 digits")
    # on each side of the limit at g = 1: q = 23**3157 has 4299 digits, 23**3159 4302
    ref.write_text("5 0 1\n")
    cell = ["bounds", "--g", "1", "--p", "23", "--file", str(ref), "--n"]
    assert invoke(capsys, [*cell, "3159"])[:2] == (2, "")
    code, out, _ = invoke(capsys, [*cell, "3157"])
    assert (code, out.splitlines()[1]) == (0, "1\t23\t3157\t0\tfalse\ttrue\ttrue\ttrue")


def half_degree_t3(monkeypatch):
    # a genuine violation cannot be produced (the parity statement holds),
    # so (+, 3), which fits in degree 2 only as a half-degree spec, is read
    # as one at every p: each cell of g = 1 then violates the contract
    import weilparity.enumerator as enumerator

    real = enumerator.is_full_degree
    monkeypatch.setattr(
        enumerator, "is_full_degree", lambda p, sign, t: (sign, t) != (1, 3) and real(p, sign, t)
    )


def test_verify_exit_1_on_contract_violation(monkeypatch, cold_caches, capsys):
    # a fabricated violating report checks the exit-code wiring
    half_degree_t3(monkeypatch)
    assert not verify_parity_theorem(WeilParams(p=11, n=1, g=1)).contract_ok
    code = run(["verify", "--gmax", "1", "--pmax", "11", "--n", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "violated" in captured.err
    assert captured.out.splitlines()[1:] == [f"1\t{p}\t1\t2\t0\t1\tfalse" for p in (5, 7, 11)]


def test_verify_repeated_n_is_an_error(monkeypatch, capsys):
    # each cell of a repeated n would be checked and printed twice
    import weilparity.enumerator as enumerator

    def work(params):
        raise AssertionError(f"cell {params} checked before the grid was")

    monkeypatch.setattr(enumerator, "verify_parity_theorem", work)
    for fmt in ("tsv", "structured"):
        argv = ["verify", "--gmax", "1", "--pmax", "5", "--n", "1", "--n", "1", "--format", fmt]
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: --n must not repeat an n: [1, 1]\n"


@pytest.mark.parametrize("exc", [NotDivisible("remainder 1"), RuntimeError("boom")])
def test_internal_errors_exit_3(monkeypatch, capsys, exc):
    # a broken identity or any unexpected fault is neither a usage error
    # (2) nor a parity violation (1)
    import weilparity.enumerator as enumerator

    def broken(*args):
        raise exc

    monkeypatch.setattr(enumerator, "verify_grid", broken)
    code, out, err = invoke(capsys, ["verify", "--gmax", "1", "--pmax", "11", "--n", "1"])
    assert (code, out) == (3, "")
    assert err.startswith("internal error:") and str(exc) in err


@pytest.mark.parametrize(
    "argv",
    [
        ["minpoly", "--p", "23", "--n", "801", "--sign", "+", "--t", "5"],
        ["enumerate", "--g", "1", "--p", "23", "--n", "3159"],
        ["verify", "--gmax", "1", "--pmax", "5", "--n", "6153", "--format", "structured"],
    ],
)
def test_digit_limit_is_checked_before_any_work(monkeypatch, cold_caches, capsys, argv):
    # each run would print an integer past Python's 4300-digit limit
    import weilparity.enumerator as enumerator
    import weilparity.weil as weil

    def work(*args):
        raise RuntimeError("work started before the digit check")

    monkeypatch.setattr(weil, "minpoly_full_degree", work)
    monkeypatch.setattr(enumerator, "minpoly_shape", work)
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: the ") and "has more than 4300 digits" in err


@pytest.fixture
def wrong_degree_factor(monkeypatch, cold_caches):
    # the cyclotomic polynomial of index 2 becomes Y**2 + Y + 1, of degree 2,
    # not phi(2) = 1, so the factor of t = 1 in every spec set has the wrong
    # degree; no cached shape hides it
    import weilparity.weil as weil

    real = weil.cyclotomic
    monkeypatch.setattr(weil, "cyclotomic", lambda n: real(3) if n == 2 else real(n))


def test_odd_shape_is_an_internal_error(wrong_degree_factor, capsys):
    # a product of the wrong degree breaks an invariant of the construction:
    # exit 3, not 2; the header was made before the first row failed
    code, out, err = invoke(capsys, ["enumerate", "--g", "1", "--p", "5", "--n", "1"])
    assert (code, out) == (3, "g\tp\tn\tcoeffs\teven\tfactors")
    assert err.startswith("internal error: BrokenInvariant:")


@pytest.mark.parametrize(
    "argv, before",
    [
        pytest.param(a, before, id=" ".join(a))
        for a, before in (
            (["verify", "--gmax", "1", "--pmax", "5", "--n", "1", "--format", "structured"], "["),
            (["enumerate", "--g", "2", "--p", "7", "--n", "1", "--format", "structured"], ""),
        )
    ],
)
def test_odd_factor_is_an_internal_error(wrong_degree_factor, capsys, argv, before):
    # each product is checked to be of degree g once its report's filler is
    # built: a wrong factor is exit 3 wherever candidates are printed, never
    # a parity violation (exit 1) or a usage error (exit 2), and stdout
    # holds what was made before it
    code, out, err = invoke(capsys, argv)
    assert (code, out) == (3, before)
    assert err.startswith("internal error: BrokenInvariant:")


@pytest.mark.parametrize(
    "argv",
    [pytest.param(a, id=" ".join(a)) for a, f in GOLDEN if a[0] == "verify" and f == "tsv"],
)
def test_tsv_verify_expands_no_candidate(monkeypatch, capsys, tmp_path, argv):
    # TSV verify prints counts only, so it neither renders nor builds a candidate
    import weilparity.cli as cli
    import weilparity.enumerator as enumerator

    def expand(*args):
        raise RuntimeError("a candidate was expanded")

    monkeypatch.setattr(cli, "_cell_filler", expand)
    monkeypatch.setattr(enumerator, "candidate_shapes", expand)
    assert golden_run(capsys, tmp_path, argv, "tsv") == GOLDEN[argv, "tsv"]


@pytest.mark.parametrize(
    "argv, fmt",
    [
        pytest.param(a, f, id=f"{' '.join(a)} {f}")
        for a, f in GOLDEN
        if (a[0], f) == ("verify", "tsv") or a[0] == "detect-half"
    ],
)
def test_tsv_verify_and_detect_half_multiply_no_polynomial(
    monkeypatch, cold_caches, capsys, tmp_path, argv, fmt
):
    # the counts come from the factors' degrees, so no product is built
    def mul(self, other):
        raise RuntimeError("two polynomials were multiplied")

    monkeypatch.setattr(LIBRARY_POLY, "__mul__", mul)
    assert golden_run(capsys, tmp_path, argv, fmt) == GOLDEN[argv, fmt]


@pytest.fixture
def no_q(monkeypatch):
    # q = p**n has n*log10(p) digits; a run that builds it costs time growing with n
    def q(params):
        raise RuntimeError(f"q built for {params}")

    monkeypatch.setattr(WeilParams, "q", property(q))


@pytest.mark.parametrize(
    "argv, fmt",
    [
        pytest.param(a, f, id=f"{' '.join(a)} {f}")
        for a, f in GOLDEN
        if (a[0], f) == ("verify", "tsv") or a[0] == "detect-half"
    ],
)
def test_tsv_verify_and_detect_half_never_build_q(no_q, capsys, tmp_path, argv, fmt):
    # TSV verify and detect-half read only p's parity and p**n mod 4
    assert golden_run(capsys, tmp_path, argv, fmt) == GOLDEN[argv, fmt]


def test_tsv_verify_at_huge_n(no_q, capsys):
    code, out, _ = invoke(capsys, ["verify", "--gmax", "1", "--pmax", "5", "--n", "10000001"])
    assert (code, out.splitlines()[1:]) == (0, ["1\t5\t10000001\t2\t0\t0\ttrue"])


@pytest.mark.parametrize(
    "argv, fmt",
    [
        pytest.param(a, f, id=f"{' '.join(a)} {f}")
        for a, f in GOLDEN
        if a[0] == "detect-half" or (a[0], f) == ("verify", "tsv")
    ],
)
def test_detect_half_builds_no_shape(monkeypatch, cold_caches, capsys, tmp_path, argv, fmt):
    # detect-half prints the half-degree specs only, and TSV verify counts
    # from the factors' degrees phi(2t): neither builds a shape (every shape
    # the candidates need is built by minpoly_shape) or a cyclotomic
    # polynomial for one
    import weilparity.enumerator as enumerator
    import weilparity.weil as weil

    def shapes(*args):
        raise RuntimeError("a shape was built")

    monkeypatch.setattr(enumerator, "minpoly_shape", shapes)
    monkeypatch.setattr(weil, "cyclotomic", shapes)
    assert golden_run(capsys, tmp_path, argv, fmt) == GOLDEN[argv, fmt]


class Recorder(io.TextIOBase):
    """A text stream that appends each write to ``log`` as (name, text)."""

    def __init__(self, name, log):
        self.name, self.log = name, log

    def write(self, text):
        self.log.append((self.name, text))
        return len(text)


class HashSink(io.TextIOBase):
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())
        return len(text)


def recorded_run(monkeypatch, argv):
    """(exit code, stdout text, log of every stdout and stderr write in order)."""
    log = []
    monkeypatch.setattr(sys, "stdout", Recorder("out", log))
    monkeypatch.setattr(sys, "stderr", Recorder("err", log))
    code = run(argv)
    return code, "".join(text for name, text in log if name == "out"), log


SMALL_GRID = ("verify", "--gmax", "2", "--pmax", "13", "--n", "1", "--n", "3")


def small_grid_cells():
    """The JSON text of each cell of ``SMALL_GRID`` by the oracle, checked against its digest."""
    reports = grid_reports(2, 13, [1, 3])
    golden = parity_json(reports)
    assert hashlib.sha256(golden.encode()).hexdigest() == GOLDEN[SMALL_GRID, "structured"][0]
    return [json.dumps(parity_doc(r)) for r in reports]


def test_structured_verify_expands_each_cell_once(monkeypatch):
    # cells are built in grid order, once each, and with one-character
    # blocks each is written before the next is built
    import weilparity.cli as cli

    expanded = []
    real = cli._cell_filler

    def counting(report, fmt):
        fill = real(report, fmt)

        def counted(p, n):
            written = "".join(text for name, text in log if name == "out")
            expanded.append(((report.params.g, p, n), written))
            return fill(p, n)

        return counted

    cells = small_grid_cells()
    log = []
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 1)
    monkeypatch.setattr(cli, "_cell_filler", counting)
    monkeypatch.setattr(sys, "stdout", Recorder("out", log))
    code = run([*SMALL_GRID, "--format", "structured"])
    grid = [(g, p, n) for g in (1, 2) for p in (5, 7, 11, 13) if p > 2 * g + 1 for n in (1, 3)]
    assert [cell for cell, _ in expanded] == grid
    assert [written for _, written in expanded] == [
        "[" + ", ".join(cells[:k]) for k in range(len(cells))
    ]
    assert (code, "".join(text for _, text in log)) == (0, "[" + ", ".join(cells) + "]\n")


@pytest.mark.parametrize(
    "fmt, k",
    [pytest.param("structured", k, id=str(k)) for k in (1, 2, 9, 14)]
    + [pytest.param("tsv", k, id=f"tsv-{k}") for k in (1, 2, 9, 14)],
)
def test_internal_error_mid_stream_keeps_the_cells_before_it(monkeypatch, fmt, k):
    # the k-th cell fails: the first k-1 cells, and nothing else, are out,
    # after the TSV header or the opening bracket
    import weilparity.cli as cli

    if fmt == "structured":
        cells = small_grid_cells()
        full, cut = "[" + ", ".join(cells) + "]\n", "[" + ", ".join(cells[:k - 1])
    else:
        code, full, _ = recorded_run(monkeypatch, SMALL_GRID)
        assert (hashlib.sha256(full.encode()).hexdigest(), code) == GOLDEN[SMALL_GRID, "tsv"]
        header, *cells = full.splitlines()
        cut = "\n".join([header, *cells[:k - 1]])
    assert len(cells) == 14
    calls = []

    def fail_at_k(cell):
        calls.append(cell)
        if len(calls) == k:
            raise RuntimeError(f"cell {k} failed")

    if fmt == "structured":  # a cell's document is made by one call of its g's filler
        real_filler = cli._cell_filler

        def failing_filler(report, fmt):
            fill = real_filler(report, fmt)

            def failing_fill(p, n):
                fail_at_k((report.params.g, p, n))
                return fill(p, n)

            return failing_fill

        monkeypatch.setattr(cli, "_cell_filler", failing_filler)
    else:  # the rows are made one at a time, as they are asked for
        real_rows = cli._verify_rows

        def failing_rows(grid, n_values):
            for row in real_rows(grid, n_values):
                fail_at_k(row)
                yield row

        monkeypatch.setattr(cli, "_verify_rows", failing_rows)
    code, out, log = recorded_run(monkeypatch, [*SMALL_GRID, "--format", fmt])
    assert code == 3
    assert out == cut
    assert full.startswith(out)
    err = "".join(text for name, text in log if name == "err")
    assert err.startswith(f"internal error: RuntimeError: cell {k} failed")


@pytest.mark.parametrize("fmt", ["tsv", "structured"])
def test_violation_is_reported_after_the_full_output(monkeypatch, cold_caches, fmt):
    half_degree_t3(monkeypatch)
    argv = ["verify", "--gmax", "1", "--pmax", "11", "--n", "1", "--format", fmt]
    code, out, log = recorded_run(monkeypatch, argv)
    assert code == 1
    names = [name for name, _ in log]
    assert "out" not in names[names.index("err"):]
    err = "".join(text for name, text in log if name == "err")
    assert err == "parity contract violated in at least one grid cell\n"
    if fmt == "tsv":
        assert out.splitlines()[1:] == [f"1\t{p}\t1\t2\t0\t1\tfalse" for p in (5, 7, 11)]
    else:
        half = [{"sign": 1, "t": 3}]
        assert [(d["p"], d["half_degree_specs"]) for d in json.loads(out)] == [
            (5, half), (7, half), (11, half)
        ]


@pytest.mark.parametrize("fmt", ["tsv", "structured"])
def test_enumerate_violation_is_reported_after_the_full_output(monkeypatch, cold_caches, fmt):
    half_degree_t3(monkeypatch)
    argv = ["enumerate", "--g", "1", "--p", "11", "--n", "1", "--format", fmt]
    code, out, log = recorded_run(monkeypatch, argv)
    assert code == 1
    names = [name for name, _ in log]
    assert "out" not in names[names.index("err"):]
    err = "".join(text for name, text in log if name == "err")
    assert err == "parity contract violated: half-degree spec found although p > 2g+1\n"
    report = verify_parity_theorem(WeilParams(p=11, n=1, g=1))
    assert report.half_degree_specs and len(report.full_degree_specs) == 2
    if fmt == "tsv":
        assert out.splitlines()[1:] == enumerate_rows(report)
    else:
        assert out == json.dumps(parity_doc(report)) + "\n"


def child_env(unbuffered):
    """The environment of a command-line child: this checkout's ``src``, buffered or not."""
    env = {**os.environ, "PYTHONPATH": str(README.parent / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


BUFFERINGS = {"buffered": False, "unbuffered": True}
CHILD = [sys.executable, "-m", "weilparity.cli"]
CLOSED_EARLY = {  # id prefix -> argv
    "": ["verify", "--gmax", "1", "--pmax", "1000000", "--n", "1"],  # about 1 MB of rows
    "help-": ["-h"],
    "verify-help-": ["verify", "-h"],
}


@pytest.mark.parametrize(
    "argv, unbuffered",
    [
        pytest.param(argv, unbuffered, id=prefix + buffering)
        for prefix, argv in CLOSED_EARLY.items()
        for buffering, unbuffered in BUFFERINGS.items()
    ],
)
def test_a_closed_stdout_ends_the_run_as_sigpipe_would(argv, unbuffered):
    # a reader that stops early (as "| head" does) is no usage error: exit
    # 128 + SIGPIPE, as a shell reports, with nothing on stderr; help goes
    # to stdout as output does
    env = child_env(unbuffered)
    if argv[-1] == "-h":  # help is short: the reader is gone before the child starts
        read, write = os.pipe()
        os.close(read)
        child = subprocess.Popen([*CHILD, *argv], env=env, stdout=write, stderr=subprocess.PIPE)
        os.close(write)
    else:
        child = subprocess.Popen([*CHILD, *argv], env=env,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        if child.stdout:
            assert child.stdout.read(100).startswith(b"g\tp\tn\t")
            child.stdout.close()
        err = child.stderr.read()
        assert (child.wait(timeout=60), err) == (141, b"")
    finally:
        child.kill()
        child.wait()


@pytest.mark.parametrize("unbuffered", BUFFERINGS.values(), ids=BUFFERINGS)
@pytest.mark.parametrize("argv", [["cyclo", "5"], ["-h"]], ids=["cyclo", "help"])
@pytest.mark.parametrize("stdout", ["full", "closed"])
def test_a_failing_stdout_is_one_error_line(stdout, argv, unbuffered):
    # a stdout that fails otherwise (a full device, or descriptor 1 closed
    # at start) is exit 2 with one "error:" line, and the flush at exit
    # does not fail again
    if stdout == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full" if stdout == "full" else os.devnull, "wb") as sink:
        done = subprocess.run(
            [*CHILD, *argv], env=child_env(unbuffered), stdout=sink, stderr=subprocess.PIPE,
            preexec_fn=(lambda: os.close(1)) if stdout == "closed" else None, timeout=60,
        )
    lines = done.stderr.decode().splitlines(keepends=True)
    assert (done.returncode, len(lines)) == (2, 1), done.stderr
    assert lines[0].startswith("error: [Errno ") and lines[0].endswith("\n")


def test_a_golden_sample_replays_in_fresh_interpreters(tmp_path):
    # each subcommand and format once, and every exit-2 entry, as the
    # benchmark runs the command line: a fresh interpreter, stdout on a
    # pipe, PYTHONDONTWRITEBYTECODE=1
    from golden_replay import replay

    for name, text in GOLDEN_FILES.items():
        (tmp_path / name).write_text(text)
    firsts = {}
    for argv, fmt in GOLDEN:
        firsts.setdefault((argv[0], fmt), (argv, fmt))
    exits = [entry for entry, (_, code) in GOLDEN.items() if code == 2]
    sample = list(dict.fromkeys([*firsts.values(), *exits]))
    assert (len(firsts), len(sample)) == (12, 20)
    assert replay(sys.executable, tmp_path, sample) == []


def test_structured_verify_memory_does_not_grow_with_the_grid(monkeypatch):
    # only the block being written is held, and both outputs exceed one
    # block: tripling pmax (46 -> 109 primes, 2.5x the output) moves the
    # traced peak by less than 100 KB
    def argv(pmax):
        return ["verify", "--gmax", "5", "--pmax", str(pmax), "--n", "1", "--n", "3",
                "--format", "structured"]

    def digest(pmax):
        sink = HashSink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert run(argv(pmax)) == 0
        monkeypatch.undo()
        return sink.sha.hexdigest()

    for pmax in (200, 600):  # fills the caches, which do not depend on pmax
        oracle = parity_json(grid_reports(5, pmax, [1, 3]))
        assert digest(pmax) == hashlib.sha256(oracle.encode()).hexdigest()
    peaks = []
    tracemalloc.start()
    try:
        for pmax in (200, 600):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            digest(pmax)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 100_000, peaks


def test_structured_verify_writes_in_blocks(monkeypatch):
    # every write but the last is a full block, so a pipe's reader is
    # woken once per block, not once per cell
    import weilparity.cli as cli

    argv = ["verify", "--gmax", "5", "--pmax", "200", "--n", "1", "--n", "3",
            "--format", "structured"]
    code, out, log = recorded_run(monkeypatch, argv)
    sizes = [len(text) for name, text in log if name == "out"]
    assert code == 0
    assert out == parity_json(grid_reports(5, 200, [1, 3]))
    assert min(sizes[:-1]) >= cli._WRITE_BLOCK > sizes[-1]
    assert len(sizes) <= len(out) // cli._WRITE_BLOCK + 1


@pytest.mark.parametrize("fmt", ["tsv", "structured"])
def test_bounds_writes_each_row_before_the_next_line_is_read(monkeypatch, tmp_path, fmt):
    # with one-character blocks, the rows of the lines before a line are
    # out when it is parsed and checked
    import weilparity.bounds as bounds
    import weilparity.cli as cli

    ref = tmp_path / "polys.txt"
    ref.write_text("5 0 1\n# comment\n-5 0 1\n")
    real = bounds.full_bounds_report
    checked = []

    def recording(coeffs, params):
        checked.append((coeffs, "".join(text for name, text in log if name == "out")))
        return real(coeffs, params)

    log = []
    monkeypatch.setattr(cli, "_WRITE_BLOCK", 1)
    monkeypatch.setattr(bounds, "full_bounds_report", recording)
    monkeypatch.setattr(sys, "stdout", Recorder("out", log))
    code = run([*BOUNDS_G1, str(ref), "--format", fmt])
    assert checked == [([5, 0, 1], bounds_g1_cut(fmt, 0)), ([-5, 0, 1], bounds_g1_cut(fmt, 1))]
    end = "\n" if fmt == "tsv" else "]\n"
    assert (code, "".join(text for _, text in log)) == (0, bounds_g1_cut(fmt, 2) + end)


def test_bounds_memory_does_not_grow_with_the_file(monkeypatch, tmp_path):
    # only the block being written, the line being read and the memo of the
    # file's two distinct lines are held, and both outputs exceed one block:
    # tripling the file (2000 -> 6000 lines)
    # moves the traced peak by less than 100 KB
    import weilparity.cli as cli

    header, *rows = BOUNDS_G1_ITEMS["tsv"]

    def digest(lines):
        ref = tmp_path / f"{lines}.txt"
        ref.write_text("5 0 1\n-5 0 1\n" * (lines // 2))
        sink = HashSink()
        monkeypatch.setattr(sys, "stdout", sink)
        assert run([*BOUNDS_G1, str(ref)]) == 0
        monkeypatch.undo()
        return sink.sha.hexdigest()

    for lines in (2000, 6000):  # fills the threshold table's cache
        expected = "\n".join([header, *rows * (lines // 2)]) + "\n"
        assert len(expected) > cli._WRITE_BLOCK
        assert digest(lines) == hashlib.sha256(expected.encode()).hexdigest()
    peaks = []
    tracemalloc.start()
    try:
        for lines in (2000, 6000):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            digest(lines)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 100_000, peaks


@pytest.mark.parametrize(
    "argv, fmt",
    [
        pytest.param(a, f, id=f"{' '.join(a)} {f}")
        for a, f in GOLDEN
        if a[0] in ("verify", "enumerate")
    ],
)
def test_shapes_are_never_multiplied_by_one(monkeypatch, cold_caches, capsys, tmp_path, argv, fmt):
    # the caches are cold, so the run builds its shapes under the guard
    real = LIBRARY_POLY.__mul__

    def guarded(self, other):
        if (1,) in (self.coeffs, other.coeffs):
            raise AssertionError("a polynomial was multiplied by the constant 1")
        return real(self, other)

    monkeypatch.setattr(LIBRARY_POLY, "__mul__", guarded)
    assert golden_run(capsys, tmp_path, argv, fmt) == GOLDEN[argv, fmt]


def test_digit_limit_follows_the_interpreter(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no limit
    try:
        code, out, _ = invoke(capsys, ["enumerate", "--g", "1", "--p", "23", "--n", "3159"])
        q = str(23 ** 3159)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert f"\t-{q} 0 1\t" in out and len(q) == 4302


def test_minpoly_spec_errors(capsys):
    argv = ["minpoly", "--p", "2", "--n", "1", "--sign", "+", "--t"]
    code, out, err = invoke(capsys, [*argv, "-2"])  # -2 = 2 mod 4: not read as half degree
    assert (code, out, err) == (2, "", "error: t must be a positive integer\n")
    code, out, err = invoke(capsys, [*argv, "0"])
    assert (code, out, err) == (2, "", "error: t must be a positive integer\n")


def test_usage_errors(capsys):
    assert invoke(capsys, [])[0] == 2
    assert invoke(capsys, ["frobnicate"])[0] == 2
    assert invoke(capsys, ["cyclo"])[0] == 2
    assert invoke(capsys, ["--help"])[0] == 0


# Each command's flags, with a value that each accepts; other values, and
# tokens that may land anywhere, for argvs that the parsers should reject
FLAG_VALUES = {
    "cyclo": (),
    "minpoly": (("p", "5"), ("n", "1"), ("sign", "+"), ("t", "3")),
    "enumerate": (("g", "1"), ("p", "5"), ("n", "1")),
    "verify": (("gmax", "1"), ("pmax", "7"), ("n", "1")),
    "detect-half": (("g", "1"), ("p", "5"), ("n", "1")),
    "bounds": (("g", "1"), ("p", "5"), ("n", "1"), ("file", "polys.txt")),
}
ODD_VALUES = ("-3", "0", "+2", " 4", "1_0", "٣", "-", "-.5", "1.5", "x", "", "-x", "-x y",
              "--", "-h", "tsv", "structured", "xml")
ANYWHERE = ("--", "-h", "-hh", "-hx", "-h=h", "--he", "--help=", "--zz", "-q", "stray", "-5",
            "--=x", "---", "--format", "--fo=structured", "--form=xml", "tsv")


@st.composite
def argvs(draw):
    """An argv near a valid one: flags spelled by prefixes, with ``=``, repeated
    or left out, odd values, --format on either side, and stray tokens."""
    command = draw(st.sampled_from([*FLAG_VALUES, "frobnicate"]))
    words = []
    for name, good in FLAG_VALUES.get(command, ()):
        for _ in range(draw(st.sampled_from([1, 1, 1, 2, 0]))):
            flag = f"--{name}"[: draw(st.integers(3, len(name) + 2))]
            value = draw(st.sampled_from(ODD_VALUES)) if draw(st.integers(0, 3)) == 0 else good
            words += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if command == "cyclo":
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(("12", *ODD_VALUES))))
    for token in draw(st.lists(st.sampled_from(ANYWHERE), max_size=2)):
        words.insert(draw(st.integers(0, len(words))), token)
    if draw(st.booleans()):
        words = draw(st.permutations(words))
    before = draw(st.sampled_from([[], [], ["--format", "structured"], ["--f=tsv"], ["--fo", "x"]]))
    return [*before, command, *words]


def assert_parsed_as_before(capsys, argv):
    # where argparse accepts, the same command and values; else the same exit
    # code from run, with a usage error on stderr alone or help on stdout alone
    import weilparity.cli as cli

    code, expected = parse_reference(argv)
    if code is None:
        args = cli._parse(list(argv))
        assert vars(args) == {k: v for k, v in vars(expected).items() if k != "func"}
        assert cli._COMMANDS[args.command][0] is expected.func
        return
    got, out, err = invoke(capsys, argv)
    assert got == code
    if code:
        usage, error = err.split("\n", 1)
        assert out == "" and usage.startswith("usage: weilparity")
        assert error.startswith("weilparity: error: ") and error.endswith("\n")
    else:
        assert out.startswith("usage: weilparity") and err == ""


def test_every_golden_argv_parses_as_before(capsys):
    for argv, fmt in GOLDEN:
        for full in ([*argv, "--format", fmt], ["--format", fmt, *argv], [*argv, f"--fo={fmt}"]):
            assert parse_reference(full)[0] is None
            assert_parsed_as_before(capsys, full)


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"], ["-hh"], ["-hx"], ["-h=h"], ["-h="], ["--help=x"], ["--he"], ["cyclo", "-hh"],
        ["cyclo", "--", "5"], ["cyclo", "5", "--"], ["cyclo", "--", "--"], ["cyclo", "--"],
        ["cyclo", "-3"], ["cyclo", "-.5"], ["cyclo", "abc", "-h"], ["cyclo", "-h", "abc"],
        ["cyclo", "1", "--format=--"], ["cyclo", "--format", "--", "1"], ["--", "cyclo", "1"],
        ["--=x", "cyclo", "1"], ["-h", "--=x"], ["--zz", "cyclo", "-h"], ["--zz", "cyclo", "1"],
        ["--format", "tsv", "cyclo", "1", "--format", "structured", "--fo=tsv"],
        ["minpoly", "--p", "5", "--n", "1", "--sign", "-", "--t", "-2"],
        ["minpoly", "--p", "5", "--n", "1", "--s", "-", "--t=-2", "--p=7"],
        ["minpoly", "--p", "5", "--n", "1", "--sign", "x", "--t", "2", "-h"],
        ["verify", "--g", "1", "--p", "7", "--n", "1", "--n=3", "--n", "-5"],
        ["verify", "--gmax", "1", "--pmax", "7", "--n", "1", "--", "--n", "3"],
        ["bounds", "--g", "1", "--p", "5", "--n", "1", "--f", "x"],
        ["bounds", "--g", "1", "--p", "5", "--n", "1", "--fi", "-.5"],
        ["bounds", "--g", "1", "--p", "5", "--n", "1", "--file", "-x y"],
        ["bounds", "--g", "1", "--p", "5", "--n", "1", "--file", "-x"],
        ["bounds", "--g", "1", "--p", "5", "--n", "1", "--file=-x", "--file=--"],
        ["enumerate", "--g", "1_0", "--p", " 5", "--n", "+1"],
        ["detect-half", "--g", "1", "--p", "5", "--n", "1", "stray"],
        [], ["frobnicate"], ["cyclo"], ["--help"],
    ],
    ids=repr,
)
def test_argv_parses_as_before(capsys, argv):
    assert_parsed_as_before(capsys, argv)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=argvs())
def test_drawn_argv_parses_as_before(capsys, argv):
    assert_parsed_as_before(capsys, argv)


def test_an_explicit_double_dash_is_a_usage_error(capsys):
    # argparse read "--format=--" as the value [] (run printed TSV) and
    # "--p=--" as p = [] (exit 3); the one reading that changed is now exit 2
    assert vars(build_parser().parse_args(["cyclo", "1", "--format=--"]))["format"] == []
    minpoly = ["minpoly", "--p=--", "--n", "1", "--sign", "+", "--t", "1"]
    for argv in (["cyclo", "1", "--format=--"], minpoly):
        code, out, err = invoke(capsys, argv)
        assert (code, out) == (2, "") and err.endswith(": expected one argument\n")


# Values a plain argv may hold: "-" or a token not starting with "-"
PLAIN_VALUES = ("-", "+2", "1_0", "\u0663", " 4", "x", "")


@st.composite
def plain_argvs(draw):
    """An argv of full flag names, each as ``--flag value``: flags repeated or left
    out, plain odd values, --format on either side, and a trailing -h or --help."""
    command = draw(st.sampled_from(list(FLAG_VALUES)))
    pairs = [
        [f"--{name}", draw(st.sampled_from(PLAIN_VALUES)) if draw(st.integers(0, 3)) == 0 else good]
        for name, good in (*FLAG_VALUES[command], ("format", "structured"))
        for _ in range(draw(st.sampled_from([1, 1, 1, 2, 0])))
    ]
    if command == "cyclo":
        pairs.append([draw(st.sampled_from(("12", *PLAIN_VALUES)))])
    before = draw(st.sampled_from([[], [], ["--format", "tsv"], ["--format", "-"]]))
    words = [word for pair in draw(st.permutations(pairs)) for word in pair]
    return [*before, command, *words, *draw(st.sampled_from([[], [], ["-h"], ["--help"]]))]


def is_plain(argv) -> bool:
    """Whether the plain reader reads ``argv``: to its values, or to help."""
    import weilparity.cli as cli

    try:
        return cli._plain(list(argv)) is not None
    except cli._Stop:
        return True


def assert_read_without_argparse(capsys, argv):
    # the plain reader's reading is argparse's, and no import of argparse is made for it
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "argparse", None)  # so "import argparse" fails
        assert_parsed_as_before(capsys, argv)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(argv=plain_argvs())
def test_a_plain_argv_is_read_without_argparse(capsys, argv):
    if is_plain(argv):
        assert_read_without_argparse(capsys, argv)
    else:
        assert_parsed_as_before(capsys, argv)


def test_golden_readme_and_help_argvs_are_plain(capsys):
    helps = [["-h"], ["--help"], *([command, "-h"] for command in FLAG_VALUES),
             ["--format", "structured", "verify", "-h"]]
    golden = [full for argv, fmt in GOLDEN
              for full in ([*argv, "--format", fmt], ["--format", fmt, *argv])]
    readme = [words[1:] for words in readme_command_lines()]
    assert readme
    for argv in [*helps, *golden, *readme]:
        assert is_plain(argv), argv
        assert_read_without_argparse(capsys, argv)


# sha256 of each help's stdout, recorded before any argv went to argparse
HELP_DIGESTS = {
    ("-h",): "612eb548b74f7af85dd2683c900c09da501ba9c9134a810bc99a9018224c8de1",
    ("--help",): "612eb548b74f7af85dd2683c900c09da501ba9c9134a810bc99a9018224c8de1",
    ("-hh",): "612eb548b74f7af85dd2683c900c09da501ba9c9134a810bc99a9018224c8de1",
    ("cyclo", "-h"): "d91aa1d3c4cfc7e613c93839c3b5111eb2398218e238a8c8d63e7e97da001098",
    ("minpoly", "-h"): "cbf562f384a83c3617b7e14f7932ab4dee0345e21afd65593dce8dadfbc3292e",
    ("enumerate", "-h"): "3cb1304b6ff70f156a8f21833d04bff7265503c711d5d6828fc68df59b6ffe1d",
    ("verify", "-h"): "24381813b623c9d6df090c81b9c3889dd4665d5b8410c673f9c3db09d691b176",
    ("detect-half", "-h"): "58476987b2668a04a97e6bbe9ecf5976d4a01757354ebc64eea38ac3964b02f7",
    ("bounds", "-h"): "6542c9ebd295859d5efd534208359936a19c4624ed4d1c1ed821f31dae4c12c6",
    ("--format", "structured", "verify", "-h"):
        "24381813b623c9d6df090c81b9c3889dd4665d5b8410c673f9c3db09d691b176",
}


@pytest.mark.parametrize("argv", HELP_DIGESTS, ids=" ".join)
def test_help_text_is_unchanged(capsys, argv):
    code, out, err = invoke(capsys, list(argv))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[argv]


def test_enumerate_to_bounds_round_trip(tmp_path, capsys):
    # feed enumerated candidates back through the bounds subcommand
    code, out, _ = invoke(
        capsys, ["enumerate", "--g", "3", "--p", "11", "--n", "1", "--format", "structured"]
    )
    assert code == 0
    doc = json.loads(out)
    ref = tmp_path / "candidates.txt"
    ref.write_text(
        "# enumerated candidates, ascending coefficients\n"
        + "\n".join(" ".join(str(c) for c in cand["coeffs"]) for cand in doc["candidates"])
        + "\n"
    )
    code, out, _ = invoke(
        capsys, ["bounds", "--g", "3", "--p", "11", "--n", "1", "--file", str(ref)]
    )
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert len(rows) == doc["total_candidates"]
    for row in rows:
        fields = row.split("\t")
        assert fields[5:] == ["true", "true", "true"]  # lemma_a1, arch, valuation


def test_ingest_reference(tmp_path):
    # the file yields one rendered item per polynomial line, made from its
    # ascending coefficients without trailing zeros and read a line at a
    # time; a bad token fails at its own line number
    from weilparity.bounds import ingest_reference

    params = WeilParams(p=5, n=1, g=1)

    def render(report, text):
        return f"{text(report.a_values[0])} {report.symmetric_ok}"

    ref = tmp_path / "ref.txt"
    ref.write_bytes(b"# comment\n\n 5 0 1\r\n-5 -3 1 0 0\n")
    assert list(ingest_reference(ref, params, render, 1 << 22)) == ["0 True", "-3 False"]

    bad = tmp_path / "bad.txt"
    bad.write_text("5 0 1\nx y z\n")
    items = ingest_reference(bad, params, render, 1 << 22)
    assert next(items) == "0 True"  # read a line at a time
    with pytest.raises(ParseError) as info:
        next(items)
    assert str(info.value) == f"{bad}:2: invalid literal for int() with base 10: 'x'"
    with pytest.raises(FileNotFoundError):
        ingest_reference(tmp_path / "missing.txt", params, render, 1 << 22)  # opened by the call


SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23]
# capsys is read out after every invocation, so sharing it across examples is safe
SHARED_CAPSYS = dict(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@settings(max_examples=30, **SHARED_CAPSYS)
@given(
    g=st.integers(1, 3),
    p=st.sampled_from(SMALL_PRIMES),
    n=st.sampled_from([1, 3, 5]),
)
def test_enumerate_tsv_agrees_with_structured(capsys, g, p, n):
    argv = ["enumerate", "--g", str(g), "--p", str(p), "--n", str(n)]
    code, tsv, _ = invoke(capsys, argv)
    code_json, out, _ = invoke(capsys, argv + ["--format", "structured"])
    assert code == code_json == 0
    doc = json.loads(out)
    rows = [line.split("\t") for line in tsv.splitlines()[1:]]
    assert len(rows) == len(doc["candidates"]) == doc["total_candidates"]
    sign_text = {1: "+", -1: "-"}
    for row, cand in zip(rows, doc["candidates"]):
        assert row[:3] == [str(g), str(p), str(n)]
        assert row[3] == " ".join(map(str, cand["coeffs"]))
        assert row[4] == ("true" if cand["even"] else "false")
        assert row[5] == ";".join(
            f"{sign_text[f['sign']]}:{f['t']}:{f['mult']}" for f in cand["factors"]
        )


@settings(max_examples=15, **SHARED_CAPSYS)
@given(
    gmax=st.integers(1, 3),
    extra=st.sampled_from([0, 2, 6, 12]),
    ns=st.lists(st.sampled_from([1, 3, 5]), min_size=1, max_size=2, unique=True),
)
def test_verify_tsv_counts_match_structured(capsys, gmax, extra, ns):
    # at least the first prime above 2*gmax+1, so every g <= gmax is covered
    pmax = next(q for q in SMALL_PRIMES if q > 2 * gmax + 1) + extra
    argv = ["verify", "--gmax", str(gmax), "--pmax", str(pmax)]
    for n in ns:
        argv += ["--n", str(n)]
    code, tsv, _ = invoke(capsys, argv)
    code_json, out, _ = invoke(capsys, argv + ["--format", "structured"])
    assert code == code_json == 0
    docs = json.loads(out)
    rows = [line.split("\t") for line in tsv.splitlines()[1:]]
    assert len(rows) == len(docs)
    for row, doc in zip(rows, docs):
        assert row[:3] == [str(doc["g"]), str(doc["p"]), str(doc["n"])]
        assert row[3:6] == [
            str(len(doc["candidates"])),
            str(sum(not c["even"] for c in doc["candidates"])),
            str(len(doc["half_degree_specs"])),
        ]


# every prime up to 31: p = 2, and both sides of 2g+1 for every g <= 3
ORACLE_PRIMES = primes_between(1, 31)


@settings(max_examples=40, **SHARED_CAPSYS)
@given(
    g=st.integers(1, 3),
    p=st.sampled_from(ORACLE_PRIMES),
    n=st.sampled_from([1, 3, 5]),
)
def test_structured_enumerate_matches_the_dict_oracle(capsys, g, p, n):
    argv = ["enumerate", "--g", str(g), "--p", str(p), "--n", str(n), "--format", "structured"]
    code, out, _ = invoke(capsys, argv)
    report = verify_parity_theorem(WeilParams(p=p, n=n, g=g))
    assert (code, out) == (0, json.dumps(parity_doc(report)) + "\n")


@settings(max_examples=25, **SHARED_CAPSYS)
@given(
    gmax=st.integers(1, 3),
    pmax=st.integers(5, 31),
    ns=st.lists(st.sampled_from([1, 3, 5]), min_size=1, max_size=3, unique=True),
)
def test_structured_verify_matches_the_dict_oracle(capsys, gmax, pmax, ns):
    assume(2 * gmax + 1 < max(q for q in ORACLE_PRIMES if q <= pmax))  # every g has a cell
    argv = ["verify", "--gmax", str(gmax), "--pmax", str(pmax), "--format", "structured"]
    for n in ns:
        argv += ["--n", str(n)]
    code, out, _ = invoke(capsys, argv)
    assert (code, out) == (0, parity_json(grid_reports(gmax, pmax, ns)))


@pytest.mark.parametrize("fmt", ["tsv", "structured"])
@pytest.mark.parametrize("gmax, pmax, ns", [
    (1, 5, [1]), (3, 60, [3, 1, 5]), (5, 200, [7]), (2, 10 ** 4, [1, 3]),
])
def test_verify_matches_the_per_cell_grid(capsys, fmt, gmax, pmax, ns):
    # a grid decided once per g prints what every cell, built on its own, gives
    argv = ["verify", "--gmax", str(gmax), "--pmax", str(pmax), "--format", fmt]
    for n in ns:
        argv += ["--n", str(n)]
    reports = grid_reports(gmax, pmax, ns)
    oracle = parity_json(reports) if fmt == "structured" else verify_tsv(reports)
    assert invoke(capsys, argv) == (0, oracle, "")


def test_verify_proves_no_sieved_prime_again(monkeypatch, cold_caches, capsys):
    # a grid builds one WeilParams per g and one per n to check it, each
    # proving its p by trial division, however many primes the sieve finds
    import weilparity.weil as weil

    real, counts = weil.is_prime, []
    for pmax in (100, 20000):
        calls = []
        monkeypatch.setattr(weil, "is_prime", lambda p: calls.append(p) or real(p))
        assert run(["verify", "--gmax", "3", "--pmax", str(pmax), "--n", "1", "--n", "3"]) == 0
        counts.append(len(calls))
    capsys.readouterr()
    assert counts[0] == counts[1] <= 3 + 2, counts


@pytest.mark.parametrize("g", range(1, 7))
def test_cell_text_matches_the_oracles(capsys, g):
    # both formats, on both sides of p = 2g+1 and at p = 2, against a
    # rendering from each candidate's own polynomial
    import weilparity.cli as cli

    for p in (2, 3, 5, 7, 11, 13, 101):
        for n in (1, 3):
            report = verify_parity_theorem(WeilParams(p=p, n=n, g=g))
            assert cli._cell_filler(report, "structured")(p, n) == json.dumps(parity_doc(report))
            code, out, _ = invoke(capsys, ["enumerate", "--g", str(g), "--p", str(p), "--n", str(n)])
            assert (code, out.splitlines()[1:]) == (0, enumerate_rows(report))


@pytest.mark.parametrize("fmt", ["tsv", "structured"])
def test_a_cell_converts_each_distinct_slot_once(monkeypatch, cold_caches, fmt):
    # g = 5 at p = 601: 54 candidates with 288 nonzero coefficients, but
    # only 44 distinct (power of q, coefficient) pairs, each multiplied out
    # once per cell
    import weilparity.enumerator as enumerator
    import weilparity.weil as weil

    products = []

    class Power(int):
        def __rmul__(self, c):
            products.append((c, int(self)))
            return c * int(self)

    real = weil.q_powers
    monkeypatch.setattr(weil, "q_powers", lambda q, k: [Power(x) for x in real(q, k)])
    argv = ["enumerate", "--g", "5", "--p", "601", "--n", "1", "--format", fmt]
    code, out, _ = recorded_run(monkeypatch, argv)
    report = verify_parity_theorem(WeilParams(p=601, n=1, g=5))
    if fmt == "tsv":
        assert out.splitlines()[1:] == enumerate_rows(report)
    else:
        assert out == json.dumps(parity_doc(report)) + "\n"
    shapes = enumerator.candidate_shapes(5, report.full_degree_specs)
    nonzero = [(5 - j, c) for shape, _ in shapes for j, c in enumerate(shape) if c]
    slots = set(nonzero)
    assert (len(shapes), len(nonzero), len(slots)) == (54, 288, 44)
    assert (code, sorted(products)) == (0, sorted((c, 601 ** e) for e, c in slots))


def test_structured_verify_renders_each_class_once(monkeypatch, cold_caches, capsys):
    # the 134 cells of g <= 5 form one scan class per g: each class's shapes
    # are built, and its count read, once, however many cells it has
    import weilparity.enumerator as enumerator

    gs, reads = [], []
    real_shapes, real_total = enumerator.candidate_shapes, enumerator.ParityReport.total_candidates
    monkeypatch.setattr(
        enumerator, "candidate_shapes", lambda g, specs: gs.append(g) or real_shapes(g, specs)
    )
    monkeypatch.setattr(enumerator.ParityReport, "total_candidates",
                        property(lambda r: reads.append(r) or real_total.fget(r)))
    argv = ["verify", "--gmax", "5", "--pmax", "60", "--n", "1", "--n", "3", "--format", "structured"]
    code, out, _ = invoke(capsys, argv)
    assert (code, len(json.loads(out))) == (0, 134)
    assert (gs, len(reads)) == ([1, 2, 3, 4, 5], 5)


@pytest.mark.parametrize("fmt", ["tsv", "structured"])
def test_template_rejects_a_shape_not_even_of_degree_2g(monkeypatch, cold_caches, fmt):
    # every shape is a polynomial of degree g in Y = X**2, so even of degree
    # 2g in X, by construction; any other degree breaks an invariant, checked
    # once per report when its filler is built, not once per cell; so do a
    # zero constant term (a product of cyclotomic shapes has constant +-1)
    # and a key with no shape
    import weilparity.cli as cli
    import weilparity.enumerator as enumerator

    report = enumerator.ParityReport(WeilParams(p=5, n=1, g=1), (), ())
    for shapes in ([[1, 1, 1]], [[1, 0, 0, 0, 1]], [[1]], [[0, 1]], []):
        made = tuple((tuple(coeffs), ()) for coeffs in shapes)
        monkeypatch.setattr(enumerator, "candidate_shapes", lambda g, specs: made)
        with pytest.raises(BrokenInvariant):
            cli._cell_filler(report, fmt)


def test_tsv_enumerate_writes_in_blocks(monkeypatch):
    # a cell's rows are filled in one piece of text but handed to the writer
    # one row at a time, so no write is much larger than a block
    import weilparity.cli as cli

    code, out, log = recorded_run(monkeypatch, ["enumerate", "--g", "10", "--p", "23", "--n", "3"])
    sizes = [len(text) for name, text in log if name == "out"]
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == GOLDEN[
        ("enumerate", "--g", "10", "--p", "23", "--n", "3"), "tsv"
    ]
    longest = max(map(len, out.splitlines()))
    assert min(sizes[:-1]) >= cli._WRITE_BLOCK > sizes[-1]
    assert max(sizes) <= cli._WRITE_BLOCK + longest + 1


# (file, g, p) of each golden bounds run
BOUNDS_CELLS = sorted({(a[-1][1:], int(a[2]), int(a[4])) for a, _ in GOLDEN if a[0] == "bounds"})


@pytest.mark.parametrize("name, g, p", BOUNDS_CELLS)
@pytest.mark.parametrize("n", [1, 3])
def test_bounds_text_matches_the_oracles(capsys, tmp_path, name, g, p, n):
    # both formats, on every line of every golden file, against a document
    # built as a dict and a row joined from its fields
    import weilparity.cli as cli

    ref = tmp_path / "polys.txt"
    ref.write_text(GOLDEN_FILES[name])
    params = WeilParams(p=p, n=n, g=g)
    reports = [full_bounds_report(coeffs_of(line), params) for line in poly_lines(ref.read_text())]
    for report in reports:
        assert cli._bounds_json(report) == json.dumps(bounds_doc(report))
    argv = ["bounds", "--g", str(g), "--p", str(p), "--n", str(n), "--file", str(ref)]
    header = "g\tp\tn\ta_values\tsymmetric\tlemma_a1\tarchimedean\tvaluation"
    assert invoke(capsys, argv)[:2] == (0, "\n".join([header, *map(bounds_row, reports)]) + "\n")
    code, out, _ = invoke(capsys, [*argv, "--format", "structured"])
    assert (code, out) == (0, json.dumps([bounds_doc(r) for r in reports]) + "\n")


@pytest.mark.parametrize("fmt", ["tsv", "structured"])
def test_bounds_checks_each_distinct_line_once(monkeypatch, capsys, tmp_path, fmt):
    # the golden g = 10 file repeats 10 of its 197 lines: each distinct
    # text is parsed, checked and rendered once, and its repeats reuse it
    import weilparity.bounds as bounds

    real = bounds.full_bounds_report
    checked = []

    def counting(coeffs, params):
        checked.append(tuple(coeffs))
        return real(coeffs, params)

    monkeypatch.setattr(bounds, "full_bounds_report", counting)
    key = ("bounds", "--g", "10", "--p", "23", "--n", "3", "--file", "@g10")
    assert golden_run(capsys, tmp_path, key, fmt) == GOLDEN[key, fmt]
    lines = poly_lines(GOLDEN_FILES["g10"])
    assert checked == [tuple(coeffs_of(line)) for line in dict.fromkeys(lines)]
    assert (len(lines), len(checked)) == (197, 187)


# g = 2 lines for p = 7, n = 1 (q = 7): valid and perturbed ones, one
# polynomial written four ways, trailing zeros, comments and blank lines
BOUNDS_POOL = [
    "49 0 7 0 1", "49 -14 3 -2 1", "49 0 8 1 1", "-49 0 7 0 1",
    "49 0 1000000000000000000000 0 1", "343 0 49 0 1",
    " 49 0 7 0 1", "49  0 7 0 1\t", "\t49 0 7 0 1  ", "49 0 7 0 1 0", "49 0 7 0 1 0 0",
    "# 49 0 7 0 1", "#", "  # indented", "", "   ",
    # other spellings of the same ints, which the token memo keys apart
    "+49 0 7 0 1", "049 -0 7 +0 1", "4_9 0 7 0 1", "\u0664\u0669 0 7 0 1", "49 0 7 0 1 -0",
    "49 +49 049 4_9 1", "49 \u0664\u0669 -0 +49 +1", "-0 0 7 0 01", "49 0 07 -0 \u0661",
]


@settings(max_examples=60, **SHARED_CAPSYS)
@given(
    drawn=st.lists(st.tuples(st.sampled_from(BOUNDS_POOL), st.sampled_from(["\n", "\r\n", "\r"])),
                   max_size=30),
    last_ending=st.booleans(),
    budget=st.sampled_from([0, 1000, 1 << 22]),
)
def test_bounds_with_repeated_lines_matches_the_per_line_oracle(
    monkeypatch, capsys, tmp_path, drawn, last_ending, budget
):
    # a file drawn with replacement from a small pool gives, in both
    # formats and at any budget, the output of checking every line afresh;
    # a lone "\r" ends a line as "\n" and "\r\n" do, as a text file splits
    import weilparity.cli as cli

    text = "".join(line + ending for line, ending in drawn)
    if drawn and not last_ending:
        text = text[:-len(drawn[-1][1])]
    ref = tmp_path / "polys.txt"
    ref.write_bytes(text.encode())
    params = WeilParams(p=7, n=1, g=2)
    reports = [full_bounds_report(coeffs_of(line), params) for line in poly_lines(text)]
    header = "g\tp\tn\ta_values\tsymmetric\tlemma_a1\tarchimedean\tvaluation"
    expected = {
        "tsv": "\n".join([header, *map(bounds_row, reports)]) + "\n",
        "structured": json.dumps([bounds_doc(r) for r in reports]) + "\n",
    }
    argv = ["bounds", "--g", "2", "--p", "7", "--n", "1", "--file", str(ref)]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_MEMO_BUDGET", budget)
        for fmt, out in expected.items():
            assert invoke(capsys, [*argv, "--format", fmt]) == (0, out, "")


@pytest.mark.parametrize("fmt", ["tsv", "structured"])
@pytest.mark.parametrize("bad, message", [
    ("5 zero 1", "{ref}:7: invalid literal for int() with base 10: 'zero'"),
    ("1 2 3", "polynomial must be monic of degree 2, got degree 2"),
])
def test_bounds_fails_at_its_own_line_after_repeats(capsys, tmp_path, fmt, bad, message):
    # a failing line is never kept: after repeats of good lines it exits 2
    # at its own line number, after exactly the rows of the lines before it
    ref = tmp_path / "polys.txt"
    ref.write_text("\n".join(["5 0 1", "-5 0 1", "5 0 1", "# c", "5 0 1", "-5 0 1", bad,
                              "5 0 1", bad]) + "\n")
    items = BOUNDS_G1_ITEMS[fmt]
    if fmt == "tsv":
        header, *items = items  # then the items of "5 0 1" and "-5 0 1"
    made = [items[k] for k in (0, 1, 0, 0, 1)]
    expected = "\n".join([header, *made]) if fmt == "tsv" else "[" + ", ".join(made)
    code, out, err = invoke(capsys, [*BOUNDS_G1, str(ref), "--format", fmt])
    assert (code, out, err) == (2, expected, f"error: {message.format(ref=ref)}\n")


@pytest.mark.parametrize("fmt", ["tsv", "structured"])
@pytest.mark.parametrize("token", ["zero", "4_", "\u0664x",
                                   pytest.param("1" * 4301, id="past-the-digit-limit")])
def test_bounds_bad_token_fails_at_its_first_line(capsys, tmp_path, fmt, token):
    # a token that fails to parse is never kept: repeated on later lines, in
    # other places, it exits 2 at its first line, with int's own message
    # (past Python's digit limit too), after exactly the rows before it
    ref = tmp_path / "polys.txt"
    lines = ["5 0 1", "-5 0 1", "5 0 1", f"5 {token} 1", f"{token} 0 1", "5 0 1", f"5 0 {token}"]
    ref.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        int(token)
    items = BOUNDS_G1_ITEMS[fmt]
    if fmt == "tsv":
        header, *items = items
    made = [items[k] for k in (0, 1, 0)]
    expected = "\n".join([header, *made]) if fmt == "tsv" else "[" + ", ".join(made)
    code, out, err = invoke(capsys, [*BOUNDS_G1, str(ref), "--format", fmt])
    assert (code, out, err) == (2, expected, f"error: {ref}:4: {info.value}\n")


def test_bounds_memo_stops_taking_lines_at_its_budget(monkeypatch, capsys, tmp_path):
    # distinct lines, then the same lines again: a repeat is checked again
    # exactly when its line did not fit in the budget as it was first made.
    # A line's first occurrence keeps, each while it fits in what is left:
    # its new tokens' ints, then its new a_1's text (each costs twice its
    # text's length), then its raw text, newline included, with its row;
    # each entry costs _ENTRY_CHARS more
    import weilparity.bounds as bounds
    import weilparity.cli as cli

    lines = [f"5 {k} 1" for k in range(40)]
    ref = tmp_path / "polys.txt"
    ref.write_text("\n".join(lines * 2) + "\n")
    params = WeilParams(p=5, n=1, g=1)
    rows = [bounds_row(full_bounds_report(coeffs_of(line), params)) for line in lines]
    real = bounds.full_bounds_report
    checked = []

    def counting(coeffs, params):
        checked.append(coeffs)
        return real(coeffs, params)

    monkeypatch.setattr(bounds, "full_bounds_report", counting)
    monkeypatch.setattr(cli, "_MEMO_BUDGET", 3000)
    header = BOUNDS_G1_ITEMS["tsv"][0]
    assert invoke(capsys, [*BOUNDS_G1, str(ref)]) == (0, "\n".join([header, *rows * 2]) + "\n", "")
    room, ints, texts, kept = 3000, set(), set(), set()

    def fits(cost):
        nonlocal room
        if cost + bounds._ENTRY_CHARS > room:
            return False
        room -= cost + bounds._ENTRY_CHARS
        return True

    for line, row in zip(lines, rows):
        for token in line.split():
            if token not in ints and fits(2 * len(token)):
                ints.add(token)
        a_1 = line.split()[1]
        if a_1 not in texts and fits(2 * len(a_1)):
            texts.add(a_1)
        if fits(len(line) + 1 + len(row)):
            kept.add(line)
    assert 0 < len(kept) < len(lines)
    assert checked == [coeffs_of(line) for line in lines + [s for s in lines if s not in kept]]


def test_bounds_memo_keeps_what_fits_in_its_budget():
    # an entry is kept only if twice the length of its text, and
    # _ENTRY_CHARS, fit in what is left of the run's budget, past Python's
    # digit limit too; an exception is never kept
    from weilparity.bounds import _ENTRY_CHARS, _Memo

    room = [2 * _ENTRY_CHARS + 11]
    ints, texts = _Memo(int, room), _Memo(str, room)
    assert (ints["12"], texts[-7], room) == (12, "-7", [3])
    room[0] += _ENTRY_CHARS
    assert (ints["345"], ints["+1"], room) == (345, 1, [_ENTRY_CHARS + 3])  # neither fits
    assert (ints["1"], room) == (1, [1])
    assert (dict(ints), dict(texts)) == ({"12": 12, "1": 1}, {-7: "-7"})
    with pytest.raises(ValueError):
        ints["x"]
    assert "x" not in ints
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)  # no limit: a token of any length parses
    try:
        big, cost = "7" * 5000, 10000 + _ENTRY_CHARS
        for budget, kept in ((cost - 1, False), (cost, True)):
            room = [budget]
            ints, texts = _Memo(int, room), _Memo(str, room)
            assert (ints[big], big in ints, room) == (int(big), kept, [budget - cost * kept])
            room[0] = budget
            assert (texts[int(big)], int(big) in texts) == (big, kept)
    finally:
        set_limit(limit)


def test_bounds_memo_memory_stops_at_its_budget(monkeypatch, tmp_path):
    # on files of distinct lines, the memos keep them all under the default
    # budget, so quadrupling the file (1500 -> 6000 lines) raises the traced
    # peak by over 500 KB; under a 1000-character budget it moves the peak
    # by less than 100 KB, and the output is the same.  In the second file
    # no token repeats either: each line spells its leading 1 anew, as three
    # digits (0, 0 and 1) of the scripts whose decimal digits int reads
    import weilparity.cli as cli

    header = BOUNDS_G1_ITEMS["tsv"][0]
    params = WeilParams(p=5, n=1, g=1)
    zeros = [chr(c) for c in range(0x10000) if unicodedata.decimal(chr(c), -1) == 0]
    ones = ["".join(spelling) + chr(ord(z) + 1) for *spelling, z in product(zeros, repeat=3)]
    files = {
        "lines": lambda k: f"5 {k * 10 ** 30} 1",
        "tokens": lambda k: f"{2 * k + 1}{'0' * 30} {2 * k + 2}{'0' * 30} {ones[k]}",
    }

    def peak(kind, count, budget):
        lines = [files[kind](k) for k in range(count)]
        ref = tmp_path / f"{kind}{count}.txt"
        ref.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rows = [bounds_row(full_bounds_report(coeffs_of(line), params)) for line in lines]
        expected = hashlib.sha256(("\n".join([header, *rows]) + "\n").encode()).hexdigest()
        sink = HashSink()
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", sink)
            patch.setattr(cli, "_MEMO_BUDGET", budget)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                assert run([*BOUNDS_G1, str(ref)]) == 0
                high = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert sink.sha.hexdigest() == expected
        return high

    default = cli._MEMO_BUDGET
    peak("lines", 10, default)  # fills the threshold table's cache
    for kind in files:
        grown = [peak(kind, 6000, budget) - peak(kind, 1500, budget) for budget in (default, 1000)]
        assert grown[0] > 500_000 and grown[1] < 100_000, (kind, grown)


A_K = st.one_of(
    st.just(0),
    st.integers(-(2 ** 70), 2 ** 70),
    st.integers(2 ** 64, 2 ** 300).flatmap(lambda a: st.sampled_from([a, -a])),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), g=st.integers(1, 6), p=st.sampled_from([2, 3, 5, 401, 999_999_937]),
       n=st.sampled_from([1, 3, 2 ** 65 + 1]))
def test_bounds_json_matches_json_dumps(data, g, p, n):
    # any a_k, beyond 64 bits and negative too, and any flags, drawn apart
    # from the checks that would set them
    import weilparity.cli as cli

    flags = st.tuples(*[st.booleans()] * g)
    report = BoundsReport(
        WeilParams(p=p, n=n, g=g), data.draw(st.tuples(*[A_K] * g)), data.draw(flags),
        data.draw(flags), data.draw(st.booleans()), data.draw(st.booleans()),
    )
    assert cli._bounds_json(report) == json.dumps(bounds_doc(report))


def test_bounds_json_every_flag_combination():
    import weilparity.cli as cli

    params = WeilParams(p=5, n=1, g=2)
    for bits in range(1 << 6):
        flag = [bool(bits >> i & 1) for i in range(6)]
        report = BoundsReport(params, (-(2 ** 64), 0), tuple(flag[:2]), tuple(flag[2:4]), *flag[4:])
        assert cli._bounds_json(report) == json.dumps(bounds_doc(report))


def test_structured_cyclo_matches_json_dumps(capsys):
    for n in range(1, 401):
        code, out, _ = invoke(capsys, ["cyclo", str(n), "--format", "structured"])
        doc = {"n": n, "coeffs": list(cyclotomic(n))}
        assert (code, out) == (0, json.dumps(doc) + "\n"), n


def test_structured_minpoly_matches_json_dumps(capsys):
    # a half-degree t (the polynomial would be odd) is exit 2 with no output
    for p, n, sign, t in product((2, 3, 5, 7, 11, 101), (1, 3, 5), (1, -1), range(1, 16)):
        argv = ["minpoly", "--p", str(p), "--n", str(n), "--sign", "+-"[sign < 0],
                "--t", str(t), "--format", "structured"]
        code, out, _ = invoke(capsys, argv)
        try:
            poly = minpoly_full_degree(WeilParams(p=p, n=n, g=1), sign, t)
        except ValueError:
            assert (code, out) == (2, "")
            continue
        doc = {"p": p, "n": n, "sign": sign, "t": t,
               "degree": len(poly) - 1, "coeffs": list(poly)}
        assert (code, out) == (0, json.dumps(doc) + "\n"), argv
