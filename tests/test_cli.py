"""Command-line interface: formats, exit codes, determinism."""

import hashlib
import json

import pytest

from weilparity.cli import ingest_reference, run
from weilparity.enumerator import G_CAP
from weilparity.errors import ParseError
from weilparity.intpoly import IntPoly


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cyclo_tsv(capsys):
    code, out, _ = invoke(capsys, ["cyclo", "12"])
    assert code == 0
    assert out == "1 0 -1 0 1\n"


def test_cyclo_structured(capsys):
    code, out, _ = invoke(capsys, ["cyclo", "12", "--format", "structured"])
    assert code == 0
    assert json.loads(out) == {"n": 12, "coeffs": [1, 0, -1, 0, 1]}


# sha256 of `weilparity cyclo N` stdout, recorded with the divisor-quotient
# construction that preceded the sparse one.
CYCLO_GOLDEN = {
    (1, "tsv"): "3aebd7327cb0c84b85ce4dfd301187d864a30cd0980162ef877d9e78be39d47f",
    (1, "structured"): "82e191ae3ad41f11f3e45bf3545feaa327e68790dfa5de4639fbf92a243ed0e7",
    (2, "tsv"): "3f11ad6bbc7ecca0b2416b713dee77f1a635c00aaeaa946e14cde1c2bfae56d5",
    (2, "structured"): "c68f20e508a84da78564786c42a71896c626404fe80f6647a85ed78eafd6b03c",
    (4, "tsv"): "793d9bd36e14dbedbdcb9a2183698b5f406276f9c3aebc41d6aff3b0839fe374",
    (4, "structured"): "03931aef96ed960b2002388039f821138652e7e29bcc9d685508e001fa9a98fc",
    (12, "tsv"): "a711587f931ab78be0eed87745f0c4c5e7c51c540ac775f791cb048a90611466",
    (12, "structured"): "0adabe6347b4ef28e706775e0833c8baa1cd7f682cb71d6559c754bc34ef9e94",
    (105, "tsv"): "5cda749b0ce827ae413f2d975ba4b94dc48b23fc6cc3a7ab98321f45e7a9f76d",
    (105, "structured"): "207e16a01be2ee69e94485e42931fba81a14d839cffc90f6f16fce974ffa21c8",
    (2 ** 12, "tsv"): "6627c6f8f960ca1cdc94e74c325ae7fe0edbd7bc687eb949fac44fc46705a7d8",
    (2 ** 12, "structured"): "3e24cb13eba30d59df7ee67cab1b0d69e66bed2e7f0320ff63ad831070219c9d",
    (30030, "tsv"): "3ce7c190c78f696d090eec102f790737850c9a96895d19c2cb3ae0f921d5ccd6",
    (30030, "structured"): "97d71cd6f0e44e5bdbeb87216b24aeba4dcb6fe545988899b415c967f244935b",
    (3 ** 10, "tsv"): "a9065e3219abf261ce5280182b4e866427497a5cce61aa1593212d13b70d6f0a",
    (3 ** 10, "structured"): "624a4404d6b3e3bc73058e6a9d822f096cc40a37be7e22840f68c765ff26e938",
}


@pytest.mark.parametrize("n, fmt", sorted(CYCLO_GOLDEN))
def test_cyclo_golden_digests(capsys, n, fmt):
    code, out, _ = invoke(capsys, ["cyclo", str(n), "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CYCLO_GOLDEN[n, fmt]


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


def test_bounds_rejects_malformed_file(tmp_path, capsys):
    ref = tmp_path / "polys.txt"
    ref.write_text("5 0 1\n5 zero 1\n")
    code, _, err = invoke(
        capsys, ["bounds", "--g", "1", "--p", "5", "--n", "1", "--file", str(ref)]
    )
    assert code == 2
    assert ":2:" in err  # line number reported


def test_bounds_rejects_wrong_shape(tmp_path, capsys):
    ref = tmp_path / "polys.txt"
    ref.write_text("1 2 3\n")  # not monic
    code, _, err = invoke(
        capsys, ["bounds", "--g", "1", "--p", "5", "--n", "1", "--file", str(ref)]
    )
    assert code == 2
    assert "monic" in err


def test_bounds_missing_file(capsys):
    code, _, err = invoke(
        capsys, ["bounds", "--g", "1", "--p", "5", "--n", "1", "--file", "/nonexistent"]
    )
    assert code == 2


def test_verify_exit_1_on_contract_violation(monkeypatch, capsys):
    # a genuine violation cannot be produced (the parity statement holds),
    # so fabricate a violating report to check the exit-code wiring
    import weilparity.cli as cli
    from weilparity.enumerator import CandidatePolynomial, GridResult, ParityReport
    from weilparity.weil import WeilParams

    params = WeilParams(p=11, n=1, g=1)
    odd_poly = IntPoly([11, 11, 1])
    fake_candidate = CandidatePolynomial(poly=odd_poly, factors=(), params=params)
    fake_report = ParityReport(
        params=params,
        total_candidates=1,
        odd_candidates=1,
        candidates=(fake_candidate,),
        violations=(fake_candidate,),
        half_degree_specs=(),
    )
    monkeypatch.setattr(
        cli, "verify_grid", lambda *a: GridResult(reports=(fake_report,), all_ok=False)
    )
    code = run(["verify", "--gmax", "1", "--pmax", "11", "--n", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "violated" in captured.err
    assert not fake_report.contract_ok


def test_usage_errors(capsys):
    assert invoke(capsys, [])[0] == 2
    assert invoke(capsys, ["frobnicate"])[0] == 2
    assert invoke(capsys, ["cyclo"])[0] == 2
    assert invoke(capsys, ["--help"])[0] == 0


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
    ref = tmp_path / "ref.txt"
    ref.write_text("# comment\n\n5 0 1\n")
    assert ingest_reference(ref) == [IntPoly([5, 0, 1])]
    assert ingest_reference(ref, skip_blank=False) == [IntPoly.zero(), IntPoly([5, 0, 1])]

    bad = tmp_path / "bad.txt"
    bad.write_text("5 0 1\nx y z\n")
    with pytest.raises(ParseError) as info:
        ingest_reference(bad)
    assert ":2:" in str(info.value)
