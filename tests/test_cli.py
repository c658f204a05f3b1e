import argparse
import hashlib
import io
import json
import re
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from galmod import cyclic_rep, decomposition
from galmod.checks import check_case, generate_corpus
from galmod.cli import build_parser, main
from mutants import count_calls, wrong_chain  # noqa: F401  (a fixture)

README = Path(__file__).resolve().parents[1] / "README.md"

Z4_DOC = {
    "group": {"p": 2, "v": 2},
    "base_genus": 0,
    "orbits": [{"id": "P", "depth": 2, "jumps": [3, 1]}],
    "divisor": {"base_degree": 0, "orbit_coeffs": {"P": 6}},
    "options": {"strict_validation": False},
}

FREE_DOC = {
    "group": {"p": 2, "v": 1},
    "base_genus": 1,
    "orbits": [],
    "divisor": {"base_degree": 3, "orbit_coeffs": {}},
    "options": {},
}


@pytest.fixture
def z4_file(tmp_path):
    path = tmp_path / "z4.json"
    path.write_text(json.dumps(Z4_DOC))
    return str(path)


@pytest.fixture
def free_file(tmp_path):
    path = tmp_path / "free.json"
    path.write_text(json.dumps(FREE_DOC))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_z4_json(z4_file, capsys):
    code, out, _ = run(capsys, "decompose", z4_file, "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["multiplicities"] == [0, 1, 0, 1]
    assert report["dim_h0"] == 6
    assert report["genus_per_level"] == [1, 0, 0]
    assert report["euler_simple_basis"] == [2, 4, 5, 6]
    assert report["methods"] == ["ClosedForm", "Recursive"]


def test_decompose_free_tower(free_file, capsys):
    code, out, _ = run(capsys, "decompose", free_file, "--format", "json")
    assert code == 0
    assert json.loads(out)["multiplicities"] == [0, 3]


def test_decompose_table_matches_json(z4_file, capsys):
    code, table, _ = run(capsys, "decompose", z4_file)
    assert code == 0
    code, out, _ = run(capsys, "decompose", z4_file, "--format", "json")
    report = json.loads(out)
    for j, (deg, m) in enumerate(zip(report["degrees"],
                                     report["multiplicities"]), start=1):
        assert f"{j:>3}  {deg:>5}  {m:>3}" in table


def test_output_round_trip(z4_file, tmp_path, capsys):
    code, out, _ = run(capsys, "decompose", z4_file, "--format", "json")
    echoed = json.loads(out)["input"]
    refed = tmp_path / "refed.json"
    refed.write_text(json.dumps(echoed))
    code2, out2, _ = run(capsys, "decompose", str(refed), "--format", "json")
    assert code2 == 0
    assert json.loads(out2) == json.loads(out)


def test_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run(capsys, "decompose", str(path))
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("content", [
    pytest.param(b'{"group": {"p": ' + b"7" * 5000 + b', "v": 1}}',
                 id="5000-digit-integer",
                 marks=pytest.mark.skipif(
                     not hasattr(sys, "get_int_max_str_digits"),
                     reason="no limit on integer string conversion")),
    pytest.param(b"[" * 10 ** 5 + b"]" * 10 ** 5, id="nested-10^5-deep"),
    pytest.param(b'{"group": "\xff"}', id="invalid-utf8"),
])
def test_undecodable_document_exit_2(content, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "decompose", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("doc,message", [
    pytest.param(dict(Z4_DOC, orbits=5), "'orbits' must be an array",
                 id="orbits-integer"),
    pytest.param(dict(Z4_DOC, orbits=None), "'orbits' must be an array",
                 id="orbits-null"),
    pytest.param(dict(Z4_DOC, orbits={"a": 1}), "'orbits' must be an array",
                 id="orbits-object"),
    pytest.param(dict(Z4_DOC, options={"strict_validation": "no"}),
                 "'strict_validation' must be a boolean",
                 id="strict-validation-string"),
])
def test_ill_typed_document_exit_2(doc, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "decompose", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert message in err
    assert "Traceback" not in err


def test_missing_key_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"group": {"p": 2}}))
    code, _, err = run(capsys, "decompose", str(path))
    assert code == 2
    assert "missing key" in err


def test_unknown_orbit_reference_exit_3(tmp_path, capsys):
    doc = dict(Z4_DOC, divisor={"base_degree": 0, "orbit_coeffs": {"Q": 6}})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "decompose", str(path))
    assert code == 3
    assert "unknown orbit" in err


def test_strict_validation_exit_3(tmp_path, capsys):
    doc = dict(Z4_DOC, orbits=[{"id": "P", "depth": 1, "jumps": [3]}],
               options={"strict_validation": True})
    doc["group"] = {"p": 2, "v": 1}
    doc["orbits"][0]["jumps"] = [2]  # p | N
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "decompose", str(path))
    assert code == 3


def test_degree_too_small_exit_4(tmp_path, capsys):
    doc = dict(Z4_DOC, divisor={"base_degree": 0, "orbit_coeffs": {"P": 0}})
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    code, _, _ = run(capsys, "decompose", str(path))
    assert code == 4


def test_genus_command(z4_file, capsys):
    code, out, _ = run(capsys, "genus", z4_file)
    assert code == 0
    assert json.loads(out)["genus_per_level"] == [1, 0, 0]


def test_euler_command(z4_file, capsys):
    code, out, _ = run(capsys, "euler", z4_file)
    assert code == 0
    assert json.loads(out)["euler_simple_basis"] == [2, 4, 5, 6]


def test_noether_command(z4_file, capsys):
    code, out, _ = run(capsys, "noether", z4_file, "--w", "1")
    report = json.loads(out)
    assert not report["containment"]
    assert report["witness"]["j"] == 1
    assert report["witness"]["m_j"] == 1
    code2, out2, _ = run(capsys, "noether", z4_file, "--w", "2")
    assert code2 == 0
    assert json.loads(out2)["containment"]


def test_oracle_single_case(capsys):
    code, out, _ = run(capsys, "oracle", "--p", "2", "--m-max", "3",
                       "--n-max", "6")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"]
    case = next(r for r in report["results"]
                if r["m"] == 3 and r["n"] == 4)
    assert case["oracle"] == [2, 1]


def test_oracle_rejects_nonprime(capsys):
    code, _, err = run(capsys, "oracle", "--p", "4")
    assert code == 2


def test_check_small_and_deterministic(capsys):
    code, out1, _ = run(capsys, "check", "--seed", "7", "--cases", "25")
    assert code == 0
    code, out2, _ = run(capsys, "check", "--seed", "7", "--cases", "25")
    assert out1 == out2
    assert "cases=25" in out1


def test_check_zero_cases_vacuous(capsys):
    code, out, _ = run(capsys, "check", "--seed", "1", "--cases", "0")
    assert code == 0
    assert "failures=0" in out


def test_trivial_group_document(tmp_path, capsys):
    doc = {"group": {"p": 3, "v": 0}, "base_genus": 1, "orbits": [],
           "divisor": {"base_degree": 4, "orbit_coeffs": {}}, "options": {}}
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "decompose", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["multiplicities"] == [4]
    assert report["dim_h0"] == 4


@pytest.mark.parametrize("group", [{"p": 10 ** 18 + 3, "v": 1},
                                   {"p": 2, "v": 10 ** 12},
                                   {"p": 3127, "v": 0}])
def test_group_above_cap_exit_3_without_unbounded_work(group, tmp_path,
                                                        capsys, monkeypatch):
    real = cyclic_rep._is_prime

    def guarded(n):
        assert n <= cyclic_rep.MAX_ORDER, f"primality test run on p = {n}"
        return real(n)

    monkeypatch.setattr(cyclic_rep, "_is_prime", guarded)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dict(FREE_DOC, group=group)))
    code, out, err = run(capsys, "decompose", str(path))
    assert code == 3
    assert out == ""
    assert "exceeds the cap" in err


# Order 5^5 = 3125, orbits of depth 1, 3 and 5 with strict-valid breaks.
ORDER_3125_DOC = {
    "group": {"p": 5, "v": 5},
    "base_genus": 0,
    "orbits": [{"id": "P0", "depth": 1, "jumps": [7]},
               {"id": "P1", "depth": 5,
                "jumps": [1031163, 41163, 1663, 63, 3]},
               {"id": "P2", "depth": 3, "jumps": [5109, 209, 9]}],
    "divisor": {"base_degree": 1859,
                "orbit_coeffs": {"P0": 16, "P1": 16, "P2": -27}},
    "options": {"strict_validation": True},
}


README_DOC = json.loads(
    re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1))

# sha256 of the stdout of `galmod decompose FILE --method M --format json`,
# pinned before the degree table moved from the pushforward chain to the
# digit-sum formula: an engine change must leave these bytes alone.
# Regenerate from the repository root with
#   PYTHONPATH=src:tests python -c "import test_cli as t; print({k: t.decompose_json_sha256(*k) for k in t.GOLDEN_SHA256})"
GOLDEN_SHA256 = {
    ("order3125", "all"):
        "660671a784caaf6a3690a9bb063eff8d81cb95d24a07336adcef229ed71f9704",
    ("order3125", "closed"):
        "6c0bba5caca951786795bf64956e810378a5534e1400dc4d4a772884fee527b3",
    ("readme", "all"):
        "dc450cc2d186739405caf8630f9cd65e98be437106ab50b9c3b77a9d2044ba90",
}


def decompose_json_sha256(doc: str, method: str) -> str:
    docs = {"order3125": ORDER_3125_DOC, "readme": README_DOC}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{doc}.json"
        path.write_text(json.dumps(docs[doc]))
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["decompose", str(path), "--method", method,
                         "--format", "json"]) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("doc,method", sorted(GOLDEN_SHA256))
def test_decompose_json_matches_pinned_digest(doc, method):
    assert decompose_json_sha256(doc, method) == GOLDEN_SHA256[doc, method]


def test_decompose_all_work_is_linear_in_order(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, ("pushforward_alpha", "cartan_inverse"))
    # the pushforward chain reads coefficients in tower order, so only the
    # id-keyed input is ever looked up by orbit id
    orbit = count_calls(monkeypatch, ("orbit",))
    path = tmp_path / "order3125.json"
    path.write_text(json.dumps(ORDER_3125_DOC))
    code, out, _ = run(capsys, "decompose", str(path), "--method", "all",
                       "--format", "json")
    assert code == 0
    assert len(json.loads(out)["multiplicities"]) == 3125
    # only Recursive walks the chain: one step per (level, index) pair
    assert 0 < calls["pushforward_alpha"] <= sum(5 ** n for n in range(1, 6))
    assert calls["cartan_inverse"] == 0
    assert orbit["orbit"] <= 20


def test_decompose_closed_walks_no_chain(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, ("pushforward_alpha",
                                      "graded_piece_divisor",
                                      "level_zero_divisor", "LevelDivisor"))
    path = tmp_path / "order3125.json"
    path.write_text(json.dumps(ORDER_3125_DOC))
    code, out, _ = run(capsys, "decompose", str(path), "--method", "closed",
                       "--format", "json")
    assert code == 0
    assert len(json.loads(out)["multiplicities"]) == 3125
    assert calls["pushforward_alpha"] == calls["graded_piece_divisor"] == 0
    # the only divisors built are the input viewed on X itself
    assert calls["LevelDivisor"] == calls["level_zero_divisor"] > 0


def test_decompose_method_choices_match_readme():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    method = next(a for a in sub.choices["decompose"]._actions
                  if a.dest == "method")
    synopsis = re.search(r"galmod decompose FILE \[--method ([\w|-]+)\]",
                         README.read_text())
    assert method.choices == synopsis.group(1).split("|")


def test_cross_check_fires_on_a_wrong_degree_table(z4_file, capsys,
                                                    monkeypatch):
    real = decomposition.degree_table

    def off_by_one(d, t):
        degs = real(d, t)
        degs[-1] += 1
        return degs

    case = generate_corpus(1, 1)[0]
    recursive = decomposition.decompose_recursive(case[1], case[0])
    monkeypatch.setattr(decomposition, "degree_table", off_by_one)
    # Recursive builds its own chain, so the patch leaves it unchanged
    assert decomposition.decompose_recursive(case[1], case[0]) == recursive
    code, out, err = run(capsys, "decompose", z4_file, "--method", "all")
    assert code == 1
    assert out == ""
    assert "method divergence" in err
    assert any("method divergence" in msg for msg in check_case(case))


def test_a_wrong_chain_fails_the_cross_check_and_fixed_points(
        z4_file, capsys, wrong_chain):
    case = next(c for c in generate_corpus(1, 200)
                if any(o.depth >= 2 for o in c[0].orbits))
    failures = check_case(case)
    assert any("method divergence" in msg for msg in failures)
    # level 1 is strictly between the dimension and the Kani identities;
    # the identities name the route that walked the wrong chain
    assert any(msg.startswith("fixed points of the order-p^1 subgroup")
               and msg.endswith("(Recursive)") for msg in failures)
    assert not any("(ClosedForm" in msg for msg in failures)
    code, out, err = run(capsys, "decompose", z4_file, "--method", "all")
    assert code == 1
    assert out == ""
    assert "method divergence" in err
    assert "fixed points of the order-p^" in err
    assert "(ClosedForm" not in err
    assert '"orbit_coeffs": {"P": 6}' in err


def test_a_wrong_chain_diverges_on_every_deep_corpus_case(wrong_chain):
    deep = [(t, d) for t, d in generate_corpus(1, 3000)
            if any(o.depth >= 2 for o in t.orbits)]
    assert len(deep) == 251
    for t, d in deep:
        assert (decomposition.decompose_closed_form(d, t).mult_list
                != decomposition.decompose_recursive(d, t).mult_list)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no limit on integer string conversion")
@pytest.mark.parametrize("argv", [["decompose", "--format", "json"],
                                  ["decompose", "--format", "table"],
                                  ["euler"]])
def test_unrenderable_integers_exit_2(argv, tmp_path, capsys):
    # each input is within the digit limit, but dim H^0 and the Euler
    # vector of this free Z/2^2 tower would exceed it
    genus = 9 * 10 ** (sys.get_int_max_str_digits() - 2)
    doc = dict(FREE_DOC, group={"p": 2, "v": 2}, base_genus=genus,
               divisor={"base_degree": 5 * genus, "orbit_coeffs": {}})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err
