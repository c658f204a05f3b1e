import argparse
import gc
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from galmod import cli, cyclic_rep, decomposition
from galmod.checks import check_case, generate_corpus, random_case
from galmod.cli import build_parser, main
from galmod.cover_tower import CoverTower
from mutants import (  # noqa: F401  (wrong_chain is a fixture)
    apply_mutant, count_calls, count_line_events, one_orbit_case, wrong_chain)

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


@pytest.mark.parametrize("command", ["genus", "decompose", "euler"])
def test_negative_genus_exit_3(command, tmp_path, capsys):
    # NegativeGenus is a ValidationError, and must not fall through to the
    # GalmodError exit code: a free Z/5^5 tower over a rational curve
    doc = dict(FREE_DOC, group={"p": 5, "v": 5}, base_genus=0)
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 3
    assert out == ""
    assert "level 4: genus -4 < 0" in err


def test_degree_too_small_exit_4(tmp_path, capsys):
    doc = dict(Z4_DOC, divisor={"base_degree": 0, "orbit_coeffs": {"P": 0}})
    path = tmp_path / "small.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "decompose", str(path))
    assert code == 4
    assert (out, err) == ("", "error: deg D = 0 <= 2g_X - 2 = 0\n")
    # g_X = 13 and deg D = 4 * 1 + 3: two numbers that no slip confuses
    doc = dict(Z4_DOC, base_genus=3,
               divisor={"base_degree": 1, "orbit_coeffs": {"P": 3}})
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "decompose", str(path))
    assert code == 4
    assert (out, err) == ("", "error: deg D = 7 <= 2g_X - 2 = 24\n")


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


@pytest.mark.parametrize("argv", [
    ("oracle", "--p", "2", "--m-max", "-1"),
    ("oracle", "--p", "2", "--n-max", "-4"),
    ("oracle", "--p", "2", "--n-max", str(cli.MAX_ORACLE_N + 1)),
    ("check", "--cases", "-5"),
])
def test_work_flags_out_of_range_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: galmod ")
    assert "Traceback" not in captured.err


def test_oracle_stops_at_the_first_curve_without_cases(capsys, monkeypatch):
    curves = []
    real = cli.ASCurve

    def counting(p, m):
        curves.append(m)
        return real(p, m)

    monkeypatch.setattr(cli, "ASCurve", counting)
    code, out, _ = run(capsys, "oracle", "--p", "2", "--m-max", "3000000",
                       "--n-max", "10")
    assert code == 0
    assert json.loads(out)["cases"] == 41
    # 2g - 1 = m - 2 for p = 2: m = 13 is the first curve past n_max = 10
    assert curves == [1, 3, 5, 7, 9, 11, 13]


def test_oracle_accepts_the_n_max_cap(capsys):
    code, out, _ = run(capsys, "oracle", "--p", "5", "--m-max", "1",
                       "--n-max", str(cli.MAX_ORACLE_N))
    assert code == 0
    assert json.loads(out)["cases"] == cli.MAX_ORACLE_N + 1


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


def test_check_digest_covers_inputs_and_multiplicities(capsys):
    code, out, _ = run(capsys, "check", "--seed", "3", "--cases", "50")
    assert code == 0
    digest = hashlib.sha256()
    for tower, d in generate_corpus(3, 50):
        line = json.dumps([cli.echo_input(tower, d, {}),
                           list(decomposition.decompose_closed_form(
                               d, tower).mult_list)], sort_keys=True)
        digest.update(f"{line}\n".encode())
    assert out == (f"check seed=3 cases=50 failures=0 "
                   f"digest={digest.hexdigest()}\n")


def test_check_digest_sees_a_corpus_that_moves(capsys, monkeypatch):
    # lifting one base degree too far keeps every case above the gate, so
    # every check passes: only the digest tells the two corpora apart
    code, before, _ = run(capsys, "check", "--cases", "200")
    assert code == 0
    apply_mutant(monkeypatch, "lift by one more")
    code, after, _ = run(capsys, "check", "--cases", "200")
    assert code == 0
    assert after != before
    summary = "check seed=1 cases=200 failures=0 digest="
    assert before.startswith(summary) and after.startswith(summary)


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


def stdout_sha256(doc: str | None, command: str, *flags: str) -> str:
    """sha256 of the stdout of `galmod COMMAND [FILE] FLAGS...`, FILE
    holding the named document (none when `doc` is None)."""
    docs = {"order3125": ORDER_3125_DOC, "readme": README_DOC}
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command, *flags]
        if doc is not None:
            path = Path(tmp) / f"{doc}.json"
            path.write_text(json.dumps(docs[doc]))
            argv.insert(1, str(path))
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def decompose_json_sha256(doc: str, method: str) -> str:
    return stdout_sha256(doc, "decompose", "--method", method,
                         "--format", "json")


@pytest.mark.parametrize("doc,method", sorted(GOLDEN_SHA256))
def test_decompose_json_matches_pinned_digest(doc, method):
    assert decompose_json_sha256(doc, method) == GOLDEN_SHA256[doc, method]


# sha256 of the stdout of the other JSON commands, pinned while they still
# printed through json.dumps(indent=2, sort_keys=True), before render_json.
# Regenerate from the repository root with
#   PYTHONPATH=src:tests python -c "import test_cli as t; print({k: t.stdout_sha256(*k) for k in t.COMMAND_SHA256})"
COMMAND_SHA256 = {
    ("readme", "genus"):
        "c8f2001cbdf4da76f8dbb2ae581e70e6b2e021f8df655ab4704c66d5256963c9",
    ("readme", "euler"):
        "0a5be6de41e5d1e151a1b948055f1c2d3873203bbe70e8fd087b39b3dd3cd244",
    ("readme", "noether", "--w", "1"):
        "75623ba0c91f9eb9463cbb686d0b1c32883dffe306045b363db283d05b9b4021",
    ("order3125", "euler"):
        "460688f3b02ec20c436eb68c92ac66ecf112ef23ea160c5183240aafdf02b129",
    (None, "oracle", "--p", "2", "--m-max", "9", "--n-max", "62"):
        "f82147a22ceacda1442115386c362d6c05af146e69a3dcaf222e253f332081e4",
    (None, "oracle", "--p", "3", "--m-max", "9", "--n-max", "62"):
        "2b80fc19cb6751d7b449cda17162f08a0b421d3f46789b03566cdb652fc71f6a",
    (None, "oracle", "--p", "5", "--m-max", "9", "--n-max", "62"):
        "aced6f32a2bde5ae055af63cbec32450f8333e8cced3e624859727039c1bdac6",
}


@pytest.mark.parametrize("argv", list(COMMAND_SHA256),
                         ids=lambda argv: " ".join(filter(None, argv)))
def test_json_commands_match_pinned_digest(argv):
    assert stdout_sha256(*argv) == COMMAND_SHA256[argv]


_SCALARS = st.one_of(st.integers(), st.integers(2 ** 64, 2 ** 200),
                     st.booleans(), st.none(), st.text(max_size=8))
_INT_LISTS = (st.lists(st.integers(-2 ** 70, 2 ** 70))
              | st.lists(st.integers() | st.booleans(), min_size=1))
_VALUES = st.recursive(
    _SCALARS | _INT_LISTS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=10)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=8), _VALUES, max_size=6))
@example({})
@example({"a\n\"é": [True, 1], "b": [], "c": [-1, 2 ** 64], "d": "\u2028\t"})
@example({"a": [0]})
@example({"a": [-7, 2 ** 80]})
@example({"a": [1, True]})
def test_render_json_matches_json_dumps(obj):
    assert cli.render_json(obj) == json.dumps(obj, indent=2, sort_keys=True)


def test_main_builds_the_parser_once_and_reads_commands_at_call_time(
        monkeypatch):
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser",
                        lambda: builds.append(1) or real())
    assert main(["check", "--cases", "0"]) == 0
    ran = []
    monkeypatch.setitem(cli.COMMANDS, "check",
                        lambda args: ran.append(args.cases) or 7)
    assert main(["check", "--cases", "3"]) == 7
    assert builds == [1]
    assert ran == [3]


def test_check_holds_one_case_at_a_time(monkeypatch):
    # Counted as live towers, not as a tracemalloc peak: that peak includes
    # the blocks on the interpreter's tuple free lists (up to 2,000 per
    # size), whose fill depends on what ran before; at 2,000 cases they
    # can reach about 0.3 MB, next to about 1 MB for the whole corpus.
    def live_towers() -> int:
        return sum(type(o) is CoverTower for o in gc.get_objects())

    real = cli.check_case
    calls = itertools.count()
    live = []

    def counted(case):
        if next(calls) % 100 == 0:
            live.append(live_towers())
        return real(case)

    monkeypatch.setattr(cli, "check_case", counted)
    gc.collect()
    before = live_towers()
    with redirect_stdout(io.StringIO()):
        assert main(["check", "--cases", "1000"]) == 0
    assert len(live) == 10
    assert max(live) <= before + 1


def test_python_m_galmod_runs_from_a_checkout(tmp_path, capsys):
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(README_DOC))
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "galmod", "genus", str(path)],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout, proc.stderr) == run(capsys, "genus", str(path))[1:]


def test_decompose_all_work_is_linear_in_order(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, ("pushforward_columns",
                                      "pushforward_alpha", "cartan_inverse",
                                      "graded_piece_divisor", "divisor_degree",
                                      "level_zero_divisor", "LevelDivisor",
                                      "genera"))
    # the pushforward chain reads coefficients in tower order, so only the
    # id-keyed input is ever looked up by orbit id
    orbit = count_calls(monkeypatch, ("orbit",))
    path = tmp_path / "order3125.json"
    path.write_text(json.dumps(ORDER_3125_DOC))
    code, out, _ = run(capsys, "decompose", str(path), "--method", "all",
                       "--format", "json")
    assert code == 0
    assert len(json.loads(out)["multiplicities"]) == 3125
    # only Recursive walks the chain, by orbit columns: one column step per
    # level of the order-5^5 tower, and no per-index divisor or pushforward;
    # the three degrees are the input's, for the degree bound of each route
    # and for the report
    assert calls["pushforward_columns"] == 5
    assert calls["pushforward_alpha"] == calls["graded_piece_divisor"] == 0
    assert calls["LevelDivisor"] == calls["level_zero_divisor"] > 0
    assert calls["divisor_degree"] == 3
    assert calls["cartan_inverse"] == 0
    # one Riemann-Hurwitz pass each for validate_for_run, validate_strict,
    # the two routes' degree bounds and the fixed-point identities
    assert calls["genera"] == 5
    assert orbit["orbit"] == 0


def test_decompose_all_interpreter_work_follows_v_not_order(tmp_path, capsys):
    # Every pass over the p^v entries of a table, and the table format's
    # rows, runs in builtins, so the lines of galmod that run grow with the
    # height v, not with 2^v.
    def line_events(v, fmt):
        path = tmp_path / f"one_orbit_v{v}.json"
        path.write_text(json.dumps(cli.echo_input(*one_orbit_case(v), {})))
        argv = ["decompose", str(path), "--method", "all", "--format", fmt]
        assert run(capsys, *argv)[0] == 0  # an untraced run builds the parser
        code, events = count_line_events(main, argv)
        assert code == 0
        capsys.readouterr()
        return events

    # the bound sits between 1.6x, every pass in builtins, and 12.9x, the
    # passes looping per entry in Python (3.4x for the table format with
    # one Python line per row)
    for fmt in ("json", "table"):
        assert line_events(10, fmt) < 2 * line_events(5, fmt), fmt


def test_decompose_all_looks_up_no_orbit_per_orbit(tmp_path, capsys,
                                                  monkeypatch):
    # the input's orbit ids are matched in one pass over the tower's
    # orbits, not by one `CoverTower.orbit` scan each
    orbit = count_calls(monkeypatch, ("orbit",))
    ids = [f"P{k}" for k in range(1000)]
    doc = dict(FREE_DOC, base_genus=0,
               orbits=[{"id": oid, "depth": 1, "jumps": [1]} for oid in ids],
               divisor={"base_degree": 0, "orbit_coeffs": dict.fromkeys(ids, 5)})
    path = tmp_path / "orbits1000.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "decompose", str(path), "--method", "all",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["genus_per_level"] == [999, 0]
    assert orbit["orbit"] == 0


@pytest.mark.parametrize("flag", [[], ["--strict"]])
def test_decompose_all_validates_strictly_once(flag, z4_file, capsys,
                                               monkeypatch):
    # with --strict the verdict of validate_for_run also gates the
    # fixed-point identities; without it the gate computes its own
    calls = count_calls(monkeypatch, ("validate_strict",))
    code, _, _ = run(capsys, "decompose", z4_file, "--method", "all", *flag)
    assert code == 0
    assert calls["validate_strict"] == 1


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


def test_decompose_all_reports_what_check_case_reports(tmp_path, capsys,
                                                       wrong_chain):
    # both commands run one cross-check: same messages, in the same order
    tower, d = case = next(c for c in generate_corpus(1, 200)
                           if any(o.depth >= 2 for o in c[0].orbits))
    failures = check_case(case)
    assert len(failures) >= 2
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(cli.echo_input(tower, d, {})))
    code, out, err = run(capsys, "decompose", str(path), "--method", "all")
    assert (code, out) == (1, "")
    assert err.startswith("error: " + "; ".join(failures) + "; input: ")


def test_a_wrong_chain_diverges_on_every_deep_corpus_case(wrong_chain):
    deep = [(t, d) for t, d in generate_corpus(1, 3000)
            if any(o.depth >= 2 for o in t.orbits)]
    assert len(deep) == 251
    for t, d in deep:
        assert (decomposition.decompose_closed_form(d, t).mult_list
                != decomposition.decompose_recursive(d, t).mult_list)


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no limit on integer string conversion")
@pytest.mark.parametrize("argv,limit", [
    (["decompose", "--format", "json"], None),
    (["decompose", "--format", "table"], None),
    (["euler"], None),
    # a limit lowered after earlier parses still applies
    (["decompose", "--format", "json"], 1000),
], ids=["argv0", "argv1", "argv2", "argv3"])
def test_unrenderable_integers_exit_2(argv, limit, tmp_path, capsys):
    # each input is within the digit limit, but dim H^0 and the Euler
    # vector of this free Z/2^2 tower would exceed it
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit or default)
    try:
        genus = 9 * 10 ** (sys.get_int_max_str_digits() - 2)
        doc = dict(FREE_DOC, group={"p": 2, "v": 2}, base_genus=genus,
                   divisor={"base_degree": 5 * genus, "orbit_coeffs": {}})
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    finally:
        sys.set_int_max_str_digits(default)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_closed_stdout_exits_1_without_traceback():
    # about 125 kB of output, more than a pipe buffer holds: the write
    # fails once the reader has gone
    cmd = [sys.executable, "-m", "galmod.cli", "oracle", "--p", "2",
           "--m-max", "30", "--n-max", "60"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err, err.decode()


_FUZZ_COMMANDS = [
    ["decompose"], ["decompose", "--strict"], ["decompose", "--method", "closed"],
    ["decompose", "--format", "table"], ["genus"], ["euler"],
    ["noether", "--w", "0"], ["noether", "--w", "1"],
]
# negative, zero, composite and above the caps, depending on the field
_OUT_OF_RANGE = st.integers(-3, 40) | st.sampled_from([3137, 10 ** 6])
_ILL_TYPED = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def _paths(node, path=()):
    """Every path to a value nested in dicts and lists, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def _documents(draw):
    """A strict-valid corpus document with up to two values overwritten."""
    tower, d = random_case(random.Random(draw(st.integers(0, 2 ** 32))))
    doc = cli.echo_input(tower, d, {"strict_validation": draw(st.booleans())})
    for _ in range(draw(st.integers(0, 2))):
        *parents, key = draw(st.sampled_from(list(_paths(doc))))
        node = doc
        for k in parents:
            node = node[k]
        node[key] = draw(_OUT_OF_RANGE if draw(st.booleans()) else _ILL_TYPED)
    return doc


@settings(max_examples=200, deadline=None)
@given(_documents(), st.sampled_from(_FUZZ_COMMANDS))
def test_documents_get_a_documented_exit_code(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main([command[0], str(path), *command[1:]])
    assert code in (0, 2, 3, 4)
