"""Batch command-line interface.

JSON in, JSON (or a plain table rendering of the same report) out.  Exit
codes: 0 success, 1 property/equivalence failure, 2 parse or usage
error, 3 validation error, 4 degree precondition violated.  A stdout
closed by its reader (`galmod oracle ... | head`) ends the run with
exit 1 and no traceback.

Flags that size the work are bounded: `--m-max`, `--n-max` and `--cases`
must be >= 0, and `oracle --n-max` is at most MAX_ORACLE_N = 100, where
the sweep for each of p = 2, 3 and 5 takes about 1.1 to 1.3 s on a
2-CPU host (Python 3.11).  The oracle stops at the first curve whose genus
leaves no n <= n_max above 2g - 2, so a large `--m-max` costs no more
than n_max does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from functools import cache
from itertools import count as count_from

from .as_oracle import ASCurve, jordan_type, to_tower
from .checks import check_case, cross_check, iter_corpus
from .cover_tower import (
    CoverTower,
    InvariantDivisor,
    RamifiedOrbit,
    divisor_degree,
    level_zero_divisor,
    validate_strict,
)
from .cyclic_rep import GroupSpec
from .decomposition import (
    ALL_METHODS,
    METHOD_CLOSED,
    METHOD_RECURSIVE,
    decompose_closed_form,
    euler_characteristic,
    euler_from_degrees,
    noether_check,
)
from .errors import DegreeTooSmall, GalmodError, ParseError, ValidationError

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DEGREE = 4

# First match wins: NonIntegralGenus and NegativeGenus are ValidationErrors
EXIT_CODES = ((ParseError, EXIT_PARSE), (DegreeTooSmall, EXIT_DEGREE),
              (ValidationError, EXIT_VALIDATION), (GalmodError, EXIT_PROPERTY))

MAX_ORACLE_N = 100

_power_of_ten = cache(lambda n: 10 ** n)  # once per int-to-str digit limit

METHOD_FLAGS = {
    "all": tuple(ALL_METHODS),
    "closed": (METHOD_CLOSED,),
    "recursive": (METHOD_RECURSIVE,),
}


def load_document(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and integers
        # above the interpreter's digit limit
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def _require(doc: dict, key: str, typ, where: str):
    if key not in doc:
        raise ParseError(f"{where}: missing key {key!r}")
    val = doc[key]
    if not isinstance(val, typ) or isinstance(val, bool):
        raise ParseError(f"{where}: {key!r} has wrong type")
    return val


def parse_document(doc: dict) -> tuple[CoverTower, InvariantDivisor, dict]:
    group = _require(doc, "group", dict, "input")
    p = _require(group, "p", int, "group")
    v = _require(group, "v", int, "group")
    base_genus = _require(doc, "base_genus", int, "input")
    raw_orbits = doc.get("orbits", [])
    if not isinstance(raw_orbits, list):
        raise ParseError("input: 'orbits' must be an array")
    orbits = []
    for k, entry in enumerate(raw_orbits):
        if not isinstance(entry, dict):
            raise ParseError(f"orbits[{k}]: must be an object")
        oid = _require(entry, "id", str, f"orbits[{k}]")
        depth = _require(entry, "depth", int, f"orbits[{k}]")
        jumps = _require(entry, "jumps", list, f"orbits[{k}]")
        if not all(isinstance(j, int) and not isinstance(j, bool) for j in jumps):
            raise ParseError(f"orbits[{k}]: jumps must be integers")
        orbits.append((oid, depth, tuple(jumps)))
    divisor = _require(doc, "divisor", dict, "input")
    base_degree = _require(divisor, "base_degree", int, "divisor")
    raw_coeffs = divisor.get("orbit_coeffs", {})
    if not isinstance(raw_coeffs, dict):
        raise ParseError("divisor: orbit_coeffs must be an object")
    for oid, c in raw_coeffs.items():
        if not isinstance(c, int) or isinstance(c, bool):
            raise ParseError(f"divisor: coefficient for {oid!r} must be an integer")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ParseError("options must be an object")
    if not isinstance(options.get("strict_validation", False), bool):
        raise ParseError("options: 'strict_validation' must be a boolean")

    tower = CoverTower(GroupSpec(p, v), base_genus,
                       tuple(RamifiedOrbit(*o) for o in orbits))
    d = InvariantDivisor.from_dict(base_degree, dict(raw_coeffs))
    level_zero_divisor(d, tower)  # raises on an unknown orbit id
    _require_renderable(tower, d)
    return tower, d, options


def _require_renderable(tower: CoverTower, d: InvariantDivisor) -> None:
    """Refuse input that could make some output integer too long for the
    interpreter's int-to-str limit (0 means no limit).

    With q = p^v, k orbits and M the largest absolute input integer: a
    genus is at most q(M + 1)(1 + vk) by Riemann-Hurwitz (one break per
    orbit and level, v <= q levels); a divisor degree at most q(k + 1)M;
    an Euler coordinate is a sum of q degrees on the base, each at most
    (k + 1)(2M + 1); and the Noether samples are built from these.  So
    every rendered integer is below 8 q^2 (k + 1)(M + 1).
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        return
    big = max([tower.base_genus, abs(d.base_degree),
               *(abs(c) for _, c in d.orbit_coeffs),
               *(n for o in tower.orbits for n in o.jumps)])
    q = tower.group.order
    if 8 * q * q * (len(tower.orbits) + 1) * (big + 1) >= _power_of_ten(limit):
        raise ParseError(f"input integers too large: the output could "
                         f"exceed {limit} decimal digits")


def echo_input(tower: CoverTower, d: InvariantDivisor, options: dict) -> dict:
    return {
        "group": {"p": tower.group.p, "v": tower.group.v},
        "base_genus": tower.base_genus,
        "orbits": [{"id": o.id, "depth": o.depth, "jumps": list(o.jumps)}
                   for o in tower.orbits],
        "divisor": {"base_degree": d.base_degree,
                    "orbit_coeffs": dict(d.orbit_coeffs)},
        "options": options,
    }


def validate_for_run(tower: CoverTower, strict: bool) -> dict:
    """Default validation needs a well-defined genus at every level; strict
    additionally applies the realizability conditions on the breaks."""
    verdict = {"genus_per_level": tower.genera(), "strict": None}
    if strict:
        violations = validate_strict(tower)
        if violations:
            raise ValidationError(
                "strict validation failed: " + "; ".join(violations))
        verdict["strict"] = {"ok": True, "violations": []}
    return verdict


def build_report(tower: CoverTower, d: InvariantDivisor, options: dict,
                 methods: tuple[str, ...], strict: bool) -> dict:
    """The `decompose` report of the first of `methods`, all of them run by
    `cross_check`; with `strict` set, `validate_for_run` has checked that
    the tower is realizable, and raised if not."""
    verdict = validate_for_run(tower, strict)
    first, problems = cross_check(
        d, tower, methods,
        identities=len(methods) > 1 and (strict or not validate_strict(tower)))
    if problems:
        raise GalmodError(
            "; ".join(problems) + "; input: "
            + json.dumps(echo_input(tower, d, options), sort_keys=True))
    euler = euler_from_degrees(first.degrees, tower)
    return {
        "input": echo_input(tower, d, options),
        "genus_per_level": verdict["genus_per_level"],
        "divisor_degree": divisor_degree(level_zero_divisor(d, tower), tower),
        "degrees": list(first.degrees),
        "multiplicities": list(first.mult_list),
        "dim_h0": first.dim_h0,
        "euler_simple_basis": list(euler.coords),
        "methods": list(methods),
        "validation": verdict,
        "diagnostics": {"realizable": first.realizable},
    }


def render_json(obj: dict) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` for a dict with str keys,
    where json's indenting encoder writes each list item from Python: a list
    of ints (bools excluded) is its repr, broken after each comma; any other
    value is json's text indented one level (JSON strings hold no newline)."""
    items = []
    for key in sorted(obj):
        val = obj[key]
        if type(val) is list and set(map(type, val)) == {int}:
            text = "[\n    " + repr(val)[1:-1].replace(", ", ",\n    ") + "\n  ]"
        else:
            text = json.dumps(val, indent=2, sort_keys=True).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}" if items else "{}"


def render_table(report: dict) -> str:
    lines = []
    inp = report["input"]
    lines.append(f"group            Z/{inp['group']['p']}^{inp['group']['v']}")
    lines.append(f"genus per level  {report['genus_per_level']}")
    lines.append(f"divisor degree   {report['divisor_degree']}")
    lines.append(f"dim H^0          {report['dim_h0']}")
    lines.append(f"realizable       {report['diagnostics']['realizable']}")
    lines.append("  j  deg_j  m_j")
    lines += map("{:>3}  {:>5}  {:>3}".format, count_from(1),
                 report["degrees"], report["multiplicities"])
    return "\n".join(lines)


def cmd_decompose(args) -> int:
    tower, d, options = parse_document(load_document(args.input))
    strict = args.strict or options.get("strict_validation", False)
    report = build_report(tower, d, options, METHOD_FLAGS[args.method], strict)
    if args.format == "json":
        print(render_json(report))
    else:
        print(render_table(report))
    return EXIT_OK


def cmd_genus(args) -> int:
    tower, d, options = parse_document(load_document(args.input))
    print(render_json({"input": echo_input(tower, d, options),
                       "genus_per_level": tower.genera()}))
    return EXIT_OK


def cmd_euler(args) -> int:
    """Print `euler_characteristic` in the simple basis.  Any degree is
    accepted; below the vanishing threshold the vector is an Euler
    characteristic, not [H^0] - [H^1] (see `euler_characteristic`)."""
    tower, d, options = parse_document(load_document(args.input))
    validate_for_run(tower, False)
    euler = euler_characteristic(d, tower)
    print(render_json({"input": echo_input(tower, d, options),
                       "euler_simple_basis": list(euler.coords)}))
    return EXIT_OK


def cmd_noether(args) -> int:
    tower, d, options = parse_document(load_document(args.input))
    if not 0 <= args.w <= tower.group.v:
        raise ValidationError(f"w = {args.w} out of range 0..{tower.group.v}")
    rep = noether_check(tower, args.w, seed=args.seed)
    out = {
        "input": echo_input(tower, d, options),
        "w": args.w,
        "containment": rep.containment,
        "all_projective": rep.all_projective,
        "sampled": rep.sampled,
        "witness": None,
        "witness_predicted": rep.witness_predicted,
    }
    if rep.witness is not None:
        out["witness"] = {
            "divisor": {"base_degree": rep.witness.divisor.base_degree,
                        "orbit_coeffs": dict(rep.witness.divisor.orbit_coeffs)},
            "j": rep.witness.j,
            "m_j": rep.witness.m_j,
        }
    print(render_json(out))
    if rep.containment != rep.all_projective:
        return EXIT_PROPERTY
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.p not in (2, 3, 5):
        raise ParseError(f"p = {args.p} must be one of 2, 3, 5")
    results = []
    ok = True
    for m in range(1, args.m_max + 1):
        if m % args.p == 0:
            continue
        curve = ASCurve(args.p, m)
        if 2 * curve.genus - 1 > args.n_max:
            break  # the genus grows with m: no later curve has a case
        tower, divisor = to_tower(curve)
        for n in range(max(2 * curve.genus - 1, 0), args.n_max + 1):
            oracle = jordan_type(curve, n)
            engine = decompose_closed_form(divisor(n), tower).decomposition
            match = engine is not None and engine == oracle
            ok = ok and match
            results.append({
                "p": args.p, "m": m, "n": n,
                "oracle": oracle.dense(args.p),
                "engine": engine.dense(args.p) if engine else None,
                "pass": match,
            })
    print(render_json({"cases": len(results), "all_pass": ok,
                       "results": results}))
    return EXIT_OK if ok else EXIT_PROPERTY


def cmd_check(args) -> int:
    """Run `check_case` over the corpus.  The summary line ends with the
    sha256 of one JSON line per case, `[echo_input, ClosedForm
    multiplicities]` with sorted keys, so it moves with the corpus and
    with every answer, not only with the failures."""
    digest = hashlib.sha256()
    failures = []
    for i, (tower, d) in enumerate(iter_corpus(args.seed, args.cases)):
        if msgs := check_case((tower, d)):
            failures.append((i, msgs))
        line = json.dumps([echo_input(tower, d, {}),
                           decompose_closed_form(d, tower).mult_list],
                          sort_keys=True)
        digest.update(f"{line}\n".encode())
    print(f"check seed={args.seed} cases={args.cases} "
          f"failures={len(failures)} digest={digest.hexdigest()}")
    for idx, msgs in failures:
        for msg in msgs:
            print(f"case {idx}: {msg}")
    return EXIT_PROPERTY if failures else EXIT_OK


def _count(cap: int | None = None):
    """argparse type: an integer >= 0, and <= cap unless cap is None."""
    def count(text: str) -> int:
        n = int(text)
        if n < 0:
            raise argparse.ArgumentTypeError(f"{n} must be >= 0")
        if cap is not None and n > cap:
            raise argparse.ArgumentTypeError(f"{n} must be <= {cap}")
        return n
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galmod",
        description="Krull-Schmidt decomposition of curve sections under a "
                    "cyclic p-group, with brute-force cross-checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="decompose H^0 for a tower/divisor file")
    p_dec.add_argument("input")
    p_dec.add_argument("--method", default="all",
                       choices=list(METHOD_FLAGS))
    p_dec.add_argument("--format", default="table", choices=["table", "json"])
    p_dec.add_argument("--strict", action="store_true")

    for name, text in (("genus", "genus at every tower level"),
                       ("euler", "Euler characteristic in the simple basis")):
        sub.add_parser(name, help=text).add_argument("input")

    p_noe = sub.add_parser("noether", help="relative projectivity criterion")
    p_noe.add_argument("input")
    p_noe.add_argument("--w", type=int, required=True)
    p_noe.add_argument("--seed", type=int, default=0)

    p_ora = sub.add_parser("oracle", help="Artin-Schreier brute-force sweep")
    p_ora.add_argument("--p", type=int, required=True)
    p_ora.add_argument("--m-max", type=_count(), default=9)
    p_ora.add_argument("--n-max", type=_count(MAX_ORACLE_N), default=30)

    p_chk = sub.add_parser("check", help="seeded random property suite")
    p_chk.add_argument("--seed", type=int, default=1)
    p_chk.add_argument("--cases", type=_count(), default=1000)

    return parser


COMMANDS = {"decompose": cmd_decompose, "genus": cmd_genus, "euler": cmd_euler,
            "noether": cmd_noether, "oracle": cmd_oracle, "check": cmd_check}

_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # built at the first call, not at import; COMMANDS is read at each call,
    # so that a command replaced there (by a test or a tracer) is what runs
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        code = COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at shutdown
        return code
    except GalmodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
    except BrokenPipeError:
        # stdout to devnull, so that the flush at shutdown cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
