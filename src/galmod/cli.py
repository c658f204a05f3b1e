"""Batch command-line interface.

JSON in, JSON (or a plain table rendering of the same report) out.  Exit
codes: 0 success, 1 property/equivalence failure, 2 parse or usage
error, 3 validation error, 4 degree precondition violated.
"""

from __future__ import annotations

import argparse
import json
import sys

from .as_oracle import ASCurve, jordan_type, to_tower
from .checks import method_divergences, route_fixed_point_failures, run_suite
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
    PRODUCTION_METHODS,
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

METHOD_FLAGS = {
    "closed": METHOD_CLOSED,
    "recursive": METHOD_RECURSIVE,
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
    known = {o.id for o in tower.orbits}
    for oid in raw_coeffs:
        if oid not in known:
            raise ValidationError(f"divisor references unknown orbit {oid!r}")
    d = InvariantDivisor.from_dict(base_degree, dict(raw_coeffs))
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
    if 8 * q * q * (len(tower.orbits) + 1) * (big + 1) >= 10 ** limit:
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
    genera = [tower.genus(n) for n in range(tower.group.v + 1)]
    verdict = {"genus_per_level": genera, "strict": None}
    if strict:
        rep = validate_strict(tower)
        verdict["strict"] = {"ok": rep.ok, "violations": list(rep.violations)}
        if not rep.ok:
            raise ValidationError(
                "strict validation failed: " + "; ".join(rep.violations))
    return verdict


def build_report(tower: CoverTower, d: InvariantDivisor, options: dict,
                 methods: list[str], strict: bool) -> dict:
    verdict = validate_for_run(tower, strict)
    reports = {name: ALL_METHODS[name](d, tower) for name in methods}
    first = reports[methods[0]]
    problems = method_divergences(reports)
    # the fixed-point identities hold on towers that can exist, and need
    # not on break data that fails the realizability conditions
    if len(methods) > 1 and validate_strict(tower).ok:
        problems += route_fixed_point_failures(d, tower, reports)
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
        "methods": methods,
        "validation": verdict,
        "diagnostics": {"realizable": first.realizable},
    }


def render_table(report: dict) -> str:
    lines = []
    inp = report["input"]
    lines.append(f"group            Z/{inp['group']['p']}^{inp['group']['v']}")
    lines.append(f"genus per level  {report['genus_per_level']}")
    lines.append(f"divisor degree   {report['divisor_degree']}")
    lines.append(f"dim H^0          {report['dim_h0']}")
    lines.append(f"realizable       {report['diagnostics']['realizable']}")
    lines.append("  j  deg_j  m_j")
    for j, (deg, m) in enumerate(zip(report["degrees"],
                                     report["multiplicities"]), start=1):
        lines.append(f"{j:>3}  {deg:>5}  {m:>3}")
    return "\n".join(lines)


def cmd_decompose(args) -> int:
    tower, d, options = parse_document(load_document(args.input))
    strict = args.strict or options.get("strict_validation", False)
    if args.method == "all":
        methods = list(PRODUCTION_METHODS)
    else:
        methods = [METHOD_FLAGS[args.method]]
    report = build_report(tower, d, options, methods, strict)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_table(report))
    return EXIT_OK


def cmd_genus(args) -> int:
    tower, d, options = parse_document(load_document(args.input))
    genera = [tower.genus(n) for n in range(tower.group.v + 1)]
    print(json.dumps({"input": echo_input(tower, d, options),
                      "genus_per_level": genera}, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_euler(args) -> int:
    tower, d, options = parse_document(load_document(args.input))
    euler = euler_characteristic(d, tower)
    print(json.dumps({"input": echo_input(tower, d, options),
                      "euler_simple_basis": list(euler.coords)},
                     indent=2, sort_keys=True))
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
    print(json.dumps(out, indent=2, sort_keys=True))
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
        tower, divisor = to_tower(curve)
        for n in range(2 * curve.genus - 1, args.n_max + 1):
            if n < 0:
                continue
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
    print(json.dumps({"cases": len(results), "all_pass": ok,
                      "results": results}, indent=2, sort_keys=True))
    return EXIT_OK if ok else EXIT_PROPERTY


def cmd_check(args) -> int:
    result = run_suite(args.seed, args.cases)
    print(f"check seed={args.seed} cases={result.cases} "
          f"failures={len(result.failures)}")
    for idx, msgs in result.failures:
        for msg in msgs:
            print(f"case {idx}: {msg}")
    return EXIT_OK if result.ok else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galmod",
        description="Krull-Schmidt decomposition of curve sections under a "
                    "cyclic p-group, with brute-force cross-checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="decompose H^0 for a tower/divisor file")
    p_dec.add_argument("input")
    p_dec.add_argument("--method", default="all",
                       choices=["all", *METHOD_FLAGS.keys()])
    p_dec.add_argument("--format", default="table", choices=["table", "json"])
    p_dec.add_argument("--strict", action="store_true")
    p_dec.set_defaults(func=cmd_decompose)

    p_gen = sub.add_parser("genus", help="genus at every tower level")
    p_gen.add_argument("input")
    p_gen.set_defaults(func=cmd_genus)

    p_eul = sub.add_parser("euler", help="Euler characteristic in the simple basis")
    p_eul.add_argument("input")
    p_eul.set_defaults(func=cmd_euler)

    p_noe = sub.add_parser("noether", help="relative projectivity criterion")
    p_noe.add_argument("input")
    p_noe.add_argument("--w", type=int, required=True)
    p_noe.add_argument("--seed", type=int, default=0)
    p_noe.set_defaults(func=cmd_noether)

    p_ora = sub.add_parser("oracle", help="Artin-Schreier brute-force sweep")
    p_ora.add_argument("--p", type=int, required=True)
    p_ora.add_argument("--m-max", type=int, default=9)
    p_ora.add_argument("--n-max", type=int, default=30)
    p_ora.set_defaults(func=cmd_oracle)

    p_chk = sub.add_parser("check", help="seeded random property suite")
    p_chk.add_argument("--seed", type=int, default=1)
    p_chk.add_argument("--cases", type=int, default=1000)
    p_chk.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DegreeTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGREE
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except GalmodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
