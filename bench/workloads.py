"""The three benchmark workloads: seeded inputs, one operation, and the
correctness gate applied to every operation.

Each workload turns `--seed` into its inputs and hands galmod nothing but
those inputs.  Inputs come in batches; the timed loop runs whole batches
until the measuring time is up, so every run sees the same mix of input
shapes and only the seeded details (jumps, coefficients, curves, corpus
cases) change with the seed.  Expected values used by the gates are
computed here from the generator's own data, independent of galmod.

galmod is imported lazily, through module attributes at call time, so
that the tracer's wrappers are the functions that get called.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

# decompose-large: one batch is one document per slot (p, v, orbits).
# Every order the workload promises appears and orbit counts cover 1..4.
# The four order-1024 slots put the median inside a group of similar cost
# that holds 4 of the 9 samples of every batch, and the p75 tail inside
# the orders 2048 and 2187, so neither lands on the edge of a cost cluster.
DECOMPOSE_SLOTS = {
    "full": [(5, 4, 4), (3, 6, 3), (2, 10, 1), (2, 10, 2), (2, 10, 3),
             (2, 10, 4), (2, 11, 2), (3, 7, 1), (5, 5, 3)],
    "tiny": [(2, 3, 1), (3, 2, 2), (5, 1, 1)],
}
DECOMPOSE_BATCHES = {"full": 12, "tiny": 2}

# check-corpus: cases generated per second of measuring time, so the
# timed loop runs on distinct cases instead of cycling a small corpus;
# the traced pass checks the first TRACE_CASES of them.
CORPUS_CASES_PER_SECOND = 2000
TRACE_CASES = {"full": 1000, "tiny": 20}
CORPUS_BATCH = 100

# oracle-sweep: one batch is one (p, m, n) per (p, target dimension);
# the seed picks m, and n = dim - 1 + g(m) keeps the F_p matrix size fixed
# per slot while the curve changes.  n stays within N_MAX.
ORACLE_PRIMES = (2, 3, 5)
ORACLE_DIMS = {"full": (8, 16, 24, 32, 40, 48, 56), "tiny": (6, 10)}
ORACLE_BATCHES = 200
N_MAX = 62


@dataclass(frozen=True)
class Outcome:
    ok: bool
    message: str
    fingerprint: str


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def _strict_jumps(rng: random.Random, p: int, depth: int) -> list[int]:
    """A break sequence obeying the upper-break growth law (u_{i+1} = p u_i,
    or larger and prime to p), returned level 1 first (largest break)."""
    u = rng.choice([x for x in range(1, 10) if x % p != 0])
    lower = [u]
    for i in range(1, depth):
        nxt = p * u if rng.random() < 0.5 else p * u + rng.randint(1, 4)
        if nxt > p * u and nxt % p == 0:
            nxt += 1
        lower.append(lower[-1] + p ** i * (nxt - u))
        u = nxt
    return list(reversed(lower))


def _genera(p: int, v: int, base_genus: int, orbits: list[dict]) -> list[int]:
    """Genus of X_v = Y, X_{v-1}, ..., X_0 = X by Riemann-Hurwitz: an orbit
    of depth m has p^(v-m) points on every level below m, each with
    conductor (p-1)(N+1)."""
    genera = [base_genus]
    for lvl in range(v, 0, -1):
        ram = sum(p ** (v - o["depth"]) * (p - 1) * (o["jumps"][lvl - 1] + 1)
                  for o in orbits if o["depth"] >= lvl)
        genera.append(p * (genera[-1] - 1) + 1 + ram // 2)
    return genera


class DecomposeLarge:
    """`galmod decompose FILE --method all --format json`, in-process."""

    name = "decompose-large"

    def __init__(self, seed: int, seconds: float, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir / self.name / f"seed-{seed}-{size}"
        self.batches: list[list[dict]] = []

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        for b in range(DECOMPOSE_BATCHES[self.size]):
            batch = []
            for s, (p, v, n_orbits) in enumerate(DECOMPOSE_SLOTS[self.size]):
                batch.append(self._document(rng, p, v, n_orbits,
                                            self.workdir / f"doc-{b}-{s}.json"))
            self.batches.append(batch)

    def _document(self, rng, p, v, n_orbits, path: Path) -> dict:
        while True:  # redraw towers with a negative genus at some level
            orbits = []
            for k in range(n_orbits):
                depth = rng.randint(1, v)
                orbits.append({"id": f"P{k}", "depth": depth,
                               "jumps": _strict_jumps(rng, p, depth)})
            base_genus = rng.randint(0, 2)
            genera = _genera(p, v, base_genus, orbits)
            if min(genera) >= 0:
                break
        g_x = genera[-1]
        coeffs = {o["id"]: rng.randint(-60, 60) for o in orbits}
        orbit_part = sum(coeffs[o["id"]] * p ** (v - o["depth"]) for o in orbits)
        # smallest base degree with deg D > 2g_X - 2, plus a seeded margin
        base_degree = (2 * g_x - 2 - orbit_part) // p ** v + 1 + rng.randint(0, 3)
        deg = base_degree * p ** v + orbit_part
        doc = {
            "group": {"p": p, "v": v},
            "base_genus": base_genus,
            "orbits": orbits,
            "divisor": {"base_degree": base_degree, "orbit_coeffs": coeffs},
            "options": {"strict_validation": True},
        }
        path.write_text(json.dumps(doc))
        return {"path": str(path), "order": p ** v, "deg": deg, "g_x": g_x}

    def trace_ops(self) -> list[dict]:
        return self.batches[0]

    def order(self, op: dict) -> int:
        return op["order"]

    def call(self, op: dict):
        from galmod import cli
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["decompose", op["path"], "--method", "all",
                             "--format", "json"])
        return code, out.getvalue(), err.getvalue()

    def check(self, op: dict, raw) -> Outcome:
        code, text, err_text = raw
        fp = _digest(str(code), text, err_text)
        if code != 0:
            return Outcome(False, f"exit {code}: {err_text.strip()[:200]}", fp)
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return Outcome(False, f"invalid JSON output: {exc}", fp)
        mult = report["multiplicities"]
        expected_dim = op["deg"] + 1 - op["g_x"]
        if report["dim_h0"] != expected_dim:
            return Outcome(False, f"dim_h0 {report['dim_h0']} != deg D + 1 - g_X "
                                  f"= {expected_dim}", fp)
        if len(mult) != op["order"] or any(m < 0 for m in mult):
            return Outcome(False, "multiplicities not a realizable list of "
                                  f"length {op['order']}", fp)
        if sum(j * m for j, m in enumerate(mult, start=1)) != expected_dim:
            return Outcome(False, "sum of j * m_j != dim_h0", fp)
        return Outcome(True, "", fp)


class CheckCorpus:
    """`checks.check_case` over `checks.generate_corpus(seed, N)`."""

    name = "check-corpus"

    def __init__(self, seed: int, seconds: float, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.cases = max(TRACE_CASES[size], int(seconds * CORPUS_CASES_PER_SECOND))
        self.batches: list[list] = []

    def setup(self) -> None:
        from galmod import checks
        corpus = checks.generate_corpus(self.seed, self.cases)
        self.batches = [corpus[k:k + CORPUS_BATCH]
                        for k in range(0, len(corpus), CORPUS_BATCH)]

    def trace_ops(self) -> list:
        """The traced pass regenerates its cases, so that corpus generation
        is traced too; the cases equal the first TRACE_CASES of the corpus."""
        from galmod import checks
        return checks.generate_corpus(self.seed, TRACE_CASES[self.size])

    def order(self, op) -> int:
        return op[0].group.order

    def call(self, op):
        from galmod import checks
        return checks.check_case(op)

    def check(self, op, failures) -> Outcome:
        fp = _digest(*failures)
        if failures:
            return Outcome(False, "; ".join(failures)[:200], fp)
        return Outcome(True, "", fp)


class OracleSweep:
    """`as_oracle.jordan_type` against `decompose_closed_form` on
    y^p - y = x^m, the pair `galmod oracle` compares."""

    name = "oracle-sweep"

    def __init__(self, seed: int, seconds: float, size: str, workdir: Path):
        self.seed = seed
        self.size = size
        self.batches: list[list[tuple[int, int, int, int]]] = []

    def setup(self) -> None:
        rng = random.Random(self.seed)
        dims = ORACLE_DIMS[self.size]
        for _ in range(ORACLE_BATCHES):
            batch = []
            for p in ORACLE_PRIMES:
                for dim in dims:
                    # genus (p-1)(m-1)/2 <= dim keeps n = dim - 1 + g above
                    # 2g - 2, so H^1 vanishes and dim H^0 = dim
                    choices = [m for m in range(2, 4 * N_MAX) if m % p != 0
                               and (p - 1) * (m - 1) // 2 <= dim
                               and dim - 1 + (p - 1) * (m - 1) // 2 <= N_MAX]
                    m = rng.choice(choices)
                    n = dim - 1 + (p - 1) * (m - 1) // 2
                    batch.append((p, m, n, dim))
            rng.shuffle(batch)
            self.batches.append(batch)

    def trace_ops(self) -> list:
        return self.batches[0]

    def order(self, op) -> int:
        return op[0]

    def call(self, op):
        from galmod import as_oracle, decomposition
        p, m, n, _ = op
        curve = as_oracle.ASCurve(p, m)
        tower, divisor = as_oracle.to_tower(curve)
        oracle = as_oracle.jordan_type(curve, n)
        engine = decomposition.decompose_closed_form(divisor(n), tower).decomposition
        return oracle, engine

    def check(self, op, raw) -> Outcome:
        p, m, n, dim = op
        oracle, engine = raw
        fp = _digest(repr(oracle), repr(engine))
        if engine != oracle:
            return Outcome(False, f"p={p} m={m} n={n}: engine {engine} != "
                                  f"oracle {oracle}", fp)
        if oracle.total_dim() != dim:
            return Outcome(False, f"p={p} m={m} n={n}: dim {oracle.total_dim()} "
                                  f"!= n + 1 - g = {dim}", fp)
        return Outcome(True, "", fp)


WORKLOADS = {w.name: w for w in (DecomposeLarge, CheckCorpus, OracleSweep)}
