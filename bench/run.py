"""galmod benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload decompose-large --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25   # every workload
    python3 bench/run.py --smoke                                # tiny sizes, asserts

One process, one thread, closed loop with one caller.  `--trace 0` measures
the end-to-end metrics; `--trace 1` runs a fixed pass of the workload
alternately without and with span tracing and reports the per-layer
metrics and the tracing overhead.  Metric definitions, the layer map and
the reasons for each workload are in bench/README.md.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The lines before it name every
metric with its unit and record the run environment; the same record is
written under .bench_work/results/.  galmod is imported from the `src`
directory next to this one and from nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
TAIL_BEYOND = 10
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9, 99.99, 99.999)
CAL_ITERATIONS = 3000
CAL_INTERVAL_S = 0.05
CAL_REFERENCE_S = 1.0e-3
RAW_CAP = 1.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "throughput_ops_s": "1/s",
    "peak_rss_mib": "MiB",
}

SELF_TIMES = {
    "cli.parse_document.self_s": "cli.parse_document",
    "cli.validate_for_run.self_s": "cli.validate_for_run",
    "cli.build_report.self_s": "cli.build_report",
    "cli.render.self_s": "cli.cmd_decompose",
    "cli.load_document.self_s": "cli.load_document",
    "cover_tower.pushforward_alpha.self_s": "cover_tower.pushforward_alpha",
    "cover_tower.divisor_degree.self_s": "cover_tower.divisor_degree",
    "cover_tower.CoverTower.genus.self_s": "cover_tower.CoverTower.genus",
    "cover_tower.validate_strict.self_s": "cover_tower.validate_strict",
    "cyclic_rep.from_simple_basis.self_s": "cyclic_rep.from_simple_basis",
    "cyclic_rep.cartan_inverse.self_s": "cyclic_rep.cartan_inverse",
    "decomposition.level_degrees.self_s": "decomposition.level_degrees",
    "decomposition.decompose_closed_form.self_s": "decomposition.decompose_closed_form",
    "decomposition.decompose_second_difference.self_s":
        "decomposition.decompose_second_difference",
    "decomposition.decompose_recursive.self_s": "decomposition.decompose_recursive",
    "decomposition.decompose_simple_basis.self_s": "decomposition.decompose_simple_basis",
    "decomposition.euler_characteristic.self_s": "decomposition.euler_characteristic",
    "as_oracle.riemann_roch_basis.self_s": "as_oracle.riemann_roch_basis",
    "as_oracle.sigma_matrix.self_s": "as_oracle.sigma_matrix",
    "as_oracle.jordan_type_of_matrix.self_s": "as_oracle.jordan_type_of_matrix",
    "checks.generate_corpus.self_s": "checks.generate_corpus",
    "checks.check_case.self_s": "checks.check_case",
}

CALL_COUNTS = [
    "cover_tower.pushforward_alpha",
    "cover_tower.CoverTower.orbit",
    "cover_tower.divisor_degree",
    "cover_tower.level_zero_divisor",
    "cover_tower.CoverTower.genus",
    "cover_tower.validate_strict",
    "cover_tower.kani_pushforward",
    "cyclic_rep.from_simple_basis",
    "decomposition.level_degrees",
    "decomposition.graded_piece_divisor",
    "decomposition.decompose_pullback",
    "as_oracle.jordan_type_of_matrix",
    "checks.check_case",
]

COMPUTED = [
    "cyclic_rep.from_simple_basis.madds_computed",
    "cyclic_rep.cartan_inverse.entries_computed",
    "as_oracle.jordan.cubic_ops_computed",
]

PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIMES},
    **{f"{name}.calls": "count" for name in CALL_COUNTS},
    **{name: "count" for name in COMPUTED},
    "decomposition.degree_table.rebuilds_per_op": "rebuilds/op",
    "checks.corpus.accept_ratio": "ratio",
    "tracing.spans": "count",
    "tracing.overhead_ratio": "ratio",
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_galmod() -> None:
    """Import galmod.cli from ROOT/src, refusing any other copy."""
    if not (SRC / "galmod" / "cli.py").is_file():
        fail(f"no galmod sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    try:
        import galmod.cli
    except ImportError as exc:
        fail(f"cannot import galmod.cli: {exc}")
    found = Path(galmod.cli.__file__).resolve()
    if SRC.resolve() not in found.parents:
        fail(f"galmod imported from {found}, not from {SRC}")


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git (which
    would search parent directories); 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def galmod_threads() -> str | None:
    value = os.environ.get("GALMOD_THREADS")
    if value is not None and value.strip() != "1":
        print(f"bench: warning: GALMOD_THREADS={value!r} is set; the workloads "
              "call galmod single-threaded and do not use it, but the value is "
              "recorded with the result", file=sys.stderr)
    return value


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): the highest percentile of
    TAIL_LADDER with at least TAIL_BEYOND samples beyond it, by nearest
    rank.  A fixed ladder keeps the tail at the same place in the
    distribution when the sample count drifts a little.  With fewer than
    2 * TAIL_BEYOND samples no rung qualifies and the maximum is reported
    as the 100th percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    best = (100.0, ordered[-1], 0)
    for q in TAIL_LADDER:
        rank = math.ceil(q * n / 100)
        if n - rank >= TAIL_BEYOND:
            best = (q, ordered[rank - 1], n - rank)
    return best


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall time from starting a fresh interpreter to the workload's first
    operation being ready, SETUP_SAMPLES times: (scaled, raw) samples.
    Each sample is scaled by the calibrations taken just before and after
    it, as in `run_timed`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--size", args.size]
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        cal_before = calibrate()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != b"ready" or code != 0:
            fail(f"setup probe failed with exit code {code}")
        raw.append(elapsed)
        scaled.append(elapsed * 2.0 * CAL_REFERENCE_S / (cal_before + calibrate()))
    return scaled, raw


class Gate:
    """Counts attempted and failed operations and keeps the first few
    failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(message)


def _calibration_kernel() -> int:
    """Fixed pure-Python work: integer arithmetic plus tuple, str and dict
    churn, the kinds of work galmod's interpreter-bound code does."""
    acc = 0
    table = {}
    for k in range(CAL_ITERATIONS):
        acc += k * k % 7
        key = str(k)
        table[key] = (k, acc)
        acc += table[key][0] // 3
    return acc


def calibrate() -> float:
    """Seconds the kernel takes now: the faster of two back-to-back runs."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def run_timed(wl, seconds: float, gate: Gate) -> dict:
    """Whole batches, closed loop, until `seconds` of reference-speed time
    have been measured (or RAW_CAP times that in wall time).

    The calibration kernel runs between operations at least every
    CAL_INTERVAL_S and after every batch.  Each operation's time is scaled
    by CAL_REFERENCE_S over the mean kernel time of the two calibrations
    around it, which states it in seconds of a machine running at
    reference speed and cancels the slow periods of a shared host.  Raw
    wall-clock figures are returned alongside."""
    clock = time.perf_counter
    warm = wl.batches[0][0]
    wl.check(warm, wl.call(warm))
    raw_latencies, latencies = [], []
    busy = scaled_busy = 0.0
    segment = []
    cal_before = calibrate()
    start = segment_start = clock()
    raw_deadline = start + RAW_CAP * seconds
    b = 0
    while scaled_busy < seconds and clock() < raw_deadline:
        batch = wl.batches[b % len(wl.batches)]
        b += 1
        for k, op in enumerate(batch):
            t0 = clock()
            raw = wl.call(op)
            segment.append(clock() - t0)
            outcome = wl.check(op, raw)
            gate.record(outcome.ok, outcome.message)
            now = clock()
            if now - segment_start < CAL_INTERVAL_S and k < len(batch) - 1:
                continue
            cal_after = calibrate()
            scale = 2.0 * CAL_REFERENCE_S / (cal_before + cal_after)
            raw_latencies.extend(segment)
            latencies.extend(x * scale for x in segment)
            busy += now - segment_start
            scaled_busy += (now - segment_start) * scale
            segment = []
            cal_before = cal_after
            segment_start = clock()
    pct, tail_s, beyond = tail(latencies)
    _, raw_tail_s, _ = tail(raw_latencies)
    return {
        "samples": len(latencies),
        "batches": b,
        "wall_s": clock() - start,
        "latency_ms_p50": 1e3 * statistics.median(latencies),
        "latency_ms_tail": 1e3 * tail_s,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "throughput_ops_s": len(latencies) / scaled_busy,
        "raw_latency_ms_p50": 1e3 * statistics.median(raw_latencies),
        "raw_latency_ms_tail": 1e3 * raw_tail_s,
        "raw_throughput_ops_s": len(latencies) / busy,
        "time_scale": scaled_busy / busy,
    }


def run_pass(wl, gate: Gate, tracer=None) -> tuple[float, list[str], dict]:
    """One pass over the workload's fixed trace operations; with a tracer,
    also the per-pass counts that need operation boundaries."""
    ld = "decomposition.level_degrees"
    vs = "cover_tower.validate_strict"
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.op = -1
        attempts = tracer.calls_of(vs)
    ops = wl.trace_ops()
    extra = {}
    if tracer is not None:
        attempts = tracer.calls_of(vs) - attempts
        extra["checks.corpus.accept_ratio"] = len(ops) / attempts if attempts else 0.0
    rebuilds = 0.0
    fingerprints = []
    for op in ops:
        if tracer is not None:
            tracer.op += 1
            before = tracer.calls_of(ld)
        raw = wl.call(op)
        if tracer is not None:
            rebuilds += (tracer.calls_of(ld) - before) / wl.order(op)
        outcome = wl.check(op, raw)
        gate.record(outcome.ok, outcome.message)
        fingerprints.append(outcome.fingerprint)
    wall = time.perf_counter() - t0
    extra["decomposition.degree_table.rebuilds_per_op"] = rebuilds / len(ops)
    return wall, fingerprints, extra


def run_traced(wl, seconds: float, gate: Gate, spans_path: Path) -> dict:
    """Alternate untraced and traced passes until `seconds` have elapsed.
    Counts come from one traced pass and must repeat on every other; self
    times are medians over the traced passes."""
    from tracer import Tracer
    tracer = Tracer()
    plain_walls, traced_walls, per_pass = [], [], []
    deadline = time.perf_counter() + seconds
    reference = None
    while True:
        wall, fps, _ = run_pass(wl, gate)
        plain_walls.append(wall)
        reference = reference or fps
        spans_before = tracer.span_count()
        with tracer.installed():
            tracer.reset_counters()
            wall, fps, extra = run_pass(wl, gate, tracer)
        traced_walls.append(wall)
        # traced output must equal untraced output, operation by operation
        for a, b in zip(reference, fps):
            if a != b:
                gate.record(False, "traced output differs from untraced output")
        metrics = {name: tracer.self_s_of(span) for name, span in SELF_TIMES.items()}
        metrics.update({f"{name}.calls": tracer.calls_of(name) for name in CALL_COUNTS})
        metrics.update(tracer.computed)
        metrics.update(extra)
        metrics["tracing.spans"] = tracer.span_count() - spans_before
        if per_pass:
            # a repeat of the first traced pass: its aggregates are kept,
            # its spans are not, which bounds memory to one pass of spans
            tracer.truncate(spans_before)
        per_pass.append(metrics)
        if time.perf_counter() >= deadline:
            break
    exact = [k for k, unit in PER_LAYER_UNITS.items() if unit != "s"
             and not k.startswith("tracing.")]
    for metrics in per_pass[1:]:
        for key in exact:
            if metrics[key] != per_pass[0][key]:
                gate.record(False, f"{key} differs between traced passes")
    result = dict(per_pass[0])
    for key in SELF_TIMES:
        result[key] = statistics.median(m[key] for m in per_pass)
    result["tracing.overhead_ratio"] = (statistics.median(traced_walls)
                                        / statistics.median(plain_walls) - 1.0)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)
    return {"metrics": result, "plain_pass_s": plain_walls, "traced_pass_s": traced_walls,
            "spans_file": str(spans_path.relative_to(ROOT))}


def run_workload(args) -> int:
    threads = galmod_threads()
    import_galmod()
    setup_samples, raw_setup = measure_setup(args) if args.trace == 0 else ([], [])
    wl = WORKLOADS[args.workload](args.seed, args.seconds, args.size, WORKDIR)
    wl.setup()
    # The inputs are the harness's, not the program's: keep the cyclic
    # collector from rescanning them during the timed phase.
    gc.collect()
    gc.freeze()
    gate = Gate()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_revision": git_revision(),
        "galmod_threads": threads,
    }
    if args.trace == 0:
        timed = run_timed(wl, args.seconds, gate)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "latency_ms_p50": timed.pop("latency_ms_p50"),
            "latency_ms_tail": timed.pop("latency_ms_tail"),
            "throughput_ops_s": timed.pop("throughput_ops_s"),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        env.update(timed, setup_samples_s=setup_samples,
                   raw_setup_s=statistics.median(raw_setup),
                   raw_setup_samples_s=raw_setup)
        detail = {}
    else:
        detail = run_traced(wl, args.seconds, gate,
                            WORKDIR / "spans" / f"{tag}.spans")
        metrics = detail.pop("metrics")
        units = PER_LAYER_UNITS
        env.update(passes=len(detail["plain_pass_s"]),
                   plain_pass_s_median=statistics.median(detail["plain_pass_s"]),
                   traced_pass_s_median=statistics.median(detail["traced_pass_s"]),
                   spans_file=detail.pop("spans_file"))
    env["failed_ops_ratio"] = gate.failed / gate.attempted
    env["process_peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for message in gate.messages:
        print(f"bench: failed: {message}", file=sys.stderr)
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    for name, unit in units.items():
        print(f"metric {args.workload} {name} = {metrics[name]!r} {unit}")
    print(f"metric {args.workload} failed_ops_ratio = {env['failed_ops_ratio']!r} ratio")
    print("env " + json.dumps(env, sort_keys=True))
    results = WORKDIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(
        json.dumps({"env": env, "detail": detail, "result": result},
                   indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def setup_probe(args) -> int:
    """Child of measure_setup: import, build the inputs, report ready."""
    import_galmod()
    WORKLOADS[args.workload](args.seed, args.seconds, args.size, WORKDIR).setup()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def run_each(args) -> dict[str, tuple[list[str], dict]]:
    """Run every workload in its own process, so that peak RSS is per
    workload: {name: (report lines, result)}."""
    outputs = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with code {proc.returncode}")
        outputs[name] = (lines[:-1], json.loads(lines[-1]))
    return outputs


def run_all(args) -> int:
    """Every workload; the last line combines their results, with metric
    names prefixed by the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, (lines, result) in run_each(args).items():
        for line in lines:
            print(line)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def smoke(args) -> int:
    """Every workload at a tiny size, untraced and traced: every metric in
    BENCHMARK.json is present with its unit and no operation fails."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        args.trace, args.size = trace, "tiny"
        for name, (_, result) in run_each(args).items():
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{name} trace={trace}: failed_ops_ratio "
                                f"{result['failed'] / result['attempted']}")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{name} trace={trace}: metric "
                                    f"{metric['name']} missing or wrong unit")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="input size; tiny is for --smoke")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check "
                             "that every metric is reported")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.smoke:
        args.seconds = min(args.seconds, 0.5)
        return smoke(args)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
