"""Span tracing of galmod from outside the package.

`Tracer.installed()` replaces the public functions listed in `TRACED` with
wrappers, in every `galmod` module namespace (and in the
`decomposition.ALL_METHODS` table) that holds them, and restores the
originals on exit.  Each wrapped call records one span: name, start, end,
parent span and operation id.  Spans are kept in flat arrays in memory and
written once, by `write_spans`, when the run ends; a caller that repeats a
pass may `truncate` the repeats to bound memory.  The wrappers never
print, so the program's own stdout and stderr are untouched.

Self time is a span's duration minus the time its direct child spans
cover; it is accumulated per name while the spans are recorded.  The
bookkeeping of a child's wrapper outside the child's own interval is
charged to the parent, which is part of the tracing overhead the
benchmark reports.
"""

from __future__ import annotations

import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

# (module, qualified name) of every wrapped callable; the span name is
# "<module>.<qualified name>".
TRACED = [
    ("cli", "load_document"),
    ("cli", "parse_document"),
    ("cli", "validate_for_run"),
    ("cli", "build_report"),
    ("cli", "cmd_decompose"),
    ("cover_tower", "pushforward_alpha"),
    ("cover_tower", "CoverTower.orbit"),
    ("cover_tower", "CoverTower.genus"),
    ("cover_tower", "divisor_degree"),
    ("cover_tower", "level_zero_divisor"),
    ("cover_tower", "validate_strict"),
    ("cover_tower", "kani_pushforward"),
    ("cyclic_rep", "from_simple_basis"),
    ("cyclic_rep", "cartan_inverse"),
    ("decomposition", "level_degrees"),
    ("decomposition", "decompose_closed_form"),
    ("decomposition", "decompose_second_difference"),
    ("decomposition", "decompose_recursive"),
    ("decomposition", "decompose_simple_basis"),
    ("decomposition", "euler_characteristic"),
    ("decomposition", "graded_piece_divisor"),
    ("decomposition", "decompose_pullback"),
    ("as_oracle", "jordan_type"),
    ("as_oracle", "riemann_roch_basis"),
    ("as_oracle", "sigma_matrix"),
    ("as_oracle", "jordan_type_of_matrix"),
    ("checks", "generate_corpus"),
    ("checks", "check_case"),
]


def _madds(tracer, args, result):
    n = len(args[0].coords)
    tracer.computed["cyclic_rep.from_simple_basis.madds_computed"] += n * n


def _entries(tracer, args, result):
    n = args[0].order
    tracer.computed["cyclic_rep.cartan_inverse.entries_computed"] += n * n


def _cubic_ops(tracer, args, result):
    dim = len(args[0])
    s_max = max((j for j, _ in result.mult), default=0)
    tracer.computed["as_oracle.jordan.cubic_ops_computed"] += 2 * s_max * dim ** 3


# Work counts derived from argument and result sizes, not measured.
HOOKS = {
    "cyclic_rep.from_simple_basis": _madds,
    "cyclic_rep.cartan_inverse": _entries,
    "as_oracle.jordan_type_of_matrix": _cubic_ops,
}


class Tracer:
    """Span recorder for one benchmark run."""

    def __init__(self):
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.span_name = array("H")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.computed = {key: 0 for key in (
            "cyclic_rep.from_simple_basis.madds_computed",
            "cyclic_rep.cartan_inverse.entries_computed",
            "as_oracle.jordan.cubic_ops_computed")}
        # Open spans, innermost last: [span index, child ns]; the sentinel
        # at the bottom collects the time of root spans.
        self.stack = [[-1, 0]]
        self.op = -1
        for module, qualname in TRACED:
            name = f"{module}.{qualname}"
            self.index[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)

    def reset_counters(self) -> None:
        """Zero the per-name counts and self times (the spans are kept)."""
        for k in range(len(self.names)):
            self.calls[k] = 0
            self.self_ns[k] = 0
        for key in self.computed:
            self.computed[key] = 0

    def truncate(self, count: int) -> None:
        """Drop every span recorded after the first `count`."""
        for column in (self.span_name, self.span_op, self.span_parent,
                       self.span_start, self.span_end):
            del column[count:]

    def calls_of(self, name: str) -> int:
        return self.calls[self.index[name]]

    def self_s_of(self, name: str) -> float:
        return self.self_ns[self.index[name]] / 1e9

    def span_count(self) -> int:
        return len(self.span_start)

    def _wrap(self, fn, name: str):
        nid = self.index[name]
        hook = HOOKS.get(name)
        tracer = self
        stack = self.stack
        calls = self.calls
        self_ns = self.self_ns
        add_name = self.span_name.append
        add_op = self.span_op.append
        add_parent = self.span_parent.append
        starts = self.span_start
        ends = self.span_end
        add_start = starts.append
        add_end = ends.append
        clock = perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            add_name(nid)
            add_op(tracer.op)
            add_parent(stack[-1][0])
            add_start(0)
            add_end(0)
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stack[-1][1] += dur
                starts[idx] = t0
                ends[idx] = t1
                calls[nid] += 1
                self_ns[nid] += dur - frame[1]
            if hook is not None:
                hook(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced callable for the duration of the block."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "galmod" or key.startswith("galmod."))]
        undo = []
        try:
            for module, qualname in TRACED:
                name = f"{module}.{qualname}"
                home = sys.modules[f"galmod.{module}"]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(original, name))
                    undo.append((cls, attr, original))
                    continue
                original = getattr(home, qualname)
                wrapped = self._wrap(original, name)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapped)
                            undo.append((mod, attr, original))
                        elif isinstance(val, dict):
                            for key, item in list(val.items()):
                                if item is original:
                                    val[key] = wrapped
                                    undo.append((val, key, original))
            yield self
        finally:
            for target, attr, original in reversed(undo):
                if isinstance(target, dict):
                    target[attr] = original
                else:
                    setattr(target, attr, original)

    def write_spans(self, path) -> None:
        """Write every recorded span: a JSON header line naming the columns
        and span names, then the five columns as raw native arrays."""
        header = {
            "columns": [["name", self.span_name.typecode],
                        ["op", self.span_op.typecode],
                        ["parent", self.span_parent.typecode],
                        ["start_ns", self.span_start.typecode],
                        ["end_ns", self.span_end.typecode]],
            "byteorder": sys.byteorder,
            "spans": self.span_count(),
            "names": self.names,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_name, self.span_op, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(fh)
