"""Test helpers that run galmod under watch or patch it in place: call
and line-event counters, and a catalogue of deliberately wrong versions
of the engine's building blocks (mutants).

A patch replaces a name in every owner that holds a reference to it, so
that no module keeps calling the original, and fails when no owner
holds it, so that a count of a deleted name cannot pass by counting
nothing.  `MUTANTS` maps a mutant's name to the function it replaces
and a function that makes the replacement from the original;
`CORPUS_MUTANTS` holds those that move only the corpus of `galmod
check`.  `apply_mutant` patches either kind in through a pytest
`monkeypatch`.  A check earns its place in `checks.check_case` by
catching a mutant that the other checks miss, or by testing a
consequence of realizability that the other checks do not imply.
"""

import os
import sys
from pathlib import Path

import pytest

from galmod import checks, cli, cover_tower, cyclic_rep, decomposition

OWNERS = (cover_tower, decomposition, cyclic_rep, checks, cli,
          cover_tower.CoverTower, decomposition.ALL_METHODS)


def patch_everywhere(monkeypatch, name, replace, owners=OWNERS):
    """Swap the function `name` for `replace(original)` in each owner (a
    module, a class or a method table) that holds it; raises `LookupError`
    when none does."""
    found = False
    for owner in owners:
        if isinstance(owner, dict):
            for key, fn in owner.items():
                if getattr(fn, "__name__", None) == name:
                    monkeypatch.setitem(owner, key, replace(fn))
                    found = True
        elif hasattr(owner, name):
            monkeypatch.setattr(owner, name, replace(getattr(owner, name)))
            found = True
    if not found:
        raise LookupError(f"no owner holds {name!r}")


def count_calls(monkeypatch, names, owners=OWNERS):
    """Count calls to each named function, through every owner that holds
    a reference to it; returns the live counts."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        def replace(original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper
        return replace

    for name in names:
        patch_everywhere(monkeypatch, name, counting(name), owners)
    return calls


PACKAGE = str(Path(cli.__file__).parent) + os.sep


def count_line_events(fn, *args):
    """Call fn(*args) under `sys.settrace`; returns its result and the
    number of lines executed inside the galmod package."""
    events = 0

    def local(frame, event, arg):
        nonlocal events
        events += event == "line"
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, events


def one_orbit_case(v):
    """The tower whose line events the tests measure: one orbit of depth v
    at p = 2, upper breaks u_(i+1) = 2 u_i from u_1 = 1, and the least base
    degree above the vanishing gate."""
    lower = [1]
    for i in range(1, v):
        lower.append(lower[-1] + 2 ** i * 2 ** (i - 1))
    tower = cover_tower.CoverTower(
        cyclic_rep.GroupSpec(2, v), 0,
        (cover_tower.RamifiedOrbit("P", v, tuple(reversed(lower))),))
    base = (2 * tower.genus(0) - 2) // 2 ** v + 1
    return tower, cover_tower.InvariantDivisor(base, (("P", 0),))


def _column_mutant(jump, push):
    """A `pushforward_columns` mutant: an orbit ramified in pi_n gets
    push(c, alpha * jump(orbit, n), p) in place of the true floor."""
    def pushforward_columns(columns, t, n):
        p = t.group.p
        return [[push(c, alpha * jump(o, n), p)
                 for c in col for alpha in range(p)]
                if o.depth >= n else [c for c in col for _ in range(p)]
                for o, col in zip(t.orbits, columns)]
    return pushforward_columns


# The breaks read outermost-first: a wrong chain.  Recursive walks it; the
# engine's digit-sum table does not.
reversed_breaks = _column_mutant(lambda o, n: o.jumps[o.depth - n],
                                 lambda c, s, p: (c - s) // p)
# The pushed coefficients rounded up.
ceiling_pushforward = _column_mutant(lambda o, n: o.jumps[n - 1],
                                     lambda c, s, p: -((s - c) // p))


def _table_mutant(edit):
    """A `degree_table` mutant: `edit(degrees, d, t)` alters the true table."""
    def replace(original):
        def degree_table(d, t):
            return edit(original(d, t), d, t)
        return degree_table
    return replace


def _digits_reversed(degs, d, t):
    g = t.group

    def reverse(i):
        out = 0
        for _ in range(g.v):
            i, digit = divmod(i, g.p)
            out = out * g.p + digit
        return out

    return [degs[reverse(i)] for i in range(g.order)]


def _last_plus_one(degs, d, t):
    return degs[:-1] + [degs[-1] + 1]


def _base_on_odd_only(degs, d, t):
    return [deg if j % 2 else deg - d.base_degree
            for j, deg in enumerate(degs, start=1)]


def _wrong_last_row(original):
    """`from_simple_basis` applying the interior row 2c_n - c_{n-1} to the
    last coordinate too, as if the Cartan matrix had no corner."""
    def from_simple_basis(x, g):
        out = original(x, g).coords
        return cyclic_rep.K0Vector("standard",
                                   out[:-1] + (out[-1] + x.coords[-1],))
    return from_simple_basis


def _euler_off_by_one(original):
    """`euler_from_degrees` with simple-basis coordinate n - 1 one too
    large, n = p^v >= 3.  The fixed-point count of H_k is coordinate
    p^(v-k), so the fixed-point identities never read this one, and only
    Recursive reads the vector: only the method comparison sees it."""
    def euler_from_degrees(degrees, t):
        c = original(degrees, t).coords
        if len(c) >= 3:
            c = c[:-2] + (c[-2] + 1, c[-1])
        return cyclic_rep.K0Vector("simple", c)
    return euler_from_degrees


def _min_for_max(original):
    def orbit_point_count(o, n, g):
        return g.p ** (g.v - min(o.depth, n))
    return orbit_point_count


def _p2_conductor(original):
    """`CoverTower.genera` with conductor (p-1)(N+2) when p = 2; `genus`
    reads it too, so every reader sees the same wrong genera."""
    def genera(self):
        g = self.group
        if g.p != 2:
            return original(self)
        bumped = tuple(cover_tower.RamifiedOrbit(o.id, o.depth,
                                                 tuple(x + 1 for x in o.jumps))
                       for o in self.orbits)
        return original(cover_tower.CoverTower(g, self.base_genus, bumped))
    return genera


def _base_twice_at_bottom(original):
    """`column_degrees`, the sum of Recursive's last level, adding the
    base degree twice."""
    def column_degrees(base_degree, columns, t):
        return [deg + base_degree for deg in original(base_degree, columns, t)]
    return column_degrees


MUTANTS = {
    "reversed breaks": ("pushforward_columns", lambda _: reversed_breaks),
    "ceiling for floor": ("pushforward_columns", lambda _: ceiling_pushforward),
    "digits reversed": ("degree_table", _table_mutant(_digits_reversed)),
    "last degree +1": ("degree_table", _table_mutant(_last_plus_one)),
    "base degree on odd indices only": ("degree_table",
                                        _table_mutant(_base_on_odd_only)),
    "wrong last row": ("from_simple_basis", _wrong_last_row),
    "Euler coordinate n - 1 off by one": ("euler_from_degrees",
                                          _euler_off_by_one),
    "min for max": ("orbit_point_count", _min_for_max),
    "p = 2 conductor (p-1)(N+2)": ("genera", _p2_conductor),
    "base degree twice at level v": ("column_degrees", _base_twice_at_bottom),
}


def _lift_one_more(original):
    """`lift_above_vanishing` raising the base degree one more than the
    least lift whenever it raises it: still above the gate, so every case
    passes, but the corpus moves."""
    def lift_above_vanishing(d, t):
        lifted = original(d, t)
        if lifted is d:
            return d
        return cover_tower.InvariantDivisor(lifted.base_degree + 1,
                                            lifted.orbit_coeffs)
    return lift_above_vanishing


# Mutants that leave every answer right and move only the corpus of
# `galmod check`: `check_case` cannot catch them, its digest must.
CORPUS_MUTANTS = {
    "lift by one more": ("lift_above_vanishing", _lift_one_more),
}


def apply_mutant(monkeypatch, mutant):
    patch_everywhere(monkeypatch, *{**MUTANTS, **CORPUS_MUTANTS}[mutant])


@pytest.fixture
def wrong_chain(monkeypatch):
    apply_mutant(monkeypatch, "reversed breaks")
