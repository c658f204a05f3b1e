"""Test helpers that patch galmod in place: call counters and a catalogue
of deliberately wrong versions of the engine's building blocks (mutants).

A patch replaces a name in every owner that holds a reference to it, so
that no module keeps calling the original.  `MUTANTS` maps a mutant's
name to the function it replaces and a builder of the replacement from
the original; `apply_mutant` patches it in through a pytest
`monkeypatch`.  A check earns its place in `checks.check_case` by
catching a mutant that the other checks miss.
"""

import pytest

from galmod import checks, cli, cover_tower, cyclic_rep, decomposition

OWNERS = (cover_tower, decomposition, cyclic_rep, checks, cli,
          cover_tower.CoverTower, decomposition.ALL_METHODS)


def patch_everywhere(monkeypatch, name, replace, owners=OWNERS):
    """Swap the function `name` for `replace(original)` in each owner (a
    module, a class or a method table) that holds it."""
    for owner in owners:
        if isinstance(owner, dict):
            for key, fn in owner.items():
                if getattr(fn, "__name__", None) == name:
                    monkeypatch.setitem(owner, key, replace(fn))
        elif hasattr(owner, name):
            monkeypatch.setattr(owner, name, replace(getattr(owner, name)))


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


def reversed_breaks(d, t, alpha):
    """`pushforward_alpha` reading the breaks outermost-first: a wrong chain.
    Recursive walks it; the engine's digit-sum table does not."""
    n = d.level + 1
    coeffs = tuple((c - alpha * o.jumps[o.depth - n]) // t.group.p
                   if o.depth >= n else c
                   for o, c in zip(t.orbits, d.coeffs))
    return cover_tower.LevelDivisor(n, d.base_degree, coeffs)


def ceiling_pushforward(d, t, alpha):
    """`pushforward_alpha` rounding the pushed coefficients up."""
    n = d.level + 1
    coeffs = tuple(-((alpha * o.jumps[n - 1] - c) // t.group.p)
                   if o.depth >= n else c
                   for o, c in zip(t.orbits, d.coeffs))
    return cover_tower.LevelDivisor(n, d.base_degree, coeffs)


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
    """`CoverTower.genus` with conductor (p-1)(N+2) when p = 2."""
    def genus(self, n):
        g = self.group
        if g.p != 2:
            return original(self, n)
        bumped = tuple(cover_tower.RamifiedOrbit(o.id, o.depth,
                                                 tuple(x + 1 for x in o.jumps))
                       for o in self.orbits)
        return original(cover_tower.CoverTower(g, self.base_genus, bumped), n)
    return genus


def _base_twice_at_bottom(original):
    def divisor_degree(d, t):
        deg = original(d, t)
        return deg + d.base_degree if d.level == t.group.v else deg
    return divisor_degree


MUTANTS = {
    "reversed breaks": ("pushforward_alpha", lambda _: reversed_breaks),
    "ceiling for floor": ("pushforward_alpha", lambda _: ceiling_pushforward),
    "digits reversed": ("degree_table", _table_mutant(_digits_reversed)),
    "last degree +1": ("degree_table", _table_mutant(_last_plus_one)),
    "base degree on odd indices only": ("degree_table",
                                        _table_mutant(_base_on_odd_only)),
    "wrong last row": ("from_simple_basis", _wrong_last_row),
    "Euler coordinate n - 1 off by one": ("euler_from_degrees",
                                          _euler_off_by_one),
    "min for max": ("orbit_point_count", _min_for_max),
    "p = 2 conductor (p-1)(N+2)": ("genus", _p2_conductor),
    "base degree twice at level v": ("divisor_degree", _base_twice_at_bottom),
}


def apply_mutant(monkeypatch, mutant):
    patch_everywhere(monkeypatch, *MUTANTS[mutant])


@pytest.fixture
def wrong_chain(monkeypatch):
    apply_mutant(monkeypatch, "reversed breaks")
