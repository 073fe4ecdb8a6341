"""The benchmark's own exact arithmetic, independent of `semihyp`.

Builds the expected structures (point-mass semigroups, coset, double-coset
and orbit spaces, the 3-point family) from group tables, renders them in the
canonical file format, and re-verifies what the program reports: invariant
means against the invariance equations, Farkas certificates against the LP
rows they refute, and fixed points against T_s x = x.  Everything here is
plain `fractions.Fraction` arithmetic over sparse tables, so it stays cheap
next to the program's dense kernels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from typing import Callable, Optional, Sequence

Entry = dict[int, Fraction]  # sparse measure: point index -> nonzero weight


@dataclass(frozen=True)
class Group:
    """Finite magma: labels plus product[x][y] = index of x*y."""

    labels: tuple[str, ...]
    product: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    def doc(self) -> dict:
        return {"labels": list(self.labels), "table": [list(r) for r in self.product]}

    def to_json(self) -> str:
        return json.dumps(self.doc(), indent=2, sort_keys=True) + "\n"

    def identity(self) -> int:
        return next(
            e for e in range(self.n)
            if all(self.product[e][x] == x == self.product[x][e] for x in range(self.n))
        )

    def inverse(self, x: int) -> int:
        e = self.identity()
        return next(y for y in range(self.n) if self.product[x][y] == e)

    def relabel(self, labels: Sequence[str]) -> "Group":
        return Group(tuple(labels), self.product)


def cyclic(n: int) -> Group:
    return Group(
        tuple(str(i) for i in range(n)),
        tuple(tuple((i + j) % n for j in range(n)) for i in range(n)),
    )


def left_zero(n: int) -> Group:
    return Group(tuple(str(i) for i in range(n)), tuple((i,) * n for i in range(n)))


def symmetric(n: int) -> tuple[Group, tuple[tuple[int, ...], ...]]:
    """S_n on lexicographically ordered permutations; also returns the perms."""
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    product = tuple(
        tuple(index[tuple(p[q[i]] for i in range(n))] for q in elems) for p in elems
    )
    return Group(tuple(str(i) for i in range(len(elems))), product), tuple(elems)


@dataclass(frozen=True)
class GroupAction:
    """Action of `acting` on the points of `carrier`: act[h][x]."""

    acting: Group
    carrier: Group
    act: tuple[tuple[int, ...], ...]

    def to_json(self) -> str:
        doc = {
            "acting": self.acting.doc(),
            "carrier": self.carrier.doc(),
            "act": [list(r) for r in self.act],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def inversion(g: Group, z2_labels: Sequence[str]) -> GroupAction:
    z2 = Group(tuple(z2_labels), ((0, 1), (1, 0)))
    return GroupAction(z2, g, (tuple(range(g.n)), tuple(g.inverse(x) for x in range(g.n))))


# ---------------------------------------------------------------------------
# structures


@dataclass(frozen=True)
class Structure:
    """Finite point space in sorted label order plus its sparse table."""

    name: str
    labels: tuple[str, ...]
    table: tuple[tuple[Entry, ...], ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def render(self) -> str:
        """Canonical structure file: sorted keys, support only, lowest terms."""
        conv = {}
        for x, row in enumerate(self.table):
            for y, m in enumerate(row):
                conv[f"{self.labels[x]}|{self.labels[y]}"] = [
                    {"point": self.labels[z], "weight": str(m[z])} for z in sorted(m)
                ]
        doc = {"name": self.name, "points": list(self.labels), "convolution": conv}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def convolve(self, mu: Entry, nu: Entry) -> Entry:
        """Bilinear extension of the table to sparse measures."""
        out: Entry = {}
        for x, wx in mu.items():
            for y, wy in nu.items():
                for z, w in self.table[x][y].items():
                    out[z] = out.get(z, 0) + wx * wy * w
        return {z: w for z, w in out.items() if w}

    def fails_associativity(self, x: int, y: int, z: int) -> bool:
        one = Fraction(1)
        return self.convolve(self.table[x][y], {z: one}) != \
            self.convolve({x: one}, self.table[y][z])

    @cached_property
    def associative(self) -> bool:
        rng = range(self.n)
        return not any(self.fails_associativity(x, y, z) for x in rng for y in rng for z in rng)

    @cached_property
    def identity(self) -> Optional[str]:
        for e in range(self.n):
            if all(self.table[x][e] == {x: 1} == self.table[e][x] for x in range(self.n)):
                return self.labels[e]
        return None

    @cached_property
    def commutative(self) -> bool:
        return all(
            self.table[x][y] == self.table[y][x]
            for x in range(self.n) for y in range(x + 1, self.n)
        )

    def canonical_action(self) -> "Action":
        """T_s = transpose of the left-translation matrix of s, on the simplex."""
        n = self.n
        maps = []
        for s in range(n):
            a = [[Fraction(0)] * n for _ in range(n)]
            for y in range(n):
                for z, w in self.table[s][y].items():
                    a[z][y] = w
            maps.append((tuple(map(tuple, a)), (Fraction(0),) * n))
        return Action(self, n, tuple(maps))


def _build(
    name: str, labels: Sequence[str], entry: Callable[[int, int], Entry]
) -> Structure:
    """Assemble a structure given in `labels` order, then sort the points."""
    n = len(labels)
    order = sorted(range(n), key=lambda i: labels[i])
    position = {old: new for new, old in enumerate(order)}
    table = tuple(
        tuple(
            {position[z]: w for z, w in entry(x, y).items() if w}
            for y in order
        )
        for x in order
    )
    return Structure(name, tuple(labels[i] for i in order), table)


def _average(classes: Sequence[frozenset[int]], images: Sequence[int]) -> Entry:
    """Uniform average of the point masses at the classes of `images`."""
    of = {x: k for k, c in enumerate(classes) for x in c}
    out: Entry = {}
    step = Fraction(1, len(images))
    for z in images:
        out[of[z]] = out.get(of[z], 0) + step
    return out


def _first_seen(n: int, class_of: Callable[[int], frozenset[int]]) -> list[frozenset[int]]:
    classes: list[frozenset[int]] = []
    for x in range(n):
        c = class_of(x)
        if c not in classes:
            classes.append(c)
    return classes


def semigroup(g: Group, name: str) -> Structure:
    return _build(name, g.labels, lambda x, y: {g.product[x][y]: Fraction(1)})


def coset(g: Group, h: Sequence[int], name: str) -> Structure:
    """G/H: entry (xH, yH) averages the point masses at (x t y)H over t in H."""
    p = g.product
    classes = _first_seen(g.n, lambda x: frozenset(p[x][t] for t in h))
    return _build(
        name,
        [g.labels[min(c)] + "H" for c in classes],
        lambda a, b: _average(
            classes, [p[p[min(classes[a])][t]][min(classes[b])] for t in h]
        ),
    )


def double_coset(g: Group, h: Sequence[int], name: str) -> Structure:
    """G//H: entry (HxH, HyH) averages the point masses at H(x t y)H."""
    p = g.product
    classes = _first_seen(g.n, lambda x: frozenset(p[p[s][x]][t] for s in h for t in h))
    return _build(
        name,
        ["H" + g.labels[min(c)] + "H" for c in classes],
        lambda a, b: _average(
            classes, [p[p[min(classes[a])][t]][min(classes[b])] for t in h]
        ),
    )


def orbit(action: GroupAction, name: str) -> Structure:
    """Orbit space: entry averages (s.x)(t.y) over all acting s and t."""
    g, act = action.carrier, action.act
    classes = _first_seen(g.n, lambda x: frozenset(row[x] for row in act))
    labels = ["{" + ",".join(sorted(g.labels[i] for i in c)) + "}" for c in classes]

    def entry(a: int, b: int) -> Entry:
        x, y = min(classes[a]), min(classes[b])
        return _average(classes, [g.product[s[x]][t[y]] for s in act for t in act])

    return _build(name, labels, entry)


def triple(params: Sequence[Fraction], name: str) -> Structure:
    """3-point structure on {e, a, b} with the documented parametrization."""
    x1, x2, x3, y1, y2, y3, z1, z2 = params
    e, a, b = 0, 1, 2
    rows = {
        (a, a): {e: x1, a: x2, b: x3},
        (b, b): {e: y1, a: y2, b: y3},
        (a, b): {a: z1, b: z2},
        (b, a): {a: z1, b: z2},
    }

    def entry(x: int, y: int) -> Entry:
        if x == e:
            return {y: Fraction(1)}
        if y == e:
            return {x: Fraction(1)}
        return rows[(x, y)]

    return _build(name, ("e", "a", "b"), entry)


# ---------------------------------------------------------------------------
# affine actions on the simplex


@dataclass(frozen=True)
class Action:
    """One affine map (A, b) per point, in the structure's point order."""

    structure: Structure
    dim: int
    maps: tuple[tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...]], ...]

    def to_json(self) -> str:
        maps = {
            label: {
                "A": [[str(v) for v in row] for row in a],
                "b": [str(v) for v in b],
            }
            for label, (a, b) in zip(self.structure.labels, self.maps)
        }
        doc = {"dimension": self.dim, "carrier": "simplex", "maps": maps}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def fixed_point_rows(self) -> tuple[list[list[Fraction]], list[Fraction]]:
        """Rows of {(A_s - I) x = -b_s for all s, sum(x) = 1}, in map order."""
        rows, rhs = [], []
        for a, b in self.maps:
            for i in range(self.dim):
                rows.append([a[i][j] - (1 if i == j else 0) for j in range(self.dim)])
                rhs.append(-b[i])
        rows.append([Fraction(1)] * self.dim)
        rhs.append(Fraction(1))
        return rows, rhs


# ---------------------------------------------------------------------------
# verifiers for what the program reports


def parse_vector(text: str) -> list[Fraction]:
    return [Fraction(v) for v in text.split(", ")]


def is_invariant_mean(s: Structure, m: Sequence[Fraction]) -> bool:
    """m >= 0, sum(m) = 1 and sum_y m_y (p_s * p_y)(z) = m_z for all s, z."""
    if len(m) != s.n or any(v < 0 for v in m) or sum(m) != 1:
        return False
    for row in s.table:
        out = [Fraction(0)] * s.n
        for y, wy in enumerate(m):
            if wy:
                for z, w in row[y].items():
                    out[z] += wy * w
        if out != list(m):
            return False
    return True


def invariance_rows(s: Structure) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Rows of the left-invariance LP: one per (s, z), then sum(m) = 1."""
    rows, rhs = [], []
    for row in s.table:
        for z in range(s.n):
            rows.append([row[y].get(z, 0) - (1 if y == z else 0) for y in range(s.n)])
            rhs.append(Fraction(0))
    rows.append([Fraction(1)] * s.n)
    rhs.append(Fraction(1))
    return rows, rhs


def is_farkas_certificate(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], y: Sequence[Fraction]
) -> bool:
    """y refutes {A x = b, x >= 0}: y.b > 0 and y.A <= 0 on every column."""
    if len(y) != len(rows) or sum(a * b for a, b in zip(y, rhs)) <= 0:
        return False
    columns = len(rows[0])
    return all(
        sum(yi * row[j] for yi, row in zip(y, rows) if yi) <= 0 for j in range(columns)
    )


def is_fixed_point(action: Action, x: Sequence[Fraction]) -> bool:
    if len(x) != action.dim or any(v < 0 for v in x) or sum(x) != 1:
        return False
    return all(
        [sum(aij * xj for aij, xj in zip(row, x)) + bi for row, bi in zip(a, b)] == list(x)
        for a, b in action.maps
    )


def float_residual(action: Action, x: Sequence[float]) -> float:
    """Worst l-infinity displacement of x under any single map, in floats."""
    worst = 0.0
    for a, b in action.maps:
        for i, (row, bi) in enumerate(zip(a, b)):
            image = sum(float(v) * xj for v, xj in zip(row, x)) + float(bi)
            worst = max(worst, abs(image - x[i]))
    return worst
