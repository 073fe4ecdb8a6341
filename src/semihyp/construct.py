"""Factories that build verified semihypergroups.

Sources: semigroup/group multiplication tables, the parametrized 3-point
family, left coset spaces and double coset spaces of a finite group modulo a
subgroup, and orbit spaces of a finite group action.  Every factory refuses
to hand back an unverified structure: its verdict is the exact probability
and associativity checks of the structure it returns, and every rejection is
a `ConstraintViolation`.  A quotient entry is computed from one pair of
representatives: the group, subgroup and action-homomorphism checks that
precede it make every other pair give the same entry (`_quotient`).  A
Cayley table's identity, generators and Light's test are those of its one
point-mass structure, `CayleyTable.semigroup`, built from the checked integer
table with no pass over its n^2 supports; `from_semigroup` names its table,
whose facts every name shares, so a proved table is not proved again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, permutations
from typing import Callable, Iterable, Optional, Sequence

from .algebra import (
    CheckReport,
    ConvolutionTable,
    Measure,
    PointRef,
    PointSpace,
    RationalLike,
    Semihypergroup,
    Support,
    _pick,
    as_fraction,
    point_mass,
)


class ConstraintViolation(ValueError):
    """Input parameters break a documented arithmetic constraint."""

    def __init__(self, violations: Sequence[str], report: Optional[CheckReport] = None):
        self.violations = tuple(violations)
        self.report = report
        super().__init__("; ".join(self.violations))


class NotAssociativeError(ConstraintViolation):
    """A constructed table failed the exact associativity check; it breaks
    no listed constraint, so `violations` is empty."""

    def __init__(self, report: CheckReport):
        self.violations, self.report = (), report
        w = report.witness or {}
        ValueError.__init__(self, f"associativity fails at triple {w.get('triple')}")


class NotASubgroupError(ConstraintViolation):
    def __init__(self, message: str):
        super().__init__([message])


class InvalidActionError(ValueError):
    pass


@dataclass(frozen=True)
class CayleyTable:
    """Multiplication table of a finite magma; entry product[x][y] = x*y."""

    labels: tuple[str, ...]
    product: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", self.space.labels)  # `PointSpace` coerces them
        object.__setattr__(self, "product", tuple(map(tuple, self.product)))
        n = self.space.n
        if len(self.product) != n or any(len(row) != n for row in self.product):
            raise ValueError("product table must be n-by-n")
        if not (set(map(type, chain.from_iterable(self.product))) <= {int}
                and 0 <= min(map(min, self.product)) <= max(map(max, self.product)) < n):
            v = next(v for row in self.product for v in row if type(v) is not int or not 0 <= v < n)
            raise ValueError(f"table entry {v!r} is not a valid index")

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def space(self) -> PointSpace:
        return PointSpace(self.labels)

    def index(self, point: PointRef) -> int:
        return self.space.index(point)

    @cached_property
    def semigroup(self) -> Semihypergroup:
        """The point-mass structure p_x * p_y = p_{x.y}, unchecked.  Its
        convolution table is `ConvolutionTable._from_point_table` of the
        integer table `__post_init__` checked, so its checks read that table,
        and it keeps their results for every structure named over it."""
        conv = ConvolutionTable._from_point_table(self.space, self.product)
        return Semihypergroup(conv, "semigroup")

    def is_associative(self) -> bool:
        return self.associativity_witness() is None

    def associativity_witness(self) -> Optional[tuple[int, int, int]]:
        """First triple with (x*y)*z != x*(y*z) in (x, y, z) order, or None:
        the witness of `check_associativity` on `semigroup`, run once per
        table, mapped back to indices."""
        witness = self.semigroup.associativity_report.witness
        return None if witness is None else tuple(map(self.index, witness["triple"]))

    def identity(self) -> Optional[int]:
        return self.semigroup.identity

    def is_group(self) -> bool:
        """Associative, with identity, every row onto.  Columns follow: an onto
        row gives x a right inverse, and in a monoid xy = yz = e gives x = z."""
        return (self.is_associative() and self.identity() is not None
                and all(len(set(row)) == self.n for row in self.product))

    def inverse(self, x: PointRef) -> int:
        e = self.identity()
        if e is None:
            raise ValueError("table has no identity")
        i = self.index(x)
        for y in range(self.n):
            if self.product[i][y] == e and self.product[y][i] == e:
                return y
        raise ValueError(f"{self.labels[i]} has no inverse")

    def is_subgroup(self, members: Iterable[PointRef]) -> bool:
        idx = {self.index(p) for p in members}
        if not idx:
            return False
        # closed nonempty subset of a finite group is a subgroup
        return all(self.product[x][y] in idx for x in idx for y in idx)


@dataclass(frozen=True)
class GroupAction:
    """Action of a finite group on the points of a finite group's table.

    act[h][x] is the image of carrier point x under group element h.
    """

    group: CayleyTable
    carrier: CayleyTable
    act: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "act", tuple(map(tuple, self.act)))
        for role, table in (("acting", self.group), ("carrier", self.carrier)):
            if not table.is_group():
                raise InvalidActionError(f"{role} table is not a group")
        nh, ng, act = self.group.n, self.carrier.n, self.act
        if len(act) != nh or any(len(row) != ng for row in act):
            raise InvalidActionError("action table must be |H|-by-|G|")
        if not (set(map(type, chain.from_iterable(act))) <= {int}
                and 0 <= min(map(min, act)) <= max(map(max, act)) < ng):
            v = next(v for row in act for v in row if type(v) is not int or not 0 <= v < ng)
            raise InvalidActionError(f"action image {v!r} is not a carrier point")
        e = self.group.identity()  # not None: is_group() above requires one
        if act[e] != tuple(range(ng)):
            raise InvalidActionError("group identity must act as the identity map")
        for h1 in range(nh):
            for h2 in range(nh):
                if tuple(map(act[h1].__getitem__, act[h2])) != act[self.group.product[h1][h2]]:
                    raise InvalidActionError(
                        f"action is not a homomorphism at pair "
                        f"({self.group.labels[h1]}, {self.group.labels[h2]})"
                    )

    def orbit(self, x: PointRef) -> frozenset[int]:
        i = self.carrier.index(x)
        return frozenset(row[i] for row in self.act)


def from_semigroup(table: CayleyTable, name: Optional[str] = None) -> Semihypergroup:
    """Semihypergroup with point-mass convolution p_x * p_y = p_{x.y}: the
    convolution table of `table.semigroup` under its own name, with the facts
    that table keeps, so nothing is checked again after `table.is_group()`.
    Its `check_associativity` runs Light's test on the integer table itself:
    (p_x*p_y)*p_z = p_{(xy)z}, and the first failing triple is the table's.
    """
    shg = Semihypergroup(table.semigroup.table, name or "semigroup")
    if not shg.is_associative:
        x, y, z = shg.associativity_report.witness["triple"]
        raise ConstraintViolation([f"input table is not associative at ({x}, {y}, {z})"])
    return shg


def triple_hypergroup(
    x1: RationalLike, x2: RationalLike, x3: RationalLike,
    y1: RationalLike, y2: RationalLike, y3: RationalLike,
    z1: RationalLike, z2: RationalLike,
    name: Optional[str] = None,
) -> Semihypergroup:
    """3-point structure on {e, a, b} with parametrized products.

    e is the identity; p_a*p_a = x1 p_e + x2 p_a + x3 p_b, p_b*p_b uses the
    y's, and p_a*p_b = p_b*p_a = z1 p_a + z2 p_b.  The documented parameter
    constraints (nonnegative parameters, the unit sums of the x's, the y's
    and the z's, and y1*x3 = z1*x1) are necessary but not sufficient for
    associativity, so acceptance is decided by the exact associativity
    check; whichever constraints fail are reported together, in that order.
    """
    names = ("x1", "x2", "x3", "y1", "y2", "y3", "z1", "z2")
    values = tuple(map(as_fraction, (x1, x2, x3, y1, y2, y3, z1, z2)))
    x1, x2, x3, y1, y2, y3, z1, z2 = values
    violations = [f"{k} = {v} is negative" for k, v in zip(names, values) if v < 0]
    for part in slice(0, 3), slice(3, 6), slice(6, 8):
        if (total := sum(values[part])) != 1:
            violations.append(f"{'+'.join(names[part])} = {total} != 1")
    if y1 * x3 != z1 * x1:
        violations.append(f"y1*x3 != z1*x1 ({y1 * x3} != {z1 * x1})")
    space = PointSpace(("e", "a", "b"))
    e, a, b = (point_mass(space, i) for i in range(3))
    ab = Measure(space, (Fraction(0), z1, z2))
    table = ConvolutionTable.from_measures(space, (
        (e, a, b),
        (a, Measure(space, (x1, x2, x3)), ab),
        (b, ab, Measure(space, (y1, y2, y3))),
    ))
    s = Semihypergroup(table, name or "triple")
    if violations:
        report = s.associativity_report if s.probability_report.passed else None
        raise ConstraintViolation(violations, report=report)
    return _verified(s)


def _require_subgroup(g: CayleyTable, members: Iterable[PointRef]) -> list[int]:
    if not g.is_group():
        raise NotASubgroupError("ambient table is not a group")
    idx = sorted({g.index(p) for p in members})
    if not g.is_subgroup(idx):
        raise NotASubgroupError(
            f"{{{', '.join(g.labels[i] for i in idx)}}} is not a subgroup"
        )
    return idx


def _classes(n: int, class_of: Callable[[int], frozenset[int]]) -> list[frozenset[int]]:
    """The distinct classes class_of(x), x = 0..n-1, in first-seen order."""
    return list(dict.fromkeys(class_of(x) for x in range(n)))


def _quotient(
    g: CayleyTable,
    classes: list[frozenset[int]],
    label: Callable[[frozenset[int]], str],
    samples: Callable[[int, int], list[int]],
    name: str,
) -> Semihypergroup:
    """Quotient of G's points by a partition, with averaged convolution.

    Entry (A, B) is the uniform average of the point masses at the classes of
    the elements samples(min(A), min(B)).  One pair of representatives
    suffices, because the checks that built the classes make every pair give
    the same multiset of classes.  For cosets, x.h1.t.y.h2 lies in (x.t'.y)H
    with t' = h1.t, and for double cosets h0.x.h1.t.h2.y.h3 lies in
    H(x.t'.y)H with t' = h1.t.h2; t -> t' permutes the subgroup H.  For
    orbits, act[r][act[h][x]] = act[r.h][x] by the homomorphism check, and
    r -> r.h permutes H.  The result must pass the probability and
    associativity checks.
    """
    k = len(classes)
    cls = [0] * g.n
    for i, c in enumerate(classes):
        for x in c:
            cls[x] = i
    space = PointSpace(tuple(label(c) for c in classes))
    reps = [min(c) for c in classes]

    # one support object per count vector: the checks and the renderer meet each once
    shared: dict[tuple[int, ...], Support] = {}

    def entry(a: int, b: int) -> Support:
        counts = [0] * k
        for z in samples(reps[a], reps[b]):
            counts[cls[z]] += 1
        key = tuple(counts)
        if key not in shared:
            total = sum(counts)
            shared[key] = tuple((i, Fraction(c, total)) for i, c in enumerate(counts) if c)
        return shared[key]

    table = ConvolutionTable(space, tuple(tuple(entry(a, b) for b in range(k)) for a in range(k)))
    return _verified(Semihypergroup(table, name))


def _verified(s: Semihypergroup) -> Semihypergroup:
    """s itself, once it passes `check_probability` and then
    `check_associativity`; the first failure is raised with its report."""
    prob = s.probability_report
    if not prob.passed:
        raise ConstraintViolation([prob.detail], report=prob)
    if not s.is_associative:
        raise NotAssociativeError(s.associativity_report)
    return s


def coset_space(
    g: CayleyTable, subgroup: Iterable[PointRef], name: Optional[str] = None
) -> Semihypergroup:
    """Left coset space G/H with Haar-averaged convolution.

    Entry (xH, yH) is the average over t in H of the point mass at (x.t.y)H.
    Cosets are listed in first-seen order over G's element order and labeled
    "<rep>H" by their earliest-listed member.
    """
    h = _require_subgroup(g, subgroup)
    p, coset = g.product, _pick(h)
    classes = _classes(g.n, lambda x: frozenset(coset(p[x])))
    return _quotient(
        g, classes, lambda c: f"{g.labels[min(c)]}H",
        lambda x, y: [p[p[x][t]][y] for t in h], name or "coset-space",
    )


def double_coset_space(
    g: CayleyTable, subgroup: Iterable[PointRef], name: Optional[str] = None
) -> Semihypergroup:
    """Double coset space G//H with Haar-averaged convolution.

    Entry (HxH, HyH) is the average over t in H of the point mass at
    H(x.t.y)H.  Double cosets are listed in first-seen order over G's element
    order and labeled "H<rep>H" by their earliest-listed member.
    """
    h = _require_subgroup(g, subgroup)
    p, coset = g.product, _pick(h)  # HxH is the union of the cosets uH, u in Hx
    classes = _classes(g.n, lambda x: frozenset(chain.from_iterable(coset(p[p[s][x]]) for s in h)))
    return _quotient(
        g, classes, lambda c: f"H{g.labels[min(c)]}H",
        lambda x, y: [p[p[x][t]][y] for t in h], name or "double-coset-space",
    )


def orbit_space(action: GroupAction, name: Optional[str] = None) -> Semihypergroup:
    """Orbit space of a group action on a group, with double-averaged products.

    Entry (x^H, y^H) averages the point mass at (act(s,x).act(t,y))^H over all
    s, t in H.  Orbits are listed in first-seen order over the carrier's
    element order and labeled by the sorted list of member labels, e.g.
    "{1,3}".  Associativity genuinely can fail when the action is not by
    automorphisms; the failure is reported with its witness triple.
    """
    g = action.carrier
    p, act = g.product, action.act
    return _quotient(
        g, _classes(g.n, action.orbit),
        lambda c: "{" + ",".join(sorted(g.labels[i] for i in c)) + "}",
        lambda x, y: [p[r[x]][q[y]] for r in act for q in act],
        name or "orbit-space",
    )


# ---------------------------------------------------------------------------
# stock tables used by tests, fixtures and the command line


def cyclic_group(n: int) -> CayleyTable:
    return CayleyTable(
        labels=tuple(str(i) for i in range(n)),
        product=tuple(tuple((i + j) % n for j in range(n)) for i in range(n)),
    )


def _cycle_label(p: tuple[int, ...]) -> str:
    seen, out = [False] * len(p), ""
    for i in range(len(p)):  # each cycle is walked once, from its least point
        cycle = []
        while not seen[i]:
            seen[i] = True
            cycle.append(str(i + 1))
            i = p[i]
        if len(cycle) > 1:
            out += "(" + "".join(cycle) + ")"
    return out or "e"


def symmetric_group(n: int) -> CayleyTable:
    """S_n on lexicographically ordered permutations, cycle-notation labels.

    Products come from composing right factor first; the table is the single
    source of truth downstream, so the convention never leaks.
    """
    elems = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(elems)}
    return CayleyTable(
        labels=tuple(_cycle_label(p) for p in elems),
        product=tuple(tuple(index[tuple(map(p.__getitem__, q))] for q in elems) for p in elems),
    )


def left_zero_semigroup(n: int) -> CayleyTable:
    if not 1 <= n <= 26:
        raise ValueError("supported sizes are 1..26")
    labels = tuple(chr(ord("a") + i) for i in range(n))
    return CayleyTable(labels=labels, product=tuple((i,) * n for i in range(n)))


def inversion_action(g: CayleyTable) -> GroupAction:
    """Order-2 action of {0,1} on a group by x -> x^{-1}."""
    if not g.is_group():
        raise InvalidActionError("inversion action needs a group")
    z2 = cyclic_group(2)
    inv = tuple(g.inverse(x) for x in range(g.n))
    return GroupAction(group=z2, carrier=g, act=(tuple(range(g.n)), inv))
