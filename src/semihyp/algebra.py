"""Exact measure algebra on a finite point space.

A finite semihypergroup is a point space together with a table assigning to
each ordered pair of points the probability measure that plays the role of
their product.  Convolution of arbitrary measures is the bilinear extension
of that table, which stores each product by its support; the kernels read
its `scaled` integer view, and dense `Measure`s appear only at the API
boundary.  Every scalar a caller sees is a `fractions.Fraction`, and every
check in this module is exact, so the verdicts can serve as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm
from operator import itemgetter, ne
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence, Union

if TYPE_CHECKING:
    from .functions import PointFunction  # which imports this module

RationalLike = Union[Fraction, int, str]
PointRef = Union[int, str]
Support = tuple[tuple[int, Fraction], ...]


class DimensionMismatch(ValueError):
    """A vector or table does not match the point space it is used with."""


class UnknownLabel(ValueError):
    """A point reference does not name a point of the space."""


class PreconditionError(ValueError):
    """An operation was invoked on a structure that fails its precondition."""


def as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """`str` of the Fraction, also past the interpreter's int-string digit limit."""
    try:
        return str(value)
    except ValueError:
        text = _decimal(value.numerator)
        return text if value.denominator == 1 else f"{text}/{_decimal(value.denominator)}"


def _decimal(k: int) -> str:
    try:
        return str(k)
    except ValueError:  # past the int-string digit limit: convert in two halves
        half = k.bit_length() * 3 // 20  # about half the decimal digits
        high, low = divmod(abs(k), 10 ** half)
        return "-" * (k < 0) + _decimal(high) + _decimal(low).zfill(half)


@dataclass(frozen=True)
class PointSpace:
    """Ordered finite set of point labels; position in the tuple is the index."""

    labels: tuple[str, ...]
    positions: dict[str, int] = field(init=False, repr=False, compare=False)  # label -> index

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        object.__setattr__(self, "positions", {l: i for i, l in enumerate(self.labels)})
        if not self.labels:
            raise ValueError("point space must contain at least one point")
        if len(self.positions) != len(self.labels):
            raise ValueError("point labels must be pairwise distinct")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, point: PointRef) -> int:
        if isinstance(point, int):
            if not 0 <= point < self.n:
                raise UnknownLabel(f"point index out of range: {point}")
            return point
        try:
            return self.positions[point]
        except (KeyError, TypeError):
            raise UnknownLabel(f"unknown point label: {point!r}") from None

    def label(self, index: int) -> str:
        return self.labels[index]


@dataclass(frozen=True)
class Measure:
    """Real rational measure on a point space, stored densely."""

    space: PointSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "weights", tuple(as_fraction(w) for w in self.weights)
        )
        if len(self.weights) != self.space.n:
            raise DimensionMismatch(
                f"measure has {len(self.weights)} weights for a "
                f"{self.space.n}-point space"
            )

    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if w != 0)

    def __add__(self, other: "Measure") -> "Measure":
        if other.space != self.space:
            raise DimensionMismatch("measures live on different point spaces")
        return Measure(self.space, tuple(a + b for a, b in zip(self.weights, other.weights)))

    def __sub__(self, other: "Measure") -> "Measure":
        return self + other.scale(-1)

    def scale(self, factor: RationalLike) -> "Measure":
        c = as_fraction(factor)
        return Measure(self.space, tuple(c * w for w in self.weights))

    def __rmul__(self, factor: RationalLike) -> "Measure":
        return self.scale(factor)


@dataclass(frozen=True)
class Mean(Measure):
    """Probability vector acting on functions as m(f) = sum_y m(y) f(y)."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if any(w < 0 for w in self.weights):
            raise ValueError("mean weights must be nonnegative")
        if self.total() != 1:
            raise ValueError("mean weights must sum to 1")

    def __call__(self, f: PointFunction) -> Fraction:
        if f.space != self.space:
            raise DimensionMismatch("mean and function live on different point spaces")
        return sum((w * v for w, v in zip(self.weights, f.values)), Fraction(0))


def point_mass(space: PointSpace, point: PointRef) -> Measure:
    i = space.index(point)
    return Measure(space, tuple(Fraction(1 if j == i else 0) for j in range(space.n)))


def zero_measure(space: PointSpace) -> Measure:
    return Measure(space, (Fraction(0),) * space.n)


@dataclass(frozen=True)
class ConvolutionTable:
    """The n-by-n table of the products p_x * p_y, stored by support.

    supports[x][y] is the `Support` of p_x * p_y: its (index, weight) pairs
    with weight != 0, indices ascending.  `from_measures` and `entry` are the
    dense boundary; `entries` is the dense view, for callers outside the
    kernels, which read `point_table` or, on other tables, `scaled`.
    `CayleyTable` alone builds its point-mass table, by `_from_point_table`.
    `facts` keeps the checks' results, which `Semihypergroup` fills on first use.
    """

    space: PointSpace
    supports: tuple[tuple[Support, ...], ...]
    facts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.space.n
        if len(self.supports) != n or any(len(row) != n for row in self.supports):
            raise DimensionMismatch("convolution table must be n-by-n")
        check_supports(self.distinct.values(), n)

    @classmethod
    def from_measures(
        cls, space: PointSpace, entries: Sequence[Sequence[Measure]]
    ) -> "ConvolutionTable":
        """The table whose entry (x, y) is the dense measure entries[x][y]."""
        if any(m.space != space for row in entries for m in row):
            raise DimensionMismatch("table entry on a different point space")
        return cls(space, tuple(
            tuple(tuple((k, w) for k, w in enumerate(m.weights) if w) for m in row)
            for row in entries
        ))

    @classmethod
    def _from_point_table(cls, space: PointSpace, t: tuple[tuple[int, ...], ...]):
        """The table p_x * p_y = p_{t[x][y]}, for t trusted to be n tuples of n
        ints in 0..n-1, as `CayleyTable.__post_init__` checks it (private: an
        unchecked t goes through `ConvolutionTable(space, supports)`):
        `point_table` is t, `distinct` all n masses, each built once, so
        neither the n^2 gather nor `check_supports` runs."""
        one = Fraction(1)
        masses = [((z, one),) for z in range(space.n)]
        table = object.__new__(cls)  # frozen: fill the fields and the caches directly
        vars(table).update(space=space, point_table=t, supports=tuple(_pick(r)(masses) for r in t),
                           distinct={id(m): m for m in masses}, facts={})
        return table

    def entry(self, x: PointRef, y: PointRef) -> Measure:
        support = dict(self.supports[self.space.index(x)][self.space.index(y)])
        return Measure(self.space, tuple(support.get(k, Fraction(0)) for k in range(self.space.n)))

    @cached_property
    def entries(self) -> tuple[tuple[Measure, ...], ...]:
        n = self.space.n
        return tuple(tuple(self.entry(x, y) for y in range(n)) for x in range(n))

    @cached_property
    def distinct(self) -> dict[int, Support]:
        """Each distinct support object once, by id, in first-occurrence order;
        from `_from_point_table`, all n masses in index order, occurring or not."""
        return {id(e): e for row in self.supports for e in row}

    @cached_property
    def point_table(self) -> Optional[tuple[tuple[int, ...], ...]]:
        """t[x][y] = z if every product is a point mass p_x*p_y = p_z, else None."""
        if all(len(e) == 1 and e[0][1] == 1 for e in self.distinct.values()):
            return tuple(tuple(e[0][0] for e in row) for row in self.supports)
        return None

    @cached_property
    def scaled(self) -> tuple[int, tuple[tuple[tuple[tuple[int, int], ...], ...], ...]]:
        """(D, ints): D the least common denominator of all weights, ints the
        supports times D, each distinct support object scaled once."""
        d = lcm(*{w.denominator for e in self.distinct.values() for _, w in e})
        ints = {i: tuple((k, w.numerator * d // w.denominator) for k, w in e)
                for i, e in self.distinct.items()}
        return d, tuple(tuple(ints[id(e)] for e in row) for row in self.supports)


def check_supports(supports: Iterable[Support], n: int) -> None:
    """Table entries and affine-map rows: indices ascending in 0..n-1 (else
    a DimensionMismatch), weights nonzero `Fraction`s (else a ValueError)."""
    for support in supports:
        ks = [k for k, _ in support]
        if not all(isinstance(k, int) and 0 <= k < n for k in ks) or ks != sorted(set(ks)):
            raise DimensionMismatch(f"support indices not ascending in 0..{n - 1}: {support!r}")
        if not all(isinstance(w, Fraction) and w != 0 for _, w in support):
            raise ValueError(f"support weights must be nonzero Fractions: {support!r}")


def _pick(h: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A sequence -> the tuple of its entries at the indices in h, at C speed
    (`itemgetter` gives the entry itself, not a 1-tuple, for one index)."""
    return itemgetter(*h) if len(h) > 1 else lambda row: (row[h[0]],)


def translation_transpose(table: ConvolutionTable, s: int) -> list[dict[int, Fraction]]:
    """The rows {y: w} of L[z][y] = (p_s*p_y)(z), w != 0, the transpose of
    the left-translation matrix of s, gathered from the supports of row s."""
    out: list[dict[int, Fraction]] = [{} for _ in range(table.space.n)]
    for y, support in enumerate(table.supports[s]):
        for z, w in support:
            out[z][y] = w
    return out


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a structural check, with an exact witness on failure."""

    check: str
    passed: bool
    detail: str = ""
    witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.passed


@dataclass(frozen=True)
class Semihypergroup:
    """A named view of a convolution table.  Its facts (`probability_report`,
    `associativity_report`, `identity`, `generators`, `is_commutative`) are
    the table's: each is computed on first use and kept in `table.facts`, so
    every name for the table reuses them, and, the table being immutable,
    they never go stale.  Operations that require associativity call
    :func:`require_associative` first.
    """

    table: ConvolutionTable
    name: str = "semihypergroup"

    @property
    def space(self) -> PointSpace:
        return self.table.space

    @property
    def n(self) -> int:
        return self.table.space.n

    def _fact(self, key: str, check: Callable[["Semihypergroup"], object]):
        facts = self.table.facts  # the check runs once per table: a miss stores it
        return facts[key] if key in facts else facts.setdefault(key, check(self))

    @property
    def probability_report(self) -> CheckReport:
        return self._fact("probability_report", check_probability)

    @property
    def associativity_report(self) -> CheckReport:
        return self._fact("associativity_report", check_associativity)

    @property
    def is_associative(self) -> bool:
        return self.associativity_report.passed

    @property
    def identity(self) -> Optional[int]:
        return self._fact("identity", find_identity)

    @property
    def generators(self) -> tuple[int, ...]:
        return self._fact("generators", lambda s: tuple(generating_points(s)))

    @property
    def kept_points(self) -> tuple[int, ...]:
        """The points whose rows the LPs, the dual system and the action
        axiom keep: `generators` on a probability table, else every point.
        Each kernel's set of measures is, under associativity and with total
        mass multiplicative, a subalgebra holding p_e, so it holds them all."""
        return self.generators if self.probability_report.passed else tuple(range(self.n))

    @property
    def is_commutative(self) -> bool:
        return self._fact("is_commutative", check_commutative)


def opposite(s: Semihypergroup) -> Semihypergroup:
    """The structure with p_x *op p_y = p_y * p_x on the same space.

    Right-handed questions about s are the left-handed ones about its
    opposite: R_t f on s is L_t f on opposite(s), so right invariant means
    of s are the left invariant means of opposite(s).
    """
    supports = tuple(zip(*s.table.supports))
    return Semihypergroup(ConvolutionTable(s.space, supports), f"{s.name}^op")


def require_associative(s: Semihypergroup) -> None:
    if not s.is_associative:
        w = s.associativity_report.witness or {}
        raise PreconditionError(
            f"{s.name}: operation requires an associative structure; "
            f"witness triple {w.get('triple')}"
        )


def convolve(mu: Measure, nu: Measure, s: Semihypergroup) -> Measure:
    """Bilinear extension of the point-mass table to arbitrary measures."""
    if mu.space != s.space or nu.space != s.space:
        raise DimensionMismatch("measures must be indexed by the structure's space")
    sup = s.table.supports
    out = _combine((sup[x][y], wx * wy) for x, wx in enumerate(mu.weights) if wx
                   for y, wy in enumerate(nu.weights) if wy)
    return Measure(s.space, tuple(out.get(z, Fraction(0)) for z in range(s.n)))


def convolve_sets(
    a: Iterable[PointRef], b: Iterable[PointRef], s: Semihypergroup
) -> frozenset[str]:
    """Union of the supports of p_x * p_y over x in a, y in b, as labels."""
    ai = [s.space.index(p) for p in a]
    bi = [s.space.index(p) for p in b]
    out: set[str] = set()
    for x in ai:
        for y in bi:
            for z, _ in s.table.supports[x][y]:
                out.add(s.space.label(z))
    return frozenset(out)


def check_probability(s: Semihypergroup) -> CheckReport:
    """Every table entry must be a probability measure (nonnegative, total 1),
    read off its `scaled` support in O(d): the weights times D must sum to D."""
    d, ints = s.table.scaled if s.table.point_table is None else (1, ())  # point masses pass
    for x, row in enumerate(ints):
        for y, sup in enumerate(row):
            if any(w < 0 for _, w in sup) or sum(w for _, w in sup) != d:
                m = s.table.entry(x, y)
                return CheckReport(
                    check="probability",
                    passed=False,
                    detail=(
                        f"entry ({s.space.label(x)}, {s.space.label(y)}) has "
                        f"total {format_rational(m.total())} or a negative weight"
                    ),
                    witness={
                        "pair": (s.space.label(x), s.space.label(y)),
                        "weights": m.weights,
                    },
                )
    return CheckReport(check="probability", passed=True)


def check_associativity(s: Semihypergroup) -> CheckReport:
    """Exact test of (p_x*p_y)*p_z = p_x*(p_y*p_z) over all point triples.

    By bilinearity a pass makes the whole measure algebra associative.  The
    middle nucleus N = {y : (x*y)*z = x*(y*z) for all x, z} of any bilinear
    table is a subalgebra ((x(ab))z = ((xa)b)z = (xa)(bz) = x(a(bz)) =
    x((ab)z) for a, b in N), so a pass scans only the triples (x, g, z) with
    g in `generating_points(s)` (Light's test).  A failure there, or a table
    whose every point is a generator, runs the exhaustive ordered scan for
    the first failing triple and its dense lhs and rhs.  A point-mass table
    runs both on its `point_table`, where (p_x*p_y)*p_z = p_{(xy)z}: Light's
    test compares, for the generators g only, each row x*g with row g mapped
    through row x (rows as tuples), all rows at once.  At n = 1 `itemgetter`
    returns an entry, not a row, so the comparison fails and the scan of the
    one triple decides.  Other tables compare D^2 times both sides, summed
    over the `scaled` supports as ints with exact zeros removed: signed
    weights cancel.
    """
    n, table, gens, p = s.n, s.table, s.generators, s.table.point_table

    def sides(x: int, y: int, z: int) -> tuple[dict[int, int], dict[int, int]]:
        ints = table.scaled[1]  # built on first use: point masses never need it
        return (_combine((ints[u][z], a) for u, a in ints[x][y]),
                _combine((ints[x][v], b) for v, b in ints[y][z]))

    if p is not None:
        passed = all(list(map(itemgetter(*p[g]), p)) == [p[row[g]] for row in p] for g in gens)
        differs = lambda x, y, z: p[p[x][y]][z] != p[x][p[y][z]]
    else:
        at_gens = (sides(x, g, z) for g in gens for x, z in product(range(n), repeat=2))
        passed = len(gens) < n and all(lhs == rhs for lhs, rhs in at_gens)
        differs = lambda x, y, z: ne(*sides(x, y, z))
    triple = None if passed else next((t for t in product(range(n), repeat=3) if differs(*t)), None)
    if triple is None:
        return CheckReport(check="associativity", passed=True)
    a, b, c = (s.space.label(i) for i in triple)
    dd = table.scaled[0] ** 2
    lhs, rhs = (tuple(Fraction(v.get(k, 0), dd) for k in range(n)) for v in sides(*triple))
    return CheckReport(
        check="associativity",
        passed=False,
        detail=f"(p_{a}*p_{b})*p_{c} differs from p_{a}*(p_{b}*p_{c})",
        witness={"triple": (a, b, c), "lhs": lhs, "rhs": rhs},
    )


def generating_points(s: Semihypergroup) -> list[int]:
    """Points whose masses generate R^n under the convolution product.

    Greedy: take the next point whose mass is not in the span, then close
    the span under products with the chosen points on both sides, until it
    is R^n.  The span starts at the identity, which lies in every middle
    nucleus and is never a generator.  On a point-mass table a span of
    point masses is a set of points of its `point_table`, reached in
    O(n*|G|) products; other tables feed int rows over `scaled` (scaling
    keeps every span) to `_row_reduce` one at a time.  insert(v) adds v to
    the span and returns the element spanning the new direction, or None
    when v was in the span already, so the basis that represents the span
    does not change the result; every spanning element meets every
    generator once on each side.
    """
    n, t = s.n, s.table.point_table
    if t is not None:
        reached: set[int] = set()

        def insert(k: int) -> Optional[int]:
            if k in reached:
                return None
            reached.add(k)
            return k

        unit, times = (lambda i: i), (lambda u, v: t[u][v])
    else:
        ints, kept = s.table.scaled[1], {}  # the reduced span: pivot column -> row

        def insert(v: dict[int, int]) -> Optional[dict[int, int]]:
            rank = len(kept)
            _row_reduce((v,), n, kept)
            return next(reversed(kept.values())) if len(kept) > rank else None

        def times(u: dict[int, int], v: dict[int, int]) -> dict[int, int]:
            return _combine((ints[x][y], a * b) for x, a in u.items() for y, b in v.items())

        unit = lambda i: {i: 1}
    points, gens = [], []
    spanned = [] if s.identity is None else [insert(unit(s.identity))]
    for i in range(n):
        if len(spanned) == n:
            break
        new = insert(unit(i))
        if new is None:
            continue
        points.append(i)
        gens.append(unit(i))
        # earlier elements have met the earlier generators: they meet g only
        todo = [(v, gens[-1:]) for v in spanned] + [(new, gens)]
        spanned.append(new)
        while todo and len(spanned) < n:
            v, hs = todo.pop()
            for w in (p for h in hs for p in (times(v, h), times(h, v))):
                r = insert(w)
                if r is not None:
                    spanned.append(r)
                    todo.append((r, gens))
    return points


def _combine(terms: Iterable[tuple[Support, Fraction]]) -> dict[int, Fraction]:
    """Sum of coef * support over (support, coef) terms, exact zeros removed:
    a key whose entry was 0 when last written is deleted at the end, so the
    dict is not rebuilt and every other key keeps the place of its first term."""
    out: dict[int, Fraction] = {}
    zeros: list[int] = []
    for support, coef in terms:
        one = coef == 1  # then the same sum, without a multiplication per entry
        for k, w in support:
            if not one:
                w = coef * w
            w = out[k] + w if k in out else w
            if not w:
                zeros.append(k)
            out[k] = w
    for k in set(zeros):
        if not out[k]:
            del out[k]
    return out


def _primitive(v: dict[int, int], c: int) -> dict[int, int]:
    """v over the gcd of its entries, signed so that v[c] > 0; v if v[c] is 1."""
    g = 1 if v[c] == 1 else gcd(*v.values()) * (1 if v[c] > 0 else -1)
    return v if g == 1 else {j: a // g for j, a in v.items()}


def _row_reduce(
    rows: Iterable[dict[int, int]], n: int, kept: Optional[dict] = None
) -> tuple[dict[int, dict[int, int]], Optional[dict[int, Fraction]]]:
    """Incremental reduced echelon form of sparse integer rows {column: int}.

    The callers scale: the LP reads `LPProblem.integer_rows`, the generator
    search works over `ConvolutionTable.scaled`.  Columns below n are
    variables and pivot; every column from n on rides along, so a row
    [A | b | I] (b at column n, identity at n+1...) keeps its combination of
    input rows in the identity block.  A row is scaled in one pass by L, the
    lcm of the pivots it meets, less integer multiples of those kept rows.
    Kept rows are primitive, with a positive pivot and 0 at the other pivot
    columns, so kept row / pivot is the unique rational reduced echelon form,
    with or without the block.  Returns the kept rows by pivot column, in the
    order kept, and None; or, when a row reduces to 0 = r != 0, the rows kept
    so far and that row as `Fraction`s, divided by its last entry and signed
    so that r > 0.  With the block, that entry is the row's own identity
    entry (kept rows combine only earlier rows), and its block is a
    certificate.  A given `kept`, the reduction of earlier rows, is extended
    in place, so rows may be fed in one at a time.  No input row is
    modified, though one may be kept as it is.
    """
    kept = {} if kept is None else kept
    for v in rows:
        met = [(kept[c], c, a) for c, a in v.items() if c in kept]
        if met:
            scale = lcm(*(u[c] for u, c, _ in met))
            v = _combine([(v.items(), scale),
                          *((u.items(), -a * (scale // u[c])) for u, c, a in met)])
        pc = min((j for j in v if j < n), default=None)
        if pc is None:
            if v.get(n):
                last = abs(v[max(v)])
                return kept, {j: Fraction(a, last if v[n] > 0 else -last) for j, a in v.items()}
            continue  # redundant row
        v = _primitive(v, pc)
        for c, row in kept.items():
            if pc in row:
                kept[c] = _primitive(_combine(((row.items(), v[pc]), (v.items(), -row[pc]))), c)
        kept[pc] = v
    return kept, None


def find_identity(s: Semihypergroup) -> Optional[int]:
    """Index of the two-sided identity, or None.  It is unique even without
    associativity (p_e = p_e * p_e' = p_e'), so the scan stops at the first."""
    sup = s.table.supports
    return next((e for e in range(s.n)
                 if all(sup[x][e] == sup[e][x] == ((x, 1),) for x in range(s.n))), None)


def check_commutative(s: Semihypergroup) -> bool:
    sup = s.table.supports
    return all(sup[x][y] == sup[y][x] for x in range(s.n) for y in range(x + 1, s.n))
