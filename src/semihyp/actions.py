"""Affine representations on compact convex carriers and their fixed points.

An action assigns to every point s of an associative structure an affine map
T_s of a convex carrier (a standard simplex or the hull of finitely many
rational points) such that composing two maps equals averaging the family
against the convolution of the two point masses.  The module verifies the
action axiom and carrier invariance exactly, measures equicontinuity and
non-expansiveness through operator seminorms, solves for common fixed points
by exact LP (`fixed_point_problem`, which poses the mean LP of `amenability`
too), and builds the two canonical actions whose fixed points are precisely
the left invariant means: the translation-dual action on means and the
affine action on the subspace of functionals annihilating constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .algebra import (
    CheckReport,
    Mean,
    PointRef,
    PreconditionError,
    RationalLike,
    Semihypergroup,
    Support,
    _combine,
    as_fraction,
    check_supports,
    format_rational,
    require_associative,
    translation_transpose,
)
from .functions import PointFunction
from .linprog import (LPProblem, LPSolution, pad_certificate, solve_linear_system,
                      solve_lp_feasibility)

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


class CarrierError(ValueError):
    """A point that should lie in the carrier does not."""


class SeminormError(ValueError):
    """Unsupported seminorm kind or invalid weights."""


# ---------------------------------------------------------------------------
# convex carriers


@dataclass(frozen=True)
class Simplex:
    """Standard probability simplex in R^dim (vertices = coordinate vectors)."""

    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("simplex dimension must be at least 1")


@dataclass(frozen=True)
class Hull:
    """Convex hull of finitely many rational points, V-representation."""

    points: tuple[Vector, ...]

    def __post_init__(self) -> None:
        pts = tuple(tuple(as_fraction(v) for v in p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("hull needs at least one point")
        d = len(pts[0])
        if any(len(p) != d for p in pts):
            raise ValueError("hull points must share one dimension")
        if len(set(pts)) != len(pts):
            raise ValueError("hull points must be pairwise distinct")


Carrier = Union[Simplex, Hull]


def carrier_dim(carrier: Carrier) -> int:
    return carrier.dim if isinstance(carrier, Simplex) else len(carrier.points[0])


def carrier_vertices(carrier: Carrier) -> tuple[Vector, ...]:
    if isinstance(carrier, Simplex):
        d = carrier.dim
        return tuple(
            tuple(Fraction(1 if j == i else 0) for j in range(d)) for i in range(d)
        )
    return carrier.points


def carrier_columns(carrier: Carrier) -> tuple[Support, ...]:
    """Row j of the vertex matrix V, whose columns are the carrier's vertices,
    as the `Support` of its nonzero (k, v_k[j]): ((j, 1),) on a simplex."""
    if isinstance(carrier, Simplex):
        one = Fraction(1)
        return tuple(((j, one),) for j in range(carrier.dim))
    return tuple(tuple((k, v[j]) for k, v in enumerate(carrier.points) if v[j])
                 for j in range(carrier_dim(carrier)))


def carrier_contains(carrier: Carrier, x: Sequence[Fraction]) -> bool:
    """Exact membership; hull membership solves for barycentric weights."""
    vec = tuple(as_fraction(v) for v in x)
    if len(vec) != carrier_dim(carrier):
        return False
    if isinstance(carrier, Simplex):
        return all(v >= 0 for v in vec) and sum(vec, Fraction(0)) == 1
    k = len(carrier.points)  # V lam = x, sum(lam) = 1
    rows = (*carrier_columns(carrier), tuple((v, Fraction(1)) for v in range(k)))
    return solve_lp_feasibility(LPProblem(rows, (*vec, Fraction(1)), (True,) * k)).feasible


def carrier_centroid(carrier: Carrier) -> Vector:
    vertices = carrier_vertices(carrier)
    return tuple(sum(coords, Fraction(0)) / len(vertices) for coords in zip(*vertices))


# ---------------------------------------------------------------------------
# affine maps and actions


@dataclass(frozen=True)
class AffineMap:
    """x -> A x + offset, exact: row i of A is the `Support` of its nonzero
    (j, A_ij) (see `algebra.check_supports`), one row per offset entry.
    `from_dense` and `matrix` are the dense boundary."""

    rows: tuple[Support, ...]
    offset: Vector

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))
        object.__setattr__(self, "offset", tuple(as_fraction(v) for v in self.offset))
        if len(self.rows) != len(self.offset):
            raise ValueError("affine map needs one row per offset entry")
        check_supports(self.rows, len(self.offset))

    @classmethod
    def from_dense(cls, matrix: Sequence[Sequence[RationalLike]],
                   offset: Sequence[RationalLike]) -> "AffineMap":
        """x -> matrix @ x + offset; a matrix that is not d-square is a ValueError."""
        if any(len(row) != len(offset) for row in matrix):
            raise ValueError("affine map must be square and match its offset")
        return cls(tuple(tuple((j, a) for j, a in enumerate(map(as_fraction, row)) if a)
                         for row in matrix), offset)

    @property
    def dim(self) -> int:
        return len(self.offset)

    @cached_property
    def matrix(self) -> Matrix:
        """The dense d x d view of A."""
        zero = Fraction(0)
        return tuple(tuple(r.get(j, zero) for j in range(self.dim)) for r in map(dict, self.rows))

    @cached_property
    def augmented_rows(self) -> tuple[Support, ...]:
        """Sparse rows of the (d+1)-square matrix [[A, b], [0, 1]]: the offset
        is column d, and the last row is the identity row ((d, 1),)."""
        d = self.dim
        rows = zip(self.rows, self.offset)
        return tuple(row + ((d, b),) if b else row for row, b in rows) + (
            ((d, Fraction(1)),),
        )

    @cached_property
    def _float_rows(self) -> tuple[tuple[tuple[tuple[int, float], ...], float], ...]:
        return tuple(
            (tuple((j, float(a)) for j, a in row), float(b))
            for row, b in zip(self.rows, self.offset)
        )

    def apply(self, x: Sequence[Fraction]) -> Vector:
        if len(x) != self.dim:
            raise ValueError("point dimension does not match the map")
        vec = tuple(as_fraction(v) for v in x)
        return tuple(
            sum((a * vec[j] for j, a in row), b)
            for row, b in zip(self.rows, self.offset)
        )

    def apply_float(self, x: Sequence[float]) -> tuple[float, ...]:
        """Float image over the nonzero entries, converted once per map.

        Skipping zero coefficients leaves each result bit-identical to the
        dense sum for finite x: the running sum starts at int 0, so it never
        becomes -0.0, and adding +-0.0 to it changes nothing.
        """
        return tuple(sum(a * x[j] for j, a in row) + b for row, b in self._float_rows)


@dataclass(frozen=True)
class AffineFunctional:
    """x -> coeffs . x + constant, an affine scalar function on the carrier."""

    coeffs: Vector
    constant: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(as_fraction(v) for v in self.coeffs))
        object.__setattr__(self, "constant", as_fraction(self.constant))

    def apply(self, x: Sequence[Fraction]) -> Fraction:
        if len(x) != len(self.coeffs):
            raise ValueError("point dimension does not match the functional")
        return sum((c * as_fraction(v) for c, v in zip(self.coeffs, x)), self.constant)


def identity_map(dim: int) -> AffineMap:
    return AffineMap(tuple(((i, Fraction(1)),) for i in range(dim)), (Fraction(0),) * dim)


@dataclass(frozen=True)
class AffineAction:
    """One affine self-map of the carrier per point of the structure."""

    structure: Semihypergroup
    carrier: Carrier
    maps: tuple[AffineMap, ...]
    _norms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.maps) != self.structure.n:
            raise ValueError("need exactly one affine map per point")
        d = carrier_dim(self.carrier)
        if any(m.dim != d for m in self.maps):
            raise ValueError("map dimension does not match the carrier")

    @cached_property
    def axiom_report(self) -> CheckReport:
        return check_action_axiom(self)

    @cached_property
    def invariance_report(self) -> CheckReport:
        return check_invariance(self)

    def operator_norms(self, p: Seminorm) -> tuple[Optional[Fraction], ...]:
        """`operator_seminorm` of every map under p, computed once per action."""
        if p not in self._norms:
            self._norms[p] = tuple(operator_seminorm(m.rows, p) for m in self.maps)
        return self._norms[p]


def _product_rows(
    rows: Sequence[Sequence[Support]], s: int, t: int, weights: Support
) -> Iterator[tuple[dict[int, Fraction], dict[int, Fraction]]]:
    """Row i of A_s A_t and of sum_z w_z A_z for every row i but the last,
    where rows[s] holds the augmented rows of T_s and weights the nonzero
    (z, w_z).  Each is a sum over nonzero entries, with exact zeros removed.

    Column d of row i is then (A_s b_t + b_s)_i against sum_z w_z (b_z)_i,
    so the rows agree exactly when both the matrix and the offset identity
    hold.  The identity row is only a lookup target: it is not compared,
    because its sides, 1 and sum_z w_z, differ when the weights do not sum
    to 1.
    """
    return (
        (_combine((rows[t][k], a) for k, a in rows[s][i]),
         _combine((rows[z][i], w) for z, w in weights))
        for i in range(len(rows[s]) - 1)
    )


def _failing_pair(
    shg: Semihypergroup, rows: Sequence[Sequence[Support]], unital: bool
) -> Optional[tuple[int, int]]:
    """The first pair (s, t) in order where `_product_rows` differ, or None.
    The nu with T~_mu T~_nu = T~_{mu*nu} for all mu form a subalgebra (see
    `kept_points`) holding p_e if `unital` (T_e = I): a pass then compares
    only the pairs (s, g), g kept."""
    n, kept, sup = shg.n, shg.kept_points, shg.table.supports

    def fails(s: int, t: int) -> bool:
        return any(lhs != rhs for lhs, rhs in _product_rows(rows, s, t, sup[s][t]))

    if unital and len(kept) < n and not any(fails(s, g) for g in kept for s in range(n)):
        return None
    return next((p for p in product(range(n), repeat=2) if fails(*p)), None)


def check_action_axiom(action: AffineAction) -> CheckReport:
    """Composition of coefficient maps must equal the convolution average.

    For affine maps two exact identities per pair (s, t) are sufficient for
    the pointwise axiom: on the matrices, A_s A_t = sum_z (p_s*p_t)(z) A_z,
    and on the offsets, A_s b_t + b_s = sum_z (p_s*p_t)(z) b_z.  They are
    equivalent to it only when the carrier spans R^d affinely, as a
    full-dimensional hull does; a simplex does not.  Both are checked at
    once on the augmented rows (see `_product_rows`); a failing pair reports
    part "offset" when the matrix columns agree, else "matrix".  When the
    structure has an identity e, T_e must additionally be the identity map.
    Both sides run over nonzero entries and nonzero convolution weights
    only, so a pair costs work in proportion to the supports, not d^3 n.
    A pass with T_e = I scans only the pairs (s, g) of `_failing_pair`.
    """
    shg = action.structure
    require_associative(shg)
    rows = [m.augmented_rows for m in action.maps]
    d = carrier_dim(action.carrier)
    e = shg.identity
    unital = e is None or action.maps[e] == identity_map(d)
    if (pair := _failing_pair(shg, rows, unital)) is not None:
        s, t = pair
        # column d holds the offsets
        part = "matrix" if any(
            {**lhs, d: 0} != {**rhs, d: 0}
            for lhs, rhs in _product_rows(rows, s, t, shg.table.supports[s][t])
        ) else "offset"
        return CheckReport(
            check="action-axiom",
            passed=False,
            detail=f"{part} identity fails at pair "
            f"({shg.space.label(s)}, {shg.space.label(t)})",
            witness={"pair": (shg.space.label(s), shg.space.label(t)),
                     "part": part},
        )
    if not unital:
        return CheckReport(
            check="action-axiom",
            passed=False,
            detail=f"identity point {shg.space.label(e)} must act as the "
            "identity map",
            witness={"pair": (shg.space.label(e),), "part": "identity"},
        )
    return CheckReport(check="action-axiom", passed=True)


def _first_escaping_vertex(m: AffineMap) -> Optional[int]:
    """The first j such that m sends the simplex vertex e_j off the simplex.
    The image is column j of A plus b: it needs A_ij + b_i >= 0 for every i
    (b_i alone where A_ij = 0) and entries summing to 1."""
    d = m.dim
    sums, bad = [sum(m.offset, Fraction(0))] * d, set()
    for row, b in zip(m.rows, m.offset):
        if b < 0:
            bad.update(set(range(d)).difference(j for j, _ in row))
        bad.update(j for j, a in row if a + b < 0)
        for j, a in row:
            sums[j] += a
    return min(bad.union(j for j in range(d) if sums[j] != 1), default=None)


def check_invariance(action: AffineAction) -> CheckReport:
    """Each map must send the carrier into itself.

    Affine maps preserve convex combinations, so checking the images of the
    vertices (hull generators) is sufficient.  On a simplex they are the
    columns of each map (see `_first_escaping_vertex`).
    """
    for s, m in enumerate(action.maps):
        if isinstance(action.carrier, Simplex):
            j = _first_escaping_vertex(m)
        else:
            j = next((j for j, v in enumerate(action.carrier.points)
                      if not carrier_contains(action.carrier, m.apply(v))), None)
        if j is not None:
            v = carrier_vertices(action.carrier)[j]
            return CheckReport(
                check="invariance",
                passed=False,
                detail=f"map at {action.structure.space.label(s)} sends a "
                "vertex outside the carrier",
                witness={
                    "point": action.structure.space.label(s),
                    "vertex": v,
                    "image": m.apply(v),
                },
            )
    return CheckReport(check="invariance", passed=True)


# ---------------------------------------------------------------------------
# seminorms


@dataclass(frozen=True)
class Seminorm:
    """Weighted l1 or weighted l-infinity seminorm with nonnegative weights."""

    kind: str
    weights: Vector

    def __post_init__(self) -> None:
        if self.kind not in ("l1", "linf"):
            raise SeminormError(f"unsupported seminorm kind: {self.kind!r}")
        w = tuple(as_fraction(v) for v in self.weights)
        object.__setattr__(self, "weights", w)
        if any(v < 0 for v in w):
            raise SeminormError("seminorm weights must be nonnegative")

    def value(self, x: Sequence[Fraction]) -> Fraction:
        if len(x) != len(self.weights):
            raise SeminormError("point dimension does not match the seminorm")
        terms = [w * abs(as_fraction(v)) for w, v in zip(self.weights, x)]
        return sum(terms, Fraction(0)) if self.kind == "l1" else max(terms, default=Fraction(0))


def uniform_seminorms(dim: int) -> tuple[Seminorm, ...]:
    ones = (Fraction(1),) * dim
    return (Seminorm("l1", ones), Seminorm("linf", ones))


def operator_seminorm(rows: Sequence[Support], seminorm: Seminorm) -> Optional[Fraction]:
    """Exact operator seminorm of the matrix with these sparse rows (as in
    `AffineMap.rows`) on the ambient space, summed over nonzero entries.

    Weighted l1 is the largest weighted absolute column sum over its weight;
    weighted l-infinity is the largest weighted absolute row sum.  Returns
    None when a zero-weight direction makes the quantity unbounded.  The
    value bounds the map on differences of carrier points, and for the
    stochastic-transpose actions built here it is attained there.
    """
    d, w = len(rows), seminorm.weights
    if len(w) != d:
        raise SeminormError("seminorm dimension does not match the matrix")
    unit = [wi == 1 for wi in w]  # no division or product by these weights
    if seminorm.kind == "l1":
        colsums = _combine((tuple((j, abs(a)) for j, a in row), wi)
                           for row, wi in zip(rows, w) if wi)
        if any(w[j] == 0 for j in colsums):
            return None
        return max((c if unit[j] else c / w[j] for j, c in colsums.items()),
                   default=Fraction(0))
    if any(not unit[j] and w[j] == 0 for row, wi in zip(rows, w) if wi for j, _ in row):
        return None
    totals = [(sum((abs(a) if unit[j] else abs(a) / w[j] for j, a in row), Fraction(0)), wi, u)
              for row, wi, u in zip(rows, w, unit) if wi]
    return max((t if u else wi * t for t, wi, u in totals), default=Fraction(0))


def equicontinuity_bound(
    action: AffineAction, seminorms: Sequence[Seminorm]
) -> Optional[Fraction]:
    """Largest operator seminorm over all maps and seminorms.

    A finite bound certifies equicontinuity of the family: shrinking a
    neighborhood by the bound gives one modulus valid for every map at once.
    None flags an unbounded direction under a zero-weight seminorm.
    """
    norms = [v for p in seminorms for v in action.operator_norms(p)]
    return None if None in norms else max(norms, default=Fraction(0))


def check_nonexpansive(
    action: AffineAction, seminorms: Sequence[Seminorm]
) -> CheckReport:
    """Every map must have operator seminorm at most 1 for every seminorm."""
    norms = [action.operator_norms(p) for p in seminorms]
    for s in range(action.structure.n):
        for k, p in enumerate(seminorms):
            norm = norms[k][s]
            if norm is None or norm > 1:
                return CheckReport(
                    check="nonexpansive",
                    passed=False,
                    detail=(
                        f"map at {action.structure.space.label(s)} has "
                        f"{p.kind} operator seminorm "
                        f"{'unbounded' if norm is None else format_rational(norm)}"
                    ),
                    witness={
                        "point": action.structure.space.label(s),
                        "seminorm": {"index": k, "kind": p.kind},
                        "norm": norm,
                    },
                )
    return CheckReport(check="nonexpansive", passed=True)


# ---------------------------------------------------------------------------
# common fixed points


def _require_verified(action: AffineAction) -> None:
    """A non-associative structure fails `axiom_report`'s own precondition."""
    if not action.axiom_report.passed:
        raise PreconditionError(f"not an action: {action.axiom_report.detail}")
    if not action.invariance_report.passed:
        raise PreconditionError(f"carrier is not invariant: {action.invariance_report.detail}")


def fixed_point_problem(
    carrier: Carrier, maps: Iterable[tuple[Sequence, Sequence[Fraction]]]
) -> LPProblem:
    """Feasibility problem for {x in C : A x + b = x for every (A, b) in maps},
    unchecked; row i of A is the `Support`, or on a simplex also the dict, of
    its nonzero A_ij.  The variables are weights lam >= 0 over the columns of
    the vertex matrix V (`carrier_columns`), so x = V lam, and the rows are
    (A - I) V lam = -b for each map in turn, then sum(lam) = 1."""
    simplex = isinstance(carrier, Simplex)
    cols = () if simplex else carrier_columns(carrier)
    zero, one = Fraction(0), Fraction(1)
    rows: list[Support] = []
    rhs: list[Fraction] = []
    for a, offset in maps:
        for i, row in enumerate(a):
            if simplex:  # V = I: row i of A, less 1 at column i
                r = dict(row)
                r[i] = r.get(i, zero) - one
            else:  # row i of A V, less row i of V
                r = _combine([*((cols[j], a_ij) for j, a_ij in row), (cols[i], -1)])
            rows.append(tuple((j, w) for j, w in r.items() if w))
        rhs.extend(-b if b else zero for b in offset)  # no Fraction negation of 0
    k = carrier.dim if simplex else len(carrier.points)
    return LPProblem((*rows, tuple((v, one) for v in range(k))), (*rhs, one), (True,) * k)


def common_fixed_point_problem(action: AffineAction) -> LPProblem:
    """Feasibility problem for {x in C : T_s x = x for all s}: the
    `fixed_point_problem` of the verified maps at `kept_points`, where
    T~_mu x~ = (sum mu) x~ holds on a subalgebra."""
    _require_verified(action)
    maps = (action.maps[s] for s in action.structure.kept_points)
    return fixed_point_problem(action.carrier, ((m.rows, m.offset) for m in maps))


def common_fixed_point_solution(
    action: AffineAction,
) -> tuple[LPSolution, Optional[Vector]]:
    """LP outcome plus the carrier point V lam when feasible, checked against
    every map; the certificate covers every point (`pad_certificate`)."""
    problem = common_fixed_point_problem(action)
    shg, d = action.structure, carrier_dim(action.carrier)
    solution = pad_certificate(solve_lp_feasibility(problem), shg.kept_points, d, shg.n)
    if not solution.feasible:
        return solution, None
    point = tuple(sum((solution.witness[k] * v for k, v in col), Fraction(0))
                  for col in carrier_columns(action.carrier))
    if any(m.apply(point) != point for m in action.maps):
        raise AssertionError("LP point is not fixed by every map")
    return solution, point


def find_common_fixed_point(action: AffineAction) -> Optional[Vector]:
    """A common fixed point in the carrier, or None with exact infeasibility.

    Positive-dimensional fixed sets yield the deterministic Bland-rule
    simplex vertex.
    """
    _, point = common_fixed_point_solution(action)
    return point


def canonical_means_action(shg: Semihypergroup) -> AffineAction:
    """Translation-dual action on the simplex of means.

    T_s is the transpose of the left-translation matrix of s acting on the
    standard simplex; its common fixed points are exactly the left invariant
    means.  The action axiom follows from associativity and the invariance of
    the simplex from the probability rows, so only those two are checked.
    """
    require_associative(shg)
    if not shg.probability_report.passed:
        raise PreconditionError(
            f"{shg.name}: operation requires probability rows; "
            f"{shg.probability_report.detail}"
        )
    return _translation_action(shg)


def _translation_action(shg: Semihypergroup) -> AffineAction:
    """The linear maps u -> M_s^T u on Simplex(n), where M_s[y][z] =
    (p_s*p_y)(z) is the left-translation matrix of s, by the rows of
    `translation_transpose`; unchecked, so the simplex need not be invariant."""
    zero = (Fraction(0),) * shg.n
    transposes = (translation_transpose(shg.table, s) for s in range(shg.n))
    return AffineAction(shg, Simplex(shg.n), tuple(
        AffineMap(tuple(tuple(r.items()) for r in t), zero) for t in transposes))


def induced_function(
    action: AffineAction, y: Sequence[Fraction], f: AffineFunctional
) -> PointFunction:
    """The function s -> f(T_s(y)) on the structure's points.

    On a finite space the result is automatically almost periodic.
    """
    point = tuple(as_fraction(v) for v in y)
    if not carrier_contains(action.carrier, point):
        raise CarrierError("base point is not in the carrier")
    return PointFunction(
        action.structure.space,
        tuple(f.apply(m.apply(point)) for m in action.maps),
    )


# ---------------------------------------------------------------------------
# the dual-space action on functionals annihilating constants


@dataclass(frozen=True)
class DualAction:
    """Affine action u -> M_s^T (u + v0) - v0 on the trace-zero dual subspace.

    v0 is evaluation at a designated base point, so v0(1) = 1, and every map
    preserves the subspace {u : sum(u) = 0} because each M_s is
    row-stochastic.  Fixed points w recover left invariant means as w + v0.
    """

    structure: Semihypergroup
    base_point: int

    def __post_init__(self) -> None:
        require_associative(self.structure)
        if not 0 <= self.base_point < self.structure.n:
            raise ValueError("base point index out of range")

    @property
    def v0(self) -> Vector:
        return tuple(Fraction(i == self.base_point) for i in range(self.structure.n))

    @cached_property
    def translation(self) -> AffineAction:
        """The maps u -> M_s^T u that `map` conjugates by v0."""
        return _translation_action(self.structure)

    def map(self, s: PointRef, u: Sequence[Fraction]) -> Vector:
        vec = tuple(as_fraction(v) for v in u)
        if len(vec) != self.structure.n:
            raise ValueError("functional has the wrong dimension")
        if sum(vec, Fraction(0)) != 0:
            raise ValueError("functional must annihilate constants (sum to 0)")
        si = self.structure.space.index(s)
        v0 = self.v0
        shifted = tuple(a + b for a, b in zip(vec, v0))
        image = self.translation.maps[si].apply(shifted)
        return tuple(a - b for a, b in zip(image, v0))

    @cached_property
    def action_report(self) -> CheckReport:
        """Verify T_s(T_t u) = sum_z (p_s*p_t)(z) T_z(u) on the subspace.

        Both sides are affine in u.  Writing D for the difference of their
        linear parts, agreement on the trace-zero subspace means D has equal
        columns, and agreement of the offsets means D annihilates v0.  Equal
        columns make each row of D constant and the v0 column makes that
        constant 0, so together they are the exact matrix identity
        M_s^T M_t^T = sum_z (p_s*p_t)(z) M_z^T: the action axiom of
        `translation`, whose report this relabels.
        """
        return replace(self.translation.axiom_report, check="dual-action-axiom")

    def orbit_bound(self, u0: Sequence[Fraction]) -> tuple[Fraction, Fraction]:
        """(max_s ||T_s u0||_1, c ||u0 + v0||_1 + ||v0||_1), where c is the
        largest l1 operator seminorm of any M_s^T (1 on probability rows), so
        the first never exceeds the second."""
        vec, v0 = tuple(as_fraction(v) for v in u0), self.v0
        c = equicontinuity_bound(self.translation, uniform_seminorms(len(v0))[:1])
        sup = max(sum((abs(v) for v in self.map(s, vec)), Fraction(0))
                  for s in range(self.structure.n))
        return sup, c * sum((abs(a + b) for a, b in zip(vec, v0)), Fraction(0)) + sum(map(abs, v0))


def dual_action(shg: Semihypergroup, base_point: PointRef = 0) -> DualAction:
    """Dual-space action for a designated base point; its axiom follows from
    the associativity that DualAction requires."""
    return DualAction(structure=shg, base_point=shg.space.index(base_point))


def mean_via_dual_action(
    shg: Semihypergroup, base_point: PointRef = 0
) -> Optional[Mean]:
    """Left invariant mean recovered from the dual-space fixed-point route.

    Solves the exact linear system {T_s w = w for s in `kept_points`} on
    trace-zero coordinates by elimination (n - 1 unknowns, none when n = 1),
    translates the solution set by v0, and intersects it with the probability
    simplex by LP.  The route shares only the generic LP kernel with the
    direct mean search, so the two act as independent oracles for each other.
    """
    action = dual_action(shg, base_point)
    n, b = shg.n, action.base_point
    # w = sum_k c_k (e_k - e_{n-1}) on the trace-zero subspace; with the
    # linear part L = M_s^T, L[i][k] = (p_s*p_k)(i), and N = L - I, row
    # (s, i) of (T_s - I) w = 0 reads sum_k c_k (N[i][k] - N[i][n-1])
    # = -N[i][b] for the kept s; built here, not by `fixed_point_problem`
    zero = Fraction(0)
    ones = tuple((k, Fraction(1)) for k in range(n - 1))
    rows: list[Support] = []
    rhs: list[Fraction] = []
    for s in shg.kept_points:
        for i, ni in enumerate(translation_transpose(shg.table, s)):
            ni[i] = ni.get(i, zero) - 1
            rhs.append(-ni.get(b, zero))
            t = ni.pop(n - 1, zero)  # subtracted at every k
            rows.append(tuple(_combine(((ni.items(), 1), (ones if t else (), -t))).items()))
    solved = solve_linear_system(rows, rhs, n - 1)
    if solved is None:
        return None
    alpha, null_basis = solved
    # a vector c of trace-zero coordinates is the functional (*c, -sum(c))
    base_mean = tuple(a + v for a, v in zip((*alpha, -sum(alpha, zero)), action.v0))
    if not null_basis:
        return Mean(shg.space, base_mean) if all(v >= 0 for v in base_mean) else None

    # base + sum_l beta_l d_l - m = 0 with beta free and slack m >= 0: the
    # verified witness's slack is a mean on the fixed-point set
    k = len(null_basis)
    directions = [(*c, -sum(c, zero)) for c in null_basis]
    rows = [(*((l, d[i]) for l, d in enumerate(directions) if d[i]), (k + i, Fraction(-1)))
            for i in range(n)]
    solution = solve_lp_feasibility(LPProblem(
        rows, tuple(-v for v in base_mean), (False,) * k + (True,) * n))
    return Mean(shg.space, solution.witness[k:]) if solution.feasible else None


# ---------------------------------------------------------------------------
# heuristic fixed-point iteration (floating point)


PointMap = Union[AffineMap, Callable[[tuple[float, ...]], Sequence[float]]]
_SPOT_SLACK = 1e-9  # float tolerance of `_spot_check_maps`, per unit of coordinate size


@dataclass(frozen=True)
class IterationResult:
    """Outcome of the averaged iteration; `residual` is the worst l-infinity
    displacement of the final point under any single map."""

    converged: bool
    point: tuple[float, ...]
    residual: float
    iterations: int


def iterate_fixed_point(
    maps: Sequence[PointMap],
    carrier: Carrier,
    weights: Optional[Mean] = None,
    tol: float = 1e-9,
    max_iter: int = 10000,
) -> IterationResult:
    """Averaged floating-point iteration x <- x/2 + (sum_s w_s T_s x)/2.

    Heuristic companion to the exact solver: there is no convergence
    guarantee for general non-expansive families, and a divergence report
    (converged=False with the final residual) is not a proof that the family
    has no common fixed point.  Maps are spot-checked numerically on the
    carrier vertices rather than verified, and a map of the wrong dimension
    is a ValueError.  One step costs one evaluation of each map, over the
    nonzero entries of its matrix (converted to floats once per map); those
    images give both the residual at x and the next average.  The summation
    order is fixed, so results are bit-reproducible.

    When every map is an `AffineMap`, a step is a pure function of x, so a
    float state that repeats bit for bit (Brent's cycle detection) ends the
    work exactly: whole periods, whose residuals all exceed tol, are skipped
    and `iterations` still counts logical steps.  Callables may be stateful
    and are evaluated once per step.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive")
    if max_iter < 1:
        raise ValueError("need at least one iteration")
    if not maps:
        raise ValueError("need at least one map")
    d = carrier_dim(carrier)
    applied: list[Callable[[tuple[float, ...]], tuple[float, ...]]] = []
    pure = all(isinstance(m, AffineMap) for m in maps)
    for m in maps:
        if isinstance(m, AffineMap):
            if m.dim != d:
                raise ValueError("map dimension does not match the carrier")
            applied.append(m.apply_float)
        else:
            fn = m
            applied.append(lambda x, fn=fn: tuple(float(v) for v in fn(x)))
    if weights is None:
        w = [1.0 / len(applied)] * len(applied)
    else:
        if len(weights.weights) != len(applied):
            raise ValueError("weights must match the number of maps")
        w = [float(v) for v in weights.weights]

    _spot_check_maps(applied, carrier)

    x = tuple(float(v) for v in carrier_centroid(carrier))
    images = [fn(x) for fn in applied]
    residual = _residual(images, x)
    iterations = mark_at = 0
    mark = x
    while residual > tol and iterations < max_iter:
        averaged = [0.0] * d
        for wi, img in zip(w, images):
            averaged = [a + wi * v for a, v in zip(averaged, img)]
        x = tuple(0.5 * a + 0.5 * b for a, b in zip(x, averaged))
        iterations += 1
        # repr tells -0.0 from 0.0, so only a bit-identical state counts
        if pure and x == mark and repr(x) == repr(mark):
            period = iterations - mark_at
            iterations += int(max_iter - iterations) // period * period
        elif not iterations & (iterations - 1):
            mark, mark_at = x, iterations
        images = [fn(x) for fn in applied]
        residual = _residual(images, x)
    return IterationResult(
        converged=residual <= tol, point=x, residual=residual, iterations=iterations
    )


def _residual(images: Sequence[tuple[float, ...]], x: tuple[float, ...]) -> float:
    """Worst l-infinity distance from x to its images T_s x."""
    worst = 0.0
    for img in images:
        worst = max(worst, max((abs(a - b) for a, b in zip(img, x)), default=0.0))
    return worst


def _spot_check_maps(
    applied: Sequence[Callable[[tuple[float, ...]], tuple[float, ...]]], carrier: Carrier
) -> None:
    vertices = [tuple(float(v) for v in p) for p in carrier_vertices(carrier)]
    d = len(vertices[0])
    # an image's float error grows with the coordinates it is computed from
    slack = _SPOT_SLACK * max(1.0, *(abs(v) for p in vertices for v in p))
    lo = [min(p[i] for p in vertices) - slack for i in range(d)]
    hi = [max(p[i] for p in vertices) + slack for i in range(d)]
    for fn in applied:
        for p in vertices:
            img = fn(p)
            if len(img) != d:
                raise ValueError("a map's image does not match the carrier dimension")
            if isinstance(carrier, Simplex):
                if min(img) < -slack or abs(sum(img) - 1.0) > slack:
                    raise CarrierError("a map leaves the simplex (numeric spot check)")
            elif any(v < l or v > h for v, l, h in zip(img, lo, hi)):
                raise CarrierError(
                    "a map leaves the hull bounding box (numeric spot check)"
                )
