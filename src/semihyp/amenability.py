"""Invariant means on the (finite) almost periodic function space.

A mean is a probability vector acting on functions by weighted sum.  A left
invariant mean is one that every left translation fixes; on a finite space
its existence is an exact linear-programming feasibility question, which
gives a two-sided oracle: a witness mean when one exists, a Farkas
certificate when none does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .algebra import (
    CheckReport,
    DimensionMismatch,
    Measure,
    PointSpace,
    Semihypergroup,
    _combine,
    as_fraction,
    format_rational,
    require_associative,
    translation_transpose,
)
from .functions import PointFunction
from .linprog import LPProblem, LPSolution, pad_certificate, solve_lp_feasibility


@dataclass(frozen=True)
class Mean:
    """Probability vector acting on functions as m(f) = sum_y m(y) f(y)."""

    space: PointSpace
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(as_fraction(w) for w in self.weights))
        if len(self.weights) != self.space.n:
            raise ValueError("mean has the wrong number of weights")
        if any(w < 0 for w in self.weights):
            raise ValueError("mean weights must be nonnegative")
        if sum(self.weights, Fraction(0)) != 1:
            raise ValueError("mean weights must sum to 1")

    def __call__(self, f: PointFunction) -> Fraction:
        if f.space != self.space:
            raise DimensionMismatch("mean and function live on different point spaces")
        return sum((w * v for w, v in zip(self.weights, f.values)), Fraction(0))


def uniform_mean(space: PointSpace) -> Mean:
    return Mean(space, (Fraction(1, space.n),) * space.n)


def left_invariance_problem(shg: Semihypergroup) -> LPProblem:
    """LP whose feasible points are exactly the left invariant means.

    Variables are the mean weights m_y >= 0; rows say that for s in
    `shg.kept_points` the pushforward of m through M_s equals m, plus
    sum(m) = 1.  M_{mu*nu} = M_nu M_mu, so each dropped row is a combination
    of kept rows before it, and `_row_reduce` keeps the rows it would keep
    on all n^2+1.  Right invariant means are the feasible points of this
    problem on `algebra.opposite(shg)`.
    """
    require_associative(shg)
    # rows sum_y (p_s*p_y)(z) m_y - m_z = 0 for every kept s and every z
    n, zero, one = shg.n, Fraction(0), Fraction(1)
    rows = []
    for s in shg.kept_points:
        for z, row in enumerate(translation_transpose(shg.table, s)):
            row[z] = row.get(z, zero) - one
            rows.append(tuple((y, w) for y, w in row.items() if w))
    rhs = (zero,) * len(rows) + (one,)
    rows.append(tuple((y, one) for y in range(n)))
    return LPProblem(rows=tuple(rows), rhs=rhs, nonneg=(True,) * n)


def left_invariant_mean_solution(shg: Semihypergroup) -> LPSolution:
    """Raw LP outcome, exposing the witness or the infeasibility certificate,
    padded to the n^2+1 rows of every point (`pad_certificate`)."""
    solution = solve_lp_feasibility(left_invariance_problem(shg))
    return pad_certificate(solution, shg.kept_points, shg.n, shg.n)


def find_left_invariant_mean(shg: Semihypergroup) -> Optional[Mean]:
    """A left invariant mean, or None when provably none exists.

    When the solution set is a positive-dimensional polytope the returned
    mean is the deterministic vertex produced by the Bland-rule simplex run,
    which this toolkit documents as canonical.
    """
    solution = left_invariant_mean_solution(shg)
    if not solution.feasible:
        return None
    return Mean(shg.space, solution.witness)


def is_left_amenable(shg: Semihypergroup) -> bool:
    """Whether the function space admits a left invariant mean.

    On a finite space every function is almost periodic, so this single
    predicate covers left amenability of the whole almost periodic algebra.
    """
    return find_left_invariant_mean(shg) is not None


MeanLike = Union[Mean, Measure, Sequence[Fraction]]


def _mean_weights(m: MeanLike, space: PointSpace) -> tuple[Fraction, ...]:
    if isinstance(m, (Mean, Measure)):
        if m.space != space:
            raise ValueError("mean lives on a different point space")
        return m.weights
    weights = tuple(as_fraction(v) for v in m)
    if len(weights) != space.n:
        raise DimensionMismatch(
            f"candidate has {len(weights)} weights for a {space.n}-point space"
        )
    return weights


def verify_left_invariant_mean(m: MeanLike, shg: Semihypergroup) -> CheckReport:
    """Exact check of m(L_s f) = m(f) on every point s and indicator f.

    m(L_s 1_p) is the weight at p of the pushforward sum_y m_y (p_s * p_y),
    built once per s from the table supports in O(n * d) for support size d
    and compared with m at every p.  The s in `kept_points` decide a pass
    (the subalgebra argument given there); otherwise every s is scanned in
    order, and the first failing (s, p) is reported with m(L_s 1_p) and
    m(1_p) as lhs, rhs.  It reads the table directly, not the LP rows, so it
    validates any claimed mean independently.  Right invariance is this
    check on `algebra.opposite(shg)`.
    """
    weights = _mean_weights(m, shg.space)
    if any(w < 0 for w in weights) or sum(weights, Fraction(0)) != 1:
        return CheckReport(
            check="left-invariant-mean",
            passed=False,
            detail="candidate is not a mean (needs nonnegative weights summing to 1)",
            witness={"weights": weights},
        )
    require_associative(shg)

    def push(s: int) -> dict[int, Fraction]:
        return _combine((e, wy) for e, wy in zip(shg.table.supports[s], weights) if wy)

    kept, target = shg.kept_points, {p: w for p, w in enumerate(weights) if w}
    if len(kept) < shg.n and all(push(s) == target for s in kept):
        return CheckReport(check="left-invariant-mean", passed=True)
    for s in range(shg.n):
        pushed = push(s)
        for p, rhs in enumerate(weights):
            if (lhs := pushed.get(p, Fraction(0))) != rhs:
                point, ind = shg.space.label(s), shg.space.label(p)
                return CheckReport(
                    check="left-invariant-mean",
                    passed=False,
                    detail=f"m(L_{point} 1_{ind}) = {format_rational(lhs)} but "
                    f"m(1_{ind}) = {format_rational(rhs)}",
                    witness={"point": point, "indicator": ind, "lhs": lhs, "rhs": rhs},
                )
    return CheckReport(check="left-invariant-mean", passed=True)
