"""Invariant means on the (finite) almost periodic function space.

A mean is a probability vector acting on functions by weighted sum.  A left
invariant mean is one that every left translation fixes; on a finite space
its existence is an exact linear-programming feasibility question: the
fixed-point LP of the canonical action on the simplex of means, whose common
fixed points are exactly those means, posed here in integers from the table
rather than by `actions.fixed_point_problem`.  It gives a two-sided oracle:
a witness mean when one exists, a Farkas certificate when none does.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Sequence, Union

from .algebra import (
    CheckReport,
    Mean,
    Measure,
    PointSpace,
    Semihypergroup,
    _combine,
    format_rational,
    require_associative,
    translation_transpose,
)
from .linprog import LPProblem, LPSolution, pad_certificate, solve_lp_feasibility


def uniform_mean(space: PointSpace) -> Mean:
    return Mean(space, (Fraction(1, space.n),) * space.n)


def left_invariance_problem(shg: Semihypergroup) -> LPProblem:
    """LP whose feasible points are exactly the left invariant means.

    It is the fixed-point LP (`actions.fixed_point_problem`) of the canonical
    maps m -> M_s^T m on the simplex, for s in `shg.kept_points`: the rows
    sum_y (p_s*p_y)(z) m_y - m_z = 0, then sum(m) = 1.  M_{mu*nu} = M_nu M_mu,
    so each dropped row is a combination of kept rows before it, and
    `_row_reduce` keeps the rows it would keep on all n^2+1.  Posed in integers
    from `point_table` or `scaled` (D, ints), row (s, z) is D (M_s^T - I) row z
    over the gcd of D and its entries.  Right invariant means are its feasible
    points on `algebra.opposite(shg)`.
    """
    require_associative(shg)
    n, t = shg.n, shg.table.point_table
    d, ints = (1, None) if t is not None else shg.table.scaled
    rows = []
    for s in shg.kept_points:
        row = ints[s] if t is None else (((z, 1),) for z in t[s])
        for z, r in enumerate(translation_transpose(row, n)):  # less D at (z, z), over the gcd
            r[z] = r.get(z, 0) - d
            g = gcd(d, *r.values())
            rows.append((d // g, {j: a // g for j, a in r.items() if a}))
    return LPProblem._from_integer_rows((*rows, (1, dict.fromkeys(range(n + 1), 1))), (True,) * n)


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


MeanLike = Union[Measure, Sequence[Fraction]]


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
    measure = m if isinstance(m, Measure) else Measure(shg.space, tuple(m))
    if measure.space != shg.space:
        raise ValueError("mean lives on a different point space")
    weights = measure.weights
    if any(w < 0 for w in weights) or sum(weights, Fraction(0)) != 1:
        return CheckReport(
            check="left-invariant-mean", passed=False, witness={"weights": weights},
            detail="candidate is not a mean (needs nonnegative weights summing to 1)")
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
                return CheckReport(check="left-invariant-mean", passed=False, detail=(
                    f"m(L_{point} 1_{ind}) = {format_rational(lhs)} but "
                    f"m(1_{ind}) = {format_rational(rhs)}"),
                    witness={"point": point, "indicator": ind, "lhs": lhs, "rhs": rhs})
    return CheckReport(check="left-invariant-mean", passed=True)
