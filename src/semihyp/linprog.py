"""Exact rational linear algebra and linear-programming feasibility.

The kernel decides feasibility of {A x = b, x_j >= 0 for flagged j} with
`fractions.Fraction` arithmetic throughout.  It first row-reduces the
equality system (tracking row combinations, so a linear-level contradiction
already yields a checkable certificate), then runs a phase-1 simplex with
Bland's anti-cycling rule on the reduced system.  Both outcomes are
self-verified before being returned: a witness is substituted into the
original constraints, and an infeasibility certificate y is checked to
satisfy y.A <= 0 on nonnegative columns, y.A = 0 on free columns, and
y.b > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import RationalLike, as_fraction

Row = tuple[Fraction, ...]


@dataclass(frozen=True)
class LPProblem:
    """Equality constraints `matrix @ x = rhs` with per-variable sign flags."""

    matrix: tuple[Row, ...]
    rhs: tuple[Fraction, ...]
    nonneg: tuple[bool, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "matrix",
            tuple(tuple(as_fraction(v) for v in row) for row in self.matrix),
        )
        object.__setattr__(self, "rhs", tuple(as_fraction(v) for v in self.rhs))
        object.__setattr__(self, "nonneg", tuple(bool(f) for f in self.nonneg))
        n = len(self.nonneg)
        if len(self.matrix) != len(self.rhs):
            raise ValueError("matrix and rhs have different row counts")
        for row in self.matrix:
            if len(row) != n:
                raise ValueError("matrix row length does not match variable count")

    @property
    def n_vars(self) -> int:
        return len(self.nonneg)

    @property
    def n_rows(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True)
class LPSolution:
    """Feasibility verdict with its exact supporting evidence.

    `witness` satisfies the constraints exactly when status is "feasible";
    `certificate` is a Farkas vector over the original rows when status is
    "infeasible".  Both are re-verified against the input before this object
    is built, and construction fails if the status's evidence is missing.
    """

    status: str
    witness: Optional[Row] = None
    certificate: Optional[Row] = None
    pivots: int = 0

    def __post_init__(self) -> None:
        if (self.witness if self.feasible else self.certificate) is None:
            raise ValueError(f"{self.status} LP solution without its evidence")

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def _verify_witness(problem: LPProblem, x: Sequence[Fraction]) -> None:
    for row, b in zip(problem.matrix, problem.rhs):
        if sum((a * v for a, v in zip(row, x) if a), Fraction(0)) != b:
            raise AssertionError("witness does not satisfy an equality row")
    for v, flag in zip(x, problem.nonneg):
        if flag and v < 0:
            raise AssertionError("witness violates a nonnegativity flag")


def _verify_certificate(problem: LPProblem, y: Sequence[Fraction]) -> None:
    if sum((yi * b for yi, b in zip(y, problem.rhs)), Fraction(0)) <= 0:
        raise AssertionError("certificate does not separate the right-hand side")
    used = [(yi, row) for yi, row in zip(y, problem.matrix) if yi]
    for j in range(problem.n_vars):
        g = sum((yi * row[j] for yi, row in used), Fraction(0))
        if problem.nonneg[j]:
            if g > 0:
                raise AssertionError("certificate fails on a nonnegative column")
        elif g != 0:
            raise AssertionError("certificate fails on a free column")


def _row_reduce(problem: LPProblem):
    """Incremental reduction of [A | b] with sparse combination tracking.

    Returns either ("infeasible", certificate) when a row reduces to
    0 = nonzero, or ("reduced", rows, rhs, combos, pivot_cols) with the
    surviving independent rows; combos[i] maps original row indices to the
    coefficients expressing reduced row i.  A combination involves only kept
    rows and the row being reduced (<= rank + 1 entries), so the pass costs
    O(m * rank * (n + rank)) rather than O(m^2 * rank) for dense length-m
    combinations; only an outgoing certificate is expanded to length m.
    """
    n = problem.n_vars
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    combos: list[dict[int, Fraction]] = []
    pivot_cols: list[int] = []

    for i, (v, r) in enumerate(zip(problem.matrix, problem.rhs)):
        combo = {i: Fraction(1)}
        for k, pc in enumerate(pivot_cols):
            f = v[pc]
            if f != 0:
                v = [a - f * bk if bk else a for a, bk in zip(v, rows[k])]
                r -= f * rhs[k]
                for j, c in combos[k].items():
                    combo[j] = combo.get(j, 0) - f * c
        pc = next((j for j in range(n) if v[j] != 0), None)
        if pc is None:
            if r != 0:
                return ("infeasible", _dense(problem, [(1 if r > 0 else -1, combo)]))
            continue  # redundant row
        inv = v[pc]
        v = [a / inv for a in v]
        r = r / inv
        combo = {j: c / inv for j, c in combo.items()}
        # keep earlier rows reduced as well (full reduced echelon form)
        for k in range(len(rows)):
            f = rows[k][pc]
            if f != 0:
                rows[k] = [a - f * bk if bk else a for a, bk in zip(rows[k], v)]
                rhs[k] -= f * r
                for j, c in combo.items():
                    combos[k][j] = combos[k].get(j, 0) - f * c
        rows.append(v)
        rhs.append(r)
        combos.append(combo)
        pivot_cols.append(pc)
    return ("reduced", rows, rhs, combos, pivot_cols)


def _dense(problem: LPProblem, terms) -> Row:
    # sum of coef * combo over (coef, combo) terms, as a length-m row vector
    out = [Fraction(0)] * problem.n_rows
    for coef, combo in terms:
        for j, c in combo.items():
            out[j] += coef * c
    return tuple(out)


def solve_lp_feasibility(problem: LPProblem) -> LPSolution:
    """Exact phase-1 simplex with Bland's rule on the row-reduced system."""
    n = problem.n_vars
    reduced = _row_reduce(problem)
    if reduced[0] == "infeasible":
        certificate = reduced[1]
        _verify_certificate(problem, certificate)
        return LPSolution(status="infeasible", certificate=certificate)
    _, rows, rhs, combos, _ = reduced
    k = len(rows)

    # split free variables into positive and negative parts
    colmap: list[tuple[int, int]] = []
    for j in range(n):
        colmap.append((j, 1))
        if not problem.nonneg[j]:
            colmap.append((j, -1))
    ns = len(colmap)

    # sign-normalize right-hand sides, folding flips into the combinations
    for i in range(k):
        if rhs[i] < 0:
            rows[i] = [-a for a in rows[i]]
            rhs[i] = -rhs[i]
            combos[i] = {j: -a for j, a in combos[i].items()}

    if k == 0:
        witness = tuple(Fraction(0) for _ in range(n))
        _verify_witness(problem, witness)
        return LPSolution(status="feasible", witness=witness)

    # tableau: split columns, artificial identity block, rhs column
    tableau = [
        [rows[i][j] * sign for (j, sign) in colmap]
        + [Fraction(1 if t == i else 0) for t in range(k)]
        + [rhs[i]]
        for i in range(k)
    ]
    basis = [ns + i for i in range(k)]
    # reduced costs for minimizing the artificial sum
    cost = [-sum(tableau[i][c] for i in range(k)) for c in range(ns)]
    cost += [Fraction(0)] * k
    cost.append(-sum(rhs))

    pivots = 0
    while True:
        enter = next((c for c in range(ns) if cost[c] < 0), None)
        if enter is None:
            break
        best: Optional[tuple[Fraction, int, int]] = None
        for i in range(k):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                key = (ratio, basis[i])
                if best is None or key < (best[0], best[1]):
                    best = (ratio, basis[i], i)
        if best is None:
            raise AssertionError("phase-1 objective cannot be unbounded")
        leave = best[2]
        _pivot(tableau, cost, basis, leave, enter)
        pivots += 1

    objective = -cost[-1]
    if objective > 0:
        certificate = _dense(
            problem, [(Fraction(1) - cost[ns + i], combos[i]) for i in range(k)]
        )
        _verify_certificate(problem, certificate)
        return LPSolution(status="infeasible", certificate=certificate, pivots=pivots)

    # drive any zero-level artificials out of the basis
    for i in range(k):
        if basis[i] >= ns:
            enter = next((c for c in range(ns) if tableau[i][c] != 0), None)
            if enter is None:
                raise AssertionError("reduced rows should be independent")
            _pivot(tableau, cost, basis, i, enter)
            pivots += 1

    x_split = [Fraction(0)] * ns
    for i in range(k):
        x_split[basis[i]] = tableau[i][-1]
    witness_list = [Fraction(0)] * n
    for c, (j, sign) in enumerate(colmap):
        witness_list[j] += sign * x_split[c]
    witness = tuple(witness_list)
    _verify_witness(problem, witness)
    return LPSolution(status="feasible", witness=witness, pivots=pivots)


def pad_certificate(
    solution: LPSolution, blocks: Sequence[int], width: int, n_blocks: int
) -> LPSolution:
    """`solution` of the row blocks `blocks` (ascending, `width` rows each)
    of a problem of n_blocks blocks and a last row, with the certificate put
    at the full rows and zero on the dropped ones, so still a Farkas one."""
    if solution.feasible:
        return solution
    full = [Fraction(0)] * (n_blocks * width + 1)
    rows = [b * width + i for b in blocks for i in range(width)] + [n_blocks * width]
    for r, y in zip(rows, solution.certificate):
        full[r] = y
    return replace(solution, certificate=tuple(full))


def _pivot(
    tableau: list[list[Fraction]],
    cost: list[Fraction],
    basis: list[int],
    row: int,
    col: int,
) -> None:
    piv = tableau[row][col]
    tableau[row] = [a / piv for a in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            f = tableau[i][col]
            tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[row])]
    if cost[col] != 0:
        f = cost[col]
        for c in range(len(cost)):
            cost[c] -= f * tableau[row][c]
    basis[row] = col


def solve_linear_system(
    matrix: Sequence[Sequence[RationalLike]], rhs: Sequence[RationalLike]
) -> Optional[tuple[Row, tuple[Row, ...]]]:
    """Solve A x = b exactly; returns (particular, null-space basis) or None.

    Reads the reduced row echelon form off `_row_reduce` with every variable
    free: its kept rows are zero before their pivot, 1 at it and 0 at the
    other pivot columns.  The particular solution sets every free variable
    to zero; the null-space basis has one vector per free column in the
    standard echelon pattern.  Rows of unequal length are a ValueError.
    """
    n = len(matrix[0]) if matrix else 0
    reduced = _row_reduce(LPProblem(matrix, rhs, nonneg=(False,) * n))
    if reduced[0] == "infeasible":
        return None
    _, rows, b, _, pivot_cols = reduced
    particular = [Fraction(0)] * n
    for i, c in enumerate(pivot_cols):
        particular[c] = b[i]
    free_cols = [c for c in range(n) if c not in pivot_cols]
    null_basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            vec[c] = -rows[i][fc]
        null_basis.append(tuple(vec))
    return tuple(particular), tuple(null_basis)
