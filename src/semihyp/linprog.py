"""Exact rational linear algebra and linear-programming feasibility.

The kernel decides feasibility of {A x = b, x_j >= 0 for flagged j} with
`fractions.Fraction` arithmetic throughout.  One sparse elimination,
`_row_reduce`, brings rows to reduced echelon form.  The LP reduces
[A | b | I]: the identity block never pivots, so each kept row carries its
combination of the input rows as ordinary entries, and a certificate is
read off those columns.  A row that reduces to 0 = r != 0 is already a
certificate; otherwise a phase-1 simplex with Bland's anti-cycling rule runs
on the kept rows, and an infeasible optimum combines their blocks with the
final reduced costs.  `solve_linear_system` reduces [A | b] alone, as it
returns no certificate.  Both LP outcomes are self-verified before being
returned: a witness is substituted into the original constraints, and an
infeasibility certificate y is checked to satisfy y.A <= 0 on nonnegative
columns, y.A = 0 on free columns, and y.b > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .algebra import RationalLike, _combine, as_fraction

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


def _augmented(problem: LPProblem) -> list[dict[int, Fraction]]:
    """Rows of [A | b] as {column: value} over their nonzeros, b at column n."""
    return [{j: a for j, a in enumerate((*row, b)) if a}
            for row, b in zip(problem.matrix, problem.rhs)]


def _row_reduce(
    rows: Iterable[dict[int, Fraction]], n: int
) -> tuple[dict[int, dict[int, Fraction]], Optional[dict[int, Fraction]]]:
    """Incremental reduced echelon form of sparse rows {column: value}.

    Columns below n are variables and pivot; every column from n on rides
    along, so a row [A | b | I] (b at column n, identity at n+1...) keeps its
    combination of input rows in the identity block.  Returns the kept rows
    by pivot column, in the order they were kept, and None; or, when a row
    reduces to 0 = r with r != 0, the rows kept so far and that row scaled to
    r > 0, whose identity block is then a Farkas certificate.  The reduced
    echelon form is unique and the columns from n on never pivot, so the
    kept rows, their pivots and their [A | b] part are the same with or
    without the block.  Rows are dicts of nonzeros, a row meets only the
    kept rows at its own pivot columns, and a block combination has
    <= rank + 1 entries.
    """
    kept: dict[int, dict[int, Fraction]] = {}
    for v in rows:
        eliminate = [(kept[c].items(), -a) for c, a in v.items() if c in kept]
        if eliminate:
            v = _combine([(v.items(), 1), *eliminate])
        pc = min((j for j in v if j < n), default=None)
        if pc is None:
            if v.get(n):
                return kept, _combine(((v.items(), 1 if v[n] > 0 else -1),))
            continue  # redundant row
        v = _combine(((v.items(), 1 / v[pc]),))
        for c, row in kept.items():
            if pc in row:
                kept[c] = _combine(((row.items(), 1), (v.items(), -row[pc])))
        kept[pc] = v
    return kept, None


def solve_lp_feasibility(problem: LPProblem) -> LPSolution:
    """Exact phase-1 simplex with Bland's rule on the row-reduced system."""
    n, m = problem.n_vars, problem.n_rows
    rows = _augmented(problem)
    for i, row in enumerate(rows):
        row[n + 1 + i] = Fraction(1)
    kept, contradiction = _row_reduce(rows, n)

    def infeasible(v: dict[int, Fraction], pivots: int) -> LPSolution:
        certificate = tuple(v.get(n + 1 + i, Fraction(0)) for i in range(m))
        _verify_certificate(problem, certificate)
        return LPSolution(status="infeasible", certificate=certificate, pivots=pivots)

    if contradiction is not None:
        return infeasible(contradiction, 0)
    # sign-normalize right-hand sides, each row with its combination
    rows = [_combine(((v.items(), -1),)) if v.get(n, 0) < 0 else v for v in kept.values()]
    k = len(rows)

    # split free variables into positive and negative parts
    colmap: list[tuple[int, int]] = []
    for j in range(n):
        colmap.append((j, 1))
        if not problem.nonneg[j]:
            colmap.append((j, -1))
    ns = len(colmap)

    # tableau: split columns, artificial identity block, rhs column
    zero = Fraction(0)
    tableau = [
        [v.get(j, zero) * sign for (j, sign) in colmap]
        + [Fraction(1 if t == i else 0) for t in range(k)]
        + [v.get(n, zero)]
        for i, v in enumerate(rows)
    ]
    basis = [ns + i for i in range(k)]
    # reduced costs for minimizing the artificial sum
    cost = [-sum(tableau[i][c] for i in range(k)) for c in range(ns)]
    cost += [Fraction(0)] * k
    cost.append(-sum(t[-1] for t in tableau))

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
        combination = _combine((v.items(), 1 - cost[ns + i]) for i, v in enumerate(rows))
        return infeasible(combination, pivots)

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

    Reads the reduced row echelon form of [A | b] off `_row_reduce`, with no
    identity block since nothing is certified: its kept rows are zero before
    their pivot, 1 at it and 0 at the other pivot columns.  The particular
    solution sets every free variable to zero; the null-space basis has one
    vector per free column in the standard echelon pattern.  Rows of unequal
    length are a ValueError.
    """
    n = len(matrix[0]) if matrix else 0
    problem = LPProblem(matrix, rhs, nonneg=(False,) * n)
    kept, contradiction = _row_reduce(_augmented(problem), n)
    if contradiction is not None:
        return None
    zero = Fraction(0)
    particular = [zero] * n
    for c, v in kept.items():
        particular[c] = v.get(n, zero)
    null_basis = []
    for fc in (c for c in range(n) if c not in kept):
        vec = [zero] * n
        vec[fc] = Fraction(1)
        for c, v in kept.items():
            vec[c] = -v.get(fc, zero)
        null_basis.append(tuple(vec))
    return tuple(particular), tuple(null_basis)
