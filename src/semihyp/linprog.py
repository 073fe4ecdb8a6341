"""Exact rational linear algebra and linear-programming feasibility.

The kernel decides feasibility of {A x = b, x_j >= 0 for flagged j} exactly.
Each row of A is a `Support` of its nonzero `Fraction`s from the builders on;
`LPProblem.from_dense` is the one dense entry point.  `LPProblem` scales each
row of [A | b] once to integers, and the package's one sparse elimination,
`algebra._row_reduce`, which the generator search also feeds, brings those
rows to reduced echelon form: each kept row is primitive with a positive
pivot.  The LP reduces [A | b] alone.  Kept rows of rank n fix the only
solution: if it meets the sign flags it is the witness, with no pivots.
Otherwise a phase-1 simplex with Bland's rule runs on the kept rows over
their pivots, as `Fraction`s.  Only a certificate needs the identity block:
a contradiction or an infeasible optimum reduces the kept input rows, and
any contradicting one, again over [A | b | I].  Rows that reduced to zero
change no kept row, so the block rides along the same elimination and each
kept row carries its combination of the input rows.  A contradicting row,
divided by its own identity entry and signed so that r > 0, is already a
certificate; an infeasible optimum combines the blocks with the final
reduced costs.  Both LP outcomes are self-verified on the integer rows: a
witness satisfies them, and a certificate y has y.A <= 0 on nonnegative
columns, y.A = 0 on free ones and y.b > 0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional, Sequence

from .algebra import RationalLike, Support, _combine, _row_reduce, as_fraction

Row = tuple[Fraction, ...]


@dataclass(frozen=True)
class LPProblem:
    """Equality constraints sum_j a_ij x_j = rhs_i with per-variable sign flags.

    Row i is the `Support` of its nonzero (j, a_ij): distinct columns in
    0..n_vars-1, in any order, with nonzero `Fraction` values.  Any other
    row, or a row count other than len(rhs), is a ValueError.
    """

    rows: tuple[Support, ...]
    rhs: tuple[Fraction, ...]
    nonneg: tuple[bool, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))
        object.__setattr__(self, "rhs", tuple(as_fraction(v) for v in self.rhs))
        object.__setattr__(self, "nonneg", tuple(bool(f) for f in self.nonneg))
        n = len(self.nonneg)
        if len(self.rows) != len(self.rhs):
            raise ValueError("rows and rhs have different counts")
        for row in self.rows:
            if len({j for j, _ in row}) != len(row) or not all(
                    isinstance(j, int) and 0 <= j < n and isinstance(a, Fraction) and a
                    for j, a in row):
                raise ValueError(f"row needs distinct columns in 0..{n - 1} and nonzero "
                                 f"Fraction values: {row!r}")

    @classmethod
    def from_dense(cls, matrix: Sequence[Sequence[RationalLike]],
                   rhs: Sequence[RationalLike], nonneg: Sequence[bool]) -> "LPProblem":
        """The problem `matrix @ x = rhs`; a row not len(nonneg) long is a ValueError."""
        if any(len(row) != len(nonneg) for row in matrix):
            raise ValueError("matrix row length does not match variable count")
        return cls(tuple(tuple((j, a) for j, a in enumerate(map(as_fraction, row)) if a)
                         for row in matrix), rhs, nonneg)

    @cached_property
    def integer_rows(self) -> tuple[tuple[int, dict[int, int]], ...]:
        """(s, s * [a_i | b_i]) for each row i, s the lcm of the denominators
        of row i and b_i, the scaled row as {column: int} over its nonzeros,
        b at column n."""
        n, out = self.n_vars, []
        for row, b in zip(self.rows, self.rhs):
            s = lcm(b.denominator, *(a.denominator for _, a in row))
            v = {j: a.numerator * (s // a.denominator) for j, a in row}
            if b:
                v[n] = b.numerator * (s // b.denominator)
            out.append((s, v))
        return tuple(out)

    @property
    def n_vars(self) -> int:
        return len(self.nonneg)

    @property
    def n_rows(self) -> int:
        return len(self.rows)


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
    d = lcm(*(v.denominator for v in x))  # d * [x | -1] is an integer vector
    dx = [v.numerator * (d // v.denominator) for v in x] + [-d]
    if any(sum(a * dx[j] for j, a in v.items()) for _, v in problem.integer_rows):
        raise AssertionError("witness does not satisfy an equality row")
    for v, flag in zip(x, problem.nonneg):
        if flag and v < 0:
            raise AssertionError("witness violates a nonnegativity flag")


def _verify_certificate(problem: LPProblem, y: Sequence[Fraction]) -> None:
    # e * y.[A | b] in integers, for y_i = p/q, row i over s and e = lcm(q * s)
    terms = [(yi, s, v) for yi, (s, v) in zip(y, problem.integer_rows) if yi]
    e = lcm(*(yi.denominator * s for yi, s, _ in terms))
    g = _combine((v.items(), yi.numerator * (e // (yi.denominator * s))) for yi, s, v in terms)
    if g.pop(problem.n_vars, 0) <= 0:
        raise AssertionError("certificate does not separate the right-hand side")
    for j, gj in g.items():
        if not problem.nonneg[j]:
            raise AssertionError("certificate fails on a free column")
        if gj > 0:
            raise AssertionError("certificate fails on a nonnegative column")


def solve_lp_feasibility(problem: LPProblem) -> LPSolution:
    """Exact phase-1 simplex with Bland's rule on the row-reduced system.

    When the kept rows have rank n and their [A | b] column over the pivots is
    >= 0 on every nonnegative column, it is the only feasible point, so it is
    Bland's witness too: it is returned without phase 1, with pivots = 0.  The
    tableau is the [A | b] part of the kept rows over their pivots, negated
    where b < 0, with artificial i at column n+1+i, and a last row of minus
    their sum.  Pivots keep that row -y.T T for multipliers y of the first rows
    T: the artificial sum's reduced costs, but -y on the artificials, so an
    infeasible optimum certifies with y, applied to the kept rows' blocks.
    Free x_j = x_j+ - x_j- keeps only x_j+'s column, as x_j-'s is its
    negation.  Bland's rule ranks split column (j, sign) 2j + (sign < 0) and
    artificial i 2n + i, in order.
    """
    n, m, zero = problem.n_vars, problem.n_rows, Fraction(0)
    ints, kept, noted = problem.integer_rows, {}, []  # noted: the input rows kept

    def signed(kept: dict[int, dict[int, int]]) -> list[tuple[dict[int, int], int]]:
        return [(v, v[c] if v.get(n, 0) >= 0 else -v[c]) for c, v in kept.items()]

    def blocked(rows: list[int]) -> tuple[dict[int, dict[int, int]], Optional[dict]]:
        # row i scaled by s carries s at its identity column, as s * [a_i | b_i | e_i]
        return _row_reduce(({**ints[i][1], n + 1 + i: ints[i][0]} for i in rows), n)

    def infeasible(v: dict[int, Fraction], pivots: int) -> LPSolution:
        certificate = tuple(v.get(n + 1 + i, zero) for i in range(m))
        _verify_certificate(problem, certificate)
        return LPSolution(status="infeasible", certificate=certificate, pivots=pivots)

    for i, (_, v) in enumerate(ints):
        rank = len(kept)
        if _row_reduce((v,), n, kept)[1] is not None:
            return infeasible(blocked(noted + [i])[1], 0)
        if len(kept) > rank:
            noted.append(i)
    if len(kept) == n and all(v.get(n, 0) >= 0 for c, v in kept.items() if problem.nonneg[c]):
        # rank n: the reduction fixes the only solution, and it is feasible
        witness = tuple(Fraction(kept[c].get(n, 0), kept[c][c]) for c in range(n))
        _verify_witness(problem, witness)
        return LPSolution(status="feasible", witness=witness)
    # each kept row over its pivot, negated where b < 0
    tableau = [{j: Fraction(a, p) for j, a in v.items()} | {n + 1 + i: Fraction(1)}
               for i, (v, p) in enumerate(signed(kept))]
    k = len(tableau)
    tableau.append(_combine((v.items(), -1) for v in tableau))
    basis = [2 * n + i for i in range(k)]

    pivots = 0
    while True:
        cost = tableau[k]
        enter = min((j for j, c in cost.items() if j < n and (c < 0 or not problem.nonneg[j])),
                    default=None)
        if enter is None:
            break
        sign = 1 if cost[enter] < 0 else -1
        best = min(((v.get(n, zero) / (sign * v[enter]), basis[i], i) for i, v in
                    enumerate(tableau[:k]) if enter in v and sign * v[enter] > 0), default=None)
        if best is None:
            raise AssertionError("phase-1 objective cannot be unbounded")
        _pivot(tableau, basis, best[2], enter, sign)
        pivots += 1

    if cost.get(n, zero) < 0:  # the artificial sum stays positive
        y = (-cost.get(n + 1 + i, zero) for i in range(k))
        rows = signed(blocked(noted)[0])  # the same kept rows, with their combinations
        return infeasible(_combine((v.items(), c / p) for (v, p), c in zip(rows, y)), pivots)

    # drive any zero-level artificials out of the basis
    for i in [i for i in range(k) if basis[i] >= 2 * n]:
        enter = min((j for j in tableau[i] if j < n), default=None)
        if enter is None:
            raise AssertionError("reduced rows should be independent")
        _pivot(tableau, basis, i, enter, 1)
        pivots += 1

    witness = [zero] * n
    for key, v in zip(basis, tableau):
        j, negative = divmod(key, 2)
        witness[j] += -v.get(n, zero) if negative else v.get(n, zero)
    _verify_witness(problem, witness)
    return LPSolution(status="feasible", witness=tuple(witness), pivots=pivots)


def _pivot(tableau: list[dict[int, Fraction]], basis: list[int], row: int, col: int,
           sign: int) -> None:
    """Bring split column (col, sign) into the basis at `row`: scale the row
    to 1 there and clear the column from every other row, costs included."""
    pivot = tableau[row] = _combine(((tableau[row].items(), sign / tableau[row][col]),))
    for i, v in enumerate(tableau):
        if i != row and col in v:
            tableau[i] = _combine(((v.items(), 1), (pivot.items(), -sign * v[col])))
    basis[row] = 2 * col + (sign < 0)


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


def solve_linear_system(
    rows: Sequence[Support], rhs: Sequence[RationalLike], n: int
) -> Optional[tuple[Row, tuple[Row, ...]]]:
    """Solve A x = b exactly, for A's sparse rows over n columns as in
    `LPProblem`; returns (particular, null-space basis) or None.

    Reads the reduced row echelon form of `LPProblem.integer_rows` off
    `_row_reduce`, with no identity block: its kept rows over their
    pivots are zero before their pivot, 1 at it and 0 at the other pivot
    columns.  The particular solution sets every free variable to zero; the
    null-space basis has one vector per free column in the standard echelon
    pattern.  A row that `LPProblem` rejects, such as one with a column
    outside 0..n-1, is a ValueError.
    """
    problem = LPProblem(rows, rhs, nonneg=(False,) * n)
    kept, contradiction = _row_reduce((v for _, v in problem.integer_rows), n)
    if contradiction is not None:
        return None

    def column(j: int, sign: int) -> Row:  # sign * column j over the pivots; 1 at free j
        return tuple(Fraction(sign * kept[c].get(j, 0), kept[c][c]) if c in kept
                     else Fraction(c == j) for c in range(n))

    return column(n, 1), tuple(column(fc, -1) for fc in range(n) if fc not in kept)
