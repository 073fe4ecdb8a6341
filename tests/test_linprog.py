"""Exact LP feasibility kernel and linear-system solver."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semihyp.amenability import left_invariance_problem
from semihyp.construct import from_semigroup, left_zero_semigroup, symmetric_group
from semihyp.linprog import (
    LPProblem,
    LPSolution,
    _row_reduce,
    _verify_certificate,
    _verify_witness,
    solve_linear_system,
    solve_lp_feasibility,
)

from oracles import (
    oracle_bland_phase1,
    oracle_feasible,
    oracle_is_farkas,
    oracle_row_reduce,
    oracle_solve,
)

F = Fraction


def problem(rows, rhs, nonneg):
    return LPProblem.from_dense(rows, rhs, nonneg)


def sparse(rows):
    """The `Support` of each dense row."""
    return tuple(tuple((j, F(a)) for j, a in enumerate(row) if a) for row in rows)


def solve_dense(rows, rhs):
    return solve_linear_system(sparse(rows), rhs, len(rows[0]) if rows else 0)


def check_certificate(p: LPProblem, y):
    assert sum(yi * b for yi, b in zip(y, p.rhs)) > 0
    for j in range(p.n_vars):
        g = sum(yi * a for yi, row in zip(y, p.rows) for c, a in row if c == j)
        if p.nonneg[j]:
            assert g <= 0
        else:
            assert g == 0


def test_simple_feasible():
    sol = solve_lp_feasibility(problem([[1, 1]], [1], [True, True]))
    assert sol.feasible
    assert sum(sol.witness) == 1 and all(v >= 0 for v in sol.witness)


def test_simple_infeasible_with_certificate():
    p = problem([[1, 1], [1, -1]], [1, 3], [True, True])
    sol = solve_lp_feasibility(p)
    assert not sol.feasible
    assert sol.certificate is not None
    check_certificate(p, sol.certificate)


def test_z2_invariance_system(z2):
    sol = solve_lp_feasibility(left_invariance_problem(z2))
    assert sol.feasible
    assert sol.witness == (F(1, 2), F(1, 2))


def test_free_variable_feasible():
    sol = solve_lp_feasibility(problem([[1]], [-1], [False]))
    assert sol.feasible
    assert sol.witness == (F(-1),)


def test_nonneg_variable_infeasible():
    p = problem([[1]], [-1], [True])
    sol = solve_lp_feasibility(p)
    assert not sol.feasible
    check_certificate(p, sol.certificate)


def test_phase1_certificate_pinned():
    # row 2 is row 0 + row 1 (redundant); the phase-1 certificate combines
    # the kept rows and was pinned before the combinations were made sparse
    p = problem(
        [[1, 1, 0], [1, -1, 2], [2, 0, 2], [0, 1, 1]], [1, 3, 4, -1], [True] * 3
    )
    sol = solve_lp_feasibility(p)
    assert sol.status == "infeasible" and sol.pivots == 2
    assert sol.certificate == (F(-1, 4), F(1, 4), F(0), F(-1, 2))


def test_solution_requires_its_evidence():
    with pytest.raises(ValueError):
        LPSolution(status="feasible")
    with pytest.raises(ValueError):
        LPSolution(status="infeasible", witness=(F(0),))


def test_contradictory_rows_certificate():
    p = problem([[1, 2], [2, 4]], [1, 3], [True, True])
    sol = solve_lp_feasibility(p)
    assert not sol.feasible
    check_certificate(p, sol.certificate)


def test_redundant_rows_fine():
    p = problem([[1, 1], [2, 2]], [1, 2], [True, True])
    sol = solve_lp_feasibility(p)
    assert sol.feasible


def test_empty_system():
    sol = solve_lp_feasibility(problem([], [], [True, True, False]))
    assert sol.feasible
    assert sol.witness == (F(0), F(0), F(0))
    # every row redundant: nothing is kept, so phase 1 has an empty tableau
    sol = solve_lp_feasibility(problem([[0, 0], [0, 0]], [0, 0], [True, True]))
    assert sol.feasible and sol.pivots == 0
    assert sol.witness == (F(0), F(0))


def test_degenerate_zero_rhs():
    sol = solve_lp_feasibility(problem([[1, -1]], [0], [True, True]))
    assert sol.feasible


def test_dimension_validation():
    # a row lists its nonzeros in any order
    assert LPProblem((((2, F(-1)), (0, F(1))),), (F(0),), (True,) * 3).rows == (
        ((2, F(-1)), (0, F(1))),
    )
    with pytest.raises(ValueError, match="counts"):
        LPProblem(rows=(((0, F(1)),),), rhs=(), nonneg=(True,))
    with pytest.raises(ValueError, match="row length"):
        LPProblem.from_dense(((F(1), F(2)),), (F(1),), (True,))
    with pytest.raises(ValueError, match="row length"):
        LPProblem.from_dense(((F(1),), ()), (F(1), F(0)), (True,))


@pytest.mark.parametrize("row", [
    ((0, F(1)), (0, F(2))),  # duplicate column
    ((-1, F(1)),),
    ((3, F(1)),),  # out of range
    ((1, F(0)),),
    ((1, 1),),  # an int, not a Fraction
    ((1, "1/2"),),
])
def test_rows_must_be_supports(row):
    with pytest.raises(ValueError, match="distinct columns"):
        LPProblem((row,), (F(0),), (True,) * 3)


def test_determinism(z4):
    p = left_invariance_problem(z4)
    first = solve_lp_feasibility(p)
    second = solve_lp_feasibility(p)
    assert first.witness == second.witness
    assert first.pivots == second.pivots


def test_random_systems_match_enumeration_oracle():
    rng = random.Random(99)
    for trial in range(120):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randint(-3, 3)) for _ in range(m)]
        p = problem(rows, rhs, [True] * n)
        sol = solve_lp_feasibility(p)
        assert sol.feasible == oracle_feasible(rows, rhs, n), (trial, rows, rhs)
        if sol.feasible:
            assert sol.witness is not None  # verified inside the kernel
        else:
            check_certificate(p, sol.certificate)


def test_solve_linear_system_unique():
    out = solve_dense([[2, 0], [0, 4]], [6, 8])
    assert out is not None
    particular, null = out
    assert particular == (F(3), F(2))
    assert null == ()


def test_solve_linear_system_underdetermined():
    out = solve_dense([[1, 1, 0]], [5])
    assert out is not None
    particular, null = out
    assert particular == (F(5), F(0), F(0))
    assert len(null) == 2
    for vec in null:
        assert sum(a * b for a, b in zip((1, 1, 0), vec)) == 0


def test_solve_linear_system_inconsistent():
    assert solve_dense([[1, 1], [1, 1]], [1, 2]) is None


def test_solve_linear_system_rejects_out_of_range_columns():
    # a column past n, or below 0, is not silently dropped or wrapped
    with pytest.raises(ValueError, match="distinct columns"):
        solve_linear_system(sparse([[1, 2], [1, 2, 3]]), [1, 1], 2)
    with pytest.raises(ValueError, match="distinct columns"):
        solve_linear_system(sparse([[1, 2]]) + (((-1, F(1)),),), [1, 1], 2)


RATIONALS = st.builds(F, st.integers(-2, 2), st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_problem_stores_only_its_integer_rows(data):
    # each row's nonzeros in any order; `rows` and `rhs` read them back from
    # the one stored form, in that order, and `==` compares that form
    n = data.draw(st.integers(1, 5))
    entry = st.tuples(st.integers(0, n - 1), RATIONALS.filter(bool))
    rows = data.draw(st.lists(st.lists(entry, max_size=n, unique_by=lambda e: e[0]).map(tuple),
                              max_size=5))
    rhs = data.draw(st.lists(RATIONALS, min_size=len(rows), max_size=len(rows)))
    nonneg = tuple(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    p = LPProblem(rows, rhs, nonneg)
    assert set(vars(p)) == {"integer_rows", "nonneg"}
    assert (p.rows, p.rhs, p.nonneg) == (tuple(rows), tuple(rhs), nonneg)
    for (s, v), row, b in zip(p.integer_rows, rows, rhs):
        assert s == lcm(b.denominator, *(a.denominator for _, a in row))
        assert v == {j: s * a for j, a in row} | ({n: s * b} if b else {})
    assert p == LPProblem([row[::-1] for row in rows], rhs, nonneg)


@pytest.mark.parametrize("table", [symmetric_group(4), left_zero_semigroup(24)],
                         ids=["s4", "lz24"])
def test_mean_lp_stores_only_its_integer_rows(table):
    p = left_invariance_problem(from_semigroup(table))
    assert set(vars(p)) == {"integer_rows", "nonneg"}
    assert len(p.rows) == p.n_rows and set(vars(p)) == {"integer_rows", "nonneg", "rows"}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_solve_linear_system_matches_oracle(data):
    n = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(
        st.lists(RATIONALS, min_size=n, max_size=n), min_size=1, max_size=5
    ))
    if data.draw(st.booleans()):
        rows.append([2 * a - b for a, b in zip(rows[0], rows[-1])])  # dependent
    rhs = data.draw(st.lists(RATIONALS, min_size=len(rows), max_size=len(rows)))
    assert solve_dense(rows, rhs) == oracle_solve(rows, rhs)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_identity_block_rides_along_the_reduction(data):
    # the block columns n+1... never pivot, so [A | b] reduces the same with
    # or without them, and a contradiction's block is a Farkas certificate;
    # each row i comes scaled by its s_i, which is its identity entry, and
    # the primitive kept rows differ between the two runs, so each kept row
    # is compared divided by its pivot (the rational reduced echelon form)
    n = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(
        st.lists(RATIONALS, min_size=n, max_size=n), min_size=1, max_size=6
    ))
    if data.draw(st.booleans()):
        rows.append([a + b for a, b in zip(rows[0], rows[-1])])  # dependent
    rhs = data.draw(st.lists(RATIONALS, min_size=len(rows), max_size=len(rows)))
    p = problem(rows, rhs, [True] * n)
    plain = [dict(v) for _, v in p.integer_rows]
    blocked = [{**v, n + 1 + i: s} for i, (s, v) in enumerate(p.integer_rows)]
    kept, contradiction = _row_reduce(plain, n)
    kept_blocked, contradiction_blocked = _row_reduce(blocked, n)
    assert list(kept) == list(kept_blocked)
    for c, row in kept_blocked.items():
        assert {j: F(a, row[c]) for j, a in row.items() if j <= n} == {
            j: F(a, kept[c][c]) for j, a in kept[c].items()}
    assert (contradiction is None) == (contradiction_blocked is None)
    if contradiction_blocked is not None:
        y = [contradiction_blocked.get(n + 1 + i, F(0)) for i in range(len(rows))]
        assert oracle_is_farkas(rows, rhs, y)


WIDE_RATIONALS = st.builds(F, st.integers(-2**80, 2**80), st.integers(1, 10**12))


def draw_reduction_rows(data) -> tuple[list[dict], list[dict], int, bool]:
    """The integer rows s_i [A | b] of `LPProblem.integer_rows`, or
    s_i [A | b | I] when the flag is set, over n variables, and the same
    rows over s_i as `Fraction`s, for the oracle: small or wide rationals,
    with dependent and contradictory rows."""
    values = data.draw(st.sampled_from([RATIONALS, WIDE_RATIONALS]))
    n = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(
        st.lists(values, min_size=n, max_size=n), min_size=1, max_size=6
    ))
    rhs = data.draw(st.lists(values, min_size=len(rows), max_size=len(rows)))
    if data.draw(st.booleans()):  # dependent
        rows.append([a - 3 * b for a, b in zip(rows[0], rows[-1])])
        rhs.append(rhs[0] - 3 * rhs[-1])
    if data.draw(st.booleans()):  # contradicts row 0
        rows.append(list(rows[0]))
        rhs.append(rhs[0] + data.draw(values.filter(bool)))
    scaled = problem(rows, rhs, [True] * n).integer_rows
    block = data.draw(st.booleans())
    ints = [{**v, n + 1 + i: s} if block else dict(v) for i, (s, v) in enumerate(scaled)]
    exact = [{j: F(a, s) for j, a in v.items()} for (s, _), v in zip(scaled, ints)]
    return ints, exact, n, block


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_integer_reduction_matches_the_fraction_oracle(data):
    # the same pivots in the same order, each kept row equal to the oracle's
    # once divided by its pivot, and the same contradiction, whose identity
    # block is the certificate
    ints, exact, n, block = draw_reduction_rows(data)
    kept, contradiction = _row_reduce(ints, n)
    expected, expected_contradiction = oracle_row_reduce(exact, n)
    assert list(kept) == list(expected)
    for c, row in kept.items():
        assert row[c] > 0 and gcd(*row.values()) == 1
        assert {j: F(a, row[c]) for j, a in row.items()} == expected[c]
    assert (contradiction is None) == (expected_contradiction is None)
    if block:
        assert contradiction == expected_contradiction


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_reduction_row_by_row_through_a_shared_kept(data):
    # the generator search feeds one row per call into the same `kept`: that
    # keeps the same rows in the same order and meets the same contradiction
    # as one call on all the rows
    ints, _, n, _ = draw_reduction_rows(data)
    kept, contradiction = _row_reduce(ints, n)
    shared, found = {}, None
    for row in ints:
        reduced, found = _row_reduce([row], n, shared)
        assert reduced is shared
        if found is not None:
            break
    assert list(shared.items()) == list(kept.items())
    assert found == contradiction


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_bland_phase1_matches_the_dense_oracle(data):
    # mixed free and nonnegative columns, redundant and contradictory rows
    # and zero right-hand sides: the sparse tableau takes the dense one's
    # path, pivot for pivot
    n = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(
        st.lists(RATIONALS, min_size=n, max_size=n), min_size=0, max_size=5
    ))
    rhs = data.draw(st.lists(RATIONALS, min_size=len(rows), max_size=len(rows)))
    if rows and data.draw(st.booleans()):  # redundant
        rows.append([a + 2 * b for a, b in zip(rows[0], rows[-1])])
        rhs.append(rhs[0] + 2 * rhs[-1])
    if rows and data.draw(st.booleans()):  # contradicts row 0
        rows.append(list(rows[0]))
        rhs.append(rhs[0] + 1)
    if data.draw(st.booleans()):
        rhs = [F(0)] * len(rows)
    nonneg = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    assert_bland_or_read_off(rows, rhs, nonneg)


def read_off(rows, rhs, nonneg):
    """True when the oracle finds exactly one solution and it meets the
    sign flags, so the kernel reads it off the reduction with no pivots."""
    solved = oracle_solve(rows, rhs) if rows else None
    return (solved is not None and not solved[1]
            and all(v >= 0 for v, flag in zip(solved[0], nonneg) if flag))


def assert_bland_or_read_off(rows, rhs, nonneg):
    sol = solve_lp_feasibility(problem(rows, rhs, nonneg))
    status, witness, certificate, pivots = oracle_bland_phase1(rows, rhs, nonneg)
    assert (sol.status, sol.witness, sol.certificate) == (status, witness, certificate)
    assert sol.pivots == (0 if read_off(rows, rhs, nonneg) else pivots)
    return sol


@pytest.mark.parametrize("rows, rhs, nonneg", [
    ([[2, 0, -1], [-1, -1, 0]], [-1, 0], [True] * 3),
    ([[-1, -2, 0], [1, 1, 1]], [0, -1], [True, True, False]),
])
def test_zero_level_artificial_is_driven_out_as_the_oracle_does(rows, rhs, nonneg):
    # phase 1 ends with an artificial still basic at level 0, and one more
    # pivot replaces it; random draws rarely reach this path
    sol = solve_lp_feasibility(problem(rows, rhs, nonneg))
    expected = oracle_bland_phase1(rows, rhs, nonneg)
    assert (sol.status, sol.witness, sol.certificate, sol.pivots) == expected
    assert sol.pivots == 3


def test_the_s4_mean_lp_is_read_off_the_reduction():
    # the left invariant mean of a group is unique, so no phase 1 runs
    sol = solve_lp_feasibility(left_invariance_problem(from_semigroup(symmetric_group(4))))
    assert sol.feasible and sol.pivots == 0
    assert sol.witness == (F(1, 24),) * 24


def test_only_a_certificate_builds_the_identity_block(monkeypatch):
    # a read-off witness (the S4 mean LP) and a feasible phase 1 reduce
    # [A | b] alone: no row handed to `_row_reduce` has a column past n
    widest = []

    def spy(rows, n, kept=None):
        rows = list(rows)
        widest.append(max((j - n for v in rows for j in v), default=0))
        return _row_reduce(rows, n, kept)

    monkeypatch.setattr("semihyp.linprog._row_reduce", spy)
    s4 = solve_lp_feasibility(left_invariance_problem(from_semigroup(symmetric_group(4))))
    phase1 = solve_lp_feasibility(problem([[1, 1, 0], [0, 1, 1]], [1, 1], [True] * 3))
    assert s4.feasible and s4.pivots == 0 and phase1.feasible and phase1.pivots > 0
    assert widest and max(widest) <= 0
    # a certificate does read the block
    assert not solve_lp_feasibility(problem([[1, 1], [1, 1]], [1, 2], [True] * 2)).feasible
    assert max(widest) > 0


def test_reduction_stops_once_every_column_pivots(monkeypatch):
    # lz24's mean LP has rank 24 after 25 of its 577 rows; the 552 later
    # rows are each one dot product with the fixed point, and the last one,
    # sum(m) = 1, contradicts it: one more call reduces the kept rows with
    # their identity block for the certificate
    calls = []

    def spy(rows, n, kept=None):
        calls.append(len(kept or ()))
        return _row_reduce(rows, n, kept)

    problem = left_invariance_problem(from_semigroup(left_zero_semigroup(24)))
    monkeypatch.setattr("semihyp.linprog._row_reduce", spy)
    sol = solve_lp_feasibility(problem)
    assert problem.n_rows == 577 and sol.status == "infeasible"
    assert len(calls) == 25 + 1 and calls[-2] == 23 and calls[-1] == 0
    monkeypatch.undo()
    assert sol == solve_lp_feasibility(problem)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_rank_n_systems_with_appended_rows_match_the_oracles(data):
    # an invertible n-by-n system (a triangular one, mixed by row additions
    # and permuted), with rows appended that agree with its solution or
    # contradict it, in any order: the kernels that stop eliminating at
    # rank n give the oracles' status, witness, certificate and pivots, and
    # the linear system solves or fails as the Fraction elimination does
    n = data.draw(st.integers(1, 4))
    rows = [[F(0)] * j + [data.draw(RATIONALS.filter(bool))]
            + data.draw(st.lists(RATIONALS, min_size=n - j - 1, max_size=n - j - 1))
            for j in range(n)]
    rhs = data.draw(st.lists(RATIONALS, min_size=n, max_size=n))
    for _ in range(data.draw(st.integers(0, 3))):  # row j += c * row i keeps the rank
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        c = data.draw(RATIONALS)
        if i != j:
            rows[j] = [a + c * b for a, b in zip(rows[j], rows[i])]
            rhs[j] += c * rhs[i]
    for _ in range(data.draw(st.integers(0, 4))):
        cs = data.draw(st.lists(RATIONALS, min_size=n, max_size=n))
        rows.append([sum((c * row[j] for c, row in zip(cs, rows)), F(0)) for j in range(n)])
        rhs.append(sum((c * b for c, b in zip(cs, rhs)), F(0))
                   + (data.draw(RATIONALS.filter(bool)) if data.draw(st.booleans()) else 0))
    order = data.draw(st.permutations(range(len(rows))))
    rows, rhs = [rows[i] for i in order], [rhs[i] for i in order]
    nonneg = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    assert_bland_or_read_off(rows, rhs, nonneg)
    kept, contradiction = oracle_row_reduce(
        [{**{j: a for j, a in enumerate(row) if a}, n: b} for row, b in zip(rows, rhs)], n)
    expected = None if contradiction else (tuple(kept[c].get(n, F(0)) for c in range(n)), ())
    assert solve_dense(rows, rhs) == expected


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_certificates_from_the_kept_rows_match_the_dense_oracle(data):
    # row scales s_i != 1, duplicates and multiples of other rows, and a row
    # that contradicts one or is positive on the nonnegative columns with
    # b < 0, in any order: the block pass over the kept rows alone gives the
    # certificate and pivots of the oracle's full [A | b | I] pass
    n = data.draw(st.integers(1, 4))
    rows = data.draw(st.lists(
        st.lists(RATIONALS, min_size=n, max_size=n), min_size=1, max_size=4
    ))
    rhs = data.draw(st.lists(RATIONALS, min_size=len(rows), max_size=len(rows)))
    nonneg = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(rows) - 1))
        c = data.draw(st.sampled_from([F(1), F(-2, 3), F(5, 7)]))
        rows.append([c * a for a in rows[i]])
        rhs.append(c * rhs[i])
    if data.draw(st.booleans()):  # contradicts row i
        i = data.draw(st.integers(0, len(rows) - 1))
        rows.append(list(rows[i]))
        rhs.append(rhs[i] + data.draw(RATIONALS.filter(bool)))
    else:  # no nonnegative x meets it
        rows.append([F(1, data.draw(st.integers(2, 5))) if f else F(0) for f in nonneg])
        rhs.append(F(-1, data.draw(st.integers(2, 5))))
    order = data.draw(st.permutations(range(len(rows))))
    rows, rhs = [rows[i] for i in order], [rhs[i] for i in order]
    assume(any(s > 1 for s, _ in problem(rows, rhs, nonneg).integer_rows))
    assert assert_bland_or_read_off(rows, rhs, nonneg).status == "infeasible"


@pytest.mark.parametrize("rows, rhs, nonneg, status, pivots", [
    # rank 2, the only solution (2, -1) breaks a sign: phase 1 certifies
    ([[1, 1], [1, -1]], [1, 3], [True, True], "infeasible", None),
    ([[1, 1, 0], [1, -1, 0], [0, 0, 2]], [1, 3, -1], [False, True, True], "infeasible", None),
    # the negative coordinates are free columns: read off
    ([[1, 1], [1, -1]], [1, 3], [True, False], "feasible", 0),
    ([[1, 1, 0], [1, -1, 0], [0, 0, 2]], [1, 3, -1], [True, False, False], "feasible", 0),
    ([[0, 3], [2, 0], [2, 3]], [-3, 4, 1], [False, False], "feasible", 0),
])
def test_rank_n_systems(rows, rhs, nonneg, status, pivots):
    sol = assert_bland_or_read_off(rows, rhs, nonneg)
    assert sol.status == status
    if pivots is None:  # the oracle's Bland path, pivot for pivot
        assert sol.pivots == oracle_bland_phase1(rows, rhs, nonneg)[3] > 0
    else:
        assert sol.pivots == pivots


@pytest.mark.parametrize("check, rows, rhs, nonneg, vector, message", [
    (_verify_witness, [[1]], [1], [True], [F(0)], "does not satisfy an equality row"),
    (_verify_witness, [[1, 1]], [0], [True, True], [F(1), F(-1)],
     "violates a nonnegativity flag"),
    (_verify_certificate, [[1]], [1], [True], [F(-1)], "does not separate the right-hand side"),
    (_verify_certificate, [[1]], [1], [False], [F(1)], "fails on a free column"),
    (_verify_certificate, [[1]], [1], [True], [F(1)], "fails on a nonnegative column"),
], ids=["witness-row", "witness-sign", "certificate-rhs", "certificate-free",
        "certificate-nonneg"])
def test_self_checks_reject_a_wrong_vector(check, rows, rhs, nonneg, vector, message):
    with pytest.raises(AssertionError, match=message):
        check(problem(rows, rhs, nonneg), vector)


# two rows over the denominators 3 and 7; column 0 is free
MIXED_ROWS = [[F(1, 3), F(2, 3), F(-1, 3)], [F(1, 7), F(3, 7), F(2, 7)]]
MIXED_NONNEG = [False, True, True]


def test_integer_witness_check_rejects_a_doubled_witness():
    x = (F(1), F(1, 2), F(1, 2))  # b = (1/2, 1/2)
    rhs = [sum(a * v for a, v in zip(row, x)) for row in MIXED_ROWS]
    p = problem(MIXED_ROWS, rhs, MIXED_NONNEG)
    _verify_witness(p, x)
    with pytest.raises(AssertionError, match="does not satisfy an equality row"):
        _verify_witness(p, tuple(2 * v for v in x))


@pytest.mark.parametrize("y, message", [
    ((F(3), F(-14)), "does not separate the right-hand side"),  # y.b = 0
    ((F(3), F(-6)), "fails on a free column"),  # y.A = 1/7 on column 0
])
def test_integer_certificate_check_rejects_bad_evidence(y, message):
    p = problem(MIXED_ROWS, [F(2, 3), F(1, 7)], MIXED_NONNEG)
    _verify_certificate(p, (F(3, 5), F(-7, 5)))  # y.A = (0, -1/5, -3/5), y.b = 1/5
    assert oracle_is_farkas(MIXED_ROWS, [F(2, 3), F(1, 7)], (F(3, 5), F(-7, 5)))
    with pytest.raises(AssertionError, match=message):
        _verify_certificate(p, y)

