"""Generator-reduced kernels against their full-row versions.

On an associative probability table the mean LP, the fixed-point LP, the
dual system and a passing action-axiom scan keep only the rows of
`Semihypergroup.kept_points`.  These tests rebuild the full systems with
`tests/oracles.py` and hold the reduced kernels to the same answers: the
same status, witness and solution, and a certificate, padded back to the
full row indexing, that is a Farkas certificate of the full rows.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semihyp.actions import (
    AffineAction,
    AffineMap,
    Simplex,
    canonical_means_action,
    check_action_axiom,
    common_fixed_point_problem,
    common_fixed_point_solution,
    find_common_fixed_point,
    mean_via_dual_action,
)
from semihyp.algebra import opposite
from semihyp.amenability import left_invariance_problem, left_invariant_mean_solution
from semihyp.construct import CayleyTable, from_semigroup, symmetric_group
from semihyp.linprog import LPProblem, LPSolution, solve_linear_system, solve_lp_feasibility

from conftest import _closure_table
from oracles import (
    oracle_action_axiom_failure,
    oracle_dual_rows,
    oracle_invariance_rows,
    oracle_is_farkas,
    oracle_solve,
    table_of,
)
from test_algebra import quotients_and_triples

F = Fraction


@st.composite
def associative_structures(draw):
    """A coset or double-coset space of S3 or S4, a 3-point structure, or
    the semigroup (a monoid half the time) of 1-3 random maps of a k-point
    set with at most 9 elements, relabelled; or the opposite of one."""
    if draw(st.booleans()):
        shg = draw(st.sampled_from(quotients_and_triples()))
    else:
        k = draw(st.integers(1, 4))
        gens = draw(st.lists(st.tuples(*[st.integers(0, k - 1)] * k),
                             min_size=1, max_size=3))
        if draw(st.booleans()):
            gens.append(tuple(range(k)))
        table = _closure_table(gens, lambda f, g: tuple(f[g[t]] for t in range(k)), 9)
        order = draw(st.permutations(range(len(table))))
        where = {old: new for new, old in enumerate(order)}
        table = tuple(tuple(where[table[x][y]] for y in order) for x in order)
        shg = from_semigroup(CayleyTable(tuple(f"t{i}" for i in order), table))
    return opposite(shg) if draw(st.booleans()) else shg


def full_solution(shg):
    """The LP over every row (s, z), as the unreduced kernel posed it."""
    table, n = table_of(shg)
    rows, rhs = oracle_invariance_rows(table, n)
    return rows, rhs, solve_lp_feasibility(LPProblem.from_dense(rows, rhs, (True,) * n))


@settings(max_examples=150, deadline=None)
@given(associative_structures())
def test_reduced_mean_lp_matches_the_full_rows(shg):
    rows, rhs, full = full_solution(shg)
    solution = left_invariant_mean_solution(shg)
    assert left_invariance_problem(shg).n_rows == shg.n * len(shg.kept_points) + 1
    assert (solution.status, solution.witness) == (full.status, full.witness)
    if not solution.feasible:
        assert oracle_is_farkas(rows, rhs, solution.certificate)
        assert solution.certificate == full.certificate


@settings(max_examples=100, deadline=None)
@given(associative_structures(), st.data())
def test_reduced_dual_system_matches_the_full_one(shg, data):
    base = data.draw(st.integers(0, shg.n - 1))
    seen = []

    def spy(rows, rhs, n):
        seen.append((len(rows), solve_linear_system(rows, rhs, n)))
        return seen[-1][1]

    with mock.patch("semihyp.actions.solve_linear_system", spy):
        mean_via_dual_action(shg, base)
    # one-point structures pose the same system, with no unknowns
    table, n = table_of(shg)
    assert seen == [(n * len(shg.kept_points), oracle_solve(*oracle_dual_rows(table, n, base)))]


@settings(max_examples=100, deadline=None)
@given(associative_structures())
def test_reduced_fixed_point_lp_matches_the_full_rows(shg):
    # the canonical maps are A_s = M_s^T, so (A_s - I) x = 0 are the mean rows
    rows, rhs, full = full_solution(shg)
    action = canonical_means_action(shg)
    solution, point = common_fixed_point_solution(action)
    assert (solution.status, solution.witness) == (full.status, full.witness)
    assert find_common_fixed_point(action) == point == full.witness
    if not solution.feasible:
        assert oracle_is_farkas(rows, rhs, solution.certificate)
        assert solution.certificate == full.certificate


@settings(max_examples=100, deadline=None)
@given(associative_structures())
def test_mean_lp_is_the_canonical_fixed_point_lp(shg):
    # the paper's identity, row for row: the left invariant means are the
    # common fixed points of the canonical action on the simplex of means
    assert left_invariance_problem(shg) == common_fixed_point_problem(canonical_means_action(shg))


@settings(max_examples=100, deadline=None)
@given(associative_structures().filter(lambda shg: shg.n <= 8), st.data())
def test_reduced_action_axiom_matches_oracle(shg, data):
    # canonical maps with one entry moved: a failure at any pair, including
    # one the generator scan never visits, must report the first pair
    n = shg.n
    mats = [[list(row) for row in m.matrix] for m in canonical_means_action(shg).maps]
    if data.draw(st.booleans()):
        s, i, j = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        mats[s][i][j] += data.draw(st.sampled_from([F(1), F(-1, 2)]))
    offs = [[F(0)] * n for _ in range(n)]
    maps = tuple(AffineMap.from_dense(tuple(map(tuple, m)), tuple(b)) for m, b in zip(mats, offs))
    report = check_action_axiom(AffineAction(shg, Simplex(n), maps))
    expected = oracle_action_axiom_failure(*table_of(shg), mats, offs)
    assert report.passed == (expected is None)
    if expected is not None:
        s, t, part = expected
        pair = (s,) if part == "identity" else (s, t)
        assert report.witness == {"pair": tuple(shg.space.label(p) for p in pair),
                                  "part": part}


def test_fixed_point_referee_rejects_a_point_some_map_moves(z2):
    # the LP kept only the generator's rows; every map re-checks its answer
    wrong = LPSolution(status="feasible", witness=(F(1), F(0)))
    with mock.patch("semihyp.actions.solve_lp_feasibility", return_value=wrong):
        with pytest.raises(AssertionError, match="not fixed by every map"):
            common_fixed_point_solution(canonical_means_action(z2))


def test_action_axiom_scans_every_pair_when_the_identity_is_not_fixed():
    # lz2 with an identity adjoined: the generators x, y pass every pair
    # (s, g) below, while T_e, not idempotent, fails first at (e, e)
    shg = from_semigroup(CayleyTable(("e", "x", "y"), ((0, 1, 2), (1, 1, 1), (2, 2, 2))))
    assert shg.generators == (1, 2)
    maps = (
        AffineMap.from_dense(((F(1), F(0)), (F(0), F(2))), (F(0), F(0))),
        AffineMap.from_dense(((F(0), F(0)), (F(0), F(0))), (F(0), F(0))),
        AffineMap.from_dense(((F(0), F(0)), (F(0), F(0))), (F(1), F(0))),
    )
    report = check_action_axiom(AffineAction(shg, Simplex(2), maps))
    assert report.witness == {"pair": ("e", "e"), "part": "matrix"}


def test_certificate_is_padded_to_every_row_when_generators_are_fewer():
    # lz2 x Z3, (a, j)(b, k) = (a, j + k): no left invariant mean, and the
    # generators x1, y1 are points 0 and 2, so the kept blocks are not a prefix
    pts = [(0, 1), (0, 0), (1, 1), (0, 2), (1, 0), (1, 2)]
    labels = tuple(f"{'xy'[a]}{j}" for a, j in pts)
    table = tuple(tuple(pts.index((a, (j + k) % 3)) for _, k in pts) for a, j in pts)
    shg = from_semigroup(CayleyTable(labels, table))
    assert shg.generators == (0, 2)
    assert left_invariance_problem(shg).n_rows == 6 * 2 + 1
    # captured before the rows were reduced to the generators
    pinned = (F(-2), F(-1), F(1), F(0), F(-1)) + (F(0),) * 7 + (F(3),) + (F(0),) * 23 + (F(1),)
    assert left_invariant_mean_solution(shg).certificate == pinned
    assert common_fixed_point_solution(canonical_means_action(shg))[0].certificate == pinned
    rows, rhs = oracle_invariance_rows(*table_of(shg))
    assert len(pinned) == len(rows) == 6 * 6 + 1
    assert oracle_is_farkas(rows, rhs, pinned)


@functools.cache
def s5():
    return from_semigroup(symmetric_group(5))


def test_s5_mean_lp_keeps_the_generator_rows():
    shg = s5()
    problem = left_invariance_problem(shg)
    assert 0 not in shg.generators  # the identity e is point 0
    assert problem.n_rows == 120 * len(shg.generators) + 1 < 121 * 5
    assert solve_lp_feasibility(problem).witness == (F(1, 120),) * 120
