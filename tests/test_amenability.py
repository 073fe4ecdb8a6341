"""Invariant means: the LP search, verification, and the enumeration oracle."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semihyp import amenability
from semihyp.algebra import DimensionMismatch, PreconditionError, format_rational, opposite
from semihyp.amenability import (
    Mean,
    find_left_invariant_mean,
    is_left_amenable,
    left_invariant_mean_solution,
    uniform_mean,
    verify_left_invariant_mean,
)
from semihyp.construct import (
    coset_space,
    cyclic_group,
    from_semigroup,
    inversion_action,
    left_zero_semigroup,
    orbit_space,
    symmetric_group,
    triple_hypergroup,
)
from semihyp.functions import PointFunction

from conftest import make_t3, random_triple_params, right_zero_semigroup
from oracles import (
    oracle_gauss_solve,
    oracle_left_invariance_failure,
    oracle_lim_feasible,
    table_of,
)

F = Fraction


# built once: hypothesis examples share these immutable structures
MEAN_STRUCTURES = [
    make_t3(),
    from_semigroup(cyclic_group(3)),
    from_semigroup(left_zero_semigroup(3)),
    from_semigroup(right_zero_semigroup(3)),
    coset_space(symmetric_group(3), ["e", "(12)"]),
    orbit_space(inversion_action(cyclic_group(5))),
] + [triple_hypergroup(*tup) for tup in random_triple_params(3, seed=77)]


@pytest.fixture(scope="module")
def s4_structure():
    return from_semigroup(symmetric_group(4), name="s4")


def test_mean_validation(z2):
    with pytest.raises(ValueError):
        Mean(z2.space, (F(1, 2), F(1, 4)))
    with pytest.raises(ValueError):
        Mean(z2.space, (F(3, 2), F(-1, 2)))
    m = uniform_mean(z2.space)
    from semihyp.functions import PointFunction

    assert m(PointFunction(z2.space, (F(4), F(6)))) == 5


def test_find_mean_z2(z2):
    m = find_left_invariant_mean(z2)
    assert m.weights == (F(1, 2), F(1, 2))


def test_find_mean_left_zero_none(lz2):
    assert find_left_invariant_mean(lz2) is None
    solution = left_invariant_mean_solution(lz2)
    assert not solution.feasible and solution.certificate is not None


def test_find_mean_t3_matches_independent_solve(t3):
    m = find_left_invariant_mean(t3)
    assert m is not None
    # independent route: Gaussian elimination on the full invariance system
    table, n = table_of(t3)
    rows = []
    rhs = []
    for s in range(n):
        for z in range(n):
            rows.append(
                [table[(s, y)][z] - (F(1) if y == z else F(0)) for y in range(n)]
            )
            rhs.append(F(0))
    rows.append([F(1)] * n)
    rhs.append(F(1))
    solved = oracle_gauss_solve(rows, rhs)
    assert solved == (F(1, 9), F(4, 9), F(4, 9))
    assert m.weights == solved


def test_verify_mean_examples(z2):
    assert verify_left_invariant_mean((F(1, 2), F(1, 2)), z2).passed
    report = verify_left_invariant_mean((F(1), F(0)), z2)
    assert not report.passed
    assert report.witness["point"] == "1"


def test_verify_mean_one_point_space():
    one = from_semigroup(cyclic_group(1), name="one")
    assert verify_left_invariant_mean((F(1),), one).passed
    assert find_left_invariant_mean(one).weights == (F(1),)


def test_verify_rejects_non_mean(z2):
    report = verify_left_invariant_mean((F(3, 2), F(-1, 2)), z2)
    assert not report.passed
    assert "not a mean" in report.detail


def test_uniform_mean_on_groups(z2, z4, s3):
    for shg in (z2, z4, s3):
        assert verify_left_invariant_mean(uniform_mean(shg.space), shg).passed
        assert verify_left_invariant_mean(uniform_mean(shg.space), opposite(shg)).passed


def test_is_left_amenable(t3, lz2, corpus):
    assert is_left_amenable(t3)
    assert not is_left_amenable(lz2)
    for _, shg in corpus:
        assert is_left_amenable(shg) == (find_left_invariant_mean(shg) is not None)


def test_left_zero_right_amenable(lz2):
    # right translation is trivial on a left-zero semigroup, so every mean
    # is right invariant even though no left invariant mean exists
    op = opposite(lz2)
    m = find_left_invariant_mean(op)
    assert m is not None
    assert verify_left_invariant_mean(m, op).passed
    assert verify_left_invariant_mean(uniform_mean(lz2.space), op).passed


def test_soundness_on_corpus(corpus):
    for name, shg in corpus:
        m = find_left_invariant_mean(shg)
        if m is not None:
            assert verify_left_invariant_mean(m, shg).passed, name


def test_completeness_matches_enumeration(corpus):
    # brute-force vertex enumeration referees the LP verdict (n <= 6)
    for name, shg in corpus:
        if shg.n > 6:
            continue
        table, n = table_of(shg)
        assert oracle_lim_feasible(table, n) == is_left_amenable(shg), name


def test_random_triples_amenable():
    for tup in random_triple_params(8, seed=555):
        shg = triple_hypergroup(*tup)
        m = find_left_invariant_mean(shg)
        assert m is not None
        assert verify_left_invariant_mean(m, shg).passed


def test_requires_associativity(t3_corrupted):
    with pytest.raises(PreconditionError):
        find_left_invariant_mean(t3_corrupted)


def test_s4_scale(s4_structure):
    # order-24 group: axioms hold, the LP finds the uniform mean, and the
    # uniform mean verifies exactly
    assert s4_structure.probability_report.passed
    assert s4_structure.is_associative
    m = find_left_invariant_mean(s4_structure)
    assert m is not None
    assert m.weights == (F(1, 24),) * 24
    assert verify_left_invariant_mean(m, s4_structure).passed


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_verify_mean_matches_oracle(data):
    shg = data.draw(st.sampled_from(MEAN_STRUCTURES))
    raw = data.draw(st.lists(st.integers(0, 3), min_size=shg.n, max_size=shg.n))
    if not any(raw):
        raw[0] = 1
    weights = tuple(F(v, sum(raw)) for v in raw)
    table, n = table_of(shg)
    transposed = {(t, x): w for (x, t), w in table.items()}
    for structure, tab in ((shg, table), (opposite(shg), transposed)):
        report = verify_left_invariant_mean(weights, structure)
        expected = oracle_left_invariance_failure(tab, n, weights)
        assert report.passed == (expected is None)
        if expected is not None:
            s, p, lhs, rhs = expected
            assert report.witness == {
                "point": shg.space.label(s),
                "indicator": shg.space.label(p),
                "lhs": lhs,
                "rhs": rhs,
            }


def test_verify_right_mean_failure_report():
    # on a right-zero semigroup R_t 1_p is the constant 1_p(t); R_t is L_t
    # on the opposite, so the report names L_b
    rz2 = from_semigroup(right_zero_semigroup(2), name="rz2")
    report = verify_left_invariant_mean((F(1), F(0)), opposite(rz2))
    assert not report.passed
    assert report.detail == "m(L_b 1_a) = 0 but m(1_a) = 1"
    assert report.witness == {"point": "b", "indicator": "a", "lhs": 0, "rhs": 1}


def test_verify_failure_report_past_the_digit_limit(z2):
    # w's denominator has about 8000 digits, past the int-string limit
    w = F(1, int("1" * 4000 + "3") * int("1" * 4000 + "7"))
    report = verify_left_invariant_mean((w, 1 - w), z2)
    assert not report.passed
    assert report.witness == {"point": "1", "indicator": "0", "lhs": 1 - w, "rhs": w}
    assert report.detail == (
        f"m(L_1 1_0) = {format_rational(1 - w)} but m(1_0) = {format_rational(w)}")


def test_mean_rejects_a_function_on_another_space(z2, t3):
    # zip used to stop after two values: the uniform mean of Z2 took (1, 2, 3) to 3/2
    with pytest.raises(DimensionMismatch):
        uniform_mean(z2.space)(PointFunction(t3.space, (F(1), F(2), F(3))))


def test_verify_pushes_only_the_kept_points_on_a_pass(monkeypatch, s4_structure):
    # a pass on the generators is a pass on every point (see `kept_points`)
    calls = []
    original = amenability._combine
    monkeypatch.setattr(amenability, "_combine", lambda terms: calls.append(1) or original(terms))
    assert verify_left_invariant_mean(uniform_mean(s4_structure.space), s4_structure).passed
    assert len(calls) == len(s4_structure.kept_points) == 3


def test_verify_rejects_a_candidate_that_is_too_long(z2):
    # zip used to drop the extra weight and pass the candidate
    with pytest.raises(DimensionMismatch):
        verify_left_invariant_mean((F(1, 2), F(1, 2), F(0)), z2)


def test_verify_rejects_a_candidate_that_is_too_short():
    # zip used to stop after the one weight, whose pushforward agreed with it
    rz2 = from_semigroup(right_zero_semigroup(2), name="rz2")
    with pytest.raises(DimensionMismatch):
        verify_left_invariant_mean((F(1),), rz2)
