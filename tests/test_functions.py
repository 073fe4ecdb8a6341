"""Translations, translation matrices, and measure-averaged translates."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

from semihyp.algebra import (
    DimensionMismatch,
    Measure,
    PreconditionError,
    convolve,
    opposite,
    point_mass,
    zero_measure,
)
from semihyp.functions import (
    PointFunction,
    averaged_translate,
    constant_function,
    indicator,
    left_translate,
    translation_matrix,
)

F = Fraction


def fn(shg, *values) -> PointFunction:
    return PointFunction(shg.space, tuple(F(v) for v in values))


def random_measure(shg, rng) -> Measure:
    return Measure(
        shg.space,
        tuple(F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(shg.n)),
    )


def random_function(shg, rng) -> PointFunction:
    return PointFunction(
        shg.space,
        tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(shg.n)),
    )


def test_left_translate_group_swap(z2):
    f = fn(z2, 3, 7)
    assert left_translate("1", f, z2).values == (F(7), F(3))


def test_left_translate_t3_entry(t3):
    f = fn(t3, 2, 5, 11)
    out = left_translate("a", f, t3)
    # (L_a f)(b) integrates f against p_a * p_b = (0, 1/2, 1/2)
    assert out("b") == F(1, 2) * f("a") + F(1, 2) * f("b")


def test_left_translate_identity(t3):
    f = fn(t3, 1, 2, 3)
    assert left_translate("e", f, t3).values == f.values


def test_right_translate_group_swap(z2):
    # (R_t f)(x) integrates f against p_x * p_t: L_t on the opposite
    f = fn(z2, 3, 7)
    assert left_translate("1", f, opposite(z2)).values == (F(7), F(3))


def test_right_translate_left_zero(lz2):
    f = fn(lz2, 4, 9)
    for t in range(2):
        assert left_translate(t, f, opposite(lz2)).values == f.values


def test_right_translate_t3_entry(t3):
    f = fn(t3, 2, 5, 11)
    out = left_translate("b", f, opposite(t3))
    assert out("a") == F(1, 2) * f("a") + F(1, 2) * f("b")


def test_opposite_transposes_the_table(corpus):
    for _, shg in corpus:
        op = opposite(shg)
        assert op.space == shg.space
        for x, y in product(range(shg.n), repeat=2):
            assert op.table.entries[x][y] == shg.table.entries[y][x]
        assert op.is_associative == shg.is_associative
        assert opposite(op).table == shg.table


def test_translation_requires_associativity(t3_corrupted):
    with pytest.raises(PreconditionError):
        left_translate("a", fn(t3_corrupted, 1, 2, 3), t3_corrupted)


def test_translation_matrix_z2_swap(z2):
    m = translation_matrix("1", z2)
    assert m.rows == ((F(0), F(1)), (F(1), F(0)))


def test_translation_matrix_left_zero(lz2):
    m = translation_matrix("a", lz2)
    assert m.rows == ((F(1), F(0)), (F(1), F(0)))


def test_translation_matrix_t3_rows(t3):
    m = translation_matrix("a", t3)
    assert m.rows[0] == point_mass(t3.space, "a").weights
    assert m.rows[1] == (F(1, 4), F(1, 4), F(1, 2))
    assert m.rows[2] == (F(0), F(1, 2), F(1, 2))


def test_translation_matrix_rows_stochastic(corpus):
    for _, shg in corpus:
        for s in range(shg.n):
            for row in translation_matrix(s, shg).rows:
                assert all(w >= 0 for w in row)
                assert sum(row, F(0)) == 1


def test_matrix_faithfulness(corpus):
    rng = random.Random(11)
    for _, shg in corpus:
        f = random_function(shg, rng)
        for s in range(shg.n):
            assert translation_matrix(s, shg).apply(f).values == left_translate(
                s, f, shg
            ).values
            op = opposite(shg)
            assert translation_matrix(s, op).apply(f).values == left_translate(
                s, f, op
            ).values


def test_anti_homomorphism_law(corpus):
    # M_t M_s = sum_u (p_s*p_t)(u) M_u, exactly, for every pair
    for _, shg in corpus:
        n = shg.n
        mats = [translation_matrix(s, shg).rows for s in range(n)]
        for s, t in product(range(n), repeat=2):
            weights = shg.table.entries[s][t].weights
            lhs = tuple(
                tuple(
                    sum((mats[t][y][u] * mats[s][u][z] for u in range(n)), F(0))
                    for z in range(n)
                )
                for y in range(n)
            )
            rhs = tuple(
                tuple(
                    sum((weights[u] * mats[u][y][z] for u in range(n)), F(0))
                    for z in range(n)
                )
                for y in range(n)
            )
            assert lhs == rhs, (shg.name, s, t)


def test_module_law_random_measures(t3, s3_cosets):
    rng = random.Random(7)
    for shg in (t3, s3_cosets):
        for _ in range(100):
            mu = random_measure(shg, rng)
            nu = random_measure(shg, rng)
            f = random_function(shg, rng)
            lhs = averaged_translate(convolve(mu, nu, shg), f, shg)
            rhs = averaged_translate(nu, averaged_translate(mu, f, shg), shg)
            assert lhs.values == rhs.values


def test_constant_absorption(corpus):
    rng = random.Random(23)
    for _, shg in corpus:
        mu = random_measure(shg, rng)
        alpha = F(rng.randint(-5, 5), rng.randint(1, 4))
        out = averaged_translate(mu, constant_function(shg.space, alpha), shg)
        expected = constant_function(shg.space, alpha * mu.total())
        assert out.values == expected.values


def test_translation_commutation(corpus):
    rng = random.Random(31)
    for _, shg in corpus:
        mu = random_measure(shg, rng)
        f = random_function(shg, rng)
        op = opposite(shg)
        for t in range(shg.n):
            lhs = left_translate(t, averaged_translate(mu, f, shg), op)
            rhs = averaged_translate(mu, left_translate(t, f, op), shg)
            assert lhs.values == rhs.values


def left_orbit(f, shg) -> set:
    """The left translates {L_x f} as value vectors."""
    return {left_translate(x, f, shg).values for x in range(shg.n)}


def test_left_orbit_constants(t3):
    one = constant_function(t3.space, 1)
    assert left_orbit(one, t3) == {one.values}


def test_left_orbit_z2(z2):
    f = fn(z2, 0, 1)
    assert left_orbit(f, z2) == {(F(0), F(1)), (F(1), F(0))}


def test_left_orbit_left_zero(lz2):
    f = fn(lz2, 0, 1)
    assert left_orbit(f, lz2) == {(F(0), F(0)), (F(1), F(1))}


def test_averaged_translate_point_mass(t3):
    f = fn(t3, 1, 2, 3)
    for x in range(3):
        assert (
            averaged_translate(point_mass(t3.space, x), f, t3).values
            == left_translate(x, f, t3).values
        )


def test_averaged_translate_zero_measure(t3):
    f = fn(t3, 1, 2, 3)
    assert averaged_translate(zero_measure(t3.space), f, t3).values == (
        F(0),
        F(0),
        F(0),
    )


def test_averaged_translate_t3_average(t3):
    f = fn(t3, 1, 2, 3)
    mu = point_mass(t3.space, "a").scale(F(1, 2)) + point_mass(t3.space, "b").scale(
        F(1, 2)
    )
    expected = tuple(
        (a + b) / 2
        for a, b in zip(
            left_translate("a", f, t3).values, left_translate("b", f, t3).values
        )
    )
    assert averaged_translate(mu, f, t3).values == expected


def test_dimension_mismatch(z2, t3):
    with pytest.raises(DimensionMismatch):
        left_translate("1", fn(t3, 1, 2, 3), z2)
    with pytest.raises(DimensionMismatch):
        averaged_translate(point_mass(t3.space, 0), fn(z2, 1, 2), z2)


def test_point_function_sum_scale_and_indicator(t3, z2):
    f = fn(t3, F(1, 2), -1, 3)
    g = fn(t3, F(1, 3), 1, F(-1, 4))
    assert (f + g).values == (F(5, 6), F(0), F(11, 4))
    assert f.scale(F(-2, 3)).values == (F(-1, 3), F(2, 3), F(-2))
    assert f.scale(0).values == constant_function(t3.space, 0).values
    assert indicator(t3.space, 1).values == (F(0), F(1), F(0))
    assert indicator(t3.space, t3.space.label(2)) == fn(t3, 0, 0, 1)
    total = sum((indicator(t3.space, i).scale(v) for i, v in enumerate(f.values)),
                constant_function(t3.space, 0))
    assert total == f
    with pytest.raises(DimensionMismatch):
        f + constant_function(z2.space, 1)
