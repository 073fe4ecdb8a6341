"""Affine actions: axioms, invariance, seminorms, fixed points, dual route."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semihyp import actions
from semihyp.actions import (
    AffineAction,
    AffineFunctional,
    AffineMap,
    CarrierError,
    Hull,
    Seminorm,
    SeminormError,
    Simplex,
    canonical_means_action,
    carrier_centroid,
    carrier_contains,
    carrier_vertices,
    check_action_axiom,
    check_invariance,
    check_nonexpansive,
    common_fixed_point_solution,
    dual_action,
    equicontinuity_bound,
    find_common_fixed_point,
    fixed_point_problem,
    identity_map,
    induced_function,
    iterate_fixed_point,
    mean_via_dual_action,
    operator_seminorm,
    uniform_seminorms,
)
from semihyp.algebra import (
    ConvolutionTable,
    Measure,
    PointSpace,
    PreconditionError,
    Semihypergroup,
    opposite,
)
from semihyp.amenability import (
    Mean,
    find_left_invariant_mean,
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
from semihyp.functions import PointFunction, averaged_translate, left_translate

from conftest import make_t3, random_triple_params, right_zero_semigroup
from oracles import (
    _left_matrices,
    oracle_action_axiom_failure,
    oracle_fixed_point_rows,
    oracle_invariance_failure,
    oracle_iterate,
    oracle_operator_seminorm,
    table_of,
)
from test_algebra import SIGNED, conjugated_cyclic_table, signed_tables, structure_of

F = Fraction


def constant_action(shg, c):
    d = len(c)
    zero = tuple(tuple(F(0) for _ in range(d)) for _ in range(d))
    m = AffineMap.from_dense(matrix=zero, offset=tuple(F(v) for v in c))
    return AffineAction(structure=shg, carrier=Simplex(d), maps=(m,) * shg.n)


def identity_action(shg, carrier):
    d = carrier.dim if isinstance(carrier, Simplex) else len(carrier.points[0])
    return AffineAction(
        structure=shg, carrier=carrier, maps=(identity_map(d),) * shg.n
    )


# ---------------------------------------------------------------------------
# carriers


def test_carrier_membership_simplex():
    s = Simplex(3)
    assert carrier_contains(s, (F(1, 2), F(1, 4), F(1, 4)))
    assert not carrier_contains(s, (F(1, 2), F(1, 2), F(1, 2)))
    assert not carrier_contains(s, (F(3, 2), F(-1, 2), F(0)))


def test_carrier_membership_hull():
    h = Hull(((F(0), F(0)), (F(2), F(0)), (F(0), F(2))))
    assert carrier_contains(h, (F(1), F(1)))  # midpoint of two vertices
    assert carrier_contains(h, (F(1, 2), F(1, 2)))
    assert not carrier_contains(h, (F(2), F(2)))


def test_carrier_centroid():
    assert carrier_centroid(Simplex(2)) == (F(1, 2), F(1, 2))
    h = Hull(((F(0), F(0)), (F(3), F(0)), (F(0), F(3))))
    assert carrier_centroid(h) == (F(1), F(1))


# ---------------------------------------------------------------------------
# action axiom


def test_canonical_action_axiom_passes(corpus):
    for name, shg in corpus:
        action = canonical_means_action(shg)
        assert action.axiom_report.passed, name
        assert action.invariance_report.passed, name
        assert dual_action(shg).action_report.passed, name


def test_canonical_action_requires_probability_rows():
    # p*p = 2p is associative ((p*p)*p = 4p = p*(p*p)) but not a probability
    space = PointSpace(("p",))
    table = ConvolutionTable.from_measures(space, ((Measure(space, (F(2),)),),))
    doubled = Semihypergroup(table, name="doubled")
    assert doubled.is_associative
    with pytest.raises(PreconditionError, match="probability"):
        canonical_means_action(doubled)


def test_constant_action_passes_without_identity(lz2):
    action = constant_action(lz2, (F(1, 2), F(1, 2)))
    assert check_action_axiom(action).passed
    assert check_invariance(action).passed


def test_constant_action_fails_identity_condition(z2):
    # with an identity point e the action definition forces T_e = id
    action = constant_action(z2, (F(1, 2), F(1, 2)))
    report = check_action_axiom(action)
    assert not report.passed
    assert report.witness["part"] == "identity"


def test_non_involutive_map_fails_axiom(z2):
    t1 = AffineMap.from_dense(
        matrix=((F(0), F(1)), (F(1, 2), F(1, 2))), offset=(F(0), F(0))
    )
    action = AffineAction(
        structure=z2, carrier=Simplex(2), maps=(identity_map(2), t1)
    )
    report = check_action_axiom(action)
    assert not report.passed
    assert report.witness["pair"] == ("1", "1")


def test_action_axiom_ignores_the_augmented_identity_row():
    # Z2 with every weight doubled: p_x * p_y = 2 p_{x+y} is associative and
    # has no identity.  T_s = 2I gives A_s A_t = 4I = 2 * 2I with zero
    # offsets, so the axiom holds although 1 != sum_z w_z = 2 in the identity
    # row of the augmented matrices.
    space = PointSpace(("0", "1"))
    table = ConvolutionTable.from_measures(space, tuple(
        tuple(Measure(space, (F(2 * ((x + y) % 2 == z)) for z in range(2)))
              for y in range(2))
        for x in range(2)
    ))
    doubled = Semihypergroup(table, name="z2-doubled")
    assert doubled.is_associative and doubled.identity is None
    twice = AffineMap.from_dense(matrix=((F(2), F(0)), (F(0), F(2))), offset=(F(0), F(0)))
    action = AffineAction(structure=doubled, carrier=Simplex(2), maps=(twice, twice))
    assert check_action_axiom(action).passed


def test_axiom_requires_associative(t3_corrupted):
    action = identity_action(t3_corrupted, Simplex(3))
    with pytest.raises(PreconditionError):
        check_action_axiom(action)


def test_action_axiom_closure_pointwise(t3, s3_cosets):
    # verified matrix identity implies the pointwise law at every x in C
    rng = random.Random(17)
    for shg in (t3, s3_cosets):
        action = canonical_means_action(shg)
        n = shg.n
        for _ in range(20):
            cuts = sorted(rng.randint(0, 24) for _ in range(n - 1))
            parts = [a - b for a, b in zip(cuts + [24], [0] + cuts)]
            x = tuple(F(p, 24) for p in parts)
            assert sum(x) == 1
            for s, t in product(range(n), repeat=2):
                lhs = action.maps[s].apply(action.maps[t].apply(x))
                weights = shg.table.entries[s][t].weights
                rhs = tuple(
                    sum(
                        (weights[z] * action.maps[z].apply(x)[i] for z in range(n)),
                        F(0),
                    )
                    for i in range(n)
                )
                assert lhs == rhs


# built once: hypothesis examples share these immutable associative structures
AXIOM_STRUCTURES = [
    make_t3(),
    from_semigroup(cyclic_group(1)),
    from_semigroup(cyclic_group(2)),
    from_semigroup(cyclic_group(4)),
    from_semigroup(left_zero_semigroup(3)),
    from_semigroup(left_zero_semigroup(4)),
    from_semigroup(right_zero_semigroup(2)),
    coset_space(symmetric_group(3), ["e", "(12)"]),
    orbit_space(inversion_action(cyclic_group(4))),
] + [triple_hypergroup(*tup) for tup in random_triple_params(2, seed=5)]
ENTRIES = st.sampled_from([F(0), F(0), F(0), F(1), F(-1), F(1, 2), F(-1, 3), F(2)])


@st.composite
def structure_maps(draw):
    """An associative structure of 1-4 points with one affine map per point.

    Either its canonical maps with up to two entries (matrix or offset)
    perturbed, or maps of dimension 1-3 whose matrices are each zero, the
    identity or random, with random offsets.  Zero and identity matrices
    let the matrix identity pass, so offset and identity failures occur.
    """
    shg = draw(st.sampled_from(AXIOM_STRUCTURES))
    n = shg.n
    if draw(st.booleans()):
        d = n
        maps = canonical_means_action(shg).maps
        mats = [[list(row) for row in m.matrix] for m in maps]
        offs = [[F(0)] * d for _ in range(n)]
        for _ in range(draw(st.integers(0, 2))):
            s, i, j = (draw(st.integers(0, k - 1)) for k in (n, d, d + 1))
            delta = draw(ENTRIES.filter(bool))
            if j == d:
                offs[s][i] += delta
            else:
                mats[s][i][j] += delta
        return shg, mats, offs
    d = draw(st.integers(1, 3))
    mats = []
    for _ in range(n):
        kind = draw(st.sampled_from(["zero", "identity", "random"]))
        mats.append([
            [
                draw(ENTRIES) if kind == "random"
                else F(1 if kind == "identity" and i == j else 0)
                for j in range(d)
            ]
            for i in range(d)
        ])
    offs = [draw(st.lists(ENTRIES, min_size=d, max_size=d)) for _ in range(n)]
    return shg, mats, offs


@settings(max_examples=300, deadline=None)
@given(structure_maps())
def test_action_axiom_matches_oracle(drawn):
    shg, mats, offs = drawn
    maps = tuple(
        AffineMap.from_dense(matrix=tuple(map(tuple, m)), offset=tuple(b))
        for m, b in zip(mats, offs)
    )
    carrier = Simplex(len(offs[0]))
    report = check_action_axiom(AffineAction(structure=shg, carrier=carrier, maps=maps))
    table, n = table_of(shg)
    expected = oracle_action_axiom_failure(table, n, mats, offs)
    assert report.passed == (expected is None)
    if expected is not None:
        s, t, part = expected
        pair = (s,) if part == "identity" else (s, t)
        assert report.witness == {
            "pair": tuple(shg.space.label(i) for i in pair),
            "part": part,
        }


# ---------------------------------------------------------------------------
# invariance


def test_invariance_identity_and_doubling(z2):
    assert check_invariance(identity_action(z2, Simplex(2))).passed
    doubling = AffineMap.from_dense(matrix=((F(2), F(0)), (F(0), F(1))), offset=(F(0), F(0)))
    action = AffineAction(
        structure=z2, carrier=Simplex(2), maps=(identity_map(2), doubling)
    )
    report = check_invariance(action)
    assert not report.passed
    assert report.witness["point"] == "1"


def test_invariance_hull_carrier(z2):
    h = Hull(((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))
    swap = AffineMap.from_dense(matrix=((F(0), F(1)), (F(1), F(0))), offset=(F(0), F(0)))
    action = AffineAction(structure=z2, carrier=h, maps=(identity_map(2), swap))
    assert check_invariance(action).passed
    shift = AffineMap.from_dense(
        matrix=identity_map(2).matrix, offset=(F(2), F(0))
    )
    bad = AffineAction(structure=z2, carrier=h, maps=(identity_map(2), shift))
    assert not check_invariance(bad).passed


_ENTRIES = st.sampled_from([F(-1), F(-1, 2), F(0), F(0), F(0), F(1, 3), F(1, 2), F(1)])


@st.composite
def simplex_actions(draw):
    """n maps of the d-simplex, each stochastic (probability columns, zero
    offset), constant (zero matrix, probability offset) or arbitrary, then
    up to two small signed changes: an entry overwritten, or a value moved
    between two offsets.  Passing actions and near misses both occur."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 4))

    def probability() -> list:
        raw = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
        if not any(raw):
            raw[0] = 1
        return [F(v, sum(raw)) for v in raw]

    mats, offs = [], []
    for _ in range(n):
        kind = draw(st.sampled_from(["stochastic", "constant", "arbitrary"]))
        if kind == "arbitrary":
            mat = [draw(st.lists(_ENTRIES, min_size=d, max_size=d)) for _ in range(d)]
            off = draw(st.lists(_ENTRIES, min_size=d, max_size=d))
        elif kind == "constant":
            mat, off = [[F(0)] * d for _ in range(d)], probability()
        else:
            cols = [probability() for _ in range(d)]
            mat, off = [[cols[j][i] for j in range(d)] for i in range(d)], [F(0)] * d
        mats.append(mat)
        offs.append(off)
    for _ in range(draw(st.integers(0, 2))):
        s, i, j = (draw(st.integers(0, k - 1)) for k in (n, d, d))
        v = draw(_ENTRIES)
        if draw(st.booleans()):
            mats[s][i][j] = v
        else:  # move v between two offsets: column sums stay, signs may not
            offs[s][i] += v
            offs[s][j] -= v
    return mats, offs


@settings(max_examples=300, deadline=None)
@given(simplex_actions())
def test_simplex_invariance_matches_the_vertex_loop(maps):
    mats, offs = maps
    shg = from_semigroup(cyclic_group(len(mats)))
    carrier = Simplex(len(offs[0]))
    action = AffineAction(shg, carrier, tuple(AffineMap.from_dense(m, b) for m, b in zip(mats, offs)))
    report = check_invariance(action)
    failure = oracle_invariance_failure(mats, offs)
    assert report.passed == (failure is None)
    if failure is not None:
        s, j = failure
        vertex = tuple(F(int(i == j)) for i in range(len(offs[0])))
        assert report.witness == {
            "point": shg.space.label(s),
            "vertex": vertex,
            "image": tuple(mats[s][i][j] + offs[s][i] for i in range(len(offs[0]))),
        }


# ---------------------------------------------------------------------------
# seminorms


def test_operator_seminorm_formulas():
    m = (((1, F(3, 2)),), ((0, F(1)),))  # [[0, 3/2], [1, 0]]
    ones = (F(1), F(1))
    assert operator_seminorm(m, Seminorm("l1", ones)) == F(3, 2)
    assert operator_seminorm(m, Seminorm("linf", ones)) == F(3, 2)
    weighted = Seminorm("l1", (F(2), F(1)))
    # columns: |0|*2 + |1|*1 = 1 over weight 2; |3/2|*2 over weight 1 = 3
    assert operator_seminorm(m, weighted) == F(3)


def test_operator_seminorm_zero_weight_unbounded():
    m = (((0, F(1)), (1, F(1))), ((1, F(1)),))  # [[1, 1], [0, 1]]
    p = Seminorm("l1", (F(1), F(0)))
    assert operator_seminorm(m, p) is None


SPARSE_ENTRIES = st.sampled_from(
    [F(0)] * 6 + [F(1), F(-1), F(1, 2), F(-3, 2), F(2, 3), F(5)])


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.lists(st.lists(SPARSE_ENTRIES, min_size=d, max_size=d), min_size=d, max_size=d),
    st.lists(st.sampled_from([F(0), F(0), F(1), F(1, 3), F(2), F(7, 4)]),
             min_size=d, max_size=d),
)))
def test_sparse_operator_seminorm_matches_the_dense_oracle(drawn):
    matrix, weights = drawn
    m = AffineMap.from_dense(matrix, (F(0),) * len(weights))
    assert m.matrix == tuple(map(tuple, matrix))
    for kind in ("l1", "linf"):
        assert operator_seminorm(m.rows, Seminorm(kind, weights)) == \
            oracle_operator_seminorm(matrix, kind, weights)


@pytest.mark.parametrize("weights, l1, linf", [
    ((F(1),) * 3, F(2), F(5, 3)),  # uniform: no weight divides or multiplies
    ((F(1), F(2), F(1)), F(3), F(3)),
    ((F(1), F(0), F(1)), None, None),
])
def test_operator_seminorm_pinned(weights, l1, linf):
    matrix = [[F(1, 2), F(-1, 3), F(0)], [F(1, 2), F(0), F(1)], [F(0), F(2, 3), F(-1)]]
    m = AffineMap.from_dense(matrix, (F(0),) * 3)
    assert operator_seminorm(m.rows, Seminorm("l1", weights)) == l1
    assert operator_seminorm(m.rows, Seminorm("linf", weights)) == linf
    assert (l1, linf) == tuple(oracle_operator_seminorm(matrix, kind, weights)
                               for kind in ("l1", "linf"))


@pytest.mark.parametrize("rows", [
    (((1, F(1)), (0, F(1))), ()),  # unsorted columns
    (((0, F(1)), (0, F(2))), ()),  # duplicate column
    (((-1, F(1)),), ()),  # negative column
    (((2, F(1)),), ()),  # column out of range
    (((0, F(0)),), ()),  # zero entry
    (((0, 1),), ()),  # int entry
    (((0, 0.5),), ()),  # float entry
    ((),),  # too few rows
    ((), (), ()),  # too many rows
])
def test_affine_map_rejects_invalid_sparse_rows(rows):
    with pytest.raises(ValueError):
        AffineMap(rows, (F(0), F(0)))


@pytest.mark.parametrize("matrix", [
    ((F(1), F(0)), (F(1),)),  # ragged
    ((F(1), F(0), F(0)), (F(0), F(1), F(0))),  # 2 x 3
    ((F(1), F(0)), (F(0), F(1)), (F(0), F(0))),  # 3 x 2
])
def test_from_dense_rejects_a_matrix_that_is_not_square(matrix):
    with pytest.raises(ValueError):
        AffineMap.from_dense(matrix, (F(0), F(0)))


def test_seminorm_value_rejects_a_point_of_another_dimension():
    # zip used to stop after the one weight: the l1 value of (3, 4) was 3
    for kind in ("l1", "linf"):
        with pytest.raises(SeminormError):
            Seminorm(kind, (F(1),)).value((F(3), F(4)))


def test_seminorm_value_weighs_absolute_coordinates():
    # the zero weight hides the largest coordinate; -3 counts as 3
    weights, x = (F(2), F(0), F(1, 2)), (F(-3), F(10), F(1, 2))
    assert Seminorm("l1", weights).value(x) == F(25, 4)
    assert Seminorm("linf", weights).value(x) == F(6)
    with pytest.raises(SeminormError):
        Seminorm("linf", weights).value(x[:2])


def test_equicontinuity_bound_canonical(corpus):
    for name, shg in corpus:
        action = canonical_means_action(shg)
        l1 = Seminorm("l1", (F(1),) * shg.n)
        assert equicontinuity_bound(action, [l1]) == 1, name


def test_equicontinuity_bound_identity_and_doubling(z2):
    assert equicontinuity_bound(
        identity_action(z2, Simplex(2)), uniform_seminorms(2)
    ) == 1
    doubled = AffineMap.from_dense(matrix=((F(2), F(0)), (F(0), F(2))), offset=(F(0), F(0)))
    action = AffineAction(
        structure=z2,
        carrier=Hull(((F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)))),
        maps=(identity_map(2), doubled),
    )
    assert equicontinuity_bound(action, uniform_seminorms(2)) == 2


def test_nonexpansive_canonical_l1(corpus):
    for name, shg in corpus:
        action = canonical_means_action(shg)
        l1 = Seminorm("l1", (F(1),) * shg.n)
        assert check_nonexpansive(action, [l1]).passed, name


def test_nonexpansive_contraction(lz2):
    # x -> x/2 + c/2 with c in the carrier
    c = (F(1, 2), F(1, 2))
    half = AffineMap.from_dense(
        matrix=((F(1, 2), F(0)), (F(0), F(1, 2))),
        offset=(c[0] / 2, c[1] / 2),
    )
    action = AffineAction(structure=lz2, carrier=Simplex(2), maps=(half, half))
    assert check_nonexpansive(action, uniform_seminorms(2)).passed


def test_nonexpansive_fails_with_witness(z2):
    stretch = AffineMap.from_dense(matrix=((F(1), F(1, 2)), (F(0), F(1))), offset=(F(0), F(0)))
    action = AffineAction(
        structure=z2, carrier=Simplex(2), maps=(identity_map(2), stretch)
    )
    report = check_nonexpansive(action, [Seminorm("l1", (F(1), F(1)))])
    assert not report.passed
    assert report.witness["point"] == "1"
    assert report.witness["norm"] == F(3, 2)
    assert report.witness["seminorm"]["kind"] == "l1"


def test_fixpoint_checks_compute_each_operator_seminorm_once(monkeypatch):
    # the bound and both non-expansiveness checks share the action's norms
    action = canonical_means_action(from_semigroup(cyclic_group(3)))
    calls = []
    original = actions.operator_seminorm
    monkeypatch.setattr(actions, "operator_seminorm",
                        lambda m, p: calls.append(p) or original(m, p))
    seminorms = uniform_seminorms(3)
    assert equicontinuity_bound(action, seminorms) == 1
    assert check_nonexpansive(action, seminorms[:1]).passed
    assert check_nonexpansive(action, seminorms[1:]).passed
    assert sorted(calls, key=lambda p: p.kind) == [seminorms[0]] * 3 + [seminorms[1]] * 3


# ---------------------------------------------------------------------------
# common fixed points


def test_fixed_point_z2_canonical(z2):
    action = canonical_means_action(z2)
    assert find_common_fixed_point(action) == (F(1, 2), F(1, 2))


def test_fixed_point_identity_action_deterministic(t3):
    action = identity_action(t3, Simplex(3))
    point = find_common_fixed_point(action)
    assert point is not None and carrier_contains(Simplex(3), point)
    assert point == find_common_fixed_point(action)  # deterministic vertex


def test_fixed_point_left_zero_none(lz2):
    action = canonical_means_action(lz2)
    solution, point = common_fixed_point_solution(action)
    assert point is None
    assert solution.certificate is not None


def test_fixed_point_matches_mean_feasibility(corpus):
    for name, shg in corpus:
        action = canonical_means_action(shg)
        point = find_common_fixed_point(action)
        mean = find_left_invariant_mean(shg)
        assert (point is None) == (mean is None), name
        if point is not None:
            assert verify_left_invariant_mean(point, shg).passed, name


def test_fixed_point_hull_carrier(z2):
    h = Hull(((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))
    swap = AffineMap.from_dense(matrix=((F(0), F(1)), (F(1), F(0))), offset=(F(0), F(0)))
    action = AffineAction(structure=z2, carrier=h, maps=(identity_map(2), swap))
    point = find_common_fixed_point(action)
    assert point is not None
    assert point[0] == point[1]
    assert carrier_contains(h, point)


FP_ENTRIES = st.sampled_from([F(0), F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(2)])


@st.composite
def fixed_point_inputs(draw):
    """A simplex, or the hull of 1-5 points of R^d (so k != d is common) with
    zero and negative coordinates, and 1-3 maps, some with A_ii = 1 so that
    the -1 of A - I cancels there."""
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        carrier = Simplex(d)
    else:
        carrier = Hull(tuple(draw(st.lists(st.tuples(*[FP_ENTRIES] * d), min_size=1,
                                           max_size=5, unique=True))))
    mats = [[[draw(FP_ENTRIES) for _ in range(d)] for _ in range(d)]
            for _ in range(draw(st.integers(1, 3)))]
    for mat in mats:
        for i in draw(st.sets(st.integers(0, d - 1))):
            mat[i][i] = F(1)
    return carrier, mats, [[draw(FP_ENTRIES) for _ in range(d)] for _ in mats]


@settings(max_examples=200, deadline=None)
@given(fixed_point_inputs(), st.booleans())
def test_fixed_point_problem_matches_dense_rows(inputs, as_dicts):
    carrier, mats, offs = inputs
    maps = [AffineMap.from_dense(m, b) for m, b in zip(mats, offs)]
    # on a simplex a row may also be the dict of its nonzero entries
    dicts = as_dicts and isinstance(carrier, Simplex)
    problem = fixed_point_problem(
        carrier, [([dict(r) for r in m.rows] if dicts else m.rows, m.offset) for m in maps])
    vertices = carrier_vertices(carrier)
    rows, rhs = oracle_fixed_point_rows(mats, offs, vertices)
    assert [dict(row) for row in problem.rows] == [
        {j: a for j, a in enumerate(row) if a} for row in rows]
    assert problem.rhs == tuple(rhs)
    assert problem.nonneg == (True,) * len(vertices)


def test_fixed_point_requires_verified_action(z2):
    doubling = AffineMap.from_dense(matrix=((F(2), F(0)), (F(0), F(1))), offset=(F(0), F(0)))
    action = AffineAction(
        structure=z2, carrier=Simplex(2), maps=(identity_map(2), doubling)
    )
    with pytest.raises(PreconditionError):
        find_common_fixed_point(action)


# ---------------------------------------------------------------------------
# canonical means action structure


def test_canonical_action_z2_swap(z2):
    action = canonical_means_action(z2)
    assert action.maps[1].matrix == ((F(0), F(1)), (F(1), F(0)))


def test_canonical_action_left_zero_rank_one(lz2):
    action = canonical_means_action(lz2)
    # T_s collapses every mean onto the vertex at s
    assert action.maps[0].matrix == ((F(1), F(1)), (F(0), F(0)))
    assert action.maps[1].matrix == ((F(0), F(0)), (F(1), F(1)))
    for s in range(2):
        image = action.maps[s].apply((F(1, 3), F(2, 3)))
        assert image == tuple(F(1 if i == s else 0) for i in range(2))


def test_canonical_action_t3_fixed_set_is_mean_polytope(t3):
    action = canonical_means_action(t3)
    point = find_common_fixed_point(action)
    mean = find_left_invariant_mean(t3)
    assert point == mean.weights  # unique invariant mean for this instance


# ---------------------------------------------------------------------------
# induced functions


def test_induced_function_identity_action(t3):
    f = AffineFunctional(coeffs=(F(1), F(2), F(3)), constant=F(1))
    y = (F(1, 2), F(1, 4), F(1, 4))
    out = induced_function(identity_action(t3, Simplex(3)), y, f)
    assert all(v == f.apply(y) for v in out.values)


def test_induced_function_canonical_coordinates(t3):
    action = canonical_means_action(t3)
    for x in range(3):
        vertex = tuple(F(1 if i == x else 0) for i in range(3))
        for z in range(3):
            f = AffineFunctional(
                coeffs=tuple(F(1 if i == z else 0) for i in range(3))
            )
            out = induced_function(action, vertex, f)
            for s in range(3):
                assert out.values[s] == t3.table.entries[s][x].weights[z]


def test_induced_function_constant_action(lz2):
    c = (F(1, 3), F(2, 3))
    action = constant_action(lz2, c)
    f = AffineFunctional(coeffs=(F(5), F(-1)), constant=F(2))
    out = induced_function(action, (F(1), F(0)), f)
    assert all(v == f.apply(c) for v in out.values)


def test_affine_functional_rejects_a_point_of_another_dimension(t3):
    # zip used to drop the extra coordinate: (1,) applied to (3, 4) gave 3,
    # and induced_function passed that on
    with pytest.raises(ValueError, match="dimension"):
        AffineFunctional((F(1),)).apply((F(3), F(4)))
    action = canonical_means_action(t3)
    with pytest.raises(ValueError, match="dimension"):
        induced_function(action, carrier_centroid(action.carrier), AffineFunctional((F(1),)))


def test_induced_function_outside_carrier(t3):
    f = AffineFunctional(coeffs=(F(1), F(0), F(0)))
    with pytest.raises(CarrierError):
        induced_function(canonical_means_action(t3), (F(2), F(0), F(-1)), f)


def test_induced_translation_law(t3, s3_cosets):
    # composing with one map before inducing equals left-translating after
    rng = random.Random(5)
    for shg in (t3, s3_cosets):
        action = canonical_means_action(shg)
        n = shg.n
        y = carrier_centroid(action.carrier)
        f = AffineFunctional(
            coeffs=tuple(F(rng.randint(-3, 3)) for _ in range(n)),
            constant=F(rng.randint(-2, 2)),
        )
        base = induced_function(action, y, f)
        for s in range(n):
            m = action.maps[s]
            composed = AffineFunctional(
                coeffs=tuple(
                    sum((f.coeffs[i] * m.matrix[i][j] for i in range(n)), F(0))
                    for j in range(n)
                ),
                constant=f.constant
                + sum((f.coeffs[i] * m.offset[i] for i in range(n)), F(0)),
            )
            lhs = induced_function(action, y, composed)
            rhs = left_translate(s, base, shg)
            assert lhs.values == rhs.values


# ---------------------------------------------------------------------------
# dual-space action


def test_dual_action_z2_fixed_point(z2):
    da = dual_action(z2, "0")
    assert da.action_report.passed
    w0 = (F(-1, 2), F(1, 2))
    assert da.map("1", w0) == w0
    mean = mean_via_dual_action(z2)
    assert mean.weights == (F(1, 2), F(1, 2))


def test_dual_action_identity_point_trivial(t3):
    da = dual_action(t3, "e")
    u = (F(1, 3), F(1, 3), F(-2, 3))
    assert da.map("e", u) == u


def test_dual_action_requires_trace_zero(z2):
    da = dual_action(z2)
    with pytest.raises(ValueError):
        da.map(0, (F(1), F(1)))


def test_dual_action_orbit_bound(corpus):
    rng = random.Random(41)
    for name, shg in corpus:
        da = dual_action(shg)
        n = shg.n
        for _ in range(25):
            head = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n - 1)]
            u0 = tuple(head + [-sum(head, F(0))])
            sup, bound = da.orbit_bound(u0)
            assert sup <= bound, name


def test_dual_action_orbit_bound_scales_by_the_l1_seminorm():
    # p*p = 4p is associative but not a probability table: T_p u = 4(u + v0)
    # - v0, so T_p(0) = 3 and the bound is 4 * ||v0||_1 + ||v0||_1
    space = PointSpace(("p",))
    shg = Semihypergroup(ConvolutionTable(space, ((((0, F(4)),),),)))
    assert dual_action(shg).orbit_bound((F(0),)) == (F(3), F(5))


ASSOCIATIVE_TABLES = st.one_of(
    signed_tables().filter(lambda drawn: structure_of(*drawn).is_associative),
    st.just((4, conjugated_cyclic_table(4))),
)


@settings(max_examples=150, deadline=None)
@given(ASSOCIATIVE_TABLES, st.booleans(), st.data())
def test_dual_action_and_translates_follow_the_translation_matrices(drawn, flip, data):
    # signed tables too: both need associativity only, not probability rows
    shg = structure_of(*drawn)
    shg = opposite(shg) if flip else shg
    table, n = table_of(shg)
    mats = _left_matrices(table, n)  # M_s[y][z] = (p_s * p_y)(z)
    transposes = AffineAction(shg, Simplex(n), tuple(
        AffineMap.from_dense(tuple(zip(*m)), (F(0),) * n) for m in mats))
    da = dual_action(shg)
    assert da.translation.maps == transposes.maps
    assert da.action_report.passed
    assert da.action_report == replace(check_action_axiom(transposes), check="dual-action-axiom")
    values = st.lists(SIGNED, min_size=n, max_size=n)
    mu, f = data.draw(values), data.draw(values)
    dense = tuple(sum((mu[x] * mats[x][y][z] * f[z] for x in range(n) for z in range(n)), F(0))
                  for y in range(n))
    assert averaged_translate(Measure(shg.space, mu), PointFunction(shg.space, f), shg).values == dense


def test_dual_route_agrees_with_direct(corpus):
    for name, shg in corpus:
        direct = find_left_invariant_mean(shg)
        dual = mean_via_dual_action(shg)
        assert (direct is None) == (dual is None), name
        if direct is not None:
            assert verify_left_invariant_mean(dual, shg).passed, name
            # the direct witness is fixed by every dual-action map
            da = dual_action(shg)
            w = tuple(a - b for a, b in zip(direct.weights, da.v0))
            for s in range(shg.n):
                assert da.map(s, w) == w, name


def test_dual_route_base_point_choice(t3):
    for base in ("e", "a", "b"):
        mean = mean_via_dual_action(t3, base)
        assert mean is not None
        assert verify_left_invariant_mean(mean, t3).passed


@pytest.mark.parametrize("w", [F(1), F(2), F(-1), F(1, 2)])
def test_dual_route_on_one_point_tables_matches_direct(w):
    # p_a * p_a = w p_a is a probability table only for w = 1
    space = PointSpace(("a",))
    shg = Semihypergroup(ConvolutionTable(space, ((((0, w),),),)))
    direct = find_left_invariant_mean(shg)
    assert (direct is None) == (w != 1)
    assert mean_via_dual_action(shg) == direct


def test_dual_route_slack_lp_vertex(monkeypatch):
    # every mean of opposite(lz3) is left invariant, so the fixed points form
    # a plane (a 2-vector null basis) and the slack LP picks the mean
    shg = opposite(from_semigroup(left_zero_semigroup(3)))
    sizes, solve = [], actions.solve_lp_feasibility
    monkeypatch.setattr(actions, "solve_lp_feasibility",
                        lambda problem: sizes.append(problem.n_vars) or solve(problem))
    for base in range(3):
        assert mean_via_dual_action(shg, base).weights == (1, 0, 0)
    assert sizes == [2 + 3] * 3


# ---------------------------------------------------------------------------
# the heuristic iterator


def test_iterate_z2_converges(z2):
    action = canonical_means_action(z2)
    result = iterate_fixed_point(action.maps, action.carrier, tol=1e-9)
    assert result.converged
    exact = find_common_fixed_point(action)
    assert max(abs(a - float(b)) for a, b in zip(result.point, exact)) <= 1e-6


def test_iterate_single_contraction_on_segment():
    halve = AffineMap.from_dense(
        matrix=((F(1, 2), F(0)), (F(0), F(1, 2))), offset=(F(0), F(0))
    )
    segment = Hull(((F(0), F(0)), (F(1), F(0))))
    result = iterate_fixed_point([halve], segment, tol=1e-10, max_iter=200)
    assert result.converged
    assert abs(result.point[0]) <= 1e-9 and abs(result.point[1]) <= 1e-9


def test_iterate_left_zero_diverges(lz2):
    action = canonical_means_action(lz2)
    result = iterate_fixed_point(
        action.maps, action.carrier, tol=1e-9, max_iter=10_000
    )
    assert not result.converged
    assert result.residual >= 0.1


def test_iterate_spot_check_rejects_escaping_map(z2):
    doubling = AffineMap.from_dense(matrix=((F(2), F(0)), (F(0), F(2))), offset=(F(0), F(0)))
    with pytest.raises(CarrierError):
        iterate_fixed_point([doubling], Simplex(2))


def test_iterate_spot_check_slack_grows_with_the_hull(lz2):
    # float images of vertices near 4e9 miss the exact bounding box by more
    # than 1e-9: a valid action, whose exact fixed point is (0, 0), iterates;
    # a shift by a thousandth of the hull still leaves it
    c = F(201916997759, 50)
    hull = Hull(((F(0), F(0)), (c, c), (c, F(0))))
    m = AffineMap.from_dense(((F(4, 5), F(1, 5)),) * 2, (F(0), F(0)))
    action = AffineAction(structure=lz2, carrier=hull, maps=(m, m))
    assert action.axiom_report.passed and action.invariance_report.passed
    assert common_fixed_point_solution(action)[1] == (0, 0)
    result = iterate_fixed_point(action.maps, hull, tol=1e-9, max_iter=100)
    assert result.converged and result.iterations == 52
    shift = AffineMap.from_dense(((F(1), F(0)), (F(0), F(1))), (c / 1000, F(0)))
    with pytest.raises(CarrierError):
        iterate_fixed_point([shift], hull)


def test_iterate_accepts_callables():
    result = iterate_fixed_point(
        [lambda x: (x[0] / 2, x[1] / 2 + 0.5)], Simplex(2), tol=1e-9
    )
    assert result.converged
    assert abs(result.point[1] - 1.0) <= 1e-6


@pytest.mark.parametrize(
    "maps, carrier",
    [
        ([lambda x: x[:2]], Hull(((F(0), F(0), F(0)), (F(1), F(1), F(1))))),
        ([identity_map(2)], Simplex(3)),
        ([identity_map(2)], Hull(((F(0), F(0), F(0)), (F(1), F(1), F(1))))),
        ([identity_map(3)], Simplex(2)),
        ([], Simplex(2)),
    ],
)
def test_iterate_rejects_maps_of_the_wrong_dimension(maps, carrier):
    with pytest.raises(ValueError, match="dimension|at least one map"):
        iterate_fixed_point(maps, carrier)


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan"), float("inf")])
def test_iterate_rejects_a_tolerance_that_is_not_finite_and_positive(lz2, tol):
    # nan used to stop after 0 steps unconverged, inf "converged" at residual 0.5
    action = canonical_means_action(lz2)
    with pytest.raises(ValueError, match="tolerance"):
        iterate_fixed_point(action.maps, action.carrier, tol=tol)


# reprs captured before the float rows were precomputed and each step made
# one evaluation per map; every float must stay bit-identical
def test_iterate_pinned_left_zero_5():
    action = canonical_means_action(from_semigroup(left_zero_semigroup(5)))
    result = iterate_fixed_point(action.maps, action.carrier, max_iter=2000)
    assert repr(result) == (
        "IterationResult(converged=False, point=(0.2, 0.2, 0.2, 0.2, 0.2), "
        "residual=0.8, iterations=2000)"
    )


def test_iterate_pinned_weighted(t3):
    action = canonical_means_action(t3)
    weights = Mean(t3.space, (F(1, 2), F(1, 3), F(1, 6)))
    result = iterate_fixed_point(
        action.maps, action.carrier, weights=weights, tol=1e-5
    )
    # summing the matrix rows in reverse order changes these digits
    assert repr(result) == (
        "IterationResult(converged=True, point=(0.11111386564723467, "
        "0.44444688131602816, 0.4444392530367363), "
        "residual=7.866527696520631e-06, iterations=37)"
    )


NEGATIVE_HULL = Hull(((F(-1), F(2)), (F(3), F(-1)), (F(0), F(-2))))
NEGATIVE_HULL_MAPS = (
    AffineMap.from_dense(((F(1, 2), F(1, 4)), (F(-1, 4), F(1, 2))), (F(1, 3), F(-1, 5))),
    AffineMap.from_dense(((F(0), F(-1, 2)), (F(1, 2), F(0))), (F(1, 7), F(1, 4))),
)


def test_iterate_pinned_hull_with_negative_coordinates():
    hull, maps = NEGATIVE_HULL, list(NEGATIVE_HULL_MAPS)
    result = iterate_fixed_point(maps, hull, max_iter=300)
    assert repr(result) == (
        "IterationResult(converged=False, point=(0.30347490347490347, "
        "0.0839124839124839), residual=0.31782496782496783, iterations=300)"
    )


# the cycle skip: a float state that repeats bit for bit ends the work, and
# the result must still be the plain loop's (`oracles.oracle_iterate`)


def _bits(converged, point, residual, iterations):
    return converged, tuple(map(float.hex, point)), float.hex(residual), iterations


def _result_bits(result):
    return _bits(result.converged, result.point, result.residual, result.iterations)


def _map_weights(draw, k):
    if draw(st.booleans()):
        return None
    parts = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
    space = PointSpace(tuple(str(i) for i in range(k)))
    return Mean(space, tuple(F(p, sum(parts)) for p in parts))


@st.composite
def stochastic_families(draw):
    """Sparse column-stochastic maps x -> A x on Simplex(d), d <= 5."""
    d = draw(st.integers(1, 5))
    maps = []
    for _ in range(draw(st.integers(1, 3))):
        rows = [[] for _ in range(d)]
        for j in range(d):
            support = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
            parts = draw(st.lists(st.integers(1, 9), min_size=len(support),
                                  max_size=len(support)))
            for i, p in zip(support, parts):
                rows[i].append((j, F(p, sum(parts))))
        maps.append(AffineMap(tuple(map(tuple, rows)), (F(0),) * d))
    return maps, Simplex(d), _map_weights(draw, len(maps))


def permutation_family(perms, parts):
    """Coordinate permutations x -> (x[p[0]], x[p[1]], ...) on the hull of
    the unit vectors and the interior point `parts / sum(parts)`: the
    centroid is not uniform, so the float orbit can cycle with period > 1."""
    d = len(parts)
    maps = [AffineMap(tuple(((p[i], F(1)),) for i in range(d)), (F(0),) * d) for p in perms]
    units = tuple(tuple(F(int(i == j)) for j in range(d)) for i in range(d))
    return maps, Hull((*units, tuple(F(p, sum(parts)) for p in parts)))


@st.composite
def permutation_families(draw):
    d = draw(st.integers(2, 5))
    perms = draw(st.lists(st.permutations(range(d)), min_size=1, max_size=3))
    parts = draw(st.lists(st.integers(1, 9), min_size=d, max_size=d))
    return (*permutation_family(perms, parts), _map_weights(draw, len(perms)))


@st.composite
def negative_hull_families(draw):
    return list(NEGATIVE_HULL_MAPS), NEGATIVE_HULL, _map_weights(draw, 2)


@settings(max_examples=150, deadline=None)
@given(
    family=st.one_of(stochastic_families(), permutation_families(), negative_hull_families()),
    tol_exponent=st.integers(1, 300),
    max_iter=st.integers(1, 3000),
)
# a 3-cycle whose float orbit has period 6 from step 64 on: 930 steps are
# skipped and the last 5 must still run
@example(family=(*permutation_family([(2, 0, 1)], [9, 4, 8]), None),
         tol_exponent=300, max_iter=1005)
# the state holds -0.0 from step 1 on: 0.5 * -2^-1074 rounds to -0.0, and
# the second coordinate stalls one ulp short of its image
@example(family=([AffineMap(((), ()), (-F(1, 2 ** 1074), F(1, 2) + F(1, 2 ** 53)))],
                 Hull(((-F(1, 2 ** 1074), F(0)), (-F(1, 2 ** 1074), F(1)))), None),
         tol_exponent=300, max_iter=7)
def test_iterate_equals_the_plain_loop_bit_for_bit(family, tol_exponent, max_iter):
    maps, carrier, weights = family
    tol = 10.0 ** -tol_exponent
    result = iterate_fixed_point(maps, carrier, weights=weights, tol=tol, max_iter=max_iter)
    expected = oracle_iterate(maps, carrier_vertices(carrier),
                              weights and weights.weights, tol, max_iter)
    assert _result_bits(result) == _bits(*expected)


@pytest.mark.parametrize("max_iter", [1005, 1005.0, 1005.5])
def test_iterate_takes_a_float_step_budget_across_a_skip(max_iter):
    maps, hull = permutation_family([(2, 0, 1)], [9, 4, 8])
    result = iterate_fixed_point(maps, hull, tol=1e-300, max_iter=max_iter)
    expected = oracle_iterate(maps, carrier_vertices(hull), tol=1e-300, max_iter=max_iter)
    assert _result_bits(result) == _bits(*expected)
    assert type(result.iterations) is int


def test_iterate_evaluates_a_stateful_callable_once_per_step():
    class Switching:
        """Stalls the iteration at (1/2, 1/2) with residual 2^-53 for its
        first 50 calls, then is the constant map to (0, 1)."""

        def __init__(self):
            self.calls = 0

        def __call__(self, x):
            self.calls += 1
            if self.calls <= 50:
                return (x[0] + 2.0 ** -53, x[1] - 2.0 ** -54)
            return (0.0, 1.0)

    fn = Switching()
    result = iterate_fixed_point([fn], Simplex(2), tol=1e-20, max_iter=10_000)
    # a skip on the stall at step 1 would report 10000 steps, unconverged
    assert result.converged and result.iterations > 50
    assert fn.calls == 2 + result.iterations + 1  # 2 vertices, then one per state
    expected = oracle_iterate([Switching()], carrier_vertices(Simplex(2)),
                              tol=1e-20, max_iter=10_000)
    assert _result_bits(result) == _bits(*expected)


def test_iterate_evaluates_a_stalled_affine_family_a_constant_number_of_times(monkeypatch):
    action = canonical_means_action(from_semigroup(left_zero_semigroup(5)))
    calls = {id(m): 0 for m in action.maps}
    apply_float = AffineMap.apply_float

    def spy(self, x):
        calls[id(self)] += 1
        return apply_float(self, x)

    monkeypatch.setattr(AffineMap, "apply_float", spy)
    result = iterate_fixed_point(action.maps, action.carrier, max_iter=10_000)
    assert (result.converged, result.iterations) == (False, 10_000)
    # 5 spot-check vertices, the centroid, and step 1, which repeats it
    assert list(calls.values()) == [5 + 2] * 5
