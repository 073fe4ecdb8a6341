"""Core measure algebra: convolution, set convolution, axiom checks."""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semihyp import algebra
from semihyp.algebra import (
    ConvolutionTable,
    DimensionMismatch,
    Measure,
    PointSpace,
    Semihypergroup,
    UnknownLabel,
    check_associativity,
    check_commutative,
    check_probability,
    convolve,
    convolve_sets,
    find_identity,
    generating_points,
    opposite,
    point_mass,
    zero_measure,
)
from semihyp.construct import (
    CayleyTable,
    coset_space,
    cyclic_group,
    double_coset_space,
    from_semigroup,
    inversion_action,
    left_zero_semigroup,
    orbit_space,
    symmetric_group,
    triple_hypergroup,
)

from conftest import magma_tables, make_t3, random_triple_params
from oracles import (
    _oracle_combine,
    oracle_associativity_witness,
    oracle_closure,
    oracle_convolve,
    oracle_generating_points,
    oracle_point,
    oracle_rank,
    oracle_subgroups,
    table_of,
)

F = Fraction
T3 = make_t3()  # immutable, safe to share across hypothesis examples


def rationals():
    return st.fractions(min_value=-3, max_value=3, max_denominator=8)


def test_point_space_validation():
    with pytest.raises(ValueError):
        PointSpace(())
    with pytest.raises(ValueError):
        PointSpace(("a", "a"))
    space = PointSpace(("x", "y"))
    assert space.index("y") == 1
    assert space.index(0) == 0
    with pytest.raises(UnknownLabel):
        space.index("z")
    with pytest.raises(UnknownLabel):
        space.index(5)


def test_measure_basics(t3):
    space = t3.space
    m = Measure(space, (F(1, 2), F(-1, 4), F(3, 4)))
    assert m.total() == 1
    assert m.support() == (0, 1, 2)
    assert zero_measure(space).support() == ()
    with pytest.raises(DimensionMismatch):
        Measure(space, (F(1),))


def test_measure_difference(t3, z2):
    m = Measure(t3.space, (F(1, 2), F(-1, 4), F(3, 4)))
    n = Measure(t3.space, (F(1, 3), F(1, 4), F(0)))
    assert (m - n).weights == (F(1, 6), F(-1, 2), F(3, 4))
    assert (m - m).weights == zero_measure(t3.space).weights
    with pytest.raises(DimensionMismatch):
        m - point_mass(z2.space, "0")


def test_convolve_group_law(z2):
    p1 = point_mass(z2.space, "1")
    assert convolve(p1, p1, z2).weights == point_mass(z2.space, "0").weights


def test_convolve_t3_mixed_product(t3):
    pa = point_mass(t3.space, "a")
    pb = point_mass(t3.space, "b")
    out = convolve(pa, pb, t3)
    assert out.weights == (F(0), F(1, 2), F(1, 2))


def test_convolve_identity_absorbs(t3):
    mix = point_mass(t3.space, "a").scale(F(1, 2)) + point_mass(t3.space, "e").scale(
        F(1, 2)
    )
    out = convolve(mix, point_mass(t3.space, "e"), t3)
    assert out.weights == mix.weights


def test_convolve_dimension_mismatch(z2, t3):
    with pytest.raises(DimensionMismatch):
        convolve(point_mass(z2.space, 0), point_mass(t3.space, 0), z2)


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(rationals(), min_size=3, max_size=3),
    b=st.lists(rationals(), min_size=3, max_size=3),
    c=st.lists(rationals(), min_size=3, max_size=3),
    alpha=rationals(),
    beta=rationals(),
)
def test_convolve_bilinear(a, b, c, alpha, beta):
    t3 = T3
    mu1 = Measure(t3.space, tuple(a))
    mu2 = Measure(t3.space, tuple(b))
    nu = Measure(t3.space, tuple(c))
    left = convolve(mu1.scale(alpha) + mu2.scale(beta), nu, t3)
    right = convolve(mu1, nu, t3).scale(alpha) + convolve(mu2, nu, t3).scale(beta)
    assert left.weights == right.weights
    left2 = convolve(nu, mu1.scale(alpha) + mu2.scale(beta), t3)
    right2 = convolve(nu, mu1, t3).scale(alpha) + convolve(nu, mu2, t3).scale(beta)
    assert left2.weights == right2.weights


@settings(max_examples=40, deadline=None)
@given(
    a=st.lists(rationals(), min_size=3, max_size=3),
    b=st.lists(rationals(), min_size=3, max_size=3),
)
def test_total_mass_multiplicative(a, b):
    t3 = T3
    mu = Measure(t3.space, tuple(a))
    nu = Measure(t3.space, tuple(b))
    assert convolve(mu, nu, t3).total() == mu.total() * nu.total()


def test_associativity_extends_to_random_measures(t3, z4):
    rng = random.Random(4)
    for shg in (t3, z4):
        n = shg.space.n
        for _ in range(100):
            mu, nu, sigma = (
                Measure(
                    shg.space,
                    tuple(F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)),
                )
                for _ in range(3)
            )
            lhs = convolve(convolve(mu, nu, shg), sigma, shg)
            rhs = convolve(mu, convolve(nu, sigma, shg), shg)
            assert lhs.weights == rhs.weights


def test_convolve_sets_t3(t3):
    assert convolve_sets(["a"], ["b"], t3) == frozenset({"a", "b"})


def test_convolve_sets_empty(t3):
    assert convolve_sets([], ["a", "b"], t3) == frozenset()


def test_convolve_sets_coset_fixture(s3_cosets):
    # value computed from the group data by brute force during development
    assert convolve_sets(["(123)H"], ["(123)H"], s3_cosets) == frozenset(
        {"eH", "(23)H"}
    )


def test_support_law(t3, s3_cosets):
    for shg in (t3, s3_cosets):
        for x in range(shg.n):
            for y in range(shg.n):
                expected = frozenset(
                    shg.space.label(z) for z in shg.table.entries[x][y].support()
                )
                assert convolve_sets([x], [y], shg) == expected


def test_check_associativity_passes(t3, lz2):
    assert check_associativity(t3).passed
    assert check_associativity(lz2).passed


def test_a_report_is_true_exactly_when_it_passed(t3, t3_corrupted):
    passed, failed = check_associativity(t3), check_associativity(t3_corrupted)
    assert bool(passed) is passed.passed is True
    assert bool(failed) is failed.passed is False


def test_check_associativity_fails_on_corrupted(t3_corrupted):
    report = check_associativity(t3_corrupted)
    assert not report.passed
    assert report.witness is not None
    triple = report.witness["triple"]
    assert report.witness["lhs"] != report.witness["rhs"]
    # cross-check the witness against the independent oracle
    table, n = table_of(t3_corrupted)
    labels = t3_corrupted.space.labels
    idx = tuple(labels.index(p) for p in triple)
    lhs = oracle_convolve(
        table[(idx[0], idx[1])],
        tuple(F(1 if j == idx[2] else 0) for j in range(n)),
        table,
        n,
    )
    assert lhs == report.witness["lhs"]
    assert oracle_associativity_witness(table, n) is not None


SIGNED = st.sampled_from([F(0), F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2)])
ASSOCIATIVE_RULES = {
    "cyclic": lambda n, x, y: (x + y) % n,
    "left-zero": lambda n, x, y: x,
    "right-zero": lambda n, x, y: y,
    "constant": lambda n, x, y: 0,
}


@st.composite
def signed_tables(draw):
    """A 2-4 point table: an associative point-mass table with a random
    share of its entries replaced by signed weight vectors.

    The share runs from none (the scan passes) to all; the signed weights
    make sums on either side of the law cancel to exact zeros.
    """
    n = draw(st.integers(2, 4))
    rule = ASSOCIATIVE_RULES[draw(st.sampled_from(sorted(ASSOCIATIVE_RULES)))]
    share = draw(st.integers(0, 4))
    table = {}
    for x, y in itertools.product(range(n), repeat=2):
        if draw(st.integers(1, 4)) <= share:
            table[(x, y)] = tuple(draw(st.lists(SIGNED, min_size=n, max_size=n)))
        else:
            table[(x, y)] = oracle_point(rule(n, x, y), n)
    return n, table


def structure_of(n: int, table) -> Semihypergroup:
    space = PointSpace(tuple(str(i) for i in range(n)))
    entries = tuple(
        tuple(Measure(space, table[(x, y)]) for y in range(n)) for x in range(n)
    )
    return Semihypergroup(ConvolutionTable.from_measures(space, entries))


def point_mass_tables():
    """`magma_tables` as (n, table) pairs of point-mass weights."""
    return magma_tables().map(lambda t: (len(t), {
        (x, y): oracle_point(t[x][y], len(t))
        for x, y in itertools.product(range(len(t)), repeat=2)
    }))


def assert_associativity_matches_oracle(shg: Semihypergroup) -> None:
    """Verdict, first failing triple, lhs and rhs all equal the oracle's."""
    table, n = table_of(shg)
    report = check_associativity(shg)
    expected = oracle_associativity_witness(table, n)
    assert report.passed == (expected is None)
    if expected is not None:
        x, y, z, lhs, rhs = expected
        label = shg.space.label
        assert report.witness == {
            "triple": (label(x), label(y), label(z)),
            "lhs": lhs,
            "rhs": rhs,
        }


@settings(max_examples=300, deadline=None)
@given(signed_tables())
def test_associativity_matches_oracle_on_signed_tables(drawn):
    assert_associativity_matches_oracle(structure_of(*drawn))


@settings(max_examples=300, deadline=None)
@given(point_mass_tables())
def test_associativity_matches_oracle_on_point_mass_tables(drawn):
    assert_associativity_matches_oracle(structure_of(*drawn))


@functools.cache
def quotients_and_triples() -> list[Semihypergroup]:
    """Coset and double-coset spaces of S3 and S4 with 2-12 points, and ten
    members of the 3-point family."""
    out = [triple_hypergroup(*params) for params in random_triple_params(10)]
    for g in (symmetric_group(3), symmetric_group(4)):
        for h in oracle_subgroups(g.product, g.identity()):
            out += [q for q in (coset_space(g, h), double_coset_space(g, h))
                    if 1 < q.n <= 12]
    return out


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_associativity_matches_oracle_on_corrupted_quotients(data):
    # one entry moved toward a point mass: when the generator scan misses
    # the one point whose products changed, a false pass shows here
    shg = data.draw(st.sampled_from(quotients_and_triples()))
    x, y, k = (data.draw(st.integers(0, shg.n - 1)) for _ in range(3))
    mix = data.draw(st.sampled_from([F(1), F(1, 2)]))
    entries = [list(row) for row in shg.table.entries]
    entries[x][y] = (1 - mix) * entries[x][y] + mix * point_mass(shg.space, k)
    table = ConvolutionTable.from_measures(shg.space, tuple(map(tuple, entries)))
    assert_associativity_matches_oracle(Semihypergroup(table))


@settings(max_examples=150, deadline=None)
@given(st.one_of(signed_tables(), point_mass_tables()))
def test_generating_points_are_greedy_and_span(drawn):
    n, table = drawn
    gens = generating_points(structure_of(n, table))
    assert gens == oracle_generating_points(table, n)
    assert oracle_rank(oracle_closure(table, n, gens), n) == n


def test_generating_points_of_quotients(corpus):
    for _, shg in corpus:
        table, n = table_of(shg)
        if n <= 8:
            assert generating_points(shg) == oracle_generating_points(table, n)


@pytest.mark.parametrize("quotient, subgroup, built, read_back", [
    (coset_space, ["e", "(12)"], [0, 1, 2, 6, 12, 18], [0, 2, 6, 12, 36]),
    (coset_space, ["e", "(123)", "(132)"], [0, 1, 2, 4, 8, 10, 16], [0, 1, 2, 4, 16, 18]),
    (double_coset_space, ["e", "(12)"], [1, 2, 6], [0, 1, 2, 9]),
    (double_coset_space, ["e", "(123)", "(132)"], [1, 2, 12], [0, 1, 2, 6]),
])
def test_generating_points_of_s5_quotients(quotient, subgroup, built, read_back):
    # past the oracle's reach (it runs for minutes at these sizes): the lists
    # that the forward echelon the search used before `_row_reduce` computed.
    # The canonical file sorts the points, so it has its own greedy order
    from semihyp.files import canonical_structure_json, parse_structure

    shg = quotient(symmetric_group(5), subgroup)
    assert generating_points(shg) == built
    assert generating_points(parse_structure(canonical_structure_json(shg))) == read_back


def test_left_zero_table_needs_every_point():
    for k in range(1, 7):
        lz = left_zero_semigroup(k)
        expected = list(range(k)) if k > 1 else []  # lz1's point is an identity
        assert generating_points(from_semigroup(lz)) == expected
        assert lz.semigroup.generators == tuple(expected)


def test_associativity_compares_after_cancellation():
    # an associative signed table: (p_0*p_0)*p_1 = p_1*p_1 = -p_0, while
    # p_0*(p_0*p_1) = -p_0*p_0 + p_0*p_1 = -p_1 + (-p_0 + p_1) sums weights
    # that cancel exactly at point 1
    n = 2
    table = {
        (0, 0): (F(0), F(1)),
        (0, 1): (F(-1), F(1)),
        (1, 0): (F(-1), F(1)),
        (1, 1): (F(-1), F(0)),
    }
    assert oracle_associativity_witness(table, n) is None
    assert check_associativity(structure_of(n, table)).passed


def test_check_probability_pass(corpus):
    for _, shg in corpus:
        assert check_probability(shg).passed


def test_check_probability_bad_total(t3):
    space = t3.space
    bad = Measure(space, (F(1, 2), F(1, 2), F(1, 2)))
    rows = [
        [t3.table.entries[x][y] for y in range(3)] for x in range(3)
    ]
    rows[1][1] = bad
    from semihyp.algebra import ConvolutionTable, Semihypergroup

    broken = Semihypergroup(
        ConvolutionTable.from_measures(space, tuple(tuple(r) for r in rows)), name="broken"
    )
    report = check_probability(broken)
    assert not report.passed
    assert report.witness["pair"] == ("a", "a")


def test_check_probability_negative_weight(t3):
    space = t3.space
    bad = Measure(space, (F(-1, 2), F(1), F(1, 2)))
    rows = [[t3.table.entries[x][y] for y in range(3)] for x in range(3)]
    rows[2][2] = bad
    from semihyp.algebra import ConvolutionTable, Semihypergroup

    broken = Semihypergroup(
        ConvolutionTable.from_measures(space, tuple(tuple(r) for r in rows)), name="broken"
    )
    report = check_probability(broken)
    assert not report.passed
    assert report.witness["pair"] == ("b", "b")


def test_find_identity(t3, z2, lz2):
    assert t3.space.label(find_identity(t3)) == "e"
    assert z2.space.label(find_identity(z2)) == "0"
    assert find_identity(lz2) is None


def test_check_commutative(t3, z2, lz2, s3_cosets):
    assert check_commutative(t3)
    assert check_commutative(z2)
    assert not check_commutative(lz2)
    assert not check_commutative(s3_cosets)


def test_flags_cached_on_structure(t3):
    assert t3.probability_report.passed
    assert t3.is_associative
    assert t3.identity == 0
    assert t3.is_commutative


def test_left_zero_law():
    lz3 = from_semigroup(left_zero_semigroup(3))
    for x in range(3):
        for y in range(3):
            assert lz3.table.entries[x][y].weights == point_mass(lz3.space, x).weights


ONE = ((0, F(1)),)


@pytest.mark.parametrize("bad", [
    ((1, F(1, 2)), (0, F(1, 2))),
    ((0, F(1, 2)), (0, F(1, 2))),
    ((2, F(1)),),
    ((-1, F(1)),),
    ((0, F(0)), (1, F(1))),
    ((0, 1),),
], ids=["unsorted", "duplicate-index", "out-of-range", "negative-index", "zero-weight",
        "int-weight"])
def test_convolution_table_rejects_malformed_support(bad):
    space = PointSpace(("a", "b"))
    with pytest.raises(ValueError):
        ConvolutionTable(space, ((ONE, ONE), (ONE, bad)))


def test_a_bad_support_shared_by_many_cells_is_rejected():
    # each distinct support object is checked once; the first bad one in
    # row-major order is still the one reported
    space = PointSpace(("a", "b", "c"))
    unsorted, int_weight = ((1, F(1)), (0, F(1))), ((0, 1),)
    cells = [ONE, int_weight, unsorted, unsorted, ONE, unsorted, int_weight, unsorted, ONE]
    with pytest.raises(ValueError, match="nonzero Fractions") as info:
        ConvolutionTable(space, tuple(tuple(cells[3 * x:3 * x + 3]) for x in range(3)))
    assert not isinstance(info.value, DimensionMismatch)
    with pytest.raises(DimensionMismatch, match=re.escape(repr(unsorted))):
        ConvolutionTable(space, ((ONE, unsorted, unsorted),) * 3)


@pytest.mark.parametrize("supports", [((ONE, ONE),), ((ONE,), (ONE, ONE)), ((ONE, ONE, ONE),) * 2])
def test_convolution_table_must_be_n_by_n(supports):
    with pytest.raises(DimensionMismatch, match="n-by-n"):
        ConvolutionTable(PointSpace(("a", "b")), supports)


def test_from_measures_inverts_the_dense_view(corpus):
    for _, shg in corpus:
        assert ConvolutionTable.from_measures(shg.space, shg.table.entries) == shg.table
    t3 = dict(corpus)["t3"]
    with pytest.raises(DimensionMismatch, match="different point space"):
        ConvolutionTable.from_measures(PointSpace(("a", "b", "c")), t3.table.entries)


def test_opposite_transposes_the_supports(corpus):
    for _, shg in corpus:
        op, p = opposite(shg).table, shg.table.point_table
        assert all(op.supports[x][y] == shg.table.supports[y][x]
                   for x, y in itertools.product(range(shg.n), repeat=2))
        assert op.point_table == (None if p is None else tuple(zip(*p)))


def test_kernels_never_build_the_dense_view():
    from semihyp.actions import canonical_means_action, check_action_axiom, mean_via_dual_action
    from semihyp.amenability import find_left_invariant_mean
    from semihyp.files import canonical_structure_json

    s4 = symmetric_group(4)
    for shg in (from_semigroup(s4), coset_space(s4, ["e", "(12)"])):
        assert check_probability(shg).passed and check_associativity(shg).passed
        assert find_left_invariant_mean(shg) is not None
        assert mean_via_dual_action(shg) is not None
        assert check_action_axiom(canonical_means_action(shg)).passed
        canonical_structure_json(shg)
        assert "entries" not in vars(shg.table)


# ---------------------------------------------------------------------------
# point-mass tables: Light's test on the integer table


def test_point_table_reads_point_masses_only(t3):
    s4 = symmetric_group(4)
    assert from_semigroup(s4).table.point_table == s4.product
    assert t3.table.point_table is None
    space = PointSpace(("a", "b"))
    for near in (((1, F(2)),), ((0, F(1, 2)), (1, F(1, 2))), ((1, F(-1)),)):
        supports = (((0, F(1)),), near), (((1, F(1)),), ((1, F(1)),))
        assert ConvolutionTable(space, supports).point_table is None


def test_point_table_reads_each_distinct_support_once():
    # one half-half support object shared by two entries among point masses
    space = PointSpace(("a", "b", "c"))
    half, masses = ((0, F(1, 2)), (1, F(1, 2))), [((z, F(1)),) for z in range(3)]
    supports = ((masses[0], half, masses[2]), (masses[1], masses[2], half), (masses[2],) * 3)
    table = ConvolutionTable(space, supports)
    assert len(table.distinct) == 4 and table.point_table is None
    shared = ConvolutionTable(space, ((masses[0], masses[1], masses[2]),) * 3)
    assert len(shared.distinct) == 3 and shared.point_table == ((0, 1, 2),) * 3


def _facts(table):
    """What a structure over the table reads off it, witnesses included; the
    table keeps no fact yet, so every check runs."""
    assert not table.facts
    s = Semihypergroup(table)
    return s.identity, s.generators, s.probability_report, s.associativity_report


@settings(max_examples=200, deadline=None)
@given(magma_tables())
def test_point_mass_table_equals_the_same_supports_checked(table):
    # `_from_point_table` trusts the integer table `CayleyTable` checked; the
    # general constructor checks the same supports, built here one by one
    cayley = CayleyTable(tuple(str(i) for i in range(len(table))), table)
    built, n = cayley.semigroup.table, cayley.n
    general = ConvolutionTable(cayley.space, tuple(
        tuple(((z, F(1)),) for z in row) for row in cayley.product))
    assert built.supports == general.supports
    assert built.point_table == general.point_table == cayley.product
    assert built.scaled == general.scaled
    # `distinct`: all n masses in index order, whether or not they occur
    assert list(built.distinct.values()) == [((z, F(1)),) for z in range(n)]
    occurring = {e for row in general.supports for e in row}
    assert set(general.distinct.values()) == occurring <= set(built.distinct.values())
    assert _facts(built) == _facts(general)


# supports without zero weights, on a few keys so that sums cancel; signed
# int or Fraction weights, coefficients 0 and 1 included
COMBINE_TERMS = st.lists(st.tuples(
    st.dictionaries(st.integers(0, 4), st.integers(-2, 2).filter(bool)
                    | st.fractions(-2, 2, max_denominator=3).filter(bool), max_size=4)
    .map(lambda d: tuple(d.items())),
    st.sampled_from([0, 1, -1, 2]) | st.fractions(-2, 2, max_denominator=3)), max_size=6)


@settings(max_examples=300, deadline=None)
@given(COMBINE_TERMS)
def test_combine_matches_the_rebuilt_sum_in_order(terms):
    # the same entries as summing and then dropping zeros, keys in the same order
    assert list(algebra._combine(terms).items()) == list(_oracle_combine(terms).items())


@contextlib.contextmanager
def spying_on_combine():
    """Patch `algebra._combine` with a wrapper that records every call, its
    (support, coefficient) terms as a list."""
    combine, spy = algebra._combine, mock.Mock()

    def listed(terms):
        terms = list(terms)
        spy(terms)
        return combine(terms)

    with mock.patch.object(algebra, "_combine", listed):
        yield spy


@pytest.mark.parametrize("table, generators", [
    (lambda: symmetric_group(4), (1, 2, 6)),
    (lambda: left_zero_semigroup(24), tuple(range(24))),
], ids=["s4", "lz24"])
def test_passing_point_mass_check_sums_no_supports(table, generators):
    shg = table().semigroup  # built here, so its table keeps no fact yet
    assert not shg.table.facts
    with spying_on_combine() as spy:
        assert check_probability(shg).passed and check_associativity(shg).passed
        assert shg.generators == generators
    assert spy.call_count == 0
    assert "scaled" not in vars(shg.table)  # no integer copy of the supports


@st.composite
def near_point_mass_tables(draw):
    """A `point_mass_tables` draw with one entry off a point mass: weight 2,
    or split into two halves."""
    n, table = draw(point_mass_tables())
    x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    z = table[(x, y)].index(F(1))
    if n == 1 or draw(st.booleans()):
        table[(x, y)] = tuple(2 * w for w in table[(x, y)])
    else:
        k = draw(st.integers(0, n - 1).filter(lambda k: k != z))
        table[(x, y)] = tuple(F(1, 2) * (a + b) for a, b in
                              zip(oracle_point(z, n), oracle_point(k, n)))
    return n, table


@settings(max_examples=200, deadline=None)
@given(near_point_mass_tables())
def test_near_point_mass_tables_take_the_measure_path(drawn):
    shg = structure_of(*drawn)
    assert shg.table.point_table is None
    with spying_on_combine() as spy:
        assert_associativity_matches_oracle(shg)
    assert spy.call_count > 0


# ---------------------------------------------------------------------------
# other tables: the kernels read the D-scaled integer supports


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    signed_tables().map(lambda drawn: structure_of(*drawn)),
    point_mass_tables().map(lambda drawn: structure_of(*drawn)),
    st.deferred(lambda: st.sampled_from(quotients_and_triples())),
))
def test_scaled_view_is_the_lcd_scaling(shg):
    d, ints = shg.table.scaled
    weights = [w for row in shg.table.supports for e in row for _, w in e]
    assert all(type(w) is int for row in ints for e in row for _, w in e)
    assert tuple(tuple(tuple((k, F(w, d)) for k, w in e) for e in row)
                 for row in ints) == shg.table.supports
    # D is a common denominator, and no D / p is: the cofactors share no prime
    assert d > 0 and all(d % w.denominator == 0 for w in weights)
    assert math.gcd(d, *(d // w.denominator for w in weights)) == 1


@pytest.mark.parametrize("built", [
    lambda: coset_space(symmetric_group(4), ["e", "(12)"]),
    lambda: coset_space(symmetric_group(5), [
        p for p in symmetric_group(5).labels if "5" not in p]),
    lambda: orbit_space(inversion_action(cyclic_group(24))),
], ids=["s4-mod-12", "s5-mod-s4", "z24-inversion-orbits"])
def test_passing_fractional_check_multiplies_no_fractions(built):
    built = built()
    shg = Semihypergroup(ConvolutionTable(built.space, built.table.supports))  # no facts yet
    assert built.table.point_table is None and built.table.scaled[0] > 1
    with spying_on_combine() as spy:
        assert check_associativity(shg).passed
        assert generating_points(shg)
    assert spy.call_count > 0
    for (terms,), _ in spy.call_args_list:
        assert all(type(c) is int and all(type(w) is int for _, w in support)
                   for support, c in terms)


def coprime_denominators(count: int) -> list[int]:
    """`count` pairwise-coprime 60-digit integers."""
    out: list[int] = []
    k = 10 ** 59
    while len(out) < count:
        k += 1
        if all(math.gcd(k, d) == 1 for d in out):
            out.append(k)
    return out


def conjugated_cyclic_table(n: int) -> dict:
    """Z_n in the basis e'_i = e_i / d_i, the d_i pairwise-coprime 60-digit
    integers: p'_x * p'_y = (d_z / (d_x d_y)) p'_z for z = x + y, an
    associative table with no identity and a D of about 400 digits."""
    d = coprime_denominators(n)
    return {(x, y): tuple(F(d[z], d[x] * d[y]) if z == (x + y) % n else F(0)
                          for z in range(n))
            for x, y in itertools.product(range(n), repeat=2)}


def random_coprime_table(n: int) -> dict:
    """Signed weights r / d, one pairwise-coprime 60-digit d per point."""
    d, rng = coprime_denominators(n), random.Random(12)
    return {(x, y): tuple(F(rng.randint(-3, 3), d[z]) for z in range(n))
            for x, y in itertools.product(range(n), repeat=2)}


def broken_entry(table: dict) -> dict:
    out = dict(table)
    out[(1, 2)] = tuple(w + F(1, 3) for w in out[(1, 2)])
    return out


@pytest.mark.parametrize("table", [
    conjugated_cyclic_table(4),
    broken_entry(conjugated_cyclic_table(4)),
    random_coprime_table(3),
], ids=["associative-4", "one-entry-off-4", "random-signed-3"])
def test_huge_coprime_denominators_match_the_oracles(table):
    n = len(table[(0, 0)])
    shg = structure_of(n, table)
    assert shg.table.scaled[0] > 10 ** 170
    assert_associativity_matches_oracle(shg)
    assert generating_points(shg) == oracle_generating_points(table, n)
