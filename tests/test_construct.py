"""Factories: semigroup tables, the 3-point family, cosets, orbits."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

from semihyp import algebra
from semihyp.algebra import (
    CheckReport,
    ConvolutionTable,
    check_associativity,
    check_supports,
    find_identity,
    generating_points,
    point_mass,
)
from semihyp.construct import (
    CayleyTable,
    ConstraintViolation,
    GroupAction,
    InvalidActionError,
    NotAssociativeError,
    NotASubgroupError,
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

from conftest import magma_tables, random_triple_params
from oracles import (
    oracle_associativity_witness,
    oracle_cayley_witness,
    oracle_coset_space,
    oracle_double_coset_space,
    oracle_identity,
    oracle_orbit_space,
    oracle_point,
    oracle_subgroups,
    table_of,
)

F = Fraction


# ---------------------------------------------------------------------------
# Cayley tables and builders


def test_cayley_validation():
    with pytest.raises(ValueError):
        CayleyTable(labels=("a",), product=((1,),))
    with pytest.raises(ValueError):
        CayleyTable(labels=("a", "a"), product=((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        CayleyTable(labels=("a", "b"), product=((0,),))


def test_cayley_labels_are_its_space_labels():
    # `PointSpace` alone turns labels into strings
    table = CayleyTable((0, 1), ((0, 1), (1, 0)))
    assert table.labels == ("0", "1") == table.space.labels


@settings(max_examples=400, deadline=None)
@given(magma_tables())
def test_cayley_associativity_witness_matches_brute_force(table):
    n = len(table)
    cayley = CayleyTable(tuple(str(i) for i in range(n)), table)
    assert cayley.associativity_witness() == oracle_cayley_witness(table)


@settings(max_examples=300, deadline=None)
@given(magma_tables())
def test_cayley_identity_matches_brute_force(table):
    # read by `find_identity` off the supports of the point-mass structure
    n = len(table)
    cayley = CayleyTable(tuple(str(i) for i in range(n)), table)
    masses = {(x, y): oracle_point(table[x][y], n) for x in range(n) for y in range(n)}
    assert cayley.identity() == oracle_identity(masses, n)


@settings(max_examples=300, deadline=None)
@given(magma_tables())
def test_cayley_witness_and_check_associativity_agree(table):
    # the witness is read from the check on the table's point-mass structure:
    # same first triple, and the report's sides are the point masses
    n = len(table)
    cayley = CayleyTable(tuple(f"p{i}" for i in range(n)), table)
    report = check_associativity(cayley.semigroup)
    witness = cayley.associativity_witness()
    assert cayley.semigroup.table.point_table == cayley.product
    assert report.passed == (witness is None)
    if witness is not None:
        x, y, z = witness
        assert report.witness["triple"] == tuple(cayley.labels[i] for i in witness)
        assert report.witness["lhs"] == point_mass(cayley.space, table[table[x][y]][z]).weights
        assert report.witness["rhs"] == point_mass(cayley.space, table[x][table[y][z]]).weights


def test_light_test_on_one_point():
    # one index makes itemgetter return an entry, not a row: the scan decides.
    # The one point is the identity, so no generator: make it one, so that
    # Light's test runs
    shg = CayleyTable(("a",), ((0,),)).semigroup
    shg.table.facts["generators"] = (0,)
    assert check_associativity(shg).passed


def test_order_120_light_test_keeps_the_first_witness():
    s5 = symmetric_group(5)
    assert s5.is_group()
    assert check_associativity(from_semigroup(s5)).passed
    table = [list(row) for row in s5.product]
    table[s5.index("(12)")][s5.index("(345)")] = s5.index("e")
    expected = oracle_cayley_witness(table)
    assert expected is not None
    broken = CayleyTable(s5.labels, table)
    assert broken.associativity_witness() == expected
    report = check_associativity(broken.semigroup)
    x, y, z = expected
    assert report.witness == {
        "triple": (s5.labels[x], s5.labels[y], s5.labels[z]),
        "lhs": point_mass(s5.space, table[table[x][y]][z]).weights,
        "rhs": point_mass(s5.space, table[x][table[y][z]]).weights,
    }


def test_cyclic_group_properties():
    z6 = cyclic_group(6)
    assert z6.is_group()
    assert z6.identity() == 0
    assert z6.inverse(2) == 4


def test_symmetric_group_properties():
    s3 = symmetric_group(3)
    assert s3.n == 6
    assert s3.is_group()
    assert s3.labels[0] == "e"
    assert set(s3.labels) == {"e", "(12)", "(13)", "(23)", "(123)", "(132)"}
    s4 = symmetric_group(4)
    assert s4.n == 24
    assert s4.identity() == 0


def test_left_zero_builder():
    lz = left_zero_semigroup(3)
    assert lz.is_associative()
    assert lz.identity() is None
    assert not lz.is_group()


def test_subgroup_detection():
    s3 = symmetric_group(3)
    assert s3.is_subgroup(["e", "(12)"])
    assert not s3.is_subgroup(["e", "(123)"])  # not closed: (123)^2 = (132)
    assert s3.is_subgroup(["e", "(123)", "(132)"])


# ---------------------------------------------------------------------------
# from_semigroup


def test_from_semigroup_z2(z2):
    assert z2.table.entry("1", "1").weights == point_mass(z2.space, "0").weights
    assert z2.is_associative and z2.identity == 0


def test_from_semigroup_left_zero(lz2):
    for x, y in product(range(2), repeat=2):
        assert lz2.table.entries[x][y].weights == point_mass(lz2.space, x).weights


def test_from_semigroup_s3_verified(s3):
    assert s3.is_associative
    assert s3.probability_report.passed


def test_from_semigroup_rejects_nonassociative():
    diff3 = CayleyTable(
        labels=("0", "1", "2"),
        product=tuple(tuple((i - j) % 3 for j in range(3)) for i in range(3)),
    )
    assert not diff3.is_associative()
    with pytest.raises(ConstraintViolation):
        from_semigroup(diff3)


@settings(max_examples=200, deadline=None)
@given(magma_tables())
def test_from_semigroup_names_the_brute_force_first_triple(table):
    # and an empty name falls back to "semigroup"
    labels = tuple(f"p{i}" for i in range(len(table)))
    cayley, expected = CayleyTable(labels, table), oracle_cayley_witness(table)
    if expected is None:
        assert from_semigroup(cayley, name="").name == "semigroup"
        return
    with pytest.raises(ConstraintViolation) as err:
        from_semigroup(cayley, name="")
    x, y, z = (labels[i] for i in expected)
    assert err.value.violations == (f"input table is not associative at ({x}, {y}, {z})",)
    assert str(err.value) == err.value.violations[0] and err.value.report is None


# ---------------------------------------------------------------------------
# the parametrized 3-point family


def test_triple_fixture_valid(t3):
    assert t3.space.labels == ("e", "a", "b")
    assert t3.is_associative
    assert t3.identity == 0
    assert t3.is_commutative
    assert t3.table.entry("a", "a").weights == (F(1, 4), F(1, 4), F(1, 2))
    assert t3.table.entry("b", "b").weights == (F(1, 4), F(1, 2), F(1, 4))


def test_triple_degenerate_rejected_by_associativity():
    # p_a*p_a = p_e, p_b*p_b = p_e, p_a*p_b = p_a: the brute-force check
    # decides (witness (a, a, b)), and the product constraint fails as well
    with pytest.raises(ConstraintViolation) as err:
        triple_hypergroup(1, 0, 0, 1, 0, 0, 1, 0)
    assert any("y1*x3 != z1*x1" in v for v in err.value.violations)
    assert err.value.report is not None and not err.value.report.passed
    assert err.value.report.witness["triple"] == ("a", "a", "b")


def test_triple_product_constraint_rejected():
    with pytest.raises(ConstraintViolation) as err:
        triple_hypergroup("1/2", "1/4", "1/4", "1/4", "1/4", "1/2", "1/2", "1/2")
    assert any("y1*x3 != z1*x1" in v for v in err.value.violations)


def test_triple_sum_and_sign_constraints_rejected():
    with pytest.raises(ConstraintViolation) as err:
        triple_hypergroup("1/2", "1/2", "1/2", "1/4", "1/4", "1/2", "1/2", "1/2")
    assert any("x1+x2+x3" in v for v in err.value.violations)
    with pytest.raises(ConstraintViolation) as err:
        triple_hypergroup("-1/4", "3/4", "1/2", "1/4", "1/4", "1/2", "1/2", "1/2")
    assert any("negative" in v for v in err.value.violations)


def test_triple_satisfying_displayed_constraints_can_still_fail():
    # sums and y1*x3 = z1*x1 hold, but x3*y2 != z1*z2 breaks associativity,
    # so acceptance really is decided by the brute-force check
    with pytest.raises(NotAssociativeError) as err:
        triple_hypergroup(
            "1/4", "1/4", "1/2", "1/4", "1/4", "1/2", "1/2", "1/2"
        )
    assert err.value.report.witness["triple"] == ("a", "a", "b")


def test_triple_random_family_verified():
    params = random_triple_params(20)
    assert len(params) == 20
    for tup in params:
        shg = triple_hypergroup(*tup)
        assert shg.is_associative and shg.probability_report.passed
        table, n = table_of(shg)
        assert oracle_associativity_witness(table, n) is None


# ---------------------------------------------------------------------------
# coset spaces


def test_coset_space_s3(s3_cosets):
    assert s3_cosets.space.labels == ("eH", "(23)H", "(123)H")
    assert s3_cosets.identity is None
    assert not s3_cosets.is_commutative
    # full table, computed independently from the group data beforehand
    expected = {
        (0, 0): (1, 0, 0),
        (0, 1): (0, F(1, 2), F(1, 2)),
        (0, 2): (0, F(1, 2), F(1, 2)),
        (1, 0): (0, 1, 0),
        (1, 1): (F(1, 2), 0, F(1, 2)),
        (1, 2): (F(1, 2), 0, F(1, 2)),
        (2, 0): (0, 0, 1),
        (2, 1): (F(1, 2), F(1, 2), 0),
        (2, 2): (F(1, 2), F(1, 2), 0),
    }
    for (x, y), weights in expected.items():
        assert s3_cosets.table.entries[x][y].weights == tuple(F(w) for w in weights)


def test_coset_space_rep_independent_via_oracle(s3_group, s3_cosets):
    # recompute every entry from scratch for every representative pair
    h = [s3_group.index("e"), s3_group.index("(12)")]

    def coset(x):
        return frozenset(s3_group.product[x][t] for t in h)

    classes = []
    for x in range(s3_group.n):
        c = coset(x)
        if c not in classes:
            classes.append(c)
    for a, ca in enumerate(classes):
        for b, cb in enumerate(classes):
            for x in ca:
                for y in cb:
                    w = [F(0)] * 3
                    for t in h:
                        z = coset(s3_group.product[s3_group.product[x][t]][y])
                        w[classes.index(z)] += F(1, 2)
                    assert tuple(w) == s3_cosets.table.entries[a][b].weights


def test_coset_space_normal_subgroup_is_quotient_group():
    quotient = coset_space(cyclic_group(4), ["0", "2"], name="z4-mod")
    expected = from_semigroup(
        CayleyTable(labels=("0H", "1H"), product=((0, 1), (1, 0)))
    )
    assert quotient.space.labels == expected.space.labels
    for x, y in product(range(2), repeat=2):
        assert (
            quotient.table.entries[x][y].weights
            == expected.table.entries[x][y].weights
        )


def test_coset_space_trivial_subgroup(s3_group, s3):
    cs = coset_space(s3_group, ["e"])
    assert cs.space.labels == tuple(f"{l}H" for l in s3_group.labels)
    for x, y in product(range(s3.n), repeat=2):
        assert cs.table.entries[x][y].weights == s3.table.entries[x][y].weights


def test_coset_space_rejects_non_subgroup(s3_group):
    with pytest.raises(NotASubgroupError):
        coset_space(s3_group, ["e", "(123)"])
    with pytest.raises(NotASubgroupError):
        coset_space(left_zero_semigroup(3), ["a"])


def test_every_rejection_is_a_constraint_violation(s3_group):
    # one exception type for the one outcome, each subclass keeping its text
    with pytest.raises(ConstraintViolation) as err:
        triple_hypergroup("1/4", "1/4", "1/2", "1/4", "1/4", "1/2", "1/2", "1/2")
    assert type(err.value) is NotAssociativeError and err.value.violations == ()
    assert str(err.value) == "associativity fails at triple ('a', 'a', 'b')"
    with pytest.raises(ConstraintViolation) as err:
        coset_space(s3_group, ["e", "(123)"])
    assert type(err.value) is NotASubgroupError and err.value.report is None
    assert str(err.value) == "{e, (123)} is not a subgroup"
    assert err.value.violations == (str(err.value),)


# ---------------------------------------------------------------------------
# double coset spaces


def test_double_coset_space_s3(s3_double):
    assert s3_double.space.labels == ("HeH", "H(23)H")
    assert s3_double.identity == 0
    assert s3_double.is_commutative
    assert s3_double.table.entries[1][1].weights == (F(1, 2), F(1, 2))
    assert s3_double.table.entries[0][1].weights == (F(0), F(1))


def test_double_coset_identity_always_exists(s3_double, s3_group):
    z4_double = double_coset_space(cyclic_group(4), ["0", "2"])
    assert z4_double.identity is not None
    assert s3_double.identity is not None
    s4 = symmetric_group(4)
    s4_double = double_coset_space(s4, ["e", "(12)", "(34)", "(12)(34)"])
    assert s4_double.identity is not None


def test_double_coset_trivial_subgroup(s3_group, s3):
    dc = double_coset_space(s3_group, ["e"])
    for x, y in product(range(s3.n), repeat=2):
        assert dc.table.entries[x][y].weights == s3.table.entries[x][y].weights


def test_double_coset_normal_subgroup_quotient():
    dc = double_coset_space(cyclic_group(4), ["0", "2"])
    assert dc.space.labels == ("H0H", "H1H")
    assert dc.table.entries[1][1].weights == (F(1), F(0))


# ---------------------------------------------------------------------------
# orbit spaces


def test_orbit_space_z3_inversion(orbit_z3):
    assert orbit_z3.space.labels == ("{0}", "{1,2}")
    assert orbit_z3.identity == 0
    assert orbit_z3.table.entries[1][1].weights == (F(1, 2), F(1, 2))


def test_orbit_space_z4_inversion(orbit_z4):
    assert orbit_z4.space.labels == ("{0}", "{1,3}", "{2}")
    assert orbit_z4.table.entries[1][1].weights == (F(1, 2), F(0), F(1, 2))
    assert orbit_z4.table.entries[1][2].weights == (F(0), F(1), F(0))
    assert orbit_z4.table.entries[2][2].weights == (F(1), F(0), F(0))


def test_orbit_space_trivial_action():
    z3 = cyclic_group(3)
    trivial = GroupAction(
        group=cyclic_group(1), carrier=z3, act=(tuple(range(3)),)
    )
    orb = orbit_space(trivial)
    base = from_semigroup(z3)
    for x, y in product(range(3), repeat=2):
        assert orb.table.entries[x][y].weights == base.table.entries[x][y].weights


def test_orbit_space_non_automorphism_fails_associativity():
    z4 = cyclic_group(4)
    swap01 = GroupAction(
        group=cyclic_group(2), carrier=z4, act=(tuple(range(4)), (1, 0, 2, 3))
    )
    with pytest.raises(NotAssociativeError) as err:
        orbit_space(swap01)
    assert err.value.report.witness["triple"] == ("{0,1}", "{0,1}", "{2}")


def test_orbit_space_right_translation_matches_cosets(s3_group, s3_cosets):
    # acting by right multiplication with (12) has the left cosets as orbits
    # and reproduces the coset-space convolution
    idx12 = s3_group.index("(12)")
    act1 = tuple(s3_group.product[x][idx12] for x in range(6))
    action = GroupAction(
        group=cyclic_group(2), carrier=s3_group, act=(tuple(range(6)), act1)
    )
    orb = orbit_space(action)
    assert orb.n == 3
    relabel = {}
    for k, lbl in enumerate(orb.space.labels):
        members = set(lbl.strip("{}").split(","))
        for j, coset_lbl in enumerate(s3_cosets.space.labels):
            rep = coset_lbl[:-1]
            if rep in members:
                relabel[k] = j
    for x, y in product(range(3), repeat=2):
        got = orb.table.entries[x][y].weights
        mapped = [F(0)] * 3
        for z in range(3):
            mapped[relabel[z]] = got[z]
        expected = s3_cosets.table.entries[relabel[x]][relabel[y]].weights
        assert tuple(mapped) == expected


def test_group_action_invariant_validation():
    z4 = cyclic_group(4)
    with pytest.raises(InvalidActionError):
        GroupAction(group=cyclic_group(2), carrier=z4, act=((1, 0, 2, 3), (0, 1, 2, 3)))
    with pytest.raises(InvalidActionError, match=r"^action is not a homomorphism at pair \(1, 1\)$"):
        GroupAction(
            group=cyclic_group(2), carrier=z4, act=(tuple(range(4)), (1, 2, 3, 0))
        )
    # rotating Z3 by one step for both 1 and 2 fails at (1, 1), (1, 2), (2, 1)
    # and (2, 2); the message names the first in (h1, h2) order
    z3 = cyclic_group(3)
    with pytest.raises(InvalidActionError, match=r"^action is not a homomorphism at pair \(1, 1\)$"):
        GroupAction(group=z3, carrier=z3, act=((0, 1, 2), (1, 2, 0), (1, 2, 0)))
    with pytest.raises(InvalidActionError, match=r"^action image 4 is not a carrier point$"):
        GroupAction(group=cyclic_group(2), carrier=z4, act=((0, 1, 2, 3), (1, 4, -1, 0)))
    with pytest.raises(InvalidActionError, match=r"^action image -1 is not a carrier point$"):
        GroupAction(group=cyclic_group(2), carrier=z4, act=((0, 1, 2, 3), (1, -1, 4, 0)))
    with pytest.raises(InvalidActionError):
        GroupAction(
            group=left_zero_semigroup(2), carrier=z4, act=(tuple(range(4)),) * 2
        )


def test_inversion_action_requires_group():
    with pytest.raises(InvalidActionError):
        inversion_action(left_zero_semigroup(2))


def test_every_constructor_output_verified(corpus):
    for name, shg in corpus:
        assert shg.probability_report.passed, name
        assert shg.associativity_report.passed, name


# ---------------------------------------------------------------------------
# the shared quotient builder against the brute-force referee


def _assert_matches_oracle(shg, oracle, label):
    assert oracle is not None
    classes, table = oracle
    assert shg.space.labels == tuple(label(c) for c in classes)
    assert table_of(shg) == (table, len(classes))


def test_coset_spaces_of_s4_match_oracle():
    s4 = symmetric_group(4)
    subgroups = oracle_subgroups(s4.product, s4.identity())
    assert len(subgroups) == 30
    rep = lambda c: s4.labels[min(c)]
    for h in subgroups:
        members = [s4.labels[i] for i in h]
        _assert_matches_oracle(
            coset_space(s4, members), oracle_coset_space(s4.product, h),
            lambda c: f"{rep(c)}H",
        )
        _assert_matches_oracle(
            double_coset_space(s4, members), oracle_double_coset_space(s4.product, h),
            lambda c: f"H{rep(c)}H",
        )


def test_quotient_tables_hold_one_support_per_distinct_entry():
    s4 = symmetric_group(4)
    stabiliser = [x for x in s4.labels if "4" not in x]  # S3, fixing the point 4
    quotients = [coset_space(s4, ["e", "(12)"]), coset_space(s4, stabiliser),
                 double_coset_space(s4, ["e", "(12)"]), double_coset_space(s4, stabiliser),
                 orbit_space(inversion_action(cyclic_group(12)))]
    for shg in quotients:
        entries = [e for row in shg.table.supports for e in row]
        assert len({id(e) for e in entries}) == len(set(entries)) < len(entries), shg.name


@pytest.mark.parametrize("n", range(1, 13))
def test_orbit_space_inversion_matches_oracle(n):
    action = inversion_action(cyclic_group(n))
    g = action.carrier
    _assert_matches_oracle(
        orbit_space(action), oracle_orbit_space(g.product, action.act),
        lambda c: "{" + ",".join(sorted(g.labels[i] for i in c)) + "}",
    )


@pytest.mark.parametrize(
    "action",
    [
        GroupAction(group=cyclic_group(2), carrier=cyclic_group(4),
                    act=(tuple(range(4)), (1, 0, 2, 3))),
        inversion_action(symmetric_group(3)),
        inversion_action(symmetric_group(4)),
    ],
    ids=["swap01-z4", "inversion-s3", "inversion-s4"],
)
def test_orbit_space_of_a_non_automorphism_reports_the_oracle_witness(action):
    # entries come from one representative pair, which needs only the
    # homomorphism check, not automorphisms: the oracle compares every pair
    # and still agrees, and so does the failing triple
    g = action.carrier
    oracle = oracle_orbit_space(g.product, action.act)
    assert oracle is not None
    classes, table = oracle
    x, y, z, lhs, rhs = oracle_associativity_witness(table, len(classes))
    label = lambda c: "{" + ",".join(sorted(g.labels[i] for i in c)) + "}"
    with pytest.raises(NotAssociativeError) as err:
        orbit_space(action)
    witness = err.value.report.witness
    assert witness["triple"] == tuple(label(classes[i]) for i in (x, y, z))
    assert (witness["lhs"], witness["rhs"]) == (lhs, rhs)


def test_from_semigroup_checks_the_integer_table_only(s3_group, monkeypatch):
    # the factory hands its integer table over as the convolution table's
    # `point_table`, so the checks never derive it from the supports
    def derive(table):
        raise AssertionError("point_table derived from the supports")

    monkeypatch.setattr(ConvolutionTable.point_table, "func", derive)
    shg = from_semigroup(s3_group)
    assert shg.table.point_table == s3_group.product
    assert shg.associativity_report == CheckReport("associativity", True)
    assert shg.probability_report == CheckReport("probability", True)


def test_group_checks_build_their_point_masses_unchecked(monkeypatch):
    # S5's group check builds its point-mass table from the checked integer
    # table: no n^2 gather of `distinct`, no `check_supports` over its masses;
    # the coset space's own table still goes through both
    gather, checked = ConvolutionTable.distinct.func, []

    def guarded(table):
        if all(len(e) == 1 and e[0][1] == 1 for row in table.supports for e in row):
            raise AssertionError("distinct gathered from a point-mass table")
        return gather(table)

    def recording(supports, n):
        checked.append((list(supports), n))
        check_supports(checked[-1][0], n)

    monkeypatch.setattr(ConvolutionTable.distinct, "func", guarded)
    monkeypatch.setattr(algebra, "check_supports", recording)
    s5 = symmetric_group(5)
    assert s5.is_group()
    assert coset_space(s5, [l for l in s5.labels if "5" not in l]).n == 5
    masses = {id(e) for e in s5.semigroup.table.distinct.values()}
    assert [n for _, n in checked] == [5]
    assert not masses & {id(e) for supports, _ in checked for e in supports}


@pytest.mark.parametrize(
    "table",
    [symmetric_group(4), cyclic_group(6), left_zero_semigroup(5)],
    ids=["s4", "z6", "lz5"],
)
def test_from_semigroup_cached_report_equals_the_check(table):
    shg = from_semigroup(table)
    assert shg.table.facts["associativity_report"] == check_associativity(shg)


@settings(max_examples=150, deadline=None)
@given(magma_tables())
def test_from_semigroup_cached_report_equals_the_check_on_random_tables(table):
    cayley = CayleyTable(tuple(str(i) for i in range(len(table))), table)
    if cayley.associativity_witness() is not None:
        with pytest.raises(ConstraintViolation):
            from_semigroup(cayley)
        return
    shg = from_semigroup(cayley)
    assert shg.table.facts["associativity_report"] == check_associativity(shg)


def test_each_table_is_proved_associative_once(monkeypatch):
    # the group checks of an action and of two quotients of one table, and
    # every name for it, reuse the facts its point-mass structure keeps
    calls = []  # (check, integer table) of each check run on a point-mass table

    def counting(check):
        def counted(s):
            if s.table.point_table is not None:
                calls.append((check.__name__, s.table.point_table))
            return check(s)
        return counted

    for check in (check_associativity, find_identity, generating_points):
        monkeypatch.setattr(algebra, check.__name__, counting(check))

    def proofs():
        return [t for check, t in calls if check == "check_associativity"]

    s4 = symmetric_group(4)
    inversion_action(s4)  # proves S4 and the acting Z2
    assert proofs() == [s4.product, cyclic_group(2).product]
    s3 = symmetric_group(3)
    coset_space(s3, ["e", "(12)"])
    double_coset_space(s3, ["e", "(12)"])
    assert s3.identity() == 0 and s3.is_group() and s3.associativity_witness() is None
    assert proofs()[2:] == [s3.product]

    # a proved table under a new name: the same facts, proved once
    assert s4.is_group()
    named, own = from_semigroup(s4, name="s4"), s4.semigroup
    assert named.name == "s4" and named.table is own.table
    for fact in ("probability_report", "associativity_report", "identity", "generators",
                 "is_commutative"):
        assert getattr(named, fact) is getattr(own, fact), fact
    assert named.associativity_report.passed and named.identity == 0
    assert Counter(check for check, t in calls if t == s4.product) == {
        "check_associativity": 1, "find_identity": 1, "generating_points": 1}
