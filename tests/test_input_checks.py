"""Input checks that no other test reaches: each case runs one rejecting
branch once, with the exception type and a fragment of its message, or the
value a rejecting branch returns."""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

import pytest

from semihyp.actions import (
    AffineAction,
    AffineMap,
    CarrierError,
    DualAction,
    Hull,
    Seminorm,
    SeminormError,
    Simplex,
    carrier_contains,
    common_fixed_point_problem,
    dual_action,
    identity_map,
    iterate_fixed_point,
    operator_seminorm,
)
from semihyp.algebra import (
    DimensionMismatch,
    PointSpace,
    PreconditionError,
    as_fraction,
)
from semihyp.amenability import Mean, uniform_mean, verify_left_invariant_mean
from semihyp.construct import (
    CayleyTable,
    ConstraintViolation,
    GroupAction,
    InvalidActionError,
    cyclic_group,
    from_semigroup,
    left_zero_semigroup,
    triple_hypergroup,
)
from semihyp.files import (
    FileFormatError,
    ReportDocument,
    parse_affine_action,
    parse_group,
    parse_group_action,
    parse_rational,
    sort_points,
)
from semihyp.functions import PointFunction, TranslationMatrix

F = Fraction
Z2 = from_semigroup(cyclic_group(2), name="z2")
LZ2 = from_semigroup(left_zero_semigroup(2), name="lz2")
TRIVIAL_GROUP = '{"labels": ["0"], "table": [[0]]}'
# the 3-point family's (x1, x2, x3), and z = (1/2, 1/2): y1*x3 = z1*x1 holds
X = ("1/4", "1/4", "1/2")


def _outside_action() -> AffineAction:
    # constant maps x -> 2 satisfy the axiom on a left-zero structure
    # (T_s T_t = T_s), but send Simplex(1) to a point outside it
    out = AffineMap.from_dense([[0]], [2])
    return AffineAction(LZ2, Simplex(1), (out, out))


REJECTED = [
    # actions
    ("simplex-dim", lambda: Simplex(0), ValueError, "dimension must be at least 1"),
    ("hull-empty", lambda: Hull(()), ValueError, "at least one point"),
    ("hull-dims", lambda: Hull(((F(0),), (F(0), F(1)))), ValueError, "share one dimension"),
    ("hull-repeated", lambda: Hull(((F(0),), (F(1),), (F(0),))), ValueError,
     "hull points must be pairwise distinct"),
    ("map-apply-dim", lambda: identity_map(2).apply((F(1),)), ValueError,
     "does not match the map"),
    ("action-map-count", lambda: AffineAction(Z2, Simplex(1), (identity_map(1),)), ValueError,
     "one affine map per point"),
    ("action-map-dim", lambda: AffineAction(Z2, Simplex(2), (identity_map(1),) * 2), ValueError,
     "does not match the carrier"),
    ("seminorm-kind", lambda: Seminorm("l2", (F(1),)), SeminormError, "unsupported seminorm kind"),
    ("seminorm-negative", lambda: Seminorm("l1", (F(-1),)), SeminormError, "must be nonnegative"),
    ("operator-seminorm-dim",
     lambda: operator_seminorm(identity_map(2).rows, Seminorm("l1", (F(1),))), SeminormError,
     "does not match the matrix"),
    ("fixed-point-not-invariant", lambda: common_fixed_point_problem(_outside_action()),
     PreconditionError, "carrier is not invariant"),
    ("dual-base-point", lambda: DualAction(Z2, 2), ValueError, "base point index out of range"),
    ("dual-map-dim", lambda: dual_action(Z2).map(0, (F(0),)), ValueError, "wrong dimension"),
    ("iterate-max-iter", lambda: iterate_fixed_point([identity_map(1)], Simplex(1), max_iter=0),
     ValueError, "at least one iteration"),
    ("iterate-weights",
     lambda: iterate_fixed_point([identity_map(1)], Simplex(1), weights=uniform_mean(Z2.space)),
     ValueError, "weights must match the number of maps"),
    ("iterate-hull-box",
     lambda: iterate_fixed_point([AffineMap.from_dense([[0]], [2])], Hull(((F(0),), (F(1),)))),
     CarrierError, "hull bounding box"),
    # algebra
    ("as-fraction-float", lambda: as_fraction(0.5), TypeError, "not an exact rational"),
    # amenability
    # the length of a mean or a candidate is Measure's rule
    ("mean-length", lambda: Mean(Z2.space, (F(1),)), DimensionMismatch,
     "measure has 1 weights for a 2-point space"),
    ("candidate-length", lambda: verify_left_invariant_mean((F(1),), Z2), DimensionMismatch,
     "measure has 1 weights for a 2-point space"),
    ("mean-space",
     lambda: verify_left_invariant_mean(uniform_mean(PointSpace(("x", "y"))), Z2), ValueError,
     "different point space"),
    # construct
    # distinct, nonempty labels are PointSpace's rule
    ("table-labels-repeated", lambda: CayleyTable(("a", "a"), ((0, 0), (0, 0))), ValueError,
     "point labels must be pairwise distinct"),
    ("table-labels-empty", lambda: CayleyTable((), ()), ValueError,
     "point space must contain at least one point"),
    ("inverse-no-identity", lambda: left_zero_semigroup(2).inverse("a"), ValueError,
     "no identity"),
    ("inverse-none", lambda: CayleyTable(("e", "z"), ((0, 1), (1, 1))).inverse("z"), ValueError,
     "z has no inverse"),
    ("action-image",
     lambda: GroupAction(cyclic_group(2), cyclic_group(2), ((0, 1), (1, 2))),
     InvalidActionError, "action image 2 is not a carrier point"),
    # entries are taken as given, never coerced: True and 1.0 equal 1, "1" converts to it
    ("table-entry-float", lambda: CayleyTable(("a", "b"), ((0, 1.9), (True, 0))), ValueError,
     "table entry 1.9 is not a valid index"),
    ("table-entry-bool", lambda: CayleyTable(("a", "b"), ((0, 1), (True, 0))), ValueError,
     "table entry True is not a valid index"),
    ("table-entry-str", lambda: CayleyTable(("a", "b"), ((0, "1"), (1, 0))), ValueError,
     "table entry '1' is not a valid index"),
    ("action-image-float",
     lambda: GroupAction(cyclic_group(2), cyclic_group(2), ((0, 1), (1, 0.0))),
     InvalidActionError, "action image 0.0 is not a carrier point"),
    ("action-image-bool",
     lambda: GroupAction(cyclic_group(2), cyclic_group(2), ((0, True), (1, 0))),
     InvalidActionError, "action image True is not a carrier point"),
    ("action-image-str",
     lambda: GroupAction(cyclic_group(2), cyclic_group(2), ((0, 1), ("1", 0))),
     InvalidActionError, "action image '1' is not a carrier point"),
    ("triple-y-sum", lambda: triple_hypergroup(*X, "1/4", "1/2", "1/2", "1/2", "1/2"),
     ConstraintViolation, "y1+y2+y3 = 5/4 != 1"),
    ("triple-z-sum", lambda: triple_hypergroup(*X, "1/4", "1/2", "1/4", "1/2", "1/4"),
     ConstraintViolation, "z1+z2 = 3/4 != 1"),
    ("left-zero-size", lambda: left_zero_semigroup(27), ValueError, "supported sizes are 1..26"),
    # files
    ("group-table", lambda: parse_group('{"labels": ["a"], "table": "a"}'), FileFormatError,
     "table must be a list of index rows"),
    ("group-labels-repeated",
     lambda: parse_group('{"labels": ["a", "a"], "table": [[0, 0], [0, 0]]}'), FileFormatError,
     "point labels must be pairwise distinct"),
    ("group-action-act",
     lambda: parse_group_action(
         f'{{"acting": {TRIVIAL_GROUP}, "carrier": {TRIVIAL_GROUP}, "act": 0}}'),
     FileFormatError, "act must be a list of rows"),
    ("group-action-entry",
     lambda: parse_group_action(
         f'{{"acting": {TRIVIAL_GROUP}, "carrier": {TRIVIAL_GROUP}, "act": [["0"]]}}'),
     FileFormatError, "action image '0' is not a carrier point"),
    ("group-action-null",
     lambda: parse_group_action(
         f'{{"acting": {TRIVIAL_GROUP}, "carrier": {TRIVIAL_GROUP}, "act": [[null]]}}'),
     FileFormatError, "action image None is not a carrier point"),
    ("rational-final-newline", lambda: parse_rational("1/4\n"), FileFormatError,
     "not a rational: '1/4\\n'"),
    ("rational-non-ascii-digit", lambda: parse_rational("\u0661"), FileFormatError,
     "not a rational: '\u0661'"),
    ("hull-points",
     lambda: parse_affine_action(
         '{"dimension": 1, "carrier": {"hull": [["0"], "1"]}, "maps": {}}', Z2),
     FileFormatError, "hull must be a list of points"),
    # Hull's own rule, as exit 2
    ("hull-points-repeated",
     lambda: parse_affine_action(
         '{"dimension": 1, "carrier": {"hull": [["0"], ["1"], ["0"]]}, "maps": {}}', Z2),
     FileFormatError, "hull points must be pairwise distinct"),
    # the canonical writer reserves "|" for its "x|y" keys
    ("sort-points-bar",
     lambda: sort_points(from_semigroup(CayleyTable(("a|b",), ((0,),)), name="bar")),
     FileFormatError, "point label 'a|b' contains '|'"),
    ("affine-action-maps",
     lambda: parse_affine_action('{"dimension": 1, "carrier": "simplex", "maps": []}', Z2),
     FileFormatError, "maps must be an object keyed by point label"),
    # functions
    ("function-length", lambda: PointFunction(Z2.space, (F(1),)), DimensionMismatch,
     "function has 1 values on a 2-point space"),
    ("translation-matrix-size",
     lambda: TranslationMatrix(0, ((F(1),),)).apply(PointFunction(Z2.space, (F(1), F(2)))),
     DimensionMismatch, "matrix size does not match the function"),
]


@pytest.mark.parametrize("call, error, fragment", [c[1:] for c in REJECTED],
                         ids=[c[0] for c in REJECTED])
def test_rejects(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()


def test_point_of_another_dimension_is_not_in_the_carrier():
    assert carrier_contains(Simplex(2), (F(1),)) is False


def test_empty_set_is_not_a_subgroup():
    assert cyclic_group(2).is_subgroup([]) is False


def test_report_renders_other_values_by_str():
    document = ReportDocument({"weight": Decimal("0.5")})
    assert document.to_text() == "weight: 0.5\n"
    assert document.to_json() == '{\n  "weight": "0.5"\n}\n'
