"""Parsing, canonical serialization, and report rendering."""

from __future__ import annotations

import json
import re
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cli_cases import FIXTURES
from oracles import (
    oracle_decimal_text,
    oracle_document_table,
    oracle_sorted_table,
    oracle_structure_json,
)
from semihyp import files
from semihyp.algebra import ConvolutionTable, PointSpace, Semihypergroup
from semihyp.construct import (
    CayleyTable,
    coset_space,
    double_coset_space,
    from_semigroup,
    symmetric_group,
)
from semihyp.files import (
    FileFormatError,
    ReportDocument,
    canonical_structure_json,
    format_rational,
    parse_affine_action,
    parse_group,
    parse_group_action,
    parse_rational,
    parse_structure,
    sort_points,
)

F = Fraction


def test_parse_rational_accepts_exact_forms():
    assert parse_rational("1/2") == F(1, 2)
    assert parse_rational("-3/4") == F(-3, 4)
    assert parse_rational("7") == F(7)
    assert parse_rational(5) == F(5)


def test_parse_rational_rejects_inexact_forms():
    for bad in ("0.5", "1/0", "1/-2", "", "a", True, 1.5, None):
        with pytest.raises(FileFormatError):
            parse_rational(bad)


def test_format_rational_lowest_terms():
    assert format_rational(F(2, 4)) == "1/2"
    assert format_rational(F(4, 2)) == "2"
    assert format_rational(F(-6, 8)) == "-3/4"


# rationals whose numerator or denominator is past the int-string digit limit
PAST_THE_DIGIT_LIMIT = pytest.mark.parametrize("value", [
    F(10**5000 + 1), F(-(10**9000) - 7), F(7**9000), F(1, 10**4400 + 3),
    F(-(10**6000) - 3, 10**4400 + 1), F(2**30000 - 1, 3),
], ids=["zeros", "negative", "power", "denominator", "both", "mersenne"])


@PAST_THE_DIGIT_LIMIT
def test_format_rational_past_the_digit_limit(value):
    text = oracle_decimal_text(value.numerator)
    if value.denominator != 1:
        text += "/" + oracle_decimal_text(value.denominator)
    assert format_rational(value) == text


def test_structure_round_trip(t3):
    text = canonical_structure_json(t3)
    parsed = parse_structure(text)
    assert canonical_structure_json(parsed) == text
    assert parsed.space.labels == ("a", "b", "e")  # canonical order is sorted
    assert parsed.is_associative


def test_sort_points_preserves_structure(t3):
    sorted_t3 = sort_points(t3)
    assert sorted_t3.space.labels == ("a", "b", "e")
    # the product a*a keeps its weights, expressed in the new order
    entry = sorted_t3.table.entry("a", "a")
    assert entry.weights[sorted_t3.space.index("e")] == F(1, 4)
    assert entry.weights[sorted_t3.space.index("b")] == F(1, 2)
    assert sorted_t3.identity == sorted_t3.space.index("e")
    again = sort_points(sorted_t3)  # already sorted: a fresh, equal structure
    assert again == sorted_t3 and again is not sorted_t3


def test_parse_structure_validation_errors(t3):
    good = json.loads(canonical_structure_json(t3))

    def broken(mutate, fragment):
        doc = json.loads(canonical_structure_json(t3))
        mutate(doc)
        with pytest.raises(FileFormatError, match=re.escape(fragment)):
            parse_structure(json.dumps(doc))

    broken(lambda d: d.pop("name"), "structure document must have exactly the keys")
    broken(lambda d: d.update(name=""), "structure name must be a nonempty string")
    # nonempty and distinct labels are PointSpace's rules
    broken(lambda d: d.update(points=["a", "a", "e"]), "point labels must be pairwise distinct")
    broken(lambda d: d.update(points=[]), "point space must contain at least one point")
    broken(lambda d: d.update(points=["a", 1, "e"]), "points must be a list of labels")
    broken(lambda d: d.update(convolution=[]), "convolution must be an object keyed by 'x|y'")
    broken(lambda d: d["convolution"].pop("a|a"), "convolution table incomplete; missing ['a|a']")
    broken(lambda d: d["convolution"].update({"a|zz": []}),
           "convolution key 'a|zz' references unknown labels")
    broken(lambda d: d["convolution"].update({"weird": []}), "bad convolution key 'weird'")
    broken(lambda d: d["convolution"].update({"a|a": {}}),
           "entry 'a|a' must be a list of weighted points")
    broken(
        lambda d: d["convolution"].__setitem__(
            "a|a", [{"point": "a", "weight": "0.5"}]
        ),
        "not a rational: '0.5'",
    )
    broken(
        lambda d: d["convolution"].__setitem__(
            "a|a", [{"point": "zz", "weight": "1"}]
        ),
        "entry 'a|a' references unknown point 'zz'",
    )
    broken(lambda d: d.update(extra=1), "structure document must have exactly the keys")
    # unchanged document still parses
    parse_structure(json.dumps(good))


def test_parse_structure_accepts_nonprobability_rows(t3):
    # bad weights are a check failure, not a parse failure
    doc = json.loads(canonical_structure_json(t3))
    doc["convolution"]["a|a"] = [{"point": "a", "weight": "3/2"}]
    parsed = parse_structure(json.dumps(doc))
    assert not parsed.probability_report.passed


def test_parse_structure_duplicate_weight_entries_accumulate(t3):
    doc = json.loads(canonical_structure_json(t3))
    doc["convolution"]["e|e"] = [
        {"point": "e", "weight": "1/2"},
        {"point": "e", "weight": "1/2"},
    ]
    parsed = parse_structure(json.dumps(doc))
    assert parsed.table.entry("e", "e").weights[parsed.space.index("e")] == 1


def test_structure_document_support_only(t3):
    doc = json.loads(canonical_structure_json(t3))
    assert doc["convolution"]["a|b"] == [
        {"point": "a", "weight": "1/2"},
        {"point": "b", "weight": "1/2"},
    ]


# any label without "|", which the "x|y" convolution keys reserve
LABELS = st.text(st.characters(blacklist_characters="|", blacklist_categories=("Cs",)),
                 max_size=3)


@st.composite
def structure_documents(draw):
    """Structure documents with signed, zero and repeated weighted items."""
    labels = draw(st.lists(LABELS, min_size=1, max_size=4, unique=True))
    weight = st.fractions(-2, 2, max_denominator=6).flatmap(
        lambda w: st.sampled_from([str(w), w.numerator] if w.denominator == 1 else [str(w)]))
    item = st.fixed_dictionaries({"point": st.sampled_from(labels), "weight": weight})
    conv = {f"{x}|{y}": draw(st.lists(item, max_size=len(labels) + 2))
            for x in labels for y in labels}
    return {"name": draw(st.text(min_size=1, max_size=3)), "points": labels,
            "convolution": conv}


@settings(max_examples=200, deadline=None)
@given(structure_documents())
def test_structure_round_trip_property(doc):
    shg = parse_structure(json.dumps(doc))
    labels, dense = oracle_document_table(doc)
    n = len(labels)
    assert shg.table.supports == tuple(
        tuple(tuple((k, w) for k, w in enumerate(dense[(x, y)]) if w) for y in range(n))
        for x in range(n)
    )
    first = canonical_structure_json(shg)
    reparsed = parse_structure(first)
    assert canonical_structure_json(reparsed).encode() == first.encode()
    ordered = sort_points(shg)
    assert reparsed.table == ordered.table  # by construction; the oracle below checks sort_points
    sorted_labels, sorted_dense = oracle_sorted_table(labels, dense)
    assert ordered.space.labels == tuple(sorted_labels)
    assert {(x, y): ordered.table.entry(x, y).weights
            for x in range(n) for y in range(n)} == sorted_dense


def structure_of(labels, supports, name="s") -> Semihypergroup:
    space = PointSpace(tuple(labels))
    return Semihypergroup(ConvolutionTable(space, supports), name=name)


# labels that json escapes, and "1", "10", "1a", whose raw "x|y" keys sort
# in another order than the labels ("10|1" < "1|10")
WRITER_LABELS = st.sampled_from(
    ["1", "10", "1a", "2", '"', "\\", 'a"\\', "\x00", "\x1f\x7f", "é", "\u2028", "𝔊"]
) | LABELS


@st.composite
def written_structures(draw):
    """Structures with shared and empty supports, signed fractional weights
    and unicode names, on labels json escapes."""
    labels = draw(st.lists(WRITER_LABELS, min_size=1, max_size=5, unique=True))
    n = len(labels)
    support = st.dictionaries(st.integers(0, n - 1), st.fractions(-3, 3, max_denominator=7)
                              .filter(bool), max_size=n).map(lambda d: tuple(sorted(d.items())))
    # cells drawn from a pool, so that one support object fills many cells
    cell = st.sampled_from(draw(st.lists(support, min_size=1, max_size=4))) | support
    supports = tuple(tuple(draw(cell) for _ in range(n)) for _ in range(n))
    name = draw(st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4))
    return structure_of(labels, supports, name)


@settings(max_examples=300, deadline=None)
@given(written_structures())
def test_canonical_structure_json_matches_json_dumps(shg):
    assert canonical_structure_json(shg) == oracle_structure_json(shg)


@PAST_THE_DIGIT_LIMIT
def test_canonical_structure_json_past_the_digit_limit(value):
    shg = structure_of(["10", "1"], ((((0, value),), ()), ((), ((0, -value), (1, value + 1)))))
    assert canonical_structure_json(shg) == oracle_structure_json(shg)


def _s5_subgroup(*moved: str) -> list[str]:
    """The permutations of S5 that fix every point not in `moved`."""
    return [p for p in symmetric_group(5).labels if set(p) <= set("()e" + "".join(moved))]


@pytest.mark.parametrize("built", [
    lambda: from_semigroup(symmetric_group(5)),
    lambda: coset_space(symmetric_group(5), _s5_subgroup("1234")),
    lambda: double_coset_space(symmetric_group(5), _s5_subgroup("123")),
], ids=["s5", "s5-mod-s4", "s5-mod-s3-double"])
def test_canonical_structure_json_order_120(built):
    shg = built()
    assert canonical_structure_json(shg) == oracle_structure_json(shg)


def test_canonical_structure_json_rejects_a_bar_in_a_label():
    # "a|a|b" would be both a * a|b and a|a * b: the keys would collide
    labels = ("a", "a|b", "b|c", "c")
    shg = from_semigroup(CayleyTable(labels, tuple((x,) * 4 for x in range(4))))
    with pytest.raises(ValueError, match=r"label 'a\|b' contains '\|'"):
        canonical_structure_json(shg)


def read_outcome(text: str, general: bool = False):
    """parse_structure's labels, supports and name, or its error message;
    with `general`, of the `json.loads` parser alone."""
    try:
        if general:
            with mock.patch.object(files, "_read_canonical", lambda text: None):
                shg = parse_structure(text)
        else:
            shg = parse_structure(text)
    except FileFormatError as exc:
        return str(exc)
    return shg.space.labels, shg.table.supports, shg.name


@settings(max_examples=200, deadline=None)
@given(written_structures())
def test_canonical_reader_takes_every_written_text(shg):
    text = canonical_structure_json(shg)
    fast = files._read_canonical(text)
    assert fast is not None
    assert (fast.space.labels, fast.table.supports, fast.name) == read_outcome(text, general=True)


def _rename(doc: dict, old: str, new: str) -> dict:
    def label(x: str) -> str:
        return new if x == old else x

    return {"name": doc["name"], "points": [label(p) for p in doc["points"]], "convolution": {
        "|".join(map(label, key.split("|"))): [{**item, "point": label(item["point"])}
                                               for item in items]
        for key, items in doc["convolution"].items()}}


def _set_weight(doc: dict, draw) -> dict:
    entries = [key for key, items in doc["convolution"].items() if items]
    if not entries:
        return doc
    key = draw(st.sampled_from(entries))
    weight = draw(st.sampled_from(["2/4", "0", "1.5", "1e5", "-0", "01", "+1", " 1", "1" * 5000]))
    items = [dict(item) for item in doc["convolution"][key]]
    items[draw(st.integers(0, len(items) - 1))]["weight"] = weight
    return {**doc, "convolution": {**doc["convolution"], key: items}}


def _reversed(doc: dict) -> dict:
    """The document with its keys, and its convolution's keys, in reverse order."""
    conv = dict(reversed(doc["convolution"].items()))
    return {"points": doc["points"], "name": doc["name"], "convolution": conv}


def _drop(doc: dict, key: str) -> dict:
    return {**doc, "convolution": {k: v for k, v in doc["convolution"].items() if k != key}}


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


MUTATIONS = {
    "reordered keys": lambda doc, text, draw: json.dumps(_reversed(doc), indent=2),
    "whitespace": lambda doc, text, draw: draw(st.sampled_from([
        json.dumps(doc, sort_keys=True), json.dumps(doc, indent=4, sort_keys=True),
        text.replace("\n", "\r\n"), text[:-1], " " + text, text.replace(": ", ":  ", 1)])),
    "unescaped": lambda doc, text, draw: json.dumps(doc, indent=2, sort_keys=True,
                                                    ensure_ascii=False) + "\n",
    "dropped entry": lambda doc, text, draw: _dumps(_drop(doc, draw(st.sampled_from(
        sorted(doc["convolution"]))))),
    "weight": lambda doc, text, draw: _dumps(_set_weight(doc, draw)),
    "bar in a label": lambda doc, text, draw: _dumps(
        _rename(doc, draw(st.sampled_from(doc["points"])), "a|b")),
    "empty name": lambda doc, text, draw: _dumps({**doc, "name": ""}),
}


@settings(max_examples=300, deadline=None)
@given(shg=written_structures(), mutation=st.sampled_from(sorted(MUTATIONS)), data=st.data())
def test_mutated_canonical_texts_read_as_the_general_parser_reads_them(shg, mutation, data):
    text = canonical_structure_json(shg)
    mutated = MUTATIONS[mutation](json.loads(text), text, data.draw)
    expected = read_outcome(mutated, general=True)
    assert read_outcome(mutated) == expected
    fast = files._read_canonical(mutated)
    assert fast is None or (fast.space.labels, fast.table.supports, fast.name) == expected


def test_canonical_s4_file_is_read_without_json_loads():
    text = canonical_structure_json(from_semigroup(symmetric_group(4)))
    with mock.patch.object(json, "loads", wraps=json.loads) as spy:
        shg = parse_structure(text)
    assert all(call.args[:1] != (text,) for call in spy.call_args_list)
    assert canonical_structure_json(shg) == text
    assert read_outcome(text) == read_outcome(text, general=True)


def test_parse_structure_rejects_a_repeated_key(t3):
    text = canonical_structure_json(t3)
    repeated = text.replace('    "a|b": ', '    "a|a": [],\n    "a|b": ', 1)
    with pytest.raises(FileFormatError, match=r"repeated key 'a\|a'"):
        parse_structure(repeated)
    with pytest.raises(FileFormatError, match=r"repeated key 'weight'"):
        parse_structure(text.replace('"weight": "1"', '"weight": "1", "weight": "1"', 1))


Z2_GROUP = '{"labels": ["0", "1"], "table": [[0, 1], [1, 0]]}'


def test_parse_group_rejects_a_repeated_key():
    # json.loads alone would keep the last "labels" and read Z2
    with pytest.raises(FileFormatError, match=r"repeated key 'labels'"):
        parse_group(Z2_GROUP.replace('"labels"', '"labels": ["a"], "labels"'))


def test_parse_group_action_rejects_a_repeated_key():
    text = f'{{"acting": {Z2_GROUP}, "carrier": {Z2_GROUP}, "act": [[0, 1], [1, 0]]}}'
    assert parse_group_action(text).act == ((0, 1), (1, 0))
    with pytest.raises(FileFormatError, match=r"repeated key 'act'"):
        parse_group_action(text.replace('"act"', '"act": [[0, 0], [0, 0]], "act"'))
    with pytest.raises(FileFormatError, match=r"repeated key 'table'"):
        parse_group_action(text.replace('"table"', '"table": [], "table"', 1))


def test_parse_affine_action_rejects_a_repeated_key():
    z2 = parse_structure((FIXTURES / "z2.json").read_text(encoding="utf-8"))
    text = (FIXTURES / "z2-canonical-action.json").read_text(encoding="utf-8")
    assert parse_affine_action(text, z2).maps[1].matrix == ((0, 1), (1, 0))
    doubling = '"1": {"A": [["2", "0"], ["0", "2"]], "b": ["0", "0"]},\n    "1": {'
    with pytest.raises(FileFormatError, match=r"repeated key '1'"):
        parse_affine_action(text.replace('"1": {', doubling, 1), z2)
    with pytest.raises(FileFormatError, match=r"repeated key 'dimension'"):
        parse_affine_action(text.replace('"dimension"', '"dimension": 7,\n  "dimension"'), z2)


# repeated, equivalent, int-typed and invalid weights
MEMO_WEIGHTS = st.sampled_from(["1", "1", "1/2", "2/4", "-1/3", "-2/6", "0", 1, 0, -2,
                                "0.5", "1/0", True, None, [1]])


def parsed_or_error(parse, *args):
    """The first error's message, or the parsed table, or maps and carrier."""
    try:
        parsed = parse(*args)
    except FileFormatError as exc:
        return str(exc)
    if parse is parse_structure:
        return parsed.space, parsed.table
    return parsed.maps, parsed.carrier


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_memoized_weights_parse_as_parse_rational_per_item(data, z2):
    labels = data.draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    item = st.fixed_dictionaries({"point": st.sampled_from(labels), "weight": MEMO_WEIGHTS})
    structure = json.dumps({"name": "m", "points": labels, "convolution": {
        f"{x}|{y}": data.draw(st.lists(item, max_size=3)) for x in labels for y in labels}})
    d = data.draw(st.integers(1, 3))
    vector = st.lists(MEMO_WEIGHTS, min_size=d, max_size=d)
    carrier = data.draw(st.one_of(st.just("simplex"), st.builds(
        lambda pts: {"hull": pts}, st.lists(vector, min_size=1, max_size=3))))
    action = json.dumps({"dimension": d, "carrier": carrier, "maps": {
        label: {"A": data.draw(st.lists(vector, min_size=d, max_size=d)), "b": data.draw(vector)}
        for label in z2.space.labels}})
    memoized = (parsed_or_error(parse_structure, structure),
                parsed_or_error(parse_affine_action, action, z2))
    with mock.patch.object(files, "_rational_memo", lambda: parse_rational):
        per_item = (parsed_or_error(parse_structure, structure),
                    parsed_or_error(parse_affine_action, action, z2))
    assert memoized == per_item


def test_parse_group_errors():
    with pytest.raises(FileFormatError, match="group document must have exactly the keys"):
        parse_group("{}")
    with pytest.raises(FileFormatError, match="table entry 1 is not a valid index"):
        parse_group(json.dumps({"labels": ["a"], "table": [[1]]}))
    with pytest.raises(FileFormatError, match="product table must be n-by-n"):
        parse_group(json.dumps({"labels": ["a", "b"], "table": [[0, 0]]}))
    table = parse_group(json.dumps({"labels": ["a", "b"], "table": [[0, 1], [1, 0]]}))
    assert table.is_group()


@pytest.mark.parametrize("table, bad", [
    ([[0, 1], [1, True]], "True"),
    ([[True, 1], [1, 0]], "True"),
    ([[0, 1], [1.0, 1]], "1.0"),
    ([[0, 1], [1, 1.0]], "1.0"),
    ([[0, 1], [-1, 0]], "-1"),
    ([[0, 2], [1, 0]], "2"),
    ([[0, 2], [True, 0]], "2"),  # the first bad entry in row order
    ([[0, 1.0], [-1, 0]], "1.0"),
])
def test_parse_group_names_the_first_bad_entry(table, bad):
    # True and 1.0 hash equal to 1: each must be named, also next to a 1
    text = json.dumps({"labels": ["a", "b"], "table": table})
    with pytest.raises(FileFormatError, match=rf"^table entry {re.escape(bad)} is not a valid index$"):
        parse_group(text)


def test_parse_group_action_errors():
    z2 = {"labels": ["0", "1"], "table": [[0, 1], [1, 0]]}
    with pytest.raises(FileFormatError, match="group action document must have exactly the keys"):
        parse_group_action(json.dumps({"acting": z2, "carrier": z2}))
    bad = {"acting": z2, "carrier": z2, "act": [[0, 1], [1, 0], [0, 1]]}
    with pytest.raises(FileFormatError, match=r"action table must be \|H\|-by-\|G\|"):
        parse_group_action(json.dumps(bad))
    good = {"acting": z2, "carrier": z2, "act": [[0, 1], [0, 1]]}
    action = parse_group_action(json.dumps(good))
    assert action.orbit(0) == frozenset({0})


def test_a_label_or_name_with_a_surrogate_code_point_is_rejected():
    # UTF-8 has no form for U+D800..U+DFFF, so no report could print such a
    # text; json.dumps writes the one here as the escape \ud800
    def rejected(kind):
        return pytest.raises(FileFormatError, match=re.escape(
            f"{kind} '\\ud800' holds a surrogate code point (U+D800-U+DFFF)"))

    group = {"labels": ["\ud800", "b"], "table": [[0, 1], [1, 0]]}
    with rejected("group label"):
        parse_group(json.dumps(group))
    z2 = json.loads(Z2_GROUP)
    with rejected("group label"):
        parse_group_action(json.dumps({"acting": z2, "carrier": group, "act": [[0, 1], [0, 1]]}))
    # structure files: "z" sorts as \ud800 does, so the first text stays canonical
    shg = from_semigroup(CayleyTable(("a", "z"), ((0, 1), (1, 0))), name="s")
    text = canonical_structure_json(shg)
    for canonical, kind in ((text.replace("z", "\\ud800"), "point label"),
                            (text.replace('"name": "s"', '"name": "\\ud800"'), "structure name")):
        with rejected(kind):
            files._read_canonical(canonical)  # its verification render refuses it
        for doc in (canonical, json.dumps(json.loads(canonical))):
            with rejected(kind):
                parse_structure(doc)
    with rejected("structure name"):
        canonical_structure_json(Semihypergroup(shg.table, "\ud800"))


def test_parse_affine_action_errors(z2):
    base = {
        "dimension": 2,
        "carrier": "simplex",
        "maps": {
            "0": {"A": [["1", "0"], ["0", "1"]], "b": ["0", "0"]},
            "1": {"A": [["0", "1"], ["1", "0"]], "b": ["0", "0"]},
        },
    }
    action = parse_affine_action(json.dumps(base), z2)
    assert action.axiom_report.passed

    def broken(mutate, fragment):
        doc = json.loads(json.dumps(base))
        mutate(doc)
        with pytest.raises(FileFormatError, match=re.escape(fragment)):
            parse_affine_action(json.dumps(doc), z2)

    broken(lambda d: d.pop("dimension"), "action document must have exactly the keys")
    broken(lambda d: d.update(dimension=0), "dimension must be a positive integer")
    broken(lambda d: d.update(carrier="cube"), "carrier must be 'simplex' or {'hull': [...]}")
    broken(lambda d: d["maps"].pop("1"), "maps must name exactly the structure's points")
    broken(lambda d: d["maps"].update(extra={"A": [["1"]], "b": ["0"]}),
           "maps must name exactly the structure's points")
    broken(lambda d: d["maps"]["1"].update(A=[["1", "0"]]), "map '1': A must be 2x2")
    broken(lambda d: d["maps"]["1"].update(b=["0"]), "map '1': b must have length 2")
    broken(lambda d: d.update(carrier={"hull": [["0"], ["1", "0"]]}),
           "hull points must match the stated dimension")


def test_parse_affine_action_hull(z2):
    doc = {
        "dimension": 2,
        "carrier": {"hull": [["0", "0"], ["1", "0"], ["0", "1"]]},
        "maps": {
            "0": {"A": [["1", "0"], ["0", "1"]], "b": ["0", "0"]},
            "1": {"A": [["0", "1"], ["1", "0"]], "b": ["0", "0"]},
        },
    }
    action = parse_affine_action(json.dumps(doc), z2)
    assert action.invariance_report.passed


def test_report_document_renderings():
    doc = ReportDocument(
        {
            "command": "demo",
            "value": F(1, 3),
            "flag": True,
            "missing": None,
            "nested": {"items": [1, "two", F(3, 4)]},
        }
    )
    text = doc.to_text()
    assert "value: 1/3" in text
    assert "flag: true" in text
    assert "missing: none" in text
    assert "- 3/4" in text
    parsed = json.loads(doc.to_json())
    assert parsed["value"] == "1/3"
    assert parsed["flag"] is True
    assert parsed["missing"] is None
    assert parsed["nested"]["items"] == [1, "two", "3/4"]
