"""Interchange formats: structure, group, and action files plus reports.

All weights travel as exact rational strings ("p/q" or an integer string),
so nothing is lost across serialization.  The canonical structure file is
the `json.dumps(indent=2, sort_keys=True)` text of the document with sorted
point labels, each product's support in that order and every rational in
lowest terms, written directly from the table, so it is byte-stable and
diffable.  Its labels may not contain "|", which the "x|y" keys reserve.
A canonical file is read by that fixed layout and verified by rendering
the result again; any other structure file goes through the general
`json.loads` parser.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Optional

from .algebra import ConvolutionTable, PointSpace, Semihypergroup, Support, format_rational
from .actions import AffineAction, AffineMap, Carrier, Hull, Simplex
from .construct import CayleyTable, GroupAction


class FileFormatError(ValueError):
    """Input document is malformed or internally inconsistent."""


_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")  # for fullmatch: "$" lets a final "\n" in


def parse_rational(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise FileFormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        try:
            return Fraction(value)
        except ValueError:  # past the interpreter's int-string digit limit
            raise FileFormatError(f"rational too long: {len(value)} characters") from None
    raise FileFormatError(f"not a rational: {value!r} (use 'p/q' or an integer)")


def _rational_memo() -> Callable[[Any], Fraction]:
    """`parse_rational` for one document, parsing each distinct string once;
    an error is raised each time, never stored."""
    memo: dict[str, Fraction] = {}

    def parse(value: Any) -> Fraction:
        if not isinstance(value, str):
            return parse_rational(value)
        return memo[value] if value in memo else memo.setdefault(value, parse_rational(value))

    return parse


_SURROGATE = re.compile("[\ud800-\udfff]")  # the code points UTF-8 cannot write


def _require_utf8(kind: str, *texts: str) -> None:
    if (bad := next(filter(_SURROGATE.search, texts), None)) is not None:
        raise FileFormatError(f"{kind} {bad!r} holds a surrogate code point (U+D800-U+DFFF)")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise FileFormatError(f"repeated key {Counter(k for k, _ in pairs).most_common(1)[0][0]!r}")
    return doc


def _load_json(text: str) -> Any:
    """The JSON document of text, in which no object may repeat a key."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer past the digit limit, or deep nesting
        raise FileFormatError(f"invalid JSON: {exc}") from None


def _owned(build: Callable[..., Any], *args: Any) -> Any:
    """build(*args), whose owner's `ValueError` becomes a `FileFormatError`."""
    try:
        return build(*args)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None


def _expect_keys(doc: dict, keys: set[str], kind: str) -> None:
    if not isinstance(doc, dict):
        raise FileFormatError(f"{kind} document must be a JSON object")
    if set(doc) != keys:
        raise FileFormatError(f"{kind} document must have exactly the keys {sorted(keys)}, "
                              f"got {sorted(doc)}")


# ---------------------------------------------------------------------------
# structure files


_HEAD, _TAIL = '{\n  "convolution": {\n    "', '\n  },\n  "name": '
_ITEM, _WEIGHT = '"\n      },\n      {\n        "point": ', ',\n        "weight": "'


def _read_canonical(text: str) -> Optional[Semihypergroup]:
    """The structure S with a nonempty name and `canonical_structure_json(S)
    == text`, or None.  Entries are cut at the "x|y" keys the labels fix,
    each distinct item list is parsed once, and the re-render decides."""
    try:
        cut = text.rindex(_TAIL)
        name, _, points = text[cut + len(_TAIL):].partition(',\n  "points": [\n')
        name, labels = scanstring(name, 1)[0], [scanstring(p, 5)[0] for p in points.split(",\n")]
        if not (name and text.startswith(_HEAD)) or any("|" in label for label in labels):
            return None
        space, rational, lists = PointSpace(tuple(labels)), _rational_memo(), {"[]": ()}
        quoted, rows = [encode_basestring_ascii(label) for label in labels], [()] * space.n
        index = {q: z for z, q in enumerate(quoted)}
        # entry (x, y) is '"x|y": LIST' less its first '"': LIST starts at len(qx) + len(qy)
        cuts = {k: [slice(k + len(q), None) for q in quoted] for k in set(map(len, quoted))}
        entry = iter(text[len(_HEAD):cut].split(',\n    "'))
        for x in sorted(range(space.n), key=lambda i: labels[i] + "|"):
            row = list(map(str.__getitem__, islice(entry, space.n), cuts[len(quoted[x])]))
            for items in set(row).difference(lists):  # [27:-15]: first label to last weight
                support = []
                for item in items[27:-15].split(_ITEM):
                    q, _, w = item.partition(_WEIGHT)
                    support.append((index[q], rational(w)))
                lists[items] = tuple(support)
            rows[x] = tuple(map(lists.__getitem__, row))
        del entry  # and so the pieces, before the render needs as much again
        # a short row, a support out of order, a repeated point or a zero fails here
        table = ConvolutionTable(space, tuple(rows))
    except (KeyError, ValueError):
        return None
    shg = Semihypergroup(table, name)
    return shg if canonical_structure_json(shg) == text else None


def parse_structure(text: str) -> Semihypergroup:
    """Parse a structure document; requires a complete convolution table.

    Axiom violations (bad row sums, negative weights, non-associativity) are
    deliberately not parse errors: the checks report on them.  A canonical
    text is read by its layout and verified by rendering it again; any other
    goes through `json.loads`, where a repeated key is an error.  Each
    distinct weight string is parsed once per document, and equal supports
    share one tuple, which `ConvolutionTable` then validates once.
    """
    if (shg := _read_canonical(text)) is not None:
        return shg
    doc = _load_json(text)
    _expect_keys(doc, {"name", "points", "convolution"}, "structure")
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise FileFormatError("structure name must be a nonempty string")
    points = doc["points"]
    if not isinstance(points, list) or any(not isinstance(p, str) for p in points):
        raise FileFormatError("points must be a list of labels")  # `PointSpace` would coerce
    space = _owned(PointSpace, tuple(points))  # nonempty and distinct are its rules
    _require_utf8("structure name", name)
    _require_utf8("point label", *points)
    conv = doc["convolution"]
    if not isinstance(conv, dict):
        raise FileFormatError("convolution must be an object keyed by 'x|y'")

    supports: dict[tuple[int, int], Support] = {}
    shared: dict[Support, Support] = {}
    parse = _rational_memo()
    for key, items in conv.items():
        parts = key.split("|")
        if len(parts) != 2:
            raise FileFormatError(f"bad convolution key {key!r} (expected 'x|y')")
        x, y = space.positions.get(parts[0]), space.positions.get(parts[1])
        if x is None or y is None:
            raise FileFormatError(f"convolution key {key!r} references unknown labels")
        if not isinstance(items, list):
            raise FileFormatError(f"entry {key!r} must be a list of weighted points")
        weights: dict[int, Fraction] = {}
        for item in items:
            if not isinstance(item, dict) or set(item) != {"point", "weight"}:
                raise FileFormatError(f"entry {key!r} items need exactly 'point' and 'weight'")
            z = space.positions.get(item["point"]) if isinstance(item["point"], str) else None
            if z is None:
                raise FileFormatError(f"entry {key!r} references unknown point {item['point']!r}")
            w = parse(item["weight"])
            weights[z] = weights[z] + w if z in weights else w
        support = tuple(sorted((z, w) for z, w in weights.items() if w))
        supports[(x, y)] = shared.setdefault(support, support)

    missing = [f"{points[x]}|{points[y]}" for x in range(space.n) for y in range(space.n)
               if (x, y) not in supports]
    if missing:
        raise FileFormatError(f"convolution table incomplete; missing {missing[:4]}")
    table = ConvolutionTable(space, tuple(
        tuple(supports[(x, y)] for y in range(space.n)) for x in range(space.n)
    ))
    return Semihypergroup(table, name)


def sort_points(shg: Semihypergroup) -> Semihypergroup:
    """A fresh structure equal to `shg` with its points in sorted label
    order: its canonical file, read back.  So it raises `FileFormatError`
    where `canonical_structure_json` does, and for an empty name."""
    return parse_structure(canonical_structure_json(shg))


def canonical_structure_json(shg: Semihypergroup) -> str:
    """The bytes of `json.dumps(document, indent=2, sort_keys=True)` of the
    sorted-point document, written straight from `shg.table.supports`.

    Each entry lists its support in sorted-label order, and each distinct
    support object and weight is rendered once.  A label containing "|"
    would make the "x|y" keys ambiguous, so it raises `FileFormatError`
    naming the first such label in point order, before anything is written,
    and so does a name or label that the readers reject for a surrogate.
    """
    labels = shg.space.labels
    bad = next((label for label in labels if "|" in label), None)
    if bad is not None:
        raise FileFormatError(f"point label {bad!r} contains '|', which the 'x|y' keys reserve")
    _require_utf8("structure name", shg.name)
    _require_utf8("point label", *labels)
    order = sorted(range(shg.n), key=labels.__getitem__)
    in_order = order == list(range(shg.n))  # then each support, by index, is by label too
    quoted = [encode_basestring_ascii(label) for label in labels]
    weights: dict[tuple[int, int], str] = {}  # by (p, q): a Fraction's hash is slow
    rendered: dict[int, str] = {}  # id of a support tuple the table holds -> its list

    def render(support: Support) -> str:
        items = []
        for z, w in support if in_order else sorted(support, key=lambda zw: labels[zw[0]]):
            key = w.numerator, w.denominator
            text = weights[key] if key in weights else weights.setdefault(key, format_rational(w))
            items.append(f'      {{\n        "point": {quoted[z]},\n        "weight": "{text}"\n      }}')
        return "[\n" + ",\n".join(items) + "\n    ]" if items else "[]"

    # With no "|" in any label, the raw "x|y" keys sort as the pairs
    # (x + "|", y): neither "x|" is a proper prefix of another.
    columns = [(y, quoted[y][1:] + ": ") for y in order]
    lines = []
    for x in sorted(range(shg.n), key=lambda i: labels[i] + "|"):
        head, row = "    " + quoted[x][:-1] + "|", shg.table.supports[x]
        for y, tail in columns:
            support = row[y]
            if id(support) not in rendered:
                rendered[id(support)] = render(support)
            lines.append(head + tail + rendered[id(support)])
    lines[0] = '{\n  "convolution": {\n' + lines[0]  # one join builds the whole text, once
    lines[-1] += ('\n  },\n  "name": ' + encode_basestring_ascii(shg.name) + ',\n  "points": [\n'
                  + ",\n".join(f"    {quoted[i]}" for i in order) + "\n  ]\n}\n")
    return ",\n".join(lines)


# ---------------------------------------------------------------------------
# group and group-action files


def parse_group(text: str) -> CayleyTable:
    return _group_table(_load_json(text))


def _group_table(doc: Any) -> CayleyTable:
    """The Cayley table of a parsed group document."""
    _expect_keys(doc, {"labels", "table"}, "group")
    labels = doc["labels"]
    table = doc["table"]
    if not isinstance(labels, list) or any(not isinstance(l, str) for l in labels):
        raise FileFormatError("labels must be a list of strings")
    _require_utf8("group label", *labels)
    bad = [(l, c) for l in labels for c in "|," if c in l]
    if bad:
        # structure files key the convolution by "x|y"; orbit labels and
        # --subgroup lists join group labels with ","
        raise FileFormatError(f"group label {bad[0][0]!r} contains {bad[0][1]!r}")
    if not isinstance(table, list) or any(not isinstance(row, list) for row in table):
        raise FileFormatError("table must be a list of index rows")
    # exit 2 for what CayleyTable checks: the labels (through PointSpace), shape, each entry
    return _owned(CayleyTable, tuple(labels), tuple(map(tuple, table)))


def parse_group_action(text: str) -> GroupAction:
    """Orbit-construction input: acting group, carrier group, action table."""
    doc = _load_json(text)
    _expect_keys(doc, {"acting", "carrier", "act"}, "group action")
    acting, carrier = _group_table(doc["acting"]), _group_table(doc["carrier"])
    act = doc["act"]
    if not isinstance(act, list) or any(not isinstance(row, list) for row in act):
        raise FileFormatError("act must be a list of rows, one per acting element")
    return _owned(GroupAction, acting, carrier, tuple(map(tuple, act)))


# ---------------------------------------------------------------------------
# affine action files


def parse_affine_action(text: str, shg: Semihypergroup) -> AffineAction:
    doc = _load_json(text)
    parse = _rational_memo()
    _expect_keys(doc, {"dimension", "carrier", "maps"}, "action")
    dim = doc["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise FileFormatError("dimension must be a positive integer")
    carrier_doc = doc["carrier"]
    carrier: Carrier
    if carrier_doc == "simplex":
        carrier = Simplex(dim)
    elif isinstance(carrier_doc, dict) and set(carrier_doc) == {"hull"}:
        hull = carrier_doc["hull"]
        if not isinstance(hull, list) or any(not isinstance(p, list) for p in hull):
            raise FileFormatError("hull must be a list of points")
        pts = tuple(tuple(map(parse, p)) for p in hull)
        if any(len(p) != dim for p in pts):
            raise FileFormatError("hull points must match the stated dimension")
        carrier = _owned(Hull, pts)
    else:
        raise FileFormatError("carrier must be 'simplex' or {'hull': [...]}")

    maps_doc = doc["maps"]
    if not isinstance(maps_doc, dict):
        raise FileFormatError("maps must be an object keyed by point label")
    if set(maps_doc) != set(shg.space.labels):
        raise FileFormatError(
            "maps must name exactly the structure's points; "
            f"expected {sorted(shg.space.labels)}, got {sorted(maps_doc)}"
        )
    maps: list[Optional[AffineMap]] = [None] * shg.n
    for label, entry in maps_doc.items():
        if not isinstance(entry, dict) or set(entry) != {"A", "b"}:
            raise FileFormatError(f"map {label!r} needs exactly 'A' and 'b'")
        a_rows = entry["A"]
        b_vec = entry["b"]
        if (
            not isinstance(a_rows, list)
            or len(a_rows) != dim
            or any(not isinstance(r, list) or len(r) != dim for r in a_rows)
        ):
            raise FileFormatError(f"map {label!r}: A must be {dim}x{dim}")
        if not isinstance(b_vec, list) or len(b_vec) != dim:
            raise FileFormatError(f"map {label!r}: b must have length {dim}")
        maps[shg.space.index(label)] = AffineMap.from_dense(
            [list(map(parse, row)) for row in a_rows], list(map(parse, b_vec)),
        )
    return AffineAction(structure=shg, carrier=carrier, maps=tuple(maps))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ReportDocument:
    """Machine- and human-readable rendering of one command's outcome."""

    payload: dict

    def to_json(self) -> str:
        return json.dumps(_jsonable(self.payload), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines: list[str] = []
        _render_text(_jsonable(self.payload), lines, indent="")
        return "\n".join(lines) + "\n"


def _jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _render_text(value: Any, lines: list[str], indent: str) -> None:
    items = (((f"{k}:", v) for k, v in value.items()) if isinstance(value, dict)
             else (("-", v) for v in value))
    for head, v in items:
        if isinstance(v, (dict, list)):
            lines.append(f"{indent}{head}")
            _render_text(v, lines, indent + "  ")
        else:
            lines.append(f"{indent}{head} {_scalar_text(v)}")


def _scalar_text(value: Any) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)
