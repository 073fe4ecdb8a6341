"""Interchange formats: structure, group, and action files plus reports.

All weights travel as exact rational strings ("p/q" or an integer string),
so nothing is lost across serialization.  Canonical output sorts the point
labels, lists only the support of each product measure in point order,
renders every rational in lowest terms, and sorts JSON object keys, which
makes outputs byte-stable and diffable.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from .algebra import ConvolutionTable, PointSpace, Semihypergroup, Support, format_rational
from .actions import AffineAction, AffineMap, Carrier, Hull, Simplex
from .construct import CayleyTable, GroupAction


class FileFormatError(ValueError):
    """Input document is malformed or internally inconsistent."""


_RATIONAL = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def parse_rational(value: Any) -> Fraction:
    if isinstance(value, bool):
        raise FileFormatError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.match(value):
        try:
            return Fraction(value)
        except ValueError:  # past the interpreter's int-string digit limit
            raise FileFormatError(f"rational too long: {len(value)} characters") from None
    raise FileFormatError(f"not a rational: {value!r} (use 'p/q' or an integer)")


def _load_json(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer past the digit limit, or deep nesting
        raise FileFormatError(f"invalid JSON: {exc}") from None


def _expect_keys(doc: dict, keys: set[str], kind: str) -> None:
    if not isinstance(doc, dict):
        raise FileFormatError(f"{kind} document must be a JSON object")
    if set(doc) != keys:
        raise FileFormatError(
            f"{kind} document must have exactly the keys {sorted(keys)}, "
            f"got {sorted(doc)}"
        )


# ---------------------------------------------------------------------------
# structure files


def parse_structure(text: str) -> Semihypergroup:
    """Parse a structure document; requires a complete convolution table.

    Axiom violations (bad row sums, negative weights, non-associativity) are
    deliberately not parse errors: the checks report on them.
    """
    doc = _load_json(text)
    _expect_keys(doc, {"name", "points", "convolution"}, "structure")
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise FileFormatError("structure name must be a nonempty string")
    points = doc["points"]
    if (
        not isinstance(points, list)
        or not points
        or any(not isinstance(p, str) for p in points)
    ):
        raise FileFormatError("points must be a nonempty list of labels")
    if len(set(points)) != len(points):
        raise FileFormatError("point labels must be distinct")
    space = PointSpace(tuple(points))
    conv = doc["convolution"]
    if not isinstance(conv, dict):
        raise FileFormatError("convolution must be an object keyed by 'x|y'")

    supports: dict[tuple[int, int], Support] = {}
    for key, items in conv.items():
        parts = key.split("|")
        if len(parts) != 2:
            raise FileFormatError(f"bad convolution key {key!r} (expected 'x|y')")
        x, y = space.positions.get(parts[0]), space.positions.get(parts[1])
        if x is None or y is None:
            raise FileFormatError(f"convolution key {key!r} references unknown labels")
        if (x, y) in supports:
            raise FileFormatError(f"duplicate convolution key {key!r}")
        if not isinstance(items, list):
            raise FileFormatError(f"entry {key!r} must be a list of weighted points")
        weights: dict[int, Fraction] = {}
        for item in items:
            if not isinstance(item, dict) or set(item) != {"point", "weight"}:
                raise FileFormatError(
                    f"entry {key!r} items need exactly 'point' and 'weight'"
                )
            z = space.positions.get(item["point"]) if isinstance(item["point"], str) else None
            if z is None:
                raise FileFormatError(
                    f"entry {key!r} references unknown point {item['point']!r}"
                )
            weights[z] = weights.get(z, 0) + parse_rational(item["weight"])
        supports[(x, y)] = tuple(sorted((z, w) for z, w in weights.items() if w))

    missing = [
        f"{points[x]}|{points[y]}"
        for x in range(space.n)
        for y in range(space.n)
        if (x, y) not in supports
    ]
    if missing:
        raise FileFormatError(f"convolution table incomplete; missing {missing[:4]}")
    table = ConvolutionTable(space, tuple(
        tuple(supports[(x, y)] for y in range(space.n)) for x in range(space.n)
    ))
    return Semihypergroup(space=space, table=table, name=name)


def sort_points(shg: Semihypergroup) -> Semihypergroup:
    """Relabel-preserving reorder of the points into sorted label order."""
    order = sorted(range(shg.n), key=lambda i: shg.space.label(i))
    if order == list(range(shg.n)):
        return shg
    space = PointSpace(tuple(shg.space.label(i) for i in order))
    new = {old: i for i, old in enumerate(order)}
    sup = shg.table.supports
    table = ConvolutionTable(space, tuple(
        tuple(tuple(sorted((new[k], w) for k, w in sup[x][y])) for y in order)
        for x in order
    ))
    return Semihypergroup(space=space, table=table, name=shg.name)


def structure_to_document(shg: Semihypergroup) -> dict:
    labels = shg.space.labels
    conv = {
        f"{labels[x]}|{labels[y]}": [
            {"point": labels[z], "weight": format_rational(w)} for z, w in support
        ]
        for x, row in enumerate(shg.table.supports)
        for y, support in enumerate(row)
    }
    return {"name": shg.name, "points": list(labels), "convolution": conv}


def canonical_structure_json(shg: Semihypergroup) -> str:
    """Byte-stable rendering: sorted points, sorted keys, lowest terms."""
    return json.dumps(
        structure_to_document(sort_points(shg)), indent=2, sort_keys=True
    ) + "\n"


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
    bad = [(l, c) for l in labels for c in "|," if c in l]
    if bad:
        # structure files key the convolution by "x|y"; orbit labels and
        # --subgroup lists join group labels with ","
        raise FileFormatError(f"group label {bad[0][0]!r} contains {bad[0][1]!r}")
    if not isinstance(table, list) or any(not isinstance(row, list) for row in table):
        raise FileFormatError("table must be a list of index rows")
    n = len(labels)
    for row in table:
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise FileFormatError(f"table entry {v!r} is not a valid index")
    try:
        return CayleyTable(labels=tuple(labels), product=tuple(map(tuple, table)))
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None


def parse_group_action(text: str) -> GroupAction:
    """Orbit-construction input: acting group, carrier group, action table."""
    doc = _load_json(text)
    _expect_keys(doc, {"acting", "carrier", "act"}, "group action")
    acting, carrier = _group_table(doc["acting"]), _group_table(doc["carrier"])
    act = doc["act"]
    if not isinstance(act, list) or any(not isinstance(row, list) for row in act):
        raise FileFormatError("act must be a list of rows, one per acting element")
    for row in act:
        for v in row:
            if not isinstance(v, int) or isinstance(v, bool):
                raise FileFormatError("act entries must be carrier point indices")
    try:
        return GroupAction(group=acting, carrier=carrier, act=tuple(map(tuple, act)))
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None


# ---------------------------------------------------------------------------
# affine action files


def parse_affine_action(text: str, shg: Semihypergroup) -> AffineAction:
    doc = _load_json(text)
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
        pts = tuple(tuple(parse_rational(v) for v in p) for p in hull)
        if any(len(p) != dim for p in pts):
            raise FileFormatError("hull points must match the stated dimension")
        try:
            carrier = Hull(pts)
        except ValueError as exc:
            raise FileFormatError(str(exc)) from None
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
            [[parse_rational(v) for v in row] for row in a_rows],
            [parse_rational(v) for v in b_vec],
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
    if not isinstance(value, (dict, list)):
        lines.append(f"{indent}{_scalar_text(value)}")
        return
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
