"""Rational-valued functions on the point space and their translations.

On a finite space every function is almost periodic, so the interesting
content is the translation calculus: left translates, the row-stochastic
matrix realizing each of them, and averaging a translation against a
measure.  Right translates are left translates on `algebra.opposite`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .algebra import (
    DimensionMismatch,
    Measure,
    PointRef,
    PointSpace,
    RationalLike,
    Semihypergroup,
    as_fraction,
    require_associative,
)


@dataclass(frozen=True)
class PointFunction:
    """Function on the point space, stored as its value vector."""

    space: PointSpace
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(as_fraction(v) for v in self.values))
        if len(self.values) != self.space.n:
            raise DimensionMismatch(
                f"function has {len(self.values)} values on a "
                f"{self.space.n}-point space"
            )

    def __call__(self, point: PointRef) -> Fraction:
        return self.values[self.space.index(point)]

    def __add__(self, other: "PointFunction") -> "PointFunction":
        if other.space != self.space:
            raise DimensionMismatch("functions live on different point spaces")
        return PointFunction(
            self.space, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def scale(self, factor: RationalLike) -> "PointFunction":
        c = as_fraction(factor)
        return PointFunction(self.space, tuple(c * v for v in self.values))


def constant_function(space: PointSpace, value: RationalLike) -> PointFunction:
    return PointFunction(space, (as_fraction(value),) * space.n)


def indicator(space: PointSpace, point: PointRef) -> PointFunction:
    i = space.index(point)
    return PointFunction(
        space, tuple(Fraction(1 if j == i else 0) for j in range(space.n))
    )


@dataclass(frozen=True)
class TranslationMatrix:
    """Matrix of a left translation: rows[y][z] = (p_s * p_y)(z).

    Applying it to a value vector computes the left translate, so every row
    is a probability vector.
    """

    point: int
    rows: tuple[tuple[Fraction, ...], ...]

    def apply(self, f: PointFunction) -> PointFunction:
        if len(self.rows) != f.space.n:
            raise DimensionMismatch("matrix size does not match the function")
        return PointFunction(
            f.space,
            tuple(
                sum((w * v for w, v in zip(row, f.values)), Fraction(0))
                for row in self.rows
            ),
        )


def left_translate(s: PointRef, f: PointFunction, shg: Semihypergroup) -> PointFunction:
    """(L_s f)(y) = integral of f against p_s * p_y."""
    require_associative(shg)
    if f.space != shg.space:
        raise DimensionMismatch("function must live on the structure's space")
    row = shg.table.supports[shg.space.index(s)]
    return PointFunction(
        shg.space,
        tuple(sum((w * f.values[z] for z, w in support), Fraction(0)) for support in row),
    )


def translation_matrix(s: PointRef, shg: Semihypergroup) -> TranslationMatrix:
    require_associative(shg)
    si = shg.space.index(s)
    return TranslationMatrix(
        point=si,
        rows=tuple(shg.table.entry(si, y).weights for y in range(shg.n)),
    )


def averaged_translate(
    mu: Measure, f: PointFunction, shg: Semihypergroup
) -> PointFunction:
    """Average of left translates against mu: sum_x mu(x) L_x f."""
    require_associative(shg)
    if mu.space != shg.space or f.space != shg.space:
        raise DimensionMismatch("arguments must live on the structure's space")
    out = [Fraction(0)] * shg.n
    for x, wx in enumerate(mu.weights):
        if wx == 0:
            continue
        fx = left_translate(x, f, shg)
        for y in range(shg.n):
            out[y] += wx * fx.values[y]
    return PointFunction(shg.space, tuple(out))
