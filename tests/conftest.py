"""Shared fixture corpus: groups, semigroups, the 3-point family, coset,
double-coset and orbit spaces, plus a deterministic generator of valid
3-point parameter tuples."""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from semihyp.algebra import ConvolutionTable, Measure, PointSpace, Semihypergroup
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

# the 3-point family instance used throughout: x = (1/4, 1/4, 1/2),
# y = (1/4, 1/2, 1/4), z = (1/2, 1/2); associativity verified by brute force
T3_PARAMS = (
    Fraction(1, 4), Fraction(1, 4), Fraction(1, 2),
    Fraction(1, 4), Fraction(1, 2), Fraction(1, 4),
    Fraction(1, 2), Fraction(1, 2),
)


def make_t3() -> Semihypergroup:
    return triple_hypergroup(*T3_PARAMS, name="t3")


def make_t3_corrupted() -> Semihypergroup:
    """T3 with p_b*p_b re-weighted to (1/2, 1/4, 1/4): rows still stochastic,
    but y1*x3 = 1/4 != 1/8 = z1*x1, so associativity fails."""
    space = PointSpace(("e", "a", "b"))
    f = Fraction
    rows = {
        (0, 0): (f(1), f(0), f(0)),
        (0, 1): (f(0), f(1), f(0)),
        (1, 0): (f(0), f(1), f(0)),
        (0, 2): (f(0), f(0), f(1)),
        (2, 0): (f(0), f(0), f(1)),
        (1, 1): (f(1, 4), f(1, 4), f(1, 2)),
        (2, 2): (f(1, 2), f(1, 4), f(1, 4)),
        (1, 2): (f(0), f(1, 2), f(1, 2)),
        (2, 1): (f(0), f(1, 2), f(1, 2)),
    }
    table = ConvolutionTable.from_measures(
        space,
        tuple(
            tuple(Measure(space, rows[(x, y)]) for y in range(3)) for x in range(3)
        ),
    )
    return Semihypergroup(table, name="t3-corrupted")


def right_zero_semigroup(n: int) -> CayleyTable:
    labels = tuple(chr(ord("a") + i) for i in range(n))
    return CayleyTable(labels=labels, product=tuple(tuple(range(n)) for _ in range(n)))


def random_triple_params(count: int, seed: int = 20240811):
    """Deterministic stream of parameter tuples accepted by the constructor.

    Uses the solvable branch with x3 > 0: given x and z, the first two y
    weights are forced (y1 = z1 x1 / x3, y2 = z1 z2 / x3) and the tuple is
    kept when the leftover y3 is nonnegative.  The constructor re-verifies
    associativity by brute force either way.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        den = rng.choice([2, 3, 4, 5, 6, 8, 12])
        x1 = Fraction(rng.randrange(0, den), den)
        x2 = Fraction(rng.randrange(0, den), den)
        if x1 + x2 >= 1:
            continue
        x3 = 1 - x1 - x2
        zden = rng.choice([2, 3, 4, 5, 6])
        z1 = Fraction(rng.randrange(0, zden + 1), zden)
        z2 = 1 - z1
        y1 = z1 * x1 / x3
        y2 = z1 * z2 / x3
        y3 = 1 - y1 - y2
        if y3 < 0:
            continue
        out.append((x1, x2, x3, y1, y2, y3, z1, z2))
    return out


def _closure_table(gens, compose, limit: int = 6):
    """Multiplication table of the semigroup the maps gens generate, with at
    most `limit` elements."""
    elems = list(dict.fromkeys(gens))
    for f in elems:  # elems grows while it is scanned
        for g in list(elems):
            for h in (compose(f, g), compose(g, f)):
                if h not in elems:
                    elems.append(h)
        assume(len(elems) <= limit)
    index = {f: i for i, f in enumerate(elems)}
    return [[index[compose(f, g)] for g in elems] for f in elems]


@st.composite
def magma_tables(draw):
    """A 1-6 point integer table: a random magma, a transformation semigroup
    or a permutation group, relabelled at random, then with at most one
    entry overwritten (so some tables fail associativity at one entry)."""
    kind = draw(st.sampled_from(["magma", "semigroup", "group"]))
    if kind == "magma":
        n = draw(st.integers(1, 6))
        table = [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
                 for _ in range(n)]
    else:
        k = draw(st.integers(1, 4))
        if kind == "semigroup":
            point = st.tuples(*[st.integers(0, k - 1)] * k)
        else:
            point = st.permutations(range(k)).map(tuple)
        gens = draw(st.lists(point, min_size=1, max_size=2))
        table = _closure_table(gens, lambda f, g: tuple(f[g[t]] for t in range(k)))
    n = len(table)
    order = draw(st.permutations(range(n)))
    where = {old: new for new, old in enumerate(order)}
    table = [[where[table[x][y]] for y in order] for x in order]
    if draw(st.booleans()):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[x][y] = draw(st.integers(0, n - 1))
    return table


@pytest.fixture(scope="session")
def z2():
    return from_semigroup(cyclic_group(2), name="z2")


@pytest.fixture(scope="session")
def z4():
    return from_semigroup(cyclic_group(4), name="z4")


@pytest.fixture(scope="session")
def s3_group():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def s3(s3_group):
    return from_semigroup(s3_group, name="s3")


@pytest.fixture(scope="session")
def lz2():
    return from_semigroup(left_zero_semigroup(2), name="lz2")


@pytest.fixture(scope="session")
def t3():
    return make_t3()


@pytest.fixture(scope="session")
def t3_corrupted():
    return make_t3_corrupted()


@pytest.fixture(scope="session")
def s3_cosets(s3_group):
    return coset_space(s3_group, ["e", "(12)"], name="s3-cosets")


@pytest.fixture(scope="session")
def s3_double(s3_group):
    return double_coset_space(s3_group, ["e", "(12)"], name="s3-double-cosets")


@pytest.fixture(scope="session")
def orbit_z3():
    return orbit_space(inversion_action(cyclic_group(3)), name="orbit-z3")


@pytest.fixture(scope="session")
def orbit_z4():
    return orbit_space(inversion_action(cyclic_group(4)), name="orbit-z4")


@pytest.fixture(scope="session")
def corpus(z2, z4, s3, lz2, t3, s3_cosets, s3_double, orbit_z3, orbit_z4):
    """Named structures every corpus-wide property is tested against."""
    extras = [
        ("lz3", from_semigroup(left_zero_semigroup(3), name="lz3")),
        ("lz4", from_semigroup(left_zero_semigroup(4), name="lz4")),
        ("lz5", from_semigroup(left_zero_semigroup(5), name="lz5")),
        ("rz2", from_semigroup(right_zero_semigroup(2), name="rz2")),
        (
            "z4-cosets",
            coset_space(cyclic_group(4), ["0", "2"], name="z4-cosets"),
        ),
        (
            "s4-cosets",
            coset_space(
                symmetric_group(4),
                ["e", "(12)", "(34)", "(12)(34)"],
                name="s4-cosets",
            ),
        ),
    ]
    return [
        ("z2", z2),
        ("z4", z4),
        ("s3", s3),
        ("lz2", lz2),
        ("t3", t3),
        ("s3-cosets", s3_cosets),
        ("s3-double-cosets", s3_double),
        ("orbit-z3", orbit_z3),
        ("orbit-z4", orbit_z4),
    ] + extras
