"""Acceptance suite: one test per criterion, each printing a verdict line.

Every equality here is exact rational arithmetic unless a tolerance is
stated inline (the heuristic iterator's 1e-8 residual and 1e-6 projection
distance, which are the only floating-point quantities in the package).
"""

from __future__ import annotations

import random
from fractions import Fraction

from semihyp.actions import (
    Seminorm,
    canonical_means_action,
    check_nonexpansive,
    common_fixed_point_problem,
    common_fixed_point_solution,
    dual_action,
    equicontinuity_bound,
    find_common_fixed_point,
    iterate_fixed_point,
    mean_via_dual_action,
)
from semihyp.algebra import Measure, check_probability, check_associativity, convolve
from semihyp.amenability import (
    find_left_invariant_mean,
    uniform_mean,
    verify_left_invariant_mean,
)
from semihyp.construct import from_semigroup, left_zero_semigroup, triple_hypergroup
from semihyp.functions import PointFunction, averaged_translate, translation_matrix
from semihyp.linprog import LPProblem, solve_lp_feasibility

from cli_cases import CASES, GOLDEN, FIXTURES, normalize, run_case
from conftest import make_t3_corrupted, random_triple_params

F = Fraction


def _random_measure(shg, rng) -> Measure:
    return Measure(
        shg.space,
        tuple(F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(shg.n)),
    )


def _random_function(shg, rng) -> PointFunction:
    return PointFunction(
        shg.space,
        tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(shg.n)),
    )


def test_criterion_1_axiom_suite(corpus):
    checked = 0
    for name, shg in corpus:
        assert check_probability(shg).passed, name
        assert check_associativity(shg).passed, name
        checked += 1
    for tup in random_triple_params(20):
        shg = triple_hypergroup(*tup)
        assert check_probability(shg).passed
        assert check_associativity(shg).passed
        checked += 1
    corrupted = make_t3_corrupted()
    report = check_associativity(corrupted)
    assert not report.passed and report.witness is not None
    assert report.witness["lhs"] != report.witness["rhs"]
    print(
        f"\n[criterion 1] PASS - axiom suite exact on {checked} constructor "
        "outputs; corrupted instance fails with witness "
        f"{report.witness['triple']}"
    )


def test_criterion_2_mean_vs_fixed_point(corpus):
    for name, shg in corpus:
        mean = find_left_invariant_mean(shg)
        action = canonical_means_action(shg)
        point = find_common_fixed_point(action)
        assert (mean is None) == (point is None), name
        if mean is not None:
            assert verify_left_invariant_mean(mean, shg).passed, name
            assert verify_left_invariant_mean(point, shg).passed, name
    print(
        f"\n[criterion 2] PASS - mean existence equals common-fixed-point "
        f"existence on all {len(corpus)} fixtures, witnesses cross-validated "
        "exactly"
    )


def test_criterion_3_dual_route_equivalence(corpus):
    structures = [(name, shg) for name, shg in corpus]
    structures += [
        (f"t3-random-{i}", triple_hypergroup(*tup))
        for i, tup in enumerate(random_triple_params(20, seed=777))
    ]
    for name, shg in structures:
        direct = find_left_invariant_mean(shg)
        dual = mean_via_dual_action(shg)
        assert (direct is None) == (dual is None), name
        if direct is not None:
            assert verify_left_invariant_mean(dual, shg).passed, name
            da = dual_action(shg)
            w = tuple(a - b for a, b in zip(direct.weights, da.v0))
            for s in range(shg.n):
                assert da.map(s, w) == w, name
    print(
        f"\n[criterion 3] PASS - dual-action route agrees with the direct LP "
        f"on {len(structures)} structures, witnesses verified both ways"
    )


def test_criterion_4_negative_witness():
    for size in (2, 3, 4, 5):
        shg = from_semigroup(left_zero_semigroup(size), name=f"lz{size}")
        assert find_left_invariant_mean(shg) is None
        action = canonical_means_action(shg)
        solution, point = common_fixed_point_solution(action)
        assert point is None
        certificate = solution.certificate
        assert certificate is not None
        problem = common_fixed_point_problem(action)
        assert sum(y * b for y, b in zip(certificate, problem.rhs)) > 0
        for j in range(problem.n_vars):
            g = sum(
                certificate[i] * a
                for i in range(problem.n_rows)
                for c, a in problem.rows[i] if c == j
            )
            assert g <= 0
        result = iterate_fixed_point(
            action.maps, action.carrier, tol=1e-9, max_iter=10_000
        )
        assert not result.converged
        assert result.residual >= 0.1
    print(
        "\n[criterion 4] PASS - left-zero semigroups of sizes 2-5: no mean, "
        "verified infeasibility certificates, iterator residual >= 0.1 "
        "after 10^4 iterations"
    )


def test_criterion_5_commutative_implies_amenable(corpus):
    structures = [(name, shg) for name, shg in corpus]
    structures += [
        (f"t3-random-{i}", triple_hypergroup(*tup))
        for i, tup in enumerate(random_triple_params(20, seed=31337))
    ]
    commutative = [(n, s) for n, s in structures if s.is_commutative]
    assert commutative, "corpus must contain commutative structures"
    for name, shg in commutative:
        assert find_left_invariant_mean(shg) is not None, name
    print(
        f"\n[criterion 5] PASS - all {len(commutative)} commutative "
        "structures in the corpus are amenable"
    )


def test_criterion_6_translation_laws(corpus):
    rng = random.Random(616)
    triples = 0
    for name, shg in corpus:
        n = shg.n
        mats = [translation_matrix(s, shg).rows for s in range(n)]
        for s in range(n):
            for t in range(n):
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
                assert lhs == rhs, (name, s, t)
        for _ in range(100):
            mu = _random_measure(shg, rng)
            nu = _random_measure(shg, rng)
            f = _random_function(shg, rng)
            left = averaged_translate(convolve(mu, nu, shg), f, shg)
            right = averaged_translate(nu, averaged_translate(mu, f, shg), shg)
            assert left.values == right.values, name
            triples += 1
    print(
        f"\n[criterion 6] PASS - translation-matrix composition law on every "
        f"pair and the averaged-translate module law on {triples} random "
        "measure triples, all exact"
    )


def test_criterion_7_nonexpansive_and_orbit_bounds(corpus):
    rng = random.Random(717)
    samples = 0
    for name, shg in corpus:
        action = canonical_means_action(shg)
        l1 = Seminorm("l1", (F(1),) * shg.n)
        assert check_nonexpansive(action, [l1]).passed, name
        assert equicontinuity_bound(action, [l1]) == 1, name
        da = dual_action(shg)
        for _ in range(100):
            head = [F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(shg.n - 1)]
            u0 = tuple(head + [-sum(head, F(0))])
            sup, bound = da.orbit_bound(u0)
            assert sup <= bound, name
            samples += 1
    print(
        f"\n[criterion 7] PASS - canonical actions have l1 operator norm "
        f"exactly 1 on all fixtures; dual orbit bound held on {samples} "
        "random functionals"
    )


def _within_linf_of_fixed_set(action, point, eps: Fraction) -> bool:
    """Exact feasibility of {y in fixed set : |y - point|_inf <= eps}."""
    base = common_fixed_point_problem(action)
    n = base.n_vars
    x = [Fraction(v) for v in point]  # exact binary value of each float
    rows = list(base.rows)  # the slack columns n..3n-1 are zero on them
    rhs = list(base.rhs)
    for i in range(n):
        rows.append(((i, F(1)), (n + i, F(1))))
        rhs.append(x[i] + eps)
        rows.append(((i, F(1)), (2 * n + i, F(-1))))
        rhs.append(x[i] - eps)
    problem = LPProblem(
        rows=tuple(rows), rhs=tuple(rhs), nonneg=(True,) * (3 * n)
    )
    return solve_lp_feasibility(problem).feasible


def test_criterion_8_iterator_sanity(corpus):
    amenable = [
        (name, shg)
        for name, shg in corpus
        if find_left_invariant_mean(shg) is not None
    ]
    assert amenable
    for name, shg in amenable:
        action = canonical_means_action(shg)
        result = iterate_fixed_point(
            action.maps,
            action.carrier,
            weights=uniform_mean(shg.space),
            tol=1e-8,
            max_iter=10_000,
        )
        assert result.converged, name
        assert result.iterations <= 10_000
        assert _within_linf_of_fixed_set(
            action, result.point, F(1, 10**6)
        ), name
    print(
        f"\n[criterion 8] PASS - iterator reached residual <= 1e-8 on all "
        f"{len(amenable)} amenable fixtures and landed within 1e-6 of the "
        "exact fixed-point polytope"
    )


def test_criterion_9_cli_contract(tmp_path):
    for case in CASES:
        stdout, code, written = run_case(case, tmp_path / case.name)
        assert code == case.exit_code, case.name
        expected = (GOLDEN / f"{case.name}.out").read_text()
        assert normalize(stdout) == expected, case.name
        if case.writes:
            assert written == (GOLDEN / f"{case.name}.file.json").read_bytes()
            if case.identical_to_fixture:
                assert written == (
                    FIXTURES / case.identical_to_fixture
                ).read_bytes()
    print(
        f"\n[criterion 9] PASS - {len(CASES)} command-line cases "
        "byte-identical modulo timing, exit codes per contract"
    )
