"""Independent brute-force oracles for the test suite.

Deliberately separate implementations: convolution on raw weight tuples,
associativity by direct triple expansion, Gaussian elimination written from
scratch, the sparse `Fraction` elimination that the LP kernel ran before it
computed on integers, and invariant-mean feasibility by enumerating
candidate vertex supports.  Nothing here imports the package's solvers, so
these can referee them.
"""

from __future__ import annotations

import decimal
import json
from fractions import Fraction
from itertools import combinations, product

Weights = tuple[Fraction, ...]
Table = dict[tuple[int, int], Weights]


def table_of(shg) -> tuple[Table, int]:
    """Extract raw weights from a package structure for oracle use."""
    n = shg.space.n
    return (
        {
            (x, y): tuple(shg.table.entries[x][y].weights)
            for x in range(n)
            for y in range(n)
        },
        n,
    )


def oracle_document_table(doc: dict) -> tuple[list[str], Table]:
    """Dense weights of a structure document: each entry's items summed
    point by point, in the document's point order."""
    labels = doc["points"]
    n = len(labels)
    table = {}
    for x, y in product(range(n), repeat=2):
        weights = [Fraction(0)] * n
        for item in doc["convolution"][f"{labels[x]}|{labels[y]}"]:
            weights[labels.index(item["point"])] += Fraction(item["weight"])
        table[(x, y)] = tuple(weights)
    return labels, table


def oracle_sorted_table(labels: list[str], table: Table) -> tuple[list[str], Table]:
    """The same table with its points reordered into sorted label order."""
    order = sorted(range(len(labels)), key=lambda i: labels[i])
    return [labels[i] for i in order], {
        (a, b): tuple(table[(x, y)][k] for k in order)
        for a, x in enumerate(order)
        for b, y in enumerate(order)
    }


def oracle_decimal_text(k: int) -> str:
    """Decimal digits of k, independent of the int-string digit limit."""
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        return str(decimal.Decimal(k))


def oracle_structure_json(shg) -> str:
    """The canonical structure file as `json.dumps` writes it: the document
    with its points in sorted label order, each product's support in that
    order and each weight in lowest terms, keys sorted by `json` itself."""
    labels = shg.space.labels
    order = sorted(range(len(labels)), key=lambda i: labels[i])

    def text(w: Fraction) -> str:
        num = oracle_decimal_text(w.numerator)
        return num if w.denominator == 1 else f"{num}/{oracle_decimal_text(w.denominator)}"

    conv = {}
    for x, y in product(order, repeat=2):
        weights = dict(shg.table.supports[x][y])
        conv[f"{labels[x]}|{labels[y]}"] = [
            {"point": labels[z], "weight": text(weights[z])} for z in order if z in weights]
    doc = {"name": shg.name, "points": [labels[i] for i in order], "convolution": conv}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def oracle_convolve(mu: Weights, nu: Weights, table: Table, n: int) -> Weights:
    out = [Fraction(0)] * n
    for x in range(n):
        if mu[x] == 0:
            continue
        for y in range(n):
            if nu[y] == 0:
                continue
            w = mu[x] * nu[y]
            for z in range(n):
                out[z] += w * table[(x, y)][z]
    return tuple(out)


def oracle_point(i: int, n: int) -> Weights:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def oracle_associativity_witness(table: Table, n: int):
    """First triple where (p_x p_y) p_z differs from p_x (p_y p_z), or None."""
    for x, y, z in product(range(n), repeat=3):
        lhs = oracle_convolve(table[(x, y)], oracle_point(z, n), table, n)
        rhs = oracle_convolve(oracle_point(x, n), table[(y, z)], table, n)
        if lhs != rhs:
            return (x, y, z, lhs, rhs)
    return None


def oracle_left_invariance_failure(table: Table, n: int, mean: Weights):
    """First (s, p, m(L_s 1_p), m(1_p)) where the two differ, or None.

    Translates each indicator 1_p by (L_s f)(y) = sum_z (p_s p_y)(z) f(z)
    and integrates both sides against the candidate mean.
    """
    for s, p in product(range(n), repeat=2):
        f = oracle_point(p, n)
        translated = [
            sum((table[(s, y)][z] * f[z] for z in range(n)), Fraction(0))
            for y in range(n)
        ]
        lhs = sum((mean[y] * translated[y] for y in range(n)), Fraction(0))
        rhs = sum((mean[y] * f[y] for y in range(n)), Fraction(0))
        if lhs != rhs:
            return (s, p, lhs, rhs)
    return None


def oracle_action_axiom_failure(table: Table, n: int, mats, offs):
    """First (s, t, part) where the maps x -> mats[s] x + offs[s] break the
    action axiom, or None.

    Per pair, part "matrix" compares A_s A_t with sum_z (p_s*p_t)(z) A_z as
    dense d x d matrices, then part "offset" compares A_s b_t + b_s with
    sum_z (p_s*p_t)(z) b_z.  After every pair passes, a two-sided identity e
    (found by scanning the table) must act as the identity map, else
    (e, None, "identity") is returned.
    """
    d = len(offs[0])
    dims = range(d)
    for s, t in product(range(n), repeat=2):
        w = table[(s, t)]
        lhs = [
            [sum((mats[s][i][k] * mats[t][k][j] for k in dims), Fraction(0))
             for j in dims]
            for i in dims
        ]
        rhs = [
            [sum((w[z] * mats[z][i][j] for z in range(n)), Fraction(0))
             for j in dims]
            for i in dims
        ]
        if lhs != rhs:
            return (s, t, "matrix")
        lhs_off = [
            sum((mats[s][i][k] * offs[t][k] for k in dims), Fraction(0)) + offs[s][i]
            for i in dims
        ]
        rhs_off = [
            sum((w[z] * offs[z][i] for z in range(n)), Fraction(0)) for i in dims
        ]
        if lhs_off != rhs_off:
            return (s, t, "offset")
    for e in range(n):
        if all(table[(e, x)] == table[(x, e)] == oracle_point(x, n) for x in range(n)):
            identity = [[1 if i == j else 0 for j in dims] for i in dims]
            if [list(row) for row in mats[e]] != identity or any(offs[e]):
                return (e, None, "identity")
    return None


def oracle_invariance_failure(mats, offs):
    """First (s, j) where x -> mats[s] x + offs[s] sends the simplex vertex
    e_j to a dense image with a negative entry or entries not summing to 1,
    or None."""
    d = len(offs[0])
    for s, (mat, off) in enumerate(zip(mats, offs)):
        for j in range(d):
            image = [mat[i][j] + off[i] for i in range(d)]
            if min(image) < 0 or sum(image) != 1:
                return (s, j)
    return None


def oracle_operator_seminorm(matrix, kind, weights):
    """Dense operator seminorm of a square matrix: weighted l1 ("l1") is the
    largest weighted absolute column sum over its weight, weighted
    l-infinity ("linf") the largest weighted absolute row sum; None when a
    zero-weight direction makes it unbounded."""
    d, w = len(matrix), weights
    if kind == "l1":
        best = Fraction(0)
        for j in range(d):
            colsum = sum((w[i] * abs(matrix[i][j]) for i in range(d)), Fraction(0))
            if w[j] == 0:
                if colsum != 0:
                    return None
                continue
            best = max(best, colsum / w[j])
        return best
    best = Fraction(0)
    for i in range(d):
        if w[i] == 0:
            continue
        total = Fraction(0)
        for j in range(d):
            if matrix[i][j] == 0:
                continue
            if w[j] == 0:
                return None
            total += abs(matrix[i][j]) / w[j]
        best = max(best, w[i] * total)
    return best


def oracle_gauss_solve(rows, rhs):
    """Unique-solution Gaussian solve; None if inconsistent or undetermined."""
    solved = oracle_solve(rows, rhs)
    if solved is None or solved[1]:
        return None
    return solved[0]


def _left_matrices(table: Table, n: int):
    # M_s[y][z] = (p_s * p_y)(z)
    return [
        [list(table[(s, y)]) for y in range(n)]
        for s in range(n)
    ]


def oracle_invariance_rows(table: Table, n: int):
    """The n^2+1 rows of {m M_s = m for all s, sum m = 1}: row (s, z) at
    index s*n + z, then the normalization."""
    mats = _left_matrices(table, n)
    rows = []
    rhs = []
    for s in range(n):
        for z in range(n):
            rows.append(
                [mats[s][y][z] - (Fraction(1) if y == z else Fraction(0)) for y in range(n)]
            )
            rhs.append(Fraction(0))
    rows.append([Fraction(1)] * n)
    rhs.append(Fraction(1))
    return rows, rhs


def oracle_fixed_point_rows(mats, offs, vertices):
    """The rows of {(A_s - I) V lam = -b_s for every map s, sum lam = 1}, for
    V the dense matrix whose columns are the vertices: row (s, i) at index
    s*d + i, then the normalization."""
    d = len(offs[0])
    rows, rhs = [], []
    for mat, off in zip(mats, offs):
        for i in range(d):
            rows.append([sum((mat[i][j] * v[j] for j in range(d)), Fraction(0)) - v[i]
                         for v in vertices])
            rhs.append(-off[i])
    rows.append([Fraction(1)] * len(vertices))
    rhs.append(Fraction(1))
    return rows, rhs


def oracle_dual_rows(table: Table, n: int, b: int):
    """The n^2 rows of M_s^T (w + e_b) = w + e_b for all s, with
    w = sum_k c_k (e_k - e_{n-1}) over the n-1 unknowns c_k."""
    rows, rhs = [], []
    for s in range(n):
        image = [[sum((table[(s, y)][i] * v[y] for y in range(n)), Fraction(0))
                  for i in range(n)] for v in (oracle_point(k, n) for k in range(n))]
        for i in range(n):
            rows.append([image[k][i] - image[n - 1][i] - oracle_point(k, n)[i]
                         + oracle_point(n - 1, n)[i] for k in range(n - 1)])
            rhs.append(oracle_point(b, n)[i] - image[b][i])
    return rows, rhs


def oracle_is_farkas(rows, rhs, y) -> bool:
    """y.b > 0 and y.A <= 0 on every column: no x >= 0 has A x = b."""
    return len(y) == len(rows) and sum((a * b for a, b in zip(y, rhs)), Fraction(0)) > 0 and all(
        sum((a * row[j] for a, row in zip(y, rows)), Fraction(0)) <= 0
        for j in range(len(rows[0]))
    )


def oracle_invariant_mean_vertices(table: Table, n: int):
    """All vertices of {m >= 0, sum m = 1, m M_s = m for all s} by support
    enumeration; empty tuple means the polytope is empty."""
    rows, rhs = oracle_invariance_rows(table, n)

    vertices = set()
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            sub_rows = [[row[j] for j in support] for row in rows]
            solved = oracle_solve(sub_rows, rhs)
            if solved is None:
                continue
            sol = solved[0]
            if any(v < 0 for v in sol):
                continue
            full = [Fraction(0)] * n
            for j, v in zip(support, sol):
                full[j] = v
            # confirm against the full system
            if all(
                sum(r[j] * full[j] for j in range(n)) == b
                for r, b in zip(rows, rhs)
            ):
                vertices.add(tuple(full))
    return tuple(sorted(vertices))


def oracle_solve(rows, rhs):
    """(particular, null basis) of rows @ x = rhs, or None if inconsistent.

    Textbook Gauss-Jordan with row swaps.  The particular solution sets the
    free variables to 0; the null basis has one vector per free column c,
    with 1 at c and minus column c of the reduced rows at the pivots.
    """
    a = [list(r) for r in rows]
    b = list(rhs)
    m = len(a)
    n = len(a[0]) if m else 0
    piv = []
    r = 0
    for c in range(n):
        p = next((i for i in range(r, m) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        b[r], b[p] = b[p], b[r]
        inv = a[r][c]
        a[r] = [v / inv for v in a[r]]
        b[r] /= inv
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
                b[i] -= f * b[r]
        piv.append(c)
        r += 1
    for i in range(r, m):
        if b[i] != 0:
            return None
    sol = [Fraction(0)] * n
    for i, c in enumerate(piv):
        sol[c] = b[i]
    null = []
    for free in (c for c in range(n) if c not in piv):
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for i, c in enumerate(piv):
            vec[c] = -a[i][free]
        null.append(tuple(vec))
    return tuple(sol), tuple(null)


def _oracle_combine(terms):
    """Sum of coef * row over (row items, coef) terms, exact zeros removed."""
    out = {}
    for items, coef in terms:
        for k, w in items:
            out[k] = out.get(k, 0) + coef * w
    return {k: w for k, w in out.items() if w}


def oracle_row_reduce(rows, n: int):
    """The `Fraction` elimination that `algebra._row_reduce` replaced:
    (kept, contradiction) for sparse rows {column: Fraction}.

    Each row is reduced against every kept row at once, scaled to 1 at its
    first column below n and cleared from the kept rows, so the kept rows,
    by pivot column in the order kept, are the reduced echelon form.  A row
    that reduces to 0 = r != 0 returns the rows kept so far and that row
    times the sign of r; columns from n on never pivot.
    """
    kept = {}
    for v in rows:
        eliminate = [(kept[c].items(), -a) for c, a in v.items() if c in kept]
        if eliminate:
            v = _oracle_combine([(v.items(), 1), *eliminate])
        pc = min((j for j in v if j < n), default=None)
        if pc is None:
            if v.get(n):
                return kept, _oracle_combine(((v.items(), 1 if v[n] > 0 else -1),))
            continue
        v = _oracle_combine(((v.items(), 1 / v[pc]),))
        for c, row in kept.items():
            if pc in row:
                kept[c] = _oracle_combine(((row.items(), 1), (v.items(), -row[pc])))
        kept[pc] = v
    return kept, None


def oracle_bland_phase1(rows, rhs, nonneg):
    """(status, witness, certificate, pivots) of {A x = b, x_j >= 0 where
    nonneg[j]}, by a dense phase 1 on a list tableau.  The first independent
    rows of [A | b | I] are kept in reduced echelon form, in the order kept;
    a row reducing to 0 = r != 0 is certified by its identity block, scaled
    to r > 0.  Otherwise Bland's rule runs on split columns (x_j+, and x_j-
    for a free j), an artificial identity block and the right-hand side,
    with rows negated where b < 0, and an infeasible optimum combines the
    rows' identity blocks with 1 minus the artificials' reduced costs.
    """
    m, n = len(rows), len(nonneg)
    kept = []  # (pivot column, [A | b | I] row)
    for i, (row, b) in enumerate(zip(rows, rhs)):
        v = [Fraction(a) for a in row] + [Fraction(b)] + [Fraction(int(t == i)) for t in range(m)]
        for c, u in kept:
            if v[c] != 0:
                f = v[c]
                v = [a - f * w for a, w in zip(v, u)]
        pc = next((j for j in range(n) if v[j] != 0), None)
        if pc is None:
            if v[n] != 0:
                sign = 1 if v[n] > 0 else -1
                return "infeasible", None, tuple(sign * a for a in v[n + 1:]), 0
            continue
        v = [a / v[pc] for a in v]
        kept = [(c, [a - u[pc] * w for a, w in zip(u, v)]) for c, u in kept]
        kept.append((pc, v))
    base = [[-a for a in u] if u[n] < 0 else u for _, u in kept]
    k = len(base)
    colmap = [(j, s) for j in range(n) for s in ((1,) if nonneg[j] else (1, -1))]
    ns = len(colmap)
    tableau = [[u[j] * s for j, s in colmap] + [Fraction(int(t == i)) for t in range(k)] + [u[n]]
               for i, u in enumerate(base)]
    basis = [ns + i for i in range(k)]
    cost = [-sum((t[c] for t in tableau), Fraction(0)) for c in range(ns)]
    cost += [Fraction(0)] * k + [-sum((t[-1] for t in tableau), Fraction(0))]

    def pivot(r, col):
        p = tableau[r][col]
        tableau[r] = [a / p for a in tableau[r]]
        for i in range(k):
            if i != r and tableau[i][col] != 0:
                f = tableau[i][col]
                tableau[i] = [a - f * w for a, w in zip(tableau[i], tableau[r])]
        f = cost[col]
        cost[:] = [a - f * w for a, w in zip(cost, tableau[r])]
        basis[r] = col

    pivots = 0
    while (enter := next((c for c in range(ns) if cost[c] < 0), None)) is not None:
        ratios = [(tableau[i][-1] / tableau[i][enter], basis[i], i)
                  for i in range(k) if tableau[i][enter] > 0]
        pivot(min(ratios)[2], enter)
        pivots += 1
    if cost[-1] < 0:
        y = [1 - cost[ns + i] for i in range(k)]
        return "infeasible", None, tuple(
            sum((yi * u[n + 1 + r] for yi, u in zip(y, base)), Fraction(0)) for r in range(m)
        ), pivots
    for i in range(k):
        if basis[i] >= ns:
            pivot(i, next(c for c in range(ns) if tableau[i][c] != 0))
            pivots += 1
    witness = [Fraction(0)] * n
    for i, c in enumerate(basis):
        j, s = colmap[c]
        witness[j] += s * tableau[i][-1]
    return "feasible", tuple(witness), None, pivots


def oracle_lim_feasible(table: Table, n: int) -> bool:
    return bool(oracle_invariant_mean_vertices(table, n))


def oracle_feasible(rows, rhs, n: int) -> bool:
    """Feasibility of {A x = b, x >= 0} by basic-solution support enumeration.

    Valid because a nonempty polyhedron of this form is pointed and therefore
    has a basic feasible solution, whose support is one of the enumerated
    subsets (including the empty one).
    """
    supports = [()]
    for size in range(1, n + 1):
        supports.extend(combinations(range(n), size))
    for support in supports:
        sub_rows = [[row[j] for j in support] for row in rows]
        solved = oracle_solve(sub_rows, rhs) if support else (
            ((), ()) if all(b == 0 for b in rhs) else None
        )
        if solved is None:
            continue
        sol = solved[0]
        if any(v < 0 for v in sol):
            continue
        full = [Fraction(0)] * n
        for j, v in zip(support, sol):
            full[j] = v
        if all(
            sum(r[j] * full[j] for j in range(n)) == b for r, b in zip(rows, rhs)
        ):
            return True
    return False


def oracle_quotient(n: int, class_of, samples):
    """Brute-force quotient of points 0..n-1 by the classes class_of(x).

    Classes are frozensets listed in first-seen order.  Entry (a, b) sums
    Fraction(1, |samples|) at the class of each z in samples(x, y), for every
    representative pair (x, y) of classes a and b.  Returns (classes, table)
    in the `table_of` layout, or None when some entry depends on the
    representatives.
    """
    classes: list[frozenset] = []
    for x in range(n):
        c = frozenset(class_of(x))
        if c not in classes:
            classes.append(c)
    table: Table = {}
    for a, ca in enumerate(classes):
        for b, cb in enumerate(classes):
            seen = set()
            for x in ca:
                for y in cb:
                    zs = list(samples(x, y))
                    w = [Fraction(0)] * len(classes)
                    for z in zs:
                        w[next(k for k, c in enumerate(classes) if z in c)] += Fraction(
                            1, len(zs)
                        )
                    seen.add(tuple(w))
            if len(seen) != 1:
                return None
            table[(a, b)] = seen.pop()
    return classes, table


def oracle_coset_space(prod, h):
    """Left cosets xH; entry (xH, yH) averages (x.t.y)H over t in H."""
    return oracle_quotient(
        len(prod),
        lambda x: {prod[x][t] for t in h},
        lambda x, y: [prod[prod[x][t]][y] for t in h],
    )


def oracle_double_coset_space(prod, h):
    """Double cosets HxH; entry (HxH, HyH) averages H(x.t.y)H over t in H."""
    return oracle_quotient(
        len(prod),
        lambda x: {prod[prod[s][x]][t] for s in h for t in h},
        lambda x, y: [prod[prod[x][t]][y] for t in h],
    )


def oracle_orbit_space(prod, act):
    """Orbits of act; entry averages the orbit of act[s][x].act[t][y]."""
    return oracle_quotient(
        len(prod),
        lambda x: {row[x] for row in act},
        lambda x, y: [prod[r[x]][q[y]] for r in act for q in act],
    )


def oracle_subgroups(prod, e: int):
    """Every subgroup of a finite group, as sorted index tuples.

    Starts from {e} and closes each found subgroup plus one more element
    until nothing new appears.  Every subgroup K is reached: adding its
    elements one at a time gives a chain of closures inside K ending at K.
    """
    def close(gens):
        h = {e} | set(gens)
        while True:
            more = h | {prod[a][b] for a in h for b in h}
            if more == h:
                return frozenset(h)
            h = more

    found = {close(())}
    frontier = list(found)
    while frontier:
        nxt = []
        for h in frontier:
            for x in range(len(prod)):
                if x not in h:
                    k = close(h | {x})
                    if k not in found:
                        found.add(k)
                        nxt.append(k)
        frontier = nxt
    return sorted(tuple(sorted(h)) for h in found)


def oracle_cayley_witness(prod):
    """First (x, y, z) with (x.y).z != x.(y.z) in an integer table, or None."""
    n = len(prod)
    for x, y, z in product(range(n), repeat=3):
        if prod[prod[x][y]][z] != prod[x][prod[y][z]]:
            return (x, y, z)
    return None


def oracle_rank(vectors, n: int) -> int:
    """Rank of a list of length-n vectors, via the null space of their columns."""
    if not vectors:
        return 0
    columns = [[v[i] for v in vectors] for i in range(n)]
    return len(vectors) - len(oracle_solve(columns, [Fraction(0)] * n)[1])


def oracle_identity(table: Table, n: int):
    """The point e with p_e*p_x = p_x = p_x*p_e for every x, or None."""
    return next((e for e in range(n) if all(
        table[(e, x)] == table[(x, e)] == oracle_point(x, n) for x in range(n))), None)


def oracle_closure(table: Table, n: int, gens):
    """A basis of the smallest subspace that holds the identity's mass (if
    any) and every p_g, g in gens, and is closed under v -> v*p_g and
    v -> p_g*v: every product of a basis vector with a generator that raises
    the rank joins the basis, until none does."""
    units = [oracle_point(g, n) for g in gens]
    e = oracle_identity(table, n)
    basis = []
    todo = units + ([] if e is None else [oracle_point(e, n)])
    while todo:
        v = todo.pop()
        if oracle_rank(basis + [v], n) == len(basis):
            continue
        basis.append(v)
        for u in units:
            todo += [oracle_convolve(v, u, table, n), oracle_convolve(u, v, table, n)]
    return basis


def oracle_generating_points(table: Table, n: int):
    """Greedy generators: each point whose mass is outside the closure of the
    identity and the points chosen before it."""
    gens = []
    for i in range(n):
        span = oracle_closure(table, n, gens)
        if oracle_rank(span + [oracle_point(i, n)], n) > oracle_rank(span, n):
            gens.append(i)
    return gens


def oracle_iterate(maps, vertices, weights=None, tol=1e-9, max_iter=10000):
    """The averaged float iteration as a plain loop of `max_iter` steps at
    most, with no cycle skip: (converged, point, residual, iterations).

    `maps` are `AffineMap`s (read through `apply_float`) or callables;
    `vertices` are the carrier's exact vertices and `weights` the exact map
    weights (uniform when None).  Each map is first evaluated at each vertex,
    in the order the package's spot check uses, so a stateful callable sees
    the same sequence of calls."""
    applied = [getattr(m, "apply_float", None)
               or (lambda x, fn=m: tuple(float(v) for v in fn(x))) for m in maps]
    if weights is None:
        w = [1.0 / len(applied)] * len(applied)
    else:
        w = [float(v) for v in weights]
    float_vertices = [tuple(float(v) for v in p) for p in vertices]
    for fn in applied:
        for p in float_vertices:
            fn(p)
    d = len(vertices[0])
    x = tuple(float(sum((p[i] for p in vertices), Fraction(0)) / len(vertices))
              for i in range(d))

    def residual_at(images, x):
        worst = 0.0
        for img in images:
            worst = max(worst, max((abs(a - b) for a, b in zip(img, x)), default=0.0))
        return worst

    images = [fn(x) for fn in applied]
    residual = residual_at(images, x)
    iterations = 0
    while residual > tol and iterations < max_iter:
        averaged = [0.0] * d
        for wi, img in zip(w, images):
            averaged = [a + wi * v for a, v in zip(averaged, img)]
        x = tuple(0.5 * a + 0.5 * b for a, b in zip(x, averaged))
        iterations += 1
        images = [fn(x) for fn in applied]
        residual = residual_at(images, x)
    return residual <= tol, x, residual, iterations
