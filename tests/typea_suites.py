"""The type-A oracles and check suites.

The oracles are the paths :mod:`coxclusters.typea` does not take: the
tridiagonal matrix and its minors by cofactor expansion, the F-polynomials
as minors of a product of elementary matrices and in closed form, and the
polygon naming of the variables by diagonals of the (n+3)-gon.

The suites check the tridiagonal-minor realization and the strip rule for
universal coefficients against the engine.  They return
:class:`coxclusters.checks.CheckResult` lists like the suites of
:mod:`coxclusters.checks`, under the same ``typea/...`` names, and only the
tests call them.
"""

from functools import lru_cache
from typing import NamedTuple

from coxclusters import typea
from coxclusters.algebra import _fpoly_ring, explore, label_variables, universal_seed
from coxclusters.cartan import cartan_from_label
from coxclusters.checks import CheckResult, _result, principal_run
from coxclusters.coxeter import PiLabel, coxeter_element, pi_set
from coxclusters.typea import matrix_ring
from conftest import evaluate


class Diagonal(NamedTuple):
    """Vertex pair a < b of the convex (n+3)-gon; boundary sides are unit
    variables.  A tuple, so it equals and orders as the plain pair (a, b)
    that :func:`coxclusters.typea.universal_coeff_typea` returns."""

    a: int
    b: int


def tridiagonal(n):
    """Rows of the symbolic (n+1)x(n+1) tridiagonal matrix over
    :func:`coxclusters.typea.matrix_ring`: diagonal v_i, superdiagonal y_i,
    subdiagonal 1."""
    ring, size = matrix_ring(n), n + 1

    def entry(r, c):
        if r == c:
            return ring.gen(r)
        if c == r + 1:
            return ring.gen(size + r)
        return ring.one() if r == c + 1 else ring.zero()

    return tuple(tuple(entry(r, c) for c in range(size)) for r in range(size))


def determinant(rows):
    """Cofactor expansion along the first row, skipping zero entries."""
    first, rest = rows[0], rows[1:]
    if not rest:
        return first[0]
    total = zero = first[0].ring.zero()
    for c, entry in enumerate(first):
        if entry != zero:
            piece = entry * determinant([row[:c] + row[c + 1:] for row in rest])
            total = total + piece if c % 2 == 0 else total - piece
    return total


def generic_minor(mat, rows, cols):
    """Minor of the matrix with rows ``mat`` on the given 1-based row and column sets."""
    return determinant([tuple(mat[r - 1][c - 1] for c in cols) for r in rows])


@lru_cache(maxsize=None)
def _fmatrix(n):
    """Product of the lower unit elementaries at 1 and the upper ones at t_n..t_1.

    Each factor is the identity plus v at the 0-based position (r, c), so
    multiplying the product by it on the right is the column operation
    column c += v * column r.  The factors are, in order, the lower ones
    (r, c) = (i + 1, i) with v = 1 for i = 0 .. n-1, then the upper ones
    (r, c) = (i, i + 1) with v = t_{i+1} for i = n-1 .. 0.  The rows are
    returned, with entries in the engine's F-polynomial ring.
    """
    ring = _fpoly_ring(n)
    size = n + 1
    prod = [[ring.one() if a == b else ring.zero() for b in range(size)] for a in range(size)]
    steps = [(i + 1, i, ring.one()) for i in range(n)]
    steps += [(i, i + 1, ring.gen(i)) for i in reversed(range(n))]
    for r, c, v in steps:
        for row in prod:
            row[c] = row[c] + v * row[r]
    return prod


def f_poly_via_matrix(n, label):
    """F-polynomial of the variable labelled (i, m) for the linear order, as a minor.

    The label (i, m) corresponds to the interval [m+1, m+i+1], i.e. the minor
    on rows and columns m+1 .. m+i+1 of the symbolic product matrix.
    """
    k = label.i + 1
    mshift = label.m
    if not (1 <= k <= n and 0 <= mshift <= n + 1 - k):
        raise ValueError(f"label ({label.i}, {label.m}) out of range for rank {n}")
    rows = range(mshift + 1, mshift + k + 1)
    return generic_minor(_fmatrix(n), rows, rows)


def f_poly_closed_form(n, label):
    """1 + t_m + t_m t_{m+1} + ... + t_m .. t_{m+k-1}, empty sum for the initial variables."""
    ring = _fpoly_ring(n)
    total = ring.one()
    if label.m == 0:
        return total
    exps = [0] * n
    for t in range(label.m - 1, label.m + label.i):
        exps[t] += 1
        total = total + ring.monomial(tuple(exps))
    return total


def is_boundary(d, n):
    """Whether the vertex pair ``d`` is a side of the (n+3)-gon, a unit variable."""
    return d.b - d.a == 1 or (d.a, d.b) == (1, n + 3)


def diagonal_of_label(n, label):
    """Interval [m+1, m+k] maps to the diagonal cutting off its vertex range."""
    return Diagonal(label.m + 1, label.m + label.i + 3)


def label_of_diagonal(n, diag):
    if is_boundary(diag, n):
        raise ValueError(f"{diag} is a boundary side, not a diagonal")
    k = diag.b - diag.a - 1
    m = diag.a - 1
    if not (1 <= k <= n and 0 <= m <= n + 1 - k):
        raise ValueError(f"{diag} is not a diagonal of the {n + 3}-gon")
    return PiLabel(k - 1, m)


def crossing_quadruple(d1, d2):
    """The cyclically ordered quadruple when the two diagonals cross, else None."""
    a, b = sorted((d1, d2))
    if a.a < b.a < a.b < b.b:
        return (a.a, b.a, a.b, b.b)
    return None


def typea_checks(n: int, engine_cap: int = 100_000) -> list[CheckResult]:
    """Symbolic relation verification, the minor realization of the variable
    set, and the matrix route to F-polynomials, against the engine."""
    name = f"A{n}"
    out = []
    checks = typea.verify_exchange_relations(n)
    out.append(
        _result(
            "typea/exchange-relations",
            name,
            all(ch.ok for ch in checks),
            f"{len(checks)} relations",
        )
    )

    mat = tridiagonal(n)
    minor_ok = all(
        typea.interval_minor(n, i, j)
        == generic_minor(mat, range(i, j + 1), range(i, j + 1))
        for i in range(1, n + 2)
        for j in range(i, n + 2)
    )
    out.append(_result("typea/minor-recurrence-vs-determinant", name, minor_ok))

    ring = matrix_ring(n)
    prod_ok = True
    for k in range(1, n + 1):
        upper = generic_minor(mat, range(1, k + 1), range(2, k + 2))
        lower = generic_minor(mat, range(2, k + 2), range(1, k + 1))
        ymono = ring.one()
        for t in range(k):
            ymono = ymono * ring.gen(n + 1 + t)
        if upper != ymono or lower != ring.one():
            prod_ok = False
    out.append(_result("typea/offset-minor-products", name, prod_ok))

    m = cartan_from_label("A", n)
    c = coxeter_element(m, range(n))
    graph, records = principal_run(m, c, engine_cap)

    fm_ok = True
    fc_ok = True
    for r in records:
        via_matrix = f_poly_via_matrix(n, r.label)
        if via_matrix != f_poly_closed_form(n, r.label):
            fc_ok = False
        if via_matrix.key() != r.fpoly.key():
            fm_ok = False
    out.append(_result("typea/f-matrix-equals-closed-form", name, fc_ok))
    out.append(_result("typea/f-matrix-equals-engine", name, fm_ok))

    # The interval minors, rewritten in the initial cluster variables, must
    # reproduce the engine's variable set exactly.
    engine_ring = graph.ring
    values = []
    for k in range(1, n + 2):
        if k == 1:
            values.append(engine_ring.gen(0))
            continue
        upper = engine_ring.one() if k == n + 1 else engine_ring.gen(k - 1)
        below = engine_ring.one() if k == 2 else engine_ring.gen(k - 3)
        ygen = engine_ring.gen(n + k - 2)
        prev = engine_ring.gen(k - 2)
        values.append((upper + ygen * below) * prev ** -1)
    values += [engine_ring.gen(n + t) for t in range(n)]
    minors = set()
    for i in range(1, n + 2):
        for j in range(i, n + 2):
            if (i, j) == (1, n + 1):
                continue
            minors.add(evaluate(typea.interval_minor(n, i, j), values, engine_ring))
    count_expect = (n + 1) * (n + 2) // 2 - 1
    set_ok = minors == set(graph.variables) and len(minors) == count_expect
    out.append(_result("typea/variables-are-interval-minors", name, set_ok,
                       f"{len(minors)} minors vs {len(graph.variables)} variables"))

    labels_by_diag = {}
    for r in records:
        labels_by_diag[diagonal_of_label(n, r.label)] = r.label
    bij_ok = len(labels_by_diag) == len(records) and all(
        label_of_diagonal(n, d) == lab for d, lab in labels_by_diag.items()
    )
    out.append(_result("typea/diagonal-bijection", name, bij_ok))
    return out


def typea_universal_coefficients(n: int, cap: int = 100_000) -> list[CheckResult]:
    """Strip-rule coefficients must match every harvested exchange relation of
    the universal engine run, and specialize to the consecutive products."""
    name = f"A{n}"
    m = cartan_from_label("A", n)
    c = coxeter_element(m, range(n))
    graph = explore(universal_seed(m, c), cap=cap)
    labels = label_variables(m, c, graph)
    gen_labels = [lab for lab, _ in pi_set(m, c)]
    gen_of_diag = {diagonal_of_label(n, lab): pos for pos, lab in enumerate(gen_labels)}
    diag_of_var = [diagonal_of_label(n, lab) for lab in labels]

    def strip_side(coef_diags, var_diags):
        coef = [0] * len(gen_labels)
        for d in coef_diags:
            coef[gen_of_diag[d]] += 1
        return tuple(coef), tuple(sorted((d, 1) for d in var_diags if not is_boundary(d, n)))

    ok = True
    spec_ok = True
    for rel in graph.relations:
        (d1, d2), sides = rel.renamed(diag_of_var)
        quad = crossing_quadruple(d1, d2)
        if quad is None:
            ok = False
            continue
        i, j, k, l = quad
        plus, minus = typea.universal_coeff_typea(n, quad)
        expected = sorted(
            (
                strip_side(plus, (Diagonal(i, j), Diagonal(k, l))),
                strip_side(minus, (Diagonal(i, l), Diagonal(j, k))),
            )
        )
        if sides != tuple(expected):
            ok = False
        # Specialization of the strip coefficients to the principal ones.
        spec_plus = sorted(b - 2 for a, b in plus if a == 1)
        spec_minus = [(a, b) for a, b in minus if a == 1]
        if spec_plus != list(range(j - 1, k - 1)) or spec_minus:
            spec_ok = False
    out = [
        _result("typea/strip-rule-matches-engine", name, ok, f"{len(graph.relations)} relations"),
        _result("typea/strip-rule-specializes-to-consecutive-products", name, spec_ok),
    ]
    return out
