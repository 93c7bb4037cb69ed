"""The type-A check suites: the tridiagonal-minor realization and the
strip rule for universal coefficients, each against the engine.

They return :class:`coxclusters.checks.CheckResult` lists like the suites
of :mod:`coxclusters.checks`, under the same ``typea/...`` names, and only
the tests call them.
"""

from coxclusters import typea
from coxclusters.algebra import explore, label_variables, universal_seed
from coxclusters.cartan import cartan_from_label
from coxclusters.checks import CheckResult, _result, principal_run
from coxclusters.coxeter import coxeter_element, pi_set
from conftest import evaluate


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

    mat = typea.tridiagonal(n)
    minor_ok = all(
        typea.interval_minor(n, i, j)
        == typea.generic_minor(mat, range(i, j + 1), range(i, j + 1))
        for i in range(1, n + 2)
        for j in range(i, n + 2)
    )
    out.append(_result("typea/minor-recurrence-vs-determinant", name, minor_ok))

    ring = typea.matrix_ring(n)
    prod_ok = True
    for k in range(1, n + 1):
        upper = typea.generic_minor(mat, range(1, k + 1), range(2, k + 2))
        lower = typea.generic_minor(mat, range(2, k + 2), range(1, k + 1))
        ymono = ring.one()
        for t in range(k):
            ymono = ymono * ring.gen(n + 1 + t)
        if upper != ymono or not lower.is_one():
            prod_ok = False
    out.append(_result("typea/offset-minor-products", name, prod_ok))

    m = cartan_from_label("A", n)
    c = coxeter_element(m, range(n))
    graph, records = principal_run(m, c, engine_cap)

    fm_ok = True
    fc_ok = True
    for r in records:
        via_matrix = typea.f_poly_via_matrix(n, r.label)
        if via_matrix != typea.f_poly_closed_form(n, r.label):
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
        num_parts = []
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
        labels_by_diag[typea.diagonal_of_label(n, r.label)] = r.label
    bij_ok = len(labels_by_diag) == len(records) and all(
        typea.label_of_diagonal(n, d) == lab for d, lab in labels_by_diag.items()
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
    gen_of_diag = {typea.diagonal_of_label(n, lab): pos for pos, lab in enumerate(gen_labels)}
    diag_of_var = [typea.diagonal_of_label(n, lab) for lab in labels]

    def strip_side(coef_diags, var_diags):
        coef = [0] * len(gen_labels)
        for d in coef_diags:
            coef[gen_of_diag[d]] += 1
        return tuple(coef), tuple(sorted((d, 1) for d in var_diags if not d.is_boundary(n)))

    ok = True
    spec_ok = True
    for rel in graph.relations:
        (d1, d2), sides = rel.renamed(diag_of_var)
        quad = typea.crossing_quadruple(d1, d2)
        if quad is None:
            ok = False
            continue
        i, j, k, l = quad
        plus, minus = typea.universal_coeff_typea(n, quad)
        expected = sorted(
            (
                strip_side(plus, (typea.Diagonal(i, j), typea.Diagonal(k, l))),
                strip_side(minus, (typea.Diagonal(i, l), typea.Diagonal(j, k))),
            )
        )
        if sides != tuple(expected):
            ok = False
        # Specialization of the strip coefficients to the principal ones.
        spec_plus = sorted(d.b - 2 for d in plus if d.a == 1)
        spec_minus = [d for d in minus if d.a == 1]
        if spec_plus != list(range(j - 1, k - 1)) or spec_minus:
            spec_ok = False
    out = [
        _result("typea/strip-rule-matches-engine", name, ok, f"{len(graph.relations)} relations"),
        _result("typea/strip-rule-specializes-to-consecutive-products", name, spec_ok),
    ]
    return out
