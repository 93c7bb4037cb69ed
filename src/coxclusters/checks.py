"""Invariant suites shared by the command-line verifier and the test suite.

Every suite returns a list of :class:`CheckResult`; a failing result
carries enough detail to locate the instance.  All checks are exact.  The
two suites that read the engine's principal run of an orientation take it
as an argument: the caller computes it once with :func:`principal_run`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .algebra import (
    ClusterVariableRecord,
    ExchangeGraph,
    explore,
    extract_record,
    g_vector_walk,
    label_variables,
    mutate,
    principal_seed,
    records_for,
    relabel_seed,
    separation_form,
    universal_primitive_relations,
    universal_seed,
)
from .cartan import CartanMatrix, bipartition
from .coxeter import (
    CoxeterElement,
    PiLabel,
    PrimitiveRelation,
    _data,
    all_roots,
    b_matrix,
    beta_roots,
    bipartite_element,
    clusters,
    compatibility_table,
    component_coxeter_number,
    coxeter_number,
    cyclical_move,
    denominator,
    h_vector,
    move_graph,
    pi_set,
    precedes,
    primitive_relations,
    root_compat_table,
    sources,
)
from .weyl import Root, apply_word, simple_root


@dataclass
class CheckResult:
    suite: str
    instance: str
    passed: bool
    detail: str = ""


def _result(suite: str, instance: str, ok: bool, detail: str = "") -> CheckResult:
    return CheckResult(suite=suite, instance=instance, passed=bool(ok), detail=detail)


def _fmt_c(c: CoxeterElement) -> str:
    return ",".join(str(i + 1) for i in c.order)


# -- cartan ----------------------------------------------------------------------


def cartan_invariants(m: CartanMatrix) -> list[CheckResult]:
    out = []
    sym_ok = all(
        m.d[i] * m.a[i][j] == m.d[j] * m.a[j][i] for i in range(m.n) for j in range(m.n)
    )
    out.append(_result("cartan/symmetrizer", "", sym_ok))
    eps = bipartition(m)
    color_ok = all(eps[i] * eps[j] == -1 for i, j in m.edges())
    out.append(_result("cartan/bipartition-2-coloring", "", color_ok))
    return out


# -- coxeter combinatorics ----------------------------------------------------------


def chain_and_h_checks(m: CartanMatrix, c: CoxeterElement) -> list[CheckResult]:
    """Strictly decreasing rotation chains, the h-difference rule on edges, h + h*
    against the Coxeter number, and |Pi(c)| against the n(h + 2)/2 almost positive roots."""
    name = _fmt_c(c)
    out = []
    try:
        h, star = h_vector(m, c)  # chain positivity asserted during iteration
        out.append(_result("coxeter/chain-positivity", name, True))
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        out.append(_result("coxeter/chain-positivity", name, False, str(exc)))
        return out
    ok = all(star[star[i]] == i for i in range(m.n))
    out.append(_result("coxeter/star-involution", name, ok))
    diff_ok = True
    for i in range(m.n):
        for j in m.neighbors(i):
            if precedes(m, c, i, j):
                expect = 1 if precedes(m, c, star[j], star[i]) else 0
                if h[i] - h[j] != expect:
                    diff_ok = False
    out.append(_result("coxeter/h-difference-rule", name, diff_ok))
    sum_ok = all(
        h[i] + h[star[i]] == component_coxeter_number(m, i) for i in range(m.n)
    )
    out.append(_result("coxeter/h-plus-h-star", name, sum_ok))
    B = b_matrix(m, c)
    skew_ok = all(
        m.d[i] * B[i][j] == -m.d[j] * B[j][i] for i in range(m.n) for j in range(m.n)
    )
    out.append(_result("coxeter/B-skew-symmetrizable", name, skew_ok))
    size = len(set(_data(m, c)._weights))
    expect = sum(len(comp) * (hc + 2) // 2 for comp, hc in zip(m.components, coxeter_number(m)))
    detail = f"{size} distinct weights, {expect} expected"
    out.append(_result("coxeter/pi-size", name, size == expect, detail))
    return out


def bipartite_h_values(m: CartanMatrix) -> list[CheckResult]:
    t = bipartite_element(m)
    eps = bipartition(m)
    h, _ = h_vector(m, t)
    ok = True
    for i in range(m.n):
        hc = component_coxeter_number(m, i)
        expect = (hc + 1) // 2 if eps[i] == 1 else hc // 2
        if h[i] != expect:
            ok = False
    return [_result("coxeter/bipartite-h-values", _fmt_c(t), ok)]


def move_update_rule(m: CartanMatrix) -> list[CheckResult]:
    """Across every source rotation (an edge of the move graph), h changes by
    -1 at the source when its star differs, by +1 at indices whose star is
    the source, else not at all."""
    out = []
    graph = move_graph(m)
    for a, b, s in graph.edges:
        c, ct = graph.elements[a], graph.elements[b]
        h, star = h_vector(m, c)
        ht, _ = h_vector(m, ct)
        ok = True
        for i in range(m.n):
            if i == s and star[i] != s:
                expect = h[i] - 1
            elif i != s and star[i] == s:
                expect = h[i] + 1
            else:
                expect = h[i]
            if ht[i] != expect:
                ok = False
        out.append(_result("coxeter/move-update-rule", f"{_fmt_c(c)}@{s + 1}", ok))
    return out


def move_graph_connected(m: CartanMatrix) -> list[CheckResult]:
    graph = move_graph(m)
    return [
        _result(
            "coxeter/move-graph-connected",
            f"{len(graph.elements)} elements",
            graph.is_connected(),
        )
    ]


def orbit_representatives(m: CartanMatrix, c: CoxeterElement) -> list[CheckResult]:
    """Every rotation orbit on the root system holds exactly one first-family
    root and exactly one negated backward image of one."""
    name = _fmt_c(c)
    roots = {r.d for r in all_roots(m)}
    betas = {r.d for r in beta_roots(m, c)}
    inv_word = tuple(reversed(c.order))
    neg_pulled = set()
    for d in betas:
        pulled = apply_word(m, inv_word, Root(d))
        neg_pulled.add(tuple(-x for x in pulled.d))
    seen = set()
    ok = True
    orbit_count = 0
    for start in sorted(roots):
        if start in seen:
            continue
        orbit_count += 1
        orbit = []
        cur = Root(start)
        while cur.d not in seen:
            seen.add(cur.d)
            orbit.append(cur.d)
            cur = apply_word(m, c.order, cur)
        if sum(1 for d in orbit if d in betas) != 1:
            ok = False
        if sum(1 for d in orbit if d in neg_pulled) != 1:
            ok = False
    return [_result("coxeter/orbit-representatives", name, ok, f"{orbit_count} orbits")]


def beta_telescoping(m: CartanMatrix, c: CoxeterElement) -> list[CheckResult]:
    betas = beta_roots(m, c)
    ok = True
    for j in range(m.n):
        total = betas[j]
        for i in range(m.n):
            if precedes(m, c, i, j):
                total = Root(tuple(t + m.a[i][j] * b for t, b in zip(total.d, betas[i].d)))
        if total != simple_root(m.n, j):
            ok = False
    return [_result("coxeter/beta-telescoping", _fmt_c(c), ok)]


# -- compatibility ----------------------------------------------------------------


def compat_symmetry_at_zero(m: CartanMatrix, c: CoxeterElement) -> list[CheckResult]:
    _, rows = compatibility_table(m, c)
    zeros = [tuple(x == 0 for x in row) for row in rows]
    ok = zeros == list(zip(*zeros))
    return [_result("compat/symmetry-at-zero", _fmt_c(c), ok)]


def compat_reduction_agreement(m: CartanMatrix, c: CoxeterElement) -> list[CheckResult]:
    ok = compatibility_table(m, c) == compatibility_table(m, c, use_inverse=True)
    return [_result("compat/forward-backward-reduction", _fmt_c(c), ok)]


def compat_duality(m: CartanMatrix, c: CoxeterElement) -> list[CheckResult]:
    """Pairing against the transposed Cartan matrix reverses the arguments."""
    mt = m.transpose()
    hd, _ = h_vector(mt, c)
    h, _ = h_vector(m, c)
    if hd != h:
        return [_result("compat/duality", _fmt_c(c), False, "dual h-vector differs")]
    labels, rows = compatibility_table(m, c)
    dual_labels, dual_rows = compatibility_table(mt, c)
    dual_index = {lab: k for k, lab in enumerate(dual_labels)}
    perm = [dual_index[lab] for lab in labels]
    # dual[a][b] pairs labels[a] with labels[b] against the transpose.
    dual = [tuple(dual_rows[p][q] for q in perm) for p in perm]
    ok = rows == tuple(zip(*dual))
    return [_result("compat/duality", _fmt_c(c), ok)]


def compat_linear_identity(m: CartanMatrix, c: CoxeterElement) -> list[CheckResult]:
    """Alternating-sum identity tying the pairings against the rotated and the
    plain fundamental weights, including its two exceptional values."""
    labels, rows = compatibility_table(m, c)
    index = {lab: k for k, lab in enumerate(labels)}
    ok = True
    for j in range(m.n):
        wj, cwj = index[PiLabel(j, 0)], index[PiLabel(j, 1)]
        # (coefficient, label column) of each side's sum
        left = [(1, cwj)] + [
            (m.a[i][j], index[PiLabel(i, 1)]) for i in range(m.n) if precedes(m, c, i, j)
        ]
        right = [(1, wj)] + [
            (m.a[i][j], index[PiLabel(i, 0)]) for i in range(m.n) if precedes(m, c, j, i)
        ]
        for g, row in enumerate(rows):
            lhs = sum(a * row[k] for a, k in left)
            rhs = sum(a * row[k] for a, k in right)
            if g == wj:
                if not (rhs == 0 and lhs == 1):
                    ok = False
            elif g == cwj:
                if not (lhs == 0 and rhs == 1):
                    ok = False
            elif lhs != -rhs:
                ok = False
    return [_result("compat/linear-identity", _fmt_c(c), ok)]


def bipartite_compat_oracle(m: CartanMatrix) -> list[CheckResult]:
    """The label pairing for the bipartite element equals the root pairing
    transported through the almost-positive-roots bijection."""
    t = bipartite_element(m)
    labels, rows = compatibility_table(m, t)
    roots, root_rows = root_compat_table(m)
    root_index = {r.d: k for k, r in enumerate(roots)}
    image = [root_index[denominator(m, t, lab).d] for lab in labels]
    bij_ok = len(set(image)) == len(labels)
    ok = bij_ok and all(
        row == tuple(root_rows[image[a]][b] for b in image) for a, row in enumerate(rows)
    )
    return [_result("compat/bipartite-oracle", _fmt_c(t), ok)]


# -- engine vs closed formulas ---------------------------------------------------


def closed_relation(pr: PrimitiveRelation) -> tuple:
    """A closed-form relation as (sorted label pair, sorted sides), the form
    of :meth:`Relation.renamed` with variables named by their labels."""
    sides = ((pr.monomial_coef, pr.monomial_vars), (pr.constant_coef, ()))
    return tuple(sorted(pr.left)), tuple(sorted(sides))


def shares_cluster_with_initial(cluster_sets) -> set:
    """The (label, i) pairs such that some cluster holds both the label and
    the initial label PiLabel(i, 0), in one pass over the clusters."""
    return {(lab, ini.i) for cs in cluster_sets for ini in cs if ini.m == 0 for lab in cs}


PrincipalRun = tuple[ExchangeGraph, tuple[ClusterVariableRecord, ...]]


def principal_run(m: CartanMatrix, c: CoxeterElement, cap: int) -> PrincipalRun:
    """The principal exchange graph of ``c`` and its records in variable-id
    order: the run that :func:`engine_against_formulas` and
    :func:`universal_checks` take and the CLI's reports read."""
    graph = explore(principal_seed(m, c), cap=cap)
    return graph, records_for(m, c, graph)


def engine_against_formulas(
    m: CartanMatrix, c: CoxeterElement, run: PrincipalRun
) -> list[CheckResult]:
    """Compare every canonical datum of the principal ``run`` of the mutation
    engine (:func:`principal_run`) with its closed form: variable counts,
    g-vectors, denominators, constant terms, primitive relations, cluster
    families, and the separation identity."""
    name = _fmt_c(c)
    out = []
    graph, records = run
    h, _ = h_vector(m, c)
    labelled = pi_set(m, c)

    count_ok = len(graph.variables) == len(labelled)
    per_comp_ok = True
    for comp, hc in zip(m.components, coxeter_number(m)):
        expect = len(comp) * (hc + 2) // 2
        got = sum(1 for i in comp for _ in range(h[i] + 1))
        if got != expect:
            per_comp_ok = False
    out.append(_result("engine/variable-count", name, count_ok,
                       f"{len(graph.variables)} vs {len(labelled)}"))
    out.append(_result("engine/count-formula-per-component", name, per_comp_ok))

    g_ok = {r.g.g for r in records} == {w.g for _, w in labelled}
    out.append(_result("engine/g-vectors-equal-weight-family", name, g_ok))

    label_by_denoms = label_variables(m, c, graph)
    route_ok = all(r.label == lab for r, lab in zip(records, label_by_denoms))
    out.append(_result("engine/label-routes-agree", name, route_ok))

    denom_ok = True
    zero_ok = True
    cluster_sets = [frozenset(records[v].label for v in s.var_ids) for s in graph.seeds]
    shared = shares_cluster_with_initial(cluster_sets)
    for r in records:
        if r.label.m == 0:
            continue
        if r.denom != denominator(m, c, r.label) or not r.denom.is_nonnegative():
            denom_ok = False
        for i in range(m.n):
            if (r.denom.d[i] == 0) != ((r.label, i) in shared):
                zero_ok = False
    out.append(_result("engine/denominators-closed-form", name, denom_ok))
    out.append(_result("engine/denominator-zero-iff-shared-cluster", name, zero_ok))

    const_ok = all(r.fpoly.constant_coefficient() == 1 for r in records)
    out.append(_result("engine/f-constant-term-one", name, const_ok))

    sep_ok = all(separation_form(m, c, r, graph.ring) == r.expansion for r in records)
    out.append(_result("engine/separation-identity", name, sep_ok))

    label_of = [r.label for r in records]
    harvested = {r.renamed(label_of) for r in graph.primitive_relations()}
    closed = {closed_relation(pr) for pr in primitive_relations(m, c)}
    out.append(
        _result(
            "engine/primitive-relations-match",
            name,
            harvested == closed,
            f"{len(harvested)} harvested vs {len(closed)} closed-form",
        )
    )

    engine_clusters = sorted(tuple(sorted(cs)) for cs in cluster_sets)
    compat_clusters = sorted(clusters(m, c))
    out.append(
        _result(
            "engine/clusters-equal-compatible-sets",
            name,
            engine_clusters == compat_clusters,
            f"{len(engine_clusters)} vs {len(compat_clusters)}",
        )
    )
    return out


def move_isomorphism_checks(m: CartanMatrix, c: CoxeterElement) -> list[CheckResult]:
    """Mutating the principal seed at a source gives the principal seed of
    the rotated element: its exchange matrix, the source's c-vector negated,
    every other c-vector gaining -a_sj times the source's, the closed form
    (y_s + prod_i x_i^-a_is) / x_s of the new variable, and its label
    (source, 1).  A failing result's detail names the parts that differ."""
    n = m.n
    s0 = principal_seed(m, c)
    ring = s0.ring
    out = []
    for s in sources(m, c):
        s1 = mutate(s0, s)
        x = s1.cluster[s]
        rest = ring.one()
        for i in m.neighbors(s):
            rest = rest * ring.gen(i) ** -m.a[i][s]
        parts = {
            "b_matrix": s1.B == b_matrix(m, cyclical_move(m, c, s)),
            "source_c_vector": s1.coeffs[s] == tuple(-int(j == s) for j in range(n)),
            "other_c_vectors": all(
                s1.coeffs[j] == tuple(int(t == j) - m.a[s][j] * int(t == s) for t in range(n))
                for j in range(n)
                if j != s
            ),
            "variable": x == (s0.coeff_monomial(s0.coeffs[s]) + rest) * ring.gen(s) ** -1,
            "label": extract_record(m, c, x).label == PiLabel(s, 1),
        }
        differ = [part for part, ok in parts.items() if not ok]
        out.append(
            _result("moves/principal-isomorphism", f"{_fmt_c(c)}@{s + 1}", not differ, ", ".join(differ))
        )
    return out


def universal_checks(
    m: CartanMatrix, c: CoxeterElement, run: PrincipalRun, cap: int
) -> list[CheckResult]:
    """Walk the exchange graph with one generator per labelled weight and
    compare the harvested primitive relations and the specialized seeds
    against the principal ``run`` (:func:`principal_run`).

    The walk (:func:`g_vector_walk`) names variables by g-vector; the labels
    come from their denominators (:func:`label_variables`) instead.

    Specializing to principal coefficients sends the generator of each label
    (i, 0) to y_i and every other generator to 1; on B~ that keeps the rows
    of B and the rows of the (i, 0) generators, in the generator order.
    """
    name = _fmt_c(c)
    out = []
    graph = g_vector_walk(universal_seed(m, c), cap)
    labels = label_variables(m, c, graph)
    harvested = {r.renamed(labels) for r in graph.primitive_relations()}
    closed = {closed_relation(pr) for pr in universal_primitive_relations(m, c)}
    out.append(_result("universal/primitive-relations-match", name, harvested == closed))

    order = [lab for lab, _ in pi_set(m, c)]
    project = itemgetter(*range(m.n), *(m.n + order.index(PiLabel(i, 0)) for i in range(m.n)))
    pgraph, precs = run
    principal_seeds = sorted(
        relabel_seed([precs[v].label for v in s.var_ids], s.columns) for s in pgraph.seeds
    )
    mapped_seeds = sorted(
        relabel_seed([labels[v] for v in s.var_ids], tuple(map(project, s.columns)))
        for s in graph.seeds
    )
    seeds_ok = mapped_seeds == principal_seeds
    out.append(_result("universal/specializes-onto-principal-seeds", name, seeds_ok))
    return out
