"""Seeds, tropical coefficients, mutation, and exchange-graph exploration.

A seed carries its cluster as exact Laurent polynomials in the initial
variables and its extended exchange matrix B~: the skew-symmetrizable
exchange matrix B with, below it, one row per semifield generator.  Column
j of the lower part is the c-vector of slot j, the int exponent tuple of the
tropical coefficient y_j.  Mutation splits column k into its sign parts once:
they give both sides of the exchange relation, evaluated with tropical
auxiliary addition and divided out in the Laurent ring exactly (the remainder
must vanish), and they drive the one matrix-mutation rule that moves B and
the c-vectors together.

Exploration is a breadth-first closure that names each seed by its cluster,
crosses each edge forward once with one exact division, hands exchange
numerators across commuting squares (b_jk = 0), and sorts the seeds into
canonical order once, after the walk.

The g-vector walk gives the same graph with one division per variable.  It
carries the principal c-vectors c_jk below B~ and names each variable by its
g-vector, g'_k = -g_k + sum_i [b_ik]+ g_i - sum_j [c_jk]+ (column j of the
start B) in direction k (Fomin and Zelevinsky, Cluster algebras IV,
math/0602259, Prop. 6.6; Nakanishi and Zelevinsky, arXiv:1101.3736), so an
edge to a known g-vector costs integer work only.  The universal suite runs
on it; ``explore`` still divides per edge because the benchmark's traced
self-test counts one division per edge, and takes this body once it doesn't.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

from .cartan import CartanMatrix
from .coxeter import (
    CoxeterElement,
    InternalCheckError,
    PiLabel,
    PrimitiveRelation,
    b_matrix,
    compatibility_table,
    denominator,
    pi_set,
    precedes,
    primitive_relations,
    weight_label,
)
from .poly import InexactDivision, LaurentPoly, PolyRing
from .weyl import Root, Weight

DEFAULT_CAP = 100_000
_CROSSED = object()  # explore's mark at the unwalked end of an edge


class CapExceeded(RuntimeError):
    """Exploration discovered more seeds than the configured cap."""


class _ExtendedMatrix:
    """The two blocks of ``columns``, the extended exchange matrix B~ stored
    by columns, as read-only row tuples."""

    columns: tuple[tuple[int, ...], ...]

    @property
    def B(self) -> tuple[tuple[int, ...], ...]:
        """The exchange matrix: rows 0..n-1 of B~."""
        return tuple(zip(*self.columns))[: len(self.columns)]

    @property
    def coeffs(self) -> tuple[tuple[int, ...], ...]:
        """The c-vectors: the lower part of each column of B~."""
        n = len(self.columns)
        return tuple(col[n:] for col in self.columns)


def extended_columns(B, coeffs) -> tuple[tuple[int, ...], ...]:
    """B~ by columns from the exchange matrix and one c-vector per slot."""
    return tuple(tuple(row[j] for row in B) + tuple(y) for j, y in enumerate(coeffs))


@dataclass(frozen=True)
class Seed(_ExtendedMatrix):
    """Labelled seed: cluster and extended exchange matrix.

    ``ring`` holds the ambient Laurent slots: the first ``n`` names are the
    initial cluster variables, the rest the semifield generators.
    ``columns[j]`` is column j of B~: column j of B, then the c-vector of
    slot j over the generators.
    """

    ring: PolyRing
    cluster: tuple[LaurentPoly, ...]
    columns: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.cluster)

    def coeff_monomial(self, exps: tuple[int, ...]) -> LaurentPoly:
        return self.ring.monomial((0,) * self.n + exps)


def _sign_parts(v: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """([v]+, [-v]+) componentwise; for column k of B~, the two sides of the
    exchange relation in direction k."""
    return tuple(a if a > 0 else 0 for a in v), tuple(-a if a < 0 else 0 for a in v)


def _mutate(columns, k: int, parts):
    """Matrix mutation of B~ by columns, ``parts`` being ``_sign_parts`` of
    column k: column k and entry k of every column negate, and column j
    gains b_kj [sgn(b_kj) column k]+, that is
    b_ij + [b_ik]+ [b_kj]+ - [-b_ik]+ [-b_kj]+ in every row i."""
    pos, neg = (list(part) for part in parts)
    # b_kj + b_kj * (-2) = -b_kj: slot k of either part negates row k.
    pos[k] = neg[k] = -2
    out = []
    for j, col in enumerate(columns):
        b = col[k]
        if j == k:
            out.append(tuple(-x for x in col))
        elif b:
            out.append(tuple(x + b * p for x, p in zip(col, pos if b > 0 else neg)))
        else:
            out.append(col)
    return tuple(out)


def _exchange_numerator(ring: PolyRing, cluster, parts) -> LaurentPoly:
    """Right-hand side of the exchange relation whose sides are ``parts``,
    the sign parts of a column of B~: each side is the coefficient monomial
    of its lower entries times one power per variable of its upper entries.

    A power with exponent 1 is the variable itself, so in a simply-laced
    type every factor costs exactly one product.
    """
    n = len(cluster)
    sides = []
    for part in parts:
        term = ring.monomial((0,) * n + part[n:])
        for x, e in zip(cluster, part):
            if e:
                term = term * x ** e
        sides.append(term)
    return sides[0] + sides[1]


def _exchange_quotient(num: LaurentPoly, x: LaurentPoly, where: str) -> LaurentPoly:
    """The new variable num / x, divided exactly; a remainder means the
    exchange relation ``where`` is not Laurent, a bug upstream."""
    try:
        return num.exact_div(x)
    except InexactDivision as exc:
        raise InternalCheckError(f"exchange relation not Laurent {where}") from exc


def mutate(s: Seed, k: int) -> Seed:
    """Seed mutation in direction k; involutive, with verified exact division."""
    if not 0 <= k < s.n:
        raise IndexError(k)
    parts = _sign_parts(s.columns[k])
    num = _exchange_numerator(s.ring, s.cluster, parts)
    new_var = _exchange_quotient(num, s.cluster[k], f"in direction {k}")
    cluster = list(s.cluster)
    cluster[k] = new_var
    return Seed(ring=s.ring, cluster=tuple(cluster), columns=_mutate(s.columns, k, parts))


def _principal_columns(m: CartanMatrix, c: CoxeterElement) -> tuple[tuple[int, ...], ...]:
    """B~ = [B; I] by columns: one free tropical generator per cluster slot."""
    units = (tuple(int(i == j) for j in range(m.n)) for i in range(m.n))
    return extended_columns(b_matrix(m, c), units)


def principal_seed(m: CartanMatrix, c: CoxeterElement) -> Seed:
    """Initial seed with principal coefficients, B~ = [B; I]."""
    n = m.n
    ring = PolyRing(tuple(f"x{i + 1}" for i in range(n)) + tuple(f"y{i + 1}" for i in range(n)))
    return Seed(
        ring=ring,
        cluster=tuple(ring.gen(i) for i in range(n)),
        columns=_principal_columns(m, c),
    )


# -- exploration ----------------------------------------------------------------


@dataclass(frozen=True)
class SeedView(_ExtendedMatrix):
    """Canonical form of an unlabelled seed inside an exchange graph: its
    variable ids and its B~ by columns, as in :class:`Seed`."""

    var_ids: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, order=True)
class Relation:
    """Exchange relation x_a x_b = p+ prod x_i^[b_ik]+ + p- prod x_i^[-b_ik]+.

    ``pair`` is the sorted pair (a, b) of exchanged variable ids.  Each of
    the two sorted ``sides`` is one sign part of column k of B~, split into
    its generator exponents (the coefficient p+ or p-) and the
    (variable id, multiplicity) pairs of its nonzero variable exponents,
    sorted by id.
    """

    pair: tuple[int, int]
    sides: tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]

    def renamed(self, names) -> tuple:
        """(sorted pair, sorted sides) with every variable id v replaced by
        ``names[v]``: the form in which relations are compared across
        numberings and against closed formulas."""
        return (
            tuple(sorted(names[v] for v in self.pair)),
            tuple(
                sorted(
                    (coef, tuple(sorted((names[v], mult) for v, mult in vars_)))
                    for coef, vars_ in self.sides
                )
            ),
        )


@dataclass(frozen=True)
class ExchangeGraph:
    """The whole exchange graph of a seed, in canonical order.

    ``variables`` are the distinct cluster variables sorted by polynomial
    key; a seed's ``var_ids`` index them.  ``seeds`` are sorted by their
    var_ids, and each ``edges`` pair (a, b) with a < b indexes ``seeds``.
    """

    ring: PolyRing
    n: int
    variables: tuple[LaurentPoly, ...]
    seeds: tuple[SeedView, ...]
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def relations(self) -> tuple[Relation, ...]:
        """Each distinct exchange relation once, sorted; read off the edges
        by :func:`edge_relation` when first asked for."""
        return tuple(sorted({edge_relation(self.seeds[a], self.seeds[b]) for a, b in self.edges}))

    def primitive_relations(self) -> tuple[Relation, ...]:
        """The relations with a side free of variables, sorted.  A side of
        column k of B~ has no variable exactly when the B-part of the column
        has no entry of that side's sign, so a relation is built only for
        the edges whose column k has entries of at most one sign."""
        found = set()
        for a, b in self.edges:
            sa = self.seeds[a]
            k, x = _exchange(sa, self.seeds[b])
            upper = sa.columns[k][: self.n]
            if min(upper) >= 0 or max(upper) <= 0:
                found.add(_relation(sa, k, x))
        return tuple(sorted(found))


def _exchange(a: SeedView, b: SeedView) -> tuple[int, int]:
    """(k, x): the one slot k of ``a`` whose variable is not in ``b``, and
    the one variable x of ``b`` not in ``a``."""
    gone = [k for k, v in enumerate(a.var_ids) if v not in b.var_ids]
    new = set(b.var_ids) - set(a.var_ids)
    if len(gone) != 1 or len(new) != 1:
        raise InternalCheckError(
            f"clusters {a.var_ids} and {b.var_ids} do not differ in exactly one variable"
        )
    (k,), (x,) = gone, new
    return k, x


def edge_relation(a: SeedView, b: SeedView) -> Relation:
    """The exchange relation of the edge from seed ``a`` to seed ``b``, read
    off column k of ``a``, where k is the one slot of ``a`` whose variable
    is not in ``b``.  Either end gives the same relation."""
    return _relation(a, *_exchange(a, b))


def _relation(a: SeedView, k: int, x: int) -> Relation:
    """The exchange relation of slot k of seed ``a`` and its new variable x."""
    n = len(a.var_ids)
    # var_ids are sorted, so each side's variables already are.
    sides = tuple(
        sorted(
            (part[n:], tuple((v, e) for v, e in zip(a.var_ids, part) if e))
            for part in _sign_parts(a.columns[k])
        )
    )
    return Relation(pair=tuple(sorted((a.var_ids[k], x))), sides=sides)


def relabel_seed(names, columns):
    """A seed's slots renamed to ``names`` and sorted by name, with the
    columns of B~ and the first n entries of each permuted to match:
    (sorted names, columns)."""
    n = len(names)
    order = sorted(range(n), key=names.__getitem__)
    rows = list(zip(*columns))  # the rows of B~; the first n follow the slots
    permuted = list(zip(*map(rows.__getitem__, order), *rows[n:]))
    return tuple(map(names.__getitem__, order)), tuple(map(permuted.__getitem__, order))


def explore(seed: Seed, cap: int = DEFAULT_CAP) -> ExchangeGraph:
    """Breadth-first closure of a seed under all mutations.

    During the walk a seed is named by its cluster, the sorted tuple of its
    variable ids, since in finite type a cluster determines its seed (Fomin
    and Zelevinsky, Cluster algebras II, math/0208229); the graph digests
    and ``test_public_mutate_rederives_every_edge`` guard this rule.  Slots
    stay in the order the walk reached them.  After the walk the variables
    are renumbered in canonical polynomial order and each seed is sorted by
    the new ids once (:func:`relabel_seed`), so the output order depends on
    neither the traversal schedule nor the slot order of the start seed.

    Each edge is crossed forward once, from the end walked first: its new
    variable is divided out of the exchange numerator exactly, and column k
    split into its sign parts gives that numerator and, for a new seed only,
    the mutated B~.  The graph's relations are read off its seeds on demand.

    Numerators are handed across commuting squares.  If b_jk = 0 (j != k),
    mutation at j leaves column k of B~ unchanged (its entry j is b_jk and
    column k gains b_jk times a vector), and x_j has exponent 0 in the
    direction-k relation.  So the relation of x_k in mu_j(S) is the one of
    seed S in direction k.

    ``pending`` maps (seed index, variable id) to ``_CROSSED`` at the
    unwalked end of each edge crossed forward, else to the numerator handed
    there.  Walking variable v of seed i pops (i, v): the mark skips the
    reverse crossing, a numerator is divided instead of built again.  A
    forward crossing sets its mark over any numerator handed there, and a
    hand-off never replaces a mark.  Nothing may be left pending at the end.
    This per-edge body stays while the benchmark's traced self-test counts
    one division per edge; then :func:`g_vector_walk` replaces it.
    """
    n = seed.n
    variables: list[LaurentPoly] = []
    var_ids: dict = {}

    def intern(p: LaurentPoly) -> int:
        vid = var_ids.get(p.key())
        if vid is None:
            vid = len(variables)
            var_ids[p.key()] = vid
            variables.append(p)
        return vid

    start = tuple(intern(p) for p in seed.cluster)
    index: dict = {tuple(sorted(start)): 0}
    seeds: list = [(start, seed.columns)]
    edges: list = []
    pending: dict = {}
    # ``seeds`` grows while it is walked, which makes the walk breadth-first.
    for cur_index, (ids, columns) in enumerate(seeds):
        cluster = [variables[v] for v in ids]
        forward = []
        for k in range(n):
            num = pending.pop((cur_index, ids[k]), None)
            if num is _CROSSED:
                continue
            parts = _sign_parts(columns[k])
            if num is None:
                num = _exchange_numerator(seed.ring, cluster, parts)
            where = f"at seed {cur_index}, direction {k}"
            new_id = intern(_exchange_quotient(num, cluster[k], where))
            new_ids = ids[:k] + (new_id,) + ids[k + 1:]
            key = tuple(sorted(new_ids))
            idx = index.get(key)
            if idx is None:
                idx = len(seeds)
                if idx >= cap:
                    raise CapExceeded(f"seed cap {cap} exceeded")
                index[key] = idx
                seeds.append((new_ids, _mutate(columns, k, parts)))
            # The end walked first crosses forward, so idx > cur_index here.
            pending[idx, new_id] = _CROSSED
            edges.append((cur_index, idx))
            forward.append((k, num, idx))
        for k, num, _ in forward:
            for j, _, idx in forward:
                if j != k and not columns[k][j]:
                    pending.setdefault((idx, ids[k]), num)
    if pending:
        raise InternalCheckError(
            f"{len(pending)} reverse crossings or handed numerators left pending"
        )
    return _canonical_graph(seed.ring, variables, seeds, edges)


def g_vector_walk(seed: Seed, cap: int) -> ExchangeGraph:
    """The graph of :func:`explore`, field for field, from the g-vector walk
    of the module docstring: g_i = e_i and c-vectors I at the start, one
    division at the first edge to each new g-vector, seeds named and capped
    as in :func:`explore`, and the carried rows dropped before the order."""
    n, rows = seed.n, len(seed.columns[0])
    b0 = [col[:n] for col in seed.columns]
    gvecs = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    var_ids = {g: v for v, g in enumerate(gvecs)}
    variables = list(seed.cluster)
    index: dict = {tuple(range(n)): 0}
    seeds: list = [(tuple(range(n)), tuple(map(tuple.__add__, seed.columns, gvecs)))]
    edges: list = []
    # ``seeds`` grows while it is walked, which makes the walk breadth-first.
    for cur_index, (ids, columns) in enumerate(seeds):
        for k, column in enumerate(columns):
            # g'_k of the module docstring; the zip with ids stops after the B rows.
            terms = [(b, gvecs[v]) for b, v in zip(column, ids) if b > 0]
            terms += [(-c, b0_j) for c, b0_j in zip(column[rows:], b0) if c > 0]
            g = tuple(sum(a * y[t] for a, y in terms) - x for t, x in enumerate(gvecs[ids[k]]))
            new_id = var_ids.setdefault(g, len(variables))
            if new_id == len(variables):
                gvecs.append(g)
                cluster = [variables[v] for v in ids]
                num = _exchange_numerator(seed.ring, cluster, _sign_parts(column[:rows]))
                where = f"at seed {cur_index}, direction {k}"
                variables.append(_exchange_quotient(num, cluster[k], where))
            new_ids = ids[:k] + (new_id,) + ids[k + 1:]
            idx = index.setdefault(tuple(sorted(new_ids)), len(seeds))
            if idx == len(seeds):
                if idx >= cap:
                    raise CapExceeded(f"seed cap {cap} exceeded")
                seeds.append((new_ids, _mutate(columns, k, _sign_parts(column))))
            if idx > cur_index:  # an edge back was recorded from its other end
                edges.append((cur_index, idx))
    stripped = ((ids, tuple(col[:rows] for col in cols)) for ids, cols in seeds)
    return _canonical_graph(seed.ring, variables, stripped, edges)


def _canonical_graph(ring: PolyRing, variables, seeds, edges) -> ExchangeGraph:
    """A finished walk's ``edges`` and its ``seeds``, an iterable of
    (ids, columns), in the canonical order that :func:`explore` describes."""
    order = sorted(range(len(variables)), key=lambda v: variables[v].key())
    remap = {old: new for new, old in enumerate(order)}
    seed_views = [SeedView(*relabel_seed([remap[v] for v in ids], cols)) for ids, cols in seeds]
    seed_order = sorted(range(len(seed_views)), key=lambda i: seed_views[i].var_ids)
    seed_remap = {old: new for new, old in enumerate(seed_order)}
    return ExchangeGraph(
        ring=ring,
        n=len(seed_views[0].var_ids),
        variables=tuple(variables[v] for v in order),
        seeds=tuple(seed_views[i] for i in seed_order),
        edges=tuple(sorted(tuple(sorted((seed_remap[a], seed_remap[b]))) for a, b in edges)),
    )


# -- records: g-vectors, denominators, F-polynomials ------------------------------


@dataclass(frozen=True)
class ClusterVariableRecord:
    label: PiLabel
    expansion: LaurentPoly
    g: Weight
    denom: Root
    fpoly: LaurentPoly


@lru_cache(maxsize=None)
def _grading(m: CartanMatrix, c: CoxeterElement) -> tuple[tuple[int, ...], ...]:
    """Degree vector per ring slot, read off the principal B~ = [B; I]:
    initial variable j gets the unit vector in the lower part of column j,
    generator j the negated upper part, column j of B."""
    columns = _principal_columns(m, c)
    return tuple(col[m.n:] for col in columns) + tuple(
        tuple(-x for x in col[: m.n]) for col in columns
    )


@lru_cache(maxsize=None)
def _fpoly_ring(n: int) -> PolyRing:
    return PolyRing(tuple(f"t{i + 1}" for i in range(n)))


def extract_record(m: CartanMatrix, c: CoxeterElement, z: LaurentPoly) -> ClusterVariableRecord:
    """Read the canonical data off a principal-coefficient expansion.

    The g-vector is the common multi-degree of all terms (homogeneity is
    asserted); the denominator vector collects minimal cluster exponents; the
    F-polynomial sets every cluster slot to 1.  The g-vector must name a
    labelled weight.
    """
    n = m.n
    degs = z.degrees(_grading(m, c))
    if len(degs) != 1:
        raise InternalCheckError("expansion is not homogeneous")
    g = Weight(next(iter(degs)))
    label = weight_label(m, c, g)  # KeyError here signals a bug upstream
    denom = Root(tuple(-z.min_exponent(i) for i in range(n)))
    fpoly = z.project(range(n, z.ring.nvars), _fpoly_ring(n))
    if fpoly.constant_coefficient() != 1:
        raise InternalCheckError("F-polynomial constant term is not 1")
    return ClusterVariableRecord(label=label, expansion=z, g=g, denom=denom, fpoly=fpoly)


def records_for(
    m: CartanMatrix, c: CoxeterElement, graph: ExchangeGraph
) -> tuple[ClusterVariableRecord, ...]:
    return tuple(extract_record(m, c, z) for z in graph.variables)


def separation_form(m: CartanMatrix, c: CoxeterElement, rec: ClusterVariableRecord,
                    ring: PolyRing) -> LaurentPoly:
    """x^g F(y^_1, ..., y^_n), y^_j being the monomial of column j of the
    principal B~ = [B; I], which the separation formula (Fomin and
    Zelevinsky, Cluster algebras IV, Cor. 6.3) equates with the expansion:
    each term t^a of F goes to the one monomial with exponents
    (g, 0) + sum_j a_j (column j), keeping its coefficient.  The lower n
    exponents of that monomial are a, so no two terms meet."""
    columns = _principal_columns(m, c)
    out = {}
    for a, coef in rec.fpoly.terms.items():
        exps = tuple(rec.g.g) + (0,) * m.n
        for aj, col in zip(a, columns):
            if aj:
                exps = tuple(e + aj * x for e, x in zip(exps, col))
        out[exps] = coef
    return ring.from_terms(out)


def label_variables(
    m: CartanMatrix, c: CoxeterElement, graph: ExchangeGraph
) -> tuple[PiLabel, ...]:
    """Label every explored variable through its denominator vector.

    Works for any coefficient system, unlike the g-vector route.
    """
    # denominator vectors to labels, injective away from the initial cluster
    table = {denominator(m, c, lab).d: lab for lab, _ in pi_set(m, c)}
    labels = []
    for z in graph.variables:
        d = tuple(-z.min_exponent(i) for i in range(graph.n))
        lab = table.get(d)
        if lab is None:
            raise InternalCheckError(f"denominator vector {d} matches no labelled weight")
        labels.append(lab)
    return tuple(labels)


# -- universal coefficients ---------------------------------------------------------


def universal_seed(m: CartanMatrix, c: CoxeterElement) -> Seed:
    """Initial seed over the tropical semifield with one generator per labelled weight."""
    n = m.n
    labels, rows = compatibility_table(m, c)
    index = {lab: pos for pos, lab in enumerate(labels)}
    gens = tuple(f"p{lab.i + 1}_{lab.m}" for lab, _ in pi_set(m, c))
    ring = PolyRing(tuple(f"x{i + 1}" for i in range(n)) + gens)
    coeffs = []
    for j in range(n):
        wj, cwj = index[PiLabel(j, 0)], index[PiLabel(j, 1)]
        # (coefficient, label column) of the degree sum
        terms = [(1, cwj)] + [
            (m.a[i][j], index[PiLabel(i, 1)]) for i in range(n) if precedes(m, c, i, j)
        ]
        exps = [sum(a * row[k] for a, k in terms) for row in rows]
        exps[wj], exps[cwj] = 1, -1
        coeffs.append(tuple(exps))
    return Seed(
        ring=ring,
        cluster=tuple(ring.gen(i) for i in range(n)),
        columns=extended_columns(b_matrix(m, c), coeffs),
    )


def universal_primitive_relations(
    m: CartanMatrix, c: CoxeterElement
) -> tuple[PrimitiveRelation, ...]:
    """Primitive relations of the universal-coefficient algebra, one per label.

    They are :func:`primitive_relations` with the coefficients over one
    generator per label: the variable side of delta's relation carries the
    generator of delta, the constant side every generator lambda raised to
    the compatibility degree of lambda with delta, the column of delta in
    :func:`compatibility_table`.
    """
    labels, rows = compatibility_table(m, c)
    columns = tuple(zip(*rows))
    return tuple(
        replace(
            pr,
            monomial_coef=tuple(int(lab == delta) for lab in labels),
            constant_coef=column,
        )
        for pr, delta, column in zip(primitive_relations(m, c), labels, columns)
    )
