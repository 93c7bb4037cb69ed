"""Seeds, tropical coefficients, mutation, and exchange-graph exploration.

A seed carries its cluster as exact Laurent polynomials in the initial
variables, one coefficient per cluster slot, and a skew-symmetrizable
exchange matrix.  A coefficient is a tropical monomial stored as its plain
int exponent tuple over the semifield generators: its c-vector.  Mutation
evaluates the exchange relation with tropical auxiliary addition and
performs the division in the Laurent ring exactly, checking that the
remainder vanishes; the c-vectors mutate by the exchange-matrix rule applied
to the coefficient rows of the extended matrix.  Exploration is a
breadth-first closure with canonical-form deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from operator import itemgetter

from .cartan import CartanMatrix
from .coxeter import (
    CoxeterElement,
    InternalCheckError,
    PiLabel,
    PrimitiveRelation,
    b_matrix,
    compatibility_degree,
    cyclical_move,
    denominator,
    pi_set,
    precedes,
    primitive_relations,
    weight_label,
)
from .poly import InexactDivision, LaurentPoly, PolyRing
from .weyl import Root, Weight

DEFAULT_CAP = 100_000


class CapExceeded(RuntimeError):
    """Exploration discovered more seeds than the configured cap."""


@dataclass(frozen=True)
class Seed:
    """Labelled seed: cluster, coefficient tuple, exchange matrix.

    ``ring`` holds the ambient Laurent slots: the first ``n`` names are the
    initial cluster variables, the rest the semifield generators.  Each
    coefficient is a c-vector: the int exponent tuple of a tropical monomial
    over ``gens``.
    """

    ring: PolyRing
    n: int
    cluster: tuple[LaurentPoly, ...]
    coeffs: tuple[tuple[int, ...], ...]
    B: tuple[tuple[int, ...], ...]

    @property
    def gens(self) -> tuple[str, ...]:
        return self.ring.names[self.n:]

    def coeff_monomial(self, exps: tuple[int, ...], coef: int = 1) -> LaurentPoly:
        return self.ring.monomial((0,) * self.n + exps, coef)


def _sign_parts(v: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """([v]+, [-v]+) componentwise; for a coefficient, the exponents of the
    two sides of its exchange relation."""
    return tuple(a if a > 0 else 0 for a in v), tuple(-a if a < 0 else 0 for a in v)


def _mutate_b(B, k: int):
    """Matrix mutation: -b_ij if i or j is k, else
    b_ij + [b_ik]+ [b_kj]+ - [-b_ik]+ [-b_kj]+ = b_ij + b_ik [sgn(b_ik) b_kj]+."""
    pos, neg = (list(part) for part in _sign_parts(B[k]))
    # b_ik + b_ik * (-2) = -b_ik: slot k of either part negates column k.
    pos[k] = neg[k] = -2
    out = []
    for i, row in enumerate(B):
        b = row[k]
        if i == k:
            out.append(tuple(-x for x in row))
        elif b:
            out.append(tuple(x + b * p for x, p in zip(row, pos if b > 0 else neg)))
        else:
            out.append(tuple(row))
    return tuple(out)


def _mutate_coeffs(coeffs, B, k: int, parts=None):
    """c-vector mutation, the matrix rule on the coefficient rows of the
    extended matrix: y_k inverts and y_j gains b_kj [sgn(b_kj) y_k]+.

    ``parts`` is ``_sign_parts(coeffs[k])`` when the caller already has it.
    """
    pos, neg = parts or _sign_parts(coeffs[k])
    row_k = B[k]
    out = []
    for j, yj in enumerate(coeffs):
        b = row_k[j]
        if j == k:
            out.append(tuple(-a for a in yj))
        elif b:
            out.append(tuple(a + b * p for a, p in zip(yj, pos if b > 0 else neg)))
        else:
            out.append(yj)
    return tuple(out)


def _exchange_numerator(ring: PolyRing, cluster, B, k: int, parts) -> LaurentPoly:
    """Right-hand side of the exchange relation in direction k; ``parts`` is
    ``_sign_parts`` of the coefficient y_k.

    Each side is its coefficient monomial times one power per variable;
    a power with exponent 1 is the variable itself, so in a simply-laced
    type every factor costs exactly one product.
    """
    n = len(cluster)
    t1 = ring.monomial((0,) * n + parts[0])
    t2 = ring.monomial((0,) * n + parts[1])
    for i in range(n):
        b = B[i][k]
        if b > 0:
            t1 = t1 * cluster[i] ** b
        elif b < 0:
            t2 = t2 * cluster[i] ** (-b)
    return t1 + t2


def mutate(s: Seed, k: int) -> Seed:
    """Seed mutation in direction k; involutive, with verified exact division."""
    if not 0 <= k < s.n:
        raise IndexError(k)
    parts = _sign_parts(s.coeffs[k])
    num = _exchange_numerator(s.ring, s.cluster, s.B, k, parts)
    try:
        new_var = num.exact_div(s.cluster[k])
    except InexactDivision as exc:
        raise InternalCheckError(f"exchange relation not Laurent in direction {k}") from exc
    cluster = list(s.cluster)
    cluster[k] = new_var
    return Seed(
        ring=s.ring,
        n=s.n,
        cluster=tuple(cluster),
        coeffs=_mutate_coeffs(s.coeffs, s.B, k, parts),
        B=_mutate_b(s.B, k),
    )


def principal_seed(m: CartanMatrix, c: CoxeterElement) -> Seed:
    """Initial seed with one free tropical generator per cluster slot."""
    n = m.n
    ring = PolyRing(tuple(f"x{i + 1}" for i in range(n)) + tuple(f"y{i + 1}" for i in range(n)))
    return Seed(
        ring=ring,
        n=n,
        cluster=tuple(ring.gen(i) for i in range(n)),
        coeffs=tuple(tuple(int(i == j) for j in range(n)) for i in range(n)),
        B=b_matrix(m, c),
    )


# -- exploration ----------------------------------------------------------------


@dataclass(frozen=True)
class SeedView:
    """Canonical form of an unlabelled seed inside an exchange graph; the
    coefficients are c-vectors, as in :class:`Seed`."""

    var_ids: tuple[int, ...]
    coeffs: tuple[tuple[int, ...], ...]
    B: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Relation:
    """Exchange relation: product of the two paired variables equals the sum of two sides.

    Each side is a coefficient exponent vector over the semifield generators
    together with a multiset of variable ids.
    """

    pair: tuple[int, int]
    sides: tuple[tuple[tuple[int, ...], tuple[tuple[int, int], ...]], ...]

    def is_primitive(self) -> bool:
        return any(not vars_ for _, vars_ in self.sides)


@dataclass(frozen=True)
class ExchangeGraph:
    ring: PolyRing
    n: int
    variables: tuple[LaurentPoly, ...]
    seeds: tuple[SeedView, ...]
    edges: tuple[tuple[int, int], ...]
    relations: tuple[Relation, ...]

    def primitive_relations(self) -> tuple[Relation, ...]:
        return tuple(r for r in self.relations if r.is_primitive())


def relabel_seed(names, coeffs, B):
    """A seed's slots renamed to ``names`` and sorted by name, with the
    coefficient rows and the rows and columns of B permuted to match:
    (sorted names, coeffs, B)."""
    if len(names) == 1:  # itemgetter of one index returns the item, not a tuple
        return tuple(names), tuple(coeffs), tuple(map(tuple, B))
    pick = itemgetter(*sorted(range(len(names)), key=names.__getitem__))
    return pick(names), pick(coeffs), tuple(map(pick, pick(B)))


def explore(seed: Seed, cap: int = DEFAULT_CAP) -> ExchangeGraph:
    """Breadth-first closure of a seed under all mutations.

    During the walk a seed is named by its slots sorted by interned variable
    id (:func:`relabel_seed`), and the whole (ids, coeffs, B) triple is the
    deduplication key.  Afterwards the variables are renumbered in the
    canonical polynomial order and every seed is sorted again by the new
    ids, so the output ordering is canonical and independent of traversal
    schedule and of the slot order of the start seed.

    Every edge costs one exact division: the first time an edge is crossed
    the new variable is divided out of its exchange relation, and the
    reverse crossing reads it from a flip cache keyed by (seed index, slot).
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

    start = relabel_seed(tuple(intern(p) for p in seed.cluster), seed.coeffs, seed.B)
    index: dict = {start: 0}
    seeds: list = [start]
    edges: set = set()
    relations: set = set()
    flip_cache: dict = {}
    # ``seeds`` grows while it is walked, which makes the walk breadth-first.
    for cur_index, (ids, coeffs, B) in enumerate(seeds):
        cluster = [variables[v] for v in ids]
        for k in range(n):
            parts = _sign_parts(coeffs[k])
            side_pos = (
                parts[0],
                tuple(sorted((ids[i], B[i][k]) for i in range(n) if B[i][k] > 0)),
            )
            side_neg = (
                parts[1],
                tuple(sorted((ids[i], -B[i][k]) for i in range(n) if B[i][k] < 0)),
            )
            new_id = flip_cache.pop((cur_index, k), None)
            if new_id is None:
                num = _exchange_numerator(seed.ring, cluster, B, k, parts)
                try:
                    new_poly = num.exact_div(cluster[k])
                except InexactDivision as exc:
                    raise InternalCheckError(
                        f"exchange relation not Laurent at seed {cur_index}, direction {k}"
                    ) from exc
                new_id = intern(new_poly)
            new_ids = list(ids)
            new_ids[k] = new_id
            neighbor = relabel_seed(new_ids, _mutate_coeffs(coeffs, B, k, parts), _mutate_b(B, k))
            idx = index.get(neighbor)
            if idx is None:
                idx = len(seeds)
                if idx >= cap:
                    raise CapExceeded(f"seed cap {cap} exceeded")
                index[neighbor] = idx
                seeds.append(neighbor)
            if idx > cur_index:  # the neighbour's walk reads this edge back
                flip_cache[(idx, neighbor[0].index(new_id))] = ids[k]
            edges.add((min(cur_index, idx), max(cur_index, idx)))
            relations.add(
                Relation(
                    pair=tuple(sorted((ids[k], new_id))),
                    sides=tuple(sorted((side_pos, side_neg))),
                )
            )

    # Canonical output ordering, independent of discovery order.
    order = sorted(range(len(variables)), key=lambda v: variables[v].key())
    remap = {old: new for new, old in enumerate(order)}
    seed_views = [
        SeedView(*relabel_seed([remap[v] for v in ids], coeffs, B)) for ids, coeffs, B in seeds
    ]
    seed_order = sorted(range(len(seed_views)), key=lambda i: seed_views[i].var_ids)
    seed_remap = {old: new for new, old in enumerate(seed_order)}
    new_edges = tuple(
        sorted(tuple(sorted((seed_remap[a], seed_remap[b]))) for a, b in edges)
    )
    new_relations = tuple(
        sorted(
            (
                Relation(
                    pair=tuple(sorted(remap[v] for v in rel.pair)),
                    sides=tuple(
                        sorted(
                            (coef, tuple(sorted((remap[v], mult) for v, mult in vars_)))
                            for coef, vars_ in rel.sides
                        )
                    ),
                )
                for rel in relations
            ),
            key=lambda r: (r.pair, r.sides),
        )
    )
    return ExchangeGraph(
        ring=seed.ring,
        n=n,
        variables=tuple(variables[v] for v in order),
        seeds=tuple(seed_views[i] for i in seed_order),
        edges=new_edges,
        relations=new_relations,
    )


# -- records: g-vectors, denominators, F-polynomials ------------------------------


@dataclass(frozen=True)
class ClusterVariableRecord:
    label: PiLabel
    expansion: LaurentPoly
    g: Weight
    denom: Root
    fpoly: LaurentPoly


def _grading(m: CartanMatrix, c: CoxeterElement) -> list[tuple[int, ...]]:
    """Degree vector per ring slot: initial variables get unit weights, each
    generator the negated corresponding column of the exchange matrix."""
    n = m.n
    B = b_matrix(m, c)
    degs = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    degs += [tuple(-B[k][j] for k in range(n)) for j in range(n)]
    return degs


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


def check_separation(m: CartanMatrix, c: CoxeterElement, rec: ClusterVariableRecord,
                     ring: PolyRing) -> bool:
    """The expansion must factor as (cluster monomial to the g-vector) times
    the F-polynomial evaluated at the hatted coefficients."""
    n = m.n
    B = b_matrix(m, c)
    hat = []
    for j in range(n):
        exps = [B[i][j] for i in range(n)] + [int(k == j) for k in range(n)]
        hat.append(ring.monomial(exps))
    gmono = ring.monomial(tuple(rec.g.g) + (0,) * n)
    return gmono * rec.fpoly.evaluate(hat, ring) == rec.expansion


def denominator_label_map(m: CartanMatrix, c: CoxeterElement) -> dict:
    """Map denominator vectors to labels (injective away from the initial cluster)."""
    return {denominator(m, c, lab).d: lab for lab, _ in pi_set(m, c)}


def label_variables(
    m: CartanMatrix, c: CoxeterElement, graph: ExchangeGraph
) -> tuple[PiLabel, ...]:
    """Label every explored variable through its denominator vector.

    Works for any coefficient system, unlike the g-vector route.
    """
    table = denominator_label_map(m, c)
    labels = []
    for z in graph.variables:
        d = tuple(-z.min_exponent(i) for i in range(graph.n))
        lab = table.get(d)
        if lab is None:
            raise InternalCheckError(f"denominator vector {d} matches no labelled weight")
        labels.append(lab)
    return tuple(labels)


# -- universal coefficients ---------------------------------------------------------


def universal_gen_names(m: CartanMatrix, c: CoxeterElement) -> tuple[str, ...]:
    return tuple(f"p{lab.i + 1}_{lab.m}" for lab, _ in pi_set(m, c))


def universal_seed(m: CartanMatrix, c: CoxeterElement) -> Seed:
    """Initial seed over the tropical semifield with one generator per labelled weight."""
    n = m.n
    labels = [lab for lab, _ in pi_set(m, c)]
    index = {lab: pos for pos, lab in enumerate(labels)}
    gens = universal_gen_names(m, c)
    ring = PolyRing(tuple(f"x{i + 1}" for i in range(n)) + gens)
    coeffs = []
    for j in range(n):
        exps = [0] * len(labels)
        exps[index[PiLabel(j, 0)]] += 1
        exps[index[PiLabel(j, 1)]] -= 1
        for lab in labels:
            if lab == PiLabel(j, 0) or lab == PiLabel(j, 1):
                continue
            e = compatibility_degree(m, c, lab, PiLabel(j, 1))
            for i in range(n):
                if precedes(m, c, i, j):
                    e += m.a[i][j] * compatibility_degree(m, c, lab, PiLabel(i, 1))
            exps[index[lab]] += e
        coeffs.append(tuple(exps))
    return Seed(
        ring=ring,
        n=n,
        cluster=tuple(ring.gen(i) for i in range(n)),
        coeffs=tuple(coeffs),
        B=b_matrix(m, c),
    )


def universal_primitive_relations(
    m: CartanMatrix, c: CoxeterElement
) -> tuple[PrimitiveRelation, ...]:
    """Primitive relations of the universal-coefficient algebra, one per label.

    They are :func:`primitive_relations` with the coefficients over one
    generator per label: the variable side of delta's relation carries the
    generator of delta, the constant side every generator lambda raised to
    the compatibility degree of lambda with delta.
    """
    labels = [lab for lab, _ in pi_set(m, c)]
    return tuple(
        replace(
            pr,
            monomial_coef=tuple(int(lab == delta) for lab in labels),
            constant_coef=tuple(compatibility_degree(m, c, lab, delta) for lab in labels),
        )
        for pr, delta in zip(primitive_relations(m, c), labels)
    )


# -- coefficient specialization ---------------------------------------------------


@dataclass(frozen=True)
class SemifieldMap:
    """Monomial map between tropical semifields, one image per source generator."""

    source: tuple[str, ...]
    target: tuple[str, ...]
    images: tuple[tuple[int, ...], ...]

    @staticmethod
    def identity(gens: tuple[str, ...]) -> "SemifieldMap":
        k = len(gens)
        return SemifieldMap(
            source=gens,
            target=gens,
            images=tuple(tuple(int(a == b) for b in range(k)) for a in range(k)),
        )

    def validate(self) -> None:
        if len(self.images) != len(self.source):
            raise ValueError(
                f"{len(self.images)} generator images for {len(self.source)} generators"
            )
        for img in self.images:
            if len(img) != len(self.target):
                raise ValueError("image exponent length mismatch")
            if any(e < 0 for e in img):
                raise ValueError("generator image has a negative exponent")
        for t in range(len(self.target)):
            hits = sum(1 for img in self.images if img[t] > 0)
            if hits > 1:
                raise ValueError(
                    f"two generator images share the factor {self.target[t]!r}"
                )

    def apply_exps(self, exps: tuple[int, ...]) -> tuple[int, ...]:
        out = [0] * len(self.target)
        for e, img in zip(exps, self.images):
            if e:
                for t, x in enumerate(img):
                    if x:
                        out[t] += e * x
        return tuple(out)


def principal_specialization_map(m: CartanMatrix, c: CoxeterElement) -> SemifieldMap:
    """Send each fundamental-weight generator to the matching principal one, the rest to 1."""
    labels = [lab for lab, _ in pi_set(m, c)]
    target = tuple(f"y{i + 1}" for i in range(m.n))
    images = []
    for lab in labels:
        if lab.m == 0:
            images.append(tuple(int(j == lab.i) for j in range(m.n)))
        else:
            images.append((0,) * m.n)
    return SemifieldMap(source=universal_gen_names(m, c), target=target, images=tuple(images))


def specialize(s: Seed, hom: SemifieldMap) -> Seed:
    """Seed with coefficients pushed through a tropical semifield map.

    Cluster entries map coefficient-wise; across seeds the variables then
    correspond up to the usual scalar rescaling.
    """
    if s.gens != hom.source:
        raise ValueError("map source does not match the seed's generators")
    hom.validate()
    ring = PolyRing(s.ring.names[: s.n] + hom.target)
    def map_poly(p: LaurentPoly) -> LaurentPoly:
        out: dict = {}
        for exps, coef in p.terms.items():
            key = exps[: s.n] + hom.apply_exps(exps[s.n:])
            cnew = out.get(key, 0) + coef
            if cnew:
                out[key] = cnew
            else:
                out.pop(key, None)
        return ring.from_terms(out)

    return Seed(
        ring=ring,
        n=s.n,
        cluster=tuple(map_poly(p) for p in s.cluster),
        coeffs=tuple(hom.apply_exps(t) for t in s.coeffs),
        B=s.B,
    )


# -- source-rotation isomorphism ---------------------------------------------------


@dataclass(frozen=True)
class MoveReport:
    source: int
    b_matrix_ok: bool
    y_source_ok: bool
    y_others_ok: bool
    x_formula_ok: bool
    label_ok: bool

    @property
    def passed(self) -> bool:
        return (
            self.b_matrix_ok
            and self.y_source_ok
            and self.y_others_ok
            and self.x_formula_ok
            and self.label_ok
        )


def verify_move_isomorphism(
    m: CartanMatrix, c: CoxeterElement, source: int | None = None
) -> MoveReport:
    """Mutating the principal seed at a source must produce the rotated element's data.

    Checks the exchange matrix, the coefficient tuple (source generator
    inverted, neighbors multiplied by its positive powers), the closed form
    of the new variable, and its label.
    """
    if source is None:
        source = c.order[0]
    s0 = principal_seed(m, c)
    s1 = mutate(s0, source)
    ctilde = cyclical_move(m, c, source)
    b_ok = s1.B == b_matrix(m, ctilde)
    n = m.n
    y_src_ok = s1.coeffs[source] == tuple(-int(j == source) for j in range(n))
    y_others_ok = all(
        s1.coeffs[j]
        == tuple(int(t == j) - m.a[source][j] * int(t == source) for t in range(n))
        for j in range(n)
        if j != source
    )
    expected = s0.coeff_monomial(s0.coeffs[source])
    prod = s0.ring.one()
    for i in range(n):
        if i != source and m.a[i][source] != 0:
            prod = prod * s0.ring.gen(i) ** (-m.a[i][source])
    expected = (expected + prod) * s0.ring.gen(source) ** -1
    x_ok = s1.cluster[source] == expected
    label_ok = extract_record(m, c, s1.cluster[source]).label == PiLabel(source, 1)
    return MoveReport(
        source=source,
        b_matrix_ok=b_ok,
        y_source_ok=y_src_ok,
        y_others_ok=y_others_ok,
        x_formula_ok=x_ok,
        label_ok=label_ok,
    )
