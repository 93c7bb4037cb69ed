"""Coxeter-element combinatorics.

A Coxeter element is stored as an ordering of the index set; orderings that
induce the same acyclic orientation of the Coxeter graph are normalized to
the lexicographically smallest topological order, so equality of
:class:`CoxeterElement` values is equality of orientations.

Per element, one walk of the rotation chains gives ``h``, the star
involution, and each label's weight and denominator as integer tuples; the
denominators are read off the simple reflections that build the chains (see
:mod:`coxclusters.weyl`), so they are integral by construction.  The label
objects of Pi, their rotation ``tau`` and the first root family ``beta`` are
built from those tuples on first read, and everything is cached per element.
The Coxeter number h, the chains' bound and their reference
(h(i) + h(star(i)) = h), is a root count, |Phi| / n (:func:`coxeter_number`).

Both compatibility pairings are fixed integer tables, built on first use and
then read whole or by index: the label pairing once per (Cartan matrix,
Coxeter element) and reduction direction (:func:`compatibility_table`), the
pairing on almost positive roots once per Cartan matrix
(:func:`root_compat_table`).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

from .cartan import CartanMatrix, _graph_components, bipartition
from .weyl import (
    InternalCheckError,
    Root,
    Weight,
    _reflect_word,
    apply_word,
    reflect_root,
    simple_root,
)


class InvalidCoxeterWord(ValueError):
    """A letter sequence that is not a permutation of the index set."""


class InvalidMove(ValueError):
    """A pair of Coxeter elements not related by a single source rotation."""


@dataclass(frozen=True)
class CoxeterElement:
    """Canonical ordering of the index set, one per acyclic orientation."""

    order: tuple[int, ...]

    def position(self, i: int) -> int:
        return self.order.index(i)


@dataclass(frozen=True, order=True)
class PiLabel:
    """Label (i, m) of the weight obtained by rotating the i-th fundamental weight m times."""

    i: int
    m: int


def _lex_topological_order(n: int, arcs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Lexicographically smallest topological order of an acyclic orientation on 0..n-1."""
    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for src, dst in arcs:
        succ[src].append(dst)
        indeg[dst] += 1
    heap = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(heap)
    out: list[int] = []
    while heap:
        v = heapq.heappop(heap)
        out.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
    return tuple(out)


def _canonical_order(m: CartanMatrix, word: Iterable[int]) -> tuple[int, ...]:
    word = tuple(word)
    if sorted(word) != list(range(m.n)):
        raise InvalidCoxeterWord(f"{word!r} is not a permutation of 0..{m.n - 1}")
    pos = {i: p for p, i in enumerate(word)}
    return _lex_topological_order(
        m.n, ((i, j) if pos[i] < pos[j] else (j, i) for i, j in m.edges())
    )


def coxeter_element(m: CartanMatrix, word: Iterable[int]) -> CoxeterElement:
    """Coxeter element with the given letter order (canonicalized)."""
    return CoxeterElement(_canonical_order(m, word))


def bipartite_element(m: CartanMatrix) -> CoxeterElement:
    """The bipartite Coxeter element: all +1 letters before all -1 letters."""
    eps = bipartition(m)
    word = [i for i in range(m.n) if eps[i] == 1] + [i for i in range(m.n) if eps[i] == -1]
    return coxeter_element(m, word)


def precedes(m: CartanMatrix, c: CoxeterElement, i: int, j: int) -> bool:
    """True when i and j are joined in the Coxeter graph and i comes first in c."""
    return i != j and m.a[i][j] != 0 and c.position(i) < c.position(j)


def sources(m: CartanMatrix, c: CoxeterElement) -> tuple[int, ...]:
    """Indices whose letter can be moved to the front of c."""
    return tuple(i for i in range(m.n) if not any(precedes(m, c, j, i) for j in m.neighbors(i)))


def b_matrix(m: CartanMatrix, c: CoxeterElement) -> tuple[tuple[int, ...], ...]:
    """Skew-symmetrizable exchange matrix attached to the orientation of c."""
    rows = []
    for i in range(m.n):
        row = []
        for j in range(m.n):
            if precedes(m, c, i, j):
                row.append(-m.a[i][j])
            elif precedes(m, c, j, i):
                row.append(m.a[i][j])
            else:
                row.append(0)
        rows.append(tuple(row))
    return tuple(rows)


class _CoxeterData:
    """Derived tables for one (CartanMatrix, CoxeterElement) pair.

    The rotation chains are walked eagerly, once, and kept as plain integer
    tuples: h, star, and each label's weight and denominator coordinates in
    label order.  The label objects (``labels``, ``weight_of``,
    ``denominator``), the label lookups, the compatibility tables and the
    first root family are built from those tuples on first read.
    """

    def __init__(self, m: CartanMatrix, c: CoxeterElement):
        self.m, self.c = m, c
        self.h, self.star, self._weights, self._diffs = self._iterate_chains()

    @cached_property
    def labels(self) -> tuple[PiLabel, ...]:
        return tuple(PiLabel(i, k) for i in range(self.m.n) for k in range(self.h[i] + 1))

    @cached_property
    def weight_of(self) -> dict[PiLabel, Weight]:
        return dict(zip(self.labels, map(Weight, self._weights)))

    @cached_property
    def denominator(self) -> dict[PiLabel, Root]:
        return dict(zip(self.labels, map(Root, self._diffs)))

    @cached_property
    def index(self) -> dict[PiLabel, int]:
        return {lab: k for k, lab in enumerate(self.labels)}

    @cached_property
    def forward_compat(self) -> tuple[tuple[int, ...], ...]:
        return self._compat_table(backward=False)

    @cached_property
    def backward_compat(self) -> tuple[tuple[int, ...], ...]:
        return self._compat_table(backward=True)

    def rotate(self, label: PiLabel, backward: bool = False) -> PiLabel:
        """tau(label), or tau^-1(label) when ``backward``."""
        i, k = label.i, label.m
        if backward:
            j = self.star[i]  # star is an involution
            return PiLabel(i, k - 1) if k else PiLabel(j, self.h[j])
        return PiLabel(i, k + 1) if k < self.h[i] else PiLabel(self.star[i], 0)

    def _step(self, backward: bool) -> tuple[int, ...]:
        """One rotation step as a permutation of label indices."""
        return tuple(self.index[self.rotate(lab, backward)] for lab in self.labels)

    def _compat_table(self, backward: bool) -> tuple[tuple[int, ...], ...]:
        """table[g][d]: rotate both labels k times, k the steps that take
        labels[g] to a fundamental weight (i, 0); then the alpha_i-coefficient
        of the rotated d's denominator, or 0 when it is a fundamental weight."""
        labels, step = self.labels, self._step(backward)
        coords = [(0,) * self.m.n if lab.m == 0 else d for lab, d in zip(labels, self._diffs)]
        powers = [tuple(range(len(labels)))]  # powers[k] = step^k
        rows = []
        for g in range(len(labels)):
            k, top = 0, g
            while labels[top].m != 0:
                top, k = step[top], k + 1
                if k > len(labels):
                    raise InternalCheckError("rotation orbit missed every fundamental weight")
            while len(powers) <= k:
                powers.append(tuple(step[x] for x in powers[-1]))
            i = labels[top].i
            rows.append(tuple(coords[d][i] for d in powers[k]))
        return tuple(rows)

    @cached_property
    def label_of(self) -> dict[tuple[int, ...], PiLabel]:
        table = dict(zip(self._weights, self.labels))
        if len(table) != len(self.labels):
            raise InternalCheckError("weights in Pi are not pairwise distinct")
        return table

    @cached_property
    def betas(self) -> tuple[Root, ...]:
        m, order, n = self.m, self.c.order, self.m.n
        betas: list[Root | None] = [None] * n
        for pos, letter in enumerate(order):
            betas[letter] = apply_word(m, order[:pos], simple_root(n, letter))
        return tuple(betas)

    def _iterate_chains(self):
        """h, star, and the weight and denominator coordinates of every label,
        in label order, as integer tuples.

        The denominator of (i, 0) is -alpha_i, that of (i, k) the positive
        root weight(i, k - 1) - weight(i, k), read off the reflections that
        apply c once (:func:`_reflect_word`).  The chain of i ends at the
        first weight -omega_j, of length h(i), and star(i) = j.
        """
        m, c, n = self.m, self.c, self.m.n
        bound = max(coxeter_number(m)) + 1
        ends = {tuple(-int(k == j) for k in range(n)): j for j in range(n)}
        h, star = [0] * n, [0] * n
        weights, diffs = [], []
        for i in range(n):
            g = [int(k == i) for k in range(n)]
            weights.append(tuple(g))
            diffs.append(tuple(-x for x in g))
            for step in range(1, bound + 1):
                diff = _reflect_word(m, c.order, g)
                if min(diff) < 0 or not any(diff):
                    raise InternalCheckError(
                        f"rotation chain of weight {i} not strictly decreasing at step {step}"
                    )
                w = tuple(g)
                weights.append(w)
                diffs.append(tuple(diff))
                if w in ends:
                    h[i], star[i] = step, ends[w]
                    break
            else:
                raise InternalCheckError(f"rotation chain of weight {i} exceeded order bound")
        return tuple(h), tuple(star), tuple(weights), tuple(diffs)


@lru_cache(maxsize=None)
def _data(m: CartanMatrix, c: CoxeterElement) -> _CoxeterData:
    return _CoxeterData(m, c)


@lru_cache(maxsize=None)
def coxeter_number(m: CartanMatrix) -> tuple[int, ...]:
    """Order of any Coxeter element on each connected component, in component
    order: a component of rank n has nh roots (Humphreys, *Reflection Groups
    and Coxeter Groups*, ch. 3), so h counts the roots of :func:`all_roots`
    supported on it, divided by n."""
    roots = all_roots(m)
    return tuple(
        sum(1 for r in roots if any(r.d[i] for i in comp)) // len(comp) for comp in m.components
    )


def component_coxeter_number(m: CartanMatrix, i: int) -> int:
    for comp, h in zip(m.components, coxeter_number(m)):
        if i in comp:
            return h
    raise IndexError(i)


def h_vector(m: CartanMatrix, c: CoxeterElement) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per-index iteration counts h(i) and the induced star involution."""
    data = _data(m, c)
    return data.h, data.star


def beta_roots(m: CartanMatrix, c: CoxeterElement) -> tuple[Root, ...]:
    """beta[i] = (prefix of c before letter i) applied to alpha_i; indexed by letter."""
    return _data(m, c).betas


def pi_set(m: CartanMatrix, c: CoxeterElement) -> tuple[tuple[PiLabel, Weight], ...]:
    """All labelled weights (i, m) with 0 <= m <= h(i), in label order."""
    return tuple(_data(m, c).weight_of.items())


def label_weight(m: CartanMatrix, c: CoxeterElement, label: PiLabel) -> Weight:
    return _data(m, c).weight_of[label]


def weight_label(m: CartanMatrix, c: CoxeterElement, w: Weight) -> PiLabel:
    return _data(m, c).label_of[w.g]


def denominator(m: CartanMatrix, c: CoxeterElement, label: PiLabel) -> Root:
    """Denominator vector of a label: -alpha_i for (i, 0), else (one backward
    rotation of the weight) minus the weight, in simple-root coordinates."""
    return _data(m, c).denominator[label]


def tau(m: CartanMatrix, c: CoxeterElement, label: PiLabel) -> PiLabel:
    """Rotation permutation of the label set: one more application of c, wrapping at the end."""
    return _data(m, c).rotate(label)


def compatibility_table(
    m: CartanMatrix, c: CoxeterElement, use_inverse: bool = False
) -> tuple[tuple[PiLabel, ...], tuple[tuple[int, ...], ...]]:
    """The whole compatibility pairing of (m, c): (labels, rows).

    ``labels`` is the label order of :func:`pi_set` and ``rows[g][d]`` the
    compatibility degree of (labels[g], labels[d]).  Both labels are rotated
    together until the first names a fundamental weight (i, 0); then the
    value is 0 against another fundamental weight, and the alpha_i-coefficient
    of (one backward rotation of the weight, minus the weight) otherwise.
    ``use_inverse`` rotates backwards instead; the two reductions must agree
    (``checks.compat_reduction_agreement``).  Each direction is built once per
    (m, c) from its own step permutation and then shared, so callers that
    read many pairs should read rows and columns of this table.
    """
    data = _data(m, c)
    return data.labels, data.backward_compat if use_inverse else data.forward_compat


def compatibility_degree(
    m: CartanMatrix, c: CoxeterElement, gamma: PiLabel, delta: PiLabel
) -> int:
    """Nonnegative pairing of two labels: one entry of :func:`compatibility_table`.

    A call costs a cache lookup and two label-index lookups; a loop over
    label pairs reads the table's rows instead.
    """
    data = _data(m, c)
    return data.forward_compat[data.index[gamma]][data.index[delta]]


def clusters(m: CartanMatrix, c: CoxeterElement) -> tuple[tuple[PiLabel, ...], ...]:
    """All maximal pairwise-compatible label sets; each must have exactly n elements.

    Bron-Kerbosch on the compatibility graph, vertex sets as bitmasks over
    the label order, with the Tomita pivot: the vertex of ``cand | excl``
    with the most neighbours in ``cand`` (the first such in label order).
    """
    data = _data(m, c)
    labels, table = data.labels, data.forward_compat
    # nbrs[a]: the labels b != a with both entries of (a, b) zero, as a bitmask
    nbrs = [
        sum(1 << b for b, x in enumerate(row) if x == 0 == table[b][a] and b != a)
        for a, row in enumerate(table)
    ]
    result = []

    def expand(clique: tuple[int, ...], cand: int, excl: int) -> None:
        if not cand | excl:
            if len(clique) != m.n:
                raise InternalCheckError(
                    f"maximal compatible set of size {len(clique)} != rank {m.n}"
                )
            result.append(tuple(sorted(clique)))
            return
        best, rest = -1, cand | excl
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            k = (cand & nbrs[u]).bit_count()
            if k > best:
                pivot, best = u, k
            rest ^= low
        todo = cand & ~nbrs[pivot]
        while todo:
            low = todo & -todo
            v = low.bit_length() - 1
            expand(clique + (v,), cand & nbrs[v], excl & nbrs[v])
            cand ^= low
            excl |= low
            todo ^= low

    expand((), (1 << len(labels)) - 1, 0)
    # labels is in sorted order, so sorted index tuples map to sorted label tuples.
    return tuple(tuple(labels[v] for v in clique) for clique in sorted(result))


def cyclical_move(m: CartanMatrix, c: CoxeterElement, source: int) -> CoxeterElement:
    """Rotate a source letter of c to the end (reverse all arrows at that source)."""
    if source not in c.order or any(precedes(m, c, j, source) for j in m.neighbors(source)):
        raise InvalidMove(f"index {source} is not a source of {c.order}")
    word = tuple(i for i in c.order if i != source) + (source,)
    return coxeter_element(m, word)


@dataclass(frozen=True)
class MoveGraph:
    elements: tuple[CoxeterElement, ...]
    edges: tuple[tuple[int, int, int], ...]  # (from, to, rotated source)

    def is_connected(self) -> bool:
        adjacent: list[list[int]] = [[] for _ in self.elements]
        for a, b, _ in self.edges:
            adjacent[a].append(b)
            adjacent[b].append(a)
        return len(_graph_components(len(adjacent), adjacent.__getitem__)) <= 1


@lru_cache(maxsize=None)
def move_graph(m: CartanMatrix) -> MoveGraph:
    """All Coxeter elements (= acyclic orientations) joined by source rotations;
    built once per Cartan matrix."""
    edges = m.edges()
    seen: dict[CoxeterElement, int] = {}
    elements: list[CoxeterElement] = []
    for signs in itertools.product((0, 1), repeat=len(edges)):
        arcs = ((i, j) if s == 0 else (j, i) for (i, j), s in zip(edges, signs))
        elem = CoxeterElement(_lex_topological_order(m.n, arcs))
        if elem not in seen:
            seen[elem] = len(elements)
            elements.append(elem)
    if len(elements) != 2 ** len(edges):
        raise InternalCheckError("orientation count mismatch")
    move_edges = []
    for idx, elem in enumerate(elements):
        for s in sources(m, elem):
            target = seen[cyclical_move(m, elem, s)]
            move_edges.append((idx, target, s))
    return MoveGraph(tuple(elements), tuple(move_edges))


def all_coxeter_elements(m: CartanMatrix) -> tuple[CoxeterElement, ...]:
    return move_graph(m).elements


# -- bipartite picture ------------------------------------------------------


@lru_cache(maxsize=None)
def all_roots(m: CartanMatrix) -> tuple[Root, ...]:
    """The full root system, as closure of the simple roots under reflections."""
    frontier = [simple_root(m.n, i) for i in range(m.n)]
    seen = {r.d for r in frontier}
    while frontier:
        nxt = []
        for r in frontier:
            for i in range(m.n):
                s = reflect_root(m, i, r)
                if s.d not in seen:
                    seen.add(s.d)
                    nxt.append(s)
        frontier = nxt
    return tuple(sorted((Root(d) for d in seen), key=lambda r: r.d))


def _half_reflection(m: CartanMatrix, eps: tuple[int, ...], sign: int, r: Root) -> Root:
    """Product of the commuting simple reflections of one sign, on roots.

    Fixes a negative simple root of the opposite sign, per the standard
    involution on almost positive roots.
    """
    neg = _negative_simple_index(r)
    if neg is not None and eps[neg] == -sign:
        return r
    for i in range(m.n):
        if eps[i] == sign:
            r = reflect_root(m, i, r)
    return r


def _negative_simple_index(r: Root) -> int | None:
    nonzero = [k for k, x in enumerate(r.d) if x != 0]
    if len(nonzero) == 1 and r.d[nonzero[0]] == -1:
        return nonzero[0]
    return None


@lru_cache(maxsize=None)
def _half_reflection_tables(m: CartanMatrix):
    """The almost positive roots (positive roots, then -alpha_i by i), their
    index by coordinates, and the pairing table over them.

    The two half reflections are those of the signs of :func:`bipartition`.
    Each half reflection is an index permutation of the roots.  Row a walks
    the orbit of root a under the two involutions in turn, starting with the
    +1 one, and carries the whole index vector along: after k steps every root
    b sits at powers[k][b], the same for every row.  Once root a reaches a
    negative simple root -alpha_i, the row holds the positive part of the
    alpha_i-coefficient of each carried root.
    """
    roots = tuple(r for r in all_roots(m) if r.is_positive())
    roots += tuple(-simple_root(m.n, i) for i in range(m.n))
    index = {r.d: k for k, r in enumerate(roots)}
    eps = bipartition(m)
    try:
        flips = {
            sign: tuple(index[_half_reflection(m, eps, sign, r).d] for r in roots)
            for sign in (1, -1)
        }
    except KeyError:
        raise InternalCheckError("half reflection leaves the almost positive roots") from None
    negative_simple = [_negative_simple_index(r) for r in roots]
    h_bound = 2 * (max(coxeter_number(m)) + 2)
    powers = [tuple(range(len(roots)))]  # powers[k]: the first k involutions, composed
    rows = []
    for a in range(len(roots)):
        k = 0
        while negative_simple[powers[k][a]] is None:
            k += 1
            if k >= h_bound:
                raise InternalCheckError("involution orbit missed every negative simple root")
            if k == len(powers):
                flip = flips[1 if k % 2 else -1]
                powers.append(tuple(flip[b] for b in powers[-1]))
        i = negative_simple[powers[k][a]]
        rows.append(tuple(max(roots[b].d[i], 0) for b in powers[k]))
    return roots, index, tuple(rows)


def root_compat_table(m: CartanMatrix) -> tuple[tuple[Root, ...], tuple[tuple[int, ...], ...]]:
    """The whole compatibility pairing on almost positive roots: (roots, rows).

    ``roots`` lists the positive roots in coordinate order, then -alpha_i by
    i; ``rows[a][b]`` pairs roots[a] with roots[b] (see :func:`root_compat`).
    Built once per Cartan matrix from root data alone, sharing no code with
    the label tables of :func:`compatibility_table`, so the two can check
    each other.
    """
    roots, _, rows = _half_reflection_tables(m)
    return roots, rows


def root_compat(m: CartanMatrix, alpha: Root, beta: Root) -> int:
    """Compatibility pairing on almost positive roots: one entry of
    :func:`root_compat_table`.

    Characterized by: pairing of a negative simple -alpha_i against beta is
    the positive part of beta's alpha_i-coefficient, and invariance under the
    two sign involutions (the products of the simple reflections of one sign
    of the bipartition).  A loop over root pairs reads the table's rows
    instead.
    """
    _, index, rows = _half_reflection_tables(m)
    return rows[index[alpha.d]][index[beta.d]]


# -- primitive exchange relations -------------------------------------------


@dataclass(frozen=True)
class PrimitiveRelation:
    """One exchange relation whose right-hand side has an empty variable product.

    The product of the two ``left`` variables equals ``monomial_coef`` times
    the product of ``monomial_vars`` (with multiplicities), plus
    ``constant_coef``.  The coefficient exponent vectors are over the seed's
    semifield generators: y_1..y_n for principal coefficients, one generator
    per label in label order for universal ones.
    """

    left: tuple[PiLabel, PiLabel]
    monomial_vars: tuple[tuple[PiLabel, int], ...]
    monomial_coef: tuple[int, ...]
    constant_coef: tuple[int, ...]


def primitive_relations(m: CartanMatrix, c: CoxeterElement) -> tuple[PrimitiveRelation, ...]:
    """The principal-coefficient primitive relations, one per label, in label order.

    The relation of delta = (k, q) pairs (tau^-1 delta, delta).  Its variable
    side has multiplicity -a_ik at (i, q) for each i preceding k, and at
    (i, q - 1), or tau^-1 (i, 0) when q = 0, for each i that k precedes.  Its
    coefficient is y_k when q = 0; otherwise its constant side carries the
    denominator of delta.
    """
    data = _data(m, c)
    n = m.n
    out = []
    for delta, diff in zip(data.labels, data._diffs):
        k, q = delta.i, delta.m
        mono_vars = []
        for i in range(n):
            if precedes(m, c, i, k):
                mono_vars.append((PiLabel(i, q), -m.a[i][k]))
            elif precedes(m, c, k, i):
                lab = PiLabel(i, q - 1) if q else data.rotate(PiLabel(i, 0), backward=True)
                mono_vars.append((lab, -m.a[i][k]))
        out.append(
            PrimitiveRelation(
                left=(data.rotate(delta, backward=True), delta),
                monomial_vars=tuple(sorted(mono_vars)),
                monomial_coef=tuple(int(q == 0 and j == k) for j in range(n)),
                constant_coef=diff if q else (0,) * n,
            )
        )
    return tuple(out)
