"""The exchange step and the walk against slow, test-only reference loops.

``reference_exact_div`` finds every leading term by a ``max`` over the whole
remainder, and ``reference_exchange_numerator`` builds every power as
repeated products that start from the ring's one.  The engine's exact
division and numerators must give the same results, or the same
``InexactDivision``, on random inputs and on every step an exploration
takes.  ``reference_explore`` walks the exchange graph with the public
``mutate`` and keys each seed by its whole canonical form, B~ included;
``explore`` must return the same graph, and so must ``g_vector_walk``, with
one division per variable outside the start cluster where ``explore``
makes one per edge.  A counting ``poly.insort`` shows that the engine's
divisions never insert a key into the division's key list, while a
cancelling division does.
"""

from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxclusters import (
    CapExceeded,
    InexactDivision,
    InternalCheckError,
    PolyRing,
    algebra,
    all_coxeter_elements,
    b_matrix,
    bipartite_element,
    cartan_from_text,
    coxeter_element,
    explore,
    mutate,
    poly,
    principal_seed,
    universal_seed,
)
from coxclusters.algebra import (
    DEFAULT_CAP,
    ExchangeGraph,
    Seed,
    SeedView,
    _exchange,
    _exchange_numerator,
    _mutate,
    _sign_parts,
    extended_columns,
    g_vector_walk,
    relabel_seed,
)
from coxclusters.poly import LaurentPoly
from conftest import indecomposable_types, instance_seed, permuted_seed, step_instances


def reference_exact_div(p, divisor):
    """Leading-term elimination that takes each leading term as ``max`` of
    the whole remainder, with the same box, guard-bit and coefficient tests
    as :meth:`LaurentPoly.exact_div`."""
    q = divisor._t
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p._t:
        return p
    layout = p.ring.layout
    one, guard = layout.one, layout.guard
    plo, phi = p._box()
    if len(q) == 1:
        ((qk, qc),) = q.items()
        d = one - qk
        lo, hi = plo + d, phi + d
        layout.check(lo, hi)
        out = {}
        for k, c in p._t.items():
            if c % qc:
                raise InexactDivision("coefficient not divisible")
            out[k + d] = c // qc
        return LaurentPoly(p.ring, out, lo, hi)
    qlo, qhi = divisor._box()
    lo = plo - qlo + one
    hi = phi - qhi + one
    if ((hi - lo + guard) & layout.top) != guard:
        raise InexactDivision("empty quotient box")
    layout.check(lo, hi)
    q_lead = max(q)
    q_lc = q[q_lead]
    offsets = [(k - q_lead, c) for k, c in q.items()]
    below = q_lead + lo - one - guard
    above = hi + q_lead - one + guard
    rem = dict(p._t)
    get = rem.get
    quotient = {}
    while rem:
        r = max(rem)
        r_lc = rem[r]
        if ((r - below) & (above - r) & guard) != guard or r_lc % q_lc:
            raise InexactDivision("nonzero remainder")
        co = r_lc // q_lc
        quotient[r - q_lead + one] = co
        for dk, qc in offsets:
            k = r + dk
            c = get(k, 0) - co * qc
            if c:
                rem[k] = c
            else:
                del rem[k]
    return LaurentPoly(p.ring, quotient, lo, hi)


def reference_exchange_numerator(ring, cluster, column):
    """The exchange numerator of a column of B~: for each sign, the
    generators' monomial times every power x**b of the variables, built as
    b products that start from the ring's one, without ``__pow__``."""
    n = len(cluster)
    sides = []
    for sign in (1, -1):
        part = [max(sign * a, 0) for a in column]
        side = ring.monomial((0,) * n + tuple(part[n:]))
        for i in range(n):
            if part[i]:
                power = ring.one()
                for _ in range(part[i]):
                    power = power * cluster[i]
                side = side * power
        sides.append(side)
    return sides[0] + sides[1]


def assert_same_division(p, q):
    try:
        expected = reference_exact_div(p, q)
    except InexactDivision:
        with pytest.raises(InexactDivision):
            p.exact_div(q)
        return
    assert p.exact_div(q) == expected


# -- random dividends and divisors ------------------------------------------------------

RING = PolyRing(("x1", "x2", "x3", "y1"))
EXPS = st.tuples(*[st.integers(-3, 3)] * RING.nvars)
MODELS = st.dictionaries(EXPS, st.integers(-6, 6).filter(bool), max_size=8)


@st.composite
def divisors(draw):
    """A nonzero polynomial whose leading coefficient is often negative or
    not a unit."""
    model = draw(MODELS.filter(bool))
    model[max(model)] = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return RING.from_terms(model)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(MODELS, divisors(), EXPS, st.integers(-6, 6), MODELS)
def test_exact_div_matches_reference(a, q, e, c, free):
    """Exact products, products with one term added or the lowest term
    removed, and unrelated dividends: the same quotient or the same
    InexactDivision."""
    product = RING.from_terms(a) * q
    dividends = [product, product + RING.monomial(e, c), RING.from_terms(free)]
    if product != RING.zero():
        exps, coef = min(product.terms.items())
        dividends.append(product - RING.monomial(exps, coef))
    for p in dividends:
        assert_same_division(p, q)


PAIR = PolyRing(("x1", "y1"))
PAIR_EXPS = st.tuples(*[st.integers(-3, 3)] * PAIR.nvars)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.dictionaries(PAIR_EXPS, st.integers(-6, 6).filter(bool), max_size=4), PAIR_EXPS,
       PAIR_EXPS, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.integers(1, 4), PAIR_EXPS,
       st.integers(-6, 6))
def test_exact_div_with_cancellation_matches_reference(a, e, f, c, n, g, h):
    """u - v divides u**n - v**n, whose terms cancel almost entirely, so the
    elimination creates nearly every key it reaches."""
    u, v = PAIR.monomial(e), PAIR.monomial(f, c)
    q = u - v
    if q == PAIR.zero():
        return
    product = PAIR.from_terms(a) * (u ** n - v ** n)
    for p in (product, product + PAIR.monomial(g, h)):
        assert_same_division(p, q)


def _count_insertions(monkeypatch):
    """Record every key that exact division inserts into its key list."""
    inserted = []

    def counting(order, key):
        inserted.append(key)
        insort(order, key)

    monkeypatch.setattr(poly, "insort", counting)
    return inserted


@pytest.mark.parametrize("spec, make", [("E6", principal_seed), ("F4", universal_seed)])
def test_positive_divisions_insert_no_key(spec, make, monkeypatch):
    """Every dividend of a walk is the product of two cluster variables, which
    have positive coefficients, so no term of divisor x quotient cancels and
    the elimination never reaches a key outside the dividend."""
    inserted = _count_insertions(monkeypatch)
    m = cartan_from_text(spec)
    assert explore(make(m, bipartite_element(m))).edges
    assert inserted == []


def test_cancelling_division_inserts_keys(monkeypatch):
    """(x**2 - 1) / (x - 1) cancels x and reaches it through an insertion."""
    inserted = _count_insertions(monkeypatch)
    x, one = PAIR.gen(0), PAIR.one()
    assert (x ** 2 - one).exact_div(x - one) == x + one
    assert inserted


def _symmetric_principal_seed(b):
    """Principal coefficients over B = [[0, b], [b, 0]], which for b != 0 is
    not skew-symmetrizable, so some exchange relation is not Laurent."""
    ring = PolyRing(("x1", "x2", "y1", "y2"))
    columns = extended_columns(((0, b), (b, 0)), ((1, 0), (0, 1)))
    return Seed(ring=ring, cluster=(ring.gen(0), ring.gen(1)), columns=columns)


def test_explore_reports_a_non_laurent_relation():
    with pytest.raises(InternalCheckError, match="exchange relation not Laurent at seed") as info:
        explore(_symmetric_principal_seed(1))
    assert isinstance(info.value.__cause__, InexactDivision)


def test_g_vector_walk_reports_a_non_laurent_relation():
    """The walk divides only at a new g-vector.  With b = 2 the first
    non-Laurent relation it meets has one; with b = 1 the walk reaches that
    g-vector by another edge first and never divides there, since g-vectors
    name variables only over a skew-symmetrizable B."""
    with pytest.raises(InternalCheckError, match="exchange relation not Laurent at seed") as info:
        g_vector_walk(_symmetric_principal_seed(2), DEFAULT_CAP)
    assert isinstance(info.value.__cause__, InexactDivision)


def test_mutate_reports_a_non_laurent_relation():
    seed = mutate(mutate(_symmetric_principal_seed(1), 0), 1)
    with pytest.raises(InternalCheckError, match="exchange relation not Laurent in direction 0"):
        mutate(seed, 0)


# -- every step of an exploration -------------------------------------------------------


@pytest.mark.parametrize("name", step_instances())
def test_exploration_steps_match_reference(name, monkeypatch):
    """Every division ``explore`` makes equals the reference division, and
    its dividend, built or handed on, is the reference numerator of an edge
    that exchanges its divisor and its quotient.  The numerator of every
    (seed, direction) equals the reference numerator."""
    exact_div = LaurentPoly.exact_div
    divisions = []

    def checked(self, other):
        quotient = exact_div(self, other)
        assert quotient == reference_exact_div(self, other)
        divisions.append((self, other, quotient))
        return quotient

    monkeypatch.setattr(LaurentPoly, "exact_div", checked)
    graph = explore(instance_seed(name))
    monkeypatch.undo()
    assert len(divisions) == len(graph.edges)
    numerators = {}
    for a, b in graph.edges:
        for s, t in ((graph.seeds[a], graph.seeds[b]), (graph.seeds[b], graph.seeds[a])):
            cluster = [graph.variables[v] for v in s.var_ids]
            column = s.columns[_exchange(s, t)[0]]
            reference = reference_exchange_numerator(graph.ring, cluster, column)
            assert _exchange_numerator(graph.ring, cluster, _sign_parts(column)) == reference
            numerators.setdefault(frozenset(s.var_ids) ^ frozenset(t.var_ids), []).append(reference)
    var_index = {p.key(): v for v, p in enumerate(graph.variables)}
    for dividend, divisor, quotient in divisions:
        assert dividend in numerators[frozenset(var_index[p.key()] for p in (divisor, quotient))]


def test_numerators_are_shared_across_commuting_squares(monkeypatch):
    """Bipartite E6 builds fewer numerators than it has edges, and at least
    one per distinct exchange relation."""
    built = []

    def counting(*args):
        built.append(1)
        return _exchange_numerator(*args)

    monkeypatch.setattr(algebra, "_exchange_numerator", counting)
    graph = explore(instance_seed(step_instances()[-1]))
    assert len(graph.relations) <= len(built) < len(graph.edges)


def test_b_tilde_is_mutated_once_per_new_seed(monkeypatch):
    """Bipartite E6 mutates B~ only on the crossings that reach a new seed."""
    calls = []

    def counting(*args):
        calls.append(1)
        return _mutate(*args)

    monkeypatch.setattr(algebra, "_mutate", counting)
    graph = explore(instance_seed(step_instances()[-1]))
    assert len(calls) == len(graph.seeds) - 1


# -- the whole walk ---------------------------------------------------------------------


def reference_explore(seed):
    """Breadth-first closure of ``seed`` by the public ``mutate`` in every
    direction of every seed, with no hand-off and no crossing marks.  A seed
    is keyed by its whole canonical form: the polynomial keys of its cluster,
    sorted, and the columns of B~ permuted along (``relabel_seed``)."""

    def whole_key(s):
        return relabel_seed([p.key() for p in s.cluster], s.columns)

    polys = {p.key(): p for p in seed.cluster}
    index = {whole_key(seed): 0}
    queue = [seed]
    edges = set()
    for i, s in enumerate(queue):
        for k in range(s.n):
            t = mutate(s, k)
            polys[t.cluster[k].key()] = t.cluster[k]
            j = index.setdefault(whole_key(t), len(queue))
            if j == len(queue):
                queue.append(t)
            edges.add((min(i, j), max(i, j)))
    var_id = {key: v for v, key in enumerate(sorted(polys))}
    views = [SeedView(tuple(var_id[key] for key in keys), cols) for keys, cols in index]
    order = sorted(range(len(views)), key=lambda i: views[i].var_ids)
    pos = {old: new for new, old in enumerate(order)}
    return ExchangeGraph(
        ring=seed.ring,
        n=seed.n,
        variables=tuple(polys[key] for key in sorted(polys)),
        seeds=tuple(views[i] for i in order),
        edges=tuple(sorted(tuple(sorted((pos[a], pos[b]))) for a, b in edges)),
    )


def coefficient_free_seed(m, c):
    """Initial seed with B~ = B: no semifield generators."""
    ring = PolyRing(tuple(f"x{i + 1}" for i in range(m.n)))
    return Seed(
        ring=ring,
        cluster=tuple(ring.gen(i) for i in range(m.n)),
        columns=extended_columns(b_matrix(m, c), [()] * m.n),
    )


INDECOMPOSABLE = {rank: [f"{x}{r}" for x, r in indecomposable_types(rank)] for rank in range(1, 5)}


@st.composite
def finite_types(draw):
    """An indecomposable type of rank at most 4, or a direct sum of two or
    three components of total rank at most 5; as given or transposed."""
    if draw(st.booleans()):
        spec = draw(st.sampled_from(INDECOMPOSABLE[4]))
    else:
        parts, budget = [], 5
        for left in range(draw(st.integers(2, 3)), 0, -1):
            part = draw(st.sampled_from(INDECOMPOSABLE[min(budget - left + 1, 4)]))
            budget -= cartan_from_text(part).n
            parts.append(part)
        spec = "x".join(parts)
    m = cartan_from_text(spec)
    return m.transpose() if draw(st.booleans()) else m


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.data())
def test_explore_matches_reference(data):
    """A random type, Coxeter word, coefficient system and slot order of the
    start seed: ``explore`` and the reference give equal graphs."""
    m = data.draw(finite_types())
    c = coxeter_element(m, data.draw(st.permutations(range(m.n))))
    make = data.draw(st.sampled_from([principal_seed, universal_seed, coefficient_free_seed]))
    seed = permuted_seed(make(m, c), data.draw(st.permutations(range(m.n))))
    graph = explore(seed)
    assert graph == reference_explore(seed)
    assert g_vector_walk(seed, DEFAULT_CAP) == graph


def _divisions(walk, seed, monkeypatch):
    """(walk(seed, DEFAULT_CAP), the number of exact divisions it made)."""
    exact_div = LaurentPoly.exact_div
    calls = []

    def counting(self, other):
        calls.append(1)
        return exact_div(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(LaurentPoly, "exact_div", counting)
        graph = walk(seed, DEFAULT_CAP)
    return graph, len(calls)


def test_g_vector_walk_caps_seeds_as_explore_does():
    """A cap of exactly the number of seeds passes and one less raises."""
    seed = instance_seed("universal B3 1,2,3")
    size = len(explore(seed).seeds)
    for walk in (explore, g_vector_walk):
        assert len(walk(seed, size).seeds) == size
        with pytest.raises(CapExceeded, match=f"seed cap {size - 1} exceeded"):
            walk(seed, size - 1)


@pytest.mark.parametrize("spec", ["A4", "B4", "C4", "D4", "F4"])
def test_g_vector_walk_matches_explore_on_universal_seeds(spec, monkeypatch):
    """The universal seed of every orientation: the walk returns the graph
    of ``explore`` with one division per variable outside the start
    cluster, where ``explore`` makes one per edge."""
    m = cartan_from_text(spec)
    for c in all_coxeter_elements(m):
        seed = universal_seed(m, c)
        graph, per_edge = _divisions(explore, seed, monkeypatch)
        walked, per_variable = _divisions(g_vector_walk, seed, monkeypatch)
        assert walked == graph, c.order
        assert per_edge == len(graph.edges)
        assert per_variable == len(graph.variables) - m.n
