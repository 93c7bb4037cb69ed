"""The exchange step against slow, test-only reference loops.

``reference_exact_div`` finds every leading term by a ``max`` over the whole
remainder, and ``reference_exchange_numerator`` builds every power as
repeated products that start from the ring's one.  The engine's exact
division and numerators must give the same results, or the same
``InexactDivision``, on random inputs and on every step an exploration
takes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxclusters import (
    InexactDivision,
    PolyRing,
    all_coxeter_elements,
    bipartite_element,
    cartan_from_text,
    explore,
)
from coxclusters.algebra import _exchange_numerator, _sign_parts
from coxclusters.poly import LaurentPoly
from conftest import instance_seed


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


def reference_exchange_numerator(ring, cluster, B, k, parts):
    """The exchange numerator with every power x**b built as b products
    that start from the ring's one, without ``__pow__``."""
    n = len(cluster)
    sides = [ring.monomial((0,) * n + parts[0]), ring.monomial((0,) * n + parts[1])]
    for i in range(n):
        b = B[i][k]
        if b:
            power = ring.one()
            for _ in range(abs(b)):
                power = power * cluster[i]
            sides[b < 0] = sides[b < 0] * power
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
    if not product.is_zero():
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
    if q.is_zero():
        return
    product = PAIR.from_terms(a) * (u ** n - v ** n)
    for p in (product, product + PAIR.monomial(g, h)):
        assert_same_division(p, q)


# -- every step of an exploration -------------------------------------------------------


def step_instances():
    """Principal and universal seeds of every orientation of A3, B3, C3, G2
    and A2xA1, and the principal seed of bipartite E6, named as in
    :func:`conftest.instance_seed`."""
    out = []
    for spec in ("A3", "B3", "C3", "G2", "A2xA1"):
        for c in all_coxeter_elements(cartan_from_text(spec)):
            word = ",".join(str(i + 1) for i in c.order)
            out += [f"{kind} {spec} {word}" for kind in ("principal", "universal")]
    word = ",".join(str(i + 1) for i in bipartite_element(cartan_from_text("E6")).order)
    return out + [f"principal E6 {word}"]


@pytest.mark.parametrize("name", step_instances())
def test_exploration_steps_match_reference(name, monkeypatch):
    """Every division ``explore`` makes equals the reference division, and
    the numerator of every (seed, direction) equals the reference numerator."""
    exact_div = LaurentPoly.exact_div
    divisions = []

    def checked(self, other):
        quotient = exact_div(self, other)
        assert quotient == reference_exact_div(self, other)
        divisions.append(1)
        return quotient

    monkeypatch.setattr(LaurentPoly, "exact_div", checked)
    graph = explore(instance_seed(name))
    monkeypatch.undo()
    assert len(divisions) == len(graph.edges)
    for view in graph.seeds:
        cluster = [graph.variables[v] for v in view.var_ids]
        for k in range(graph.n):
            parts = _sign_parts(view.coeffs[k])
            assert _exchange_numerator(
                graph.ring, cluster, view.B, k, parts
            ) == reference_exchange_numerator(graph.ring, cluster, view.B, k, parts)
