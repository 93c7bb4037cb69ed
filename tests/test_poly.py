import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxclusters import InexactDivision, PolyRing
from coxclusters.poly import EXP_MAX, EXP_MIN


@pytest.fixture
def ring():
    return PolyRing(("x1", "x2", "y1"))


def _random_poly(ring, rng, terms=4, span=3):
    p = ring.zero()
    for _ in range(terms):
        exps = tuple(rng.randint(-span, span) for _ in range(ring.nvars))
        p = p + ring.monomial(exps, rng.randint(-5, 5))
    return p


def test_basic_arithmetic(ring):
    x1, x2, y1 = (ring.gen(i) for i in range(3))
    p = (x1 + x2) * (x1 - x2)
    assert p == x1 * x1 - x2 * x2
    assert (p - p).is_zero()
    assert (x1 * x2).terms == {(1, 1, 0): 1}
    assert ((x1 + y1) ** 2) == x1 * x1 + ring.monomial((1, 0, 1), 2) + y1 * y1


def test_zero_coefficients_never_stored(ring):
    x1 = ring.gen(0)
    assert (x1 - x1).terms == {}
    assert (x1 + (-x1) + x1) == x1


def test_negative_powers_of_monomials(ring):
    x1 = ring.gen(0)
    assert (x1 ** -2).terms == {(-2, 0, 0): 1}
    with pytest.raises(InexactDivision):
        (x1 + ring.gen(1)) ** -1


def test_exact_division(ring):
    x1, x2, y1 = (ring.gen(i) for i in range(3))
    num = y1 + x2
    quotient = num.exact_div(x1)
    assert quotient == ring.monomial((-1, 0, 1)) + ring.monomial((-1, 1, 0))
    assert quotient * x1 == num

    p = (x1 + x2) * (x2 + y1) * ring.monomial((-2, 0, 0), 3)
    assert p.exact_div(x1 + x2) == (x2 + y1) * ring.monomial((-2, 0, 0), 3)

    with pytest.raises(InexactDivision):
        (x1 + x2).exact_div(x1 + y1)
    with pytest.raises(InexactDivision):
        ring.monomial((0, 0, 0), 3).exact_div(ring.monomial((0, 0, 0), 2))


def test_division_round_trip_randomized(ring):
    rng = random.Random(5)
    for _ in range(60):
        p = _random_poly(ring, rng)
        q = _random_poly(ring, rng)
        if q.is_zero():
            continue
        assert (p * q).exact_div(q) == p


def test_canonical_string(ring):
    x1, x2, y1 = (ring.gen(i) for i in range(3))
    p = ring.one() + ring.monomial((2, 0, 1), 1) + ring.monomial((-1, 1, 0), -3)
    # Terms ascend lexicographically by exponent vector; unit coefficients omitted.
    assert str(p) == "-3*x1^-1*x2+1+x1^2*y1"
    assert str(ring.zero()) == "0"
    assert str(x2 * x2) == "x2^2"


def test_key_is_stable_sort_order(ring):
    a = ring.gen(0) + ring.gen(1)
    b = ring.gen(1) + ring.gen(0)
    assert a.key() == b.key()
    assert hash(a) == hash(b)


def test_project_and_evaluate():
    ring = PolyRing(("x1", "y1"))
    target = PolyRing(("t1",))
    p = ring.monomial((2, 1)) + ring.monomial((1, 0)) + ring.one()
    f = p.project([1], target)
    assert str(f) == "2+t1"
    values = [ring.monomial((1, 0)), ring.monomial((0, 1), 1) + ring.one()]
    composed = p.evaluate(values, ring)
    assert composed == ring.monomial((2, 0)) * (ring.gen(1) + ring.one()) + ring.gen(0) + ring.one()


# -- properties against a tuple-keyed reference model --------------------------------

PROPS = settings(derandomize=True, database=None, deadline=None, max_examples=150)
RING = PolyRing(("x1", "x2", "y1"))
EXPS = st.tuples(*[st.integers(-4, 4)] * RING.nvars)
MODELS = st.dictionaries(EXPS, st.integers(-6, 6).filter(bool), max_size=6)


def model_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def model_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


@PROPS
@given(MODELS, MODELS)
def test_sum_and_product_match_model(a, b):
    p, q = RING.from_terms(a), RING.from_terms(b)
    assert (p + q).terms == model_add(a, b)
    assert (p - q).terms == model_add(a, {e: -c for e, c in b.items()})
    assert (p * q).terms == model_mul(a, b)
    assert (p * q).is_zero() == (not model_mul(a, b))


@PROPS
@given(MODELS, MODELS, MODELS)
def test_ring_axioms(a, b, c):
    p, q, r = (RING.from_terms(m) for m in (a, b, c))
    zero, one = RING.zero(), RING.one()
    assert p + q == q + p and p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and (p * zero).is_zero()
    assert (p + (-p)).is_zero()
    assert p ** 2 == p * p and p ** 0 == one


@PROPS
@given(MODELS, MODELS.filter(bool))
def test_product_divides_back(a, b):
    p, q = RING.from_terms(a), RING.from_terms(b)
    assert (p * q).exact_div(q) == p


@PROPS
@given(MODELS, MODELS.filter(bool), EXPS, st.integers(-6, 6).filter(bool))
def test_perturbed_product_division(a, b, e, c):
    """p*q + c*x^e is divisible by q exactly when c*x^e is: q must be a
    monomial whose coefficient divides c, since the units are +-x^a."""
    p, q = RING.from_terms(a), RING.from_terms(b)
    perturbed = p * q + RING.monomial(e, c)
    if len(b) == 1 and c % next(iter(b.values())) == 0:
        assert perturbed.exact_div(q) * q == perturbed
    else:
        with pytest.raises(InexactDivision):
            perturbed.exact_div(q)


@PROPS
@given(MODELS, st.integers(0, 4))
def test_power_is_repeated_product(a, k):
    p = RING.from_terms(a)
    expected = RING.one()
    for _ in range(k):
        expected = expected * p
    assert p ** k == expected
    assert p ** 1 == p


@PROPS
@given(EXPS, st.sampled_from([-1, 1]), st.integers(1, 4))
def test_negative_powers_of_unit_monomials(e, c, k):
    m = RING.monomial(e, c)
    assert m ** -k == RING.monomial(tuple(-k * x for x in e), c ** k)
    assert m ** -k * m ** k == RING.one()
    with pytest.raises(InexactDivision):
        RING.monomial(e, 2 * c) ** -k


@PROPS
@given(MODELS, MODELS)
def test_key_order_is_sorted_tuple_order(a, b):
    p, q = RING.from_terms(a), RING.from_terms(b)
    unpack = RING.layout.unpack
    assert [(unpack(k), c) for k, c in p.key()] == sorted(a.items())
    assert (p.key() < q.key()) == (sorted(a.items()) < sorted(b.items()))
    assert (p == q) == (a == b)
    if p == q:
        assert hash(p) == hash(q)


def test_exponent_beyond_layout_raises(ring):
    x1 = ring.gen(0)
    assert ring.monomial((EXP_MAX, EXP_MIN, 0)).monomial_exps() == (EXP_MAX, EXP_MIN, 0)
    for exps in ((EXP_MAX + 1, 0, 0), (0, EXP_MIN - 1, 0)):
        with pytest.raises(OverflowError):
            ring.monomial(exps)
    top = x1 ** EXP_MAX
    with pytest.raises(OverflowError):
        top * x1
    with pytest.raises(OverflowError):
        (top + ring.gen(1)) * (x1 + ring.one())
    with pytest.raises(OverflowError):
        (x1 ** EXP_MIN).exact_div(x1)
    assert (top * x1 ** -1).exact_div(top) == x1 ** -1
