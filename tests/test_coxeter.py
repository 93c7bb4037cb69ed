import itertools
from functools import lru_cache

import pytest

from coxclusters import (
    InternalCheckError,
    InvalidMove,
    PiLabel,
    Root,
    Weight,
    all_coxeter_elements,
    b_matrix,
    beta_roots,
    bipartite_element,
    bipartition,
    cartan_from_label,
    cartan_from_text,
    clusters,
    compatibility_degree,
    compatibility_table,
    coxeter_element,
    coxeter_number,
    cyclical_move,
    denominator,
    h_vector,
    label_weight,
    move_graph,
    pi_set,
    primitive_relations,
    reflect_root,
    reflect_weight,
    root_compat,
    simple_root,
    sources,
    tau,
    weight_as_root,
    weight_label,
)
from coxclusters import checks, coxeter, weyl
from coxclusters.coxeter import MoveGraph, all_roots
from conftest import (
    REFERENCE_TYPES,
    fundamental_weight,
    indecomposable_types,
    weight_difference,
    weyl_degrees,
)


@lru_cache(maxsize=None)
def tau_inverse(m, c, label):
    """The preimage of ``label`` under tau, searched over all of pi_set: it
    shares no code with the backward rotation of the compatibility tables."""
    return next(lab for lab, _ in pi_set(m, c) if tau(m, c, lab) == label)


def psi_move(m, c, ctilde, label, source):
    """Bijection from the labels of ctilde onto those of c for one source
    rotation: -omega_source goes to omega_source, any other weight w to
    s_source(w).  It intertwines the two rotation permutations."""
    if cyclical_move(m, c, source) != ctilde:
        raise InvalidMove(f"rotating {source} does not relate the two elements")
    w = label_weight(m, ctilde, label)
    if w == Weight(tuple(-int(k == source) for k in range(m.n))):
        return weight_label(m, c, fundamental_weight(m.n, source))
    return weight_label(m, c, reflect_weight(m, source, w))


@pytest.fixture
def a2c(a2):
    return a2, coxeter_element(a2, (0, 1))


def test_canonicalization_merges_commuting_orders(a3):
    # 1,3 commute in the path graph, so the words (0,2,1) and (2,0,1) coincide.
    assert coxeter_element(a3, (0, 2, 1)) == coxeter_element(a3, (2, 0, 1))
    assert coxeter_element(a3, (0, 2, 1)).order == (0, 2, 1)


def test_b_matrix_standard_linear_order():
    for n in (2, 3, 4):
        m = cartan_from_label("A", n)
        B = b_matrix(m, coxeter_element(m, range(n)))
        for i in range(n):
            for j in range(n):
                expect = 1 if j == i + 1 else (-1 if j == i - 1 else 0)
                assert B[i][j] == expect


def test_b_matrix_reversed_a2(a2):
    assert b_matrix(a2, coxeter_element(a2, (1, 0))) == ((0, -1), (1, 0))


def test_b_matrix_rank_one():
    m = cartan_from_label("A", 1)
    assert b_matrix(m, coxeter_element(m, (0,))) == ((0,),)


def test_h_vector_standard_linear_order():
    for n in (2, 3, 4, 5):
        m = cartan_from_label("A", n)
        h, _ = h_vector(m, coxeter_element(m, range(n)))
        assert h == tuple(n + 1 - k for k in range(1, n + 1))


def test_h_vector_a2(a2c):
    m, c = a2c
    h, star = h_vector(m, c)
    assert h == (2, 1)
    assert star == (1, 0)


@pytest.mark.parametrize("letter,rank", indecomposable_types(6))
def test_bipartite_h_values(letter, rank):
    m = cartan_from_label(letter, rank)
    (res,) = checks.bipartite_h_values(m)
    assert res.passed, res


def test_coxeter_numbers():
    assert coxeter_number(cartan_from_label("A", 2)) == (3,)
    assert coxeter_number(cartan_from_label("A", 3)) == (4,)
    assert coxeter_number(cartan_from_label("G", 2)) == (6,)
    assert coxeter_number(cartan_from_text("A2xA1")) == (3, 2)


def reference_coxeter_number(m):
    """The former walk: apply a Coxeter element to the fundamental weights of
    each component, one reflection at a time, until they all come back."""
    numbers = []
    for comp in m.components:
        probes = [fundamental_weight(m.n, i) for i in comp]
        current, order = probes, 0
        while order == 0 or current != probes:
            for letter in reversed(range(m.n)):
                current = [reflect_weight(m, letter, w) for w in current]
            order += 1
        numbers.append(order)
    return tuple(numbers)


@pytest.mark.parametrize(
    "spec",
    [f"{x}{r}" for x, r in indecomposable_types(8)] + ["A2xA1", "B3xG2xA1", "E6xD4"],
)
def test_coxeter_number_matches_walk(spec):
    m = cartan_from_text(spec)
    assert coxeter_number(m) == reference_coxeter_number(m)


def test_coxeter_number_walks_no_weight(monkeypatch):
    """The Coxeter number is a root count: with the weight kernel gone it
    still comes out."""

    def gone(*args):
        raise AssertionError("the weight kernel was called")

    monkeypatch.setattr(coxeter, "_reflect_word", gone)
    monkeypatch.setattr(weyl, "_reflect_word", gone)
    coxeter_number.cache_clear()
    all_roots.cache_clear()
    for spec, h in (("A5", (6,)), ("E6", (12,)), ("A2xA1", (3, 2))):
        assert coxeter_number(cartan_from_text(spec)) == h


def test_beta_roots_a2(a2c):
    m, c = a2c
    betas = beta_roots(m, c)
    assert betas[0] == simple_root(2, 0)
    assert betas[1] == Root((1, 1))
    # Telescoping: beta_2 + a_{1,2} beta_1 = alpha_2.
    assert Root(tuple(betas[1].d[k] + m.a[0][1] * betas[0].d[k] for k in range(2))) == simple_root(2, 1)


def test_first_letter_beta_is_simple():
    m = cartan_from_label("D", 4)
    for c in all_coxeter_elements(m):
        first = c.order[0]
        assert beta_roots(m, c)[first] == simple_root(4, first)


def test_pi_set_a2(a2c):
    m, c = a2c
    weights = [w.g for _, w in pi_set(m, c)]
    assert weights == [(1, 0), (-1, 1), (0, -1), (0, 1), (-1, 0)]


@pytest.mark.parametrize("letter,rank", indecomposable_types(5))
def test_pi_size_formula(letter, rank):
    m = cartan_from_label(letter, rank)
    h = coxeter_number(m)[0]
    for c in all_coxeter_elements(m):
        assert len(pi_set(m, c)) == rank * (h + 2) // 2


def test_pi_set_a3_intervals(a3):
    # Linear order: 9 labelled weights matching the 9 proper intervals.
    c = coxeter_element(a3, (0, 1, 2))
    assert len(pi_set(a3, c)) == 9


def test_tau_cycle_a2(a2c):
    m, c = a2c
    orbit = [PiLabel(0, 0)]
    for _ in range(4):
        orbit.append(tau(m, c, orbit[-1]))
    assert orbit == [PiLabel(0, 0), PiLabel(0, 1), PiLabel(0, 2), PiLabel(1, 0), PiLabel(1, 1)]
    assert tau(m, c, PiLabel(1, 1)) == PiLabel(0, 0)


def test_tau_inverse_roundtrip(a3):
    c = coxeter_element(a3, (1, 0, 2))
    for lab, _ in pi_set(a3, c):
        assert tau_inverse(a3, c, tau(a3, c, lab)) == lab
        assert tau(a3, c, tau_inverse(a3, c, lab)) == lab


def test_tau_orbit_hits_fundamental(a3):
    c = coxeter_element(a3, (2, 1, 0))
    for lab, _ in pi_set(a3, c):
        cur = lab
        for _ in range(len(pi_set(a3, c))):
            if cur.m == 0:
                break
            cur = tau(a3, c, cur)
        assert cur.m == 0


def test_compatibility_examples(a2c):
    m, c = a2c
    # Pairing of the first fundamental weight against the rotated second: the
    # coefficient of alpha_1 in beta_2 = alpha_1 + alpha_2.
    assert compatibility_degree(m, c, PiLabel(0, 0), PiLabel(1, 1)) == 1
    for i in range(2):
        for j in range(2):
            assert compatibility_degree(m, c, PiLabel(i, 0), PiLabel(j, 0)) == 0
    assert compatibility_degree(m, c, PiLabel(0, 1), PiLabel(0, 0)) == 1


@pytest.mark.parametrize("spec", ["A3", "B3", "G2", "A2xA1"])
def test_compat_reduction_direction_agrees(spec):
    m = cartan_from_text(spec)
    for c in all_coxeter_elements(m):
        (res,) = checks.compat_reduction_agreement(m, c)
        assert res.passed, res


def test_clusters_counts(a2c, a3):
    m, c = a2c
    pentagon = clusters(m, c)
    assert len(pentagon) == 5
    assert tuple(sorted([PiLabel(0, 0), PiLabel(1, 0)])) in pentagon
    hexagon = clusters(a3, coxeter_element(a3, (0, 1, 2)))
    assert len(hexagon) == 14
    # Each cluster and the whole family come in sorted PiLabel order.
    for family in (pentagon, hexagon):
        assert list(family) == sorted(tuple(sorted(cl)) for cl in family)


@pytest.mark.parametrize("letter,rank", indecomposable_types(8))
def test_cluster_count_is_catalan_number(letter, rank):
    m = cartan_from_label(letter, rank)
    degrees = weyl_degrees(letter, rank)
    h = max(degrees)
    catalan = 1
    for d in degrees:
        catalan *= h + d
    for d in degrees:
        catalan //= d
    linear = coxeter_element(m, range(m.n))
    if m.n >= 3:
        assert linear != bipartite_element(m)
    for c in (bipartite_element(m), linear):
        assert len(clusters(m, c)) == catalan


def reference_clusters(m, c):
    """Every n-subset of labels that is pairwise compatible by the rows of
    ``compatibility_table`` and that no other label extends, by brute force."""
    labels, rows = compatibility_table(m, c)
    span = range(len(labels))
    compatible = [[rows[a][b] == 0 == rows[b][a] for b in span] for a in span]
    out = []
    for subset in itertools.combinations(span, m.n):
        if not all(compatible[a][b] for a, b in itertools.combinations(subset, 2)):
            continue
        if any(x not in subset and all(compatible[x][a] for a in subset) for x in span):
            continue
        out.append(tuple(labels[a] for a in subset))
    return out


@pytest.mark.parametrize(
    "spec", ["A3", "B3", "C3", "G2", "A2xA1", "A4", "B4", "C4", "D4", "F4", "A5", "D5"]
)
def test_clusters_match_brute_force(spec):
    """Every orientation up to rank 4; the bipartite and linear elements of rank 5."""
    m = cartan_from_text(spec)
    if m.n < 5:
        elems = all_coxeter_elements(m)
    else:
        elems = (bipartite_element(m), coxeter_element(m, range(m.n)))
    for c in elems:
        assert list(clusters(m, c)) == reference_clusters(m, c), c.order


def test_cyclical_move_rotation(a3):
    c = coxeter_element(a3, (0, 1, 2))
    # Rotating the first letter to the end, up to commuting letters.
    assert cyclical_move(a3, c, 0) == coxeter_element(a3, (1, 2, 0))
    for not_a_source in (2, 3, -1):
        with pytest.raises(InvalidMove):
            cyclical_move(a3, c, source=not_a_source)


def test_move_graph_sizes(a2, a3):
    g2 = move_graph(a2)
    assert len(g2.elements) == 2 and g2.is_connected()
    g3 = move_graph(a3)
    assert len(g3.elements) == 4 and g3.is_connected()
    cut = MoveGraph(g3.elements, tuple(e for e in g3.edges if 1 not in e[:2]))
    assert cut.is_connected() is False


@pytest.mark.parametrize("spec", ["A4", "B3", "D4", "G2"])
def test_move_update_rule(spec):
    m = cartan_from_text(spec)
    for res in checks.move_update_rule(m):
        assert res.passed, res


def test_psi_move_on_fundamentals(a3):
    c = coxeter_element(a3, (0, 1, 2))
    ct = cyclical_move(a3, c, 0)
    for i in (1, 2):
        assert psi_move(a3, c, ct, PiLabel(i, 0), 0) == PiLabel(i, 0)
    assert psi_move(a3, c, ct, PiLabel(0, 0), 0) == PiLabel(0, 1)
    with pytest.raises(InvalidMove):
        psi_move(a3, c, coxeter_element(a3, (2, 1, 0)), PiLabel(0, 0), 0)


def move_transport(m, c, source):
    """Whether the move bijection is a bijection, intertwines the rotations
    and preserves the pairing, by name."""
    ct = cyclical_move(m, c, source)
    labels = [lab for lab, _ in pi_set(m, ct)]
    psi = {lab: psi_move(m, c, ct, lab, source) for lab in labels}
    return {
        "psi-bijection": len(set(psi.values())) == len(labels),
        "psi-equivariance": all(
            psi_move(m, c, ct, tau(m, ct, lab), source) == tau(m, c, psi[lab])
            for lab in labels
        ),
        "compat-transport": all(
            compatibility_degree(m, ct, a, b) == compatibility_degree(m, c, psi[a], psi[b])
            for a in labels
            for b in labels
        ),
    }


@pytest.mark.parametrize("spec", ["A3", "B3", "A2xA1"])
def test_psi_move_equivariance_and_transport(spec):
    m = cartan_from_text(spec)
    for c in all_coxeter_elements(m):
        for s in sources(m, c):
            verdicts = move_transport(m, c, s)
            assert all(verdicts.values()), (c.order, s, verdicts)


def test_psi_bipartite_values(a2):
    t = bipartite_element(a2)  # the linear order is bipartite in rank 2
    for i in range(2):
        assert denominator(a2, t, PiLabel(i, 0)) == Root(tuple(-int(k == i) for k in range(2)))
    assert denominator(a2, t, PiLabel(0, 1)) == simple_root(2, 0)


def test_root_compat_negative_simple(a2):
    assert root_compat(a2, Root((-1, 0)), simple_root(2, 0)) == 1
    assert root_compat(a2, Root((-1, 0)), Root((0, -1))) == 0


def _rotation_compat(m, c, gamma, delta, use_inverse):
    """The per-pair reduction: rotate both labels with tau (tau^-1) until the
    first is a fundamental weight (i, 0), then read alpha_i in the second's
    denominator.  The tau^-1 here is the test-side inverse of tau, so with
    ``use_inverse`` this is an independent reference for the backward table."""
    step = tau_inverse if use_inverse else tau
    for _ in range(len(pi_set(m, c)) + 1):
        if gamma.m == 0:
            break
        gamma, delta = step(m, c, gamma), step(m, c, delta)
    else:
        raise AssertionError("rotation orbit missed every fundamental weight")
    return 0 if delta.m == 0 else denominator(m, c, delta).d[gamma.i]


_TABLE_CASES = [
    (spec, c.order)
    for spec in [f"{letter}{rank}" for letter, rank in indecomposable_types(4)] + ["A2xA1"]
    for c in all_coxeter_elements(cartan_from_text(spec))
] + [("E6", bipartite_element(cartan_from_text("E6")).order)]  # bipartite F4 is listed above
_TABLE_IDS = [f"{s}-{''.join(str(i + 1) for i in w)}" for s, w in _TABLE_CASES]


@pytest.mark.parametrize("spec,word", _TABLE_CASES, ids=_TABLE_IDS)
def test_compat_table_matches_rotation(spec, word):
    m = cartan_from_text(spec)
    c = coxeter_element(m, word)
    for use_inverse in (False, True):
        labels, rows = compatibility_table(m, c, use_inverse)
        for a, row in zip(labels, rows):
            for b, value in zip(labels, row):
                assert value == _rotation_compat(m, c, a, b, use_inverse), (a, b)


def _half_reflection_walk(m, alpha, beta, eps):
    """The per-pair walk: apply the two sign involutions in turn to both
    roots until the first is a negative simple root -alpha_i."""

    def negative_simple(r):
        support = [k for k, x in enumerate(r.d) if x != 0]
        return support[0] if len(support) == 1 and r.d[support[0]] == -1 else None

    def involution(sign, r):
        neg = negative_simple(r)
        if neg is not None and eps[neg] == -sign:
            return r
        for i in range(m.n):
            if eps[i] == sign:
                r = reflect_root(m, i, r)
        return r

    sign = 1
    for _ in range(2 * (max(coxeter_number(m)) + 2)):
        neg = negative_simple(alpha)
        if neg is not None:
            return max(beta.d[neg], 0)
        alpha, beta = involution(sign, alpha), involution(sign, beta)
        sign = -sign
    raise AssertionError("involution orbit missed every negative simple root")


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "D4", "G2", "F4", "B4", "B2xG2", "E6"])
def test_root_compat_matches_half_reflection_walk(spec):
    m = cartan_from_text(spec)
    eps = bipartition(m)
    almost_positive = [r for r in all_roots(m) if r.is_positive()]
    almost_positive += [-simple_root(m.n, i) for i in range(m.n)]
    for a in almost_positive:
        for b in almost_positive:
            assert root_compat(m, a, b) == _half_reflection_walk(m, a, b, eps), (a, b)


@pytest.mark.parametrize("backward", [False, True])
def test_corrupted_rotation_step_raises(backward, a3, monkeypatch):
    def identity(self, backward):
        return tuple(range(len(self.labels)))

    monkeypatch.setattr(coxeter._CoxeterData, "_step", identity)
    data = coxeter._CoxeterData(a3, bipartite_element(a3))
    with pytest.raises(InternalCheckError, match="missed every fundamental weight"):
        data.backward_compat if backward else data.forward_compat


@pytest.fixture
def fresh_root_tables():
    coxeter._half_reflection_tables.cache_clear()
    yield
    coxeter._half_reflection_tables.cache_clear()


@pytest.mark.parametrize(
    "corrupt, message",
    [(lambda r: r, "missed every negative simple root"),
     (lambda r: -r, "leaves the almost positive roots")],
)
def test_corrupted_half_reflection_raises(corrupt, message, a3, monkeypatch, fresh_root_tables):
    monkeypatch.setattr(coxeter, "_half_reflection", lambda m, eps, sign, r: corrupt(r))
    with pytest.raises(InternalCheckError, match=message):
        root_compat(a3, simple_root(3, 0), simple_root(3, 1))


@pytest.mark.parametrize("spec", ["A2", "A3", "B3", "G2"])
def test_bipartite_oracle(spec):
    m = cartan_from_text(spec)
    (res,) = checks.bipartite_compat_oracle(m)
    assert res.passed, res


@pytest.mark.parametrize("spec", ["B3", "G2"])
def test_duality_swaps_arguments(spec):
    m = cartan_from_text(spec)
    for c in all_coxeter_elements(m):
        (res,) = checks.compat_duality(m, c)
        assert res.passed, res


@pytest.mark.parametrize("spec", ["A2", "A3", "B2", "B3", "G2"])
def test_compat_linear_identity(spec):
    m = cartan_from_text(spec)
    for c in all_coxeter_elements(m):
        (res,) = checks.compat_linear_identity(m, c)
        assert res.passed, res


@pytest.mark.parametrize("spec", ["A2", "A3", "B2", "C3", "G2", "D4"])
def test_orbit_representatives(spec):
    m = cartan_from_text(spec)
    for c in all_coxeter_elements(m):
        (res,) = checks.orbit_representatives(m, c)
        assert res.passed, res


def test_primitive_relations_a2(a2c):
    m, c = a2c
    rels = {tuple(sorted(r.left)): r for r in primitive_relations(m, c)}
    assert len(rels) == 5
    # Through the first fundamental weight: coefficient y_1, constant 1, one
    # copy of the variable at minus the second fundamental weight.
    r = rels[tuple(sorted((PiLabel(1, 1), PiLabel(0, 0))))]
    assert r.monomial_coef == (1, 0)
    assert r.constant_coef == (0, 0)
    assert r.monomial_vars == ((PiLabel(0, 2), 1),)
    # First rotation pair: constant exponent vector is the denominator alpha_1.
    r = rels[(PiLabel(0, 0), PiLabel(0, 1))]
    assert r.monomial_coef == (0, 0)
    assert r.constant_coef == (1, 0)
    assert r.monomial_vars == ((PiLabel(1, 0), 1),)


def test_primitive_relation_constants_are_denominators(a3):
    c = coxeter_element(a3, (0, 2, 1))
    for r in primitive_relations(a3, c):
        first, second = r.left
        if r.monomial_coef == (0, 0, 0):
            gamma = max(first, second, key=lambda lab: lab.m)
            prev = tau_inverse(a3, c, gamma)
            diff = weight_as_root(
                a3, weight_difference(label_weight(a3, c, prev), label_weight(a3, c, gamma))
            )
            assert r.constant_coef == diff.d


def test_standard_linear_relation_shape():
    # In the linear order the relation through each fundamental weight pairs
    # the complementary interval variables with a single generator.
    n = 4
    m = cartan_from_label("A", n)
    c = coxeter_element(m, range(n))
    rels = {tuple(sorted(r.left)): r for r in primitive_relations(m, c)}
    for k in range(n):
        pair = tuple(sorted((PiLabel(k, 0), tau_inverse(m, c, PiLabel(k, 0)))))
        r = rels[pair]
        assert r.monomial_coef == tuple(int(t == k) for t in range(n))
        assert r.constant_coef == (0,) * n


def reference_chains(m, c):
    """h, star and the weight and denominator of every label, by the former
    step: apply c one reflection at a time, then convert the difference of
    consecutive weights to root coordinates through the adjugate."""
    n = m.n
    h, star, weight_of, denominators = [0] * n, [0] * n, {}, {}
    for i in range(n):
        w = fundamental_weight(n, i)
        weight_of[PiLabel(i, 0)] = w
        denominators[PiLabel(i, 0)] = -simple_root(n, i)
        for step in range(1, max(coxeter_number(m)) + 2):
            nxt = w
            for letter in reversed(c.order):
                nxt = reflect_weight(m, letter, nxt)
            diff = weight_as_root(m, weight_difference(w, nxt))
            assert diff is not None and diff.is_positive()
            w = nxt
            weight_of[PiLabel(i, step)] = w
            denominators[PiLabel(i, step)] = diff
            neg = [k for k in range(n) if w.g[k] != 0]
            if len(neg) == 1 and w.g[neg[0]] == -1:
                h[i], star[i] = step, neg[0]
                break
        else:
            raise AssertionError(f"rotation chain of weight {i} exceeded order bound")
    return tuple(h), tuple(star), list(weight_of.items()), list(denominators.items())


@pytest.mark.parametrize("spec", REFERENCE_TYPES)
def test_rotation_chains_match_reference(spec):
    """Every orientation, but only the bipartite element of E6 and E8."""
    m = cartan_from_text(spec)
    elems = (bipartite_element(m),) if spec in ("E6", "E8") else all_coxeter_elements(m)
    for c in elems:
        data = coxeter._data(m, c)
        got = (data.h, data.star, list(data.weight_of.items()), list(data.denominator.items()))
        assert got == reference_chains(m, c), c.order


@pytest.fixture
def fresh_chains():
    coxeter._data.cache_clear()
    yield
    coxeter._data.cache_clear()


def _negative_entry(real):
    def reflect(m, word, g):
        diff = real(m, word, g)
        diff[0] = -1
        return diff

    return reflect


def _stalled(real):
    def reflect(m, word, g):
        return [1] * m.n  # a positive difference, but the weight never moves

    return reflect


@pytest.mark.parametrize(
    "corrupt, message",
    [(_negative_entry, "not strictly decreasing"), (_stalled, "exceeded order bound")],
)
def test_h_vector_keeps_chain_checks(corrupt, message, monkeypatch, fresh_chains):
    """``h_vector`` walks the chains itself, so a corrupted reflection step
    must raise there and fail the chain-positivity suite."""
    m = cartan_from_text("B3")
    c = bipartite_element(m)
    monkeypatch.setattr(coxeter, "_reflect_word", corrupt(coxeter._reflect_word))
    with pytest.raises(InternalCheckError, match=message):
        h_vector(m, c)
    results = checks.chain_and_h_checks(m, c)
    assert [(r.suite, r.passed) for r in results] == [("coxeter/chain-positivity", False)]
    assert message in results[0].detail


def _shared_weight(chains):
    h, star, weights, diffs = chains
    return h, star, weights[:-1] + weights[:1], diffs  # the last label repeats the first weight


def _dropped_label(chains):
    h, star, weights, diffs = chains
    return h[:-1] + (h[-1] - 1,), star, weights[:-1], diffs[:-1]  # the last chain loses its end


@pytest.mark.parametrize("corrupt", [_shared_weight, _dropped_label])
def test_pi_size_counts_distinct_weights(corrupt, monkeypatch, fresh_chains):
    """``coxeter/pi-size`` counts distinct weights against n(h + 2)/2 per
    component, so chain data whose labels still follow h must fail it when
    two labels share a weight or one label is missing."""
    m = cartan_from_text("B3")
    c = bipartite_element(m)

    def pi_size():
        (res,) = [r for r in checks.chain_and_h_checks(m, c) if r.suite == "coxeter/pi-size"]
        return res

    assert pi_size().passed, pi_size().detail
    real = coxeter._CoxeterData._iterate_chains
    monkeypatch.setattr(coxeter._CoxeterData, "_iterate_chains", lambda self: corrupt(real(self)))
    coxeter._data.cache_clear()
    assert not pi_size().passed


def test_h_vector_builds_no_label_objects(fresh_chains):
    """The move-update suite reads only h and star: no orientation of E7 may
    build its labels, weights or denominators."""
    m = cartan_from_text("E7")
    assert all(r.passed for r in checks.move_update_rule(m))
    for c in all_coxeter_elements(m):
        built = vars(coxeter._data(m, c))
        assert not {"labels", "weight_of", "denominator"} & built.keys(), c.order
