import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxclusters import (
    CapExceeded,
    PiLabel,
    Root,
    Seed,
    SemifieldMap,
    Weight,
    all_coxeter_elements,
    bipartite_element,
    cartan_from_label,
    cartan_from_text,
    checks,
    coxeter_element,
    explore,
    extract_record,
    label_variables,
    mutate,
    principal_seed,
    principal_specialization_map,
    records_for,
    specialize,
    universal_seed,
    verify_move_isomorphism,
)
from coxclusters.algebra import SeedView, _mutate_b, _mutate_coeffs, _sign_parts, relabel_seed
from coxclusters.poly import LaurentPoly
from conftest import exchange_graph_instances, indecomposable_types, instance_seed, weyl_degrees


@pytest.fixture
def a2_seed(a2):
    c = coxeter_element(a2, (0, 1))
    return a2, c, principal_seed(a2, c)


def test_principal_seed_shape(a2_seed):
    m, c, s = a2_seed
    assert s.B == ((0, 1), (-1, 0))
    assert [str(p) for p in s.cluster] == ["x1", "x2"]
    assert s.coeffs == ((1, 0), (0, 1))


def test_mutation_first_direction(a2_seed):
    m, c, s = a2_seed
    s1 = mutate(s, 0)
    x1, x2 = s.cluster
    y1 = s.coeff_monomial(s.coeffs[0])
    assert s1.cluster[0] * x1 == y1 + x2
    assert s1.coeffs == ((-1, 0), (1, 1))
    assert s1.B == ((0, -1), (1, 0))


def test_mutation_involutive(a2_seed):
    m, c, s = a2_seed
    rng = random.Random(2)
    for spec in ("B2", "A3", "G2"):
        mm = cartan_from_text(spec)
        cc = coxeter_element(mm, range(mm.n))
        seed = principal_seed(mm, cc)
        for _ in range(6):
            k = rng.randrange(mm.n)
            seed = mutate(seed, k)
            assert mutate(mutate(seed, k), k) == seed


SMALL_TYPES = [f"{letter}{rank}" for letter, rank in indecomposable_types(4)] + ["A2xA1"]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.data())
def test_mutation_involutive_on_whole_seeds(data):
    """mu_k mu_k = id, polynomials included, at every seed of a random path of
    length at most 6 from the principal and the universal seed of a random
    type of rank at most 4 and a random orientation."""
    m = cartan_from_text(data.draw(st.sampled_from(SMALL_TYPES)))
    c = data.draw(st.sampled_from(all_coxeter_elements(m)))
    path = data.draw(st.lists(st.integers(0, m.n - 1), max_size=6))
    for make in (principal_seed, universal_seed):
        seeds = [make(m, c)]
        for step in path:
            seeds.append(mutate(seeds[-1], step))
        for seed in seeds:
            for k in range(m.n):
                assert mutate(mutate(seed, k), k) == seed


def test_b_mutation_sign_flip():
    B = ((0, 1), (-1, 0))
    assert _mutate_b(B, 0) == ((0, -1), (1, 0))
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randrange(2, 5)
        raw = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = rng.randint(-2, 2)
                raw[i][j] = v
                raw[j][i] = -v
        B = tuple(tuple(row) for row in raw)
        k = rng.randrange(n)
        Bp = _mutate_b(B, k)
        assert all(Bp[i][k] == -B[i][k] and Bp[k][i] == -B[k][i] for i in range(n))
        assert _mutate_b(Bp, k) == B


def test_rank_one_exchange():
    m = cartan_from_label("A", 1)
    c = coxeter_element(m, (0,))
    s = principal_seed(m, c)
    s1 = mutate(s, 0)
    assert s1.cluster[0] * s.cluster[0] == s.coeff_monomial(s.coeffs[0]) + s.ring.one()


def test_a3_standard_b_matrix(a3):
    c = coxeter_element(a3, (0, 1, 2))
    assert principal_seed(a3, c).B == ((0, 1, 0), (-1, 0, 1), (0, -1, 0))


@pytest.mark.parametrize(
    "spec,word,nvars,nseeds",
    [("A1", (0,), 2, 2), ("A2", (0, 1), 5, 5), ("A3", (0, 1, 2), 9, 14)],
)
def test_exploration_counts(spec, word, nvars, nseeds):
    m = cartan_from_text(spec)
    c = coxeter_element(m, word)
    g = explore(principal_seed(m, c))
    assert len(g.variables) == nvars
    assert len(g.seeds) == nseeds


@pytest.mark.parametrize("letter,rank", indecomposable_types(5) + [("E", 6)])
def test_exploration_counts_match_degree_formulas(letter, rank):
    degrees = weyl_degrees(letter, rank)
    h = max(degrees)
    seeds = 1
    for d in degrees:
        seeds *= h + d
    for d in degrees:
        seeds //= d
    m = cartan_from_label(letter, rank)
    g = explore(principal_seed(m, bipartite_element(m)))
    assert len(g.seeds) == seeds
    assert len(g.variables) == rank * (h + 2) // 2
    assert len(g.edges) == rank * seeds // 2


def test_exploration_cap(a2):
    c = coxeter_element(a2, (0, 1))
    with pytest.raises(CapExceeded):
        explore(principal_seed(a2, c), cap=3)


def test_exploration_deterministic(a2):
    c = coxeter_element(a2, (0, 1))
    g1 = explore(principal_seed(a2, c))
    g2 = explore(principal_seed(a2, c))
    assert [p.key() for p in g1.variables] == [p.key() for p in g2.variables]
    assert g1.seeds == g2.seeds
    assert g1.edges == g2.edges
    assert g1.relations == g2.relations


@pytest.mark.parametrize("spec", ["A3", "B3", "G2"])
@pytest.mark.parametrize("make", [principal_seed, universal_seed])
def test_one_division_per_edge(spec, make, monkeypatch):
    m = cartan_from_text(spec)
    seed = make(m, bipartite_element(m))
    calls = []
    exact_div = LaurentPoly.exact_div

    def counting(self, other):
        calls.append(1)
        return exact_div(self, other)

    monkeypatch.setattr(LaurentPoly, "exact_div", counting)
    graph = explore(seed)
    assert len(calls) == len(graph.edges)


@pytest.mark.parametrize("name", exchange_graph_instances())
def test_exploration_ignores_slot_order(name):
    seed = instance_seed(name)
    perm = random.Random(0).sample(range(seed.n), seed.n)
    assert perm != sorted(perm)
    permuted = Seed(
        ring=seed.ring,
        n=seed.n,
        cluster=tuple(seed.cluster[t] for t in perm),
        coeffs=tuple(seed.coeffs[t] for t in perm),
        B=tuple(tuple(seed.B[a][b] for b in perm) for a in perm),
    )
    assert explore(permuted) == explore(seed)


def test_extract_record_example(a2):
    c = coxeter_element(a2, (0, 1))
    s = principal_seed(a2, c)
    z = mutate(s, 0).cluster[0]
    rec = extract_record(a2, c, z)
    assert rec.g == Weight((-1, 1))
    assert rec.label == PiLabel(0, 1)
    assert rec.denom == Root((1, 0))
    assert str(rec.fpoly) == "1+t1"


def test_extract_record_initial_variables(a2):
    c = coxeter_element(a2, (0, 1))
    s = principal_seed(a2, c)
    for i in range(2):
        rec = extract_record(a2, c, s.cluster[i])
        assert rec.label == PiLabel(i, 0)
        assert rec.g == Weight(tuple(int(k == i) for k in range(2)))
        assert rec.denom.d == tuple(-int(k == i) for k in range(2))
        assert rec.fpoly.is_one()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_standard_linear_f_polynomials(n):
    from coxclusters import typea

    m = cartan_from_label("A", n)
    c = coxeter_element(m, range(n))
    g = explore(principal_seed(m, c))
    for rec in records_for(m, c, g):
        assert rec.fpoly.key() == typea.f_poly_closed_form(n, rec.label).key()


def test_universal_seed_first_coefficient(a2):
    c = coxeter_element(a2, (0, 1))
    u = universal_seed(a2, c)
    assert u.gens == ("p1_0", "p1_1", "p1_2", "p2_0", "p2_1")
    # One positive power of the generator at the fundamental weight, inverse
    # at its rotation, pairing exponents elsewhere (no earlier neighbors).
    assert u.coeffs[0] == (1, -1, 1, 0, 0)


@pytest.mark.parametrize("spec", ["A2", "A3", "B2", "G2"])
def test_universal_relations_and_specialization(spec):
    m = cartan_from_text(spec)
    c = coxeter_element(m, range(m.n))
    for res in checks.universal_checks(m, c):
        assert res.passed, res


def test_specialize_identity_and_errors(a2):
    c = coxeter_element(a2, (0, 1))
    s = principal_seed(a2, c)
    same = specialize(s, SemifieldMap.identity(s.gens))
    assert same.coeffs == s.coeffs and same.cluster == s.cluster
    shared = SemifieldMap(source=s.gens, target=("u",), images=((1,), (1,)))
    with pytest.raises(ValueError, match="share the factor"):
        specialize(s, shared)
    negative = SemifieldMap(source=s.gens, target=("u", "v"), images=((1, 0), (0, -1)))
    with pytest.raises(ValueError, match="negative"):
        specialize(s, negative)
    too_few = SemifieldMap(source=s.gens, target=("u",), images=((1,),))
    with pytest.raises(ValueError, match="1 generator images for 2 generators"):
        specialize(s, too_few)


def test_universal_to_principal_specialization(a2):
    c = coxeter_element(a2, (0, 1))
    u = universal_seed(a2, c)
    phi = principal_specialization_map(a2, c)
    sp = specialize(u, phi)
    pr = principal_seed(a2, c)
    assert sp.coeffs == pr.coeffs
    assert sp.B == pr.B
    assert sp.cluster == pr.cluster


def test_move_isomorphism_reports(a2):
    c = coxeter_element(a2, (0, 1))
    rep = verify_move_isomorphism(a2, c, 0)
    assert rep.passed, rep
    s1 = mutate(principal_seed(a2, c), 0)
    assert s1.coeffs == ((-1, 0), (1, 1))


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "D4", "G2"])
def test_move_isomorphism_all_sources(spec):
    m = cartan_from_text(spec)
    from coxclusters import all_coxeter_elements

    for c in all_coxeter_elements(m):
        for res in checks.move_isomorphism_checks(m, c):
            assert res.passed, res


@pytest.mark.parametrize("spec,word", [("A2xA1", (0, 1, 2)), ("B2", (1, 0))])
def test_engine_full_suite_small(spec, word):
    m = cartan_from_text(spec)
    c = coxeter_element(m, word)
    for res in checks.engine_against_formulas(m, c):
        assert res.passed, res


def test_label_variables_matches_records(a3):
    c = coxeter_element(a3, (2, 0, 1))
    g = explore(principal_seed(a3, c))
    recs = records_for(a3, c, g)
    assert tuple(r.label for r in recs) == label_variables(a3, c, g)


def test_c_vector_ops():
    assert _sign_parts((2, -1, 0)) == ((2, 0, 0), (0, 1, 0))
    y = ((2, -1), (0, 1))
    # y_1 times y_0^3 times (y_0 (+) 1)^-3 = (0, 1) + (6, -3) + (0, 3).
    assert _mutate_coeffs(y, ((0, 3), (-3, 0)), 0) == ((-2, 1), (6, 1))
    # y_1 times (y_0 (+) 1)^3 = (0, 1) + (0, -3).
    assert _mutate_coeffs(y, ((0, -3), (3, 0)), 0) == ((-2, 1), (0, -2))
    assert _mutate_coeffs(y, ((0, 0), (0, 0)), 1) == ((2, -1), (0, -1))


# -- the mutation rules against the entrywise formulas ---------------------------------


def entrywise_mutate_b(B, k):
    n = len(B)
    return tuple(
        tuple(
            -B[i][j]
            if i == k or j == k
            else B[i][j]
            + max(B[i][k], 0) * max(B[k][j], 0)
            - max(-B[i][k], 0) * max(-B[k][j], 0)
            for j in range(n)
        )
        for i in range(n)
    )


def entrywise_mutate_coeffs(coeffs, B, k):
    """y_k inverts; y_j becomes y_j y_k^[b_kj]+ (y_k (+) 1)^-b_kj, where
    (y_k (+) 1) has exponents min(y_k, 0)."""
    yk = coeffs[k]
    out = []
    for j, yj in enumerate(coeffs):
        if j == k:
            out.append(tuple(-a for a in yk))
        else:
            b = B[k][j]
            out.append(
                tuple(a + max(b, 0) * e - b * min(e, 0) for a, e in zip(yj, yk))
            )
    return tuple(out)


@pytest.mark.parametrize("spec", SMALL_TYPES)
def test_mutation_rules_match_entrywise_formulas(spec):
    m = cartan_from_text(spec)
    for c in all_coxeter_elements(m):
        for make in (principal_seed, universal_seed):
            for s in explore(make(m, c)).seeds:
                for k in range(m.n):
                    assert _mutate_b(s.B, k) == entrywise_mutate_b(s.B, k)
                    assert _mutate_coeffs(s.coeffs, s.B, k) == entrywise_mutate_coeffs(
                        s.coeffs, s.B, k
                    )


@pytest.mark.parametrize("spec", ["A3", "B3", "G2"])
def test_public_mutate_rederives_every_edge(spec):
    m = cartan_from_text(spec)
    g = explore(principal_seed(m, bipartite_element(m)))
    var_index = {p.key(): v for v, p in enumerate(g.variables)}
    seed_index = {s: i for i, s in enumerate(g.seeds)}
    edges = set(g.edges)
    for i, view in enumerate(g.seeds):
        s = Seed(
            ring=g.ring,
            n=g.n,
            cluster=tuple(g.variables[v] for v in view.var_ids),
            coeffs=view.coeffs,
            B=view.B,
        )
        for k in range(g.n):
            s1 = mutate(s, k)
            ids = [var_index[p.key()] for p in s1.cluster]
            j = seed_index[SeedView(*relabel_seed(ids, s1.coeffs, s1.B))]
            assert (min(i, j), max(i, j)) in edges


@st.composite
def exchange_data(draw):
    """B = S D with S skew-symmetric and D a positive diagonal, so that D B is
    skew-symmetric; one coefficient tuple per row; a direction k."""
    n = draw(st.integers(1, 5))
    S = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            S[i][j] = draw(st.integers(-3, 3))
            S[j][i] = -S[i][j]
    diag = tuple(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    B = tuple(tuple(S[i][j] * diag[j] for j in range(n)) for i in range(n))
    width = draw(st.integers(1, 5))
    coeffs = tuple(
        draw(st.lists(st.tuples(*[st.integers(-3, 3)] * width), min_size=n, max_size=n))
    )
    return B, diag, coeffs, draw(st.integers(0, n - 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(exchange_data())
def test_mutation_involutive_and_skew_symmetrizable(data):
    B, diag, coeffs, k = data
    Bk = _mutate_b(B, k)
    ck = _mutate_coeffs(coeffs, B, k)
    assert (_mutate_b(Bk, k), _mutate_coeffs(ck, Bk, k)) == (B, coeffs)
    n = len(B)
    assert all(diag[i] * Bk[i][j] == -diag[j] * Bk[j][i] for i in range(n) for j in range(n))
    assert Bk == entrywise_mutate_b(B, k)
    assert ck == entrywise_mutate_coeffs(coeffs, B, k)
