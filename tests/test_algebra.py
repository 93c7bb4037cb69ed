import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxclusters import (
    CapExceeded,
    InternalCheckError,
    PiLabel,
    Root,
    Seed,
    Weight,
    all_coxeter_elements,
    bipartite_element,
    cartan_from_label,
    cartan_from_text,
    checks,
    coxeter_element,
    denominator,
    explore,
    extract_record,
    label_variables,
    mutate,
    pi_set,
    principal_seed,
    records_for,
    tau,
    universal_seed,
)
from coxclusters.algebra import (
    DEFAULT_CAP,
    SeedView,
    _mutate,
    _principal_columns,
    _sign_parts,
    edge_relation,
    extended_columns,
    relabel_seed,
    separation_form,
)
from coxclusters.poly import LaurentPoly
from conftest import (
    evaluate,
    exchange_graph_instances,
    indecomposable_types,
    instance_element,
    instance_seed,
    permuted_seed,
    step_instances,
    weyl_degrees,
)
import typea_suites


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


def column_rule(B, coeffs, k):
    """(B, coeffs) mutated in direction k by the column rule on B~."""
    columns = extended_columns(B, coeffs)
    view = SeedView(tuple(range(len(B))), _mutate(columns, k, _sign_parts(columns[k])))
    return view.B, view.coeffs


def column_rule_b(B, k):
    """The column rule on B alone: B~ with no generator rows."""
    return column_rule(B, [()] * len(B), k)[0]


def test_b_mutation_sign_flip():
    B = ((0, 1), (-1, 0))
    assert column_rule_b(B, 0) == ((0, -1), (1, 0))
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
        Bp = column_rule_b(B, k)
        assert all(Bp[i][k] == -B[i][k] and Bp[k][i] == -B[k][i] for i in range(n))
        assert column_rule_b(Bp, k) == B
        assert Bp == entrywise_mutate_b(B, k)


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
    assert explore(permuted_seed(seed, perm)) == explore(seed)


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
        assert rec.fpoly == rec.fpoly.ring.one()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_standard_linear_f_polynomials(n):
    m = cartan_from_label("A", n)
    c = coxeter_element(m, range(n))
    g = explore(principal_seed(m, c))
    for rec in records_for(m, c, g):
        assert rec.fpoly.key() == typea_suites.f_poly_closed_form(n, rec.label).key()


def test_universal_seed_first_coefficient(a2):
    c = coxeter_element(a2, (0, 1))
    u = universal_seed(a2, c)
    assert u.ring.names[2:] == ("p1_0", "p1_1", "p1_2", "p2_0", "p2_1")
    # One positive power of the generator at the fundamental weight, inverse
    # at its rotation, pairing exponents elsewhere (no earlier neighbors).
    assert u.coeffs[0] == (1, -1, 1, 0, 0)


@pytest.mark.parametrize("spec", ["A2", "A3", "B2", "G2"])
def test_universal_relations_and_specialization(spec):
    m = cartan_from_text(spec)
    c = coxeter_element(m, range(m.n))
    run = checks.principal_run(m, c, DEFAULT_CAP)
    for res in checks.universal_checks(m, c, run, DEFAULT_CAP):
        assert res.passed, res


@pytest.mark.parametrize("spec", ["A2", "B3", "G2"])
def test_corrupted_fundamental_exponent_fails_specialization(spec, monkeypatch):
    """One extra factor of a fundamental generator in one coefficient row of
    the universal seed must break the specialization onto the principal seeds."""
    m = cartan_from_text(spec)
    c = coxeter_element(m, range(m.n))
    slot = [lab for lab, _ in pi_set(m, c)].index(PiLabel(m.n - 1, 0))

    def corrupted(m, c):
        s = universal_seed(m, c)
        column = list(s.columns[0])
        column[s.n + slot] += 1
        return replace(s, columns=(tuple(column),) + s.columns[1:])

    monkeypatch.setattr(checks, "universal_seed", corrupted)
    run = checks.principal_run(m, c, DEFAULT_CAP)
    verdicts = {r.suite: r.passed for r in checks.universal_checks(m, c, run, DEFAULT_CAP)}
    assert not verdicts["universal/specializes-onto-principal-seeds"]


def test_move_isomorphism_reports(a2):
    c = coxeter_element(a2, (0, 1))
    results = checks.move_isomorphism_checks(a2, c)
    assert [(r.suite, r.instance, r.passed) for r in results] == [
        ("moves/principal-isomorphism", "1,2@1", True)
    ]
    s1 = mutate(principal_seed(a2, c), 0)
    assert s1.coeffs == ((-1, 0), (1, 1))


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "D4", "G2"])
def test_move_isomorphism_all_sources(spec):
    m = cartan_from_text(spec)
    from coxclusters import all_coxeter_elements

    for c in all_coxeter_elements(m):
        for res in checks.move_isomorphism_checks(m, c):
            assert res.passed, res


@pytest.mark.parametrize(
    "spec",
    ["A3", "B3", "C3", "G2", "B4", "C4", "D4", "F4", "A2xA1", "A5", "B5", "C5", "D5", "E6",
     pytest.param("E7", marks=pytest.mark.slow)],
)
def test_coxeter_mutation_path_is_tau(spec):
    """Mutating the slots of the principal seed in the order of c, round
    after round, turns each slot's label into tau of it, until every label
    is reached: per step, the record's label and denominator and the
    separation form of its expansion.  Every orientation, but only the
    bipartite element of E6 and E7."""
    m = cartan_from_text(spec)
    for c in [bipartite_element(m)] if spec.startswith("E") else all_coxeter_elements(m):
        seed, size = principal_seed(m, c), len(pi_set(m, c))
        labels = [PiLabel(i, 0) for i in range(m.n)]
        reached = set(labels)
        for step in range(2 * size):
            if len(reached) == size:
                break
            k = c.order[step % m.n]
            seed = mutate(seed, k)
            labels[k] = tau(m, c, labels[k])
            reached.add(labels[k])
            rec = extract_record(m, c, seed.cluster[k])
            assert rec.label == labels[k], (c.order, step)
            assert rec.denom == denominator(m, c, labels[k]), (c.order, step)
            assert separation_form(m, c, rec, seed.ring) == rec.expansion, (c.order, step)
        assert len(reached) == size, c.order


@pytest.mark.parametrize("spec,word", [("A2xA1", (0, 1, 2)), ("B2", (1, 0))])
def test_engine_full_suite_small(spec, word):
    m = cartan_from_text(spec)
    c = coxeter_element(m, word)
    for res in checks.engine_against_formulas(m, c, checks.principal_run(m, c, DEFAULT_CAP)):
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
    assert column_rule(((0, 3), (-3, 0)), y, 0)[1] == ((-2, 1), (6, 1))
    # y_1 times (y_0 (+) 1)^3 = (0, 1) + (0, -3).
    assert column_rule(((0, -3), (3, 0)), y, 0)[1] == ((-2, 1), (0, -2))
    assert column_rule(((0, 0), (0, 0)), y, 1)[1] == ((2, -1), (0, -1))


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
                    assert column_rule(s.B, s.coeffs, k) == (
                        entrywise_mutate_b(s.B, k),
                        entrywise_mutate_coeffs(s.coeffs, s.B, k),
                    )


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "G2", "A2xA1", "E6"])
def test_public_mutate_rederives_every_edge(spec):
    """``mutate`` leads from every seed of every step instance of ``spec``,
    principal and universal, along an edge of the graph: the walk itself
    never mutates on a reverse crossing."""
    for name in step_instances():
        if name.split()[1] != spec:
            continue
        g = explore(instance_seed(name))
        var_index = {p.key(): v for v, p in enumerate(g.variables)}
        seed_index = {s: i for i, s in enumerate(g.seeds)}
        edges = set(g.edges)
        for i, view in enumerate(g.seeds):
            s = Seed(
                ring=g.ring,
                cluster=tuple(g.variables[v] for v in view.var_ids),
                columns=view.columns,
            )
            for k in range(g.n):
                s1 = mutate(s, k)
                ids = [var_index[p.key()] for p in s1.cluster]
                j = seed_index[SeedView(*relabel_seed(ids, s1.columns))]
                assert (min(i, j), max(i, j)) in edges, name


@pytest.mark.parametrize("name", step_instances())
def test_primitive_relations_are_the_primitive_filter(name):
    g = explore(instance_seed(name))
    assert g.primitive_relations() == tuple(
        r for r in g.relations if any(not v for _, v in r.sides)
    )


@pytest.mark.parametrize("name", [x for x in step_instances() if x.startswith("principal")])
def test_separation_term_map_matches_evaluation(name):
    """The term map of the separation check equals x^g times F evaluated at
    the hatted coefficients by products and powers."""
    m, c = instance_element(name)
    g = explore(instance_seed(name))
    hat = [g.ring.monomial(col) for col in _principal_columns(m, c)]
    for rec in records_for(m, c, g):
        gmono = g.ring.monomial(tuple(rec.g.g) + (0,) * m.n)
        assert separation_form(m, c, rec, g.ring) == gmono * evaluate(rec.fpoly, hat, g.ring)


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
    Bk, ck = column_rule(B, coeffs, k)
    assert column_rule(Bk, ck, k) == (B, coeffs)
    n = len(B)
    assert all(diag[i] * Bk[i][j] == -diag[j] * Bk[j][i] for i in range(n) for j in range(n))
    assert Bk == entrywise_mutate_b(B, k)
    assert ck == entrywise_mutate_coeffs(coeffs, B, k)


# -- exchange relations as identities ---------------------------------------------------


def relation_holds(graph, pair, sides):
    """x_a x_b equals the sum over the sides of the coefficient monomial times
    the side's variable powers, as Laurent polynomials in ``graph.ring``."""
    a, b = pair
    rhs = graph.ring.zero()
    for coef, vars_ in sides:
        term = graph.ring.monomial((0,) * graph.n + coef)
        for v, mult in vars_:
            term = term * graph.variables[v] ** mult
        rhs = rhs + term
    return graph.variables[a] * graph.variables[b] == rhs


@pytest.mark.parametrize(
    "name", [x for x in exchange_graph_instances() if cartan_from_text(x.split()[1]).n <= 4]
)
def test_relations_hold_as_identities(name):
    graph = explore(instance_seed(name))
    exchanged = {
        tuple(sorted(set(graph.seeds[a].var_ids) ^ set(graph.seeds[b].var_ids)))
        for a, b in graph.edges
    }
    assert {r.pair for r in graph.relations} == exchanged
    for r in graph.relations:
        assert relation_holds(graph, r.pair, r.sides), r
        (coef, vars_), other = r.sides
        bumped = (tuple(e + (t == 0) for t, e in enumerate(coef)), vars_)
        assert not relation_holds(graph, r.pair, (bumped, other)), r


def test_edge_relation_needs_one_exchanged_variable(a2):
    graph = explore(principal_seed(a2, coxeter_element(a2, (0, 1))))
    a, b = graph.edges[0]
    assert edge_relation(graph.seeds[a], graph.seeds[b]) in graph.relations
    far = next(s for s in graph.seeds if not set(s.var_ids) & set(graph.seeds[a].var_ids))
    for other in (graph.seeds[a], far):
        with pytest.raises(InternalCheckError):
            edge_relation(graph.seeds[a], other)


def scan_shares_cluster(cluster_sets, label, i):
    """Reference for checks.shares_cluster_with_initial: a scan of every
    cluster for one (label, i)."""
    return any(label in cs and PiLabel(i, 0) in cs for cs in cluster_sets)


@pytest.mark.parametrize("spec", [f"{l}{r}" for l, r in indecomposable_types(4)] + ["A2xA1", "E6"])
def test_shared_cluster_pairs_match_scan(spec):
    m = cartan_from_text(spec)
    for c in [bipartite_element(m)] if spec == "E6" else all_coxeter_elements(m):
        graph = explore(principal_seed(m, c))
        labels = label_variables(m, c, graph)
        cluster_sets = [frozenset(labels[v] for v in s.var_ids) for s in graph.seeds]
        shared = checks.shares_cluster_with_initial(cluster_sets)
        old, new = [], []
        for v, lab in enumerate(labels):
            if lab.m == 0:
                continue
            for i in range(m.n):
                zero = graph.variables[v].min_exponent(i) == 0
                old.append((lab, i, zero == scan_shares_cluster(cluster_sets, lab, i)))
                new.append((lab, i, zero == ((lab, i) in shared)))
        assert new == old
