"""c-sortable elements against the clusters and the c-vectors: Weyl-group oracles.

An element w of W is c-sortable when it has a reduced word
c_{K1} c_{K2} ... with nested supports K1 ⊇ K2 ⊇ ..., where c_K is the
subword of c (in the order of ``c.order``) on the letters of K (Reading,
*Clusters, Coxeter-sortable elements and noncrossing partitions*, Trans.
AMS 2007).  The c-sortable elements are as many as the clusters, and
their right descents count the edges of the exchange graph, n per
cluster, each edge twice.

W acts here on weights in fundamental-weight coordinates, read off the
Cartan matrix alone: s_j(u)_k = u_k - u_j a_kj.  Nothing is taken from
``weyl``, ``algebra`` or the rotation chains of ``coxeter``.  An element w
is named by u = w⁻¹ρ, with ρ = (1, ..., 1): ws is longer than w exactly
when coordinate s of u is positive, and then (ws)⁻¹ρ = s(u), so the right
descents of w are the negative coordinates of u.

The Cambrian root set C_c(w) of a c-sortable w (Reading–Speyer, *Cambrian
fans*, JEMS 2009) is read by the recursion on the first letter s of c: if s
is a left descent of w, C_c(w) = s·C_{scs}(sw); otherwise w lies in the
parabolic subgroup without s, and C_c(w) = C_{sc}(w) ∪ {α_s} there.  The
sets C_c(w) are the c-vector sets of the seeds of the principal exchange
graph of c, with the Cartan matrix as given and sign +1.  Roots are in
simple-root coordinates, reflected by s(β) = β − ⟨α_s^∨, β⟩ α_s with
⟨α_s^∨, α_j⟩ = a_sj, again read off the Cartan matrix alone.
"""

from functools import lru_cache

import pytest

from coxclusters import (
    all_coxeter_elements,
    bipartite_element,
    cartan_from_text,
    clusters,
    coxeter_element,
    explore,
    principal_seed,
)

ORIENTED = ("A3", "B3", "C3", "G2", "B4", "C4", "D4", "F4", "A5", "D5")
CAMBRIAN_ORIENTED = ("A3", "B3", "C3", "G2", "B4", "C4", "D4", "F4", "A5")


def reflect(a, j, u):
    """s_j(u) for u in fundamental-weight coordinates."""
    return tuple(x - u[j] * a[k][j] for k, x in enumerate(u))


def sortable_elements(a, order, nested):
    """w⁻¹ρ for every w with a reduced word c_{K1} c_{K2} ..., each K_{i+1}
    inside K_i when ``nested``, any K_{i+1} otherwise.

    Words grow one letter at a time: a state is (u, letters of the current
    block, letters the block may use, position in ``order``).  A letter is
    taken only when the word stays reduced."""
    n = len(a)
    everything = frozenset(range(n))
    start = ((1,) * n, frozenset(), everything, 0)
    seen = {start}
    queue = [start]
    for u, block, allowed, p in queue:  # grows while it is walked
        if p < n:
            s = order[p]
            steps = [(u, block, allowed, p + 1)]
            if s in allowed and u[s] > 0:
                steps.append((reflect(a, s, u), block | {s}, allowed, p + 1))
        else:  # the block is complete: the next one lies inside it
            steps = [(u, frozenset(), block if nested else everything, 0)] if block else []
        for state in steps:
            if state not in seen:
                seen.add(state)
                queue.append(state)
    return {u for u, _, _, _ in seen}


def sortable_oracle(a, order, cluster_list):
    """Whether the c-sortable elements are as many as the clusters and their
    right descents sum to n·#clusters/2."""
    elements = sortable_elements(a, order, nested=True)
    descents = sum(x < 0 for u in elements for x in u)
    return len(elements) == len(cluster_list) and 2 * descents == len(a) * len(cluster_list)


@pytest.mark.parametrize("spec", ORIENTED)
def test_sortable_elements_every_orientation(spec):
    m = cartan_from_text(spec)
    for c in all_coxeter_elements(m):
        assert sortable_oracle(m.a, c.order, clusters(m, c)), c.order


@pytest.mark.parametrize(
    "spec", ["E6", pytest.param("E7", marks=pytest.mark.slow), pytest.param("E8", marks=pytest.mark.slow)]
)
def test_sortable_elements_bipartite_exceptional(spec):
    m = cartan_from_text(spec)
    c = bipartite_element(m)
    assert sortable_oracle(m.a, c.order, clusters(m, c))


@pytest.mark.parametrize("spec", ("A3", "B3", "G2", "D4", "F4"))
def test_oracle_rejects_a_dropped_cluster(spec):
    m = cartan_from_text(spec)
    c = bipartite_element(m)
    assert not sortable_oracle(m.a, c.order, clusters(m, c)[1:])


@pytest.mark.parametrize("spec, order", [("A3", 24), ("B3", 48), ("G2", 12), ("D4", 192)])
def test_unnested_blocks_give_all_of_w(spec, order):
    """Without the nesting every reduced subword of c^∞ counts, and that is
    all of W, more elements than clusters."""
    m = cartan_from_text(spec)
    c = bipartite_element(m)
    elements = sortable_elements(m.a, c.order, nested=False)
    assert len(elements) == order
    assert len(elements) != len(clusters(m, c))


# -- Cambrian root sets ------------------------------------------------------------------


def reflect_root(a, s, beta):
    """s(β) for a root β in simple-root coordinates: only coordinate s moves."""
    return beta[:s] + (beta[s] - sum(x * b for x, b in zip(a[s], beta)),) + beta[s + 1:]


def inverse_images(a, u):
    """w⁻¹(α_0), ..., w⁻¹(α_{n-1}) for the w with w⁻¹ρ = u.

    Each negative coordinate j of u is a right descent of w, and
    (ws_j)⁻¹ρ = s_j(u), so peeling them off, last letter first, gives a
    reduced word w = s_{j_1} ⋯ s_{j_k}; w⁻¹ = s_{j_k} ⋯ s_{j_1} then acts on
    each simple root, s_{j_1} first."""
    n = len(a)
    peeled = []
    while any(x < 0 for x in u):
        j = next(j for j, x in enumerate(u) if x < 0)
        peeled.append(j)
        u = reflect(a, j, u)
    images = []
    for i in range(n):
        beta = tuple(int(k == i) for k in range(n))
        for j in reversed(peeled):
            beta = reflect_root(a, j, beta)
        images.append(beta)
    return tuple(images)


def cambrian_roots(a, order, images):
    """C_c(w) for c = ``order`` and the c-sortable w with w⁻¹(α_j) =
    ``images[j]``; ``order`` spans the parabolic subgroup that holds w."""
    if not order:
        return frozenset()
    s, rest = order[0], order[1:]
    if any(x < 0 for x in images[s]):  # w⁻¹α_s < 0: s is a left descent of w
        # (sw)⁻¹ = w⁻¹s sends α_j to w⁻¹(α_j) − a_sj w⁻¹(α_s).
        shorter = tuple(tuple(x - a[s][j] * y for x, y in zip(image, images[s]))
                        for j, image in enumerate(images))
        return frozenset(reflect_root(a, s, beta)
                         for beta in cambrian_roots(a, rest + (s,), shorter))
    return cambrian_roots(a, rest, images) | {tuple(int(k == s) for k in range(len(a)))}


def cambrian_oracle(a, order, c_vectors):
    """Whether the sets C_c(w) of the c-sortable w are the c-vector sets
    ``c_vectors``, one tuple of c-vectors per seed, and as many."""
    order = tuple(order)
    roots = {cambrian_roots(a, order, inverse_images(a, u))
             for u in sortable_elements(a, order, nested=True)}
    return roots == {frozenset(seed) for seed in c_vectors} and len(roots) == len(c_vectors)


@lru_cache(maxsize=None)
def seed_c_vectors(spec, order):
    """The c-vectors of each seed of ``explore(principal_seed(m, c))``: rows
    n.. of its ``columns``."""
    m = cartan_from_text(spec)
    graph = explore(principal_seed(m, coxeter_element(m, order)))
    return tuple(seed.coeffs for seed in graph.seeds)


@pytest.mark.parametrize("spec", CAMBRIAN_ORIENTED)
def test_cambrian_root_sets_every_orientation(spec):
    m = cartan_from_text(spec)
    for c in all_coxeter_elements(m):
        assert cambrian_oracle(m.a, c.order, seed_c_vectors(spec, c.order)), c.order


@pytest.mark.parametrize("spec", ["E6", pytest.param("E7", marks=pytest.mark.slow)])
def test_cambrian_root_sets_bipartite_exceptional(spec):
    m = cartan_from_text(spec)
    c = bipartite_element(m)
    assert cambrian_oracle(m.a, c.order, seed_c_vectors(spec, c.order))


@pytest.mark.parametrize("spec", ("B3", "C3", "G2", "B4", "C4", "F4"))
def test_cambrian_oracle_rejects_the_transpose(spec):
    m = cartan_from_text(spec)
    for c in all_coxeter_elements(m):
        assert not cambrian_oracle(m.transpose().a, c.order, seed_c_vectors(spec, c.order)), c.order


@pytest.mark.parametrize("spec", ("A3", "B3", "G2", "D4", "F4"))
def test_cambrian_oracle_rejects_a_corrupted_c_vector_or_a_dropped_cluster(spec):
    m = cartan_from_text(spec)
    order = bipartite_element(m).order
    seeds = seed_c_vectors(spec, order)
    assert cambrian_oracle(m.a, order, seeds)
    first = seeds[0]
    bumped = first[0][:-1] + (first[0][-1] + 1,)  # one entry of one c-vector
    assert not cambrian_oracle(m.a, order, ((bumped,) + first[1:],) + seeds[1:])
    assert not cambrian_oracle(m.a, order, seeds[1:])
