"""c-sortable elements against the clusters: a Weyl-group oracle.

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
"""

import pytest

from coxclusters import all_coxeter_elements, bipartite_element, cartan_from_text, clusters

ORIENTED = ("A3", "B3", "C3", "G2", "B4", "C4", "D4", "F4", "A5", "D5")


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
