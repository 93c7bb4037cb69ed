"""Integer oracles on whole exchange graphs of principal-coefficient seeds.

Each oracle is a theorem about the integer data of every seed t, evaluated
here from the raw seeds, g-vectors and clusters:

* every c-vector is sign-coherent: nonzero, with all entries >= 0 or all <= 0;
* tropical duality (Nakanishi-Zelevinsky): G_t^T D C_t is diagonal, its
  diagonal is a permutation of the symmetrizer ``m.d``, and that diagonal
  skew-symmetrizes B_t.  The columns of G_t are the g-vectors of the seed's
  variables and those of C_t its c-vectors, in slot order;
* |det G_t| = 1: the g-vectors of a cluster are a basis of the weight lattice;
* the g-vector recurrence (FZ IV, §6, by homogeneity): on each
  edge, read from either end, the new variable's g-vector is
  -g_k + sum_i [b_ik]+ g_i - sum_j [c_jk]+ b0_j, with b0_j column j of the
  initial exchange matrix B0 and c_jk entry j of slot k's c-vector;
* every (n-1)-subset of a cluster of ``clusters(m, c)`` lies in exactly two
  clusters, and these pairs are exactly the engine's edges, as label sets.

Each oracle also gets one corrupted datum that it must reject.
"""

import functools
import itertools
from collections import defaultdict

import pytest

from coxclusters import (
    all_coxeter_elements,
    bipartite_element,
    cartan_from_text,
    clusters,
    coxeter_element,
    explore,
    principal_seed,
    records_for,
)
from coxclusters.algebra import SeedView
from test_dvector_oracle import exchange_matrix

ORIENTED = ("A3", "B3", "C3", "G2", "B4", "C4", "D4", "F4", "A2xA1", "B2xG2")


def _instances():
    out = []
    for spec in ORIENTED:
        m = cartan_from_text(spec)
        out += [f"{spec} {','.join(str(i + 1) for i in c.order)}" for c in all_coxeter_elements(m)]
    e6 = bipartite_element(cartan_from_text("E6"))
    return out + [f"E6 {','.join(str(i + 1) for i in e6.order)}"]


@functools.cache
def instance_data(name):
    """(m, graph, g-vector of each variable, label of each variable, clusters)."""
    spec, word = name.split()
    m = cartan_from_text(spec)
    c = coxeter_element(m, [int(x) - 1 for x in word.split(",")])
    graph = explore(principal_seed(m, c))
    records = records_for(m, c, graph)
    return m, graph, [r.g.g for r in records], [r.label for r in records], clusters(m, c)


def sign_coherent(seeds):
    return all(
        any(cv) and (min(cv) >= 0 or max(cv) <= 0) for s in seeds for cv in s.coeffs
    )


def dual_bases(d, seeds, gvecs):
    n = len(d)
    for s in seeds:
        G = [gvecs[v] for v in s.var_ids]
        M = [[sum(G[a][i] * d[i] * s.coeffs[b][i] for i in range(n)) for b in range(n)]
             for a in range(n)]
        diag = [M[a][a] for a in range(n)]
        if any(M[a][b] for a in range(n) for b in range(n) if a != b):
            return False
        if sorted(diag) != sorted(d):
            return False
        if any(diag[a] * s.B[a][b] != -diag[b] * s.B[b][a] for a in range(n) for b in range(n)):
            return False
    return True


def integer_det(rows):
    """Determinant by fraction-free (Bareiss) elimination with row exchanges."""
    mat = [list(r) for r in rows]
    n, sign, prev = len(mat), 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if mat[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            mat[k], mat[pivot] = mat[pivot], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            mat[i] = [(mat[k][k] * x - mat[i][k] * y) // prev for x, y in zip(mat[i], mat[k])]
        prev = mat[k][k]
    return sign * prev


def unimodular(seeds, gvecs):
    return all(abs(integer_det([gvecs[v] for v in s.var_ids])) == 1 for s in seeds)


def g_vector_recurrence(b0, seeds, edges, gvecs):
    n = len(b0)
    for a, b in edges:
        for s, t in ((seeds[a], seeds[b]), (seeds[b], seeds[a])):
            (k,) = [p for p, v in enumerate(s.var_ids) if v not in t.var_ids]
            (new,) = set(t.var_ids) - set(s.var_ids)
            col = s.columns[k]
            g = tuple(
                -gvecs[s.var_ids[k]][r]
                + sum(max(col[i], 0) * gvecs[v][r] for i, v in enumerate(s.var_ids))
                - sum(max(col[n + j], 0) * b0[r][j] for j in range(n))
                for r in range(n)
            )
            if g != gvecs[new]:
                return False
    return True


def initial_exchange_matrix(name):
    """B0 of an instance, read off its Cartan matrix and Coxeter word."""
    spec, word = name.split()
    return exchange_matrix(cartan_from_text(spec).a, [int(x) - 1 for x in word.split(",")])


def ridges_match_edges(cluster_list, seeds, edges, labels):
    by_ridge = defaultdict(list)
    for cl in cluster_list:
        for ridge in itertools.combinations(sorted(cl), len(cl) - 1):
            by_ridge[ridge].append(frozenset(cl))
    if any(len(pair) != 2 for pair in by_ridge.values()):
        return False
    label_sets = [frozenset(labels[v] for v in s.var_ids) for s in seeds]
    engine = {frozenset((label_sets[a], label_sets[b])) for a, b in edges}
    return {frozenset(pair) for pair in by_ridge.values()} == engine


INSTANCES = _instances()


@pytest.mark.parametrize("name", INSTANCES)
def test_integer_oracles(name):
    m, graph, gvecs, labels, cluster_list = instance_data(name)
    assert sign_coherent(graph.seeds)
    assert dual_bases(m.d, graph.seeds, gvecs)
    assert unimodular(graph.seeds, gvecs)
    assert g_vector_recurrence(initial_exchange_matrix(name), graph.seeds, graph.edges, gvecs)
    assert ridges_match_edges(cluster_list, graph.seeds, graph.edges, labels)


@pytest.mark.parametrize("name", ["B3 1,2,3", "G2 1,2", "B2xG2 1,2,3,4"])
def test_oracles_reject_corrupted_data(name):
    m, graph, gvecs, labels, cluster_list = instance_data(name)
    seeds = list(graph.seeds)
    # One c-vector of one seed with mixed signs.
    s = seeds[1]
    n = len(s.var_ids)
    bad_column = s.columns[0][:n] + (1, -1) + s.columns[0][n + 2:]
    bad_seed = SeedView(s.var_ids, (bad_column,) + s.columns[1:])
    assert not sign_coherent(seeds[:1] + [bad_seed] + seeds[2:])
    # One g-vector with one more unit in its first coordinate.
    v = seeds[0].var_ids[0]
    bad_g = list(gvecs)
    bad_g[v] = (gvecs[v][0] + 1,) + gvecs[v][1:]
    assert not dual_bases(m.d, seeds, bad_g)
    assert not g_vector_recurrence(initial_exchange_matrix(name), seeds, graph.edges, bad_g)
    bad_g[v] = tuple(2 * x for x in gvecs[v])
    assert not unimodular(seeds, bad_g)
    # One edge moved to a seed that is not adjacent, or one cluster dropped.
    a, _ = graph.edges[0]
    adjacent = {frozenset(e) for e in graph.edges}
    far = next(x for x in range(len(seeds)) if x != a and frozenset((a, x)) not in adjacent)
    bad_edges = ((a, far),) + graph.edges[1:]
    assert not ridges_match_edges(cluster_list, seeds, bad_edges, labels)
    assert not ridges_match_edges(cluster_list[1:], seeds, graph.edges, labels)
