"""Tropical d-vector oracle: the denominator vectors of all cluster
variables, computed from the exchange matrix alone.

B is read off the Cartan matrix and the order of c: b_ij = -a_ij when i
and j are joined and i comes first in c, a_ij when j comes first, else 0.
The walk starts from d_i = -e_i; mutation in direction k replaces d_k by

    d'_k = -d_k + max(sum_i [b_ik]+ d_i, sum_i [-b_ik]+ d_i)   (componentwise)

and B by matrix mutation (Fomin-Zelevinsky, Cluster algebras IV, §7).  A
seed is keyed by its set of d-vectors.  Nothing here calls the engine or
the rotation chains of ``coxeter``; the results are compared with the
closed-form denominators of Pi(c), with the number of clusters and, along
the Coxeter mutation (the slots mutated in the order of c, round after
round), with the rotation tau of the labels.
"""

import pytest

from coxclusters import (
    all_coxeter_elements,
    bipartite_element,
    cartan_from_text,
    clusters,
    PiLabel,
    denominator,
    pi_set,
    tau,
)

ORIENTED = ("A3", "B3", "C3", "G2", "B4", "C4", "D4", "F4", "A2xA1", "A5", "D5")
NOT_SIMPLY_LACED = ("B3", "C3", "G2", "F4")
PATH_ORIENTED = ORIENTED + ("B5", "C5", "A6")


def exchange_matrix(a, order):
    pos = {v: p for p, v in enumerate(order)}
    n = len(a)
    return tuple(
        tuple(
            0 if i == j or not a[i][j] else -a[i][j] if pos[i] < pos[j] else a[i][j]
            for j in range(n)
        )
        for i in range(n)
    )


def _plus(x):
    return x if x > 0 else 0


def matrix_mutation(b, k):
    n = len(b)
    return tuple(
        tuple(
            -b[i][j] if k in (i, j)
            else b[i][j] + _plus(b[i][k]) * _plus(b[k][j]) - _plus(-b[i][k]) * _plus(-b[k][j])
            for j in range(n)
        )
        for i in range(n)
    )


def d_vector_mutation(b, ds, k):
    """The new d-vector d'_k of slot k, the d-vectors of the slots being ds."""
    n = len(b)
    sides = [
        [sum(f(b[i][k]) * ds[i][t] for i in range(n)) for t in range(n)]
        for f in (_plus, lambda x: _plus(-x))
    ]
    return tuple(-d + max(p, q) for d, p, q in zip(ds[k], *sides))


def d_vector_walk(b):
    """(every d-vector reached, number of seeds) of the exchange graph of b."""
    n = len(b)
    start = tuple(tuple(-int(i == j) for j in range(n)) for i in range(n))
    seen = {frozenset(start)}
    queue = [(start, b)]
    for ds, bt in queue:  # grows while it is walked: breadth first
        for k in range(n):
            new = ds[:k] + (d_vector_mutation(bt, ds, k),) + ds[k + 1:]
            if frozenset(new) not in seen:
                seen.add(frozenset(new))
                queue.append((new, matrix_mutation(bt, k)))
    return set().union(*seen), len(seen)


def _closed_form(m, c):
    return {denominator(m, c, lab).d for lab, _ in pi_set(m, c)}, len(clusters(m, c))


def _check(m, elements):
    for c in elements:
        assert d_vector_walk(exchange_matrix(m.a, c.order)) == _closed_form(m, c), c.order


@pytest.mark.parametrize("spec", ORIENTED)
def test_d_vectors_every_orientation(spec):
    m = cartan_from_text(spec)
    _check(m, all_coxeter_elements(m))


@pytest.mark.parametrize(
    "spec", ["E6", pytest.param("E7", marks=pytest.mark.slow), pytest.param("E8", marks=pytest.mark.slow)]
)
def test_d_vectors_bipartite_exceptional(spec):
    m = cartan_from_text(spec)
    _check(m, [bipartite_element(m)])


@pytest.mark.parametrize("spec", NOT_SIMPLY_LACED)
def test_transposed_exchange_matrix_is_rejected(spec):
    """B^T = -B in a simply-laced type, so only these types can tell B from
    its transpose; on every orientation the transpose gives other d-vectors."""
    m = cartan_from_text(spec)
    for c in all_coxeter_elements(m):
        transposed = tuple(zip(*exchange_matrix(m.a, c.order)))
        dvectors, _ = d_vector_walk(transposed)
        assert dvectors != _closed_form(m, c)[0], c.order


def coxeter_path_is_tau(m, c, b, order):
    """Mutate the slots of b in ``order``, round after round, from d_i = -e_i,
    slot i starting at the label (i, 0).  True when each mutation gives the
    slot the closed-form denominator of tau of its label, and the labels
    come back to the (i, 0) within 2N mutations, N = |Pi(c)|, having
    reached every label."""
    n, size = m.n, len(pi_set(m, c))
    ds = [tuple(-int(i == j) for j in range(n)) for i in range(n)]
    start = [PiLabel(i, 0) for i in range(n)]
    labels, reached = list(start), set(start)
    for step in range(2 * size):
        k = order[step % n]
        ds[k] = d_vector_mutation(b, ds, k)
        b = matrix_mutation(b, k)
        labels[k] = tau(m, c, labels[k])
        if ds[k] != denominator(m, c, labels[k]).d:
            return False
        reached.add(labels[k])
        if labels == start:
            return len(reached) == size
    return False


def _path_elements(spec):
    m = cartan_from_text(spec)
    return m, [bipartite_element(m)] if spec.startswith("E") else all_coxeter_elements(m)


@pytest.mark.parametrize("spec", PATH_ORIENTED + ("E6", "E7", "E8"))
def test_coxeter_mutation_is_tau(spec):
    """Every orientation, but only the bipartite element of E6, E7 and E8."""
    m, elements = _path_elements(spec)
    for c in elements:
        assert coxeter_path_is_tau(m, c, exchange_matrix(m.a, c.order), c.order), c.order


@pytest.mark.parametrize("spec", PATH_ORIENTED + ("E6",))
def test_coxeter_mutation_rejects_reversed_order(spec):
    m, elements = _path_elements(spec)
    for c in elements:
        reversed_order = tuple(reversed(c.order))
        assert not coxeter_path_is_tau(m, c, exchange_matrix(m.a, c.order), reversed_order), c.order


@pytest.mark.parametrize("spec", ["B3", "C3", "G2", "B4", "C4", "F4", "B5", "C5"])
def test_coxeter_mutation_rejects_transpose(spec):
    """Only these types can tell B from B^T, as in the transposed walk above."""
    m, elements = _path_elements(spec)
    for c in elements:
        transposed = tuple(zip(*exchange_matrix(m.a, c.order)))
        assert not coxeter_path_is_tau(m, c, transposed, c.order), c.order
