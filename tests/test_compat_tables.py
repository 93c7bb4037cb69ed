"""The compatibility check suites read whole tables.

Each suite in ``checks`` reads the label table of ``compatibility_table``
(and, for the bipartite oracle, the root table of ``root_compat_table``).
Here test-only copies of the former per-pair suites, one
``compatibility_degree`` call per label pair and one orbit walk per root
pair, are the reference: both must give the same verdicts, on sound tables
and on tables with one corrupted entry.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxclusters import (
    CoxeterElement,
    InternalCheckError,
    PiLabel,
    all_coxeter_elements,
    bipartite_element,
    bipartition,
    cartan_from_text,
    compatibility_degree,
    compatibility_table,
    coxeter_element,
    coxeter_number,
    denominator,
    h_vector,
    pi_set,
    precedes,
    simple_root,
)
from coxclusters import algebra, checks, cli, coxeter
from coxclusters.coxeter import all_roots
from conftest import REFERENCE_TYPES


# -- the former per-pair suites -------------------------------------------------


def _labels(m, c):
    return [lab for lab, _ in pi_set(m, c)]


def pair_symmetry_at_zero(m, c):
    return all(
        (compatibility_degree(m, c, a, b) == 0) == (compatibility_degree(m, c, b, a) == 0)
        for a, b in itertools.combinations(_labels(m, c), 2)
    )


def pair_reduction_agreement(m, c):
    labels, backward = compatibility_table(m, c, use_inverse=True)
    return all(
        compatibility_degree(m, c, a, b) == value
        for a, row in zip(labels, backward)
        for b, value in zip(labels, row)
    )


def pair_duality(m, c):
    mt = m.transpose()
    if h_vector(mt, c)[0] != h_vector(m, c)[0]:
        return False
    labels = _labels(m, c)
    return all(
        compatibility_degree(m, c, a, b) == compatibility_degree(mt, c, b, a)
        for a in labels
        for b in labels
    )


def pair_linear_identity(m, c):
    ok = True
    for j in range(m.n):
        wj, cwj = PiLabel(j, 0), PiLabel(j, 1)
        for gamma in _labels(m, c):
            lhs = compatibility_degree(m, c, gamma, cwj)
            rhs = compatibility_degree(m, c, gamma, wj)
            for i in range(m.n):
                if precedes(m, c, i, j):
                    lhs += m.a[i][j] * compatibility_degree(m, c, gamma, PiLabel(i, 1))
                elif precedes(m, c, j, i):
                    rhs += m.a[i][j] * compatibility_degree(m, c, gamma, PiLabel(i, 0))
            if gamma == wj:
                ok &= rhs == 0 and lhs == 1
            elif gamma == cwj:
                ok &= lhs == 0 and rhs == 1
            else:
                ok &= lhs == -rhs
    return ok


@functools.cache
def _root_flips(m, eps):
    """The almost positive roots, their index, and each half reflection as
    an index permutation."""
    roots = tuple(r for r in all_roots(m) if r.is_positive())
    roots += tuple(-simple_root(m.n, i) for i in range(m.n))
    index = {r.d: k for k, r in enumerate(roots)}
    flips = {
        sign: tuple(index[coxeter._half_reflection(m, eps, sign, r).d] for r in roots)
        for sign in (1, -1)
    }
    return roots, index, flips


def pair_root_compat(m, alpha, beta, eps):
    """The per-pair orbit walk: apply both involutions in turn to both roots
    until the first is a negative simple root -alpha_i."""
    roots, index, flips = _root_flips(m, eps)
    a, b = index[alpha.d], index[beta.d]
    sign = 1
    for _ in range(2 * (max(coxeter_number(m)) + 2)):
        neg = coxeter._negative_simple_index(roots[a])
        if neg is not None:
            return max(roots[b].d[neg], 0)
        a, b = flips[sign][a], flips[sign][b]
        sign = -sign
    raise AssertionError("involution orbit missed every negative simple root")


def pair_bipartite_oracle(m):
    t = bipartite_element(m)
    eps = bipartition(m)
    labels = _labels(m, t)
    image = {lab: denominator(m, t, lab) for lab in labels}
    ok = len({r.d for r in image.values()}) == len(labels)
    for a in labels:
        for b in labels:
            if compatibility_degree(m, t, a, b) != pair_root_compat(m, image[a], image[b], eps):
                ok = False
    return ok


PER_ELEMENT = {
    "compat_symmetry_at_zero": pair_symmetry_at_zero,
    "compat_reduction_agreement": pair_reduction_agreement,
    "compat_duality": pair_duality,
    "compat_linear_identity": pair_linear_identity,
}


def verdicts(m, c):
    """(table verdict, per-pair verdict) of each suite, by suite name."""
    out = {
        name: (getattr(checks, name)(m, c)[0].passed, reference(m, c))
        for name, reference in PER_ELEMENT.items()
    }
    out["bipartite_compat_oracle"] = (
        checks.bipartite_compat_oracle(m)[0].passed,
        pair_bipartite_oracle(m),
    )
    return out


# Every orientation of the reference types up to rank 6; only the bipartite
# element of E7 and E8, whose 64 and 128 orientations the per-pair copies
# would take minutes over.
@pytest.mark.parametrize("spec", REFERENCE_TYPES)
def test_table_suites_match_per_pair_suites(spec):
    m = cartan_from_text(spec)
    elems = (bipartite_element(m),) if spec in ("E7", "E8") else all_coxeter_elements(m)
    for c in elems:
        got = verdicts(m, c)
        assert got == {name: (True, True) for name in got}, (c.order, got)


# -- corrupted tables ---------------------------------------------------------------


def _serve_corrupted(monkeypatch, m, c, pick, value=None):
    """Serve fresh data for (m, c) whose forward entry ``pick(data, rows)``
    is raised by 1, or whose two entries of that pair are both set to
    ``value``, in place of the cached data."""
    data = coxeter._CoxeterData(m, c)
    rows = [list(row) for row in data.forward_compat]
    a, b = pick(data, rows)
    if value is None:
        rows[a][b] += 1
    else:
        rows[a][b] = rows[b][a] = value
    data.forward_compat = tuple(map(tuple, rows))
    real = coxeter._data
    monkeypatch.setattr(
        coxeter, "_data", lambda mm, cc: data if (mm, cc) == (m, c) else real(mm, cc)
    )


@pytest.mark.parametrize("spec", ["B3", "A4", "G2"])
def test_corrupted_label_table_fails_every_suite(spec, monkeypatch):
    """Raise a compatible pair (a, b), b a rotated fundamental weight (j, 1),
    from 0 to 1.  For a symmetric m (A4) the duality suite reads the
    corrupted table on both sides, and fails because the pair is no longer
    symmetric."""
    m = cartan_from_text(spec)
    c = bipartite_element(m)
    _serve_corrupted(
        monkeypatch,
        m,
        c,
        lambda data, rows: next(
            (a, b)
            for a, b in itertools.permutations(range(len(rows)), 2)
            if data.labels[b].m == 1 and rows[a][b] == 0 == rows[b][a]
        ),
    )
    got = verdicts(m, c)
    assert got == {name: (False, False) for name in got}, got


@pytest.mark.parametrize("spec", ["B3", "A4", "G2"])
@pytest.mark.parametrize("sign", [-1, 1])
def test_corrupted_exceptional_value_fails_linear_identity(spec, sign, monkeypatch):
    """Raise the pairing of (j, 0) with (j, 1) for a sink j, or of (j, 1)
    with (j, 0) for a source j: only one of the identity's two exceptional
    values reads that entry."""
    m = cartan_from_text(spec)
    c = bipartite_element(m)
    j = bipartition(m).index(sign)
    gamma, delta = (PiLabel(j, 0), PiLabel(j, 1))[::-sign]
    _serve_corrupted(monkeypatch, m, c, lambda data, rows: (data.index[gamma], data.index[delta]))
    verdict = (checks.compat_linear_identity(m, c)[0].passed, pair_linear_identity(m, c))
    assert verdict == (False, False)


@pytest.mark.parametrize("spec", ["B3", "A4", "G2"])
def test_compatible_flip_pair_fails_cluster_size(spec, monkeypatch):
    """Make a cluster member b compatible with its flip partner b': then the
    cluster with b' added is a maximal compatible set of size n + 1."""
    m = cartan_from_text(spec)
    c = bipartite_element(m)
    found = coxeter.clusters(m, c)
    cluster = found[0]
    b, rest = cluster[0], set(cluster[1:])
    (partner,) = {x for cl in found if rest < set(cl) for x in cl} - set(cluster)
    _serve_corrupted(
        monkeypatch,
        m,
        c,
        lambda data, rows: (data.index[b], data.index[partner]),
        value=0,
    )
    with pytest.raises(InternalCheckError, match=f"size {m.n + 1} != rank {m.n}"):
        coxeter.clusters(m, c)


@pytest.mark.parametrize("spec", ["B3", "D4"])
def test_corrupted_root_table_fails_oracle(spec, monkeypatch):
    m = cartan_from_text(spec)
    roots, index, rows = coxeter._half_reflection_tables(m)
    corrupted = [list(row) for row in rows]
    corrupted[0][-1] += 1
    real = coxeter._half_reflection_tables
    monkeypatch.setattr(
        coxeter,
        "_half_reflection_tables",
        lambda mm: (roots, index, tuple(map(tuple, corrupted))) if mm == m else real(mm),
    )
    (res,) = checks.bipartite_compat_oracle(m)
    assert not res.passed


# -- one orientation, many words ------------------------------------------------------


def _linear_extension(m, c, priority):
    """Another word of the orientation of c: among the letters whose
    predecessors are all placed, place the one first in ``priority``."""
    rank = {i: k for k, i in enumerate(priority)}
    word: list[int] = []
    while len(word) < m.n:
        ready = [
            i
            for i in range(m.n)
            if i not in word
            and all(j in word for j in m.neighbors(i) if precedes(m, c, j, i))
        ]
        word.append(min(ready, key=rank.__getitem__))
    return tuple(word)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.sampled_from(("A4", "B3", "D4", "D5", "F4", "E6", "A2xA1", "B2xG2")), st.data())
def test_words_of_one_orientation_give_one_table(spec, data):
    """The tables are built from the letter order itself (reflections and
    positions), so any word of the orientation, canonical or not, must give
    the same labels and rows in both directions."""
    m = cartan_from_text(spec)
    c = coxeter_element(m, data.draw(st.permutations(range(m.n))))
    word = _linear_extension(m, c, data.draw(st.permutations(range(m.n))))
    assert coxeter_element(m, word) == c
    raw = CoxeterElement(word)
    for use_inverse in (False, True):
        assert compatibility_table(m, raw, use_inverse) == compatibility_table(m, c, use_inverse)


# -- call counts ------------------------------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """Wrap each named function of ``coxeter`` in every module that binds it,
    and count its calls."""
    counts = {}

    def wrap(name):
        counts[name] = 0
        real = getattr(coxeter, name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        for module in (coxeter, checks, algebra, cli):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)

    for name in ("compatibility_degree", "root_compat"):
        wrap(name)
    return counts


def test_formulas_suites_make_no_per_pair_calls(counted):
    """The suites of the formulas-E7 benchmark workload, with its clusters
    and primitive relations, read whole tables."""
    m = cartan_from_text("E7")
    c = bipartite_element(m)
    results = checks.bipartite_h_values(m)
    results += checks.move_graph_connected(m)
    results += checks.move_update_rule(m)
    results += checks.bipartite_compat_oracle(m)
    results += checks.cartan_invariants(m)
    results += checks.chain_and_h_checks(m, c)
    results += checks.beta_telescoping(m, c)
    results += checks.compat_symmetry_at_zero(m, c)
    results += checks.compat_reduction_agreement(m, c)
    results += checks.compat_duality(m, c)
    results += checks.orbit_representatives(m, c)
    results += checks.compat_linear_identity(m, c)
    coxeter.clusters(m, c)
    coxeter.primitive_relations(m, c)
    assert all(r.passed for r in results)
    assert counted == {"compatibility_degree": 0, "root_compat": 0}


def test_verify_builds_move_graph_once(counted, monkeypatch, capsys):
    """``verify --coxeter all`` builds the move graph once, reads each
    orientation's principal records once, and pairs no labels one by one."""
    builds = []
    real_graph = coxeter.MoveGraph
    monkeypatch.setattr(coxeter, "MoveGraph", lambda *a: builds.append(a) or real_graph(*a))
    record_reads = []
    real_records = checks.records_for
    monkeypatch.setattr(
        checks, "records_for", lambda m, c, g: record_reads.append(c) or real_records(m, c, g)
    )
    coxeter.move_graph.cache_clear()
    assert cli.main(["verify", "--type", "F4", "--coxeter", "all"]) == 0
    capsys.readouterr()
    assert len(builds) == 1
    assert len(record_reads) == len(set(record_reads)) == 8
    assert counted == {"compatibility_degree": 0, "root_compat": 0}
