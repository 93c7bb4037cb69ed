"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every comparison is exact (integers, exact polynomials, set equality); the
elapsed time is informational.  The last criterion explores the two largest
exceptional types and is opt-in via ``-m slow``.
"""

import time

import pytest

from coxclusters import (
    PiLabel,
    all_coxeter_elements,
    bipartite_element,
    cartan_from_label,
    cartan_from_text,
    checks,
    coxeter_element,
    coxeter_number,
    explore,
    h_vector,
    pi_set,
    principal_seed,
    records_for,
)
from coxclusters import typea
from coxclusters.algebra import DEFAULT_CAP
from conftest import indecomposable_types
import typea_suites

_SUITE_CACHE: dict = {}


def _engine_suite(m, c):
    key = (m, c)
    if key not in _SUITE_CACHE:
        run = checks.principal_run(m, c, DEFAULT_CAP)
        _SUITE_CACHE[key] = checks.engine_against_formulas(m, c, run)
    return _SUITE_CACHE[key]


def _report(num: int, name: str, failures, started: float) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"acceptance {num:02d} {name}: {status} ({time.time() - started:.1f}s)")
    assert not failures, failures[:8]


def _collect(results, keep=None):
    return [
        (r.suite, r.instance, r.detail)
        for r in results
        if not r.passed and (keep is None or r.suite in keep)
    ]


def test_acceptance_01_coxeter_combinatorics_sweep():
    from coxclusters import component_coxeter_number, precedes

    started = time.time()
    failures = []
    for letter, rank in indecomposable_types(8):
        m = cartan_from_label(letter, rank)
        for c in all_coxeter_elements(m):
            name = f"{letter}{rank} {c.order}"
            try:
                # Chain positivity is asserted while iterating.
                h, star = h_vector(m, c)
            except Exception as exc:  # noqa: BLE001
                failures.append(("coxeter/chain-positivity", name, str(exc)))
                continue
            for i in range(m.n):
                for j in m.neighbors(i):
                    if precedes(m, c, i, j):
                        expect = 1 if precedes(m, c, star[j], star[i]) else 0
                        if h[i] - h[j] != expect:
                            failures.append(("coxeter/h-difference-rule", name, f"{i},{j}"))
                if h[i] + h[star[i]] != component_coxeter_number(m, i):
                    failures.append(("coxeter/h-plus-h-star", name, str(i)))
    _report(1, "coxeter combinatorics sweep rank<=8", failures, started)


def test_acceptance_02_bipartite_values_and_moves():
    started = time.time()
    failures = []
    for letter, rank in indecomposable_types(8):
        m = cartan_from_label(letter, rank)
        failures += _collect(checks.bipartite_h_values(m))
        failures += _collect(checks.move_graph_connected(m))
    _report(2, "bipartite h-values and move-graph connectivity", failures, started)


_ENGINE_TYPES = [
    (letter, rank) for letter, rank in indecomposable_types(5)
] + [("E", 6)]


def test_acceptance_03_engine_vs_closed_formulas():
    started = time.time()
    failures = []
    keep = {
        "engine/variable-count",
        "engine/count-formula-per-component",
        "engine/g-vectors-equal-weight-family",
        "engine/label-routes-agree",
        "engine/denominators-closed-form",
        "engine/denominator-zero-iff-shared-cluster",
        "engine/f-constant-term-one",
        "engine/separation-identity",
    }
    for letter, rank in _ENGINE_TYPES:
        m = cartan_from_label(letter, rank)
        for c in all_coxeter_elements(m):
            failures += _collect(_engine_suite(m, c), keep=keep)
    _report(3, "mutation engine vs closed formulas rank<=5 plus E6", failures, started)


def test_acceptance_04_primitive_relations():
    started = time.time()
    failures = []
    for letter, rank in indecomposable_types(5):
        m = cartan_from_label(letter, rank)
        for c in all_coxeter_elements(m):
            failures += _collect(
                _engine_suite(m, c), keep={"engine/primitive-relations-match"}
            )
    _report(4, "primitive exchange relations rank<=5", failures, started)


def test_acceptance_05_type_a_tridiagonal():
    started = time.time()
    failures = []
    for n in range(1, 6):
        failures += _collect(
            typea_suites.typea_checks(n),
            keep={
                "typea/exchange-relations",
                "typea/minor-recurrence-vs-determinant",
                "typea/offset-minor-products",
                "typea/variables-are-interval-minors",
                "typea/diagonal-bijection",
            },
        )
    m = cartan_from_label("A", 3)
    c = coxeter_element(m, range(3))
    graph = explore(principal_seed(m, c))
    if len(graph.variables) != 9 or len(graph.seeds) != 14:
        failures.append(("typea/a3-counts", "A3", f"{len(graph.variables)}/{len(graph.seeds)}"))
    _report(5, "type A tridiagonal realization n<=5", failures, started)


def test_acceptance_06_f_polynomial_matrix_formula():
    started = time.time()
    failures = []
    for n in range(1, 6):
        failures += _collect(
            typea_suites.typea_checks(n),
            keep={"typea/f-matrix-equals-closed-form", "typea/f-matrix-equals-engine"},
        )
    _report(6, "F-polynomials from the matrix product n<=5", failures, started)


def test_acceptance_07_compatibility_and_clusters():
    started = time.time()
    failures = []
    for letter, rank in indecomposable_types(5):
        m = cartan_from_label(letter, rank)
        for c in all_coxeter_elements(m):
            failures += _collect(checks.compat_symmetry_at_zero(m, c))
            failures += _collect(checks.compat_reduction_agreement(m, c))
            failures += _collect(
                _engine_suite(m, c), keep={"engine/clusters-equal-compatible-sets"}
            )
        failures += _collect(checks.bipartite_compat_oracle(m))
    for spec in ("B3", "C3", "F4", "G2"):
        m = cartan_from_text(spec)
        for c in all_coxeter_elements(m):
            failures += _collect(checks.compat_duality(m, c))
    for letter, rank in indecomposable_types(4):
        m = cartan_from_label(letter, rank)
        for c in all_coxeter_elements(m):
            failures += _collect(checks.compat_linear_identity(m, c))
    _report(7, "compatibility degrees and clusters", failures, started)


def test_acceptance_08_universal_coefficients():
    started = time.time()
    failures = []
    for letter, rank in indecomposable_types(3):
        m = cartan_from_label(letter, rank)
        for c in all_coxeter_elements(m):
            run = checks.principal_run(m, c, DEFAULT_CAP)
            failures += _collect(checks.universal_checks(m, c, run, DEFAULT_CAP))
    for n in range(1, 5):
        failures += _collect(typea_suites.typea_universal_coefficients(n))
    plus, minus = typea.universal_coeff_typea(3, (2, 4, 5, 6))
    if plus != ((1, 5), (2, 5)) or minus != ((3, 6), (4, 6)):
        failures.append(("typea/hexagon-instance", "A3", f"{plus} {minus}"))
    _report(8, "universal coefficients and polygon rule", failures, started)


def test_acceptance_09_move_isomorphism():
    started = time.time()
    failures = []
    for letter, rank in indecomposable_types(5):
        m = cartan_from_label(letter, rank)
        for c in all_coxeter_elements(m):
            failures += _collect(checks.move_isomorphism_checks(m, c))
    _report(9, "source-rotation isomorphism rank<=5", failures, started)


@pytest.mark.slow
@pytest.mark.parametrize(
    "letter,rank", [pytest.param("E", 7, id="E7"), pytest.param("E", 8, id="E8")]
)
def test_acceptance_10_exceptional_exploration(letter, rank):
    started = time.time()
    failures = []
    m = cartan_from_label(letter, rank)
    c = bipartite_element(m)
    graph = explore(principal_seed(m, c))
    expect = rank * (coxeter_number(m)[0] + 2) // 2
    if len(graph.variables) != expect:
        failures.append(("engine/variable-count", f"{letter}{rank}",
                         f"{len(graph.variables)} vs {expect}"))
    records = records_for(m, c, graph)
    if {r.g.g for r in records} != {w.g for _, w in pi_set(m, c)}:
        failures.append(("engine/g-vectors-equal-weight-family", f"{letter}{rank}", ""))
    _report(10, f"bipartite exploration of {letter}{rank}", failures, started)
