"""Failure branches of the check suites that correct inputs never reach.

Each case replaces closed-form inputs that a suite reads from the ``checks``
namespace by corrupted copies.  Unpatched, every check of the suite passes;
patched, exactly the named check fails.  A check that could not fail this
way would be vacuous.
"""

from dataclasses import replace

import pytest

from coxclusters import PiLabel, cartan_from_text, checks, coxeter_element
from coxclusters.algebra import DEFAULT_CAP
from coxclusters.weyl import Root


def _then(real, change):
    """``real`` with ``change`` applied to its result."""
    return lambda *args: change(real(*args))


def _engine(m, c):
    """The engine suite on the principal run of ``c``."""
    return checks.engine_against_formulas(m, c, checks.principal_run(m, c, DEFAULT_CAP))


def _bump(hs):
    """An ``h_vector`` result with h(0) raised by one."""
    h, star = hs
    return (h[0] + 1,) + h[1:], star


def _bump_when(when):
    real = checks.h_vector
    return {"h_vector": lambda m, c: _bump(real(m, c)) if when(m, c) else real(m, c)}


def _second_first_family_root(m, c):
    """c(beta_0) joins the first-family roots, so the orbit of beta_0 holds
    two of them.  Its backward image is taken to be that of beta_0, so the
    negated backward images are unchanged and only the first count fails:
    unpatched, the two counts agree on every orbit."""
    betas, apply_word = checks.beta_roots, checks.apply_word
    first = betas(m, c)[0]
    extra = apply_word(m, c.order, first)
    inverse = tuple(reversed(c.order))

    def corrupt_apply(mm, word, x):
        return apply_word(mm, word, first if tuple(word) == inverse and x == extra else x)

    return {"beta_roots": _then(betas, lambda b: b + (extra,)), "apply_word": corrupt_apply}


def _one_backward_image(m, c):
    """Every backward image is one root, so one rotation orbit holds all the
    negated backward images."""
    apply_word = checks.apply_word
    fixed = apply_word(m, tuple(reversed(c.order)), checks.beta_roots(m, c)[0])
    return {"apply_word": lambda mm, word, x: apply_word(mm, word, x)
            if tuple(word) == c.order else fixed}


# (case id, type, suite, corruption: (m, c) -> {name: replacement}, failing
# check); every suite runs on the linear Coxeter element 1, 2, .., n.
CASES = [
    ("bipartite-h-values", "A3", lambda m, c: checks.bipartite_h_values(m),
     lambda m, c: {"h_vector": _then(checks.h_vector, _bump)}, "coxeter/bipartite-h-values"),
    ("move-update-rule", "A3", lambda m, c: checks.move_update_rule(m),
     lambda m, c: _bump_when(lambda mm, cc: cc == c), "coxeter/move-update-rule"),
    ("orbit-first-family", "A3", checks.orbit_representatives,
     _second_first_family_root, "coxeter/orbit-representatives"),
    ("orbit-backward-images", "A3", checks.orbit_representatives,
     _one_backward_image, "coxeter/orbit-representatives"),
    ("beta-telescoping", "A3", checks.beta_telescoping,
     lambda m, c: {"beta_roots": _then(checks.beta_roots, lambda b: (b[1], b[0]) + b[2:])},
     "coxeter/beta-telescoping"),
    ("dual-h-vector", "B3", checks.compat_duality,
     lambda m, c: _bump_when(lambda mm, cc: mm != m), "compat/duality"),
    ("count-formula", "A3", _engine,
     lambda m, c: {"coxeter_number": _then(checks.coxeter_number,
                                           lambda hs: tuple(h + 1 for h in hs))},
     "engine/count-formula-per-component"),
    ("denominators", "A3", _engine,
     lambda m, c: {"denominator": _then(checks.denominator,
                                        lambda r: Root(tuple(x + 1 for x in r.d)))},
     "engine/denominators-closed-form"),
    ("zero-iff-shared", "A3", _engine,
     lambda m, c: {"shares_cluster_with_initial": lambda cluster_sets: set()},
     "engine/denominator-zero-iff-shared-cluster"),
]


@pytest.mark.parametrize("spec, suite, corruption, failing",
                         [pytest.param(*case[1:], id=case[0]) for case in CASES])
def test_corrupted_input_fails_its_check(spec, suite, corruption, failing, monkeypatch):
    m = cartan_from_text(spec)
    c = coxeter_element(m, range(m.n))
    assert all(r.passed for r in suite(m, c))
    for name, fake in corruption(m, c).items():
        monkeypatch.setattr(checks, name, fake)
    results = suite(m, c)
    assert {r.suite for r in results if not r.passed} == {failing}


def test_engine_suite_rejects_a_corrupted_run():
    """Swapping the labels of two non-initial records of the A3 run breaks
    the label and denominator checks; the run as explored passes."""
    m = cartan_from_text("A3")
    c = coxeter_element(m, range(m.n))
    graph, records = checks.principal_run(m, c, DEFAULT_CAP)
    assert all(r.passed for r in checks.engine_against_formulas(m, c, (graph, records)))
    a, b = [k for k, r in enumerate(records) if r.label.m != 0][:2]
    swapped = list(records)
    swapped[a], swapped[b] = (replace(records[a], label=records[b].label),
                              replace(records[b], label=records[a].label))
    failed = {r.suite for r in checks.engine_against_formulas(m, c, (graph, tuple(swapped)))
              if not r.passed}
    assert {"engine/label-routes-agree", "engine/denominators-closed-form"} <= failed


def _bump_c_vector(mutate):
    """``mutate`` whose result has entry k of the c-vector in slot k raised by one."""
    def bumped(seed, k):
        out = mutate(seed, k)
        column = list(out.columns[k])
        column[out.n + k] += 1
        return replace(out, columns=out.columns[:k] + (tuple(column),) + out.columns[k + 1:])
    return bumped


# (case id, corruption, the detail: the parts that differ)
MOVE_CASES = [
    ("b-matrix", lambda: {"cyclical_move": lambda m, c, s: c}, "b_matrix"),
    ("source-c-vector", lambda: {"mutate": _bump_c_vector(checks.mutate)}, "source_c_vector"),
    ("label", lambda: {"extract_record": _then(checks.extract_record,
                                               lambda r: replace(r, label=PiLabel(0, 0)))},
     "label"),
]


@pytest.mark.parametrize("spec", ["A3", "B3", "G2"])
@pytest.mark.parametrize("corruption, detail",
                         [pytest.param(*case[1:], id=case[0]) for case in MOVE_CASES])
def test_move_isomorphism_detail_names_the_part(spec, corruption, detail, monkeypatch):
    m = cartan_from_text(spec)
    c = coxeter_element(m, range(m.n))
    assert all(r.passed and not r.detail for r in checks.move_isomorphism_checks(m, c))
    for name, fake in corruption().items():
        monkeypatch.setattr(checks, name, fake)
    results = checks.move_isomorphism_checks(m, c)
    assert results and all(not r.passed and r.detail == detail for r in results)
