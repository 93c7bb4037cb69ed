import itertools

import pytest

from coxclusters import PiLabel, cartan_from_label, coxeter_element
from coxclusters import typea
from coxclusters.algebra import _fpoly_ring
from coxclusters.cli import main
from coxclusters.poly import InexactDivision
import typea_suites


def all_diagonals(n):
    """Every diagonal of the (n+3)-gon that is not a side: the scan the
    closed forms are checked against."""
    out = []
    for a in range(1, n + 4):
        for b in range(a + 2, n + 4):
            d = typea_suites.Diagonal(a, b)
            if not typea_suites.is_boundary(d, n):
                out.append(d)
    return tuple(out)


def test_interval_minor_basics():
    assert str(typea.interval_minor(2, 1, 1)) == "v1"
    assert typea.interval_minor(2, 1, 2) == (
        typea.matrix_ring(2).gen(0) * typea.matrix_ring(2).gen(1)
        - typea.matrix_ring(2).gen(3)
    )
    assert typea.interval_minor(2, 0, 5) == typea.matrix_ring(2).one()
    assert typea.interval_minor(2, 3, 2) == typea.matrix_ring(2).one()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_minor_recurrence_against_cofactor_oracle(n):
    mat = typea_suites.tridiagonal(n)
    for i in range(1, n + 2):
        for j in range(i, n + 2):
            assert typea.interval_minor(n, i, j) == typea_suites.generic_minor(
                mat, range(i, j + 1), range(i, j + 1)
            )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_three_term_recurrence(n):
    ring = typea.matrix_ring(n)
    for k in range(1, n + 1):
        lhs = typea.interval_minor(n, 1, k + 1)
        rhs = ring.gen(k) * typea.interval_minor(n, 1, k) - ring.gen(
            n + 1 + k - 1
        ) * typea.interval_minor(n, 1, k - 1)
        assert lhs == rhs


def test_rank_one_relation_modulo_determinant():
    checks_ = typea.verify_exchange_relations(1)
    assert len(checks_) == 1 and checks_[0].ok
    # Directly: v1 v2 - (y1 + 1) is exactly the determinant minus one.
    ring = typea.matrix_ring(1)
    diff = ring.gen(0) * ring.gen(1) - ring.gen(2) - ring.one()
    assert diff == typea.interval_minor(1, 1, 2) - ring.one()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exchange_relations_verify(n):
    results = typea.verify_exchange_relations(n)
    quadruple_count = sum(
        1
        for i in range(1, n + 1)
        for j in range(i + 1, n + 2)
        for k in range(j - 1, n + 1)
        for l in range(k + 1, n + 2)
    )
    assert len(results) == quadruple_count
    assert all(r.ok for r in results)


def test_specific_relation_n2():
    # (i,j,k,l) = (1,2,2,3) pairs the two single-row minors against the
    # full determinant m(1,3).
    results = {r.quadruple: r.ok for r in typea.verify_exchange_relations(2)}
    assert results[(1, 2, 2, 3)]


def test_offset_minor_products():
    n = 4
    mat = typea_suites.tridiagonal(n)
    ring = typea.matrix_ring(n)
    for k in range(1, n + 1):
        upper = typea_suites.generic_minor(mat, range(1, k + 1), range(2, k + 2))
        expect = ring.one()
        for t in range(k):
            expect = expect * ring.gen(n + 1 + t)
        assert upper == expect
        assert typea_suites.generic_minor(mat, range(2, k + 2), range(1, k + 1)) == ring.one()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_fmatrix_is_tridiagonal(n):
    """y_1(1)..y_n(1) x_n(t_n)..x_1(t_1) is tridiagonal: diagonal
    (1, 1 + t_1, .., 1 + t_n), superdiagonal t_1 .. t_n, subdiagonal 1."""
    ring = _fpoly_ring(n)
    prod = typea_suites._fmatrix(n)
    for r in range(n + 1):
        for c in range(n + 1):
            if r == c:
                expect = ring.one() + (ring.gen(r - 1) if r else ring.zero())
            elif c == r + 1:
                expect = ring.gen(r)
            elif r == c + 1:
                expect = ring.one()
            else:
                expect = ring.zero()
            assert prod[r][c] == expect, (r, c)


def test_closed_form_builds_no_matrix(monkeypatch):
    """The closed form is the oracle of the matrix minors, so it must not
    compute the matrix product it checks."""

    def fail(n):
        raise AssertionError("f_poly_closed_form built the matrix product")

    monkeypatch.setattr(typea_suites, "_fmatrix", fail)
    ring = _fpoly_ring(3)
    t1, t2, t3 = (ring.gen(i) for i in range(3))
    assert typea_suites.f_poly_closed_form(3, PiLabel(1, 0)) == ring.one()
    assert typea_suites.f_poly_closed_form(3, PiLabel(0, 1)) == ring.one() + t1
    assert typea_suites.f_poly_closed_form(3, PiLabel(2, 1)) == (
        ring.one() + t1 + t1 * t2 + t1 * t2 * t3
    )
    assert typea_suites.f_poly_closed_form(3, PiLabel(1, 2)) == ring.one() + t2 + t2 * t3
    with pytest.raises(AssertionError):
        typea_suites.f_poly_via_matrix(3, PiLabel(0, 1))


def test_f_poly_via_matrix_values():
    assert str(typea_suites.f_poly_via_matrix(2, PiLabel(0, 1))) == "1+t1"
    assert typea_suites.f_poly_via_matrix(2, PiLabel(0, 0)) == _fpoly_ring(2).one()
    assert typea_suites.f_poly_via_matrix(3, PiLabel(2, 0)) == _fpoly_ring(3).one()
    with pytest.raises(ValueError):
        typea_suites.f_poly_via_matrix(2, PiLabel(0, 3))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_f_poly_matrix_equals_closed_form(n):
    m = cartan_from_label("A", n)
    c = coxeter_element(m, range(n))
    from coxclusters import pi_set

    for lab, _ in pi_set(m, c):
        assert typea_suites.f_poly_via_matrix(n, lab) == typea_suites.f_poly_closed_form(n, lab)


def test_diagonal_bijection():
    assert typea_suites.diagonal_of_label(2, PiLabel(0, 0)) == typea_suites.Diagonal(1, 3)
    for n in (2, 3, 4):
        for d in all_diagonals(n):
            assert typea_suites.diagonal_of_label(n, typea_suites.label_of_diagonal(n, d)) == d
    with pytest.raises(ValueError):
        typea_suites.label_of_diagonal(3, typea_suites.Diagonal(1, 2))


def test_initial_cluster_is_fan_at_first_vertex():
    n = 3
    fan = {typea_suites.diagonal_of_label(n, PiLabel(i, 0)) for i in range(n)}
    assert fan == {typea_suites.Diagonal(1, b) for b in range(3, n + 3)}


def test_hexagon_coefficients_verbatim():
    plus, minus = typea.universal_coeff_typea(3, (2, 4, 5, 6))
    assert plus == (typea_suites.Diagonal(1, 5), typea_suites.Diagonal(2, 5))
    assert minus == (typea_suites.Diagonal(3, 6), typea_suites.Diagonal(4, 6))


def test_degenerate_quadrilateral_rejected():
    with pytest.raises(ValueError):
        typea.universal_coeff_typea(3, (2, 2, 5, 6))
    with pytest.raises(ValueError):
        typea.universal_coeff_typea(3, (4, 2, 5, 6))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_strip_rule_against_engine(n):
    for res in typea_suites.typea_universal_coefficients(n):
        assert res.passed, res


@pytest.mark.parametrize("n", [2, 3])
def test_full_typea_suite(n):
    for res in typea_suites.typea_checks(n):
        assert res.passed, res


# -- reference copies of the replaced paths --------------------------------------------
#
# The strip rule used to scan every diagonal for a dual endpoint on each arc,
# and the relations used to be checked modulo (determinant - 1) with the
# full-size minor replaced by 1.  These copies keep the old paths as oracles.


def _scan_in_cyclic_interval(lo, x, hi):
    if lo <= hi:
        return lo <= x <= hi
    return x >= lo or x <= hi


def _scan_dual_on_arc(n, p, lo, hi):
    prev = n + 3 if p == 1 else p - 1
    return _scan_in_cyclic_interval(lo, prev, hi) and _scan_in_cyclic_interval(lo, p, hi)


def _scan_spanning_duals(n, arc1, arc2):
    out = []
    for d in all_diagonals(n):
        ends = (d.a, d.b)
        for first, second in (ends, ends[::-1]):
            if _scan_dual_on_arc(n, first, *arc1) and _scan_dual_on_arc(n, second, *arc2):
                out.append(d)
                break
    return tuple(sorted(out))


def _scan_universal_coeff(n, quad):
    i, j, k, l = quad
    return _scan_spanning_duals(n, (j, k), (l, i)), _scan_spanning_duals(n, (k, l), (i, j))


@pytest.mark.parametrize("n", range(1, 12))
def test_strip_rule_matches_diagonal_scan(n):
    for quad in itertools.combinations(range(1, n + 4), 4):
        got = typea.universal_coeff_typea(n, quad)
        # The scan's Diagonals equal their plain pairs, so check the type too.
        assert got == _scan_universal_coeff(n, quad), quad
        assert all(type(d) is tuple and [type(v) for v in d] == [int, int]
                   for side in got for d in side), quad


def _det_replaced(n, i, j):
    if (i, j) == (1, n + 1):
        return typea.matrix_ring(n).one()
    return typea.interval_minor(n, i, j)


def _quadruples(n):
    for i in range(1, n + 1):
        for j in range(i + 1, n + 2):
            for k in range(j - 1, n + 1):
                for l in range(k + 1, n + 2):
                    yield i, j, k, l


def _sides_det_replaced(n, i, j, k, l):
    ring = typea.matrix_ring(n)
    ycoef = ring.one()
    for t in range(j - 1, k + 1):
        ycoef = ycoef * ring.gen(n + t)
    lhs = _det_replaced(n, i, k) * _det_replaced(n, j, l)
    rhs = (
        ycoef * _det_replaced(n, i, j - 2) * _det_replaced(n, k + 2, l)
        + _det_replaced(n, i, l) * _det_replaced(n, j, k)
    )
    return lhs, rhs


def _relations_modulo_det(n):
    """Each relation with m(1,n+1) replaced by 1, zero or divisible by det - 1."""
    det_minus_one = typea.interval_minor(n, 1, n + 1) - typea.matrix_ring(n).one()
    out = []
    for quad in _quadruples(n):
        lhs, rhs = _sides_det_replaced(n, *quad)
        diff = lhs - rhs
        ok = diff == diff.ring.zero()
        if not ok:
            try:
                diff.exact_div(det_minus_one)
                ok = True
            except InexactDivision:
                ok = False
        out.append((quad, ok))
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_relations_match_modulo_det_check(n):
    got = [(r.quadruple, r.ok) for r in typea.verify_exchange_relations(n)]
    assert got == _relations_modulo_det(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_det_replacement_leaves_det_minus_one_times_inner_minor(n):
    ring = typea.matrix_ring(n)
    det_minus_one = typea.interval_minor(n, 1, n + 1) - ring.one()
    quads = [q for q in _quadruples(n) if q[0] == 1 and q[3] == n + 1]
    assert len(quads) == n * (n + 1) // 2
    for _, j, k, _ in quads:
        lhs, rhs = _sides_det_replaced(n, 1, j, k, n + 1)
        assert lhs - rhs == det_minus_one * typea.interval_minor(n, j, k)


def test_wrong_minor_fails_a_relation(monkeypatch, capsys):
    n = 3
    # Tabulate first: a patched recurrence would poison the minor cache.
    table = {
        (i, j): typea.interval_minor(n, i, j)
        for i in range(0, n + 3)
        for j in range(-1, n + 3)
    }
    ring = typea.matrix_ring(n)
    table[(2, 3)] = table[(2, 3)] + ring.one()
    monkeypatch.setattr(typea, "interval_minor", lambda n_, i, j: table[(i, j)])
    results = typea.verify_exchange_relations(n)
    assert any(not r.ok for r in results)
    assert main(["typea", "--n", str(n)]) == 1
    assert '"all_relations_ok": false' in capsys.readouterr().out
