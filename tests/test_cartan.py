import pytest

from coxclusters import (
    InvalidCartanMatrix,
    bipartition,
    cartan_from_label,
    cartan_from_matrix_text,
    cartan_from_text,
    direct_sum,
    validate,
)
from conftest import indecomposable_types


def test_a2_matrix():
    m = cartan_from_label("A", 2)
    assert m.a == ((2, -1), (-1, 2))
    assert m.d == (1, 1)


def test_g2_orientation():
    # Documented choice: first node long, triple bond in the lower left.
    m = cartan_from_label("G", 2)
    assert m.a == ((2, -1), (-3, 2))
    assert m.d == (3, 1)


def test_rank_below_minimum_rejected():
    with pytest.raises(InvalidCartanMatrix):
        cartan_from_label("B", 1)
    with pytest.raises(InvalidCartanMatrix):
        cartan_from_label("E", 9)
    with pytest.raises(InvalidCartanMatrix):
        cartan_from_label("H", 3)


def test_direct_sum_blocks():
    a1 = cartan_from_label("A", 1)
    assert direct_sum(a1, a1).a == ((2, 0), (0, 2))
    a2 = cartan_from_label("A", 2)
    s = direct_sum(a2, a1)
    assert s.a == ((2, -1, 0), (-1, 2, 0), (0, 0, 2))
    assert s.components == ((0, 1), (2,))
    other = direct_sum(a1, a2)
    assert other.a == ((2, 0, 0), (0, 2, -1), (0, -1, 2))
    assert other.a != s.a  # differ by the index permutation


def test_direct_sum_commutes_with_components():
    b2 = cartan_from_label("B", 2)
    g2 = cartan_from_label("G", 2)
    s = direct_sum(b2, g2)
    assert s.components == ((0, 1), (2, 3))
    assert [tuple(s.a[i][j] for j in comp) for comp in s.components for i in comp] == [
        row for mm in (b2, g2) for row in [tuple(r) for r in mm.a]
    ]


def test_validate_accepts_simple():
    m = validate([[2, -1], [-1, 2]])
    assert m.d == (1, 1)


@pytest.mark.parametrize(
    "matrix",
    [
        [[2, -2], [-2, 2]],  # affine A1: determinant zero
        [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],  # affine A2, a 3-cycle: determinant zero
        [[2, -3], [-3, 2]],  # hyperbolic: second leading minor -5
        [[2, -1], [-5, 2]],  # symmetrizable, second leading minor -1
    ],
    ids=["affine-A1", "affine-A2", "hyperbolic", "negative-minor"],
)
def test_validate_rejects_affine(matrix):
    with pytest.raises(InvalidCartanMatrix, match="positive definite"):
        validate(matrix)


def test_validate_rejects_asymmetric_zero_pattern():
    with pytest.raises(InvalidCartanMatrix, match="zero pattern"):
        validate([[2, -1], [0, 2]])


def test_validate_rejects_bad_diagonal_and_positive_offdiag():
    with pytest.raises(InvalidCartanMatrix):
        validate([[1, -1], [-1, 2]])
    with pytest.raises(InvalidCartanMatrix):
        validate([[2, 1], [1, 2]])


def test_bipartition_path():
    assert bipartition(cartan_from_label("A", 3)) == (1, -1, 1)


def test_bipartition_d4_center():
    m = cartan_from_label("D", 4)
    eps = bipartition(m)
    center = 1  # the degree-3 node
    assert all(eps[j] == -eps[center] for j in m.neighbors(center))


def test_bipartition_single_node():
    assert bipartition(cartan_from_label("A", 1)) == (1,)


@pytest.mark.parametrize("letter,rank", indecomposable_types(8))
def test_symmetrizer_and_coloring_invariants(letter, rank):
    m = cartan_from_label(letter, rank)
    for i in range(m.n):
        for j in range(m.n):
            assert m.d[i] * m.a[i][j] == m.d[j] * m.a[j][i]
    eps = bipartition(m)
    for i, j in m.edges():
        assert eps[i] * eps[j] == -1
    assert len(m.components) == 1


def test_label_parsing():
    assert cartan_from_text("A3").a == cartan_from_label("A", 3).a
    s = cartan_from_text("A2xA1")
    assert s.components == ((0, 1), (2,))
    with pytest.raises(InvalidCartanMatrix):
        cartan_from_text("A0")
    with pytest.raises(InvalidCartanMatrix):
        cartan_from_text("Q5")


def test_matrix_text_round_trip():
    text = "2 -1\n-1 2\n"
    m = cartan_from_matrix_text(text)
    assert m.a == ((2, -1), (-1, 2))
    with pytest.raises(InvalidCartanMatrix):
        cartan_from_matrix_text("")


def test_transpose_of_twisted_types():
    b3 = cartan_from_label("B", 3)
    c3 = cartan_from_label("C", 3)
    assert b3.transpose().a == c3.a
    f4 = cartan_from_label("F", 4)
    assert f4.transpose().transpose().a == f4.a
