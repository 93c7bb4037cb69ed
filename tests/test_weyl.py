import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxclusters import (
    CartanMatrix,
    InternalCheckError,
    Root,
    Weight,
    apply_word,
    cartan_from_label,
    cartan_from_text,
    reflect_root,
    reflect_weight,
    simple_root,
    weight_as_root,
)
from coxclusters.weyl import _cartan_adjugate, _reflect_word
from conftest import REFERENCE_TYPES, fundamental_weight, indecomposable_types, weight_difference


def root_to_weight_coords(m, r):
    """Express a root-lattice vector in weight coordinates (column map of the Cartan matrix)."""
    return Weight(tuple(sum(m.a[k][j] * r.d[j] for j in range(m.n)) for k in range(m.n)))


def word_on_weight(m, word, w):
    """A word applied to a weight by the kernel of the rotation chains."""
    g = list(w.g)
    _reflect_word(m, word, g)
    return Weight(tuple(g))


def test_reflection_on_adjacent_root(a2):
    assert reflect_root(a2, 0, simple_root(2, 1)) == Root((1, 1))


def test_reflection_negates_own_root(a2):
    for i in range(2):
        assert reflect_root(a2, i, simple_root(2, i)) == Root(tuple(-x for x in simple_root(2, i).d))


def test_root_reflection_involutive(a2):
    r = simple_root(2, 1)
    assert reflect_root(a2, 0, reflect_root(a2, 0, r)) == r


def test_weight_reflection(a2):
    # alpha_1 = 2 w_1 - w_2, so s_1 w_1 = w_1 - alpha_1 = (-1, 1).
    assert reflect_weight(a2, 0, fundamental_weight(2, 0)) == Weight((-1, 1))
    assert reflect_weight(a2, 0, fundamental_weight(2, 1)) == fundamental_weight(2, 1)
    w = fundamental_weight(2, 0)
    assert reflect_weight(a2, 0, reflect_weight(a2, 0, w)) == w


def test_word_action(a2):
    w1 = fundamental_weight(2, 0)
    once = word_on_weight(a2, (0, 1), w1)
    assert once == Weight((-1, 1))
    assert word_on_weight(a2, (), w1) == w1
    twice = word_on_weight(a2, (0, 1), once)
    assert twice == Weight((0, -1))


def test_root_to_weight(a2):
    assert root_to_weight_coords(a2, simple_root(2, 0)) == Weight((2, -1))
    assert root_to_weight_coords(a2, Root((0, 0))) == Weight((0, 0))
    assert root_to_weight_coords(a2, Root((1, 1))) == Weight((1, 1))


def test_weight_to_root(a2):
    assert weight_as_root(a2, Weight((2, -1))) == Root((1, 0))
    w1 = fundamental_weight(2, 0)
    diff = weight_difference(w1, word_on_weight(a2, (0, 1), w1))
    assert weight_as_root(a2, diff) == Root((1, 0))
    assert weight_as_root(a2, w1) is None


@pytest.mark.parametrize("letter,rank", indecomposable_types(4))
def test_reflections_involutive_everywhere(letter, rank):
    m = cartan_from_label(letter, rank)
    rng = random.Random(11)
    for _ in range(20):
        i = rng.randrange(m.n)
        r = Root(tuple(rng.randint(-3, 3) for _ in range(m.n)))
        w = Weight(tuple(rng.randint(-3, 3) for _ in range(m.n)))
        assert reflect_root(m, i, reflect_root(m, i, r)) == r
        assert reflect_weight(m, i, reflect_weight(m, i, w)) == w


@pytest.mark.parametrize("letter,rank", indecomposable_types(4))
def test_basis_conversion_round_trip(letter, rank):
    m = cartan_from_label(letter, rank)
    rng = random.Random(7)
    for _ in range(20):
        r = Root(tuple(rng.randint(-4, 4) for _ in range(m.n)))
        assert weight_as_root(m, root_to_weight_coords(m, r)) == r


def _brute_force_group(m):
    """All group elements as tuples of fundamental-weight images."""
    n = m.n
    identity = tuple(fundamental_weight(n, i) for i in range(n))
    seen = {identity: ()}
    frontier = [identity]
    while frontier:
        nxt = []
        for elem in frontier:
            for i in range(n):
                image = tuple(reflect_weight(m, i, w) for w in elem)
                if image not in seen:
                    seen[image] = seen[elem]  # word irrelevant here
                    nxt.append(image)
        frontier = nxt
    return set(seen)


@pytest.mark.parametrize("spec", ["A3", "B3", "G2", "A1xA2"])
def test_word_action_lands_in_brute_forced_group(spec):
    m = cartan_from_text(spec)
    group = _brute_force_group(m)
    orders = {"A3": 24, "B3": 48, "G2": 12, "A1xA2": 12}
    assert len(group) == orders[spec]
    rng = random.Random(3)
    for _ in range(25):
        word = [rng.randrange(m.n) for _ in range(rng.randrange(8))]
        image = tuple(word_on_weight(m, word, fundamental_weight(m.n, i)) for i in range(m.n))
        assert image in group
        back = word_on_weight(m, word + list(reversed(word)), fundamental_weight(m.n, 0))
        assert back == fundamental_weight(m.n, 0)


def test_word_letters_out_of_range_raise(a2):
    for word in ((0, 2), (-1,), (1, -3, 0)):
        with pytest.raises(IndexError):
            apply_word(a2, word, simple_root(2, 0))


_HYPOTHESIS_TYPES = ("A1", "A4", "B3", "C3", "D4", "G2", "F4", "E6", "A2xA1", "B2xG2", "A1xA1xA1")


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.sampled_from(_HYPOTHESIS_TYPES), st.data())
def test_word_kernel_matches_reflection_fold(spec, data):
    """The kernel on a weight is the fold of single reflections, rightmost
    letter first, and its vector is lambda - w(lambda) in root coordinates;
    apply_word on a root, in weight coordinates, is the kernel on its image."""
    m = cartan_from_text(spec)
    word = data.draw(st.lists(st.integers(0, m.n - 1), max_size=12))
    coords = st.lists(st.integers(-4, 4), min_size=m.n, max_size=m.n)
    w = Weight(tuple(data.draw(coords)))
    folded = reduce(lambda x, j: reflect_weight(m, j, x), reversed(word), w)
    g = list(w.g)
    diff = _reflect_word(m, word, g)
    assert tuple(g) == folded.g
    assert root_to_weight_coords(m, Root(tuple(diff))) == weight_difference(w, folded)
    r = Root(tuple(data.draw(coords)))
    image = word_on_weight(m, word, root_to_weight_coords(m, r))
    assert root_to_weight_coords(m, apply_word(m, word, r)) == image


def _fraction_det(rows):
    """Exact determinant by fraction elimination (the former implementation)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(mat)):
        pivot = next((r for r in range(k, len(mat)) if mat[r][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            mat[k], mat[pivot] = mat[pivot], mat[k]
            det = -det
        det *= mat[k][k]
        for r in range(k + 1, len(mat)):
            f = mat[r][k] / mat[k][k]
            for cc in range(k, len(mat)):
                mat[r][cc] -= f * mat[k][cc]
    return int(det)


def cofactor_adjugate(m):
    """(det, adjugate) from signed minors, one Fraction determinant each: the
    reference the fraction-free elimination is compared against."""
    n, a = m.n, m.a
    adj = tuple(
        tuple(
            (-1) ** (i + k)
            * _fraction_det([[a[r][s] for s in range(n) if s != i] for r in range(n) if r != k])
            for k in range(n)
        )
        for i in range(n)
    )
    return _fraction_det(a), adj


@pytest.mark.parametrize("spec", REFERENCE_TYPES)
def test_adjugate_matches_cofactor_reference(spec):
    m = cartan_from_text(spec)
    assert _cartan_adjugate(m) == cofactor_adjugate(m)


def test_adjugate_raises_on_singular_matrix():
    # The affine A1 matrix is not of finite type; validate() rejects it, so
    # it is built directly to reach the elimination's own check.
    affine = CartanMatrix(n=2, a=((2, -2), (-2, 2)), d=(1, 1), components=((0, 1),))
    with pytest.raises(InternalCheckError):
        _cartan_adjugate(affine)
