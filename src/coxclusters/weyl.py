"""Weights, roots, and simple-reflection actions as exact integer algebra.

Weights are always stored in fundamental-weight coordinates and roots in
simple-root coordinates; conversions between the two bases are explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cartan import CartanMatrix


@dataclass(frozen=True)
class Weight:
    """Integer vector in the fundamental-weight basis."""

    g: tuple[int, ...]

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(x + y for x, y in zip(self.g, other.g)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(x - y for x, y in zip(self.g, other.g)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-x for x in self.g))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.g)


@dataclass(frozen=True)
class Root:
    """Integer vector in the simple-root basis."""

    d: tuple[int, ...]

    def __add__(self, other: "Root") -> "Root":
        return Root(tuple(x + y for x, y in zip(self.d, other.d)))

    def __sub__(self, other: "Root") -> "Root":
        return Root(tuple(x - y for x, y in zip(self.d, other.d)))

    def __neg__(self) -> "Root":
        return Root(tuple(-x for x in self.d))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.d)

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for x in self.d)

    def is_positive(self) -> bool:
        return self.is_nonnegative() and not self.is_zero()


def fundamental_weight(n: int, i: int) -> Weight:
    return Weight(tuple(1 if k == i else 0 for k in range(n)))


def simple_root(n: int, i: int) -> Root:
    return Root(tuple(1 if k == i else 0 for k in range(n)))


def reflect_root(m: CartanMatrix, i: int, r: Root) -> Root:
    """Apply the i-th simple reflection to a root."""
    c = sum(m.a[i][j] * r.d[j] for j in range(m.n))
    d = list(r.d)
    d[i] -= c
    return Root(tuple(d))


def reflect_weight(m: CartanMatrix, i: int, w: Weight) -> Weight:
    """Apply the i-th simple reflection to a weight.

    In weight coordinates the i-th simple root is column i of the Cartan
    matrix, and the reflection subtracts g[i] copies of it.
    """
    gi = w.g[i]
    if gi == 0:
        return w
    return Weight(tuple(w.g[k] - gi * m.a[k][i] for k in range(m.n)))


def apply_word(m: CartanMatrix, word: Sequence[int], x):
    """Left action of a product of simple reflections; the rightmost letter acts first."""
    reflect = reflect_root if isinstance(x, Root) else reflect_weight
    for letter in reversed(word):
        if not 0 <= letter < m.n:
            raise IndexError(f"letter {letter} out of range for rank {m.n}")
        x = reflect(m, letter, x)
    return x


def root_to_weight_coords(m: CartanMatrix, r: Root) -> Weight:
    """Express a root-lattice vector in weight coordinates (column map of the Cartan matrix)."""
    return Weight(tuple(sum(m.a[k][j] * r.d[j] for j in range(m.n)) for k in range(m.n)))


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction elimination."""
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


@lru_cache(maxsize=None)
def _cartan_adjugate(m: CartanMatrix) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(det, det * inverse) with integer entries, for divisibility tests.

    Entry (i, k) of the adjugate is the signed minor of the Cartan matrix
    without row k and column i.
    """
    n, a = m.n, m.a
    adj = tuple(
        tuple(
            (-1) ** (i + k)
            * _det([[a[r][s] for s in range(n) if s != i] for r in range(n) if r != k])
            for k in range(n)
        )
        for i in range(n)
    )
    return _det(a), adj


def weight_as_root(m: CartanMatrix, w: Weight) -> Root | None:
    """A weight in simple-root coordinates: a Root when integral, None otherwise."""
    det, adj = _cartan_adjugate(m)
    g = w.g
    out = []
    for row in adj:
        v = sum(r * x for r, x in zip(row, g))
        if v % det:
            return None
        out.append(v // det)
    return Root(tuple(out))
