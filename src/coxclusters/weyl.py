"""Weights, roots, and simple-reflection actions as exact integer algebra.

Weights are always stored in fundamental-weight coordinates and roots in
simple-root coordinates; conversions between the two bases are explicit.

:func:`apply_word` acts on roots only.  The rotation chains and
:func:`reflect_weight` act on weights through one in-place kernel,
:func:`_reflect_word`: s_j subtracts g_j alpha_j, and alpha_j in weight
coordinates is column j of the Cartan matrix, so a letter touches only g_j
and j's neighbours.  The subtracted g_j, summed per letter, are
lambda - w(lambda) in simple-root coordinates: integral by construction,
with no inverse of the Cartan matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .cartan import CartanMatrix, _bareiss


class InternalCheckError(RuntimeError):
    """An invariant that can only fail through an implementation bug."""


@dataclass(frozen=True)
class Weight:
    """Integer vector in the fundamental-weight basis."""

    g: tuple[int, ...]


@dataclass(frozen=True)
class Root:
    """Integer vector in the simple-root basis."""

    d: tuple[int, ...]

    def __neg__(self) -> "Root":
        return Root(tuple(-x for x in self.d))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.d)

    def is_nonnegative(self) -> bool:
        return all(x >= 0 for x in self.d)

    def is_positive(self) -> bool:
        return self.is_nonnegative() and not self.is_zero()


def simple_root(n: int, i: int) -> Root:
    return Root(tuple(1 if k == i else 0 for k in range(n)))


def reflect_root(m: CartanMatrix, i: int, r: Root) -> Root:
    """Apply the i-th simple reflection to a root."""
    c = sum(m.a[i][j] * r.d[j] for j in range(m.n))
    d = list(r.d)
    d[i] -= c
    return Root(tuple(d))


def reflect_weight(m: CartanMatrix, i: int, w: Weight) -> Weight:
    """Apply the i-th simple reflection to a weight: :func:`_reflect_word`
    with the one letter i."""
    g = list(w.g)
    _reflect_word(m, (i,), g)
    return Weight(tuple(g))


@lru_cache(maxsize=None)
def _sparse_columns(m: CartanMatrix) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Column j of the Cartan matrix off the diagonal, as (k, a[k][j]) pairs."""
    return tuple(tuple((k, m.a[k][j]) for k in m.neighbors(j)) for j in range(m.n))


def _reflect_word(m: CartanMatrix, word: Sequence[int], g: list[int]) -> list[int]:
    """Apply a word to the weight coordinates ``g`` in place, rightmost letter
    first; return lambda - w(lambda) in simple-root coordinates, the g_j each
    letter j subtracted, summed per index.  Letters must lie in 0..n-1."""
    cols = _sparse_columns(m)
    out = [0] * m.n
    for j in reversed(word):
        gj = g[j]
        if gj:
            g[j] = -gj
            for k, a in cols[j]:
                g[k] -= gj * a
            out[j] += gj
    return out


def apply_word(m: CartanMatrix, word: Sequence[int], r: Root) -> Root:
    """Left action of a product of simple reflections on a root; the
    rightmost letter acts first."""
    for letter in reversed(word):
        if not 0 <= letter < m.n:
            raise IndexError(f"letter {letter} out of range for rank {m.n}")
        r = reflect_root(m, letter, r)
    return r


@lru_cache(maxsize=None)
def _cartan_adjugate(m: CartanMatrix) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(det, det * inverse) with integer entries, for divisibility tests.

    :func:`cartan._bareiss` on [A | I] leaves [det * I | adj].  The leading
    principal minors of a finite-type Cartan matrix are positive, so no row
    exchange is needed; adj * A = det * I is checked all the same.
    """
    n, a = m.n, m.a
    rows = [list(a[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    det = _bareiss(rows)[-1]
    adj = tuple(tuple(row[n:]) for row in rows)
    product = [[sum(r[k] * a[k][j] for k in range(n)) for j in range(n)] for r in adj]
    if det <= 0 or product != [[det * (i == j) for j in range(n)] for i in range(n)]:
        raise InternalCheckError("Bareiss elimination did not give adj * A = det * I")
    return det, adj


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
