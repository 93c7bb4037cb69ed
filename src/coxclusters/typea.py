"""Tridiagonal-matrix realization in type A.

Cluster variables of the linearly ordered type-A algebra are consecutive
principal minors of a symbolic tridiagonal matrix with unit subdiagonal and
determinant one.  Intervals [i, j] of 1-based indices name the minors.  The
exchange relations among them are checked as polynomial identities in the
matrix entries, with the determinant kept as the full-size minor; they hold
on the cell where it is 1.  The matching polygon picture names the same
variables by diagonals of a convex (n+3)-gon, with the universal coefficient
of an exchange relation read off a strip-membership rule for dual diagonals:
the diagonals joining the half-open vertex ranges of two boundary arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .algebra import _fpoly_ring
from .coxeter import PiLabel
from .poly import LaurentPoly, PolyRing


@lru_cache(maxsize=None)
def matrix_ring(n: int) -> PolyRing:
    """Polynomial slots v1..v_{n+1} (diagonal) and y1..yn (superdiagonal)."""
    return PolyRing(
        tuple(f"v{i}" for i in range(1, n + 2)) + tuple(f"y{i}" for i in range(1, n + 1))
    )


def tridiagonal(n: int) -> tuple[tuple[LaurentPoly, ...], ...]:
    """Rows of the symbolic (n+1)x(n+1) tridiagonal matrix over
    :func:`matrix_ring`: diagonal v_i, superdiagonal y_i, subdiagonal 1."""
    ring = matrix_ring(n)
    size = n + 1
    rows = []
    for r in range(size):
        row = []
        for c in range(size):
            if r == c:
                row.append(ring.gen(r))
            elif c == r + 1:
                row.append(ring.gen(size + r))
            elif r == c + 1:
                row.append(ring.one())
            else:
                row.append(ring.zero())
        rows.append(tuple(row))
    return tuple(rows)


def determinant(rows) -> LaurentPoly:
    """Cofactor expansion along the first row, memoized on column subsets."""
    rows = [tuple(row) for row in rows]
    if not rows:
        raise ValueError("empty matrix")
    ring = rows[0][0].ring
    ncols = len(rows[0])
    cache: dict = {}

    def minor(r: int, cols: tuple[int, ...]) -> LaurentPoly:
        if not cols:
            return ring.one()
        key = (r, cols)
        got = cache.get(key)
        if got is not None:
            return got
        total = ring.zero()
        sign = 1
        for pos, ccol in enumerate(cols):
            entry = rows[r][ccol]
            if not entry.is_zero():
                sub = minor(r + 1, cols[:pos] + cols[pos + 1:])
                piece = entry * sub
                total = total + (piece if sign > 0 else -piece)
            sign = -sign
        cache[key] = total
        return total

    return minor(0, tuple(range(ncols)))


def generic_minor(mat, rows, cols) -> LaurentPoly:
    """Minor of the matrix with rows ``mat`` on the given 1-based row and column sets."""
    picked = [tuple(mat[r - 1][c - 1] for c in cols) for r in rows]
    return determinant(picked)


@lru_cache(maxsize=None)
def interval_minor(n: int, i: int, j: int) -> LaurentPoly:
    """Principal minor on rows and columns i..j (1-based), by the three-term recurrence.

    Equals 1 outside 1 <= i <= j <= n+1.
    """
    ring = matrix_ring(n)
    if not (1 <= i <= j <= n + 1):
        return ring.one()
    if i == j:
        return ring.gen(i - 1)
    # Recurrence on the right endpoint: append v_j times the previous minor
    # minus y_{j-1} times the one before.
    vj = ring.gen(j - 1)
    yk = ring.gen(n + 1 + j - 2)
    return vj * interval_minor(n, i, j - 1) - yk * interval_minor(n, i, j - 2)


@dataclass(frozen=True)
class RelationCheck:
    quadruple: tuple[int, int, int, int]
    ok: bool


def verify_exchange_relations(n: int) -> tuple[RelationCheck, ...]:
    """Symbolically verify every admissible interval exchange relation.

    For 1 <= i < j <= k + 1 <= l <= n + 1 the relation reads
    m(i,k) m(j,l) = y_{j-1} .. y_k m(i,j-2) m(k+2,l) + m(i,l) m(j,k), with
    m(1,n+1) kept as the full determinant, and it must hold as an identity
    of polynomials.  Only the factor m(i,l) with (i,l) = (1,n+1) is the
    full-size minor; setting it to 1 moves the right side by
    (determinant - 1) m(j,k).  So the identity implies the relation modulo
    (determinant - 1), which is the relation on the cell where the
    determinant is 1.
    """
    ring = matrix_ring(n)
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 2):
            for k in range(j - 1, n + 1):
                # y_{j-1} .. y_k sit in slots n + j - 1 .. n + k
                ycoef = ring.monomial((0,) * (n + j - 1) + (1,) * (k - j + 2) + (0,) * (n - k))
                outer = ycoef * interval_minor(n, i, j - 2)
                m_ik = interval_minor(n, i, k)
                m_jk = interval_minor(n, j, k)
                for l in range(k + 1, n + 2):
                    lhs = m_ik * interval_minor(n, j, l)
                    rhs = outer * interval_minor(n, k + 2, l) + interval_minor(n, i, l) * m_jk
                    out.append(RelationCheck(quadruple=(i, j, k, l), ok=lhs == rhs))
    return tuple(out)


# -- F-polynomials from the matrix product ------------------------------------------


@lru_cache(maxsize=None)
def _fmatrix(n: int):
    """Product of the lower unit elementaries at 1 and the upper ones at t_n..t_1.

    Each factor is the identity plus v at the 0-based position (r, c), so
    multiplying the product by it on the right is the column operation
    column c += v * column r.  The factors are, in order, the lower ones
    (r, c) = (i + 1, i) with v = 1 for i = 0 .. n-1, then the upper ones
    (r, c) = (i, i + 1) with v = t_{i+1} for i = n-1 .. 0.  The rows are
    returned, with entries in the F-polynomial ring of :mod:`.algebra`.
    """
    ring = _fpoly_ring(n)
    size = n + 1
    prod = [[ring.one() if a == b else ring.zero() for b in range(size)] for a in range(size)]
    steps = [(i + 1, i, ring.one()) for i in range(n)]
    steps += [(i, i + 1, ring.gen(i)) for i in reversed(range(n))]
    for r, c, v in steps:
        for row in prod:
            row[c] = row[c] + v * row[r]
    return prod


def f_poly_via_matrix(n: int, label: PiLabel) -> LaurentPoly:
    """F-polynomial of the variable labelled (i, m) for the linear order, as a minor.

    The label (i, m) corresponds to the interval [m+1, m+i+1], i.e. the minor
    on rows and columns m+1 .. m+i+1 of the symbolic product matrix.
    """
    k = label.i + 1
    mshift = label.m
    if not (1 <= k <= n and 0 <= mshift <= n + 1 - k):
        raise ValueError(f"label ({label.i}, {label.m}) out of range for rank {n}")
    prod = _fmatrix(n)
    rows = range(mshift, mshift + k)  # 0-based rows m+1 .. m+k
    picked = [tuple(prod[r][c] for c in rows) for r in rows]
    return determinant(picked)


def f_poly_closed_form(n: int, label: PiLabel) -> LaurentPoly:
    """1 + t_m + t_m t_{m+1} + ... + t_m .. t_{m+k-1}, empty sum for the initial variables."""
    ring = _fpoly_ring(n)
    total = ring.one()
    if label.m == 0:
        return total
    exps = [0] * n
    for t in range(label.m - 1, label.m + label.i):
        exps[t] += 1
        total = total + ring.monomial(tuple(exps))
    return total


# -- polygon picture ------------------------------------------------------------------


class Diagonal(NamedTuple):
    """Vertex pair a < b of the convex (n+3)-gon; boundary sides are unit
    variables.  A tuple, so it equals and orders as its plain pair (a, b)."""

    a: int
    b: int

    def is_boundary(self, n: int) -> bool:
        return self.b - self.a == 1 or (self.a, self.b) == (1, n + 3)


def diagonal_of_label(n: int, label: PiLabel) -> Diagonal:
    """Interval [m+1, m+k] maps to the diagonal cutting off its vertex range."""
    i = label.m + 1
    j = label.m + label.i + 1
    return Diagonal(i, j + 2)


def label_of_diagonal(n: int, diag: Diagonal) -> PiLabel:
    if diag.is_boundary(n):
        raise ValueError(f"{diag} is a boundary side, not a diagonal")
    k = diag.b - diag.a - 1
    m = diag.a - 1
    if not (1 <= k <= n and 0 <= m <= n + 1 - k):
        raise ValueError(f"{diag} is not a diagonal of the {n + 3}-gon")
    return PiLabel(k - 1, m)


def _arc_vertices(n: int, lo: int, hi: int) -> list[int]:
    """Vertices p with lo < p <= hi counter-clockwise on the (n+3)-gon.

    These are exactly the p whose dual vertex p' (midpoint of the side ending
    at p) lies on the boundary arc from lo to hi.
    """
    size = n + 3
    return [(lo + t) % size + 1 for t in range((hi - lo) % size)]


def _spanning_duals(n: int, arc1: tuple[int, int], arc2: tuple[int, int]):
    """Diagonals whose dual segment spans the strip closed off by the two arcs.

    The strip between two non-crossing chords is bounded by the chords and
    two boundary arcs; a dual diagonal is contained in it exactly when it
    stretches across, one endpoint on the midpoint of a side of each arc.
    So the diagonals are the pairs of one vertex from each arc's half-open
    vertex range.  The arcs are disjoint, so no pair occurs twice, and each
    gap between them holds a chord endpoint, so no pair is a boundary side.
    """
    ends = _arc_vertices(n, *arc2)
    return tuple(sorted([Diagonal(p, q) if p < q else Diagonal(q, p)
                         for p in _arc_vertices(n, *arc1) for q in ends]))


def universal_coeff_typea(
    n: int, quad: tuple[int, int, int, int]
) -> tuple[tuple[Diagonal, ...], tuple[Diagonal, ...]]:
    """Universal coefficients of the exchange across a quadrilateral.

    ``quad = (i, j, k, l)`` in counter-clockwise order names the exchange of
    the crossing diagonals (i,k) and (j,l).  The first multiset goes with the
    product of the sides (i,j), (k,l): the generators of all diagonals whose
    dual spans the strip those two sides bound, i.e. with one dual endpoint
    on the arc from j to k and the other on the arc from l around to i.  The
    second multiset is the same rule for the sides (j,k) and (l,i).  In
    vertices: the pairs {a, b} with j < a <= k and b cyclically after l up
    to i, resp. with k < a <= l and i < b <= j; no pair is a boundary side.
    """
    i, j, k, l = quad
    if not (1 <= i < j < k < l <= n + 3):
        raise ValueError(f"degenerate quadrilateral {quad}")
    plus = _spanning_duals(n, (j, k), (l, i))
    minus = _spanning_duals(n, (k, l), (i, j))
    return plus, minus


def crossing_quadruple(d1: Diagonal, d2: Diagonal) -> tuple[int, int, int, int] | None:
    """The cyclically ordered quadruple when the two diagonals cross, else None."""
    a, b = sorted((d1, d2))
    if a.a < b.a < a.b < b.b:
        return (a.a, b.a, a.b, b.b)
    return None
