"""Tridiagonal-matrix realization in type A: what ``coxclusters typea`` reports.

Cluster variables of the linearly ordered type-A algebra are consecutive
principal minors of a symbolic tridiagonal matrix with unit subdiagonal and
determinant one.  Intervals [i, j] of 1-based indices name the minors.  The
exchange relations among them are checked as polynomial identities in the
matrix entries, with the determinant kept as the full-size minor; they hold
on the cell where it is 1.  Each relation is also an exchange across a
quadrilateral of a convex (n+3)-gon, whose universal coefficients are read
off a strip-membership rule for dual diagonals: the diagonals joining the
half-open vertex ranges of two boundary arcs.  A diagonal is its vertex pair
(a, b) with a < b, a plain tuple of ints, and each side of a relation is the
sorted tuple of its pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .poly import LaurentPoly, PolyRing


@lru_cache(maxsize=None)
def matrix_ring(n: int) -> PolyRing:
    """Polynomial slots v1..v_{n+1} (diagonal) and y1..yn (superdiagonal)."""
    return PolyRing(
        tuple(f"v{i}" for i in range(1, n + 2)) + tuple(f"y{i}" for i in range(1, n + 1))
    )


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


# -- polygon picture ------------------------------------------------------------------


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
    return tuple(sorted([(p, q) if p < q else (q, p)
                         for p in _arc_vertices(n, *arc1) for q in ends]))


def universal_coeff_typea(
    n: int, quad: tuple[int, int, int, int]
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """Universal coefficients of the exchange across a quadrilateral.

    ``quad = (i, j, k, l)`` in counter-clockwise order names the exchange of
    the crossing diagonals (i,k) and (j,l).  The first multiset goes with the
    product of the sides (i,j), (k,l): the generators of all diagonals whose
    dual spans the strip those two sides bound, i.e. with one dual endpoint
    on the arc from j to k and the other on the arc from l around to i.  The
    second multiset is the same rule for the sides (j,k) and (l,i).  In
    vertices: the pairs {a, b} with j < a <= k and b cyclically after l up
    to i, resp. with k < a <= l and i < b <= j; no pair is a boundary side.
    Each multiset is the sorted tuple of its vertex pairs ``(a, b)``, a < b.
    """
    i, j, k, l = quad
    if not (1 <= i < j < k < l <= n + 3):
        raise ValueError(f"degenerate quadrilateral {quad}")
    plus = _spanning_duals(n, (j, k), (l, i))
    minus = _spanning_duals(n, (k, l), (i, j))
    return plus, minus

