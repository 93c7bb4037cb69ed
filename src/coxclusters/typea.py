"""Tridiagonal-matrix realization in type A.

Cluster variables of the linearly ordered type-A algebra are consecutive
principal minors of a symbolic tridiagonal matrix with unit subdiagonal and
determinant one.  Intervals [i, j] of 1-based indices name the minors; the
matching polygon picture names the same variables by diagonals of a convex
(n+3)-gon, with the universal coefficient of an exchange relation read off a
strip-membership rule for dual diagonals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .coxeter import PiLabel
from .poly import InexactDivision, LaurentPoly, PolyRing


@lru_cache(maxsize=None)
def matrix_ring(n: int) -> PolyRing:
    """Polynomial slots v1..v_{n+1} (diagonal) and y1..yn (superdiagonal)."""
    return PolyRing(
        tuple(f"v{i}" for i in range(1, n + 2)) + tuple(f"y{i}" for i in range(1, n + 1))
    )


@dataclass(frozen=True)
class SymTriMatrix:
    """Symbolic (n+1)x(n+1) tridiagonal matrix: diagonal v_i, superdiagonal y_i, subdiagonal 1."""

    n: int
    entries: tuple[tuple[LaurentPoly, ...], ...]

    @staticmethod
    def build(n: int) -> "SymTriMatrix":
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
        return SymTriMatrix(n=n, entries=tuple(rows))


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


def generic_minor(mat: SymTriMatrix, rows, cols) -> LaurentPoly:
    """Minor with the given 1-based row and column sets."""
    picked = [tuple(mat.entries[r - 1][c - 1] for c in cols) for r in rows]
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


def det_poly(n: int) -> LaurentPoly:
    return interval_minor(n, 1, n + 1)


def _relation_factor(n: int, i: int, j: int) -> LaurentPoly:
    """Interval minor with the determinant slot structurally replaced by 1."""
    if (i, j) == (1, n + 1):
        return matrix_ring(n).one()
    return interval_minor(n, i, j)


@dataclass(frozen=True)
class RelationCheck:
    quadruple: tuple[int, int, int, int]
    ok: bool


def verify_exchange_relations(n: int) -> tuple[RelationCheck, ...]:
    """Symbolically verify every admissible interval exchange relation.

    Each relation must hold identically, or identically modulo the principal
    ideal generated by (determinant - 1) once the full-size minor is replaced
    by 1.
    """
    ring = matrix_ring(n)
    det_minus_one = det_poly(n) - ring.one()
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 2):
            for k in range(j - 1, n + 1):
                for l in range(k + 1, n + 2):
                    ycoef = ring.one()
                    for t in range(j - 1, k + 1):
                        ycoef = ycoef * ring.gen(n + 1 + t - 1)
                    lhs = _relation_factor(n, i, k) * _relation_factor(n, j, l)
                    rhs = (
                        ycoef * _relation_factor(n, i, j - 2) * _relation_factor(n, k + 2, l)
                        + _relation_factor(n, i, l) * _relation_factor(n, j, k)
                    )
                    diff = lhs - rhs
                    ok = diff.is_zero()
                    if not ok:
                        try:
                            diff.exact_div(det_minus_one)
                            ok = True
                        except InexactDivision:
                            ok = False
                    out.append(RelationCheck(quadruple=(i, j, k, l), ok=ok))
    return tuple(out)


# -- F-polynomials from the matrix product ------------------------------------------


def _elementary(ring: PolyRing, size: int, r: int, c: int, value: LaurentPoly):
    rows = []
    for a in range(size):
        row = []
        for b in range(size):
            if a == b:
                row.append(ring.one())
            elif (a, b) == (r, c):
                row.append(value)
            else:
                row.append(ring.zero())
        rows.append(row)
    return rows


def _mat_mul(ring: PolyRing, A, B):
    size = len(A)
    out = []
    for a in range(size):
        row = []
        for b in range(size):
            total = ring.zero()
            for t in range(size):
                if not A[a][t].is_zero() and not B[t][b].is_zero():
                    total = total + A[a][t] * B[t][b]
            row.append(total)
        out.append(row)
    return out


@lru_cache(maxsize=None)
def _fmatrix(n: int):
    """Product of the lower unit elementaries at 1 and the upper ones at t_n..t_1."""
    ring = PolyRing(tuple(f"t{i}" for i in range(1, n + 1)))
    size = n + 1
    prod = [[ring.one() if a == b else ring.zero() for b in range(size)] for a in range(size)]
    for i in range(n):
        prod = _mat_mul(ring, prod, _elementary(ring, size, i + 1, i, ring.one()))
    for i in reversed(range(n)):
        prod = _mat_mul(ring, prod, _elementary(ring, size, i, i + 1, ring.gen(i)))
    return ring, prod


def f_poly_via_matrix(n: int, label: PiLabel) -> LaurentPoly:
    """F-polynomial of the variable labelled (i, m) for the linear order, as a minor.

    The label (i, m) corresponds to the interval [m+1, m+i+1], i.e. the minor
    on rows and columns m+1 .. m+i+1 of the symbolic product matrix.
    """
    k = label.i + 1
    mshift = label.m
    if not (1 <= k <= n and 0 <= mshift <= n + 1 - k):
        raise ValueError(f"label ({label.i}, {label.m}) out of range for rank {n}")
    ring, prod = _fmatrix(n)
    rows = range(mshift, mshift + k)  # 0-based rows m+1 .. m+k
    picked = [tuple(prod[r][c] for c in rows) for r in rows]
    return determinant(picked)


def f_poly_closed_form(n: int, label: PiLabel) -> LaurentPoly:
    """1 + t_m + t_m t_{m+1} + ... + t_m .. t_{m+k-1}, empty sum for the initial variables."""
    ring = _fmatrix(n)[0]
    total = ring.one()
    if label.m == 0:
        return total
    exps = [0] * n
    for t in range(label.m - 1, label.m + label.i):
        exps[t] += 1
        total = total + ring.monomial(tuple(exps))
    return total


# -- polygon picture ------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class Diagonal:
    """Vertex pair of the convex (n+3)-gon; boundary sides are unit variables."""

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


def all_diagonals(n: int) -> tuple[Diagonal, ...]:
    out = []
    for a in range(1, n + 4):
        for b in range(a + 2, n + 4):
            d = Diagonal(a, b)
            if not d.is_boundary(n):
                out.append(d)
    return tuple(out)


def _in_cyclic_interval(lo: int, x: int, hi: int) -> bool:
    """x lies in the closed counter-clockwise vertex interval from lo to hi."""
    if lo <= hi:
        return lo <= x <= hi
    return x >= lo or x <= hi


def _dual_on_arc(n: int, p: int, lo: int, hi: int) -> bool:
    """The dual vertex p' (midpoint of the side ending at p) lies on the
    boundary arc running counter-clockwise from lo to hi."""
    prev = n + 3 if p == 1 else p - 1
    return _in_cyclic_interval(lo, prev, hi) and _in_cyclic_interval(lo, p, hi)


def _spanning_duals(n: int, arc1: tuple[int, int], arc2: tuple[int, int]):
    """Diagonals whose dual segment spans the strip closed off by the two arcs.

    The strip between two non-crossing chords is bounded by the chords and
    two boundary arcs; a dual diagonal is contained in it exactly when it
    stretches across, one endpoint on the midpoint of a side of each arc.
    """
    out = []
    for d in all_diagonals(n):
        ends = (d.a, d.b)
        for first, second in (ends, ends[::-1]):
            if _dual_on_arc(n, first, *arc1) and _dual_on_arc(n, second, *arc2):
                out.append(d)
                break
    return tuple(sorted(out))


def universal_coeff_typea(
    n: int, quad: tuple[int, int, int, int]
) -> tuple[tuple[Diagonal, ...], tuple[Diagonal, ...]]:
    """Universal coefficients of the exchange across a quadrilateral.

    ``quad = (i, j, k, l)`` in counter-clockwise order names the exchange of
    the crossing diagonals (i,k) and (j,l).  The first multiset goes with the
    product of the sides (i,j), (k,l): the generators of all diagonals whose
    dual spans the strip those two sides bound, i.e. with one dual endpoint
    on the arc from j to k and the other on the arc from l around to i.  The
    second multiset is the same rule for the sides (j,k) and (l,i).
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
