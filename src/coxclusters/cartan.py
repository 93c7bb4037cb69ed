"""Finite-type Cartan matrices, Coxeter graphs, and bipartitions.

Conventions (fixed once, used everywhere):

* ``a[i][j]`` is the pairing of the j-th simple root against the i-th
  coroot, so simple reflections act by ``s_i(alpha_j) = alpha_j -
  a[i][j]*alpha_i``.
* Node numbering follows the standard (Bourbaki) labelling of each Dynkin
  diagram, shifted to 0-based indices internally.  The double/triple bonds
  sit at:

  ====  =====================================================
  B_n   a[n-1][n-2] = -2  (last node short)
  C_n   a[n-2][n-1] = -2  (last node long)
  F_4   a[2][1] = -2      (nodes 3,4 short)
  G_2   a[1][0] = -3      (node 1 long, node 2 short)
  ====  =====================================================

  The transposed orientation of any matrix is accepted by ``validate``.
* Symmetrizers ``d`` are the smallest positive integers with
  ``d[i]*a[i][j] == d[j]*a[j][i]``, chosen per connected component.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


class InvalidCartanMatrix(ValueError):
    """Integer data that does not define a finite-type Cartan matrix."""


@dataclass(frozen=True)
class CartanMatrix:
    """Validated finite-type Cartan matrix with derived graph data.

    Instances are immutable; construct them through :func:`validate`,
    :func:`cartan_from_label` or :func:`direct_sum`.
    """

    n: int
    a: tuple[tuple[int, ...], ...]
    d: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        # Every per-matrix cache is keyed by the instance: hash the nested tuples once.
        object.__setattr__(self, "_hash", hash((self.n, self.a, self.d, self.components)))

    def __hash__(self) -> int:
        return self._hash

    def neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(j for j in range(self.n) if j != i and self.a[i][j] != 0)

    def transpose(self) -> "CartanMatrix":
        return validate([[self.a[j][i] for j in range(self.n)] for i in range(self.n)])

    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, j) for i in range(self.n) for j in range(i + 1, self.n) if self.a[i][j] != 0
        )


def _graph_components(n: int, adjacent) -> tuple[tuple[int, ...], ...]:
    seen: set[int] = set()
    comps: list[tuple[int, ...]] = []
    for start in range(n):
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adjacent(v):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def _symmetrizers(n: int, a, components) -> tuple[int, ...]:
    """Smallest positive integer symmetrizers, per component; None if impossible."""
    frac: list[Fraction | None] = [None] * n
    for comp in components:
        root = comp[0]
        frac[root] = Fraction(1)
        stack = [root]
        while stack:
            v = stack.pop()
            for w in range(n):
                if w == v or a[v][w] == 0:
                    continue
                ratio = Fraction(a[v][w], a[w][v])  # d_w / d_v
                if frac[w] is None:
                    frac[w] = frac[v] * ratio
                    stack.append(w)
                elif frac[w] != frac[v] * ratio:
                    raise InvalidCartanMatrix("matrix is not symmetrizable")
        denom_lcm = math.lcm(*(frac[i].denominator for i in comp))
        ints = [int(frac[i] * denom_lcm) for i in comp]
        g = math.gcd(*ints)
        for i, v in zip(comp, ints):
            frac[i] = Fraction(v // g)
    return tuple(int(x) for x in frac)


def validate(matrix) -> CartanMatrix:
    """Validate raw integer data and return a :class:`CartanMatrix`.

    Rejects anything that is not a generalized Cartan matrix, is not
    symmetrizable, or whose symmetrization fails to be positive definite.
    """
    rows = [tuple(int(x) for x in row) for row in matrix]
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise InvalidCartanMatrix("expected a non-empty square integer matrix")
    a = tuple(rows)
    for i in range(n):
        if a[i][i] != 2:
            raise InvalidCartanMatrix(f"diagonal entry a[{i}][{i}] = {a[i][i]} != 2")
        for j in range(n):
            if i == j:
                continue
            if a[i][j] > 0:
                raise InvalidCartanMatrix(f"off-diagonal entry a[{i}][{j}] = {a[i][j]} > 0")
            if (a[i][j] == 0) != (a[j][i] == 0):
                raise InvalidCartanMatrix(f"zero pattern not symmetric at ({i},{j})")
    components = _graph_components(
        n, lambda v: (w for w in range(n) if w != v and a[v][w] != 0)
    )
    d = _symmetrizers(n, a, components)
    if any(d[i] * a[i][j] != d[j] * a[j][i] for i in range(n) for j in range(n)):
        raise InvalidCartanMatrix("symmetrization is not symmetric")
    # D A is symmetric and D a positive diagonal, so D A is positive definite
    # exactly when every leading principal minor of A is positive.
    if min(_bareiss([list(row) for row in a])) <= 0:
        raise InvalidCartanMatrix("symmetrization not positive definite (not finite type)")
    return CartanMatrix(n=n, a=a, d=d, components=components)


def _bareiss(rows: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer ``rows``
    in place, pivoting down the diagonal without row exchanges.

    After step k every entry is a minor of order k + 1, so each division by
    the previous pivot is exact, and pivot k is the leading principal minor
    of order k + 1.  Returns the pivots, up to the first that is not positive.
    """
    pivots, prev = [], 1
    for k in range(len(rows)):
        pivot = rows[k][k]
        pivots.append(pivot)
        if pivot <= 0:
            break
        for i in range(len(rows)):
            if i != k:
                f = rows[i][k]
                rows[i] = [(pivot * x - f * y) // prev for x, y in zip(rows[i], rows[k])]
        prev = pivot
    return pivots


def _path_matrix(n: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    return a


_MIN_RANK = {"A": 1, "B": 2, "C": 3, "D": 4, "E": 6, "F": 4, "G": 2}
_MAX_RANK = {"E": 8, "F": 4, "G": 2}


@lru_cache(maxsize=None)
def cartan_from_label(type_letter: str, rank: int) -> CartanMatrix:
    """Cartan matrix of the finite type named by ``(type_letter, rank)``."""
    letter = type_letter.upper()
    if letter not in _MIN_RANK:
        raise InvalidCartanMatrix(f"unknown type letter {type_letter!r}")
    if rank < _MIN_RANK[letter] or rank > _MAX_RANK.get(letter, 10**9):
        raise InvalidCartanMatrix(f"rank {rank} out of range for type {letter}")
    if letter == "A":
        a = _path_matrix(rank)
    elif letter == "B":
        a = _path_matrix(rank)
        a[rank - 1][rank - 2] = -2
    elif letter == "C":
        a = _path_matrix(rank)
        a[rank - 2][rank - 1] = -2
    elif letter == "D":
        a = _path_matrix(rank - 1)
        for row in a:
            row.append(0)
        a.append([0] * rank)
        a[rank - 1][rank - 1] = 2
        a[rank - 1][rank - 3] = a[rank - 3][rank - 1] = -1
    elif letter == "E":
        # Nodes 1,3,4,5,...,rank form a path; node 2 hangs off node 4.
        a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        path = [0] + list(range(2, rank))
        for u, v in zip(path, path[1:]):
            a[u][v] = a[v][u] = -1
        a[1][3] = a[3][1] = -1
    elif letter == "F":
        a = _path_matrix(4)
        a[1][2] = -1
        a[2][1] = -2
    else:  # G
        a = [[2, -1], [-3, 2]]
    return validate(a)


def direct_sum(m1: CartanMatrix, m2: CartanMatrix) -> CartanMatrix:
    """Block-diagonal sum; components of ``m2`` are shifted past ``m1``."""
    n = m1.n + m2.n
    a = [[0] * n for _ in range(n)]
    for i in range(m1.n):
        for j in range(m1.n):
            a[i][j] = m1.a[i][j]
    for i in range(m2.n):
        for j in range(m2.n):
            a[m1.n + i][m1.n + j] = m2.a[i][j]
    return validate(a)


_LABEL_RE = re.compile(r"^([A-Ga-g])(\d+)$")


def is_type_label(spec: str) -> bool:
    """True when ``spec`` has the syntax of a type label such as ``"A2xA1"``."""
    return all(_LABEL_RE.match(part.strip()) for part in spec.split("x"))


def cartan_from_text(spec: str) -> CartanMatrix:
    """Parse a type label such as ``"A3"``, ``"E8"`` or ``"A2xA1"``."""
    parts = spec.split("x")
    matrices = []
    for part in parts:
        match = _LABEL_RE.match(part.strip())
        if not match:
            raise InvalidCartanMatrix(f"cannot parse type label {part!r}")
        matrices.append(cartan_from_label(match.group(1), int(match.group(2))))
    result = matrices[0]
    for extra in matrices[1:]:
        result = direct_sum(result, extra)
    return result


def cartan_from_matrix_text(text: str) -> CartanMatrix:
    """Parse a matrix given as rows of space-separated integers."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([int(tok) for tok in line.split()])
    if not rows:
        raise InvalidCartanMatrix("no matrix rows found")
    return validate(rows)


def bipartition(m: CartanMatrix) -> tuple[int, ...]:
    """Proper 2-coloring of the Coxeter graph with values in {+1, -1}.

    The lowest index of each connected component is assigned +1.  Raises on
    an odd cycle (impossible for finite type, kept as a defensive check).
    """
    eps = [0] * m.n
    for comp in m.components:
        root = comp[0]
        eps[root] = 1
        queue = [root]
        while queue:
            v = queue.pop()
            for w in m.neighbors(v):
                if eps[w] == 0:
                    eps[w] = -eps[v]
                    queue.append(w)
                elif eps[w] == eps[v]:
                    raise InvalidCartanMatrix("Coxeter graph contains an odd cycle")
    return tuple(eps)
