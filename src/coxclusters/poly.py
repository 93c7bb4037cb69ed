"""Exact multivariate Laurent polynomials with integer coefficients.

A polynomial is a finite map from exponent vectors (one slot per ring
variable, any sign) to nonzero Python ints; all arithmetic is exact and
arbitrary precision.  The canonical term order is lexicographic on exponent
vectors, ascending for serialization and descending for division leading
terms.

Packed monomials.  Every exponent vector is stored as one Python int whose
layout is fixed by the ring's slot count: one 16-bit field per slot, slot 0
most significant.  A field holds the exponent plus a bias of 0x6000, so its
two top bits, the guard bits, read ``01`` exactly when the exponent lies in
[-8192, 8191].  With this layout:

* the key of a product of monomials is ``a + b - one``, a single int
  addition (``one`` is the key of the zero vector); no field carries into
  its neighbour;
* int order on keys equals lexicographic order on exponent vectors, so the
  canonical order is ``sorted`` on ints and a leading term is ``max``;
* one guard-bit test on a combination of keys checks every field at once.
  An exponent outside the range raises ``OverflowError``; it never wraps.

Each polynomial caches its exponent box, the packed per-slot minima and
maxima of its terms.  The box of a product is exactly the sum of its
factors' boxes, because the extreme faces of a product over ZZ cannot
cancel, so a product is range-checked once, on its box, instead of term by
term.  A sum without cancellation takes the fieldwise union of the boxes;
any other box is computed from the terms when first needed.  Exact division
bounds its quotient by [lo_p - lo_q, hi_p - hi_q].

Exact division eliminates the remainder's leading term, and it finds each
next leading term by merging the once-sorted dividend keys with a heap of
the keys the elimination creates (Johnson's heap, 1974; Monagan and Pearce,
*Sparse polynomial division using a heap*, J. Symb. Comp. 2011), not by a
``max`` over the whole remainder.

``terms`` is the tuple-keyed view, unpacked on first use.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Sequence

_WIDTH = 16
_GUARD = 0x4000  # a valid field lies in [_GUARD, 2 * _GUARD)
_BIAS = 0x6000  # field = exponent + _BIAS
EXP_MIN = _GUARD - _BIAS
EXP_MAX = 2 * _GUARD - 1 - _BIAS


class InexactDivision(ArithmeticError):
    """Laurent division left a nonzero remainder."""


class _Layout:
    """Packed-key constants for one slot count.

    ``guard`` has the low guard bit of every field set and ``top`` both guard
    bits, so a key is valid when ``key & top == guard``.  Every combination of
    keys below keeps each field inside [0, 2**16), where such a test is exact.
    """

    __slots__ = ("nvars", "one", "guard", "top", "high", "shifts", "_struct")

    def __init__(self, nvars: int):
        ones = sum(1 << (_WIDTH * s) for s in range(nvars))
        self.nvars = nvars
        self.one = _BIAS * ones
        self.guard = _GUARD * ones
        self.top = 3 * _GUARD * ones
        self.high = 2 * _GUARD * ones
        self.shifts = tuple(_WIDTH * (nvars - 1 - s) for s in range(nvars))
        self._struct = struct.Struct(f">{nvars}H")

    def pack(self, exps: Sequence[int]) -> int:
        if len(exps) != self.nvars:
            raise ValueError("exponent vector length mismatch")
        key = 0
        for e in exps:
            if not EXP_MIN <= e <= EXP_MAX:
                raise OverflowError(f"exponent {e} outside the packed range [{EXP_MIN}, {EXP_MAX}]")
            key = (key << _WIDTH) + e
        return key + self.one

    def unpack(self, key: int) -> tuple[int, ...]:
        fields = self._struct.unpack(key.to_bytes(2 * self.nvars, "big"))
        return tuple([f - _BIAS for f in fields])

    def check(self, lo: int, hi: int) -> None:
        """Raise unless every field of both keys is a valid exponent."""
        if (lo & self.top) != self.guard or (hi & self.top) != self.guard:
            raise OverflowError(f"exponent outside the packed range [{EXP_MIN}, {EXP_MAX}]")

    def union(self, alo: int, ahi: int, blo: int, bhi: int) -> tuple[int, int]:
        """Fieldwise min of the lows and max of the highs of two valid boxes."""
        # Per field, a - b + 2*_GUARD lies in (_GUARD, 3*_GUARD), and its bit
        # 15 is set exactly when a >= b; the masks are all ones in such fields.
        high = self.high
        lo_mask = (((blo - alo + high) & high) >> (_WIDTH - 1)) * 0xFFFF
        hi_mask = (((ahi - bhi + high) & high) >> (_WIDTH - 1)) * 0xFFFF
        return blo ^ ((alo ^ blo) & lo_mask), bhi ^ ((ahi ^ bhi) & hi_mask)


@dataclass(frozen=True)
class PolyRing:
    """Named variable slots shared by a family of polynomials."""

    names: tuple[str, ...]

    @property
    def nvars(self) -> int:
        return len(self.names)

    @cached_property
    def layout(self) -> _Layout:
        return _Layout(self.nvars)

    def zero(self) -> "LaurentPoly":
        return LaurentPoly(self, {})

    def one(self) -> "LaurentPoly":
        key = self.layout.one
        return LaurentPoly(self, {key: 1}, key, key)

    def gen(self, i: int) -> "LaurentPoly":
        layout = self.layout
        key = layout.one + (1 << layout.shifts[i])
        return LaurentPoly(self, {key: 1}, key, key)

    def monomial(self, exps: Mapping[int, int] | Sequence[int], coef: int = 1) -> "LaurentPoly":
        if isinstance(exps, Mapping):
            vec = [0] * self.nvars
            for slot, e in exps.items():
                vec[slot] = e
            exps = vec
        key = self.layout.pack(tuple(exps))
        if not coef:
            return LaurentPoly(self, {})
        return LaurentPoly(self, {key: coef}, key, key)

    def from_terms(self, terms: Mapping[Sequence[int], int]) -> "LaurentPoly":
        """Polynomial with the given exponent-vector coefficients; zeros are dropped."""
        pack = self.layout.pack
        return LaurentPoly(self, {pack(tuple(e)): c for e, c in terms.items() if c})

    def index(self, name: str) -> int:
        return self.names.index(name)


class _Terms(Mapping):
    """Read-only map from exponent tuples to coefficients over packed terms.

    ``len`` reads the packed dict; the tuple keys are unpacked on the first
    lookup or iteration and then kept.
    """

    __slots__ = ("_packed", "_layout", "_tuples")

    def __init__(self, packed: dict, layout: _Layout):
        self._packed = packed
        self._layout = layout
        self._tuples = None

    def _unpacked(self) -> dict:
        if self._tuples is None:
            unpack = self._layout.unpack
            self._tuples = {unpack(k): c for k, c in self._packed.items()}
        return self._tuples

    def __len__(self) -> int:
        return len(self._packed)

    def __getitem__(self, exps):
        return self._unpacked()[exps]

    def __iter__(self):
        return iter(self._unpacked())

    def items(self):
        return self._unpacked().items()


class LaurentPoly:
    """Immutable exact Laurent polynomial over a :class:`PolyRing`.

    The constructor takes packed terms (and optionally the exact packed box);
    build polynomials through the ring and arithmetic.
    """

    __slots__ = ("ring", "_t", "_lo", "_hi", "_key", "_terms")

    def __init__(self, ring: PolyRing, packed: dict, lo: int | None = None,
                 hi: int | None = None):
        self.ring = ring
        self._t = packed
        self._lo = lo
        self._hi = hi
        self._key = None
        self._terms = None

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        """Coefficients by exponent tuple, read-only."""
        if self._terms is None:
            self._terms = _Terms(self._t, self.ring.layout)
        return self._terms

    def _box(self) -> tuple[int, int]:
        """Packed per-slot minima and maxima of a nonzero polynomial."""
        if self._lo is None:
            layout = self.ring.layout
            columns = list(zip(*map(layout.unpack, self._t)))
            self._lo = layout.pack([min(col) for col in columns])
            self._hi = layout.pack([max(col) for col in columns])
        return self._lo, self._hi

    # -- canonical form -------------------------------------------------------

    def key(self) -> tuple:
        """Sorted (packed exponent, coefficient) pairs; the canonical form and sort key.

        Within one ring, packed order is lexicographic exponent order.
        """
        if self._key is None:
            self._key = tuple(sorted(self._t.items()))
        return self._key

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.ring.nvars == other.ring.nvars
            and self._t == other._t
        )

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"<LaurentPoly {self}>"

    def __str__(self) -> str:
        if not self._t:
            return "0"
        names = self.ring.names
        unpack = self.ring.layout.unpack
        parts = []
        for key, coef in self.key():
            factors = []
            for name, e in zip(names, unpack(key)):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append(f"{name}^{e}")
            if not factors:
                parts.append(str(coef))
            elif coef == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{coef}*" + "*".join(factors))
        return "+".join(parts)

    # -- structure --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._t

    def is_one(self) -> bool:
        return self._t == {self.ring.layout.one: 1}

    def is_monomial(self) -> bool:
        return len(self._t) == 1

    def monomial_exps(self) -> tuple[int, ...]:
        (key,) = self._t
        return self.ring.layout.unpack(key)

    def constant_coefficient(self) -> int:
        return self._t.get(self.ring.layout.one, 0)

    def min_exponent(self, slot: int) -> int:
        if not self._t:
            raise ValueError("zero polynomial has no exponents")
        lo, _ = self._box()
        return ((lo >> self.ring.layout.shifts[slot]) & 0xFFFF) - _BIAS

    def degrees(self, slot_degrees: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
        """Multi-degrees of all terms under the given per-slot degree vectors."""
        dim = len(slot_degrees[0]) if slot_degrees else 0
        out = set()
        for exps in self.terms:
            deg = [0] * dim
            for e, vec in zip(exps, slot_degrees):
                if e:
                    for k in range(dim):
                        deg[k] += e * vec[k]
            out.add(tuple(deg))
        return out

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not other._t:
            return self
        if not self._t:
            return other
        out = dict(self._t)
        get = out.get
        cancelled = False
        for k, coef in other._t.items():
            c = get(k, 0) + coef
            if c:
                out[k] = c
            else:
                del out[k]
                cancelled = True
        if cancelled or self._lo is None or other._lo is None:
            return LaurentPoly(self.ring, out)
        lo, hi = self.ring.layout.union(self._lo, self._hi, other._lo, other._hi)
        return LaurentPoly(self.ring, out, lo, hi)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.ring, {k: -c for k, c in self._t.items()}, self._lo, self._hi)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = (self, other) if len(self._t) <= len(other._t) else (other, self)
        if not a._t:
            return LaurentPoly(self.ring, {})
        layout = self.ring.layout
        one = layout.one
        alo, ahi = a._box()
        blo, bhi = b._box()
        lo = alo + blo - one
        hi = ahi + bhi - one
        layout.check(lo, hi)
        if len(a._t) == 1:
            ((ka, ca),) = a._t.items()
            d = ka - one
            if ca == 1:
                out = {k + d: c for k, c in b._t.items()}
            else:
                out = {k + d: c * ca for k, c in b._t.items()}
            return LaurentPoly(self.ring, out, lo, hi)
        acc: dict = {}
        get = acc.get
        items = [(k - one, c) for k, c in b._t.items()]
        for ka, ca in a._t.items():
            for kb, cb in items:
                k = ka + kb
                acc[k] = get(k, 0) + ca * cb
        return LaurentPoly(self.ring, {k: c for k, c in acc.items() if c}, lo, hi)

    def __pow__(self, k: int) -> "LaurentPoly":
        """Power by repeated squaring.  The product starts from the first
        factor it needs, so ``p ** 1`` is ``p`` itself and costs no product.
        A negative power exists only for a monomial with coefficient +-1."""
        if k < 0:
            if not self.is_monomial():
                raise InexactDivision("negative power of a non-monomial")
            ((key, coef),) = self._t.items()
            if abs(coef) != 1:
                raise InexactDivision("negative power of a non-unit coefficient")
            exps = self.ring.layout.unpack(key)
            return self.ring.monomial(tuple(e * k for e in exps), coef ** (k & 1 or 2))
        if not k:
            return self.ring.one()
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact Laurent division; raises :class:`InexactDivision` otherwise.

        Leading-term elimination against the single divisor, which detects
        divisibility exactly.  An exact quotient lies in the box
        [lo_p - lo_q, hi_p - hi_q]; a leading quotient monomial outside it
        means a nonzero remainder.

        The remainder's terms are reached in descending order without
        rescanning it: the dividend's keys are sorted once and merged with a
        heap that holds only the keys the elimination creates, in the manner
        of Johnson's heap (1974) and of Monagan and Pearce, *Sparse
        polynomial division using a heap* (J. Symb. Comp., 2011).  Each
        quotient term then costs O(divisor terms * log heap) instead of a
        scan of the whole remainder.
        """
        q = divisor._t
        if not q:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self._t:
            return self
        layout = self.ring.layout
        one, guard = layout.one, layout.guard
        plo, phi = self._box()
        if len(q) == 1:
            ((qk, qc),) = q.items()
            d = one - qk
            lo, hi = plo + d, phi + d
            layout.check(lo, hi)
            out = {}
            for k, c in self._t.items():
                if c % qc:
                    raise InexactDivision("coefficient not divisible")
                out[k + d] = c // qc
            return LaurentPoly(self.ring, out, lo, hi)
        # Every field below stays in [0, 2**16): a difference of two exponents
        # from one box is smaller than 2*_GUARD in absolute value.
        qlo, qhi = divisor._box()
        lo = plo - qlo + one
        hi = phi - qhi + one
        if ((hi - lo + guard) & layout.top) != guard:
            raise InexactDivision("empty quotient box")
        layout.check(lo, hi)
        q_lead = max(q)
        q_lc = q[q_lead]
        # The leading term's own offset is left out: its key is popped below.
        offsets = [(k - q_lead, c) for k, c in q.items() if k != q_lead]
        # For a remainder leading term r, the quotient monomial is
        # r - q_lead + one.  Per field, r - below is (monomial - lo) + _GUARD
        # and above - r is (hi - monomial) + _GUARD, both in (0, 2*_GUARD).
        below = q_lead + lo - one - guard
        above = hi + q_lead - one + guard
        # Every key of ``rem`` sits in exactly one of ``order`` (the dividend,
        # ascending) and ``heap`` (negated keys that elimination created), and
        # a key that cancels keeps a 0 until it is reached.  Every offset is
        # negative, so the keys reached strictly descend.
        rem = dict(self._t)
        get = rem.get
        order = sorted(rem)
        heap: list = []
        quotient = {}
        while True:
            if heap and (not order or -heap[0] > order[-1]):
                r = -heappop(heap)
            elif order:
                r = order.pop()
            else:
                break
            r_lc = rem.pop(r)
            if not r_lc:
                continue
            if ((r - below) & (above - r) & guard) != guard or r_lc % q_lc:
                raise InexactDivision("nonzero remainder")
            co = r_lc // q_lc
            quotient[r - q_lead + one] = co
            for dk, qc in offsets:
                k = r + dk
                c = get(k)
                if c is None:
                    rem[k] = -co * qc
                    heappush(heap, -k)
                else:
                    rem[k] = c - co * qc
        return LaurentPoly(self.ring, quotient, lo, hi)

    # -- reinterpretation -----------------------------------------------------------

    def project(self, keep: Sequence[int], ring: PolyRing) -> "LaurentPoly":
        """Set every dropped slot to 1 and reindex the kept slots into ``ring``."""
        if len(keep) != ring.nvars:
            raise ValueError("kept slot count must match target ring")
        pack = ring.layout.pack
        out: dict = {}
        for exps, coef in self.terms.items():
            key = pack(tuple([exps[s] for s in keep]))
            c = out.get(key, 0) + coef
            if c:
                out[key] = c
            else:
                del out[key]
        return LaurentPoly(ring, out)

    def evaluate(self, values: Sequence["LaurentPoly"], ring: PolyRing) -> "LaurentPoly":
        """Substitute one polynomial value per slot.

        Negative exponents are only legal on slots whose value is a unit
        monomial.
        """
        total = ring.zero()
        for exps, coef in self.terms.items():
            term = ring.monomial((0,) * ring.nvars, coef)
            for e, val in zip(exps, values):
                if e:
                    term = term * val ** e
            total = total + term
        return total
